//! Static-vs-dynamic kernel audits: run the static analyzer over a
//! production kernel *exactly as its simulator builds it*, then launch the
//! very same (kernel, config) pair and return both the predicted
//! [`KernelReport`] and the measured [`KernelProfile`] side by side.
//!
//! This is the substrate of the `bench --analyze` consistency gate: the
//! static pass must agree with the dynamic counters within the documented
//! tolerances ([`gpusim::analyze::COALESCE_TOL`] and friends) on all three
//! production kernels, or the gate fails. Each audit stages its frame and
//! builds its (kernel, launch) pair through the same code its simulator
//! runs, so the audit vets the real production configuration, not a
//! lookalike.

use gpusim::analyze::{analyze_kernel, KernelReport};
use gpusim::{ExecMode, Kernel, KernelProfile, LaunchConfig, VirtualGpu};
use starfield::StarCatalog;

use crate::adaptive::{bind_lut, AdaptiveKernel};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::parallel::StarCentricKernel;
use crate::pixel_centric::PixelCentricKernel;
use crate::session::SessionSetup;
use crate::star_record::render_once;

/// One production kernel's static prediction next to its dynamic
/// measurement, from the same (kernel, launch, device) triple.
#[derive(Debug, Clone)]
pub struct KernelAudit {
    /// Launch name (`"star-centric"`, `"adaptive-lut"`, `"pixel-centric"`).
    pub name: String,
    /// The static analyzer's report.
    pub report: KernelReport,
    /// The dynamic launch's profile (counters, occupancy, modeled time).
    pub profile: KernelProfile,
}

impl KernelAudit {
    /// Measured global transactions per warp-level request.
    pub fn measured_tx_per_request(&self) -> f64 {
        let c = &self.profile.counters;
        if c.global_requests == 0 {
            0.0
        } else {
            c.global_transactions as f64 / c.global_requests as f64
        }
    }

    /// Measured shared-memory conflict extra per request.
    pub fn measured_shared_extra_per_request(&self) -> f64 {
        let c = &self.profile.counters;
        if c.shared_requests == 0 {
            0.0
        } else {
            c.shared_conflicts as f64 / c.shared_requests as f64
        }
    }

    /// Measured texture hit rate (1.0 for kernels with no fetches).
    pub fn measured_tex_hit_rate(&self) -> f64 {
        self.profile.counters.tex_hit_rate()
    }
}

/// The audit's device, once `config` is known to be valid.
fn device(config: &SimConfig) -> Result<VirtualGpu, SimError> {
    config.validate()?;
    let gpu = VirtualGpu::gtx480();
    Ok(match config.workers {
        Some(w) => gpu.with_workers(w),
        None => gpu,
    })
}

/// Analyzes `kernel` under `cfg`, then launches the same pair.
fn audit<K: Kernel>(
    gpu: &VirtualGpu,
    name: &str,
    kernel: &K,
    cfg: LaunchConfig,
    mode: ExecMode,
) -> Result<KernelAudit, SimError> {
    let report = analyze_kernel(name, kernel, &cfg, gpu.spec())?;
    let profile = gpu.launch_mode(name, kernel, cfg, mode)?;
    Ok(KernelAudit {
        name: name.into(),
        report,
        profile,
    })
}

/// Audits the paper's Fig. 6 star-centric kernel under `config` over
/// `catalog`, exactly as `ParallelSimulator::simulate` launches it.
pub fn audit_star_centric(
    config: &SimConfig,
    catalog: &StarCatalog,
) -> Result<KernelAudit, SimError> {
    let gpu = device(config)?;
    let (_, audited, _) = render_once(&gpu, config, catalog, |stars, image| {
        let (kernel, cfg) =
            StarCentricKernel::build(config, gpu.spec(), stars, catalog.len(), image);
        audit(&gpu, "star-centric", &kernel, cfg, config.exec_mode)
    })?;
    Ok(audited)
}

/// Audits the adaptive lookup-table kernel under `config` over `catalog`,
/// exactly as `AdaptiveSimulator::simulate` launches it (lookup table
/// built and bound to texture memory first).
pub fn audit_adaptive(config: &SimConfig, catalog: &StarCatalog) -> Result<KernelAudit, SimError> {
    let gpu = device(config)?;
    let lut = bind_lut(&gpu, config, &SessionSetup::default())?;
    let (_, audited, _) = render_once(&gpu, config, catalog, |stars, image| {
        let (kernel, cfg) =
            AdaptiveKernel::build(config, gpu.spec(), &lut, stars, catalog.len(), image);
        audit(&gpu, "adaptive-lut", &kernel, cfg, config.exec_mode)
    })?;
    Ok(audited)
}

/// Audits the pixel-centric baseline kernel under `config` over `catalog`,
/// exactly as `PixelCentricSimulator::simulate` launches it.
pub fn audit_pixel_centric(
    config: &SimConfig,
    catalog: &StarCatalog,
) -> Result<KernelAudit, SimError> {
    let gpu = device(config)?;
    let (_, audited, _) = render_once(&gpu, config, catalog, |stars, image| {
        let (kernel, cfg) = PixelCentricKernel::build(config, stars, catalog.len(), image);
        audit(&gpu, "pixel-centric", &kernel, cfg, config.exec_mode)
    })?;
    Ok(audited)
}

/// Audits all three production kernels under one config/catalog —
/// star-centric, adaptive, pixel-centric, in that order.
pub fn audit_production(
    config: &SimConfig,
    catalog: &StarCatalog,
) -> Result<Vec<KernelAudit>, SimError> {
    Ok(vec![
        audit_star_centric(config, catalog)?,
        audit_adaptive(config, catalog)?,
        audit_pixel_centric(config, catalog)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::analyze::{BANK_TOL, COALESCE_TOL, TEX_HIT_TOL};
    use starfield::FieldGenerator;

    fn setup() -> (SimConfig, StarCatalog) {
        let config = SimConfig {
            width: 256,
            height: 256,
            ..SimConfig::default()
        };
        let catalog = FieldGenerator::new(256, 256).generate(128, 2012);
        (config, catalog)
    }

    #[test]
    fn production_kernels_are_clean_and_consistent() {
        let (config, catalog) = setup();
        for audit in audit_production(&config, &catalog).unwrap() {
            assert!(
                !audit.report.has_deny(),
                "{}: {:#?}",
                audit.name,
                audit.report.lints
            );
            let p = &audit.report.prediction;
            assert!(
                (p.global_tx_per_request - audit.measured_tx_per_request()).abs() <= COALESCE_TOL,
                "{}: static {} vs dynamic {}",
                audit.name,
                p.global_tx_per_request,
                audit.measured_tx_per_request()
            );
            assert!(
                (p.shared_extra_per_request - audit.measured_shared_extra_per_request()).abs()
                    <= BANK_TOL,
                "{}: shared extra mismatch",
                audit.name
            );
            assert!(
                audit.measured_tex_hit_rate() + TEX_HIT_TOL >= p.tex_hit_rate_floor,
                "{}: measured hit rate {} below predicted floor {}",
                audit.name,
                audit.measured_tex_hit_rate(),
                p.tex_hit_rate_floor
            );
            assert_eq!(
                audit.report.occupancy, audit.profile.occupancy,
                "{}",
                audit.name
            );
        }
    }
}
