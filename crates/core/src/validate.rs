//! Cross-simulator validation as a first-class API.
//!
//! The paper's §IV-C consistency argument ("or else, there must be
//! mistakes in either simulator") is formalized here: run a candidate
//! simulator and the sequential reference on the same input and check the
//! images against the appropriate tolerance — exact-order f32 tolerance
//! for the parallel path, the lookup-table quantization bound for the
//! adaptive path. The CLI exposes this as `starsim validate`.

use gpusim::DeviceSpec;
use starfield::StarCatalog;
use starimage::diff::{compare, ImageDiff};

use crate::adaptive::build_lut;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::SimulationReport;
use crate::sequential::SequentialSimulator;
use crate::Simulator;

/// The verdict of a validation run.
#[derive(Debug, Clone)]
pub struct Validation {
    /// Name of the validated simulator.
    pub simulator: &'static str,
    /// Image difference vs the sequential reference.
    pub diff: ImageDiff,
    /// The measured error under the criterion's metric.
    pub measured: f32,
    /// The bound the candidate was held to.
    pub tolerance: f32,
    /// Whether the candidate passed.
    pub passed: bool,
    /// The candidate's report (timings, image).
    pub report: SimulationReport,
}

impl Validation {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: error {:.2e} (bound {:.2e}) — {}",
            self.simulator,
            self.measured,
            self.tolerance,
            if self.passed { "PASS" } else { "FAIL" }
        )
    }
}

/// How a candidate is compared to the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Criterion {
    /// Maximum per-pixel *relative* error must stay below the bound —
    /// for simulators computing the same arithmetic (order may differ).
    MaxRelative(f32),
    /// Maximum per-pixel error *normalized by the reference peak* must
    /// stay below the bound — for the adaptive path without sub-pixel
    /// phase bins, where star snapping makes dim wing pixels deviate
    /// relatively but the image stays close in absolute terms.
    PeakNormalized(f32),
}

/// The criterion a simulator's output is held to vs. sequential.
pub fn criterion_for(simulator: &str, config: &SimConfig) -> Result<Criterion, SimError> {
    match simulator {
        // Same arithmetic, different accumulation order.
        "sequential" | "parallel" | "pixel-centric" | "multi-gpu" => {
            Ok(Criterion::MaxRelative(1e-4))
        }
        "adaptive" | "adaptive-session" => {
            let lut = build_lut(config, &DeviceSpec::gtx480())?;
            let mag_bound = lut.brightness().max_relative_error() * 1.5;
            // The lookup table snaps the star to the nearest phase centre:
            // an offset of ≤ 0.5/phases px, whose worst per-pixel effect is
            // the PSF's maximum gradient step (≈ 0.8·peak per pixel for
            // σ ≥ 1), plus the magnitude-bin quantization.
            let snap_bound = 0.8 / config.lut_phases as f32;
            Ok(Criterion::PeakNormalized(snap_bound * 0.5 + mag_bound))
        }
        other => Err(SimError::InvalidConfig(format!(
            "no validation criterion defined for simulator `{other}`"
        ))),
    }
}

/// Validates `candidate` against the sequential reference on `catalog`.
pub fn validate<S: Simulator>(
    candidate: &S,
    catalog: &StarCatalog,
    config: &SimConfig,
) -> Result<Validation, SimError> {
    let reference = SequentialSimulator::new().simulate(catalog, config)?;
    let report = candidate.simulate(catalog, config)?;
    let diff = compare(&reference.image, &report.image, 0.0);
    let criterion = criterion_for(candidate.name(), config)?;
    let (passed, tolerance, measured) = match criterion {
        Criterion::MaxRelative(tol) => (diff.max_rel <= tol, tol, diff.max_rel),
        Criterion::PeakNormalized(tol) => {
            let peak = reference
                .image
                .data()
                .iter()
                .copied()
                .fold(0.0f32, f32::max)
                .max(1e-20);
            (diff.max_abs / peak <= tol, tol, diff.max_abs / peak)
        }
    };
    Ok(Validation {
        simulator: candidate.name(),
        passed,
        diff,
        measured,
        tolerance,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveSimulator, MultiGpuSimulator, ParallelSimulator, PixelCentricSimulator};
    use starfield::FieldGenerator;

    fn field() -> (StarCatalog, SimConfig) {
        (
            FieldGenerator::new(96, 96).generate(150, 5),
            SimConfig::new(96, 96, 10),
        )
    }

    #[test]
    fn parallel_validates() {
        let (cat, cfg) = field();
        let v = validate(&ParallelSimulator::new(), &cat, &cfg).unwrap();
        assert!(v.passed, "{}", v.summary());
        assert!(v.summary().contains("PASS"));
        assert_eq!(v.simulator, "parallel");
    }

    #[test]
    fn adaptive_validates_within_lut_bound() {
        let (cat, cfg) = field();
        let v = validate(&AdaptiveSimulator::new(), &cat, &cfg).unwrap();
        assert!(v.passed, "{}", v.summary());
        // Adaptive ⇒ peak-normalized criterion.
        let Criterion::PeakNormalized(loose) = criterion_for("adaptive", &cfg).unwrap() else {
            panic!("expected peak-normalized criterion")
        };
        // Phase bins tighten the bound and the run still passes.
        let mut phased = cfg.clone();
        phased.lut_phases = 8;
        phased.lut_mag_bins = 2048;
        let Criterion::PeakNormalized(tight) = criterion_for("adaptive", &phased).unwrap() else {
            panic!("expected peak-normalized criterion")
        };
        assert!(
            tight < loose / 3.0,
            "phases must tighten: {tight} vs {loose}"
        );
        let v = validate(&AdaptiveSimulator::new(), &cat, &phased).unwrap();
        assert!(v.passed, "{}", v.summary());
    }

    #[test]
    fn pixel_centric_and_multi_gpu_validate() {
        let (cat, cfg) = field();
        assert!(
            validate(&PixelCentricSimulator::new(), &cat, &cfg)
                .unwrap()
                .passed
        );
        assert!(
            validate(&MultiGpuSimulator::new(2), &cat, &cfg)
                .unwrap()
                .passed
        );
    }

    #[test]
    fn unknown_simulator_tolerance_is_an_error() {
        let (_, cfg) = field();
        assert!(criterion_for("warp-drive", &cfg).is_err());
    }

    /// A deliberately broken simulator must FAIL validation — the check
    /// actually checks something.
    struct Broken;
    impl Simulator for Broken {
        fn name(&self) -> &'static str {
            "parallel" // masquerade to get the tight tolerance
        }
        fn simulate(
            &self,
            catalog: &StarCatalog,
            config: &SimConfig,
        ) -> Result<SimulationReport, SimError> {
            let mut r = SequentialSimulator::new().simulate(catalog, config)?;
            // Corrupt one lit pixel by 10%.
            let idx = r.image.data().iter().position(|&v| v > 0.0).unwrap_or(0);
            r.image.data_mut()[idx] *= 1.1;
            Ok(r)
        }
    }

    #[test]
    fn corruption_is_caught() {
        let (cat, cfg) = field();
        let v = validate(&Broken, &cat, &cfg).unwrap();
        assert!(!v.passed, "corrupted output must fail: {}", v.summary());
        assert!(v.summary().contains("FAIL"));
    }
}
