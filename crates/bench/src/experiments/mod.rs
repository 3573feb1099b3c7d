//! The experiment suite: one module per paper table/figure group.

pub mod ablation;
pub mod contention;
pub mod devices;
pub mod fig2;
pub mod format;
pub mod lutbuild;
pub mod multigpu;
pub mod session;
pub mod streams;
pub mod table3;
pub mod test1;
pub mod test2;
pub mod trace;

use std::path::PathBuf;

use starsim_core::{ExecMode, SimConfig};

/// Shared experiment settings.
#[derive(Debug, Clone)]
pub struct Context {
    /// Reduced sweeps for CI / smoke runs.
    pub quick: bool,
    /// Workload RNG seed.
    pub seed: u64,
    /// Directory CSV artefacts are written into.
    pub out_dir: PathBuf,
    /// Virtual-GPU executor every experiment launches with (`--exec`).
    /// Counters and modeled times are identical across modes; only host
    /// wall-clock changes.
    pub exec_mode: ExecMode,
    /// Host worker threads per launch (`--workers`). `None` = auto (one
    /// per available core, capped at the device SM count). Counters and
    /// modeled times are identical for any count; only host wall-clock
    /// changes.
    pub workers: Option<usize>,
}

impl Default for Context {
    fn default() -> Self {
        Context {
            quick: false,
            seed: 2012,
            out_dir: PathBuf::from("results"),
            exec_mode: ExecMode::default(),
            workers: None,
        }
    }
}

impl Context {
    /// Ensures the output directory exists and returns the path of `name`.
    pub fn out_path(&self, name: &str) -> PathBuf {
        let _ = std::fs::create_dir_all(&self.out_dir);
        self.out_dir.join(name)
    }

    /// A [`SimConfig`] for this context: defaults plus the selected
    /// executor mode.
    pub fn sim_config(&self, width: usize, height: usize, roi_side: usize) -> SimConfig {
        let mut config = SimConfig::new(width, height, roi_side);
        config.exec_mode = self.exec_mode;
        config.workers = self.workers;
        config
    }
}

/// Modeled per-ROI-pixel cost of the paper's sequential simulator on its
/// testbed (one core of a 2.8 GHz Core i7, C++ with libm `expf`/`powf`).
///
/// Derived from the paper's own numbers: at 2^17 stars × 100 ROI pixels the
/// parallel simulator's ≈270× speedup over a GPU application time of a few
/// milliseconds implies ≈1.9 s of sequential time, i.e. ≈145 ns per ROI
/// pixel. Speedups against this *reference* baseline are comparable to the
/// paper's. The locally measured sequential time is host wall-clock, so no
/// figure divides it by a modeled GPU time.
pub const REFERENCE_SEQ_NS_PER_PIXEL: f64 = 145.0;

/// Reference sequential application time for a workload, seconds.
pub fn reference_sequential_s(stars: usize, roi_side: usize) -> f64 {
    let per_star = (roi_side * roi_side) as f64 * REFERENCE_SEQ_NS_PER_PIXEL + 50.0;
    stars as f64 * per_star * 1e-9
}

/// Median, over five back-to-back pairs, of the sequential simulator's
/// application-time ratio of workload `b` to workload `a`. One wall-clock
/// sample is at the mercy of the worker threads of tests running beside
/// it on a small host; a pair run back to back sees the same load, and
/// the median drops the pairs that load split.
#[cfg(test)]
pub fn sequential_time_ratio(
    a: &starfield::workload::Workload,
    b: &starfield::workload::Workload,
) -> f64 {
    use starsim_core::{SequentialSimulator, Simulator};
    let time = |w: &starfield::workload::Workload| {
        let config = Context::default().sim_config(w.image_size, w.image_size, w.roi_side);
        SequentialSimulator::new()
            .simulate(&w.catalog, &config)
            .expect("sequential")
            .app_time_s
    };
    let mut ratios: Vec<f64> = (0..5)
        .map(|_| {
            let t_a = time(a);
            time(b) / t_a
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[2]
}
