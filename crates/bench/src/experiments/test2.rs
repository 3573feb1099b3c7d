//! Benchmark **test 2** (paper §IV-B): ROI side sweeps 2..32, star count
//! fixed at 8192, image 1024×1024. Feeds Figs. 13–16.

use starfield::workload;
use starsim_core::{AdaptiveSimulator, ParallelSimulator, SequentialSimulator, Simulator};

use super::format::{ms, speedup, Table};
use super::{reference_sequential_s, Context};

/// One sweep point of test 2.
#[derive(Debug, Clone, Default)]
pub struct Test2Row {
    /// ROI side length.
    pub roi_side: usize,
    /// Sequential application time (measured wall), seconds.
    pub seq_app: f64,
    /// Parallel application time (modeled), seconds.
    pub par_app: f64,
    /// Parallel kernel / non-kernel split, seconds.
    pub par_kernel: f64,
    /// Parallel non-kernel time, seconds.
    pub par_non_kernel: f64,
    /// Adaptive application time (modeled), seconds.
    pub ada_app: f64,
    /// Adaptive kernel time, seconds.
    pub ada_kernel: f64,
    /// Adaptive non-kernel time, seconds.
    pub ada_non_kernel: f64,
}

/// Runs the sweep. `quick` uses sides 2..=12 only.
pub fn run(ctx: &Context) -> Vec<Test2Row> {
    let sides: Vec<usize> = if ctx.quick {
        vec![2, 4, 6, 8, 10, 12]
    } else {
        workload::TEST2_ROI_SIDES.to_vec()
    };
    let seq = SequentialSimulator::new();
    let par = ParallelSimulator::new();
    let ada = AdaptiveSimulator::new();

    let mut rows = Vec::new();
    for side in sides {
        let w = workload::test2(side, ctx.seed);
        let config = ctx.sim_config(w.image_size, w.image_size, side);
        eprintln!("test2: ROI {side}x{side} ...");
        let rs = seq.simulate(&w.catalog, &config).expect("sequential");
        let rp = par.simulate(&w.catalog, &config).expect("parallel");
        let ra = ada.simulate(&w.catalog, &config).expect("adaptive");
        rows.push(Test2Row {
            roi_side: side,
            seq_app: rs.app_time_s,
            par_app: rp.app_time_s,
            par_kernel: rp.kernel_time_s(),
            par_non_kernel: rp.non_kernel_time_s(),
            ada_app: ra.app_time_s,
            ada_kernel: ra.kernel_time_s(),
            ada_non_kernel: ra.non_kernel_time_s(),
        });
    }
    rows
}

/// Fig. 13 — overall simulation time of the three simulators.
pub fn fig13(rows: &[Test2Row], ctx: &Context) -> Table {
    let mut t = Table::new(vec![
        "roi_side",
        "sequential_wall_ms",
        "parallel_ms",
        "adaptive_ms",
    ]);
    for r in rows {
        t.row(vec![
            r.roi_side.to_string(),
            ms(r.seq_app),
            ms(r.par_app),
            ms(r.ada_app),
        ]);
    }
    let _ = t.write_csv(&ctx.out_path("fig13.csv"));
    t
}

/// Fig. 14 — speedups of the GPU simulators vs the paper-testbed
/// reference sequential model (modeled over modeled, as in Fig. 10).
pub fn fig14(rows: &[Test2Row], ctx: &Context) -> Table {
    let mut t = Table::new(vec![
        "roi_side",
        "parallel_speedup_ref",
        "adaptive_speedup_ref",
    ]);
    for r in rows {
        let seq_ref = reference_sequential_s(8192, r.roi_side);
        t.row(vec![
            r.roi_side.to_string(),
            speedup(seq_ref / r.par_app),
            speedup(seq_ref / r.ada_app),
        ]);
    }
    let _ = t.write_csv(&ctx.out_path("fig14.csv"));
    t
}

/// Fig. 15 — kernel vs non-kernel breakdown for both GPU simulators.
pub fn fig15(rows: &[Test2Row], ctx: &Context) -> Table {
    let mut t = Table::new(vec![
        "roi_side",
        "parallel_kernel_ms",
        "parallel_non_kernel_ms",
        "adaptive_kernel_ms",
        "adaptive_non_kernel_ms",
    ]);
    for r in rows {
        t.row(vec![
            r.roi_side.to_string(),
            ms(r.par_kernel),
            ms(r.par_non_kernel),
            ms(r.ada_kernel),
            ms(r.ada_non_kernel),
        ]);
    }
    let _ = t.write_csv(&ctx.out_path("fig15.csv"));
    t
}

/// Fig. 16 — percentage of application time spent outside kernels.
pub fn fig16(rows: &[Test2Row], ctx: &Context) -> Table {
    let mut t = Table::new(vec![
        "roi_side",
        "parallel_non_kernel_pct",
        "adaptive_non_kernel_pct",
    ]);
    for r in rows {
        t.row(vec![
            r.roi_side.to_string(),
            format!("{:.1}", r.par_non_kernel / r.par_app * 100.0),
            format!("{:.1}", r.ada_non_kernel / r.ada_app * 100.0),
        ]);
    }
    let _ = t.write_csv(&ctx.out_path("fig16.csv"));
    t
}

/// The ROI-side inflection point: the first sweep point where the adaptive
/// simulator's application time beats the parallel one.
pub fn inflection_roi(rows: &[Test2Row]) -> Option<usize> {
    rows.iter()
        .find(|r| r.ada_app < r.par_app)
        .map(|r| r.roi_side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sequential_time_ratio;

    fn quick_rows() -> Vec<Test2Row> {
        let ctx = Context {
            quick: true,
            out_dir: std::env::temp_dir().join("starsim_test2"),
            ..Default::default()
        };
        run(&ctx)
    }

    #[test]
    fn sweep_and_figures() {
        let ctx = Context {
            quick: true,
            out_dir: std::env::temp_dir().join("starsim_test2"),
            ..Default::default()
        };
        let rows = quick_rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(fig13(&rows, &ctx).len(), 6);
        assert_eq!(fig14(&rows, &ctx).len(), 6);
        assert_eq!(fig15(&rows, &ctx).len(), 6);
        assert_eq!(fig16(&rows, &ctx).len(), 6);
    }

    #[test]
    fn sequential_grows_with_roi_area() {
        // ROI 12 does 36× the pixel work of ROI 2.
        let seed = Context::default().seed;
        assert!(sequential_time_ratio(&workload::test2(2, seed), &workload::test2(12, seed)) > 5.0);
    }

    #[test]
    fn kernel_share_rises_with_roi() {
        let rows = quick_rows();
        let first = &rows[0];
        let last = rows.last().unwrap();
        let pct = |k: f64, app: f64| k / app * 100.0;
        assert!(
            pct(last.par_kernel, last.par_app) > pct(first.par_kernel, first.par_app),
            "kernel share must rise with ROI side (paper Fig. 16)"
        );
    }
}
