//! Benchmark **test 1** (paper §IV-A): star count sweeps `2^5 .. 2^17`,
//! ROI fixed at 10×10, image 1024×1024. Feeds Figs. 9–12 and Tables I–II.

use starfield::workload;
use starsim_core::{AdaptiveSimulator, ParallelSimulator, SequentialSimulator, Simulator};

use super::format::{ms, speedup, Table};
use super::{reference_sequential_s, Context};

/// One sweep point: all three simulators on the same star field.
#[derive(Debug, Clone, Default)]
pub struct Test1Row {
    /// log2 of the star count.
    pub exponent: u32,
    /// Star count.
    pub stars: usize,
    /// Sequential application time (measured wall), seconds.
    pub seq_app: f64,
    /// Parallel application time (modeled), seconds.
    pub par_app: f64,
    /// Parallel kernel time, seconds.
    pub par_kernel: f64,
    /// Parallel non-kernel time, seconds.
    pub par_non_kernel: f64,
    /// Parallel achieved GFLOPS.
    pub par_gflops: f64,
    /// Adaptive application time (modeled), seconds.
    pub ada_app: f64,
    /// Adaptive kernel time, seconds.
    pub ada_kernel: f64,
    /// Adaptive non-kernel time, seconds.
    pub ada_non_kernel: f64,
    /// Adaptive achieved GFLOPS.
    pub ada_gflops: f64,
    /// Adaptive CPU-GPU transmission time, seconds (Table I row 1).
    pub ada_transfer: f64,
    /// Adaptive lookup-table build time, seconds (Table I row 2).
    pub ada_lut_build: f64,
    /// Adaptive texture binding time, seconds (Table I row 3).
    pub ada_tex_bind: f64,
}

/// Runs the sweep. `quick` stops at 2^12 (CI-friendly).
pub fn run(ctx: &Context) -> Vec<Test1Row> {
    let max_exp = if ctx.quick { 12 } else { 17 };
    let seq = SequentialSimulator::new();
    let par = ParallelSimulator::new();
    let ada = AdaptiveSimulator::new();

    let mut rows = Vec::new();
    for exponent in 5..=max_exp {
        let w = workload::test1(exponent, ctx.seed);
        let config = ctx.sim_config(w.image_size, w.image_size, w.roi_side);
        eprintln!("test1: 2^{exponent} stars ...");
        let rs = seq.simulate(&w.catalog, &config).expect("sequential");
        let rp = par.simulate(&w.catalog, &config).expect("parallel");
        let ra = ada.simulate(&w.catalog, &config).expect("adaptive");
        rows.push(Test1Row {
            exponent,
            stars: w.catalog.len(),
            seq_app: rs.app_time_s,
            par_app: rp.app_time_s,
            par_kernel: rp.kernel_time_s(),
            par_non_kernel: rp.non_kernel_time_s(),
            par_gflops: rp.gflops(),
            ada_app: ra.app_time_s,
            ada_kernel: ra.kernel_time_s(),
            ada_non_kernel: ra.non_kernel_time_s(),
            ada_gflops: ra.gflops(),
            ada_transfer: ra.profile.overhead_named("CPU-GPU transmission"),
            ada_lut_build: ra.profile.overhead_named("lookup table build"),
            ada_tex_bind: ra.profile.overhead_named("texture memory binding"),
        });
    }
    rows
}

/// Fig. 9 — overall simulation time of the three simulators.
pub fn fig9(rows: &[Test1Row], ctx: &Context) -> Table {
    let mut t = Table::new(vec![
        "stars",
        "sequential_wall_ms",
        "parallel_ms",
        "adaptive_ms",
    ]);
    for r in rows {
        t.row(vec![
            format!("2^{}", r.exponent),
            ms(r.seq_app),
            ms(r.par_app),
            ms(r.ada_app),
        ]);
    }
    let _ = t.write_csv(&ctx.out_path("fig9.csv"));
    t
}

/// Fig. 10 — application speedup of both GPU simulators vs sequential.
///
/// The baseline is the paper-testbed *reference* model (see
/// [`super::REFERENCE_SEQ_NS_PER_PIXEL`]), whose magnitudes are
/// comparable to the paper's reported 97×-average / 270×-max speedups:
/// both sides of every ratio are modeled times.
pub fn fig10(rows: &[Test1Row], ctx: &Context) -> Table {
    let mut t = Table::new(vec![
        "stars",
        "parallel_speedup_ref",
        "adaptive_speedup_ref",
    ]);
    for r in rows {
        let seq_ref = reference_sequential_s(r.stars, 10);
        t.row(vec![
            format!("2^{}", r.exponent),
            speedup(seq_ref / r.par_app),
            speedup(seq_ref / r.ada_app),
        ]);
    }
    let _ = t.write_csv(&ctx.out_path("fig10.csv"));
    t
}

/// Fig. 11 — kernel time of the two GPU simulators.
pub fn fig11(rows: &[Test1Row], ctx: &Context) -> Table {
    let mut t = Table::new(vec!["stars", "parallel_kernel_ms", "adaptive_kernel_ms"]);
    for r in rows {
        t.row(vec![
            format!("2^{}", r.exponent),
            ms(r.par_kernel),
            ms(r.ada_kernel),
        ]);
    }
    let _ = t.write_csv(&ctx.out_path("fig11.csv"));
    t
}

/// Fig. 12 — non-kernel time of the two GPU simulators.
pub fn fig12(rows: &[Test1Row], ctx: &Context) -> Table {
    let mut t = Table::new(vec![
        "stars",
        "parallel_non_kernel_ms",
        "adaptive_non_kernel_ms",
    ]);
    for r in rows {
        t.row(vec![
            format!("2^{}", r.exponent),
            ms(r.par_non_kernel),
            ms(r.ada_non_kernel),
        ]);
    }
    let _ = t.write_csv(&ctx.out_path("fig12.csv"));
    t
}

/// Table I — breakdown of the adaptive simulator's non-kernel overhead.
pub fn table1(rows: &[Test1Row], ctx: &Context) -> Table {
    let mut t = Table::new(vec![
        "stars",
        "cpu_gpu_transmission_ms",
        "lookup_table_build_ms",
        "texture_binding_ms",
    ]);
    for r in rows {
        t.row(vec![
            format!("2^{}", r.exponent),
            ms(r.ada_transfer),
            ms(r.ada_lut_build),
            ms(r.ada_tex_bind),
        ]);
    }
    let _ = t.write_csv(&ctx.out_path("table1.csv"));
    t
}

/// Table II — achieved GFLOPS of both kernels at the top of the sweep.
pub fn table2(rows: &[Test1Row], ctx: &Context) -> Table {
    let mut t = Table::new(vec!["stars", "parallel_gflops", "adaptive_gflops"]);
    if let Some(r) = rows.last() {
        t.row(vec![
            format!("2^{}", r.exponent),
            format!("{:.2}", r.par_gflops),
            format!("{:.2}", r.ada_gflops),
        ]);
    }
    let _ = t.write_csv(&ctx.out_path("table2.csv"));
    t
}

/// The star-count inflection point: the first sweep point where the
/// adaptive simulator's application time beats the parallel one.
pub fn inflection_stars(rows: &[Test1Row]) -> Option<u32> {
    rows.iter()
        .find(|r| r.ada_app < r.par_app)
        .map(|r| r.exponent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sequential_time_ratio;

    fn quick_rows() -> Vec<Test1Row> {
        let ctx = Context {
            quick: true,
            out_dir: std::env::temp_dir().join("starsim_test1"),
            ..Default::default()
        };
        run(&ctx)
    }

    #[test]
    fn sweep_produces_all_figures() {
        let ctx = Context {
            quick: true,
            out_dir: std::env::temp_dir().join("starsim_test1"),
            ..Default::default()
        };
        let rows = quick_rows();
        assert_eq!(rows.len(), 8); // 2^5..=2^12
        for (f, n) in [
            (fig9(&rows, &ctx), "fig9"),
            (fig10(&rows, &ctx), "fig10"),
            (fig11(&rows, &ctx), "fig11"),
            (fig12(&rows, &ctx), "fig12"),
            (table1(&rows, &ctx), "table1"),
        ] {
            assert_eq!(f.len(), rows.len(), "{n}");
            assert!(ctx.out_path(&format!("{n}.csv")).exists(), "{n} csv");
        }
        assert_eq!(table2(&rows, &ctx).len(), 1);
    }

    #[test]
    fn sequential_time_grows_linearly_with_stars() {
        // Doubling the star count should roughly double sequential time
        // across the upper half of the sweep (timer noise dominates below).
        let seed = Context::default().seed;
        let ratio = sequential_time_ratio(&workload::test1(11, seed), &workload::test1(12, seed));
        assert!(
            (1.3..3.5).contains(&ratio),
            "sequential 2x-star ratio was {ratio}"
        );
    }

    #[test]
    fn gpu_kernel_time_scales_with_stars() {
        // Compare kernel *work* (time minus the fixed launch overhead,
        // which dominates tiny launches).
        let overhead = gpusim::CostModel::fermi().launch_overhead_s;
        let rows = quick_rows();
        let a = &rows[0];
        let b = rows.last().unwrap();
        assert!(b.par_kernel - overhead > (a.par_kernel - overhead) * 10.0);
        assert!(b.ada_kernel - overhead > (a.ada_kernel - overhead) * 10.0);
    }

    #[test]
    fn non_kernel_is_roughly_flat() {
        let rows = quick_rows();
        let first = rows[0].par_non_kernel;
        let last = rows.last().unwrap().par_non_kernel;
        assert!(
            last < first * 2.0,
            "transfer-dominated overhead is flat-ish"
        );
    }
}
