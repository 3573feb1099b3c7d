//! Chaos-mode benchmark: the cost of the resilience layer and a seeded
//! fault-recovery demonstration.
//!
//! Two questions, answered in one run and recorded in `BENCH_PR3.json`:
//!
//! 1. **What does the plumbing cost when nothing fails?** The fault hooks
//!    are compiled in unconditionally, so a device with
//!    `FaultPlan::none()` must track the pooled+reuse baseline of the
//!    `throughput` experiment within noise (the PR gate is ≤ 3%).
//! 2. **Does recovery work at speed?** A `FaultPlan::seeded(seed, N)`
//!    run injects one fault of every kind across `N` frames; every frame
//!    must complete, and every recovered frame must be bit-identical to
//!    the fault-free run at the same worker count (seeded faults are
//!    spaced so retries stay on the bit-identical ladder rungs).

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpusim::{DeviceSpec, FaultPlan, VirtualGpu};
use starfield::catalog::StarCatalog;
use starfield::FieldGenerator;
use starsim_core::{AdaptiveSession, RetryPolicy, SessionSetup};

use super::format::{write_json_object, Json, Table};
use super::Context;

/// Headline shape: the paper's test-1 workload at 2^13 stars.
const IMAGE_SIZE: usize = 1024;
const ROI_SIDE: usize = 10;
const STAR_COUNT: usize = 1 << 13;

/// Chaos frames: enough launches that every fault of the seeded plan
/// (six kinds, one stride-4 slot each) fires.
const CHAOS_FRAMES: usize = 24;

/// Watchdog deadline for chaos-armed devices. Must comfortably exceed a
/// legitimate frame (~35 ms at this shape), otherwise healthy launches
/// time out and the run degenerates into timeout/rebuild churn.
const WATCHDOG: Duration = Duration::from_millis(250);

/// Stuck-lane stall: longer than the watchdog deadline, so the injected
/// wedge is detected rather than outwaited.
const STALL: Duration = Duration::from_millis(450);

fn catalog(frame: u64, seed: u64) -> StarCatalog {
    FieldGenerator::new(IMAGE_SIZE, IMAGE_SIZE).generate(STAR_COUNT, seed + frame)
}

/// A pooled+reuse session at the headline shape, optionally chaos-armed.
/// A faulted device gets a resilient session (the seeded plan's bind
/// fault fires during setup, so even construction needs the retry path).
fn session(ctx: &Context, workers: usize, plan: Option<Arc<FaultPlan>>) -> AdaptiveSession {
    let mut config = ctx.sim_config(IMAGE_SIZE, IMAGE_SIZE, ROI_SIDE);
    config.workers = Some(workers);
    let mut gpu = VirtualGpu::gtx480();
    let mut setup = SessionSetup::default();
    if let Some(plan) = plan {
        gpu = gpu.with_fault_plan(plan).with_watchdog(WATCHDOG);
        setup.retry = Some(RetryPolicy {
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        });
    }
    AdaptiveSession::open(gpu, config, setup).expect("session")
}

/// Best-of-`reps` sustained fps over `frames` identical frames.
fn sustained_fps(session: &AdaptiveSession, cat: &StarCatalog, frames: usize, reps: usize) -> f64 {
    let mut host = Vec::new();
    session.render_into(cat, &mut host).expect("warmup");
    let mut best = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..frames {
            session.render_into(cat, &mut host).expect("render");
        }
        let fps = frames as f64 / start.elapsed().as_secs_f64();
        best = best.max(fps);
    }
    best
}

/// Runs the overhead measurement and the seeded recovery demonstration;
/// writes `BENCH_PR3.json`.
pub fn run(ctx: &Context) -> Table {
    let frames = if ctx.quick { 6 } else { 24 };
    let reps = if ctx.quick { 2 } else { 3 };
    let workers = ctx
        .workers
        .unwrap_or(DeviceSpec::gtx480().sm_count as usize);
    let cat = catalog(0, ctx.seed);

    // 1. Steady-state overhead of the (empty) fault plan.
    eprintln!("chaos: baseline ({frames} frames, {workers} workers) ...");
    let baseline_fps = sustained_fps(&session(ctx, workers, None), &cat, frames, reps);
    eprintln!("chaos: FaultPlan::none() ({frames} frames) ...");
    let plan_none_fps = sustained_fps(
        &session(ctx, workers, Some(Arc::new(FaultPlan::none()))),
        &cat,
        frames,
        reps,
    );
    let overhead_pct = (1.0 - plan_none_fps / baseline_fps) * 100.0;

    // 2. Seeded chaos run vs the fault-free reference, frame by frame.
    eprintln!(
        "chaos: seeded recovery (seed {}, {CHAOS_FRAMES} frames) ...",
        ctx.seed
    );
    let clean = session(ctx, workers, None);
    let mut host = Vec::new();
    let expected: Vec<Vec<u32>> = (0..CHAOS_FRAMES)
        .map(|i| {
            clean
                .render_into(&catalog(i as u64, ctx.seed), &mut host)
                .expect("clean frame");
            host.iter().map(|x| x.to_bits()).collect()
        })
        .collect();

    let plan = Arc::new(FaultPlan::seeded(ctx.seed, CHAOS_FRAMES as u64).with_stall(STALL));
    let chaos = session(ctx, workers, Some(Arc::clone(&plan)));
    let chaos_start = Instant::now();
    let mut bit_identical = true;
    for (i, want) in expected.iter().enumerate() {
        chaos
            .render_into(&catalog(i as u64, ctx.seed), &mut host)
            .unwrap_or_else(|e| panic!("chaos frame {i} not recovered: {e}"));
        let got: Vec<u32> = host.iter().map(|x| x.to_bits()).collect();
        bit_identical &= &got == want;
    }
    let chaos_fps = CHAOS_FRAMES as f64 / chaos_start.elapsed().as_secs_f64();
    let report = chaos.resilience_report();

    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["baseline_fps".into(), format!("{baseline_fps:.2}")]);
    t.row(vec!["plan_none_fps".into(), format!("{plan_none_fps:.2}")]);
    t.row(vec!["overhead_pct".into(), format!("{overhead_pct:.2}")]);
    t.row(vec!["chaos_fps".into(), format!("{chaos_fps:.2}")]);
    t.row(vec!["faults_injected".into(), plan.injected().to_string()]);
    t.row(vec!["retries".into(), report.retries.to_string()]);
    t.row(vec![
        "rung_frames".into(),
        format!("{:?}", report.rung_frames),
    ]);
    t.row(vec!["bit_identical".into(), bit_identical.to_string()]);
    if overhead_pct > 3.0 {
        eprintln!(
            "chaos: WARNING: FaultPlan::none() overhead {overhead_pct:.2}% exceeds the 3% gate"
        );
    }

    let _ = write_json_object(
        &ctx.out_path("BENCH_PR3.json"),
        &[
            ("workload", Json::Str("test1/2^13".into())),
            ("frames", Json::Int(frames as u64)),
            ("workers", Json::Int(workers as u64)),
            ("baseline_fps", Json::f3(baseline_fps)),
            ("plan_none_fps", Json::f3(plan_none_fps)),
            ("overhead_pct", Json::f3(overhead_pct)),
            ("chaos_seed", Json::Int(ctx.seed)),
            ("chaos_frames", Json::Int(CHAOS_FRAMES as u64)),
            ("chaos_fps", Json::f3(chaos_fps)),
            ("faults_injected", Json::Int(plan.injected())),
            ("retries", Json::Int(report.retries)),
            (
                "rung_frames",
                Json::Array(report.rung_frames.iter().map(|&n| Json::Int(n)).collect()),
            ),
            ("exhausted", Json::Int(report.exhausted)),
            ("bit_identical", Json::Bool(bit_identical)),
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_study_runs_quick_and_writes_artefacts() {
        let dir = std::env::temp_dir().join("starsim_chaos");
        let ctx = Context {
            quick: true,
            out_dir: dir.clone(),
            workers: Some(2),
            ..Default::default()
        };
        let t = run(&ctx);
        assert_eq!(t.len(), 8, "eight metric rows");
        let json = std::fs::read_to_string(dir.join("BENCH_PR3.json")).unwrap();
        for key in [
            "baseline_fps",
            "plan_none_fps",
            "overhead_pct",
            "faults_injected",
            "rung_frames",
            "\"bit_identical\": true",
            "\"exhausted\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
