//! Sanitizer benchmark: the compute-sanitizer's three acceptance claims,
//! answered in one run and recorded in `BENCH_PR5.json`:
//!
//! 1. **Does it cost anything when off?** A batched session on a device
//!    with the sanitizer machinery explicitly attached (all checks
//!    configured, mode not `Sanitized`) must track the plain batched
//!    baseline within the PR gate of ≤ 1% (the per-launch dormant cost is
//!    one relaxed atomic increment: the launch id).
//! 2. **Are the paper simulators clean?** Sequential, parallel and
//!    adaptive all run in `Sanitized` mode and every drained report must
//!    carry zero findings (`"findings": 0`).
//! 3. **Does it actually catch bugs?** Every kernel in the known-bad
//!    corpus ([`gpusim::sanitize::corpus`]) must be flagged with a finding
//!    of its expected class, and the static pre-launch validators must
//!    reject an oversized ROI and an over-tall launch
//!    (`"corpus_flagged": true`).

use std::time::Instant;

use gpusim::sanitize::{corpus, validate_launch, validate_roi};
use gpusim::{ExecMode, Kernel, LaunchConfig, SanitizeConfig, VirtualGpu};
use starfield::catalog::StarCatalog;
use starfield::FieldGenerator;
use starsim_core::{
    AdaptiveSession, AdaptiveSimulator, ParallelSimulator, SequentialSimulator, SessionSetup,
    Simulator,
};

use super::format::{write_json_object, Json, Table};
use super::Context;

/// Headline shape for the overhead gate: the paper's test-1 workload at
/// 2^13 stars (same shape as the chaos and trace gates).
const IMAGE_SIZE: usize = 1024;
const ROI_SIDE: usize = 10;
const STAR_COUNT: usize = 1 << 13;

/// The disabled-sanitizer overhead ceiling, percent.
const GATE_PCT: f64 = 1.0;

fn catalog(seed: u64) -> StarCatalog {
    FieldGenerator::new(IMAGE_SIZE, IMAGE_SIZE).generate(STAR_COUNT, seed)
}

/// A pooled+reuse batched session at the headline shape, on `gpu`.
fn session(ctx: &Context, workers: usize, gpu: VirtualGpu) -> AdaptiveSession {
    let mut config = ctx.sim_config(IMAGE_SIZE, IMAGE_SIZE, ROI_SIDE);
    config.exec_mode = ExecMode::Batched;
    config.workers = Some(workers);
    AdaptiveSession::open(gpu, config, SessionSetup::default()).expect("session")
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

/// Runs one corpus kernel on a sanitizing device and returns how many
/// findings of `class` its report carries.
fn flagged<K: Kernel>(gpu: &VirtualGpu, kernel: &K, cfg: LaunchConfig, class: &str) -> usize {
    gpu.launch("corpus", kernel, cfg).expect("sanitized launch");
    gpu.take_sanitize_reports()
        .iter()
        .map(|r| r.count_class(class))
        .sum()
}

/// Runs the whole known-bad corpus plus the static validators; returns
/// `(name, class, findings)` rows. `corpus_flagged` holds iff every row's
/// count is positive.
fn run_corpus(workers: usize) -> Vec<(&'static str, &'static str, usize)> {
    let gpu = VirtualGpu::gtx480()
        .with_workers(workers)
        .with_exec_mode(ExecMode::Sanitized);
    let mut rows = Vec::new();

    let (src, _) = gpu.upload(vec![1.0f32; 8]);
    let image = gpu.alloc_atomic_f32(8 * 32);
    let k = corpus::MissingBarrier {
        src: &src,
        image: &image,
    };
    rows.push((
        "missing-barrier",
        "race",
        flagged(
            &gpu,
            &k,
            LaunchConfig::new(8u32, 32u32).with_shared_mem(4),
            "race",
        ),
    ));

    let image = gpu.alloc_atomic_f32(4);
    let k = corpus::PlainStore { image: &image };
    rows.push((
        "plain-store",
        "race",
        flagged(&gpu, &k, LaunchConfig::new(4u32, 32u32), "race"),
    ));

    let image = gpu.alloc_atomic_f32(63);
    let k = corpus::RoiOffByOne { image: &image };
    rows.push((
        "roi-off-by-one",
        "out-of-bounds",
        flagged(&gpu, &k, LaunchConfig::new(2u32, 32u32), "out-of-bounds"),
    ));

    rows.push((
        "divergent-exit",
        "barrier-divergence",
        flagged(
            &gpu,
            &corpus::DivergentExit,
            LaunchConfig::new(1u32, 32u32),
            "barrier-divergence",
        ),
    ));

    rows.push((
        "uninit-read",
        "uninit-shared-read",
        flagged(
            &gpu,
            &corpus::UninitRead,
            LaunchConfig::new(1u32, 32u32).with_shared_mem(4),
            "uninit-shared-read",
        ),
    ));

    let k = corpus::SharedOob { words: 3 };
    rows.push((
        "shared-oob",
        "out-of-bounds",
        flagged(
            &gpu,
            &k,
            LaunchConfig::new(1u32, 32u32).with_shared_mem(12),
            "out-of-bounds",
        ),
    ));

    let (lut, _, _) = gpu.bind_texture(4, 4, 2, vec![0.5; 32]).expect("bind");
    let k = corpus::TexLayerOob { lut: &lut };
    rows.push((
        "tex-layer-oob",
        "out-of-bounds",
        flagged(&gpu, &k, LaunchConfig::new(1u32, 32u32), "out-of-bounds"),
    ));

    // The static validators count as corpus entries too: a rejection is
    // "one finding".
    let spec = gpu.spec();
    let roi_rejected = validate_roi(80, 64, 64).is_err() as usize;
    rows.push(("static-roi-validator", "invalid-launch", roi_rejected));
    let tall = LaunchConfig::new(1u32, spec.max_threads_per_block + 1);
    let launch_rejected = validate_launch(&tall, spec).is_err() as usize;
    rows.push(("static-launch-validator", "invalid-launch", launch_rejected));

    rows
}

/// Runs the three paper simulators in `Sanitized` mode on a reduced field
/// and returns `(reports, findings)` summed across them.
fn clean_pass(ctx: &Context, workers: usize) -> (usize, usize) {
    let side = if ctx.quick { 128 } else { 256 };
    let stars = if ctx.quick { 256 } else { 1024 };
    let mut config = ctx.sim_config(side, side, ROI_SIDE);
    config.exec_mode = ExecMode::Sanitized;
    config.workers = Some(workers);
    let cat = FieldGenerator::new(side, side).generate(stars, ctx.seed);

    // Sequential is pure host code: nothing launches, nothing to drain.
    SequentialSimulator::new()
        .simulate(&cat, &config)
        .expect("sequential");
    let mut reports = 0usize;
    let mut findings = 0usize;

    let par = ParallelSimulator::new();
    par.simulate(&cat, &config).expect("parallel");
    for r in par.gpu().take_sanitize_reports() {
        reports += 1;
        findings += r.findings.len();
    }

    let ada = AdaptiveSimulator::new();
    ada.simulate(&cat, &config).expect("adaptive");
    for r in ada.gpu().take_sanitize_reports() {
        reports += 1;
        findings += r.findings.len();
    }
    (reports, findings)
}

/// Runs the overhead gate, the clean pass and the corpus sweep; writes
/// `BENCH_PR5.json`.
pub fn run(ctx: &Context) -> Table {
    let frames = if ctx.quick { 6 } else { 24 };
    let reps = if ctx.quick { 2 } else { 3 };
    let workers = ctx
        .workers
        .unwrap_or(gpusim::DeviceSpec::gtx480().sm_count as usize);

    // 1. Batched baseline vs batched with the sanitizer attached-but-off.
    eprintln!("sanitize: baseline ({frames} frames, {workers} workers) ...");
    let cat = catalog(ctx.seed);
    let baseline_fps = sustained_fps(
        &session(ctx, workers, VirtualGpu::gtx480()),
        &cat,
        frames,
        reps,
    );
    eprintln!("sanitize: attached-but-disabled ({frames} frames) ...");
    let armed = VirtualGpu::gtx480().with_sanitize_config(SanitizeConfig::default());
    let attached_fps = sustained_fps(&session(ctx, workers, armed), &cat, frames, reps);
    let overhead_pct = (1.0 - attached_fps / baseline_fps) * 100.0;
    let gate_ok = overhead_pct <= GATE_PCT;
    if !gate_ok {
        eprintln!(
            "sanitize: WARNING: disabled overhead {overhead_pct:.2}% exceeds the {GATE_PCT}% gate"
        );
    }

    // 2. Clean pass over the three paper simulators.
    eprintln!("sanitize: clean pass (sequential / parallel / adaptive) ...");
    let (reports, findings) = clean_pass(ctx, workers);

    // 3. The known-bad corpus.
    eprintln!("sanitize: known-bad corpus ...");
    let rows = run_corpus(workers);
    let corpus_flagged = rows.iter().all(|(_, _, n)| *n > 0);

    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["baseline_fps".into(), format!("{baseline_fps:.2}")]);
    t.row(vec!["attached_fps".into(), format!("{attached_fps:.2}")]);
    t.row(vec!["overhead_pct".into(), format!("{overhead_pct:.2}")]);
    t.row(vec!["gate_ok".into(), gate_ok.to_string()]);
    t.row(vec!["clean_reports".into(), reports.to_string()]);
    t.row(vec!["findings".into(), findings.to_string()]);
    for (name, class, n) in &rows {
        t.row(vec![format!("corpus/{name} [{class}]"), n.to_string()]);
    }
    t.row(vec!["corpus_flagged".into(), corpus_flagged.to_string()]);

    let _ = write_json_object(
        &ctx.out_path("BENCH_PR5.json"),
        &[
            ("workload", Json::Str("test1/2^13".into())),
            ("frames", Json::Int(frames as u64)),
            ("workers", Json::Int(workers as u64)),
            ("baseline_fps", Json::f3(baseline_fps)),
            ("attached_fps", Json::f3(attached_fps)),
            ("overhead_pct", Json::f3(overhead_pct)),
            ("gate_ok", Json::Bool(gate_ok)),
            ("clean_reports", Json::Int(reports as u64)),
            ("findings", Json::Int(findings as u64)),
            ("corpus_kernels", Json::Int(rows.len() as u64)),
            ("corpus_flagged", Json::Bool(corpus_flagged)),
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_study_runs_quick_and_writes_artefacts() {
        let dir = std::env::temp_dir().join("starsim_sanitize_bench");
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = Context {
            quick: true,
            out_dir: dir.clone(),
            workers: Some(2),
            ..Default::default()
        };
        let t = run(&ctx);
        assert_eq!(t.len(), 7 + 9, "six summary rows plus nine corpus rows");

        let json = std::fs::read_to_string(dir.join("BENCH_PR5.json")).unwrap();
        for key in ["\"findings\": 0", "\"corpus_flagged\": true", "gate_ok"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_rows_all_flag_with_single_worker() {
        let rows = run_corpus(1);
        assert_eq!(rows.len(), 9);
        for (name, class, n) in rows {
            assert!(n > 0, "corpus kernel {name} produced no {class} finding");
        }
    }
}
