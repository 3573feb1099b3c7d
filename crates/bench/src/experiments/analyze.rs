//! Static kernel analyzer benchmark: the static-vs-dynamic consistency
//! gate, answered in one run and recorded in `BENCH_PR10.json`:
//!
//! 1. **Do the predictions hold?** The static pass runs over all three
//!    production kernels; its coalescing,
//!    bank-conflict, texture and occupancy predictions must agree with
//!    the dynamic `CacheSim`/counter measurements of the *same* launch
//!    within the documented tolerances (`COALESCE_TOL`, `BANK_TOL`,
//!    `TEX_HIT_TOL`; occupancy exactly) — and every production kernel
//!    must be clean at `deny` level (`"gate_ok": true`).
//! 2. **Is the analysis deterministic?** Reports must be bit-identical
//!    across host worker counts (1 vs 4) (`"determinism_ok": true`).
//! 3. **Does it catch real defects?** Every perf-defect corpus kernel
//!    (uncoalesced / bank-conflict / working-set-blowout) must be flagged
//!    with a deny of its expected class and rejected by the pre-launch
//!    advisor (`"corpus_flagged": true`).
//! 4. **Is the frame hot path untouched?** A session opened with
//!    `analyze = true` runs the advisor exactly once at setup; rendering
//!    any number of frames must not add advisor invocations
//!    (`"advisor_runs": 1`).

use gpusim::analyze::{analyze_kernel, BANK_TOL, COALESCE_TOL, TEX_HIT_TOL};
use gpusim::sanitize::corpus;
use gpusim::{LaunchConfig, VirtualGpu};
use starfield::catalog::StarCatalog;
use starfield::FieldGenerator;
use starsim_core::{analysis, AdaptiveSession, KernelAudit};

use super::format::{write_json_object, Json, Table};
use super::Context;

const ROI_SIDE: usize = 10;

fn shape(ctx: &Context) -> (usize, usize) {
    if ctx.quick {
        (256, 512)
    } else {
        (1024, 1 << 13)
    }
}

fn catalog(size: usize, stars: usize, seed: u64) -> StarCatalog {
    FieldGenerator::new(size, size).generate(stars, seed)
}

/// One audited kernel's gate verdict.
struct Verdict {
    name: String,
    tx_delta: f64,
    shared_delta: f64,
    tex_floor: f64,
    tex_measured: f64,
    occupancy_ok: bool,
    deny_free: bool,
    ok: bool,
}

fn judge(audit: &KernelAudit) -> Verdict {
    let p = &audit.report.prediction;
    let tx_delta = (p.global_tx_per_request - audit.measured_tx_per_request()).abs();
    let shared_delta =
        (p.shared_extra_per_request - audit.measured_shared_extra_per_request()).abs();
    let tex_floor = p.tex_hit_rate_floor;
    let tex_measured = audit.measured_tex_hit_rate();
    let occupancy_ok = audit.report.occupancy == audit.profile.occupancy;
    let deny_free = !audit.report.has_deny();
    let ok = deny_free
        && occupancy_ok
        && tx_delta <= COALESCE_TOL
        && shared_delta <= BANK_TOL
        && tex_measured + TEX_HIT_TOL >= tex_floor;
    Verdict {
        name: audit.name.clone(),
        tx_delta,
        shared_delta,
        tex_floor,
        tex_measured,
        occupancy_ok,
        deny_free,
        ok,
    }
}

/// Audits the three production kernels; returns the per-kernel verdicts.
fn production_leg(ctx: &Context, size: usize, cat: &StarCatalog) -> Vec<Verdict> {
    let config = ctx.sim_config(size, size, ROI_SIDE);
    let audits = analysis::audit_production(&config, cat).expect("audit");
    audits.iter().map(judge).collect()
}

/// Reports must be bit-identical across worker counts. Runs at a small
/// fixed shape of its own — determinism is shape-independent.
fn determinism_leg(ctx: &Context) -> bool {
    let size = 128;
    let cat = catalog(size, 64, ctx.seed);
    let mut variants = Vec::new();
    for workers in [1usize, 4] {
        let mut config = ctx.sim_config(size, size, ROI_SIDE);
        config.workers = Some(workers);
        let audits = analysis::audit_production(&config, &cat).expect("audit");
        let rendered: Vec<String> = audits.iter().map(|a| format!("{:?}", a.report)).collect();
        variants.push(rendered);
    }
    variants.windows(2).all(|w| w[0] == w[1])
}

/// Runs the perf-defect corpus; returns `(kernel, expected code, denied)`
/// rows. `corpus_flagged` holds iff every row is denied with its code.
fn corpus_leg() -> Vec<(&'static str, &'static str, bool)> {
    let gpu = VirtualGpu::gtx480();
    let mut rows = Vec::new();

    let (src, _t) = gpu.upload(vec![0.5f32; 1024]);
    let image = gpu.alloc_atomic_f32(32);
    let k = corpus::Uncoalesced {
        src: &src,
        image: &image,
    };
    let cfg = LaunchConfig::new(1u32, 32u32);
    let denied = denied_with(&gpu, "uncoalesced", &k, &cfg, "uncoalesced-global");
    rows.push(("uncoalesced", "uncoalesced-global", denied));

    let k = corpus::BankConflict { image: &image };
    let cfg = LaunchConfig::new(1u32, 32u32).with_shared_mem(1024 * 4);
    let denied = denied_with(&gpu, "bank-conflict", &k, &cfg, "shared-bank-conflict");
    rows.push(("bank-conflict", "shared-bank-conflict", denied));

    let (lut, _tu, _tb) = gpu
        .bind_texture(256, 256, 1, vec![0.25f32; 256 * 256])
        .expect("bind");
    let k = corpus::WorkingSetBlowout {
        lut: &lut,
        image: &image,
    };
    let cfg = LaunchConfig::new(1u32, 32u32);
    let denied = denied_with(&gpu, "working-set-blowout", &k, &cfg, "texture-working-set");
    rows.push(("working-set-blowout", "texture-working-set", denied));

    rows
}

/// True iff the analyzer denies `kernel` with a lint of `code` *and* the
/// pre-launch advisor rejects the launch.
fn denied_with<K: gpusim::Kernel>(
    gpu: &VirtualGpu,
    name: &str,
    kernel: &K,
    cfg: &LaunchConfig,
    code: &str,
) -> bool {
    let report = analyze_kernel(name, kernel, cfg, gpu.spec()).expect("analyze");
    let has_code = report
        .lints
        .iter()
        .any(|l| l.level == gpusim::LintLevel::Deny && l.code == code);
    let advisor_rejects = gpu.advise_launch(name, kernel, cfg).is_err();
    has_code && advisor_rejects
}

/// Opens an analyzing session, renders frames, and returns the advisor
/// invocation count (must stay 1 — the hot path never re-analyzes).
fn advisor_leg(ctx: &Context, size: usize, cat: &StarCatalog, frames: usize) -> u64 {
    let mut config = ctx.sim_config(size, size, ROI_SIDE);
    config.analyze = true;
    let session = AdaptiveSession::new(config).expect("session");
    let mut host = Vec::new();
    for _ in 0..frames {
        session.render_into(cat, &mut host).expect("render");
    }
    session.advise_runs()
}

/// Runs the analyzer benchmark.
pub fn run(ctx: &Context) -> Table {
    let (size, stars) = shape(ctx);
    let cat = catalog(size, stars, ctx.seed);

    eprintln!("analyze: static-vs-dynamic audits over 3 kernels ...");
    let verdicts = production_leg(ctx, size, &cat);
    let production_ok = verdicts.iter().all(|v| v.ok);

    eprintln!("analyze: determinism sweep (workers 1/4) ...");
    let determinism_ok = determinism_leg(ctx);

    eprintln!("analyze: perf-defect corpus ...");
    let corpus_rows = corpus_leg();
    let corpus_flagged = !corpus_rows.is_empty() && corpus_rows.iter().all(|&(_, _, d)| d);

    let frames = if ctx.quick { 4 } else { 16 };
    eprintln!("analyze: advisor-once check over {frames} frames ...");
    let advisor_runs = advisor_leg(ctx, size, &cat, frames);
    let advisor_ok = advisor_runs == 1;

    let gate_ok = production_ok && determinism_ok && corpus_flagged && advisor_ok;
    if !gate_ok {
        eprintln!(
            "analyze: WARNING: gate failed — production {production_ok}, determinism \
             {determinism_ok}, corpus {corpus_flagged}, advisor runs {advisor_runs}"
        );
    }

    let mut t = Table::new(vec!["kernel", "static vs dynamic", "verdict"]);
    for v in &verdicts {
        t.row(vec![
            v.name.clone(),
            format!(
                "tx Δ{:.4} · shared Δ{:.4} · tex {:.3}≥{:.3} · occ {}",
                v.tx_delta,
                v.shared_delta,
                v.tex_measured,
                v.tex_floor,
                if v.occupancy_ok { "=" } else { "!=" }
            ),
            format!(
                "{}{}",
                if v.ok { "ok" } else { "FAIL" },
                if v.deny_free { "" } else { " (deny)" }
            ),
        ]);
    }
    for (name, code, denied) in &corpus_rows {
        t.row(vec![
            format!("corpus/{name}"),
            format!("expect deny `{code}`"),
            if *denied { "denied" } else { "MISSED" }.to_string(),
        ]);
    }
    t.row(vec![
        "advisor".to_string(),
        format!("{advisor_runs} run(s) over {frames} frames"),
        if advisor_ok { "ok" } else { "FAIL" }.to_string(),
    ]);

    let worst_tx = verdicts.iter().map(|v| v.tx_delta).fold(0.0, f64::max);
    let worst_shared = verdicts.iter().map(|v| v.shared_delta).fold(0.0, f64::max);
    let _ = write_json_object(
        &ctx.out_path("BENCH_PR10.json"),
        &[
            ("kernels", Json::Int(3)),
            ("image", Json::Int(size as u64)),
            ("stars", Json::Int(stars as u64)),
            ("coalesce_tol", Json::f3(COALESCE_TOL)),
            ("worst_tx_delta", Json::f3(worst_tx)),
            ("worst_shared_delta", Json::f3(worst_shared)),
            ("production_ok", Json::Bool(production_ok)),
            ("determinism_ok", Json::Bool(determinism_ok)),
            ("corpus_kernels", Json::Int(corpus_rows.len() as u64)),
            ("corpus_flagged", Json::Bool(corpus_flagged)),
            ("advisor_runs", Json::Int(advisor_runs)),
            ("gate_ok", Json::Bool(gate_ok)),
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_passes_all_gates() {
        let dir = std::env::temp_dir().join("starsim-bench-analyze-test");
        let ctx = Context {
            quick: true,
            out_dir: dir.clone(),
            ..Context::default()
        };
        run(&ctx);
        let json = std::fs::read_to_string(dir.join("BENCH_PR10.json")).expect("json");
        assert!(json.contains("\"gate_ok\": true"), "{json}");
        assert!(json.contains("\"corpus_flagged\": true"), "{json}");
    }
}
