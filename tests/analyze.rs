//! Integration tests for `gpusim::analyze` — the static kernel analyzer
//! and its pre-launch advisor.
//!
//! Four claims, per the PR-10 acceptance criteria:
//!
//! 1. every perf-defect corpus kernel is flagged with a deny of its
//!    expected diagnostic class, and the advisor rejects its launch;
//! 2. all three production kernels are clean at `deny` level and their
//!    static predictions agree with the dynamic measurements within the
//!    documented tolerances;
//! 3. reports are bit-identical across host worker counts;
//! 4. a session with `analyze = true` runs the advisor exactly once at
//!    setup — frames never re-analyze — and still renders frames
//!    bit-identical to a non-analyzing session.

use gpusim::analyze::{analyze_kernel, BANK_TOL, COALESCE_TOL, TEX_HIT_TOL};
use gpusim::sanitize::corpus;
use gpusim::{GpuError, LaunchConfig, LintLevel, VirtualGpu};
use starfield::FieldGenerator;
use starsim_core::{analysis, AdaptiveSession, SimConfig};

mod common;
use common::worker_counts;

fn config(w: usize, h: usize, roi: usize) -> SimConfig {
    SimConfig::new(w, h, roi)
}

fn catalog(size: usize, stars: usize) -> starfield::StarCatalog {
    FieldGenerator::new(size, size).generate(stars, 42)
}

/// Analyzes one corpus kernel and asserts a deny lint of `code`, plus the
/// advisor's `InvalidLaunch` rejection naming the kernel.
fn assert_denied<K: gpusim::Kernel>(
    gpu: &VirtualGpu,
    name: &str,
    kernel: &K,
    cfg: &LaunchConfig,
    code: &str,
) {
    let report = analyze_kernel(name, kernel, cfg, gpu.spec()).expect("analyze");
    assert!(
        report
            .lints
            .iter()
            .any(|l| l.level == LintLevel::Deny && l.code == code),
        "{name}: expected deny `{code}`, got {:#?}",
        report.lints
    );
    match gpu.advise_launch(name, kernel, cfg) {
        Err(GpuError::InvalidLaunch(msg)) => {
            assert!(msg.contains(name), "denial names the kernel: {msg}");
            assert!(msg.contains(code), "denial names the lint: {msg}");
        }
        other => panic!("{name}: advisor must reject, got {other:?}"),
    }
}

#[test]
fn corpus_uncoalesced_is_denied() {
    let gpu = VirtualGpu::gtx480();
    let (src, _t) = gpu.upload(vec![0.5f32; 1024]);
    let image = gpu.alloc_atomic_f32(32);
    let k = corpus::Uncoalesced {
        src: &src,
        image: &image,
    };
    let cfg = LaunchConfig::new(1u32, 32u32);
    assert_denied(&gpu, "uncoalesced", &k, &cfg, "uncoalesced-global");
}

#[test]
fn corpus_bank_conflict_is_denied() {
    let gpu = VirtualGpu::gtx480();
    let image = gpu.alloc_atomic_f32(32);
    let k = corpus::BankConflict { image: &image };
    let cfg = LaunchConfig::new(1u32, 32u32).with_shared_mem(1024 * 4);
    assert_denied(&gpu, "bank-conflict", &k, &cfg, "shared-bank-conflict");
}

#[test]
fn corpus_working_set_blowout_is_denied() {
    let gpu = VirtualGpu::gtx480();
    let (lut, _tu, _tb) = gpu
        .bind_texture(256, 256, 1, vec![0.25f32; 256 * 256])
        .expect("bind");
    let image = gpu.alloc_atomic_f32(32);
    let k = corpus::WorkingSetBlowout {
        lut: &lut,
        image: &image,
    };
    let cfg = LaunchConfig::new(1u32, 32u32);
    assert_denied(&gpu, "working-set-blowout", &k, &cfg, "texture-working-set");
    // The regime must be Thrashing: 512 distinct 128 B lines = 65536 B
    // against the GTX480's 51200 B per-SM texture cache.
    let report = analyze_kernel("wsb", &k, &cfg, gpu.spec()).unwrap();
    let tex = report.texture.expect("texture footprint");
    assert_eq!(tex.lines_per_block, 512);
    assert_eq!(tex.regime, gpusim::CacheRegime::Thrashing);
}

#[test]
fn production_kernels_are_clean_and_within_tolerance() {
    let cfg = config(192, 192, 10);
    let cat = catalog(192, 96);
    for audit in analysis::audit_production(&cfg, &cat).expect("audit") {
        assert!(
            !audit.report.has_deny(),
            "{} must be clean at deny level: {:#?}",
            audit.name,
            audit.report.lints
        );
        let p = &audit.report.prediction;
        assert!(
            (p.global_tx_per_request - audit.measured_tx_per_request()).abs() <= COALESCE_TOL,
            "{}: coalescing prediction {} vs measured {}",
            audit.name,
            p.global_tx_per_request,
            audit.measured_tx_per_request()
        );
        assert!(
            (p.shared_extra_per_request - audit.measured_shared_extra_per_request()).abs()
                <= BANK_TOL,
            "{}: bank-conflict prediction drifted",
            audit.name
        );
        assert!(
            audit.measured_tex_hit_rate() + TEX_HIT_TOL >= p.tex_hit_rate_floor,
            "{}: measured tex hit rate {} below floor {}",
            audit.name,
            audit.measured_tex_hit_rate(),
            p.tex_hit_rate_floor
        );
        assert_eq!(
            audit.report.occupancy, audit.profile.occupancy,
            "{}: occupancy must match exactly",
            audit.name
        );
    }
}

#[test]
fn reports_bit_identical_across_workers() {
    let cat = catalog(128, 48);
    let mut baseline: Option<Vec<String>> = None;
    for workers in worker_counts() {
        let mut cfg = config(128, 128, 10);
        cfg.workers = Some(workers);
        let reports: Vec<String> = analysis::audit_production(&cfg, &cat)
            .expect("audit")
            .iter()
            .map(|a| format!("{:?}", a.report))
            .collect();
        match &baseline {
            None => baseline = Some(reports),
            Some(b) => assert_eq!(b, &reports, "report differs at workers={workers}"),
        }
    }
}

#[test]
fn session_advisor_runs_once_and_frames_are_unchanged() {
    let cat = catalog(160, 64);

    let mut plain_cfg = config(160, 160, 10);
    plain_cfg.workers = Some(2);
    let plain = AdaptiveSession::new(plain_cfg.clone()).expect("plain session");
    assert_eq!(plain.advise_runs(), 0, "advisor is opt-in");
    assert!(plain.analysis().is_none());
    let mut want = Vec::new();
    plain.render_into(&cat, &mut want).expect("render");

    let mut cfg = plain_cfg;
    cfg.analyze = true;
    let session = AdaptiveSession::new(cfg).expect("analyzing session");
    assert_eq!(session.advise_runs(), 1, "advisor ran at setup");
    let report = session.analysis().expect("report retained");
    assert!(!report.has_deny());
    assert_eq!(report.kernel, "adaptive-lut");

    let mut got = Vec::new();
    for _ in 0..3 {
        session.render_into(&cat, &mut got).expect("render");
    }
    assert_eq!(
        session.advise_runs(),
        1,
        "frames must not re-run the advisor (hot path untouched)"
    );
    assert_eq!(got, want, "advisor must not perturb frame pixels");
}
