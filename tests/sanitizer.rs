//! Integration tests for `gpusim::sanitize` — the compute-sanitizer mode
//! and the static pre-launch validators.
//!
//! Three claims, per the PR-5 acceptance criteria:
//!
//! 1. every defect class in the known-bad corpus (shared race, global
//!    race, barrier divergence, uninit shared read, OOB global / shared /
//!    texture) is flagged deterministically;
//! 2. the three paper simulators pass the sanitizer clean;
//! 3. sanitized execution is observationally identical to reference
//!    execution — bit-identical images and identical counters.

use gpusim::sanitize::corpus;
use gpusim::{ExecMode, FindingKind, LaunchConfig, MemSpace, SanitizeReport, VirtualGpu};
use starfield::FieldGenerator;
use starsim_core::{
    AdaptiveSession, AdaptiveSimulator, ParallelSimulator, SequentialSimulator, SimConfig,
    Simulator,
};

/// A small sanitizing device. The sanitized executor walks the blocks on
/// the launching thread, so its 2 workers must change nothing.
fn device() -> VirtualGpu {
    VirtualGpu::gtx480()
        .with_workers(2)
        .with_exec_mode(ExecMode::Sanitized)
}

/// A [`SimConfig`] honoring `STARSIM_ANALYZE`.
fn sim_config(w: usize, h: usize, roi: usize) -> SimConfig {
    let mut c = SimConfig::new(w, h, roi);
    // scripts/ci.sh reruns this suite with STARSIM_ANALYZE=1: every
    // sanitizer claim — corpus flagging, clean passes, sanitized-vs-
    // reference bit identity — must hold with the pre-launch advisor
    // enabled (the analyzer is setup-only, so nothing here may change).
    if std::env::var("STARSIM_ANALYZE").is_ok_and(|v| v == "1") {
        c.analyze = true;
    }
    c
}

/// Launches `kernel` once in sanitized mode and drains the single report.
fn sanitize_one<K: gpusim::Kernel>(
    gpu: &VirtualGpu,
    kernel: &K,
    cfg: LaunchConfig,
) -> SanitizeReport {
    gpu.launch("corpus", kernel, cfg).expect("sanitized launch");
    let mut reports = gpu.take_sanitize_reports();
    assert_eq!(reports.len(), 1, "one launch, one report");
    reports.pop().unwrap()
}

#[test]
fn missing_barrier_is_flagged_as_shared_race() {
    let gpu = device();
    let (src, _) = gpu.upload(vec![1.0f32; 4]);
    let image = gpu.alloc_atomic_f32(4 * 32);
    let kernel = corpus::MissingBarrier {
        src: &src,
        image: &image,
    };
    let report = sanitize_one(
        &gpu,
        &kernel,
        LaunchConfig::new(4u32, 32u32).with_shared_mem(4),
    );
    assert_eq!(
        report.count_class("race"),
        4,
        "one race per block: {report:?}"
    );
    match &report.findings[0].kind {
        FindingKind::Race {
            space,
            addr,
            epoch,
            lanes,
            blocks,
        } => {
            assert_eq!(*space, MemSpace::Shared);
            assert_eq!(*addr, 0, "the staged word");
            assert_eq!(*epoch, 0, "write and read in the same epoch");
            assert_eq!(*lanes, (0, 1), "writer lane 0 vs first conflicting reader");
            assert_eq!(*blocks, (0, 0));
        }
        other => panic!("expected a shared race, got {other:?}"),
    }
}

#[test]
fn plain_store_is_flagged_as_global_race() {
    let gpu = device();
    let image = gpu.alloc_atomic_f32(4);
    let kernel = corpus::PlainStore { image: &image };
    let report = sanitize_one(&gpu, &kernel, LaunchConfig::new(4u32, 32u32));
    assert_eq!(
        report.count_class("race"),
        4,
        "one race per contended pixel: {report:?}"
    );
    assert!(report.findings.iter().all(|f| matches!(
        f.kind,
        FindingKind::Race {
            space: MemSpace::Global,
            lanes: (0, 1),
            ..
        }
    )));
}

#[test]
fn roi_off_by_one_is_flagged_as_global_oob_not_a_panic() {
    let gpu = device();
    let image = gpu.alloc_atomic_f32(63);
    let kernel = corpus::RoiOffByOne { image: &image };
    // 64 linear indices cover 0..=63; the `<=` guard admits index 63 == len.
    let report = sanitize_one(&gpu, &kernel, LaunchConfig::new(2u32, 32u32));
    assert_eq!(report.count_class("out-of-bounds"), 1, "{report:?}");
    match &report.findings[0].kind {
        FindingKind::OutOfBounds {
            space,
            index,
            limit,
            lane,
            ..
        } => {
            assert_eq!(*space, MemSpace::Global);
            assert_eq!((*index, *limit), (63, 63));
            assert_eq!(*lane, 31, "the last lane of block 1");
        }
        other => panic!("expected OOB, got {other:?}"),
    }
    assert_eq!(report.findings[0].block, 1);
    // The stray accumulation was suppressed, not clamped onto pixel 62.
    assert_eq!(image.read(62), 1.0);
}

#[test]
fn unsanitized_roi_off_by_one_still_faults() {
    // Without the sanitizer the same kernel panics in the memory model and
    // surfaces as WorkerPanic — the behavior sanitized mode replaces.
    let gpu = VirtualGpu::gtx480()
        .with_workers(2)
        .with_exec_mode(ExecMode::Reference);
    let image = gpu.alloc_atomic_f32(63);
    let kernel = corpus::RoiOffByOne { image: &image };
    let err = gpu
        .launch("corpus", &kernel, LaunchConfig::new(2u32, 32u32))
        .unwrap_err();
    assert!(
        matches!(err, gpusim::GpuError::WorkerPanic(_)),
        "expected WorkerPanic, got {err}"
    );
}

#[test]
fn divergent_exit_is_flagged_as_barrier_divergence() {
    let gpu = device();
    let report = sanitize_one(&gpu, &corpus::DivergentExit, LaunchConfig::new(1u32, 32u32));
    assert_eq!(report.count_class("barrier-divergence"), 1, "{report:?}");
    assert!(matches!(
        report.findings[0].kind,
        FindingKind::BarrierDivergence {
            barrier: 1,
            arrived: 31,
            expected: 32,
        }
    ));
}

#[test]
fn uninit_shared_read_is_flagged() {
    let gpu = device();
    let report = sanitize_one(
        &gpu,
        &corpus::UninitRead,
        LaunchConfig::new(1u32, 32u32).with_shared_mem(4),
    );
    assert_eq!(report.count_class("uninit-shared-read"), 1, "{report:?}");
    assert!(matches!(
        report.findings[0].kind,
        FindingKind::UninitSharedRead {
            word: 0,
            epoch: 0,
            lane: 0,
        }
    ));
    assert_eq!(report.count_class("race"), 0, "reads alone never race");
}

#[test]
fn shared_oob_write_is_flagged_and_dropped() {
    let gpu = device();
    let report = sanitize_one(
        &gpu,
        &corpus::SharedOob { words: 3 },
        LaunchConfig::new(1u32, 32u32).with_shared_mem(3 * 4),
    );
    assert_eq!(report.count_class("out-of-bounds"), 1, "{report:?}");
    assert!(matches!(
        report.findings[0].kind,
        FindingKind::OutOfBounds {
            space: MemSpace::Shared,
            index: 3,
            limit: 3,
            lane: 0,
            ..
        }
    ));
}

#[test]
fn texture_layer_oob_is_flagged_despite_hardware_clamping() {
    let gpu = device();
    let (lut, _, _) = gpu
        .bind_texture(4, 4, 2, vec![0.5; 4 * 4 * 2])
        .expect("bind");
    let kernel = corpus::TexLayerOob { lut: &lut };
    let report = sanitize_one(&gpu, &kernel, LaunchConfig::new(1u32, 32u32));
    assert!(
        report.count_class("out-of-bounds") >= 1,
        "pre-clamp layer index must be reported: {report:?}"
    );
    assert!(report.findings.iter().any(|f| matches!(
        f.kind,
        FindingKind::OutOfBounds {
            space: MemSpace::Texture,
            index: 2,
            limit: 2,
            ..
        }
    )));
}

#[test]
fn corpus_reports_are_deterministic_across_worker_counts() {
    let run = |workers: usize| {
        let gpu = VirtualGpu::gtx480()
            .with_workers(workers)
            .with_exec_mode(ExecMode::Sanitized);
        let (src, _) = gpu.upload(vec![1.0f32; 8]);
        let image = gpu.alloc_atomic_f32(8 * 32);
        let kernel = corpus::MissingBarrier {
            src: &src,
            image: &image,
        };
        sanitize_one(
            &gpu,
            &kernel,
            LaunchConfig::new(8u32, 32u32).with_shared_mem(4),
        )
        .findings
    };
    let one = run(1);
    let four = run(4);
    assert!(!one.is_empty());
    assert_eq!(one, four, "findings must not depend on host parallelism");
}

#[test]
fn all_three_simulators_pass_the_sanitizer_clean() {
    let mut config = sim_config(64, 64, 10);
    config.exec_mode = ExecMode::Sanitized;
    let cat = FieldGenerator::new(64, 64).generate(200, 7);

    // Sequential: pure host code, nothing to sanitize — and nothing flagged.
    SequentialSimulator::new()
        .simulate(&cat, &config)
        .expect("sequential");

    let par = ParallelSimulator::new();
    par.simulate(&cat, &config).expect("parallel");
    let reports = par.gpu().take_sanitize_reports();
    assert!(!reports.is_empty(), "sanitized launches must report");
    for r in &reports {
        assert!(r.is_clean(), "parallel kernel must be clean: {r:?}");
        assert!(r.accesses > 0, "shadow access sets must be populated");
    }

    let ada = AdaptiveSimulator::new();
    ada.simulate(&cat, &config).expect("adaptive");
    let reports = ada.gpu().take_sanitize_reports();
    assert!(!reports.is_empty());
    for r in &reports {
        assert!(r.is_clean(), "adaptive kernel must be clean: {r:?}");
    }
}

#[test]
fn sanitized_session_stays_clean_across_frames() {
    let mut config = sim_config(64, 64, 10);
    config.exec_mode = ExecMode::Sanitized;
    config.workers = Some(2);
    let session = AdaptiveSession::new(config).expect("session");
    let cat = FieldGenerator::new(64, 64).generate(128, 3);
    let mut host = Vec::new();
    for _ in 0..3 {
        session.render_into(&cat, &mut host).expect("frame");
    }
    let reports = session.gpu().take_sanitize_reports();
    assert_eq!(reports.len(), 3, "one report per sanitized frame");
    assert!(reports.iter().all(SanitizeReport::is_clean), "{reports:?}");
}

#[test]
fn sanitized_execution_is_bit_identical_to_reference() {
    let cat = FieldGenerator::new(64, 64).generate(300, 5);
    let mut reference = sim_config(64, 64, 10);
    reference.exec_mode = ExecMode::Reference;
    let mut sanitized = reference.clone();
    sanitized.exec_mode = ExecMode::Sanitized;

    let r = ParallelSimulator::new()
        .simulate(&cat, &reference)
        .expect("reference");
    let s = ParallelSimulator::new()
        .simulate(&cat, &sanitized)
        .expect("sanitized");
    assert_eq!(
        r.image.data(),
        s.image.data(),
        "sanitized image must be bit-identical"
    );
    assert_eq!(
        r.profile.kernels[0].counters, s.profile.kernels[0].counters,
        "sanitized counters must be identical"
    );
    assert_eq!(
        r.profile.kernels[0].time_s, s.profile.kernels[0].time_s,
        "modeled kernel time must be identical"
    );

    let ra = AdaptiveSimulator::new()
        .simulate(&cat, &reference)
        .expect("reference");
    let sa = AdaptiveSimulator::new()
        .simulate(&cat, &sanitized)
        .expect("sanitized");
    assert_eq!(ra.image.data(), sa.image.data());
    assert_eq!(
        ra.profile.kernels[0].counters,
        sa.profile.kernels[0].counters
    );
}

#[test]
fn static_validator_rejects_oversized_roi_before_dispatch() {
    // ROI 80 on a 64×64 image: every star would index past the image.
    let config = sim_config(64, 64, 80);
    let cat = FieldGenerator::new(64, 64).generate(10, 1);
    let err = ParallelSimulator::new()
        .simulate(&cat, &config)
        .unwrap_err();
    assert!(err.to_string().contains("80"), "typed rejection: {err}");
    let err = AdaptiveSimulator::new()
        .simulate(&cat, &config)
        .unwrap_err();
    assert!(err.to_string().contains("80"), "typed rejection: {err}");
    let err = match AdaptiveSession::new(config) {
        Err(e) => e,
        Ok(_) => panic!("session setup must reject an oversized ROI"),
    };
    assert!(err.to_string().contains("80"), "typed rejection: {err}");
}

#[test]
fn static_validator_rejects_launch_dims_beyond_device_limits() {
    let gpu = device();
    let spec = gpu.spec().clone();
    let cfg = LaunchConfig::new(1u32, spec.max_threads_per_block + 1);
    let err = gpusim::sanitize::validate_launch(&cfg, &spec).unwrap_err();
    assert!(matches!(err, gpusim::GpuError::InvalidLaunch(_)), "{err}");
}
