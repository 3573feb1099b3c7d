//! Chaos matrix: every injected fault kind, against both GPU simulators,
//! must be absorbed by the resilience layer — all frames complete, the
//! final images are **bit-identical** to a fault-free run at the same
//! worker count, and the `ResilienceReport` records exactly the retries
//! and degradation rungs the plan implies.

use std::sync::Arc;
use std::time::Duration;

use starsim::field::{FieldGenerator, StarCatalog};
use starsim::gpu::{FaultKind, FaultPlan, GpuError, VirtualGpu};
use starsim::sim::resilience::run_with_retry;
use starsim::sim::{
    AdaptiveSession, AdaptiveSimulator, ExecMode, ParallelSimulator, PixelCentricSimulator,
    ResilienceReport, RetryPolicy, Rung, SessionSetup, SimConfig, SimError, Simulator,
};

const WORKERS: usize = 4;
const FRAMES: usize = 3;

fn cfg() -> SimConfig {
    let mut c = SimConfig::new(128, 128, 10);
    c.workers = Some(WORKERS);
    c
}

fn catalog(frame: u64) -> StarCatalog {
    FieldGenerator::new(128, 128).generate(150, 40 + frame)
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        backoff: Duration::ZERO,
        ..RetryPolicy::default()
    }
}

/// A session on `gpu` that retries its texture bind and every frame.
fn resilient(gpu: VirtualGpu, config: SimConfig) -> AdaptiveSession {
    let setup = SessionSetup {
        retry: Some(fast_retry()),
        ..SessionSetup::default()
    };
    AdaptiveSession::open(gpu, config, setup).expect("resilient session")
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Renders `FRAMES` frames through the zero-allocation session path.
fn session_frames(session: &AdaptiveSession) -> Vec<Vec<u32>> {
    let mut host = Vec::new();
    (0..FRAMES)
        .map(|i| {
            session
                .render_into(&catalog(i as u64), &mut host)
                .unwrap_or_else(|e| panic!("frame {i} failed: {e}"));
            bits(&host)
        })
        .collect()
}

/// A faulted device: one `kind` fault at launch 1 (the second frame),
/// watchdog armed, short stall.
fn chaos_gpu(kind: FaultKind) -> (Arc<FaultPlan>, VirtualGpu) {
    let plan = Arc::new(FaultPlan::single(kind, 1, 2).with_stall(Duration::from_millis(150)));
    let gpu = VirtualGpu::gtx480()
        .with_fault_plan(Arc::clone(&plan))
        .with_watchdog(Duration::from_millis(40));
    (plan, gpu)
}

#[test]
fn chaos_matrix_adaptive_session_recovers_bit_identically() {
    let clean = AdaptiveSession::new(cfg()).expect("clean session");
    let expected = session_frames(&clean);

    for kind in FaultKind::ALL {
        let (plan, gpu) = chaos_gpu(kind);
        let session = resilient(gpu, cfg());
        let got = session_frames(&session);
        assert_eq!(
            expected, got,
            "{kind:?}: recovered frames must be bit-identical to the fault-free run"
        );
        assert_eq!(plan.remaining(), 0, "{kind:?}: the fault must have fired");

        let r = session.resilience_report();
        assert_eq!(r.frames, FRAMES as u64, "{kind:?}");
        assert_eq!(r.exhausted, 0, "{kind:?}");
        match kind {
            FaultKind::WorkerPanic => {
                assert_eq!((r.retries, r.panics), (1, 1), "{kind:?}");
                assert_eq!(r.rung_frames, [2, 1, 0, 0], "{kind:?}");
            }
            FaultKind::StuckLane => {
                assert_eq!((r.retries, r.timeouts), (1, 1), "{kind:?}");
                assert_eq!(r.rung_frames, [2, 1, 0, 0], "{kind:?}");
                assert_eq!(r.pool_rebuilds, 1, "{kind:?}: pool rebuilt after poison");
            }
            FaultKind::AllocOom => {
                assert_eq!((r.retries, r.oom), (1, 1), "{kind:?}");
                assert_eq!(r.rung_frames, [2, 1, 0, 0], "{kind:?}");
            }
            FaultKind::TransferCorrupt => {
                assert_eq!((r.retries, r.corruptions), (1, 1), "{kind:?}");
                assert_eq!(
                    r.checksum_catches, 1,
                    "{kind:?}: checksum must catch the flip"
                );
                assert_eq!(r.rung_frames, [2, 1, 0, 0], "{kind:?}");
            }
            FaultKind::TextureBindFail => {
                // Fired (and retried) at session setup, not during a frame.
                assert_eq!((r.retries, r.bind_failures), (1, 1), "{kind:?}");
                assert_eq!(r.rung_frames, [3, 0, 0, 0], "{kind:?}");
            }
            FaultKind::ShadowCorrupt => {
                // Corruption lands post-drain: the frame completes, the
                // arena quarantines the buffer, nothing is retried.
                assert_eq!(r.retries, 0, "{kind:?}");
                assert_eq!(r.rung_frames, [3, 0, 0, 0], "{kind:?}");
                assert!(r.arena_drops >= 1, "{kind:?}: arena must drop the buffer");
            }
        }
    }
}

#[test]
fn chaos_matrix_simd_backend_recovers_bit_identically() {
    // The resilience ladder is backend-independent: a session configured
    // with the SIMD fast paths absorbs every fault kind and still produces
    // frames bit-identical to a fault-free *scalar* run — the adaptive
    // SIMD path is bit-identical by construction, and any degradation to
    // the reference executor lands on scalar per-thread code anyway.
    let mut simd_cfg = cfg();
    simd_cfg.backend = starsim::sim::KernelBackend::Simd;

    let clean = AdaptiveSession::new(cfg()).expect("clean scalar session");
    let expected = session_frames(&clean);

    for kind in FaultKind::ALL {
        let (plan, gpu) = chaos_gpu(kind);
        let session = resilient(gpu, simd_cfg.clone());
        let got = session_frames(&session);
        assert_eq!(
            expected, got,
            "{kind:?}: simd recovery must be bit-identical to the scalar fault-free run"
        );
        assert_eq!(plan.remaining(), 0, "{kind:?}: the fault must have fired");
        let r = session.resilience_report();
        assert_eq!(r.frames, FRAMES as u64, "{kind:?}");
        assert_eq!(r.exhausted, 0, "{kind:?}");
    }
}

#[test]
fn chaos_matrix_parallel_simulator_recovers_bit_identically() {
    let expected: Vec<Vec<u32>> = {
        let sim = ParallelSimulator::on(VirtualGpu::gtx480().with_workers(WORKERS));
        (0..FRAMES)
            .map(|i| {
                bits(
                    sim.simulate(&catalog(i as u64), &cfg())
                        .unwrap()
                        .image
                        .data(),
                )
            })
            .collect()
    };

    for kind in FaultKind::ALL {
        let (plan, gpu) = chaos_gpu(kind);
        let sim = ParallelSimulator::on(gpu.with_workers(WORKERS));
        let policy = fast_retry();
        let mut report = ResilienceReport::default();
        let mut got = Vec::new();
        for i in 0..FRAMES {
            let cat = catalog(i as u64);
            let frame = run_with_retry(&policy, &mut report, |rung| {
                // The plain-simulator degradation ladder: spawn dispatch,
                // then the reference executor. (No LUT to fall back from,
                // so the bottom rung coincides with ReferenceExec.)
                sim.gpu().set_dispatch_override(rung >= Rung::SpawnDispatch);
                let mut c = cfg();
                if rung >= Rung::ReferenceExec {
                    c.exec_mode = ExecMode::Reference;
                }
                sim.simulate(&cat, &c).map(|r| bits(r.image.data()))
            })
            .unwrap_or_else(|e| panic!("{kind:?} frame {i}: {e}"));
            sim.gpu().set_dispatch_override(false);
            got.push(frame);
        }
        assert_eq!(expected, got, "{kind:?}: recovery must be bit-identical");
        report.absorb_diagnostics(sim.gpu().diagnostics());

        match kind {
            FaultKind::TextureBindFail => {
                // The parallel simulator never binds a texture: the fault
                // has nowhere to fire and every frame stays clean.
                assert_eq!(plan.remaining(), 1, "{kind:?}");
                assert_eq!(report.retries, 0, "{kind:?}");
                assert_eq!(report.rung_frames, [3, 0, 0, 0], "{kind:?}");
            }
            FaultKind::ShadowCorrupt => {
                assert_eq!(plan.remaining(), 0, "{kind:?}");
                assert_eq!(report.retries, 0, "{kind:?}");
                assert!(report.arena_drops >= 1, "{kind:?}");
            }
            _ => {
                assert_eq!(plan.remaining(), 0, "{kind:?}: the fault must have fired");
                assert_eq!(report.retries, 1, "{kind:?}");
                assert_eq!(report.rung_frames, [2, 1, 0, 0], "{kind:?}");
                assert_eq!(report.exhausted, 0, "{kind:?}");
            }
        }
    }
}

/// The one-shot GPU simulators upload and download through the device's
/// fault plan: an allocation or transfer fault is a typed error, never a
/// frame that silently skipped the plan.
#[test]
fn one_shot_simulators_surface_transfer_faults_as_typed_errors() {
    let cat = FieldGenerator::new(64, 64).generate(100, 3);
    let simulators: [fn(VirtualGpu) -> Box<dyn Simulator>; 3] = [
        |gpu| Box::new(ParallelSimulator::on(gpu)),
        |gpu| Box::new(AdaptiveSimulator::on(gpu)),
        |gpu| Box::new(PixelCentricSimulator::on(gpu)),
    ];
    for kind in [FaultKind::AllocOom, FaultKind::TransferCorrupt] {
        for on in simulators {
            let plan = Arc::new(FaultPlan::single(kind, 0, 0));
            let sim = on(VirtualGpu::gtx480().with_fault_plan(Arc::clone(&plan)));
            let err = sim.simulate(&cat, &SimConfig::new(64, 64, 10)).map(|_| ());
            let typed = match err {
                Err(SimError::Gpu(GpuError::OutOfMemory { .. })) => kind == FaultKind::AllocOom,
                Err(SimError::Gpu(GpuError::TransferCorrupted { .. })) => {
                    kind != FaultKind::AllocOom
                }
                _ => false,
            };
            assert!(typed, "{} under {kind:?}: {err:?}", sim.name());
            assert_eq!(plan.remaining(), 0, "{} under {kind:?}", sim.name());
        }
    }
}

#[test]
fn seeded_fault_plan_completes_all_frames_bit_identically() {
    // ≥ 24 frames: every fault of the seeded plan gets its own stride-4
    // slot (six kinds × stride 4), so each costs exactly one retry and
    // recovery stays on the bit-identical rungs (≤ SpawnDispatch).
    const N: usize = 24;
    let clean = AdaptiveSession::new(cfg()).unwrap();
    let mut host = Vec::new();
    let expected: Vec<Vec<u32>> = (0..N)
        .map(|i| {
            clean.render_into(&catalog(i as u64), &mut host).unwrap();
            bits(&host)
        })
        .collect();

    let plan = Arc::new(FaultPlan::seeded(7, N as u64).with_stall(Duration::from_millis(120)));
    let gpu = VirtualGpu::gtx480()
        .with_fault_plan(Arc::clone(&plan))
        .with_watchdog(Duration::from_millis(30));
    let session = resilient(gpu, cfg());
    let mut host = Vec::new();
    for (i, want) in expected.iter().enumerate() {
        session
            .render_into(&catalog(i as u64), &mut host)
            .unwrap_or_else(|e| panic!("seeded chaos frame {i}: {e}"));
        assert_eq!(want, &bits(&host), "frame {i} must be bit-identical");
    }

    let r = session.resilience_report();
    assert_eq!(r.frames, N as u64);
    assert_eq!(r.exhausted, 0, "the seeded plan must never exhaust retries");
    assert_eq!(plan.remaining(), 0, "every planned fault fires: {r:?}");
    assert_eq!(plan.injected(), 6);
    assert_eq!(
        r.rung_frames[2] + r.rung_frames[3],
        0,
        "spaced faults must never push a frame past the bit-identical rungs: {r:?}"
    );
}

#[test]
fn no_panic_crosses_the_public_boundary() {
    for kind in FaultKind::ALL {
        let (_, gpu) = chaos_gpu(kind);
        // No retry policy: the fault surfaces as an Err — but it must be an
        // Err, never an unwinding panic.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let session = AdaptiveSession::open(gpu, cfg(), SessionSetup::default())?;
            let mut host = Vec::new();
            for i in 0..FRAMES {
                session.render_into(&catalog(i as u64), &mut host)?;
            }
            Ok::<(), starsim::sim::SimError>(())
        }));
        assert!(
            outcome.is_ok(),
            "{kind:?}: a panic escaped the library boundary"
        );
    }
}

#[test]
fn a_failed_frame_leaves_no_pixels_for_the_next_frame() {
    // No retry policy: frame 0's fault surfaces as an error. Its partial
    // deposits (a corrupted download keeps the device image for a retry;
    // the reference executor has deposited the SMs that ran before the
    // panic) must not leak into frame 1.
    for kind in [FaultKind::TransferCorrupt, FaultKind::WorkerPanic] {
        for mode in [ExecMode::Batched, ExecMode::Reference] {
            let mut config = cfg();
            config.exec_mode = mode;
            let clean = AdaptiveSession::new(config.clone()).unwrap();
            let mut expected = Vec::new();
            clean.render_into(&catalog(1), &mut expected).unwrap();

            let plan = Arc::new(FaultPlan::single(kind, 0, 2));
            let gpu = VirtualGpu::gtx480().with_fault_plan(Arc::clone(&plan));
            let session = AdaptiveSession::open(gpu, config, SessionSetup::default()).unwrap();
            let mut host = Vec::new();
            assert!(
                session.render_into(&catalog(0), &mut host).is_err(),
                "{kind:?}, {mode:?}: frame 0 must fail"
            );
            assert_eq!(plan.remaining(), 0, "{kind:?}, {mode:?}");
            session.render_into(&catalog(1), &mut host).unwrap();
            assert_eq!(
                bits(&expected),
                bits(&host),
                "{kind:?}, {mode:?}: frame 1 must equal a clean session's frame"
            );
        }
    }
}

#[test]
fn watchdog_converts_a_stuck_lane_within_the_deadline() {
    let stall = Duration::from_millis(400);
    let plan = Arc::new(FaultPlan::single(FaultKind::StuckLane, 0, 1).with_stall(stall));
    let gpu = VirtualGpu::gtx480()
        .with_workers(WORKERS)
        .with_fault_plan(plan)
        .with_watchdog(Duration::from_millis(30));
    let session = AdaptiveSession::open(gpu, cfg(), SessionSetup::default()).unwrap();
    let mut host = Vec::new();
    let start = std::time::Instant::now();
    let err = session.render_into(&catalog(0), &mut host).unwrap_err();
    assert!(
        start.elapsed() < stall,
        "watchdog must fire before the stall ends"
    );
    assert!(
        err.to_string().contains("watchdog expired"),
        "expected a launch-timeout error, got: {err}"
    );
    // The session (and its rebuilt pool) serves the very next frame.
    session
        .render_into(&catalog(0), &mut host)
        .expect("pool must be reusable on the next launch");
    assert_eq!(session.resilience_report().pool_rebuilds, 1);
}
