//! Chaos matrix: every injected fault kind, against both GPU simulators
//! and at every worker count of [`worker_counts`], must be absorbed by the
//! resilience layer — all frames complete, the final images are
//! **bit-identical** to a fault-free run, and the `ResilienceReport`
//! records exactly the retries and degradation rungs the plan implies.

use std::sync::Arc;
use std::time::Duration;

use starsim::field::{FieldGenerator, StarCatalog};
use starsim::gpu::{FaultKind, FaultPlan, FaultSpec, GpuError, VirtualGpu};
use starsim::sim::resilience::run_with_retry;
use starsim::sim::{
    AdaptiveSession, AdaptiveSimulator, ExecMode, ParallelSimulator, PixelCentricSimulator,
    ResilienceReport, RetryPolicy, Rung, SessionSetup, SimConfig, SimError, Simulator,
};

mod common;
use common::worker_counts;

const FRAMES: usize = 3;

fn cfg(workers: usize) -> SimConfig {
    let mut c = SimConfig::new(128, 128, 10);
    c.workers = Some(workers);
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
    for workers in worker_counts() {
        let clean = AdaptiveSession::new(cfg(workers)).expect("clean session");
        let expected = session_frames(&clean);

        for kind in FaultKind::ALL {
            let label = format!("{kind:?}, workers {workers}");
            let (plan, gpu) = chaos_gpu(kind);
            let session = resilient(gpu, cfg(workers));
            let got = session_frames(&session);
            assert_eq!(
                expected, got,
                "{label}: recovered frames must be bit-identical to the fault-free run"
            );
            // One worker dispatches inline: a `StuckLane` spec has no lane
            // to stall, so it stays pending; every other fault fires.
            let no_lane = kind == FaultKind::StuckLane && workers == 1;
            assert_eq!(plan.remaining(), usize::from(no_lane), "{label}");
            assert_eq!(plan.injected(), u64::from(!no_lane), "{label}");

            let r = session.resilience_report();
            assert_eq!(r.frames, FRAMES as u64, "{label}");
            assert_eq!(r.exhausted, 0, "{label}");
            match kind {
                FaultKind::WorkerPanic => {
                    assert_eq!((r.retries, r.panics), (1, 1), "{label}");
                    assert_eq!(r.rung_frames, [2, 1, 0, 0], "{label}");
                }
                FaultKind::StuckLane if workers == 1 => {
                    // The spec stayed pending (asserted above): no frame
                    // stalled or retried.
                    assert_eq!((r.retries, r.timeouts), (0, 0), "{label}");
                    assert_eq!(r.rung_frames, [3, 0, 0, 0], "{label}");
                }
                FaultKind::StuckLane => {
                    assert_eq!((r.retries, r.timeouts), (1, 1), "{label}");
                    assert_eq!(r.rung_frames, [2, 1, 0, 0], "{label}");
                    assert_eq!(r.pool_rebuilds, 1, "{label}: pool rebuilt after poison");
                }
                FaultKind::AllocOom => {
                    assert_eq!((r.retries, r.oom), (1, 1), "{label}");
                    assert_eq!(r.rung_frames, [2, 1, 0, 0], "{label}");
                }
                FaultKind::TransferCorrupt => {
                    assert_eq!((r.retries, r.corruptions), (1, 1), "{label}");
                    assert_eq!(
                        r.checksum_catches, 1,
                        "{label}: checksum must catch the flip"
                    );
                    assert_eq!(r.rung_frames, [2, 1, 0, 0], "{label}");
                }
                FaultKind::TextureBindFail => {
                    // Fired (and retried) at session setup, not during a
                    // frame.
                    assert_eq!((r.retries, r.bind_failures), (1, 1), "{label}");
                    assert_eq!(r.rung_frames, [3, 0, 0, 0], "{label}");
                }
            }
        }
    }
}

/// Rung 2 (the reference executor) adds every pixel's values in block
/// order, like the batched executor, so a frame that fails on rungs 0 and
/// 1 still comes back bit-identical to the fault-free frame. The field is
/// dense (about twelve ROIs over every pixel), so many pixels sum several
/// blocks of one SM: an executor that grouped the adds per SM would flip
/// bits there.
#[test]
fn a_frame_recovered_on_rung_two_is_bit_identical() {
    let frames = |session: &AdaptiveSession| -> Vec<Vec<u32>> {
        let mut host = Vec::new();
        (0..FRAMES as u64)
            .map(|i| {
                let dense = FieldGenerator::new(128, 128).generate(2000, 40 + i);
                session
                    .render_into(&dense, &mut host)
                    .unwrap_or_else(|e| panic!("frame {i} failed: {e}"));
                bits(&host)
            })
            .collect()
    };
    for workers in [1, 2, 4] {
        let clean = AdaptiveSession::new(cfg(workers)).expect("clean session");
        let expected = frames(&clean);

        let panic_at = |launch| FaultSpec {
            launch,
            lane: 2,
            kind: FaultKind::WorkerPanic,
        };
        let plan = Arc::new(FaultPlan::from_specs(vec![panic_at(1), panic_at(2)]));
        let gpu = VirtualGpu::gtx480().with_fault_plan(Arc::clone(&plan));
        let session = resilient(gpu, cfg(workers));
        assert_eq!(
            expected,
            frames(&session),
            "workers {workers}: the rung-2 frame must equal the fault-free one"
        );
        let r = session.resilience_report();
        assert_eq!(r.rung_frames, [2, 0, 1, 0], "workers {workers}: {r:?}");
        assert_eq!(plan.remaining(), 0, "workers {workers}");
    }
}

#[test]
fn chaos_matrix_parallel_simulator_recovers_bit_identically() {
    for workers in worker_counts() {
        let expected: Vec<Vec<u32>> = {
            let sim = ParallelSimulator::on(VirtualGpu::gtx480().with_workers(workers));
            (0..FRAMES)
                .map(|i| {
                    bits(
                        sim.simulate(&catalog(i as u64), &cfg(workers))
                            .unwrap()
                            .image
                            .data(),
                    )
                })
                .collect()
        };

        for kind in FaultKind::ALL {
            let label = format!("{kind:?}, workers {workers}");
            let (plan, gpu) = chaos_gpu(kind);
            let sim = ParallelSimulator::on(gpu.with_workers(workers));
            let policy = fast_retry();
            let mut report = ResilienceReport::default();
            let mut got = Vec::new();
            for i in 0..FRAMES {
                let cat = catalog(i as u64);
                let frame = run_with_retry(&policy, &mut report, |rung| {
                    // The plain-simulator degradation ladder: spawn
                    // dispatch, then the reference executor. (No LUT to
                    // fall back from, so the bottom rung coincides with
                    // ReferenceExec.)
                    sim.gpu().set_dispatch_override(rung >= Rung::SpawnDispatch);
                    let mut c = cfg(workers);
                    if rung >= Rung::ReferenceExec {
                        c.exec_mode = ExecMode::Reference;
                    }
                    sim.simulate(&cat, &c).map(|r| bits(r.image.data()))
                })
                .unwrap_or_else(|e| panic!("{label} frame {i}: {e}"));
                sim.gpu().set_dispatch_override(false);
                got.push(frame);
            }
            assert_eq!(expected, got, "{label}: recovery must be bit-identical");
            report.absorb_diagnostics(sim.gpu().diagnostics());

            match kind {
                FaultKind::TextureBindFail => {
                    // The parallel simulator never binds a texture: the
                    // fault has nowhere to fire and every frame stays clean.
                    assert_eq!(plan.remaining(), 1, "{label}");
                    assert_eq!(report.retries, 0, "{label}");
                    assert_eq!(report.rung_frames, [3, 0, 0, 0], "{label}");
                }
                FaultKind::StuckLane if workers == 1 => {
                    // One worker dispatches inline: no lane to stall, so
                    // the spec stays pending and every frame runs clean.
                    assert_eq!(plan.remaining(), 1, "{label}");
                    assert_eq!(plan.injected(), 0, "{label}");
                    assert_eq!(report.retries, 0, "{label}");
                    assert_eq!(report.rung_frames, [3, 0, 0, 0], "{label}");
                }
                _ => {
                    assert_eq!(plan.remaining(), 0, "{label}: the fault must have fired");
                    assert_eq!(report.retries, 1, "{label}");
                    assert_eq!(report.rung_frames, [2, 1, 0, 0], "{label}");
                    assert_eq!(report.exhausted, 0, "{label}");
                }
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
    // ≥ 20 frames: every fault of the seeded plan gets its own stride-4
    // slot (five kinds × stride 4), so each costs at most one retry and
    // every frame recovers on rung 0 or 1.
    const N: usize = 24;
    for workers in worker_counts() {
        let clean = AdaptiveSession::new(cfg(workers)).unwrap();
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
        let session = resilient(gpu, cfg(workers));
        let mut host = Vec::new();
        for (i, want) in expected.iter().enumerate() {
            session
                .render_into(&catalog(i as u64), &mut host)
                .unwrap_or_else(|e| panic!("workers {workers}: seeded chaos frame {i}: {e}"));
            assert_eq!(
                want,
                &bits(&host),
                "workers {workers}: frame {i} must be bit-identical"
            );
        }

        let r = session.resilience_report();
        assert_eq!(r.frames, N as u64);
        assert_eq!(r.exhausted, 0, "the seeded plan must never exhaust retries");
        // Every planned fault fires, except the `StuckLane` one at one
        // worker: with no lane to stall it stays pending.
        let pending = usize::from(workers == 1);
        assert_eq!(plan.remaining(), pending, "workers {workers}: {r:?}");
        assert_eq!(plan.injected(), 5 - pending as u64, "workers {workers}");
        assert_eq!(
            r.rung_frames[2] + r.rung_frames[3],
            0,
            "workers {workers}: spaced faults cost at most one retry each: {r:?}"
        );
    }
}

#[test]
fn no_panic_crosses_the_public_boundary() {
    for kind in FaultKind::ALL {
        let (_, gpu) = chaos_gpu(kind);
        // No retry policy: the fault surfaces as an Err — but it must be an
        // Err, never an unwinding panic.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let session = AdaptiveSession::open(gpu, cfg(4), SessionSetup::default())?;
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
    // the reference executor has deposited the blocks that ran before the
    // panic) must not leak into frame 1.
    for kind in [FaultKind::TransferCorrupt, FaultKind::WorkerPanic] {
        for mode in [ExecMode::Batched, ExecMode::Reference] {
            let mut config = cfg(4);
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
    // Four workers: the stall needs a worker lane to land on.
    let gpu = VirtualGpu::gtx480()
        .with_fault_plan(plan)
        .with_watchdog(Duration::from_millis(30));
    let session = AdaptiveSession::open(gpu, cfg(4), SessionSetup::default()).unwrap();
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
