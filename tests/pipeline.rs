//! Frame-loop contract.
//!
//! [`FrameSequencer::run_frames_observed`] renders a burst on the calling
//! thread into one reused pixel buffer. Its defining invariant: a burst is
//! **bit-identical** to the same frames through
//! [`FrameSequencer::next_frame`] — same images, same device counters,
//! same modeled times — for every seed, worker count and kernel backend;
//! and faults injected mid-burst retry/degrade through the same resilience
//! ladder, in frame order, recovering bit-identically. Cancellation stops
//! a burst between frames and a resumed sequencer continues exactly where
//! an uninterrupted run would have been.
//!
//! `STARSIM_BACKEND=simd` reruns the suite with the SIMD fast paths
//! (scripts/ci.sh does exactly that); the identity tests additionally
//! sweep both backends explicitly.

use std::sync::Arc;
use std::time::Duration;

use starsim::field::dynamics::AttitudeDynamics;
use starsim::field::generator::synthetic_sky;
use starsim::field::{Attitude, Camera};
use starsim::gpu::{FaultKind, FaultPlan, KernelBackend, VirtualGpu};
use starsim::sim::telemetry::Telemetry;
use starsim::sim::{
    CancelToken, FrameSequencer, RetryPolicy, SessionSetup, SimConfig, SimError, ThroughputReport,
};

const FRAMES: usize = 4;

fn backend_under_test() -> KernelBackend {
    match std::env::var("STARSIM_BACKEND") {
        Ok(s) => KernelBackend::parse(&s)
            .unwrap_or_else(|| panic!("STARSIM_BACKEND must be scalar|simd, got {s:?}")),
        Err(_) => KernelBackend::Scalar,
    }
}

fn config(workers: usize, backend: KernelBackend) -> SimConfig {
    let mut c = SimConfig::new(128, 128, 10);
    c.workers = Some(workers);
    c.backend = backend;
    c
}

/// A drifting-field sequencer (gentle slew: the frames differ, no smear)
/// opened under a fast retry policy when `retry` is set; the policy covers
/// the open's texture bind as well as every frame.
fn sequencer(
    gpu: VirtualGpu,
    seed: u64,
    workers: usize,
    backend: KernelBackend,
    retry: bool,
) -> FrameSequencer {
    let setup = SessionSetup {
        retry: retry.then_some(RetryPolicy {
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        }),
        ..SessionSetup::default()
    };
    FrameSequencer::open(
        gpu,
        setup,
        synthetic_sky(30_000, 0.0, 6.0, seed),
        Camera::from_fov(10.0f64.to_radians(), 128, 128).unwrap(),
        AttitudeDynamics::new(Attitude::pointing(1.0, 0.2, 0.0), [0.002, 0.0, 0.0]),
        config(workers, backend),
        0.1,
        0.5,
    )
    .unwrap()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One frame's identity-relevant state: image bits, counters, modeled
/// time bits.
#[derive(Debug, PartialEq, Eq)]
struct FrameDigest {
    image: Vec<u32>,
    counters: starsim::gpu::Counters,
    app_time_bits: u64,
}

/// The sequential reference: `n` frames through [`FrameSequencer::next_frame`].
fn sequential_digests(seq: &mut FrameSequencer, n: usize) -> Vec<FrameDigest> {
    (0..n)
        .map(|_| {
            let f = seq.next_frame().unwrap();
            FrameDigest {
                image: bits(f.report.image.data()),
                counters: f.report.profile.kernels[0].counters,
                app_time_bits: f.report.app_time_s.to_bits(),
            }
        })
        .collect()
}

/// `n` frames through one burst, digested from the observer.
fn burst_digests(seq: &mut FrameSequencer, n: usize) -> (Vec<FrameDigest>, ThroughputReport) {
    let mut digests = Vec::with_capacity(n);
    let token = CancelToken::new();
    let report = seq
        .run_frames_observed(n, &token, |frame| {
            digests.push(FrameDigest {
                image: bits(frame.pixels),
                counters: frame.timing.counters,
                app_time_bits: frame.timing.app_time_s.to_bits(),
            });
        })
        .unwrap();
    (digests, report)
}

#[test]
fn pipelined_matches_sequential_bit_identically() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut worker_counts = vec![1usize, 2, cores, 4, 15];
    worker_counts.sort_unstable();
    worker_counts.dedup();
    for &seed in &[3u64, 11] {
        for &workers in &worker_counts {
            for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
                let mut reference = sequencer(VirtualGpu::gtx480(), seed, workers, backend, false);
                let expected = sequential_digests(&mut reference, FRAMES);
                let mut bursts = sequencer(VirtualGpu::gtx480(), seed, workers, backend, false);
                let (got, report) = burst_digests(&mut bursts, FRAMES);
                assert_eq!(
                    expected, got,
                    "seed {seed}, {workers} workers, {backend:?}: burst frames \
                     must be bit-identical to next_frame"
                );
                assert_eq!(report.frames, FRAMES);
                assert!(report.overlap.is_some());
                assert!(
                    (bursts.time_s() - reference.time_s()).abs() < 1e-12,
                    "both clocks advanced {FRAMES} frames"
                );
            }
        }
    }
}

#[test]
fn pipelined_bursts_compose_with_next_frame() {
    // Burst, single frame, burst again: the interleaved calls see the
    // same sky as one long sequential run.
    let mut reference = sequencer(VirtualGpu::gtx480(), 5, 4, backend_under_test(), false);
    let expected = sequential_digests(&mut reference, 5);
    let mut seq = sequencer(VirtualGpu::gtx480(), 5, 4, backend_under_test(), false);
    let (first, _) = burst_digests(&mut seq, 2);
    let middle = sequential_digests(&mut seq, 1);
    let (rest, _) = burst_digests(&mut seq, 2);
    let got: Vec<FrameDigest> = first.into_iter().chain(middle).chain(rest).collect();
    assert_eq!(expected, got, "bursts must compose seamlessly");
}

#[test]
fn pipelined_span_tree_is_deterministic_and_two_staged() {
    let run = || {
        let telemetry = Telemetry::new();
        let mut seq = sequencer(VirtualGpu::gtx480(), 7, 2, backend_under_test(), false);
        seq.set_telemetry(Some(Arc::clone(&telemetry)));
        seq.run_frames(FRAMES).unwrap();
        telemetry
    };
    let a = run().span_tree_signature();
    let b = run().span_tree_signature();
    assert_eq!(a, b, "burst span tree must be deterministic");
    // One layout, on one thread: frame > {star-gen, star-upload,
    // render > attempt > {kernel-launch, download}}.
    let n = FRAMES;
    assert_eq!(
        a,
        vec![
            ("", "frame", n),
            ("attempt-configured", "download", n),
            ("attempt-configured", "kernel-launch", n),
            ("frame", "render", n),
            ("frame", "star-gen", n),
            ("frame", "star-upload", n),
            ("render", "attempt-configured", n),
        ]
    );
}

#[test]
fn chaos_matrix_pipelined_recovers_bit_identically() {
    let backend = backend_under_test();
    let mut clean = sequencer(VirtualGpu::gtx480(), 13, 4, backend, false);
    let expected = sequential_digests(&mut clean, FRAMES)
        .into_iter()
        .map(|d| d.image)
        .collect::<Vec<_>>();

    // A bind fault fires at the open, which the retry policy covers.
    for kind in FaultKind::ALL {
        let plan = Arc::new(FaultPlan::single(kind, 1, 2).with_stall(Duration::from_millis(150)));
        let gpu = VirtualGpu::gtx480()
            .with_fault_plan(Arc::clone(&plan))
            .with_watchdog(Duration::from_millis(40));
        let mut seq = sequencer(gpu, 13, 4, backend, true);
        let (got, _report) = burst_digests(&mut seq, FRAMES);
        let got = got.into_iter().map(|d| d.image).collect::<Vec<_>>();
        assert_eq!(
            expected, got,
            "{kind:?}: mid-burst fault must recover bit-identically"
        );
        assert_eq!(plan.remaining(), 0, "{kind:?}: the fault must have fired");
    }
}

#[test]
fn pipelined_fault_accounting_matches_the_sequential_ladder() {
    // One worker panic at launch 1 degrades that frame to spawn dispatch;
    // later frames are unaffected.
    let gpu = VirtualGpu::gtx480().with_fault_plan(Arc::new(FaultPlan::single(
        FaultKind::WorkerPanic,
        1,
        2,
    )));
    let mut seq = sequencer(gpu, 17, 4, backend_under_test(), true);
    let report = seq.run_frames(FRAMES).unwrap();
    assert_eq!(report.frames, FRAMES);
    assert_eq!(report.resilience.panics, 1);
    assert_eq!(report.resilience.retries, 1);
    assert_eq!(
        report.resilience.rung_frames,
        [3, 1, 0, 0],
        "one frame degraded to spawn dispatch, the rest stayed configured"
    );
}

#[test]
fn cancellation_drains_in_flight_frames_and_resumes_bit_identically() {
    let backend = backend_under_test();
    let mut reference = sequencer(VirtualGpu::gtx480(), 23, 2, backend, false);
    let expected = sequential_digests(&mut reference, 6);

    let mut seq = sequencer(VirtualGpu::gtx480(), 23, 2, backend, false);
    let token = CancelToken::new();
    let mut digests = Vec::new();
    let err = seq
        .run_frames_observed(6, &token, |frame| {
            digests.push(FrameDigest {
                image: bits(frame.pixels),
                counters: frame.timing.counters,
                app_time_bits: frame.timing.app_time_s.to_bits(),
            });
            if frame.index == 1 {
                token.cancel();
            }
        })
        .unwrap_err();
    assert!(matches!(err, SimError::Cancelled), "got {err}");
    let completed = digests.len();
    assert_eq!(
        completed, 2,
        "a cancel from frame 1's observer stops the burst before frame 2"
    );
    assert!(
        (seq.time_s() - completed as f64 * 0.5).abs() < 1e-12,
        "the clock stops exactly after the last completed frame"
    );
    assert_eq!(
        &expected[..completed],
        &digests[..],
        "completed frames are bit-identical to the sequential loop"
    );

    // Resume: the remaining frames continue exactly where an
    // uninterrupted run would have been.
    let resumed = sequential_digests(&mut seq, 6 - completed);
    assert_eq!(&expected[completed..], &resumed[..]);
}

#[test]
fn immediate_cancellation_completes_no_frames() {
    let mut seq = sequencer(VirtualGpu::gtx480(), 29, 2, backend_under_test(), false);
    let token = CancelToken::new();
    token.cancel();
    let err = seq
        .run_frames_observed(4, &token, |_| panic!("no frame should complete"))
        .unwrap_err();
    assert!(matches!(err, SimError::Cancelled));
    assert_eq!(seq.time_s(), 0.0, "the clock must not advance");
}

#[test]
fn overlap_and_lut_stats_surface_on_the_report() {
    let mut seq = sequencer(VirtualGpu::gtx480(), 31, 2, backend_under_test(), false);
    let report = seq.run_frames(FRAMES).unwrap();
    let overlap = report.overlap.expect("bursts report overlap");
    assert!(overlap.modeled.app_time_s > 0.0);
    assert!(overlap.modeled.saved_s >= 0.0);
    assert!((0.0..=1.0).contains(&overlap.modeled_efficiency));
    assert!((0.0..=1.0).contains(&overlap.measured_efficiency));
    assert!(overlap.produce_busy_s > 0.0);
    assert!(overlap.consume_busy_s > 0.0);
}
