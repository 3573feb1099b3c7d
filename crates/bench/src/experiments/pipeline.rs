//! Frame-loop benchmark: sustained bursts of
//! [`FrameSequencer::run_frames`] at the headline shape (2^13 stars dense
//! in a 10° FOV, ROI 10, 1024×1024 — the paper's test-1 scale as a frame
//! stream).
//!
//! `BENCH_PR7.json` carries the gates:
//!
//! * `p99_ok` — p99 frame latency ≤ 39 ms;
//! * `bit_identical` — burst images, counters and modeled times are
//!   bit-equal to [`FrameSequencer::next_frame`] across a seed × workers
//!   sweep (the invariant `tests/pipeline.rs` checks exhaustively).

use gpusim::{DeviceSpec, VirtualGpu};
use starfield::dynamics::AttitudeDynamics;
use starfield::{Attitude, Camera, SkyCatalog, SkyStar};
use starsim_core::{CancelToken, FrameSequencer, SessionSetup, SimConfig, ThroughputReport};

use super::format::{write_json_object, Json, Table};
use super::Context;

/// The headline workload: 2^13 stars. Always measured, even under
/// `--quick`, so `BENCH_PR7.json` is comparable across runs.
const HEADLINE_EXPONENT: u32 = 13;

/// The tail-latency gate, milliseconds.
const P99_GATE_MS: f64 = 39.0;

/// A sky with exactly `stars` stars spread over the central ~84% of a
/// `fov_rad` field of view around (ra 0, dec 0): every star stays on the
/// sensor for the whole burst. A golden-ratio lattice (no RNG dependency)
/// keeps the layout deterministic per seed and low-discrepancy — dense,
/// even coverage like the paper's large-scale fields.
pub(super) fn dense_sky(stars: usize, fov_rad: f64, seed: u64) -> SkyCatalog {
    const PHI1: f64 = 0.754_877_666_246_692_8; // plastic-number lattice
    const PHI2: f64 = 0.569_840_290_998_053_2;
    let offset = (seed % 4096) as f64 * PHI2;
    (0..stars)
        .map(|i| {
            let t = i as f64 + offset;
            let u = (t * PHI1).fract();
            let v = (t * PHI2).fract();
            let ra = (u - 0.5) * 0.84 * fov_rad;
            let dec = (v - 0.5) * 0.84 * fov_rad;
            let mag = 6.0 * ((t * PHI1 * 7.0).fract() as f32);
            SkyStar::new(ra, dec, mag)
        })
        .collect()
}

/// A sequencer over the dense sky: boresight on the field centre, a drift
/// slow enough to keep the point PSF (and every star in view) while still
/// changing the field every frame.
pub(super) fn sequencer(
    gpu: VirtualGpu,
    config: SimConfig,
    stars: usize,
    seed: u64,
) -> Result<FrameSequencer, starsim_core::SimError> {
    let fov_rad = 10.0f64.to_radians();
    let camera = Camera::from_fov(fov_rad, config.width, config.height).expect("valid camera");
    FrameSequencer::open(
        gpu,
        SessionSetup::default(),
        dense_sky(stars, fov_rad, seed),
        camera,
        AttitudeDynamics::new(Attitude::pointing(0.0, 0.0, 0.0), [5e-4, 0.0, 0.0]),
        config,
        0.05,
        0.1,
    )
}

/// Sustained numbers plus the report of the best pass.
struct Sustained {
    fps: f64,
    p50_ms: f64,
    p99_ms: f64,
    report: ThroughputReport,
}

/// Runs `reps` bursts of `frames` and keeps the fastest pass (the one
/// least disturbed by unrelated host load — the same best-of-reps policy
/// as the `executor` experiment). One untimed warmup burst starts the pool
/// and sizes the host buffers.
fn measure(seq: &mut FrameSequencer, frames: usize, reps: usize) -> Sustained {
    let _ = seq.run_frames(frames).expect("warmup burst");
    let mut best: Option<Sustained> = None;
    for _ in 0..reps.max(1) {
        let report = seq.run_frames(frames).expect("burst");
        let pass = Sustained {
            fps: report.fps(),
            p50_ms: report.p50_ms,
            p99_ms: report.p99_ms,
            report,
        };
        if best.as_ref().is_none_or(|b| pass.fps > b.fps) {
            best = Some(pass);
        }
    }
    best.expect("reps >= 1")
}

/// FNV-1a over one burst's identity-relevant state: image bits, counters
/// and modeled-time bits per frame.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of `frames` frames through [`FrameSequencer::next_frame`] (the
/// reference).
fn sequential_digest(seq: &mut FrameSequencer, frames: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..frames {
        let f = seq.next_frame().expect("frame");
        for p in f.report.image.data() {
            fnv1a(&mut h, &p.to_bits().to_le_bytes());
        }
        fnv1a(
            &mut h,
            format!("{:?}", f.report.profile.kernels[0].counters).as_bytes(),
        );
        fnv1a(&mut h, &f.report.app_time_s.to_bits().to_le_bytes());
    }
    h
}

/// Digest of `frames` burst frames, taken by the observer.
fn burst_digest(seq: &mut FrameSequencer, frames: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let token = CancelToken::new();
    seq.run_frames_observed(frames, &token, |frame| {
        for p in frame.pixels {
            fnv1a(&mut h, &p.to_bits().to_le_bytes());
        }
        fnv1a(&mut h, format!("{:?}", frame.timing.counters).as_bytes());
        fnv1a(&mut h, &frame.timing.app_time_s.to_bits().to_le_bytes());
    })
    .expect("burst");
    h
}

/// Sweeps seed × workers at a small shape and reports whether every
/// configuration's burst digest matches the sequential one.
fn identity_sweep(ctx: &Context, seeds: &[u64]) -> (bool, usize) {
    let mut all_equal = true;
    let mut configs = 0;
    for &seed in seeds {
        for &workers in &[2usize, 15] {
            let mut config = ctx.sim_config(256, 256, 10);
            config.workers = Some(workers);
            let mut reference = sequencer(VirtualGpu::gtx480(), config.clone(), 1024, seed)
                .expect("reference sequencer");
            let mut burst = sequencer(VirtualGpu::gtx480(), config, 1024, seed).expect("sequencer");
            let expected = sequential_digest(&mut reference, 3);
            let got = burst_digest(&mut burst, 3);
            if expected != got {
                eprintln!("pipeline: WARNING: identity broken at seed {seed}, {workers} workers");
                all_equal = false;
            }
            configs += 1;
        }
    }
    (all_equal, configs)
}

/// Runs the frame-loop measurement and the identity sweep; writes
/// `pipeline.csv` plus the `BENCH_PR7.json` headline artefact.
pub fn run(ctx: &Context) -> Table {
    let frames = if ctx.quick { 6 } else { 24 };
    let reps = if ctx.quick { 2 } else { 3 };
    let stars = 1usize << HEADLINE_EXPONENT;
    // One worker per virtual SM — the deployed shape — unless --workers
    // overrides it.
    let workers = ctx
        .workers
        .unwrap_or(DeviceSpec::gtx480().sm_count as usize);
    let mut config = ctx.sim_config(1024, 1024, 10);
    config.workers = Some(workers);

    eprintln!("pipeline: frame loop ({frames} frames, {workers} workers) ...");
    let mut seq = sequencer(VirtualGpu::gtx480(), config, stars, ctx.seed).expect("sequencer");
    let s = measure(&mut seq, frames, reps);
    let mut t = Table::new(vec!["config", "fps", "p50_ms", "p99_ms"]);
    t.row(vec![
        "frame-loop".to_string(),
        format!("{:.2}", s.fps),
        format!("{:.3}", s.p50_ms),
        format!("{:.3}", s.p99_ms),
    ]);
    let _ = t.write_csv(&ctx.out_path("pipeline.csv"));
    let overlap = s.report.overlap.expect("bursts report overlap");

    let seeds: &[u64] = if ctx.quick {
        &[ctx.seed]
    } else {
        &[ctx.seed, ctx.seed + 4]
    };
    eprintln!("pipeline: bit-identity sweep ({} seeds) ...", seeds.len());
    let (bit_identical, identity_configs) = identity_sweep(ctx, seeds);

    let p99_ok = s.p99_ms <= P99_GATE_MS;
    let gate_ok = p99_ok && bit_identical;
    if !gate_ok {
        eprintln!(
            "pipeline: WARNING: gate failed — p99 {:.2} ms (need <= {P99_GATE_MS}), \
             bit_identical {bit_identical}",
            s.p99_ms
        );
    }
    let _ = write_json_object(
        &ctx.out_path("BENCH_PR7.json"),
        &[
            (
                "workload",
                Json::Str(format!("dense/2^{HEADLINE_EXPONENT} @1024")),
            ),
            ("frames", Json::Int(frames as u64)),
            ("workers", Json::Int(workers as u64)),
            ("fps", Json::f3(s.fps)),
            ("p50_ms", Json::f3(s.p50_ms)),
            ("p99_ms", Json::f3(s.p99_ms)),
            ("p99_gate_ms", Json::f3(P99_GATE_MS)),
            ("overlap_modeled_saved_s", Json::f6(overlap.modeled.saved_s)),
            (
                "overlap_modeled_efficiency",
                Json::f3(overlap.modeled_efficiency),
            ),
            (
                "overlap_measured_efficiency",
                Json::f3(overlap.measured_efficiency),
            ),
            ("identity_configs", Json::Int(identity_configs as u64)),
            ("bit_identical", Json::Bool(bit_identical)),
            ("p99_ok", Json::Bool(p99_ok)),
            ("gate_ok", Json::Bool(gate_ok)),
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_study_runs_quick_and_writes_artefacts() {
        let dir = std::env::temp_dir().join("starsim_pipeline_bench");
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = Context {
            quick: true,
            out_dir: dir.clone(),
            // Keep the smoke cheap: the full SM-wide fan-out is the real
            // bench run's job.
            workers: Some(2),
            ..Default::default()
        };
        let t = run(&ctx);
        assert_eq!(t.len(), 1, "one row for the frame loop");
        let json = std::fs::read_to_string(dir.join("BENCH_PR7.json")).unwrap();
        for key in [
            "fps",
            "p50_ms",
            "p99_ms",
            "overlap_modeled_efficiency",
            "bit_identical",
            "p99_ok",
            "gate_ok",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The correctness gate must hold even in a debug-profile smoke run
        // (the latency gate is only meaningful under --release and is
        // asserted by scripts/ci.sh instead).
        assert!(json.contains("\"bit_identical\": true"), "{json}");
        assert!(dir.join("pipeline.csv").exists());
    }

    #[test]
    fn dense_sky_is_deterministic_and_fills_the_fov() {
        let fov = 10.0f64.to_radians();
        let a = dense_sky(512, fov, 7);
        let b = dense_sky(512, fov, 7);
        let c = dense_sky(512, fov, 8);
        assert_eq!(a.len(), 512);
        assert_eq!(a.stars().len(), b.stars().len());
        for (x, y) in a.stars().iter().zip(b.stars()) {
            assert_eq!(x.ra.to_bits(), y.ra.to_bits());
            assert_eq!(x.dec.to_bits(), y.dec.to_bits());
        }
        assert!(
            a.stars()
                .iter()
                .zip(c.stars())
                .any(|(x, y)| x.ra.to_bits() != y.ra.to_bits()),
            "different seeds shift the lattice"
        );
        for s in a.stars() {
            assert!(s.ra.abs() <= 0.42 * fov + 1e-12);
            assert!(s.dec.abs() <= 0.42 * fov + 1e-12);
            assert!((0.0..=6.0).contains(&s.mag.0));
        }
    }
}
