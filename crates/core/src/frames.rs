//! Frame sequences: the deployed star simulator as one object.
//!
//! "The developed code is currently used for simulating complex star images
//! in a realistic large-scale star simulator" (paper §V) — i.e. as a box
//! that, given a clock and an attitude trajectory, emits sensor frames in
//! real time. [`FrameSequencer`] wires the whole workspace together:
//! sky catalogue → [`starfield::AttitudeDynamics`] propagation → FOV
//! retrieval → the persistent [`crate::AdaptiveSession`] (lookup table
//! resident across frames) → one [`SimulationReport`] per frame, with the
//! slew-dependent smear applied automatically when it matters.
//!
//! Every frame runs on the calling thread through one loop: FOV retrieval,
//! star upload, kernel, download, then the attitude and clock step.
//! [`FrameSequencer::next_frame`] renders one frame with a full report;
//! [`FrameSequencer::run_frames`] and [`FrameSequencer::run_frames_observed`]
//! render bursts into one reused pixel buffer. All of them produce the same
//! images, counters and modeled times for every seed, worker count and
//! kernel backend.

use std::sync::Arc;
use std::time::Instant;

use gpusim::{GpuDiagnostics, VirtualGpu};
use psf::smear::SmearedGaussianPsf;
use starfield::dynamics::AttitudeDynamics;
use starfield::fov::SkyCatalog;
use starfield::projection::Camera;
use starfield::StarCatalog;

use crate::config::{PsfKind, SimConfig};
use crate::error::SimError;
use crate::report::SimulationReport;
use crate::resilience::{CancelToken, ResilienceReport};
use crate::session::{AdaptiveSession, FrameTiming, SessionSetup};
use crate::streams::{frame_overlap_estimate, StreamedEstimate};
use crate::telemetry::{maybe_span, FrameTelemetry, Telemetry};

/// A clocked, attitude-propagating frame source.
pub struct FrameSequencer {
    sky: SkyCatalog,
    camera: Camera,
    dynamics: AttitudeDynamics,
    /// Frame period, seconds.
    frame_dt: f64,
    /// Opened on the per-frame config (the smear is fixed by the constant
    /// body rate), so its config is [`Self::config`].
    session: AdaptiveSession,
    time_s: f64,
}

impl FrameSequencer {
    /// Opens a sequencer on `gpu` — the injection point for fault plans,
    /// watchdog deadlines, and worker counts — with its session set up by
    /// `setup` (table source, retry policy, telemetry; see
    /// [`AdaptiveSession::open`]). `config.width/height` must match the
    /// camera, and both are checked before the lookup table is built.
    ///
    /// The smear PSF is engaged automatically whenever the commanded rate
    /// streaks stars by more than half a pixel over the exposure; the
    /// session's table is built for the smeared optics.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        gpu: VirtualGpu,
        setup: SessionSetup<'_>,
        sky: SkyCatalog,
        camera: Camera,
        dynamics: AttitudeDynamics,
        config: SimConfig,
        exposure_s: f64,
        frame_dt: f64,
    ) -> Result<Self, SimError> {
        Self::check(&camera, &config, exposure_s, frame_dt)?;
        let frame_config = Self::frame_config(&config, &camera, &dynamics, exposure_s);
        let session = AdaptiveSession::open(gpu, frame_config, setup)?;
        Ok(FrameSequencer {
            sky,
            camera,
            dynamics,
            frame_dt,
            session,
            time_s: 0.0,
        })
    }

    /// [`Self::open`] with the default setup. Kept only because perfbench
    /// calls it.
    pub fn on_device(
        gpu: VirtualGpu,
        sky: SkyCatalog,
        camera: Camera,
        dynamics: AttitudeDynamics,
        config: SimConfig,
        exposure_s: f64,
        frame_dt: f64,
    ) -> Result<Self, SimError> {
        Self::open(
            gpu,
            SessionSetup::default(),
            sky,
            camera,
            dynamics,
            config,
            exposure_s,
            frame_dt,
        )
    }

    /// Wraps an already-open session — the server path, where the session
    /// was opened through a shared tenant-attributed [`crate::LutCache`]
    /// before the sequencer exists. The session's config is every frame's
    /// config, so the attitude rate must not engage the smear PSF (the
    /// session's lookup table was built for the unsmeared optics), or
    /// construction fails.
    pub fn on_session(
        session: AdaptiveSession,
        sky: SkyCatalog,
        camera: Camera,
        dynamics: AttitudeDynamics,
        exposure_s: f64,
        frame_dt: f64,
    ) -> Result<Self, SimError> {
        let config = session.config();
        Self::check(&camera, config, exposure_s, frame_dt)?;
        if Self::frame_config(config, &camera, &dynamics, exposure_s) != *config {
            return Err(SimError::InvalidConfig(
                "attitude rate engages the smear PSF, but the session's lookup \
                 table was built for the unsmeared optics; open the session on \
                 the smeared config or slow the slew"
                    .into(),
            ));
        }
        Ok(FrameSequencer {
            sky,
            camera,
            dynamics,
            frame_dt,
            session,
            time_s: 0.0,
        })
    }

    /// The checks both constructors share: the camera matches the config,
    /// and the exposure fits inside the frame period.
    fn check(
        camera: &Camera,
        config: &SimConfig,
        exposure_s: f64,
        frame_dt: f64,
    ) -> Result<(), SimError> {
        if (camera.width, camera.height) != (config.width, config.height) {
            return Err(SimError::InvalidConfig(format!(
                "camera {}x{} does not match config {}x{}",
                camera.width, camera.height, config.width, config.height
            )));
        }
        if !(exposure_s > 0.0 && frame_dt > 0.0 && exposure_s <= frame_dt) {
            return Err(SimError::InvalidConfig(format!(
                "need 0 < exposure ({exposure_s}) ≤ frame period ({frame_dt})"
            )));
        }
        Ok(())
    }

    /// The per-frame config: the base config plus the rate-derived smear.
    fn frame_config(
        base: &SimConfig,
        camera: &Camera,
        dynamics: &AttitudeDynamics,
        exposure_s: f64,
    ) -> SimConfig {
        let mut config = base.clone();
        let streak = dynamics.streak_length_px(camera.focal_px, exposure_s) as f32;
        if streak > 0.5 {
            // Image-plane drift direction of a boresight star: with the
            // boresight on +z, d(dir_body)/dt = −ω × ẑ = (−ω_y, +ω_x, 0),
            // so the streak runs at atan2(ω_x, −ω_y) from image +x.
            let angle = (dynamics.omega[0]).atan2(-dynamics.omega[1]) as f32;
            config.psf = PsfKind::Smeared {
                length: streak,
                angle,
            };
            // Grow the ROI to keep the streak's energy, staying under the
            // device's thread-block cap.
            let margin = SmearedGaussianPsf::new(config.sigma, streak, 0.0).margin_for_energy(0.95);
            config.roi_side = (2 * margin + 1).clamp(config.roi_side, 32);
        }
        config
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.session.telemetry()
    }

    /// Attaches or detaches the telemetry sink in place — servers shed
    /// telemetry detail under load by detaching it, without rebuilding
    /// the sequencer.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.session.set_telemetry(telemetry);
    }

    /// The underlying session (shed floor, diagnostics, config).
    pub fn session(&self) -> &AdaptiveSession {
        &self.session
    }

    /// Sets the session's load-shedding floor (see
    /// [`AdaptiveSession::set_shed_floor`]).
    pub fn set_shed_floor(&self, floor: crate::resilience::Rung) {
        self.session.set_shed_floor(floor);
    }

    /// Cumulative resilience accounting for the underlying session.
    pub fn resilience_report(&self) -> ResilienceReport {
        self.session.resilience_report()
    }

    /// Simulation time of the *next* frame, seconds.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// The active per-frame configuration.
    pub fn config(&self) -> SimConfig {
        self.session.config().clone()
    }

    /// Renders the next frame and advances the clock and attitude.
    pub fn next_frame(&mut self) -> Result<Frame, SimError> {
        let _frame_span = maybe_span(self.session.telemetry(), "frame");
        let catalog = self.view();
        let report = self.session.render(&catalog)?;
        let frame = Frame {
            index: (self.time_s / self.frame_dt).round() as u64,
            time_s: self.time_s,
            attitude: self.dynamics.attitude,
            stars_in_view: catalog.len(),
            report,
        };
        self.step();
        Ok(frame)
    }

    /// The current frame's FOV retrieval, under the `star-gen` span.
    fn view(&self) -> StarCatalog {
        let roi_side = self.session.config().roi_side;
        let _star_gen = maybe_span(self.session.telemetry(), "star-gen");
        self.sky
            .view(self.dynamics.attitude, &self.camera, roi_side as f32)
    }

    /// Advances the attitude and the clock by one frame period.
    fn step(&mut self) {
        self.dynamics.step(self.frame_dt);
        self.time_s += self.frame_dt;
    }

    /// Whether the modeled per-frame cost fits the frame period — the
    /// real-time criterion of the paper's introduction.
    pub fn meets_real_time(&self, frame: &Frame) -> bool {
        frame.report.app_time_s <= self.frame_dt
    }

    /// Renders `n` frames back-to-back through the zero-allocation path
    /// ([`AdaptiveSession::render_into`]) and reports sustained host
    /// throughput. The clock and attitude advance exactly as with
    /// [`Self::next_frame`]; only the per-frame `SimulationReport` (and its
    /// image allocation) is skipped — one pixel buffer serves all frames.
    pub fn run_frames(&mut self, n: usize) -> Result<ThroughputReport, SimError> {
        self.run_frames_observed(n, &CancelToken::new(), |_| {})
    }

    /// [`Self::run_frames`] with an observer: `on_frame` runs after each
    /// frame completes, seeing the frame's pixels in place. Each frame, in
    /// order: check `token`, retrieve the view, render it into the
    /// session's own device image, call `on_frame`, then step the attitude
    /// and the clock.
    ///
    /// Cancelling `token` (from the observer or another thread) stops the
    /// burst between frames, with nothing in flight: the clock stops
    /// exactly after the last completed frame, and the burst returns
    /// [`SimError::Cancelled`] ([`SimError::DeadlineExceeded`] for an
    /// expired budget). A later burst (or [`Self::next_frame`]) resumes
    /// bit-identically with where an uninterrupted run would have been.
    pub fn run_frames_observed(
        &mut self,
        n: usize,
        token: &CancelToken,
        mut on_frame: impl FnMut(&PipelinedFrame<'_>),
    ) -> Result<ThroughputReport, SimError> {
        assert!(n > 0, "need at least one frame");
        // Let the retry ladder see the burst's token: a deadline expiring
        // mid-retry stops burning attempts at the next between-attempt
        // checkpoint instead of descending the whole ladder first.
        self.session.set_cancel_token(Some(token.clone()));
        let mut host = Vec::new();
        let mut latencies_s = Vec::with_capacity(n);
        let mut app_time_s = 0.0;
        let mut totals = PhaseTotals::default();
        let mut produce_busy_s = 0.0;
        let mut consume_busy_s = 0.0;
        let start = Instant::now();
        let burst = 'burst: {
            for _ in 0..n {
                if let Err(e) = token.checkpoint() {
                    break 'burst Err(e);
                }
                let _frame_span = maybe_span(self.session.telemetry(), "frame");
                let t0 = Instant::now();
                let catalog = self.view();
                let t1 = Instant::now();
                produce_busy_s += (t1 - t0).as_secs_f64();
                let timing = match self.session.render_into(&catalog, &mut host) {
                    Ok(timing) => timing,
                    Err(e) => break 'burst Err(e),
                };
                consume_busy_s += t1.elapsed().as_secs_f64();
                latencies_s.push(timing.wall_time_s);
                app_time_s += timing.app_time_s;
                totals.absorb(&timing);
                on_frame(&PipelinedFrame {
                    index: (self.time_s / self.frame_dt).round() as u64,
                    time_s: self.time_s,
                    stars_in_view: catalog.len(),
                    pixels: &host,
                    timing,
                });
                self.step();
            }
            Ok(())
        };
        let elapsed_s = start.elapsed().as_secs_f64();
        self.session.set_cancel_token(None);
        burst?;
        latencies_s.sort_by(f64::total_cmp);
        Ok(ThroughputReport {
            frames: n,
            elapsed_s,
            p50_ms: percentile_ms(&latencies_s, 50.0),
            p99_ms: percentile_ms(&latencies_s, 99.0),
            mean_app_time_s: app_time_s / n as f64,
            resilience: self.session.resilience_report(),
            diagnostics: self.session.diagnostics(),
            overlap: Some(overlap_report(
                n,
                &totals,
                produce_busy_s,
                consume_busy_s,
                elapsed_s,
            )),
            telemetry: self
                .session
                .telemetry()
                .map(|t| t.frame_telemetry())
                .map(Box::new),
        })
    }

    /// [`Self::run_frames`] under the name of the retired two-thread
    /// schedule. Kept only because the repository's benchmark
    /// (`perfbench/`) still calls it.
    pub fn run_frames_pipelined(&mut self, n: usize) -> Result<ThroughputReport, SimError> {
        self.run_frames(n)
    }

    /// [`Self::run_frames_observed`] under the name of the retired
    /// two-thread schedule. Kept only because the repository's benchmark
    /// (`perfbench/`) still calls it.
    pub fn run_frames_pipelined_observed(
        &mut self,
        n: usize,
        token: &CancelToken,
        on_frame: impl FnMut(&PipelinedFrame<'_>),
    ) -> Result<ThroughputReport, SimError> {
        self.run_frames_observed(n, token, on_frame)
    }
}

/// Modeled per-phase totals over a burst, for the overlap estimate.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseTotals {
    upload_s: f64,
    kernel_s: f64,
    serial_s: f64,
}

impl PhaseTotals {
    fn absorb(&mut self, timing: &FrameTiming) {
        self.upload_s += timing.star_upload_s;
        self.kernel_s += timing.kernel_s;
        self.serial_s += timing.serial_transfer_s;
    }
}

/// Builds the overlap section of a [`ThroughputReport`] from the burst's
/// modeled phase totals and measured stage-busy times.
fn overlap_report(
    frames: usize,
    totals: &PhaseTotals,
    produce_busy_s: f64,
    consume_busy_s: f64,
    elapsed_s: f64,
) -> OverlapReport {
    let modeled = frame_overlap_estimate(frames, totals.upload_s, totals.kernel_s, totals.serial_s);
    OverlapReport {
        modeled_efficiency: {
            let smaller = totals.upload_s.min(totals.kernel_s);
            if smaller <= 0.0 {
                0.0
            } else {
                (modeled.saved_s / smaller).clamp(0.0, 1.0)
            }
        },
        modeled,
        produce_busy_s,
        consume_busy_s,
        measured_efficiency: {
            let smaller = produce_busy_s.min(consume_busy_s);
            if smaller <= 0.0 {
                0.0
            } else {
                ((produce_busy_s + consume_busy_s - elapsed_s).max(0.0) / smaller).clamp(0.0, 1.0)
            }
        },
    }
}

/// Nearest-rank percentile of sorted per-frame latencies, in milliseconds.
fn percentile_ms(sorted_s: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted_s.is_empty());
    let rank = (q / 100.0 * sorted_s.len() as f64).ceil() as usize;
    sorted_s[rank.clamp(1, sorted_s.len()) - 1] * 1e3
}

/// Sustained host throughput over a [`FrameSequencer::run_frames`] burst.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Frames rendered.
    pub frames: usize,
    /// Host wall-clock for the whole burst, seconds.
    pub elapsed_s: f64,
    /// Median per-frame host latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-frame host latency, milliseconds.
    pub p99_ms: f64,
    /// Mean modeled (virtual-GPU) time per frame, seconds.
    pub mean_app_time_s: f64,
    /// Resilience accounting: faults seen, retries spent, rungs used —
    /// cumulative for the session as of the end of the burst (all-zero on
    /// a fault-free run).
    pub resilience: ResilienceReport,
    /// Device resilience counters at the end of the burst, so frame-loop
    /// callers see pool rebuilds / checksum catches / arena drops without
    /// holding a device reference.
    pub diagnostics: GpuDiagnostics,
    /// Modeled-vs-measured overlap accounting for the burst: how much of
    /// the star upload a streamed copy/compute overlap could hide behind
    /// the kernel, next to the host stages' busy times. Always `Some`.
    pub overlap: Option<OverlapReport>,
    /// Telemetry rollup (span stages, launch counts, metrics) when a sink
    /// is attached ([`SessionSetup::telemetry`]); `None` otherwise.
    /// Boxed: the rollup is much larger than the scalar fields.
    pub telemetry: Option<Box<FrameTelemetry>>,
}

impl ThroughputReport {
    /// Sustained frames per second (host wall-clock).
    pub fn fps(&self) -> f64 {
        self.frames as f64 / self.elapsed_s
    }
}

/// Overlap accounting for one frame burst: the modeled copy/compute
/// overlap bound over the burst's phase totals (the paper's streamed
/// transfers, §III-B.3), next to what the host measured.
#[derive(Debug, Clone, Copy)]
pub struct OverlapReport {
    /// The modeled pipeline bound ([`frame_overlap_estimate`]) over the
    /// burst's star-upload / kernel / serial-transfer totals.
    pub modeled: StreamedEstimate,
    /// `modeled.saved_s` over the smaller of the two overlappable phase
    /// totals, in `[0, 1]`: 1 means the smaller phase disappears entirely
    /// behind the larger.
    pub modeled_efficiency: f64,
    /// Host wall-clock the prepare stage (FOV retrieval and star
    /// generation) was busy, seconds.
    pub produce_busy_s: f64,
    /// Host wall-clock the render stage (star upload, kernel and download)
    /// was busy, seconds.
    pub consume_busy_s: f64,
    /// Measured overlap: busy time hidden by running the two stages
    /// concurrently, over the smaller stage's busy time, in `[0, 1]`.
    /// Both stages run one after the other on the calling thread, so this
    /// is ≈ 0 by construction; the modeled half above is the estimate of
    /// what a device-side overlap would hide.
    pub measured_efficiency: f64,
}

/// One frame as observed by [`FrameSequencer::run_frames_observed`].
/// Borrows the burst's host buffer: the pixels are valid for the
/// callback's duration only.
#[derive(Debug)]
pub struct PipelinedFrame<'a> {
    /// Frame number since the sequencer started.
    pub index: u64,
    /// Simulation time the frame was taken, seconds.
    pub time_s: f64,
    /// Stars the FOV retrieval placed on (or near) the sensor.
    pub stars_in_view: usize,
    /// The rendered image, row-major `width × height`.
    pub pixels: &'a [f32],
    /// Per-frame timing decomposition.
    pub timing: FrameTiming,
}

/// One emitted sensor frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame number since the sequencer started.
    pub index: u64,
    /// Simulation time the frame was taken, seconds.
    pub time_s: f64,
    /// Attitude at the start of the exposure.
    pub attitude: starfield::Attitude,
    /// Stars the FOV retrieval placed on (or near) the sensor.
    pub stars_in_view: usize,
    /// The rendering report (image + timings).
    pub report: SimulationReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::RetryPolicy;
    use gpusim::{FaultKind, FaultPlan, FaultSpec};
    use starfield::generator::synthetic_sky;
    use starfield::Attitude;

    fn camera() -> Camera {
        Camera::from_fov(10.0f64.to_radians(), 256, 256).unwrap()
    }

    fn sequencer(omega: [f64; 3]) -> FrameSequencer {
        FrameSequencer::open(
            VirtualGpu::gtx480(),
            SessionSetup::default(),
            synthetic_sky(30_000, 0.0, 6.0, 3),
            camera(),
            AttitudeDynamics::new(Attitude::pointing(1.0, 0.2, 0.0), omega),
            SimConfig::new(256, 256, 10),
            0.1,
            0.5,
        )
        .unwrap()
    }

    #[test]
    fn emits_frames_and_advances_time() {
        let mut seq = sequencer([0.0; 3]);
        let f0 = seq.next_frame().unwrap();
        let f1 = seq.next_frame().unwrap();
        assert_eq!(f0.index, 0);
        assert_eq!(f1.index, 1);
        assert_eq!(f0.time_s, 0.0);
        assert!((f1.time_s - 0.5).abs() < 1e-12);
        assert!(f0.stars_in_view > 0);
        assert!(seq.meets_real_time(&f0), "virtual GPU is far under budget");
    }

    #[test]
    fn stationary_attitude_renders_identical_frames() {
        let mut seq = sequencer([0.0; 3]);
        let f0 = seq.next_frame().unwrap();
        let f1 = seq.next_frame().unwrap();
        assert_eq!(f0.report.image, f1.report.image);
    }

    #[test]
    fn slew_moves_the_field_between_frames() {
        let mut seq = sequencer([0.002, 0.0, 0.0]); // gentle slew, no smear
        let f0 = seq.next_frame().unwrap();
        let f1 = seq.next_frame().unwrap();
        assert_ne!(f0.report.image, f1.report.image, "field must drift");
    }

    #[test]
    fn fast_slew_engages_the_smear_psf_and_grows_the_roi() {
        // 1°/s through a ~1465-px focal length over 0.1 s ≈ 2.6 px streak.
        let seq = sequencer([1.0f64.to_radians(), 0.0, 0.0]);
        let cfg = seq.config();
        assert!(
            matches!(cfg.psf, PsfKind::Smeared { length, .. } if length > 1.0),
            "expected smear, got {:?}",
            cfg.psf
        );
        assert!(cfg.roi_side >= 10);
        // A stationary sequencer keeps the point PSF.
        let still = sequencer([0.0; 3]);
        assert!(matches!(still.config().psf, PsfKind::Point));
    }

    #[test]
    fn smear_angle_tracks_the_slew_axis() {
        // Rotation about body x drifts boresight stars along image +y
        // (angle π/2); about body y, along image −x (angle π).
        let about_x = sequencer([1.0f64.to_radians(), 0.0, 0.0]);
        let PsfKind::Smeared { angle, .. } = about_x.config().psf else {
            panic!("expected smear")
        };
        assert!(
            (angle - std::f32::consts::FRAC_PI_2).abs() < 1e-6,
            "angle {angle}"
        );
        let about_y = sequencer([0.0, 1.0f64.to_radians(), 0.0]);
        let PsfKind::Smeared { angle, .. } = about_y.config().psf else {
            panic!("expected smear")
        };
        assert!(
            (angle.abs() - std::f32::consts::PI).abs() < 1e-6,
            "angle {angle}"
        );
    }

    #[test]
    fn run_frames_reports_throughput_and_advances_the_clock() {
        let mut seq = sequencer([0.002, 0.0, 0.0]);
        let report = seq.run_frames(5).unwrap();
        assert_eq!(report.frames, 5);
        assert!(report.elapsed_s > 0.0);
        assert!(report.fps() > 0.0);
        assert!(report.p50_ms > 0.0);
        assert!(report.p99_ms >= report.p50_ms);
        assert!(report.mean_app_time_s > 0.0);
        assert!(
            (seq.time_s() - 2.5).abs() < 1e-12,
            "clock advanced 5 frames"
        );
        // The throughput loop and the report loop see the same sky.
        let f5 = seq.next_frame().unwrap();
        assert_eq!(f5.index, 5);
    }

    #[test]
    fn run_frames_matches_next_frame_timings() {
        let mut by_report = sequencer([0.0; 3]);
        let mut by_burst = sequencer([0.0; 3]);
        let frame = by_report.next_frame().unwrap();
        let burst = by_burst.run_frames(3).unwrap();
        // Stationary attitude: every burst frame models identically to the
        // reported frame (up to the mean's summation rounding).
        let rel = (burst.mean_app_time_s - frame.report.app_time_s).abs() / frame.report.app_time_s;
        assert!(rel < 1e-12, "relative deviation {rel}");
    }

    #[test]
    fn a_smeared_sequencer_retries_its_bind_and_frames() {
        // 1°/s engages the smear PSF, so the session's table is built for
        // the smeared optics; its open and frames run under the policy.
        let omega = [1.0f64.to_radians(), 0.0, 0.0];
        let spec = |launch, lane, kind| FaultSpec { launch, lane, kind };
        let plan = FaultPlan::from_specs(vec![
            spec(0, 0, FaultKind::TextureBindFail),
            spec(1, 2, FaultKind::WorkerPanic),
        ]);
        let setup = SessionSetup {
            retry: Some(RetryPolicy {
                backoff: std::time::Duration::ZERO,
                ..RetryPolicy::default()
            }),
            ..SessionSetup::default()
        };
        let mut seq = FrameSequencer::open(
            VirtualGpu::gtx480().with_fault_plan(Arc::new(plan)),
            setup,
            synthetic_sky(30_000, 0.0, 6.0, 3),
            camera(),
            AttitudeDynamics::new(Attitude::pointing(1.0, 0.2, 0.0), omega),
            SimConfig::new(256, 256, 10),
            0.1,
            0.5,
        )
        .unwrap();
        assert!(matches!(seq.config().psf, PsfKind::Smeared { .. }));
        let mut clean = sequencer(omega);
        // Pixels and modeled time, bit for bit.
        let bits = |f: Frame| {
            let pixels: Vec<u32> = f.report.image.data().iter().map(|v| v.to_bits()).collect();
            (pixels, f.report.app_time_s.to_bits())
        };
        for _ in 0..3 {
            assert_eq!(
                bits(seq.next_frame().unwrap()),
                bits(clean.next_frame().unwrap())
            );
        }
        assert_eq!(clean.resilience_report(), ResilienceReport::default());
        let r = seq.resilience_report();
        assert_eq!((r.bind_failures, r.panics, r.retries), (1, 1, 2));
        assert_eq!(r.rung_frames, [2, 1, 0, 0]);
    }

    #[test]
    fn construction_validation() {
        let sky = synthetic_sky(100, 0.0, 6.0, 1);
        let dynamics = AttitudeDynamics::new(Attitude::IDENTITY, [0.0; 3]);
        let open = |config, exposure_s| {
            FrameSequencer::on_device(
                VirtualGpu::gtx480(),
                sky.clone(),
                camera(),
                dynamics,
                config,
                exposure_s,
                0.5,
            )
        };
        // Camera/config mismatch.
        assert!(open(SimConfig::new(128, 128, 10), 0.1).is_err());
        // Exposure longer than the frame period.
        assert!(open(SimConfig::new(256, 256, 10), 1.0).is_err());
    }
}
