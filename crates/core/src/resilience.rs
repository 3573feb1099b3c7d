//! Bounded retry, degradation ladder, and resilience accounting.
//!
//! The frame loop ([`crate::session::AdaptiveSession::render_into`] and
//! [`crate::frames::FrameSequencer`]) recovers from transient GPU faults —
//! worker panics, stuck-lane watchdog timeouts, allocation failures,
//! transfer corruption — by retrying the frame under a [`RetryPolicy`].
//! Each failed attempt descends one [`Rung`] of the degradation ladder:
//!
//! | rung | dispatch | executor | kernel |
//! |------|----------|----------|--------|
//! | 0    | pooled   | configured (`Batched`) | adaptive LUT |
//! | 1    | spawn    | configured | adaptive LUT |
//! | 2    | serial   | `Reference` | adaptive LUT |
//! | 3    | serial   | `Reference` | parallel (direct PSF) |
//!
//! Rungs 0–2 are *bit-identical*: every executor adds each pixel's values
//! in block order, whatever the worker count, so spawn dispatch (rung 1)
//! changes only how blocks are assigned to host threads, and rung 2's
//! reference executor — serial on the launching thread, where the spawn
//! override it inherits has no lanes to act on — renders the same image
//! as the batched executor. A retried frame therefore matches the
//! fault-free run exactly. Only rung 3 changes the model: it swaps the
//! intensity model (direct PSF evaluation instead of the lookup table), a
//! last resort reached only when every bit-identical attempt has failed,
//! trading the table's quantization for availability.
//!
//! Every fault seen, retry spent, and rung used is recorded in a
//! [`ResilienceReport`] attached to
//! [`crate::frames::ThroughputReport::resilience`].

use crate::error::SimError;
use gpusim::{GpuDiagnostics, GpuError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared state behind a [`CancelToken`]: the explicit cancel flag plus an
/// optional wall-clock deadline. The deadline sits behind a (poison-
/// tolerant) mutex rather than an atomic because it is read once per
/// *frame*, not per pixel — never on a kernel hot path.
#[derive(Debug, Default)]
struct TokenInner {
    flag: AtomicBool,
    deadline: Mutex<Option<Instant>>,
}

/// A cooperative cancellation handle for the frame loop
/// ([`crate::frames::FrameSequencer::run_frames_observed`]).
///
/// Cloning shares the flag: any clone can [`Self::cancel`], every
/// checkpoint observes it. Cancellation composes with the retry ladder
/// rather than racing it — the loop checks the token before each frame,
/// and the ladder checks it between attempts, so no frame or attempt is
/// cut midway; the sequencer's clock stops exactly after the last
/// completed frame and a later burst resumes bit-identically with an
/// uninterrupted run.
///
/// A token can additionally carry a **deadline budget**
/// ([`Self::with_deadline`] / [`Self::with_budget`]): once the deadline
/// passes, the token observes as cancelled and checkpoints surface
/// [`SimError::DeadlineExceeded`] instead of [`SimError::Cancelled`], so
/// callers (the `starsimd` server's per-request budgets in particular)
/// can tell an expired budget from an operator cancel. The stop is the
/// same either way: the frame under way completes, no new one starts.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<TokenInner>);

impl CancelToken {
    /// A fresh, un-cancelled token without a deadline.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that self-cancels once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        let token = CancelToken::new();
        token.set_deadline(Some(deadline));
        token
    }

    /// A token that self-cancels `budget` from now.
    pub fn with_budget(budget: Duration) -> Self {
        CancelToken::with_deadline(Instant::now() + budget)
    }

    /// Installs (or clears) the deadline. Shared by every clone.
    pub fn set_deadline(&self, deadline: Option<Instant>) {
        *self.0.deadline.lock().unwrap_or_else(|e| e.into_inner()) = deadline;
    }

    /// The installed deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        *self.0.deadline.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Time left before the deadline (`None` without one; zero once past).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the deadline (if any) has passed.
    pub fn deadline_expired(&self) -> bool {
        self.deadline().is_some_and(|d| Instant::now() >= d)
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested — explicitly or by an
    /// expired deadline.
    pub fn is_cancelled(&self) -> bool {
        self.0.flag.load(Ordering::Acquire) || self.deadline_expired()
    }

    /// The error a cancelled checkpoint surfaces: an expired deadline
    /// reports [`SimError::DeadlineExceeded`], an explicit cancel
    /// [`SimError::Cancelled`]. The deadline takes precedence — a request
    /// cancelled *because* its budget expired is a deadline miss.
    pub fn cancel_error(&self) -> SimError {
        if self.deadline_expired() {
            SimError::DeadlineExceeded
        } else {
            SimError::Cancelled
        }
    }

    /// `Err` once cancellation has been requested (see
    /// [`Self::cancel_error`] for which) — the admission check stages run
    /// before starting new work.
    pub fn checkpoint(&self) -> Result<(), SimError> {
        if self.is_cancelled() {
            Err(self.cancel_error())
        } else {
            Ok(())
        }
    }
}

/// Bounded-retry parameters for the resilient frame loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per frame (first try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each further attempt.
    pub backoff: Duration,
    /// Multiplier applied to `backoff` after each failed attempt.
    pub backoff_factor: u32,
    /// Total backoff budget per frame; sleeps are clipped so their sum
    /// never exceeds this.
    pub frame_budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff: Duration::from_micros(200),
            backoff_factor: 2,
            frame_budget: Duration::from_millis(250),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt, no backoff).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            backoff_factor: 1,
            frame_budget: Duration::ZERO,
        }
    }

    /// Backoff before retry number `attempt` (1-based: the sleep taken
    /// after the `attempt`-th failure), before budget clipping.
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = self
            .backoff_factor
            .max(1)
            .saturating_pow(attempt.saturating_sub(1));
        self.backoff.saturating_mul(factor)
    }
}

/// One rung of the degradation ladder. See the module docs for the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Pooled dispatch, configured executor, adaptive LUT kernel.
    Configured = 0,
    /// Spawn dispatch (bypasses a possibly-poisoned worker pool).
    SpawnDispatch = 1,
    /// `ExecMode::Reference` executor, serial on the launching thread.
    /// Same math, same block-order deposits: bit-identical frames.
    ReferenceExec = 2,
    /// Direct-PSF parallel kernel — different intensity model; last resort.
    DirectPsf = 3,
}

impl Rung {
    /// All rungs, top to bottom.
    pub const ALL: [Rung; 4] = [
        Rung::Configured,
        Rung::SpawnDispatch,
        Rung::ReferenceExec,
        Rung::DirectPsf,
    ];

    /// The next rung down, or `None` at the bottom of the ladder.
    pub fn next(self) -> Option<Rung> {
        match self {
            Rung::Configured => Some(Rung::SpawnDispatch),
            Rung::SpawnDispatch => Some(Rung::ReferenceExec),
            Rung::ReferenceExec => Some(Rung::DirectPsf),
            Rung::DirectPsf => None,
        }
    }

    /// Index into [`ResilienceReport::rung_frames`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The rung at `index`, the inverse of [`Self::index`].
    pub fn from_index(index: usize) -> Option<Rung> {
        Rung::ALL.get(index).copied()
    }

    /// Static span name for telemetry: one attempt at this rung records a
    /// span of this name, so a trace shows exactly which ladder steps a
    /// frame descended through.
    pub fn span_name(self) -> &'static str {
        match self {
            Rung::Configured => "attempt-configured",
            Rung::SpawnDispatch => "attempt-spawn-dispatch",
            Rung::ReferenceExec => "attempt-reference-exec",
            Rung::DirectPsf => "attempt-direct-psf",
        }
    }
}

/// Counters describing what the resilient frame loop saw and did.
///
/// All-zero means "no faults, no retries" — the report of a healthy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Frames completed through the resilient path.
    pub frames: u64,
    /// Total faults observed (sum of the per-kind counters below).
    pub faults_seen: u64,
    /// Retry attempts spent (failed attempts, not counting the first).
    pub retries: u64,
    /// Worker panics converted to `GpuError::WorkerPanic`.
    pub panics: u64,
    /// Watchdog launch timeouts (`GpuError::LaunchTimeout`).
    pub timeouts: u64,
    /// Allocation failures (`GpuError::OutOfMemory`).
    pub oom: u64,
    /// Transfer corruptions caught by checksum.
    pub corruptions: u64,
    /// Texture-bind failures.
    pub bind_failures: u64,
    /// Worker pools torn down and rebuilt after poisoning.
    pub pool_rebuilds: u64,
    /// Per-chunk checksum mismatches detected on download.
    pub checksum_catches: u64,
    /// Frames completed at each ladder rung (index = [`Rung::index`]).
    pub rung_frames: [u64; 4],
    /// Frames that exhausted every attempt and surfaced an error.
    pub exhausted: u64,
}

impl ResilienceReport {
    /// Classifies `err` into the per-kind fault counters.
    pub fn record_error(&mut self, err: &SimError) {
        self.faults_seen += 1;
        if let SimError::Gpu(g) = err {
            match g {
                GpuError::WorkerPanic(_) => self.panics += 1,
                GpuError::LaunchTimeout { .. } => self.timeouts += 1,
                GpuError::OutOfMemory { .. } => self.oom += 1,
                GpuError::TransferCorrupted { .. } => self.corruptions += 1,
                GpuError::TextureBind(_) => self.bind_failures += 1,
                _ => {}
            }
        }
    }

    /// Records a frame completed at `rung`.
    pub fn record_frame(&mut self, rung: Rung) {
        self.frames += 1;
        self.rung_frames[rung.index()] += 1;
    }

    /// Folds the device-side diagnostics counters into this report.
    pub fn absorb_diagnostics(&mut self, d: GpuDiagnostics) {
        self.pool_rebuilds = d.pool_rebuilds;
        self.checksum_catches = d.checksum_catches;
    }

    /// Element-wise sum of two reports.
    pub fn merge(&mut self, other: &ResilienceReport) {
        self.frames += other.frames;
        self.faults_seen += other.faults_seen;
        self.retries += other.retries;
        self.panics += other.panics;
        self.timeouts += other.timeouts;
        self.oom += other.oom;
        self.corruptions += other.corruptions;
        self.bind_failures += other.bind_failures;
        self.pool_rebuilds += other.pool_rebuilds;
        self.checksum_catches += other.checksum_catches;
        for (a, b) in self.rung_frames.iter_mut().zip(other.rung_frames.iter()) {
            *a += *b;
        }
        self.exhausted += other.exhausted;
    }
}

/// Runs `body` under `policy`, descending one [`Rung`] per failed
/// attempt. `body` receives the rung to execute at; the helper sleeps
/// the (budget-clipped) backoff between attempts and records every
/// error and the final rung in `report`.
///
/// This is the shared engine behind the session retry loop; plain
/// [`crate::Simulator`]s can use it directly by mapping rungs ≥
/// [`Rung::ReferenceExec`] to `ExecMode::Reference`.
pub fn run_with_retry<T>(
    policy: &RetryPolicy,
    report: &mut ResilienceReport,
    body: impl FnMut(Rung) -> Result<T, SimError>,
) -> Result<T, SimError> {
    run_with_retry_from(policy, report, Rung::Configured, None, body)
}

/// [`run_with_retry`] with an explicit starting rung and an optional
/// cancellation token.
///
/// `start` seats the ladder below [`Rung::Configured`] — the server's
/// load-shedding floor ([`crate::session::AdaptiveSession::set_shed_floor`])
/// enters here. `token` composes cancellation (including deadline
/// budgets) with the retry ladder deterministically: it is consulted only
/// **between** attempts, never mid-attempt, so an in-flight attempt
/// always completes before the cancel surfaces — the same contract as
/// the frame loop's check between frames.
pub fn run_with_retry_from<T>(
    policy: &RetryPolicy,
    report: &mut ResilienceReport,
    start: Rung,
    token: Option<&CancelToken>,
    mut body: impl FnMut(Rung) -> Result<T, SimError>,
) -> Result<T, SimError> {
    let max_attempts = policy.max_attempts.max(1);
    let mut rung = start;
    let mut slept = Duration::ZERO;
    let mut attempt = 1u32;
    loop {
        match body(rung) {
            Ok(value) => {
                report.record_frame(rung);
                return Ok(value);
            }
            Err(err) => {
                report.record_error(&err);
                if attempt >= max_attempts {
                    report.exhausted += 1;
                    return Err(SimError::RetriesExhausted {
                        attempts: attempt,
                        last: Box::new(err),
                    });
                }
                if let Some(token) = token {
                    // A cancelled (or deadline-expired) request stops
                    // burning retry budget; the error says which.
                    token.checkpoint()?;
                }
                report.retries += 1;
                let nap = policy
                    .delay(attempt)
                    .min(policy.frame_budget.saturating_sub(slept));
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                    slept += nap;
                }
                rung = rung.next().unwrap_or(Rung::DirectPsf);
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_bounded() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 4);
        assert!(p.delay(1) < p.delay(2));
        assert!(p.delay(3) <= p.frame_budget);
    }

    #[test]
    fn none_policy_never_retries() {
        let mut report = ResilienceReport::default();
        let err = run_with_retry(&RetryPolicy::none(), &mut report, |_| {
            Err::<(), _>(SimError::InvalidConfig("x".into()))
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::RetriesExhausted { attempts: 1, .. }
        ));
        assert_eq!(report.retries, 0);
        assert_eq!(report.exhausted, 1);
    }

    #[test]
    fn ladder_descends_one_rung_per_failure() {
        let mut report = ResilienceReport::default();
        let mut rungs = Vec::new();
        let out = run_with_retry(
            &RetryPolicy {
                backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            &mut report,
            |rung| {
                rungs.push(rung);
                if rungs.len() < 3 {
                    Err(SimError::Gpu(gpusim::GpuError::WorkerPanic("w".into())))
                } else {
                    Ok(42)
                }
            },
        )
        .unwrap();
        assert_eq!(out, 42);
        assert_eq!(
            rungs,
            vec![Rung::Configured, Rung::SpawnDispatch, Rung::ReferenceExec]
        );
        assert_eq!(report.retries, 2);
        assert_eq!(report.panics, 2);
        assert_eq!(report.rung_frames, [0, 0, 1, 0]);
        assert_eq!(report.frames, 1);
    }

    #[test]
    fn exhaustion_wraps_the_last_error() {
        let mut report = ResilienceReport::default();
        let err = run_with_retry(
            &RetryPolicy {
                max_attempts: 2,
                backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            &mut report,
            |_| {
                Err::<(), _>(SimError::Gpu(gpusim::GpuError::LaunchTimeout {
                    deadline_ms: 30,
                }))
            },
        )
        .unwrap_err();
        match err {
            SimError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 2);
                assert!(matches!(
                    *last,
                    SimError::Gpu(gpusim::GpuError::LaunchTimeout { .. })
                ));
            }
            other => panic!("unexpected: {other}"),
        }
        assert_eq!(report.timeouts, 2);
        assert_eq!(report.exhausted, 1);
    }

    #[test]
    fn report_merge_sums_everything() {
        let mut a = ResilienceReport {
            frames: 1,
            retries: 2,
            panics: 1,
            rung_frames: [1, 0, 0, 0],
            ..Default::default()
        };
        let b = ResilienceReport {
            frames: 3,
            retries: 1,
            timeouts: 1,
            rung_frames: [2, 1, 0, 0],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.frames, 4);
        assert_eq!(a.retries, 3);
        assert_eq!(a.panics, 1);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.rung_frames, [3, 1, 0, 0]);
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(token.checkpoint().is_ok());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(matches!(token.checkpoint(), Err(SimError::Cancelled)));
        // Idempotent.
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn rung_order_and_bottom() {
        assert_eq!(Rung::Configured.next(), Some(Rung::SpawnDispatch));
        assert_eq!(Rung::DirectPsf.next(), None);
        assert_eq!(Rung::ALL.len(), 4);
        assert_eq!(Rung::DirectPsf.index(), 3);
        for rung in Rung::ALL {
            assert_eq!(Rung::from_index(rung.index()), Some(rung));
        }
        assert_eq!(Rung::from_index(4), None);
    }

    #[test]
    fn deadline_token_expires_and_reports_deadline_exceeded() {
        let token = CancelToken::with_budget(Duration::from_millis(5));
        assert!(!token.is_cancelled(), "fresh budget not yet expired");
        assert!(token.checkpoint().is_ok());
        assert!(token.remaining().is_some());
        std::thread::sleep(Duration::from_millis(10));
        assert!(token.is_cancelled(), "expired budget observes cancelled");
        assert!(token.deadline_expired());
        assert_eq!(token.remaining(), Some(Duration::ZERO));
        assert!(matches!(
            token.checkpoint(),
            Err(SimError::DeadlineExceeded)
        ));
        // An explicit cancel on top keeps the deadline diagnosis.
        token.cancel();
        assert!(matches!(token.cancel_error(), SimError::DeadlineExceeded));
    }

    #[test]
    fn deadline_is_shared_across_clones_and_clearable() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(token.deadline().is_none());
        assert!(token.remaining().is_none());
        clone.set_deadline(Some(Instant::now() - Duration::from_millis(1)));
        assert!(token.is_cancelled(), "clone's deadline is shared");
        token.set_deadline(None);
        assert!(!clone.is_cancelled(), "cleared deadline un-cancels");
        clone.cancel();
        assert!(matches!(token.cancel_error(), SimError::Cancelled));
    }

    #[test]
    fn retry_from_starts_at_the_given_rung() {
        let mut report = ResilienceReport::default();
        let mut rungs = Vec::new();
        let out = run_with_retry_from(
            &RetryPolicy {
                backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            &mut report,
            Rung::ReferenceExec,
            None,
            |rung| {
                rungs.push(rung);
                if rungs.len() < 2 {
                    Err(SimError::Gpu(gpusim::GpuError::WorkerPanic("w".into())))
                } else {
                    Ok(7)
                }
            },
        )
        .unwrap();
        assert_eq!(out, 7);
        assert_eq!(rungs, vec![Rung::ReferenceExec, Rung::DirectPsf]);
        assert_eq!(report.rung_frames, [0, 0, 0, 1]);
    }

    #[test]
    fn cancelled_token_stops_the_retry_ladder_between_attempts() {
        let token = CancelToken::new();
        let mut report = ResilienceReport::default();
        let mut attempts = 0u32;
        let err = run_with_retry_from(
            &RetryPolicy {
                backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            &mut report,
            Rung::Configured,
            Some(&token),
            |_| {
                attempts += 1;
                token.cancel(); // cancel lands mid-attempt ...
                Err::<(), _>(SimError::Gpu(gpusim::GpuError::WorkerPanic("w".into())))
            },
        )
        .unwrap_err();
        // ... and surfaces at the between-attempt checkpoint: exactly one
        // attempt ran, no retry was spent.
        assert_eq!(attempts, 1);
        assert!(matches!(err, SimError::Cancelled), "got {err}");
        assert_eq!(report.retries, 0);
    }
}
