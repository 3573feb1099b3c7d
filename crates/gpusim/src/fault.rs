//! Deterministic fault injection for the virtual GPU.
//!
//! A production frame service sees worker panics, wedged threads, allocation
//! failures, and corrupted transfers as routine events; testing the recovery
//! paths demands faults that arrive at *reproducible* coordinates. A
//! [`FaultPlan`] is a seeded list of [`FaultSpec`]s, each naming a launch
//! index, a lane, and a [`FaultKind`]; the executor consults the plan at
//! well-defined points (launch entry, uploads, downloads, texture binds)
//! and consumes matching specs one-shot. Two runs with the same plan see
//! the same faults at the same places.
//!
//! ## Launch coordinates
//!
//! The plan carries a monotone *launch counter* advanced by
//! [`FaultPlan::arm`] at every kernel-launch entry. Operations are mapped
//! onto it as follows:
//!
//! * in-launch faults (panics, stuck lanes) fire during
//!   the launch whose index equals `spec.launch`;
//! * allocation faults fire during the first upload consult at or after
//!   that launch (the counter has not advanced yet —
//!   [`FaultPlan::upcoming_launch`]; on a lone device that consults
//!   before every launch, this is the upload *preceding* the launch), so
//!   devices sharing one plan that both consult before either launches
//!   cannot carry the counter past the spec ([`FaultPlan::take_due`]);
//! * transfer faults fire during the downloads *following* it on the
//!   device that armed it (each device remembers the launch it last
//!   armed, so devices sharing one plan cannot move each other's
//!   download coordinate; on a lone device this is
//!   [`FaultPlan::completed_launch`]);
//! * texture-bind faults are consumed by the next bind call regardless of
//!   the launch coordinate (binds happen at session setup, before any
//!   launch).
//!
//! The plan is intentionally cheap when empty: a device built
//! [`crate::VirtualGpu::with_fault_plan`]`(FaultPlan::none())` performs one
//! atomic increment per launch and skips transfer verification entirely
//! (see [`FaultPlan::verify_transfers`]), so chaos plumbing can stay
//! compiled in without a measurable throughput cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The injectable fault taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A worker body panics mid-generation (on the SM named by `lane`).
    WorkerPanic,
    /// A pool lane stalls at a generation boundary long enough to trip the
    /// launch watchdog. Requires pooled dispatch with ≥ 2 lanes; inert
    /// under spawn dispatch or on a 1-lane pool.
    StuckLane,
    /// A device allocation (star upload) reports out-of-memory.
    AllocOom,
    /// A device→host transfer flips one bit; the per-chunk checksum added
    /// by the verified download path must catch it.
    TransferCorrupt,
    /// A texture bind call fails.
    TextureBindFail,
}

impl FaultKind {
    /// Every kind, in a fixed order (used by seeded plan generation).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::WorkerPanic,
        FaultKind::StuckLane,
        FaultKind::AllocOom,
        FaultKind::TransferCorrupt,
        FaultKind::TextureBindFail,
    ];
}

/// One planned fault: *what* happens *where*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Launch index the fault is bound to (see the module docs for how
    /// uploads and downloads map onto launch indices).
    pub launch: u64,
    /// Lane / SM / chunk coordinate, interpreted per kind and reduced
    /// modulo the valid range at injection time.
    pub lane: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// The faults of one launch, pre-resolved at launch entry so the hot
/// dispatch loops check plain fields instead of taking the plan lock.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArmedFaults {
    /// This launch's index.
    pub launch: u64,
    /// Panic when the worker processing this SM reaches it.
    pub panic_sm: Option<usize>,
    /// Stall this pool lane (raw coordinate; the executor normalizes it to
    /// a worker lane) for [`ArmedFaults::stall`] at the generation start.
    pub stall_lane: Option<usize>,
    /// Stall duration for a [`FaultKind::StuckLane`] fault.
    pub stall: Duration,
}

/// A deterministic, seeded schedule of injected faults.
///
/// Thread-safe; shared with a device via
/// [`crate::VirtualGpu::with_fault_plan`]. Specs are consumed one-shot:
/// once a fault has fired it never fires again, so a bounded retry always
/// converges on the fault-free result.
#[derive(Debug)]
pub struct FaultPlan {
    faults: Mutex<Vec<FaultSpec>>,
    /// Next launch index; advanced by [`Self::arm`].
    next_launch: AtomicU64,
    injected: AtomicU64,
    stall: Duration,
    verify_transfers: bool,
}

/// Default stall length of a stuck lane: long enough to trip any sane
/// watchdog deadline, short enough for tests.
const DEFAULT_STALL: Duration = Duration::from_millis(150);

impl FaultPlan {
    /// A plan that injects nothing. Downloads skip verification, so the
    /// steady-state overhead is one atomic increment per launch.
    pub fn none() -> Self {
        Self::from_specs(Vec::new())
    }

    /// A plan with exactly one fault.
    pub fn single(kind: FaultKind, launch: u64, lane: usize) -> Self {
        Self::from_specs(vec![FaultSpec { launch, lane, kind }])
    }

    /// A plan from explicit specs.
    pub fn from_specs(faults: Vec<FaultSpec>) -> Self {
        let verify_transfers = faults.iter().any(|f| f.kind == FaultKind::TransferCorrupt);
        FaultPlan {
            faults: Mutex::new(faults),
            next_launch: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            stall: DEFAULT_STALL,
            verify_transfers,
        }
    }

    /// A seeded plan with one fault of every kind, spread over the first
    /// `launches` launch indices (clamped up to 20 — five stride-4 slots —
    /// so the spacing guarantee below always holds).
    ///
    /// Faults are spaced at least two launches apart: each kind gets its
    /// own stride-4 slot and lands in that slot's first three indices, so
    /// consecutive faults are ≥ 2 apart. A fault therefore costs at most
    /// one retried frame — the retry shifts later launch indices by one,
    /// which cannot catch up with the spacing — and a retried frame stays
    /// on the bit-identical rungs of the degradation ladder. Same seed ⇒
    /// same plan, bit for bit.
    pub fn seeded(seed: u64, launches: u64) -> Self {
        let mut state = seed;
        let mut next = || -> u64 {
            // SplitMix64: the workspace's standard generator (see the
            // `starsim-rng` crate); inlined to keep this crate std-only.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        const STRIDE: u64 = 4;
        let kinds = FaultKind::ALL;
        // Every kind needs its own slot for the ≥2 spacing guarantee, so a
        // denser request is clamped up rather than allowed to stack faults.
        let span = (launches / STRIDE).max(kinds.len() as u64);
        let mut faults = Vec::with_capacity(kinds.len());
        for (i, &kind) in kinds.iter().enumerate() {
            faults.push(FaultSpec {
                // Stratified: fault i lands in its own stride-aligned slot,
                // in the slot's first STRIDE-1 indices (spacing ≥ 2).
                launch: (i as u64 % span) * STRIDE + next() % (STRIDE - 1),
                lane: (next() % 16) as usize,
                kind,
            });
        }
        Self::from_specs(faults)
    }

    /// Overrides the stuck-lane stall duration (default 150 ms).
    pub fn with_stall(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    /// Whether downloads through this plan's device verify per-chunk
    /// checksums (true iff the plan was created with any
    /// [`FaultKind::TransferCorrupt`] spec).
    pub fn verify_transfers(&self) -> bool {
        self.verify_transfers
    }

    /// Advances the launch counter and resolves this launch's in-launch
    /// faults. Called by the executor at launch entry.
    pub fn arm(&self) -> ArmedFaults {
        let launch = self.next_launch.fetch_add(1, Ordering::Relaxed);
        let mut armed = ArmedFaults {
            launch,
            stall: self.stall,
            ..ArmedFaults::default()
        };
        if let Some(spec) = self.take(FaultKind::WorkerPanic, launch) {
            armed.panic_sm = Some(spec.lane);
        }
        if let Some(spec) = self.take(FaultKind::StuckLane, launch) {
            armed.stall_lane = Some(spec.lane);
        }
        armed
    }

    /// The launch index the next [`Self::arm`] will return — the coordinate
    /// pre-launch operations (uploads, allocations) bind to.
    pub fn upcoming_launch(&self) -> u64 {
        self.next_launch.load(Ordering::Relaxed)
    }

    /// The most recently armed launch index, across every device sharing
    /// the plan. Downloads bind to the launch their own device last armed,
    /// which equals this on a lone device. `None` before the first launch.
    pub fn completed_launch(&self) -> Option<u64> {
        self.next_launch.load(Ordering::Relaxed).checked_sub(1)
    }

    /// Consumes the first spec matching `(kind, launch)`, if any.
    pub fn take(&self, kind: FaultKind, launch: u64) -> Option<FaultSpec> {
        self.take_first(|f| f.kind == kind && f.launch == launch)
    }

    /// Consumes the first spec of `kind` bound to `launch` or earlier. A
    /// consult that comes after launches on other devices sharing the plan
    /// still fires the spec those launches passed over.
    pub fn take_due(&self, kind: FaultKind, launch: u64) -> Option<FaultSpec> {
        self.take_first(|f| f.kind == kind && f.launch <= launch)
    }

    fn take_first(&self, matches: impl Fn(&FaultSpec) -> bool) -> Option<FaultSpec> {
        let mut faults = self.faults.lock().unwrap_or_else(|e| e.into_inner());
        let pos = faults.iter().position(matches)?;
        let spec = faults.remove(pos);
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(spec)
    }

    /// Faults injected (consumed) so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Faults still pending.
    pub fn remaining(&self) -> usize {
        self.faults.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_empty_and_skips_verification() {
        let plan = FaultPlan::none();
        assert_eq!(plan.remaining(), 0);
        assert!(!plan.verify_transfers());
        let armed = plan.arm();
        assert_eq!(armed.launch, 0);
        assert!(armed.panic_sm.is_none() && armed.stall_lane.is_none());
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn single_fault_fires_once_at_its_launch() {
        let plan = FaultPlan::single(FaultKind::WorkerPanic, 2, 5);
        assert!(plan.arm().panic_sm.is_none(), "launch 0 clean");
        assert!(plan.arm().panic_sm.is_none(), "launch 1 clean");
        assert_eq!(plan.arm().panic_sm, Some(5), "launch 2 faulted");
        assert!(plan.arm().panic_sm.is_none(), "one-shot: launch 3 clean");
        assert_eq!(plan.injected(), 1);
        assert_eq!(plan.remaining(), 0);
    }

    #[test]
    fn launch_coordinates_for_pre_and_post_ops() {
        let plan = FaultPlan::from_specs(vec![
            FaultSpec {
                launch: 1,
                lane: 0,
                kind: FaultKind::AllocOom,
            },
            FaultSpec {
                launch: 1,
                lane: 3,
                kind: FaultKind::TransferCorrupt,
            },
        ]);
        assert!(plan.verify_transfers());
        assert_eq!(plan.upcoming_launch(), 0);
        assert_eq!(plan.completed_launch(), None);
        // Launch 0: uploads see upcoming 0 (no match), launch runs,
        // downloads see completed 0 (no match).
        assert!(plan
            .take(FaultKind::AllocOom, plan.upcoming_launch())
            .is_none());
        let _ = plan.arm();
        assert!(plan
            .take(FaultKind::TransferCorrupt, plan.completed_launch().unwrap())
            .is_none());
        // Launch 1: both coordinates match.
        assert!(plan
            .take(FaultKind::AllocOom, plan.upcoming_launch())
            .is_some());
        let _ = plan.arm();
        assert!(plan
            .take(FaultKind::TransferCorrupt, plan.completed_launch().unwrap())
            .is_some());
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_every_kind() {
        let a = FaultPlan::seeded(7, 24);
        let b = FaultPlan::seeded(7, 24);
        let specs = |p: &FaultPlan| p.faults.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert_eq!(specs(&a), specs(&b), "same seed, same plan");
        let c = FaultPlan::seeded(8, 24);
        assert_ne!(specs(&a), specs(&c), "different seed, different plan");
        for kind in FaultKind::ALL {
            assert!(specs(&a).iter().any(|f| f.kind == kind), "missing {kind:?}");
        }
        assert!(specs(&a).iter().all(|f| f.launch < 24));
    }

    #[test]
    fn seeded_faults_are_spaced_a_retry_apart() {
        let plan = FaultPlan::seeded(3, 64);
        let mut launches: Vec<u64> = plan
            .faults
            .lock()
            .unwrap()
            .iter()
            .map(|f| f.launch)
            .collect();
        launches.sort_unstable();
        for w in launches.windows(2) {
            assert!(w[1] - w[0] >= 2, "faults {w:?} too close to retry safely");
        }
    }
}
