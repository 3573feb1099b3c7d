//! A persistent worker pool that runs thread blocks across worker threads
//! ("virtual SMs").
//!
//! We deliberately do not depend on rayon: the executor wants explicit
//! control of how blocks map onto workers (each worker plays one SM for the
//! timing model), and the work shape is trivially regular — an atomic
//! chunk-claiming loop over a dense index range is the textbook solution
//! (*Rust Atomics and Locks*, ch. 1/2) and is exactly how a GPU's global
//! work distributor hands blocks to SMs.
//!
//! PR 1 spawned a fresh scope of OS threads per `parallel_for` call; at
//! frame rates that fixed cost dominates, so [`WorkerPool`] keeps the
//! threads alive across launches, parked on a condvar. A launch publishes a
//! *generation*: a type-erased job pointer plus a lane count, guarded by a
//! generation counter. Workers wake, run their lanes, and park again; the
//! launching thread participates as lane 0 so a pool of `n` lanes spawns
//! only `n − 1` threads (and a 1-lane pool spawns none at all).
//!
//! ## Determinism contract
//!
//! The *role* an index maps to is a pure function of `(count, workers)`,
//! never of the pool's thread count. When a caller asks for more workers
//! than the pool has lanes, lane `l` plays roles `l, l + lanes,
//! l + 2·lanes, …` — each role still visits its indices in ascending
//! order, so the batched executor's per-SM counter pass and its
//! worker-order counter merge see exactly the index → worker mapping the
//! scoped implementation produced, on any machine.
//!
//! ## Work stealing
//!
//! The static stride above can go ragged: with more roles than lanes, a
//! lane stuck with two heavy roles serializes them while its neighbours
//! idle. [`WorkerPool::parallel_for_static_stealing_guarded`] keeps the
//! *same* index → worker mapping (each role is still executed whole, its
//! indices ascending, by exactly one lane) but lets idle lanes claim the
//! next unplayed role from a shared atomic counter instead of a fixed
//! stride — which lane runs a role changes, what the role does never
//! does, so per-role side effects stay deterministic. The counter lives
//! on the launching stack like the job pointer, so lanes only touch it
//! inside the same BUSY fence window that guards the task dereference.
//!
//! ## Panics and nesting
//!
//! A panic in a worker body is caught, the generation is allowed to finish
//! on the remaining lanes, and the panic resumes on the launching thread —
//! the pool itself stays parked and reusable. Nested calls from inside a
//! worker body run inline on that worker (no second generation is
//! published), which cannot deadlock.
//!
//! ## Watchdog and abandonment
//!
//! `WorkerPool::run_guarded` accepts a deadline; if worker lanes have not
//! finished the generation by then, the launching thread *abandons* it and
//! returns [`PoolTimeout`] instead of blocking forever. Abandonment must be
//! sound against the lifetime-erased job pointer (it borrows the launching
//! stack frame), so each lane moves through a tiny fence state machine:
//! before dereferencing the job for a role it CASes its lane slot
//! `IDLE → BUSY`, and back `BUSY → IDLE` after. The watchdog abandons by
//! CASing `IDLE → FENCED` on every worker lane: a fenced lane wakes, fails
//! its `IDLE → BUSY` CAS, and parks without ever touching the dangling
//! pointer. A lane observed `BUSY` is *inside* kernel code and cannot be
//! fenced — the watchdog keeps waiting until it reaches a role boundary
//! (a truly wedged kernel body therefore still hangs the launch, exactly
//! as a scoped join would; the injectable stalls used for chaos testing
//! happen at the generation boundary, where fencing always succeeds).
//! After a timeout the pool is *poisoned*: abandoned lanes may still be
//! draining, so no further generation is published — `WorkerPool::run`
//! falls back to inline execution and the owner is expected to drop and
//! rebuild the pool (joining the stragglers) before the next launch.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::telemetry::{now_us, EventRing, LaneEvent, LaneEventKind};

/// Lane fence states (see the module docs on abandonment).
const LANE_IDLE: u8 = 0;
const LANE_BUSY: u8 = 1;
const LANE_FENCED: u8 = 2;

/// Per-lane telemetry ring capacity. A launch produces 2–3 events per
/// lane and the rings are drained once per launch, so this is ample; a
/// burst beyond it drops events (counted) rather than growing.
const RING_CAPACITY: usize = 128;

/// A guarded dispatch exceeded its watchdog deadline; the generation was
/// abandoned and the pool poisoned (see [`WorkerPool::poisoned`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolTimeout {
    /// The deadline that expired.
    pub deadline: Duration,
}

thread_local! {
    /// Set while this thread is executing a pool lane (worker or caller).
    /// Nested dispatch from such a thread runs inline.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The job of one generation: a borrowed task run once per role.
///
/// The pointer is type-erased from the launching stack frame; it is only
/// dereferenced while [`WorkerPool::run`] blocks on the generation, which
/// keeps the borrow alive.
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    /// Lanes participating in this generation (≤ pool lanes).
    lanes: usize,
    /// Roles to play; lane `l` plays `l, l + lanes, …` below this (static
    /// stride), unless `next_role` selects work stealing.
    roles: usize,
    /// Work-stealing role counter on the launching stack frame; null for
    /// the static strided schedule. Dereferenced only inside the BUSY
    /// fence window — the same liveness argument as `task`.
    next_role: *const AtomicUsize,
    /// Injected fault: `(lane, duration)` sleeps that worker lane at the
    /// generation boundary, before it claims any role (chaos testing).
    stall: Option<(usize, Duration)>,
}

// SAFETY: the task pointer is only dereferenced by participant lanes while
// the launching thread blocks in `run`, which owns the original `&dyn Fn`
// borrow; the pointee is `Sync`, so shared calls from many threads are fine.
unsafe impl Send for Job {}

#[derive(Default)]
struct PoolState {
    generation: u64,
    job: Option<Job>,
    /// Worker lanes still to finish the current generation.
    outstanding: usize,
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
    shutdown: bool,
    /// Set when a generation was abandoned on timeout: stragglers may still
    /// be draining, so no further generation may be published.
    poisoned: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    /// Workers park here waiting for the next generation.
    work: Condvar,
    /// The launching thread parks here waiting for `outstanding == 0`.
    done: Condvar,
    /// Serializes launches from different threads (same-thread reentry runs
    /// inline and never reaches this lock).
    launch: Mutex<()>,
    /// Per-lane fence slots for watchdog abandonment (index 0 unused: lane
    /// 0 is the launching thread, which runs the watchdog itself).
    lane_state: Vec<AtomicU8>,
    /// Per-lane telemetry event rings, recorded only while `telemetry`
    /// is set and drained between launches (see [`WorkerPool::drain_events`]).
    rings: Vec<EventRing>,
    /// Gates all event recording: a single relaxed load on the hot path
    /// when telemetry is off.
    telemetry: AtomicBool,
}

impl PoolInner {
    /// Records one lane event if telemetry is enabled. Hot-path cost when
    /// disabled: one relaxed atomic load.
    fn record(&self, lane: usize, generation: u64, kind: LaneEventKind) {
        if !self.telemetry.load(Ordering::Relaxed) {
            return;
        }
        if let Some(ring) = self.rings.get(lane) {
            ring.push(LaneEvent {
                t_us: now_us(),
                lane: lane.min(u8::MAX as usize) as u8,
                generation: (generation & 0xFFF) as u16,
                kind,
            });
        }
    }
}

/// A persistent pool of parked worker threads, one per virtual SM.
///
/// Threads are spawned lazily on the first multi-lane dispatch and joined
/// on drop. The launching thread always participates as lane 0.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    lanes: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("lanes", &self.lanes)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// A pool with `lanes` parallel lanes (clamped to ≥ 1). A 1-lane pool
    /// never spawns threads; an `n`-lane pool spawns `n − 1` on first use.
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        WorkerPool {
            inner: Arc::new(PoolInner {
                state: Mutex::new(PoolState::default()),
                work: Condvar::new(),
                done: Condvar::new(),
                launch: Mutex::new(()),
                lane_state: (0..lanes).map(|_| AtomicU8::new(LANE_IDLE)).collect(),
                rings: (0..lanes).map(|_| EventRing::new(RING_CAPACITY)).collect(),
                telemetry: AtomicBool::new(false),
            }),
            lanes,
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Maximum parallel lanes (including the launching thread).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Enables or disables per-lane event recording. Off by default; when
    /// off the only hot-path cost is one relaxed atomic load per event
    /// site.
    pub fn set_telemetry(&self, enabled: bool) {
        self.inner.telemetry.store(enabled, Ordering::Relaxed);
    }

    /// Whether per-lane event recording is enabled.
    pub fn telemetry_enabled(&self) -> bool {
        self.inner.telemetry.load(Ordering::Relaxed)
    }

    /// Drains every lane's event ring into `out` (unsorted across lanes).
    ///
    /// Must be called between launches: the launch lock is held by the
    /// dispatching thread and every lane is parked, so no writer races
    /// the drain (the pool state mutex hand-off provides the
    /// happens-before edge for the lanes' final events).
    pub fn drain_events(&self, out: &mut Vec<LaneEvent>) {
        for ring in &self.inner.rings {
            ring.drain_into(out);
        }
    }

    /// Cumulative events dropped across all lane rings (ring overflow).
    pub fn events_dropped(&self) -> u64 {
        self.inner.rings.iter().map(|r| r.dropped()).sum()
    }

    /// Whether a guarded dispatch abandoned a generation on timeout. A
    /// poisoned pool runs everything inline (correct but serial); the owner
    /// should drop and rebuild it to restore parallel dispatch.
    pub fn poisoned(&self) -> bool {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .poisoned
    }

    /// Runs `task(role)` for every role in `0..roles`, spreading roles over
    /// the pool's lanes (lane `l` plays roles `l, l + lanes, …`, each in
    /// ascending order). Blocks until every role has run.
    fn run(&self, roles: usize, task: &(dyn Fn(usize) + Sync)) {
        // Infallible: without a deadline the wait can only end in
        // completion, so the Err arm is unreachable.
        let _ = self.run_guarded(roles, None, None, false, task);
    }

    /// [`Self::run`] with an optional watchdog `deadline`, an optional
    /// injected `stall` (chaos testing; see [`Job::stall`]), and an
    /// optional work-stealing schedule (see the module docs).
    ///
    /// With a deadline, a generation whose worker lanes do not finish in
    /// time is abandoned: every unfinished lane is fenced at its next role
    /// boundary, the pool is poisoned, and `Err(PoolTimeout)` is returned.
    /// The launching thread's own lane 0 always runs to completion first —
    /// the watchdog starts after it, so the effective deadline is measured
    /// from the end of lane 0's roles.
    ///
    /// Inline paths (1 effective lane, nested dispatch, poisoned pool)
    /// ignore both the deadline and the stall and always return `Ok`.
    fn run_guarded(
        &self,
        roles: usize,
        deadline: Option<Duration>,
        stall: Option<(usize, Duration)>,
        steal: bool,
        task: &(dyn Fn(usize) + Sync),
    ) -> Result<(), PoolTimeout> {
        if roles == 0 {
            return Ok(());
        }
        let lanes = self.lanes.min(roles);
        if lanes == 1 || IN_POOL.get() || self.poisoned() {
            // Single lane, nested dispatch from inside a pool lane, or a
            // poisoned pool (stragglers may still be draining — publishing
            // would corrupt the generation bookkeeping): play every role
            // inline, in order.
            for role in 0..roles {
                task(role);
            }
            return Ok(());
        }
        self.ensure_threads();

        let _launch = self.inner.launch.lock().unwrap_or_else(|e| e.into_inner());
        // Lifetime erasure: `run` does not return until every participant
        // lane has finished the generation, so the borrow the pointer was
        // made from outlives every dereference (see `Job`'s safety note).
        fn erase<'a>(
            task: &'a (dyn Fn(usize) + Sync + 'a),
        ) -> *const (dyn Fn(usize) + Sync + 'static) {
            // SAFETY: only widens the trait object's lifetime bound; the
            // pointer layout is unchanged and callers uphold the liveness
            // contract above.
            unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + 'a),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(task)
            }
        }
        let next_role = AtomicUsize::new(0);
        let job = Job {
            task: erase(task),
            lanes,
            roles,
            next_role: if steal { &next_role } else { std::ptr::null() },
            // Lane 0 is the launching thread (it runs the watchdog), so a
            // stall can only target a worker lane. A stall armed for a lane
            // beyond this dispatch's width (the pool may have fewer lanes
            // than the caller has workers) is remapped into the
            // participating worker lanes instead of silently dropped —
            // chaos schedules must fire regardless of the host's core
            // count.
            stall: stall
                .and_then(|(l, d)| (l >= 1 && lanes >= 2).then(|| (1 + (l - 1) % (lanes - 1), d))),
        };
        let generation;
        {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            // Reset fences for the participating lanes. Publishing is only
            // reached when the previous generation fully completed (a
            // poisoned pool runs inline above), so no straggler can observe
            // the reset.
            for slot in &self.inner.lane_state[..lanes] {
                slot.store(LANE_IDLE, Ordering::SeqCst);
            }
            st.job = Some(job);
            st.outstanding = lanes - 1;
            st.generation = st.generation.wrapping_add(1);
            generation = st.generation;
            self.inner.work.notify_all();
        }
        // Lane 0 is the launcher: one Launch event marks the publish.
        self.inner.record(0, generation, LaneEventKind::Launch);

        // Lane 0 runs on the launching thread. It owns the steal counter's
        // allocation, so it claims from it directly — no fence needed.
        IN_POOL.set(true);
        let lane0 = catch_unwind(AssertUnwindSafe(|| {
            if steal {
                loop {
                    let role = next_role.fetch_add(1, Ordering::Relaxed);
                    if role >= roles {
                        break;
                    }
                    task(role);
                }
            } else {
                let mut role = 0;
                while role < roles {
                    task(role);
                    role += lanes;
                }
            }
        }));
        IN_POOL.set(false);

        let outcome = self.await_generation(lanes, deadline);
        if let Err(p) = lane0 {
            resume_unwind(p);
        }
        match outcome {
            Ok(Some(p)) => resume_unwind(p),
            Ok(None) => Ok(()),
            Err(t) => Err(t),
        }
    }

    /// Waits for the worker lanes of the current generation, enforcing the
    /// watchdog deadline. Returns a worker panic payload on clean
    /// completion, or `Err` after abandoning the generation.
    #[allow(clippy::type_complexity)]
    fn await_generation(
        &self,
        lanes: usize,
        deadline: Option<Duration>,
    ) -> Result<Option<Box<dyn std::any::Any + Send + 'static>>, PoolTimeout> {
        let inner = &self.inner;
        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        let Some(deadline) = deadline else {
            while st.outstanding > 0 {
                st = inner.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.job = None;
            return Ok(st.panic.take());
        };

        let start = Instant::now();
        let mut fenced_any = false;
        loop {
            if st.outstanding == 0 && !fenced_any {
                // Clean completion: no lane was ever fenced, so every role
                // ran.
                st.job = None;
                return Ok(st.panic.take());
            }
            match deadline.checked_sub(start.elapsed()) {
                Some(remaining) if !fenced_any => {
                    let (guard, _) = inner
                        .done
                        .wait_timeout(st, remaining)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
                _ => {
                    // Deadline expired: abandon the generation. Fence every
                    // worker lane at its next role boundary; a lane observed
                    // BUSY is inside kernel code and cannot be abandoned
                    // soundly — keep waiting for it. Once a lane has been
                    // fenced we are committed to the timeout: its remaining
                    // roles are lost, so the generation can never be
                    // reported as complete.
                    let mut all_fenced = true;
                    for slot in &inner.lane_state[1..lanes] {
                        match slot.compare_exchange(
                            LANE_IDLE,
                            LANE_FENCED,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        ) {
                            Ok(_) => fenced_any = true,
                            Err(LANE_FENCED) => {}
                            Err(_) => all_fenced = false,
                        }
                    }
                    if all_fenced {
                        st.poisoned = true;
                        st.job = None;
                        // Timeout takes precedence over any partial panic.
                        st.panic = None;
                        return Err(PoolTimeout { deadline });
                    }
                    let (guard, _) = inner
                        .done
                        .wait_timeout(st, Duration::from_millis(1))
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        }
    }

    /// Spawns the worker threads if they are not running yet.
    fn ensure_threads(&self) {
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        if !handles.is_empty() {
            return;
        }
        for lane in 1..self.lanes {
            let inner = Arc::clone(&self.inner);
            let handle = std::thread::Builder::new()
                .name(format!("gpusim-sm-{lane}"))
                .spawn(move || worker_loop(lane, &inner))
                .expect("failed to spawn pool worker");
            handles.push(handle);
        }
    }

    /// Runs `body(index, worker_id)` for every index in `0..count`,
    /// distributing chunks of `chunk` indices dynamically over `workers`
    /// claimant roles.
    ///
    /// `body` must be `Sync` (shared by reference across workers). The call
    /// blocks until every index has been processed. Panics in `body`
    /// propagate after all workers stop claiming work.
    ///
    /// With `workers == 1` (or `count <= chunk`) the loop runs inline on
    /// the caller's thread.
    pub fn parallel_for<F>(&self, count: usize, workers: usize, chunk: usize, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let workers = workers.max(1);
        let chunk = chunk.max(1);
        if count == 0 {
            return;
        }
        if workers == 1 || count <= chunk {
            for i in 0..count {
                body(i, 0);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        self.run(workers, &|worker_id| loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= count {
                break;
            }
            let end = (start + chunk).min(count);
            for i in start..end {
                body(i, worker_id);
            }
        });
    }

    /// Runs `body(index, worker_id)` for every index in `0..count` with a
    /// *static* assignment: worker `w` processes indices `w, w + workers,
    /// w + 2·workers, …` in ascending order.
    ///
    /// Unlike [`Self::parallel_for`], the index → worker mapping is a pure
    /// function of `(count, workers)` — independent of the pool's lane
    /// count — so per-worker side effects (e.g. the batched executor's
    /// private accumulation buffers) are reproducible run to run and
    /// machine to machine for a fixed worker count. With `workers == 1`
    /// the loop runs inline.
    pub fn parallel_for_static<F>(&self, count: usize, workers: usize, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let workers = workers.max(1).min(count.max(1));
        if count == 0 {
            return;
        }
        if workers == 1 {
            for i in 0..count {
                body(i, 0);
            }
            return;
        }
        self.run(workers, &|worker_id| {
            let mut i = worker_id;
            while i < count {
                body(i, worker_id);
                i += workers;
            }
        });
    }

    /// [`Self::parallel_for_static`] with a watchdog `deadline`, an
    /// optional injected `stall` (see `run_guarded`), and work
    /// stealing between idle lanes: the index → worker mapping and per-role
    /// ascending order are identical (each role is still one worker's whole
    /// stride, executed by exactly one lane), but roles are claimed from a
    /// shared counter instead of assigned `lane, lane + lanes, …` — so a
    /// ragged batch (one heavy role among light ones) no longer serializes
    /// two heavy roles on one lane while the others idle. Deterministic
    /// side effects are preserved because they key on the role
    /// (`worker_id`), never on the executing lane. A timeout abandons the
    /// generation, so the caller must treat the work as not done.
    pub fn parallel_for_static_stealing_guarded<F>(
        &self,
        count: usize,
        workers: usize,
        deadline: Option<Duration>,
        stall: Option<(usize, Duration)>,
        body: F,
    ) -> Result<(), PoolTimeout>
    where
        F: Fn(usize, usize) + Sync,
    {
        let workers = workers.max(1).min(count.max(1));
        if count == 0 {
            return Ok(());
        }
        if workers == 1 {
            for i in 0..count {
                body(i, 0);
            }
            return Ok(());
        }
        self.run_guarded(workers, deadline, stall, true, &|worker_id| {
            let mut i = worker_id;
            while i < count {
                body(i, worker_id);
                i += workers;
            }
        })
    }

    /// Splits `data` into consecutive chunks of `chunk` elements (the last
    /// may be short) and runs `body(chunk_index, chunk_slice)` for each,
    /// spreading chunks over `workers` roles.
    ///
    /// This is the safe façade over the one `unsafe` trick the pool needs:
    /// handing each worker a `&mut` sub-slice of the same allocation. The
    /// chunks are disjoint by construction and [`Self::parallel_for`]
    /// visits every index exactly once, so no element is aliased.
    pub fn parallel_fill_chunks<T, F>(&self, data: &mut [T], chunk: usize, workers: usize, body: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        let n_chunks = data.len().div_ceil(chunk);
        let len = data.len();
        let base = SlicePtr(data.as_mut_ptr());
        let base = &base; // capture the Sync wrapper, not the raw pointer field
        self.parallel_for(n_chunks, workers, 1, |c, _| {
            let start = c * chunk;
            let end = (start + chunk).min(len);
            // SAFETY: chunks [start, end) are pairwise disjoint across
            // distinct `c`, each `c` is visited exactly once, and `data` is
            // exclusively borrowed for the duration of the call.
            let slice = unsafe { std::slice::from_raw_parts_mut(base.0.add(start), end - start) };
            body(c, slice);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.inner.work.notify_all();
        }
        for handle in self
            .handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

/// The parked worker: waits for a generation it participates in, plays its
/// roles, reports completion, parks again.
fn worker_loop(lane: usize, inner: &PoolInner) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    match st.job {
                        // Participate only when this lane is in range;
                        // otherwise the generation is acknowledged and the
                        // worker keeps parking.
                        Some(job) if lane < job.lanes => break job,
                        _ => {}
                    }
                }
                st = inner.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };

        inner.record(lane, seen, LaneEventKind::Wake);

        // Injected stall (chaos testing): sleep at the generation boundary,
        // before claiming any role. The lane is IDLE throughout, so the
        // watchdog can fence it and return without waiting out the sleep.
        if let Some((stall_lane, dur)) = job.stall {
            if stall_lane == lane {
                inner.record(lane, seen, LaneEventKind::Stall);
                std::thread::sleep(dur);
            }
        }

        IN_POOL.set(true);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let fence = &inner.lane_state[lane];
            let mut next_static = lane;
            loop {
                if fence
                    .compare_exchange(LANE_IDLE, LANE_BUSY, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
                {
                    // Fenced: the generation was abandoned on timeout and
                    // the job pointer may dangle. Stop without touching it.
                    inner.record(lane, seen, LaneEventKind::Fenced);
                    break;
                }
                // SAFETY: see `Job`: the launching thread keeps the pointee
                // (and, in steal mode, the role counter next to it) alive
                // until the generation completes or is abandoned, and
                // abandonment only proceeds once this lane is fenced —
                // which the BUSY fence state just excluded for the
                // duration of this role.
                let role = if job.next_role.is_null() {
                    next_static
                } else {
                    unsafe { &*job.next_role }.fetch_add(1, Ordering::Relaxed)
                };
                if role >= job.roles {
                    let _ = fence.compare_exchange(
                        LANE_BUSY,
                        LANE_IDLE,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    break;
                }
                // SAFETY: see above.
                let task = unsafe { &*job.task };
                task(role);
                if fence
                    .compare_exchange(LANE_BUSY, LANE_IDLE, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
                {
                    inner.record(lane, seen, LaneEventKind::Fenced);
                    break;
                }
                next_static += job.lanes;
            }
        }));
        IN_POOL.set(false);
        if result.is_err() {
            inner.record(lane, seen, LaneEventKind::Panic);
        }
        inner.record(lane, seen, LaneEventKind::Park);

        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(p) = result {
            // First panic wins; later ones (if any) are dropped, matching
            // what a scoped spawn-and-join would surface.
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.outstanding -= 1;
        if st.outstanding == 0 {
            inner.done.notify_one();
        }
    }
}

/// The process-wide pool behind the free-function façades, sized one lane
/// per host core. Device-owned pools (see `VirtualGpu`) are separate.
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| WorkerPool::new(default_workers()))
}

/// [`WorkerPool::parallel_for`] on the process-wide [`global`] pool.
pub fn parallel_for<F>(count: usize, workers: usize, chunk: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    global().parallel_for(count, workers, chunk, body);
}

/// [`WorkerPool::parallel_for_static`] on the process-wide [`global`] pool.
pub fn parallel_for_static<F>(count: usize, workers: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    global().parallel_for_static(count, workers, body);
}

/// [`WorkerPool::parallel_fill_chunks`] on the process-wide [`global`] pool.
pub fn parallel_fill_chunks<T, F>(data: &mut [T], chunk: usize, workers: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    global().parallel_fill_chunks(data, chunk, workers, body);
}

/// Per-call spawn dispatch twin of [`parallel_for_static`]: identical
/// index → worker mapping, fresh OS threads per call. The executor uses it
/// only on the degradation ladder's first rung (`VirtualGpu::
/// set_dispatch_override`), where it survives a poisoned or rebuilt pool.
pub fn spawn_parallel_for_static<F>(count: usize, workers: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    let workers = workers.max(1).min(count.max(1));
    if count == 0 {
        return;
    }
    if workers == 1 {
        for i in 0..count {
            body(i, 0);
        }
        return;
    }
    std::thread::scope(|s| {
        for worker_id in 0..workers {
            let body = &body;
            s.spawn(move || {
                let mut i = worker_id;
                while i < count {
                    body(i, worker_id);
                    i += workers;
                }
            });
        }
    });
}

/// Raw base pointer wrapper so the closure can be `Sync`. Disjointness of
/// the per-chunk slices is what actually makes the access sound.
struct SlicePtr<T>(*mut T);
// SAFETY: shared across lanes only inside `parallel_for_slices`, where each
// lane derives a slice from a chunk range no other lane touches; `T: Send`
// makes handing those disjoint elements to other threads sound.
unsafe impl<T: Send> Sync for SlicePtr<T> {}

/// The number of workers to use by default: one per available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn visits_every_index_exactly_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 4, 64, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_count_is_a_noop() {
        parallel_for(0, 4, 16, |_, _| panic!("must not be called"));
    }

    #[test]
    fn single_worker_runs_inline_in_order() {
        let order = std::sync::Mutex::new(Vec::new());
        parallel_for(5, 1, 2, |i, w| {
            assert_eq!(w, 0);
            order.lock().unwrap_or_else(|e| e.into_inner()).push(i);
        });
        assert_eq!(
            *order.lock().unwrap_or_else(|e| e.into_inner()),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn small_count_avoids_spawning() {
        // count <= chunk runs inline; worker id must be 0 throughout.
        parallel_for(3, 8, 16, |_, w| assert_eq!(w, 0));
    }

    #[test]
    fn sums_match_sequential() {
        let total = AtomicU64::new(0);
        parallel_for(1000, 3, 7, |i, _| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn worker_ids_are_in_range() {
        let n = 2000;
        parallel_for(n, 4, 8, |_, w| assert!(w < 4));
    }

    #[test]
    fn default_workers_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn static_schedule_visits_every_index_once() {
        let n = 1013;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_static(n, 4, |i, w| {
            assert_eq!(i % 4, w, "static mapping: index {i} on worker {w}");
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn static_schedule_inline_when_single_worker() {
        let order = std::sync::Mutex::new(Vec::new());
        parallel_for_static(4, 1, |i, w| {
            assert_eq!(w, 0);
            order.lock().unwrap_or_else(|e| e.into_inner()).push(i);
        });
        assert_eq!(
            *order.lock().unwrap_or_else(|e| e.into_inner()),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn static_schedule_zero_count_noop() {
        parallel_for_static(0, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    fn fill_chunks_writes_every_element() {
        let mut data = vec![0u64; 10_000];
        parallel_fill_chunks(&mut data, 64, 4, |c, out| {
            for (k, v) in out.iter_mut().enumerate() {
                *v = (c * 64 + k) as u64;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn fill_chunks_handles_ragged_tail_and_empty() {
        let mut data = vec![0u8; 10];
        parallel_fill_chunks(&mut data, 4, 3, |c, out| {
            assert_eq!(out.len(), if c == 2 { 2 } else { 4 });
            out.fill(c as u8 + 1);
        });
        assert_eq!(data, [1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
        let mut empty: Vec<u8> = Vec::new();
        parallel_fill_chunks(&mut empty, 4, 3, |_, _| panic!("must not be called"));
    }

    // ------------------------------------------------------------------
    // Pool-specific coverage: a real multi-lane pool regardless of host
    // core count.
    // ------------------------------------------------------------------

    #[test]
    fn pool_reused_across_many_generations() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.lanes(), 4);
        for round in 0..50 {
            let total = AtomicU64::new(0);
            pool.parallel_for_static(97, 4, |i, _| {
                total.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 96 * 97 / 2, "round {round}");
        }
    }

    #[test]
    fn pool_static_mapping_survives_role_virtualization() {
        // More workers than lanes: roles must still map `i % workers == w`,
        // each role ascending — the executor's determinism contract.
        let pool = WorkerPool::new(2);
        let n = 1013;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_static(n, 5, |i, w| {
            assert_eq!(i % 5, w, "index {i} on worker {w}");
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_count_below_workers_clamps_worker_ids() {
        let pool = WorkerPool::new(8);
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_static(3, 8, |i, w| {
            assert!(w < 3, "worker ids clamp to count, got {w}");
            assert_eq!(i % 3, w);
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_panic_propagates_and_pool_stays_usable() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for_static(16, 4, |i, _| {
                if i == 11 {
                    panic!("boom at {i}");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom"), "unexpected payload {msg}");

        // The pool must have cleaned the generation up and stay usable.
        let total = AtomicU64::new(0);
        pool.parallel_for(1000, 4, 16, |i, _| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn pool_nested_dispatch_runs_inline_without_deadlock() {
        let pool = WorkerPool::new(4);
        let inner_calls = AtomicUsize::new(0);
        pool.parallel_for_static(8, 4, |_, _| {
            // Nested dispatch from inside a worker body: must run inline on
            // this lane (worker id 0, ascending order), not deadlock.
            let last = std::sync::Mutex::new(None);
            pool.parallel_for(6, 4, 1, |j, w| {
                assert_eq!(w, 0, "nested dispatch must be inline");
                let mut last = last.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(prev) = *last {
                    assert!(j > prev, "inline order must be ascending");
                }
                *last = Some(j);
                inner_calls.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(inner_calls.load(Ordering::Relaxed), 8 * 6);
    }

    #[test]
    fn pool_dynamic_ids_stay_in_requested_range() {
        let pool = WorkerPool::new(2);
        pool.parallel_for(512, 7, 4, |_, w| assert!(w < 7));
    }

    #[test]
    fn spawn_dispatch_matches_pool_semantics() {
        let n = 1013;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        spawn_parallel_for_static(n, 4, |i, w| {
            assert_eq!(i % 4, w);
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn telemetry_rings_record_launch_wake_park() {
        use crate::telemetry::LaneEventKind as K;
        let pool = WorkerPool::new(3);
        pool.set_telemetry(true);
        assert!(pool.telemetry_enabled());
        pool.parallel_for_static(30, 3, |_, _| {});
        let mut events = Vec::new();
        pool.drain_events(&mut events);
        assert_eq!(
            events.iter().filter(|e| e.kind == K::Launch).count(),
            1,
            "one Launch on lane 0: {events:?}"
        );
        assert!(events.iter().any(|e| e.kind == K::Launch && e.lane == 0));
        assert_eq!(events.iter().filter(|e| e.kind == K::Wake).count(), 2);
        assert_eq!(events.iter().filter(|e| e.kind == K::Park).count(), 2);
        assert_eq!(pool.events_dropped(), 0);

        // Disabled again: the hot path records nothing.
        pool.set_telemetry(false);
        pool.parallel_for_static(30, 3, |_, _| {});
        events.clear();
        pool.drain_events(&mut events);
        assert!(events.is_empty());
    }

    // ------------------------------------------------------------------
    // Watchdog / abandonment coverage.
    // ------------------------------------------------------------------

    #[test]
    fn guarded_without_deadline_matches_plain_dispatch() {
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        pool.parallel_for_static_stealing_guarded(997, 4, None, None, |i, _| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        })
        .expect("no deadline, cannot time out");
        assert_eq!(total.load(Ordering::Relaxed), 996 * 997 / 2);
        assert!(!pool.poisoned());
    }

    #[test]
    fn stall_shorter_than_deadline_recovers_without_timeout() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..30).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_static_stealing_guarded(
            30,
            3,
            Some(Duration::from_secs(30)),
            Some((1, Duration::from_millis(10))),
            |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        )
        .expect("stall ends before the deadline");
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert!(!pool.poisoned());
    }

    #[test]
    fn watchdog_times_out_stalled_lane_within_deadline_and_poisons_pool() {
        let pool = WorkerPool::new(3);
        let stall = Duration::from_millis(400);
        let start = Instant::now();
        let result = pool.parallel_for_static_stealing_guarded(
            30,
            3,
            Some(Duration::from_millis(30)),
            Some((1, stall)),
            |_, _| {},
        );
        let elapsed = start.elapsed();
        assert_eq!(
            result,
            Err(PoolTimeout {
                deadline: Duration::from_millis(30)
            })
        );
        assert!(
            elapsed < stall,
            "watchdog must return well before the {stall:?} stall ends, took {elapsed:?}"
        );
        assert!(pool.poisoned());

        // A poisoned pool still produces correct results — inline, without
        // publishing a generation the stragglers could corrupt.
        let total = AtomicU64::new(0);
        pool.parallel_for(100, 3, 4, |i, w| {
            assert_eq!(w, 0, "poisoned pool must dispatch inline");
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn rebuilding_a_poisoned_pool_restores_parallel_dispatch() {
        let mut pool = WorkerPool::new(3);
        let r = pool.parallel_for_static_stealing_guarded(
            30,
            3,
            Some(Duration::from_millis(20)),
            Some((2, Duration::from_millis(200))),
            |_, _| {},
        );
        assert!(r.is_err());
        assert!(pool.poisoned());

        // Tear down (joins the straggler) and rebuild — the very next
        // dispatch must run parallel again.
        pool = WorkerPool::new(3);
        assert!(!pool.poisoned());
        let hits: Vec<AtomicUsize> = (0..60).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_static_stealing_guarded(
            60,
            3,
            Some(Duration::from_secs(30)),
            None,
            |i, w| {
                assert_eq!(i % 3, w);
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        )
        .expect("rebuilt pool dispatches normally");
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    // ------------------------------------------------------------------
    // Work-stealing coverage.
    // ------------------------------------------------------------------

    #[test]
    fn stealing_visits_every_index_once_with_static_mapping() {
        for lanes in [1, 2, 4, 8] {
            let pool = WorkerPool::new(lanes);
            for (count, workers) in [(997, 4), (30, 30), (13, 15), (64, 3)] {
                let hits: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
                pool.parallel_for_static_stealing_guarded(count, workers, None, None, |i, w| {
                    assert_eq!(i % workers.min(count), w, "index→worker mapping is static");
                    hits[i].fetch_add(1, Ordering::Relaxed);
                })
                .expect("no deadline, cannot time out");
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "every index exactly once at lanes={lanes} count={count} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn stealing_unblocks_ragged_batches_across_lanes() {
        // Two lanes, four roles, role 0 heavy: without stealing lane 0
        // would also own role 2 and serialize behind the heavy role; with
        // stealing lane 1 picks up roles 1..3 while lane 0 is busy. The
        // observable contract here is completion with the static mapping —
        // the scheduling win itself is wall-clock and measured by bench.
        let pool = WorkerPool::new(2);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_static_stealing_guarded(4, 4, None, None, |i, w| {
            assert_eq!(i, w);
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        })
        .expect("no deadline");
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert!(!pool.poisoned());
    }

    #[test]
    fn stealing_stall_recovers_and_watchdog_still_fires() {
        // A short injected stall recovers without a timeout…
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..30).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_static_stealing_guarded(
            30,
            6,
            Some(Duration::from_secs(30)),
            Some((1, Duration::from_millis(10))),
            |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        )
        .expect("stall ends before the deadline");
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));

        // …and a stall past the deadline still trips the watchdog.
        let r = pool.parallel_for_static_stealing_guarded(
            30,
            6,
            Some(Duration::from_millis(25)),
            Some((1, Duration::from_millis(300))),
            |_, _| {},
        );
        assert_eq!(
            r,
            Err(PoolTimeout {
                deadline: Duration::from_millis(25)
            })
        );
        assert!(pool.poisoned());
    }

    #[test]
    fn stealing_worker_panic_does_not_wedge_the_pool() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_for_static_stealing_guarded(8, 4, None, None, |i, _| {
                if i == 2 {
                    panic!("injected");
                }
            })
        }));
        assert!(caught.is_err(), "panic must propagate to the launcher");
        // The pool must still dispatch correctly afterwards.
        let total = AtomicU64::new(0);
        pool.parallel_for_static_stealing_guarded(100, 4, None, None, |i, _| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        })
        .expect("pool survives a panicked generation");
        assert_eq!(total.load(Ordering::Relaxed), 99 * 100 / 2);
    }
}
