//! The kernel programming model: barrier-phased kernels and the per-thread
//! execution context.
//!
//! A CUDA kernel with `__syncthreads()` barriers is expressed here as a
//! sequence of *phases*: phase boundaries are exactly the barriers. The
//! executor runs every (non-exited) thread of a block through phase `p`
//! before any thread enters phase `p+1`, which is precisely the
//! synchronization `__syncthreads()` guarantees. The paper's parallel
//! kernel (Fig. 6) is two phases: brightness staging, then pixel
//! computation.
//!
//! Every device operation goes through [`ThreadCtx`], which performs the
//! *functional* effect (real loads, stores, float math on real data) and
//! logs an [`Event`] for the warp-level performance analysis (coalescing,
//! bank conflicts, texture cache, atomic serialization, divergence).

use crate::counters::{Counters, FlopClass};
use crate::device::DeviceSpec;
use crate::dim::Dim3;
use crate::launch::LaunchConfig;
use crate::memory::cache::CacheSim;
use crate::memory::global::{GlobalAtomicF32, GlobalBuffer};
use crate::memory::shared::SharedMem;
use crate::memory::texture::Texture;
use crate::sanitize::{LaneHooks, MemSpace};
use std::ops::Range;

/// One device operation observed during a thread's execution of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// `n` scalar flops of a class (warp-issues once per call site).
    Flop {
        /// Operation class.
        class: FlopClass,
        /// Scalar operation count.
        n: u16,
    },
    /// A global memory read at a device byte address.
    GlobalRead {
        /// Device byte address.
        addr: u64,
        /// Access width in bytes.
        bytes: u16,
    },
    /// A plain (non-atomic) global memory store at a device byte address.
    GlobalWrite {
        /// Device byte address.
        addr: u64,
        /// Access width in bytes.
        bytes: u16,
    },
    /// A shared memory read of a 4-byte word.
    SharedRead {
        /// Word index.
        word: u32,
    },
    /// A shared memory write of a 4-byte word.
    SharedWrite {
        /// Word index.
        word: u32,
    },
    /// A texture fetch at a (swizzled) device byte address.
    TexFetch {
        /// Swizzled device byte address.
        addr: u64,
    },
    /// A global-memory `atomicAdd`.
    AtomicAdd {
        /// Device byte address.
        addr: u64,
    },
    /// A data-dependent branch.
    Branch {
        /// Whether this thread took the branch.
        taken: bool,
    },
}

/// A barrier-phased kernel.
///
/// Implementations must be `Sync`: the same kernel object is shared by all
/// worker threads.
///
/// [`Self::run`] is the whole kernel: the reference and sanitized
/// executors interpret every launch through it, thread by thread. A kernel
/// may also offer the batched executor a two-pass route — a counter pass
/// ([`Self::run_block`], per SM) and a deposit pass ([`Self::deposit`],
/// per band of output rows) — by returning `Some` from
/// [`Self::deposit_rows`]. On that route, and on the serial executors,
/// every pixel receives its adds in block index order, so the image
/// depends only on the launch. A batched launch on the per-thread route
/// has one image per launch only if its threads write disjoint pixels: at
/// two or more workers the SM roles run concurrently, so blocks that add
/// into shared cells do so in an order host scheduling sets.
pub trait Kernel: Sync {
    /// Number of barrier-separated phases (≥ 1). The executor inserts a
    /// block-wide barrier (`__syncthreads()`) between consecutive phases.
    fn phases(&self) -> usize {
        1
    }

    /// Runs one thread through one phase.
    fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>);

    /// Output rows of a launch of shape `cfg` that takes the batched
    /// executor's two-pass route, or `None` (the default) to run the whole
    /// launch on the per-thread path ([`Self::run`]). The executor asks
    /// once, before any block runs.
    fn deposit_rows(&self, _cfg: &LaunchConfig) -> Option<usize> {
        None
    }

    /// Counter pass of the two-pass route: accounts the *whole block*
    /// through all phases in one call, writing no pixels. It must produce
    /// *exactly* the counters the per-thread path would, and feed the SM's
    /// texture cache the same addresses in the same order — the
    /// performance model is analytic either way, only the host-side
    /// execution strategy changes. It may also narrow
    /// [`BlockCtx::rows`] to the output rows the block deposits into.
    fn run_block(&self, _ctx: &mut BlockCtx<'_>) {}

    /// Deposit pass of the two-pass route: adds every pixel block `block`
    /// writes in output rows `rows`, with the values the per-thread path
    /// adds. The executor calls it in index order for every block whose
    /// [`BlockCtx::rows`] meets a band of rows, and for disjoint bands
    /// concurrently, so a pixel sees its adds in block order (see
    /// [`GlobalAtomicF32::merge_add_range`]). A block is never called for
    /// a band outside the rows its counter pass reported, so those rows
    /// must hold every pixel it writes.
    fn deposit(&self, _block: usize, _rows: Range<usize>) {}
}

/// Block-level execution context handed to [`Kernel::run_block`].
///
/// Unlike [`ThreadCtx`], which records events for post-hoc warp analysis,
/// the block context exposes the counter bundle and the SM's texture cache
/// directly: the counter pass accounts a block's warp-level costs
/// analytically. Fields are public (rather than wrapped in methods) so a
/// kernel can borrow `counters` and `cache` simultaneously.
#[derive(Debug)]
pub struct BlockCtx<'a> {
    /// `blockIdx`.
    pub block_idx: Dim3,
    /// `blockDim`.
    pub block_dim: Dim3,
    /// `gridDim`.
    pub grid_dim: Dim3,
    /// Device being simulated (warp size, coalescing segment width, …).
    pub spec: &'a DeviceSpec,
    /// Counter bundle this block accounts into (merged across workers by
    /// the executor after the launch).
    pub counters: &'a mut Counters,
    /// The owning SM's texture cache. The counter pass feeds it the same
    /// swizzled addresses, in the same order, as the reference path —
    /// one by one, or as a texture layer walk
    /// ([`CacheSim::access_walk`]).
    pub cache: &'a mut CacheSim,
    /// Output rows this block deposits into. The executor sets it to
    /// every row of the launch ([`Kernel::deposit_rows`]) before
    /// [`Kernel::run_block`]; a kernel that narrows it spares the deposit
    /// pass the bands outside it, and one that leaves it is deposited in
    /// every band. An empty range (a guarded-off block, an ROI wholly off
    /// the image) deposits in none. Rows past the launch's are ignored.
    pub rows: Range<usize>,
}

impl BlockCtx<'_> {
    /// Linear block index within the grid.
    #[inline]
    pub fn block_linear(&self) -> usize {
        self.grid_dim.linear(self.block_idx)
    }
}

/// Per-thread execution context: identity, shared memory, and event log.
///
/// In sanitized launches the executor attaches `LaneHooks` via
/// `ThreadCtx::set_sanitizer`; every device op then bounds-checks its index
/// *before* touching memory, reporting out-of-bounds accesses (clamped or
/// dropped) instead of panicking, so the launch completes and the memcheck
/// findings reach the report.
#[derive(Debug)]
pub struct ThreadCtx<'a> {
    /// `threadIdx`.
    pub thread_idx: Dim3,
    /// `blockIdx`.
    pub block_idx: Dim3,
    /// `blockDim`.
    pub block_dim: Dim3,
    /// `gridDim`.
    pub grid_dim: Dim3,
    shared: &'a SharedMem,
    events: Vec<Event>,
    exited: bool,
    san: Option<LaneHooks<'a>>,
    /// Probe mode (static analyzer): events are recorded as usual, but
    /// global mutation — `atomicAdd` and plain stores — is suppressed, so
    /// interpreting a kernel for its access trace leaves device memory
    /// untouched. Shared memory stays functional (it is the analyzer's own
    /// scratch block) so later phases observe phase-0 staging.
    probe: bool,
}

impl<'a> ThreadCtx<'a> {
    /// Creates a context (called by the executor).
    pub(crate) fn new(
        thread_idx: Dim3,
        block_idx: Dim3,
        block_dim: Dim3,
        grid_dim: Dim3,
        shared: &'a SharedMem,
        events: Vec<Event>,
    ) -> Self {
        ThreadCtx {
            thread_idx,
            block_idx,
            block_dim,
            grid_dim,
            shared,
            events,
            exited: false,
            san: None,
            probe: false,
        }
    }

    /// Switches this context into side-effect-free probe mode (static
    /// analyzer only — see [`crate::analyze`]).
    pub(crate) fn set_probe(&mut self) {
        self.probe = true;
    }

    /// Attaches the sanitizer's per-lane memcheck hooks (sanitized
    /// executor only).
    pub(crate) fn set_sanitizer(&mut self, hooks: LaneHooks<'a>) {
        self.san = Some(hooks);
    }

    /// Memcheck an index against `limit`: in-bounds indices pass through;
    /// out-of-bounds indices are reported through the hooks and clamped to
    /// the last element when sanitized, or returned as-is (to fault in the
    /// underlying memory model) otherwise. Returns `(index, was_oob)`.
    #[inline]
    fn check_index(&self, space: MemSpace, idx: usize, limit: usize) -> (usize, bool) {
        if idx < limit {
            return (idx, false);
        }
        match &self.san {
            Some(hooks) if hooks.memcheck && limit > 0 => {
                hooks.oob(space, idx, limit, self.thread_linear());
                (limit - 1, true)
            }
            _ => (idx, false),
        }
    }

    /// Linear thread index within the block (CUDA ordering — determines
    /// warp membership).
    #[inline]
    pub fn thread_linear(&self) -> usize {
        self.block_dim.linear(self.thread_idx)
    }

    /// Linear block index within the grid (the paper's
    /// `blockIdx.x + blockIdx.y * gridDim.x`).
    #[inline]
    pub fn block_linear(&self) -> usize {
        self.grid_dim.linear(self.block_idx)
    }

    /// Records `n` scalar flops of `class`.
    #[inline]
    pub fn flops(&mut self, class: FlopClass, n: u16) {
        self.events.push(Event::Flop { class, n });
    }

    /// Global memory read of element `idx` from a device buffer.
    #[inline]
    pub fn global_read<T: Copy>(&mut self, buf: &GlobalBuffer<T>, idx: usize) -> T {
        let (idx, _) = self.check_index(MemSpace::Global, idx, buf.len());
        self.events.push(Event::GlobalRead {
            addr: buf.addr_of(idx),
            bytes: std::mem::size_of::<T>() as u16,
        });
        buf.read(idx)
    }

    /// Global-memory `atomicAdd(&buf[idx], v)`, returning the old value.
    #[inline]
    pub fn atomic_add_global(&mut self, buf: &GlobalAtomicF32, idx: usize, v: f32) -> f32 {
        let (idx, oob) = self.check_index(MemSpace::Global, idx, buf.len());
        self.events.push(Event::AtomicAdd {
            addr: buf.addr_of(idx),
        });
        if oob || self.probe {
            // The add is suppressed: the clamped address keeps the warp
            // analysis well-formed, but the stray accumulation must not
            // corrupt the last pixel. Probe mode suppresses every add —
            // the analyzer only wants the address trace.
            return 0.0;
        }
        buf.atomic_add(idx, v)
    }

    /// Plain (non-atomic) global store `buf[idx] = v` — the operation the
    /// paper's kernel must *never* use for contended image pixels. Exists
    /// so the sanitizer's known-bad corpus can express the
    /// atomicAdd-replaced-by-store defect; racecheck treats it as a
    /// conflicting write.
    #[inline]
    pub fn global_write(&mut self, buf: &GlobalAtomicF32, idx: usize, v: f32) {
        let (idx, oob) = self.check_index(MemSpace::Global, idx, buf.len());
        self.events.push(Event::GlobalWrite {
            addr: buf.addr_of(idx),
            bytes: 4,
        });
        if !oob && !self.probe {
            buf.store(idx, v);
        }
    }

    /// Shared memory read of word `idx`.
    #[inline]
    pub fn shared_read(&mut self, idx: usize) -> f32 {
        let (idx, oob) = self.check_index(MemSpace::Shared, idx, self.shared.len());
        if oob {
            // Reading uninitialized/foreign memory: return a defined zero
            // without touching the (nonexistent) word.
            return 0.0;
        }
        self.events.push(Event::SharedRead { word: idx as u32 });
        self.shared.read(idx, self.thread_linear() as u32)
    }

    /// Shared memory write of word `idx`.
    #[inline]
    pub fn shared_write(&mut self, idx: usize, v: f32) {
        let (idx, oob) = self.check_index(MemSpace::Shared, idx, self.shared.len());
        if oob {
            // The store is dropped entirely — clamping would corrupt the
            // last legitimate word.
            return;
        }
        self.events.push(Event::SharedWrite { word: idx as u32 });
        self.shared.write(idx, v, self.thread_linear() as u32);
    }

    /// Texture fetch `tex[layer](x, y)` with clamp addressing.
    ///
    /// Hardware clamping masks out-of-domain fetches, so under the
    /// sanitizer the *pre-clamp* coordinates are memchecked: a layer or
    /// texel index outside the bound table is reported even though the
    /// clamped fetch proceeds.
    #[inline]
    pub fn tex_fetch(&mut self, tex: &Texture, layer: usize, x: i64, y: i64) -> f32 {
        if let Some(hooks) = &self.san {
            if hooks.memcheck {
                let lane = self.thread_linear();
                if layer >= tex.layers() {
                    hooks.oob(MemSpace::Texture, layer, tex.layers(), lane);
                } else if x < 0 || x as usize >= tex.width() {
                    hooks.oob(MemSpace::Texture, x.max(0) as usize, tex.width(), lane);
                } else if y < 0 || y as usize >= tex.height() {
                    hooks.oob(MemSpace::Texture, y.max(0) as usize, tex.height(), lane);
                }
            }
        }
        let (value, addr) = tex.fetch(layer, x, y);
        self.events.push(Event::TexFetch { addr });
        value
    }

    /// Records a data-dependent branch and returns `cond`, so kernels write
    /// `if ctx.branch(cond) { ... }`. Mixed outcomes within a warp are
    /// counted as a divergent branch by the analyzer.
    #[inline]
    pub fn branch(&mut self, cond: bool) -> bool {
        self.events.push(Event::Branch { taken: cond });
        cond
    }

    /// Early return (`return;` in CUDA): the thread skips all remaining
    /// phases. Used by the paper's `if (blockId >= starCount) return`.
    #[inline]
    pub fn exit(&mut self) {
        self.exited = true;
    }

    /// Whether [`Self::exit`] was called.
    pub(crate) fn exited(&self) -> bool {
        self.exited
    }

    /// Drains the event log (executor use).
    pub(crate) fn take_events(self) -> Vec<Event> {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::global::AddressSpace;

    fn ctx<'a>(shared: &'a SharedMem) -> ThreadCtx<'a> {
        ThreadCtx::new(
            Dim3::d3(3, 2, 0),
            Dim3::d3(1, 1, 0),
            Dim3::d2(10, 10),
            Dim3::d2(4, 4),
            shared,
            Vec::new(),
        )
    }

    #[test]
    fn indices_linearize_like_cuda() {
        let sm = SharedMem::new(4);
        let c = ctx(&sm);
        assert_eq!(c.thread_linear(), 23); // 3 + 2·10
        assert_eq!(c.block_linear(), 5); // 1 + 1·4
    }

    #[test]
    fn operations_log_events_and_have_effects() {
        let sm = SharedMem::new(4);
        let space = AddressSpace::new();
        let buf = GlobalBuffer::from_host(&space, vec![10.0f32, 20.0]);
        let img = GlobalAtomicF32::zeroed(&space, 8);

        let mut c = ctx(&sm);
        c.flops(FlopClass::Mul, 3);
        assert_eq!(c.global_read(&buf, 1), 20.0);
        c.shared_write(2, 7.0);
        assert_eq!(c.shared_read(2), 7.0);
        let prev = c.atomic_add_global(&img, 5, 1.5);
        assert_eq!(prev, 0.0);
        assert_eq!(img.read(5), 1.5);
        assert!(c.branch(true));
        assert!(!c.branch(false));

        let events = c.take_events();
        assert_eq!(events.len(), 7);
        assert!(matches!(events[0], Event::Flop { n: 3, .. }));
        assert!(matches!(events[1], Event::GlobalRead { bytes: 4, .. }));
        assert!(matches!(events[2], Event::SharedWrite { word: 2 }));
        assert!(matches!(events[3], Event::SharedRead { word: 2 }));
        assert!(matches!(events[4], Event::AtomicAdd { .. }));
        assert!(matches!(events[5], Event::Branch { taken: true }));
        assert!(matches!(events[6], Event::Branch { taken: false }));
    }

    #[test]
    fn texture_fetch_logs_swizzled_address() {
        let sm = SharedMem::new(1);
        let space = AddressSpace::new();
        let tex =
            Texture::bind(&space, 2, 2, 1, vec![1.0, 2.0, 3.0, 4.0], usize::MAX, 128).unwrap();
        let mut c = ctx(&sm);
        assert_eq!(c.tex_fetch(&tex, 0, 1, 1), 4.0);
        let events = c.take_events();
        match events[0] {
            Event::TexFetch { addr } => assert_eq!(addr, tex.fetch(0, 1, 1).1),
            ref other => panic!("expected TexFetch, got {other:?}"),
        }
    }

    #[test]
    fn exit_flag() {
        let sm = SharedMem::new(1);
        let mut c = ctx(&sm);
        assert!(!c.exited());
        c.exit();
        assert!(c.exited());
    }
}
