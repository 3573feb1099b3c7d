//! `gpusan` — a compute-sanitizer for the virtual GPU.
//!
//! The paper's parallel kernel (Fig. 6) is correct only because of two
//! fragile invariants: thread (0,0) publishes the shared-memory brightness
//! *before* a `__syncthreads()` barrier, and every ROI-pixel write to the
//! global image goes through `atomicAdd`. Drop the barrier or swap the
//! atomic for a plain store and the image is silently wrong. This module
//! is the tool that *proves* a kernel respects those invariants, modeled
//! on CUDA's `compute-sanitizer`:
//!
//! * **racecheck** — in [`crate::ExecMode::Sanitized`] every global- and
//!   shared-memory access is recorded as `(lane, address, kind,
//!   barrier-epoch)` into shadow access sets. Two accesses to the same
//!   address from different lanes, at least one a non-atomic write, in the
//!   same epoch (or from different blocks, which are never ordered) yield
//!   a deterministic race [`Finding`];
//! * **synccheck** — barrier divergence (some lanes of a block exit before
//!   a barrier other lanes arrive at) and shared-memory reads of words no
//!   lane has initialized;
//! * **memcheck** — out-of-bounds global / shared / texture indices are
//!   *reported* instead of panicking;
//! * **static validation** — [`validate_roi`] and [`validate_lut_domain`]
//!   reject bad launches (ROI larger than the image, LUT fetch domain
//!   outside the bound table) with typed [`GpuError`]s *before* dispatch,
//!   complementing [`crate::LaunchConfig::validate`]'s device-limit checks.
//!
//! Reports are deterministic: per-SM shadow logs are merged in SM order
//! and findings are sorted on a total key before the report cap applies,
//! so the same launch yields byte-identical reports on any worker count.

use std::cell::RefCell;
use std::fmt;

use crate::device::DeviceSpec;
use crate::error::GpuError;
use crate::launch::LaunchConfig;
use crate::memory::texture::Texture;

/// Which sanitizer passes run in [`crate::ExecMode::Sanitized`] launches.
///
/// The default enables every check. Outside sanitized launches no check
/// runs, whatever this config says.
#[derive(Debug, Clone)]
pub struct SanitizeConfig {
    /// Detect same-epoch / cross-block conflicting accesses (racecheck).
    pub racecheck: bool,
    /// Detect barrier divergence and uninitialized shared reads (synccheck).
    pub synccheck: bool,
    /// Detect out-of-bounds indices (memcheck).
    pub memcheck: bool,
    /// Findings kept per launch; the rest are dropped after sorting, with
    /// [`SanitizeReport::truncated`] set.
    pub max_reports: usize,
    /// Shadow access-set entries recorded per SM before collection stops
    /// (bounds sanitizer memory on huge launches; sets `truncated`).
    pub access_cap: usize,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        SanitizeConfig {
            racecheck: true,
            synccheck: true,
            memcheck: true,
            max_reports: 64,
            access_cap: 1 << 22,
        }
    }
}

/// Memory space a finding refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemSpace {
    /// Device global memory.
    Global,
    /// Per-block shared memory (addresses are word indices).
    Shared,
    /// Texture memory (the adaptive simulator's lookup table).
    Texture,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemSpace::Global => "global",
            MemSpace::Shared => "shared",
            MemSpace::Texture => "texture",
        })
    }
}

/// One defect the sanitizer detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// Two accesses to the same address, different lanes, at least one a
    /// non-atomic write, unordered by any barrier — the missing
    /// `__syncthreads()` / plain-store-instead-of-`atomicAdd` class.
    Race {
        /// Memory space of the conflicting address.
        space: MemSpace,
        /// Conflicting device byte address (shared: word index).
        addr: u64,
        /// Barrier epoch of the write (phase index; cross-block races
        /// report the writer's epoch).
        epoch: usize,
        /// The two conflicting lanes (linear thread ids in their blocks).
        lanes: (usize, usize),
        /// The lanes' blocks (equal for an intra-block race).
        blocks: (usize, usize),
    },
    /// Lanes of one block arrived at a barrier while others had already
    /// exited — `__syncthreads()` under divergent control flow.
    BarrierDivergence {
        /// Barrier index (the phase it precedes).
        barrier: usize,
        /// Lanes that arrived.
        arrived: usize,
        /// Lanes the block launched with.
        expected: usize,
    },
    /// A shared-memory word was read before any lane of the block wrote it.
    UninitSharedRead {
        /// Shared word index.
        word: usize,
        /// Epoch of the offending read.
        epoch: usize,
        /// Reading lane.
        lane: usize,
    },
    /// An index outside the addressed object; the access was clamped or
    /// dropped instead of faulting so the launch could finish and report.
    OutOfBounds {
        /// Memory space of the bad access.
        space: MemSpace,
        /// The offending index (global/shared: element index; texture: the
        /// first out-of-range coordinate, layer-major).
        index: usize,
        /// Number of addressable elements in that dimension.
        limit: usize,
        /// Offending lane.
        lane: usize,
        /// Barrier epoch of the access.
        epoch: usize,
    },
}

impl FindingKind {
    /// Short class name, stable for report aggregation: `race`,
    /// `barrier-divergence`, `uninit-shared-read`, `out-of-bounds`.
    pub fn class(&self) -> &'static str {
        match self {
            FindingKind::Race { .. } => "race",
            FindingKind::BarrierDivergence { .. } => "barrier-divergence",
            FindingKind::UninitSharedRead { .. } => "uninit-shared-read",
            FindingKind::OutOfBounds { .. } => "out-of-bounds",
        }
    }

    /// Total ordering key used to sort findings deterministically.
    fn sort_key(&self) -> (u8, u64, u64, u64) {
        match *self {
            FindingKind::Race {
                space,
                addr,
                epoch,
                lanes,
                ..
            } => (space as u8, addr, epoch as u64, lanes.0 as u64),
            FindingKind::BarrierDivergence {
                barrier, arrived, ..
            } => (3, barrier as u64, arrived as u64, 0),
            FindingKind::UninitSharedRead { word, epoch, lane } => {
                (4, word as u64, epoch as u64, lane as u64)
            }
            FindingKind::OutOfBounds {
                space,
                index,
                lane,
                epoch,
                ..
            } => (5 + space as u8, index as u64, epoch as u64, lane as u64),
        }
    }
}

/// One sanitizer finding, anchored to the block it occurred in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Linear block index.
    pub block: usize,
    /// What was detected.
    pub kind: FindingKind,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            FindingKind::Race {
                space,
                addr,
                epoch,
                lanes,
                blocks,
            } => write!(
                f,
                "race: {space} addr {addr:#x} epoch {epoch}: lane {} (block {}) vs lane {} (block {})",
                lanes.0, blocks.0, lanes.1, blocks.1
            ),
            FindingKind::BarrierDivergence {
                barrier,
                arrived,
                expected,
            } => write!(
                f,
                "barrier divergence: block {} barrier {barrier}: {arrived}/{expected} lanes arrived",
                self.block
            ),
            FindingKind::UninitSharedRead { word, epoch, lane } => write!(
                f,
                "uninit shared read: block {} word {word} epoch {epoch} lane {lane}",
                self.block
            ),
            FindingKind::OutOfBounds {
                space,
                index,
                limit,
                lane,
                epoch,
            } => write!(
                f,
                "out of bounds: block {} {space} index {index} (limit {limit}) lane {lane} epoch {epoch}",
                self.block
            ),
        }
    }
}

/// The sanitizer's verdict on one launch, drained from the device with
/// [`crate::VirtualGpu::take_sanitize_reports`].
#[derive(Debug, Clone)]
pub struct SanitizeReport {
    /// Kernel name as passed to the launch.
    pub kernel: String,
    /// Device launch sequence number.
    pub launch: u64,
    /// Findings, sorted on a total key and capped at
    /// [`SanitizeConfig::max_reports`].
    pub findings: Vec<Finding>,
    /// Shadow access-set entries recorded.
    pub accesses: u64,
    /// True when the access cap or report cap dropped data.
    pub truncated: bool,
}

impl SanitizeReport {
    /// True when the launch produced no findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings of a given [`FindingKind::class`].
    pub fn count_class(&self, class: &str) -> usize {
        self.findings
            .iter()
            .filter(|f| f.kind.class() == class)
            .count()
    }
}

// ---------------------------------------------------------------------
// Shadow access sets (internal collection plumbing).
// ---------------------------------------------------------------------

/// Kind of one recorded access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    GlobalRead,
    GlobalWrite,
    GlobalAtomic,
    SharedRead,
    SharedWrite,
}

impl AccessKind {
    fn is_shared(self) -> bool {
        matches!(self, AccessKind::SharedRead | AccessKind::SharedWrite)
    }

    fn is_write(self) -> bool {
        matches!(self, AccessKind::GlobalWrite | AccessKind::SharedWrite)
    }
}

/// One shadow access-set entry: `(lane, address, kind, barrier epoch)`
/// plus the block the lane belongs to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    pub block: usize,
    pub epoch: u32,
    pub lane: u32,
    pub kind: AccessKind,
    /// Global: device byte address. Shared: word index.
    pub addr: u64,
}

/// Per-SM shadow state filled by the sanitized executor. One slot per SM
/// keeps collection lock-free and the merged result deterministic (slots
/// are merged in SM order after the join).
#[derive(Debug, Default)]
pub(crate) struct SmSan {
    pub accesses: Vec<Access>,
    /// Findings detected inline (memcheck OOB, synccheck divergence).
    pub findings: Vec<Finding>,
    pub truncated: bool,
}

impl SmSan {
    /// Records an access, honoring the per-SM cap.
    pub(crate) fn record(&mut self, cap: usize, access: Access) {
        if self.accesses.len() < cap {
            self.accesses.push(access);
        } else {
            self.truncated = true;
        }
    }
}

/// Per-lane memcheck hooks handed to [`crate::ThreadCtx`] in sanitized
/// launches: out-of-bounds accesses are recorded here (and clamped or
/// dropped by the context) instead of panicking.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneHooks<'a> {
    pub findings: &'a RefCell<Vec<Finding>>,
    pub block: usize,
    pub epoch: usize,
    pub memcheck: bool,
}

impl LaneHooks<'_> {
    /// Records an out-of-bounds access by `lane`.
    pub(crate) fn oob(&self, space: MemSpace, index: usize, limit: usize, lane: usize) {
        if self.memcheck {
            self.findings.borrow_mut().push(Finding {
                block: self.block,
                kind: FindingKind::OutOfBounds {
                    space,
                    index,
                    limit,
                    lane,
                    epoch: self.epoch,
                },
            });
        }
    }
}

// ---------------------------------------------------------------------
// Post-launch analysis over the merged shadow sets.
// ---------------------------------------------------------------------

/// Analyzes the per-SM shadow state of one launch into a sorted, capped
/// finding list. Returns `(findings, accesses_recorded, truncated)`.
pub(crate) fn analyze(cfg: &SanitizeConfig, per_sm: Vec<SmSan>) -> (Vec<Finding>, u64, bool) {
    let mut findings = Vec::new();
    let mut accesses: Vec<Access> = Vec::new();
    let mut truncated = false;
    for sm in per_sm {
        findings.extend(sm.findings);
        accesses.extend(sm.accesses);
        truncated |= sm.truncated;
    }
    let recorded = accesses.len() as u64;

    if cfg.racecheck || cfg.synccheck {
        shared_checks(cfg, &accesses, &mut findings);
    }
    if cfg.racecheck {
        global_races(&accesses, &mut findings);
    }

    findings.sort_by_key(|f| (f.block, f.kind.sort_key()));
    findings.dedup();
    if findings.len() > cfg.max_reports {
        findings.truncate(cfg.max_reports);
        truncated = true;
    }
    (findings, recorded, truncated)
}

/// Shared-memory racecheck and read-before-init, per `(block, word)`.
fn shared_checks(cfg: &SanitizeConfig, accesses: &[Access], findings: &mut Vec<Finding>) {
    use std::collections::HashMap;
    // (block, word) → access list, in collection order.
    let mut per_word: HashMap<(usize, u64), Vec<Access>> = HashMap::new();
    for a in accesses.iter().filter(|a| a.kind.is_shared()) {
        per_word.entry((a.block, a.addr)).or_default().push(*a);
    }
    for ((block, word), list) in per_word {
        if cfg.racecheck {
            // Same-epoch conflict: a write plus any access by another lane.
            let mut race: Option<(usize, (usize, usize))> = None;
            'outer: for w in list.iter().filter(|a| a.kind.is_write()) {
                for other in &list {
                    if other.epoch == w.epoch && other.lane != w.lane {
                        race = Some((w.epoch as usize, (w.lane as usize, other.lane as usize)));
                        break 'outer;
                    }
                }
            }
            if let Some((epoch, lanes)) = race {
                findings.push(Finding {
                    block,
                    kind: FindingKind::Race {
                        space: MemSpace::Shared,
                        addr: word,
                        epoch,
                        lanes,
                        blocks: (block, block),
                    },
                });
            }
        }
        if cfg.synccheck {
            // Read with no write to the word in any epoch ≤ the read's:
            // nothing initialized it (a same-epoch foreign write is the
            // race above, not an init).
            if let Some(r) = list.iter().find(|a| {
                a.kind == AccessKind::SharedRead
                    && !list.iter().any(|w| w.kind.is_write() && w.epoch <= a.epoch)
            }) {
                findings.push(Finding {
                    block,
                    kind: FindingKind::UninitSharedRead {
                        word: word as usize,
                        epoch: r.epoch as usize,
                        lane: r.lane as usize,
                    },
                });
            }
        }
    }
}

/// Global-memory racecheck, per address: a non-atomic write conflicts with
/// any access by a different lane in the same epoch of the same block, or
/// by any lane of a *different* block (blocks are never barrier-ordered).
fn global_races(accesses: &[Access], findings: &mut Vec<Finding>) {
    use std::collections::HashMap;
    let mut per_addr: HashMap<u64, Vec<Access>> = HashMap::new();
    for a in accesses.iter().filter(|a| !a.kind.is_shared()) {
        per_addr.entry(a.addr).or_default().push(*a);
    }
    for (addr, list) in per_addr {
        if !list.iter().any(|a| a.kind == AccessKind::GlobalWrite) {
            continue;
        }
        // (epoch, (writer lane, other lane), (writer block, other block))
        type RaceSite = (usize, (usize, usize), (usize, usize));
        let mut race: Option<RaceSite> = None;
        'outer: for w in list.iter().filter(|a| a.kind == AccessKind::GlobalWrite) {
            for other in &list {
                let conflict = if other.block != w.block {
                    true
                } else {
                    other.epoch == w.epoch && other.lane != w.lane
                };
                if conflict {
                    race = Some((
                        w.epoch as usize,
                        (w.lane as usize, other.lane as usize),
                        (w.block, other.block),
                    ));
                    break 'outer;
                }
            }
        }
        if let Some((epoch, lanes, blocks)) = race {
            findings.push(Finding {
                block: blocks.0,
                kind: FindingKind::Race {
                    space: MemSpace::Global,
                    addr,
                    epoch,
                    lanes,
                    blocks,
                },
            });
        }
    }
}

// ---------------------------------------------------------------------
// Static pre-launch validation.
// ---------------------------------------------------------------------

/// Checks a launch configuration against device limits — the launch-dims
/// leg of the static validator (delegates to [`LaunchConfig::validate`]).
pub fn validate_launch(cfg: &LaunchConfig, spec: &DeviceSpec) -> Result<(), GpuError> {
    cfg.validate(spec)
}

/// Checks that an ROI square fits the image it renders into. A kernel
/// launched with a larger ROI would index rows/columns past the image
/// bounds on every star — rejected before dispatch instead.
///
/// Also enforces the production caps — [`crate::device::MAX_ROI_SIDE`]
/// and [`crate::device::MAX_IMAGE_DIM`] — so this validator and the
/// server boundary (`core::protocol::SessionSpec::validate`) agree on one
/// source of truth and cannot drift apart.
pub fn validate_roi(roi_side: usize, width: usize, height: usize) -> Result<(), GpuError> {
    if roi_side == 0 {
        return Err(GpuError::InvalidLaunch("ROI side must be positive".into()));
    }
    if roi_side > crate::device::MAX_ROI_SIDE {
        return Err(GpuError::InvalidLaunch(format!(
            "ROI side {roi_side} exceeds the {} px cap (32² threads is the \
             CC 2.0 per-block limit)",
            crate::device::MAX_ROI_SIDE
        )));
    }
    if width > crate::device::MAX_IMAGE_DIM || height > crate::device::MAX_IMAGE_DIM {
        return Err(GpuError::InvalidLaunch(format!(
            "image {width}×{height} exceeds the {0}×{0} px cap",
            crate::device::MAX_IMAGE_DIM
        )));
    }
    if roi_side > width || roi_side > height {
        return Err(GpuError::InvalidLaunch(format!(
            "ROI {roi_side}×{roi_side} exceeds the {width}×{height} image bounds"
        )));
    }
    Ok(())
}

/// Checks that the index domain a kernel will fetch — layers
/// `0..=max_layer`, texels `(0..=max_x, 0..=max_y)` — lies inside the
/// bound lookup table. Texture hardware clamps silently, which *masks*
/// table-shape bugs; the validator rejects them before launch instead.
pub fn validate_lut_domain(
    tex: &Texture,
    max_layer: usize,
    max_x: usize,
    max_y: usize,
) -> Result<(), GpuError> {
    if max_layer >= tex.layers() {
        return Err(GpuError::InvalidLaunch(format!(
            "LUT layer index range 0..={max_layer} exceeds the bound table's {} layers",
            tex.layers()
        )));
    }
    if max_x >= tex.width() || max_y >= tex.height() {
        return Err(GpuError::InvalidLaunch(format!(
            "LUT texel index range ({max_x}, {max_y}) exceeds the bound {}×{} table",
            tex.width(),
            tex.height()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Known-bad kernel corpus.
// ---------------------------------------------------------------------

/// Known-bad kernels the sanitizer must flag — each a minimal mutation of
/// the paper's Fig. 6 star-centric kernel breaking exactly one invariant.
///
/// The corpus is part of the public API so the bench gate and integration
/// tests exercise the same defects; every kernel documents the finding
/// class it must produce.
pub mod corpus {
    use crate::counters::FlopClass;
    use crate::kernel::{Kernel, ThreadCtx};
    use crate::memory::global::{GlobalAtomicF32, GlobalBuffer};
    use crate::memory::texture::Texture;

    /// Fig. 6 with the `__syncthreads()` deleted: thread 0 stages the
    /// brightness into shared memory and every lane reads it back *in the
    /// same phase*. Must produce a shared-memory `race` finding (and on
    /// the unsanitized path, a `shared_hazards` count).
    pub struct MissingBarrier<'a> {
        /// Per-block staged value (the star brightness array).
        pub src: &'a GlobalBuffer<f32>,
        /// Output image.
        pub image: &'a GlobalAtomicF32,
    }

    impl Kernel for MissingBarrier<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let b = ctx.block_linear();
            if ctx.branch(ctx.thread_linear() == 0) {
                let v = ctx.global_read(self.src, b);
                ctx.shared_write(0, v);
            }
            let v = ctx.shared_read(0); // no barrier between write and read
            let i = b * ctx.block_dim.count() + ctx.thread_linear();
            ctx.atomic_add_global(self.image, i % self.image.len(), v);
        }
    }

    /// Fig. 6 with `atomicAdd` replaced by a plain global store: every
    /// lane of a block stores to the block's pixel. Must produce a global
    /// `race` finding (same address, different lanes, non-atomic writes).
    pub struct PlainStore<'a> {
        /// Output image (one contended pixel per block).
        pub image: &'a GlobalAtomicF32,
    }

    impl Kernel for PlainStore<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let b = ctx.block_linear();
            ctx.flops(FlopClass::Add, 1);
            ctx.global_write(self.image, b % self.image.len(), ctx.thread_linear() as f32);
        }
    }

    /// ROI bounds guard written `<=` instead of `<`: the lane one past the
    /// end accumulates into `image[len]`. Must produce a global
    /// `out-of-bounds` finding (and panic the launch when unsanitized).
    pub struct RoiOffByOne<'a> {
        /// Output image; the launch covers `len + 1` linear indices.
        pub image: &'a GlobalAtomicF32,
    }

    impl Kernel for RoiOffByOne<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let i = ctx.block_linear() * ctx.block_dim.count() + ctx.thread_linear();
            // The off-by-one: `<=` admits i == len.
            if ctx.branch(i <= self.image.len()) {
                ctx.atomic_add_global(self.image, i, 1.0);
            } else {
                ctx.exit();
            }
        }
    }

    /// Thread 0 returns before the barrier the rest of the block arrives
    /// at. Must produce a `barrier-divergence` finding.
    pub struct DivergentExit;

    impl Kernel for DivergentExit {
        fn phases(&self) -> usize {
            2
        }
        fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) {
            if phase == 0 {
                if ctx.branch(ctx.thread_linear() == 0) {
                    ctx.exit();
                }
            } else {
                ctx.flops(FlopClass::Add, 1);
            }
        }
    }

    /// Reads a shared-memory word no lane ever wrote. Must produce an
    /// `uninit-shared-read` finding.
    pub struct UninitRead;

    impl Kernel for UninitRead {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let _ = ctx.shared_read(0);
        }
    }

    /// Writes one word past the block's shared-memory allocation. Must
    /// produce a shared `out-of-bounds` finding.
    pub struct SharedOob {
        /// Words the launch allocated (the kernel writes `words`).
        pub words: usize,
    }

    impl Kernel for SharedOob {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            if ctx.branch(ctx.thread_linear() == 0) {
                ctx.shared_write(self.words, 1.0);
            }
        }
    }

    /// Fetches a LUT layer past the bound table — the clamp-masked bug the
    /// static validator and memcheck both catch. Must produce a texture
    /// `out-of-bounds` finding.
    pub struct TexLayerOob<'a> {
        /// The bound lookup table.
        pub lut: &'a Texture,
    }

    impl Kernel for TexLayerOob<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let _ = ctx.tex_fetch(self.lut, self.lut.layers(), 0, 0);
        }
    }

    // ------------------------------------------------------------------
    // Performance-defect corpus (static analyzer targets). These kernels
    // are *functionally correct* — the sanitizer finds nothing — but each
    // violates one of the paper's memory-behavior rules badly enough that
    // `gpusim::analyze` must deny the launch.
    // ------------------------------------------------------------------

    /// Every lane reads `src[lane × 32]`: a 128-byte stride, so each of
    /// the 32 lanes lands in its own coalescing segment and one warp
    /// request costs 32 transactions. Must produce a deny-level
    /// `uncoalesced-global` lint. Launch with one 32-thread block and
    /// `src.len() ≥ 993`.
    pub struct Uncoalesced<'a> {
        /// Source array, read with the pathological stride.
        pub src: &'a GlobalBuffer<f32>,
        /// Output image.
        pub image: &'a GlobalAtomicF32,
    }

    impl Kernel for Uncoalesced<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let t = ctx.thread_linear();
            let v = ctx.global_read(self.src, t * 32);
            ctx.atomic_add_global(self.image, t % self.image.len(), v);
        }
    }

    /// Every lane writes then reads shared word `lane × 32`: on 32-bank
    /// hardware all 32 distinct words map to bank 0, a 32-way conflict on
    /// both accesses. Must produce a deny-level `shared-bank-conflict`
    /// lint. Launch with one 32-thread block and 1024 shared words
    /// (4096 B); the same-thread write→read pair is *not* a race, so the
    /// sanitizer stays silent.
    pub struct BankConflict<'a> {
        /// Output image.
        pub image: &'a GlobalAtomicF32,
    }

    impl Kernel for BankConflict<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let t = ctx.thread_linear();
            ctx.shared_write(t * 32, t as f32);
            let v = ctx.shared_read(t * 32);
            ctx.atomic_add_global(self.image, t % self.image.len(), v);
        }
    }

    /// Each of the 32 lanes fetches 16 texels stepped 8 apart in both
    /// axes of a 256×256 table: 512 sample points whose Morton-swizzled
    /// addresses occupy 512 distinct 128-byte lines (65 536 B) — beyond
    /// the GTX480's 51 200 B per-SM texture cache, past the paper's
    /// measured inflection point. Must produce a deny-level
    /// `texture-working-set` lint. Bind a 256×256×1 table and launch one
    /// 32-thread block.
    pub struct WorkingSetBlowout<'a> {
        /// The bound lookup table (256×256, 1 layer).
        pub lut: &'a Texture,
        /// Output image.
        pub image: &'a GlobalAtomicF32,
    }

    impl Kernel for WorkingSetBlowout<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let t = ctx.thread_linear();
            let mut acc = 0.0f32;
            for j in 0..16 {
                acc += ctx.tex_fetch(self.lut, 0, (t * 8) as i64, (j * 8) as i64);
                ctx.flops(FlopClass::Add, 1);
            }
            ctx.atomic_add_global(self.image, t % self.image.len(), acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(block: usize, epoch: u32, lane: u32, kind: AccessKind, addr: u64) -> Access {
        Access {
            block,
            epoch,
            lane,
            kind,
            addr,
        }
    }

    fn run_analyze(accesses: Vec<Access>) -> Vec<Finding> {
        let sm = SmSan {
            accesses,
            findings: Vec::new(),
            truncated: false,
        };
        analyze(&SanitizeConfig::default(), vec![sm]).0
    }

    #[test]
    fn same_epoch_shared_write_read_is_a_race() {
        let f = run_analyze(vec![
            acc(0, 0, 0, AccessKind::SharedWrite, 0),
            acc(0, 0, 5, AccessKind::SharedRead, 0),
        ]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind.class(), "race");
        match &f[0].kind {
            FindingKind::Race {
                space, addr, lanes, ..
            } => {
                assert_eq!(*space, MemSpace::Shared);
                assert_eq!(*addr, 0);
                assert_eq!(*lanes, (0, 5));
            }
            other => panic!("expected race, got {other:?}"),
        }
    }

    #[test]
    fn barrier_separated_shared_accesses_are_clean() {
        let f = run_analyze(vec![
            acc(0, 0, 0, AccessKind::SharedWrite, 0),
            acc(0, 1, 5, AccessKind::SharedRead, 0),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn same_lane_same_epoch_is_clean() {
        let f = run_analyze(vec![
            acc(0, 0, 3, AccessKind::SharedWrite, 2),
            acc(0, 0, 3, AccessKind::SharedRead, 2),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn uninit_shared_read_detected() {
        let f = run_analyze(vec![acc(0, 1, 4, AccessKind::SharedRead, 7)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind.class(), "uninit-shared-read");
    }

    #[test]
    fn later_epoch_write_does_not_initialize_earlier_read() {
        let f = run_analyze(vec![
            acc(0, 0, 4, AccessKind::SharedRead, 7),
            acc(0, 1, 0, AccessKind::SharedWrite, 7),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind.class(), "uninit-shared-read");
    }

    #[test]
    fn cross_block_global_write_conflicts() {
        let f = run_analyze(vec![
            acc(0, 0, 1, AccessKind::GlobalWrite, 0x2000),
            acc(3, 1, 9, AccessKind::GlobalRead, 0x2000),
        ]);
        assert_eq!(f.len(), 1);
        match &f[0].kind {
            FindingKind::Race { space, blocks, .. } => {
                assert_eq!(*space, MemSpace::Global);
                assert_eq!(*blocks, (0, 3));
            }
            other => panic!("expected global race, got {other:?}"),
        }
    }

    #[test]
    fn atomics_do_not_race_with_atomics_or_reads() {
        let f = run_analyze(vec![
            acc(0, 0, 1, AccessKind::GlobalAtomic, 0x2000),
            acc(3, 0, 9, AccessKind::GlobalAtomic, 0x2000),
            acc(5, 0, 2, AccessKind::GlobalRead, 0x2000),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn report_cap_truncates_deterministically() {
        let mut accesses = Vec::new();
        for w in 0..100u64 {
            accesses.push(acc(0, 1, 3, AccessKind::SharedRead, w));
        }
        let sm = SmSan {
            accesses,
            findings: Vec::new(),
            truncated: false,
        };
        let cfg = SanitizeConfig {
            max_reports: 10,
            ..SanitizeConfig::default()
        };
        let (f, n, truncated) = analyze(&cfg, vec![sm]);
        assert_eq!(f.len(), 10);
        assert_eq!(n, 100);
        assert!(truncated);
        // Sorted: lowest words survive.
        for (i, finding) in f.iter().enumerate() {
            match finding.kind {
                FindingKind::UninitSharedRead { word, .. } => assert_eq!(word, i),
                ref other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn roi_validator_rejects_oversized_roi() {
        assert!(validate_roi(10, 1024, 1024).is_ok());
        assert!(validate_roi(0, 64, 64).is_err());
        let err = validate_roi(65, 64, 128).unwrap_err();
        assert!(matches!(err, GpuError::InvalidLaunch(_)), "{err}");
        assert!(err.to_string().contains("65"));
    }

    #[test]
    fn lut_validator_rejects_out_of_table_domains() {
        let space = crate::memory::global::AddressSpace::new();
        let tex = Texture::bind(&space, 10, 10, 4, vec![0.0; 400], usize::MAX, 128).unwrap();
        assert!(validate_lut_domain(&tex, 3, 9, 9).is_ok());
        assert!(validate_lut_domain(&tex, 4, 9, 9).is_err());
        assert!(validate_lut_domain(&tex, 3, 10, 9).is_err());
        assert!(validate_lut_domain(&tex, 3, 9, 10).is_err());
    }

    #[test]
    fn findings_render_human_readable() {
        let f = Finding {
            block: 2,
            kind: FindingKind::Race {
                space: MemSpace::Shared,
                addr: 0,
                epoch: 0,
                lanes: (0, 7),
                blocks: (2, 2),
            },
        };
        let s = f.to_string();
        assert!(s.contains("race") && s.contains("lane 7"), "{s}");
    }
}
