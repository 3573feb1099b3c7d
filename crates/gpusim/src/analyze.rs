//! Static kernel analyzer: abstract interpretation of [`Kernel`] programs
//! for memory behavior, **before** anything is launched.
//!
//! The paper's central results are memory-behavior results — coalescing
//! determines global throughput (§III-B.3), the texture cache's working-set
//! inflection points determine the adaptive simulator's scaling (test 2) —
//! yet the repo could only *measure* those effects dynamically. This module
//! predicts them from kernel structure alone, so a kernel change is vetted
//! before a single frame runs.
//!
//! # Abstract domain
//!
//! The analyzer drives the kernel's real [`Kernel::run`] through a
//! side-effect-free *probe* [`crate::ThreadCtx`] (global mutation
//! suppressed, events recorded as usual) over a small deterministic set of
//! **representative blocks** — up to [`REP_BLOCKS`] linear block ids spread
//! evenly across the grid, so first/interior/grid-padding control classes
//! are all observed. Within a block, per-warp traces are aligned
//! positionally exactly like the dynamic model's
//! [`crate::warp::analyze_warp`]; each aligned position is an *access
//! site*. Warps collapse into **divergence classes** by a normalized
//! signature (event kinds, branch outcomes, bank words, segment-relative
//! address offsets per lane): one representative warp is analyzed per
//! class and its costs weighted by the class multiplicity. Lane/block
//! indices enter only through the observed addresses, and per-lane address
//! vectors are reduced with [`crate::warp::affine_stride`] — an affine
//! lane→address fit — to the coalesced / strided-k / scattered labels.
//!
//! # Prediction → measurement mapping
//!
//! Every per-site cost reuses the *same* formulas the dynamic model
//! charges at execution time — [`crate::warp::coalesce_transactions`],
//! [`crate::warp::bank_conflict_extra`],
//! [`crate::warp::atomic_serialization_extra`], and
//! [`crate::timing::occupancy()`] — so static predictions and dynamic
//! counters agree by construction wherever the sampled blocks are
//! representative. The consistency gate (`bench --analyze`) compares
//! *ratios* (transactions **per request**, conflict extra **per
//! request**), which are robust to grid-edge effects, within the
//! documented tolerances [`COALESCE_TOL`] / [`BANK_TOL`]; the texture gate
//! is asymmetric — the measured hit rate must not fall more than
//! [`TEX_HIT_TOL`] below the predicted compulsory-miss floor, because
//! cross-block reuse can only raise it. Occupancy is compared exactly: it
//! is the same function the profiler records.
//!
//! # Texture working sets and the paper's inflection points
//!
//! The per-block texture working set (distinct cache lines fetched by the
//! worst sampled block) is mapped against the per-SM cache capacity
//! ([`crate::DeviceSpec::tex_cache_per_sm_bytes`] — the exact geometry the
//! executor builds its `CacheSim`s with). The regimes mirror the paper's
//! measured test-2 inflections: performance stays flat while the lookup
//! table's per-block footprint is cache-[`CacheRegime::Resident`], knees
//! as it approaches capacity, and collapses once a single block's working
//! set exceeds the cache ([`CacheRegime::Thrashing`] — every fetch
//! round-trips to device memory).
//!
//! Determinism: the analysis is single-threaded over a fixed block set and
//! always interprets the scalar [`Kernel::run`] path, so a report is
//! bit-identical across host worker counts and kernel backends (the
//! backend is a host-arithmetic choice and is deliberately absent from the
//! report).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::device::DeviceSpec;
use crate::dim::Dim3;
use crate::error::GpuError;
use crate::kernel::{Event, Kernel, ThreadCtx};
use crate::launch::LaunchConfig;
use crate::memory::shared::SharedMem;
use crate::timing::{occupancy, Occupancy};
use crate::warp::{
    affine_stride, atomic_serialization_extra, bank_conflict_extra, coalesce_transactions,
};

/// Maximum representative blocks interpreted per analysis (spread evenly
/// across the grid; smaller grids are analyzed exhaustively).
pub const REP_BLOCKS: usize = 8;

/// Consistency-gate tolerance on global transactions **per request**:
/// representative-block sampling can miss rare alignment classes. The
/// production worst case sizes it: the 12-byte star record straddles a
/// 128-byte segment in 2 of every 32 blocks (`12·b mod 128 > 116` at
/// `b ≡ 10, 21 (mod 32)`), so the dynamic ratio sits +2/32 = 0.0625 above
/// a sample that caught no straddling block (and symmetrically below a
/// sample that over-caught them).
pub const COALESCE_TOL: f64 = 0.08;

/// Consistency-gate tolerance on shared-memory conflict extra per request.
/// Bank words are launch-invariant (they don't depend on the block id), so
/// static and dynamic agree almost exactly; the slack covers partial edge
/// warps.
pub const BANK_TOL: f64 = 0.01;

/// Consistency-gate tolerance on the texture hit rate: the measured rate
/// must satisfy `measured + TEX_HIT_TOL ≥ predicted floor`. The floor
/// counts every distinct line as a compulsory miss per block; dynamic
/// cross-block reuse can only add hits.
pub const TEX_HIT_TOL: f64 = 0.02;

/// Severity of a static finding, ordered `Info < Warn < Deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintLevel {
    /// Informational: worth knowing, expected for some kernel shapes.
    Info,
    /// Likely performance defect; the launch still proceeds.
    Warn,
    /// Performance defect severe enough that the pre-launch advisor
    /// rejects the launch with [`GpuError::InvalidLaunch`].
    Deny,
}

impl fmt::Display for LintLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintLevel::Info => "info",
            LintLevel::Warn => "warn",
            LintLevel::Deny => "deny",
        })
    }
}

/// A typed static-analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Severity.
    pub level: LintLevel,
    /// Stable machine-readable class, e.g. `"uncoalesced-global"`.
    pub code: &'static str,
    /// Human-readable explanation with the numbers that triggered it.
    pub message: String,
    /// Kernel phase of the offending site (`usize::MAX` for
    /// whole-kernel findings like occupancy).
    pub phase: usize,
    /// Aligned warp-instruction position of the offending site
    /// (`usize::MAX` for whole-kernel findings).
    pub position: usize,
}

/// What kind of access a site performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    /// Global-memory load.
    GlobalRead,
    /// Global-memory plain store.
    GlobalWrite,
    /// Shared-memory load.
    SharedRead,
    /// Shared-memory store.
    SharedWrite,
    /// Global-memory `atomicAdd`.
    Atomic,
    /// Texture fetch.
    Texture,
    /// Data-dependent branch.
    Branch,
}

impl SiteKind {
    fn rank(self) -> u8 {
        match self {
            SiteKind::GlobalRead => 0,
            SiteKind::GlobalWrite => 1,
            SiteKind::SharedRead => 2,
            SiteKind::SharedWrite => 3,
            SiteKind::Atomic => 4,
            SiteKind::Texture => 5,
            SiteKind::Branch => 6,
        }
    }
}

impl fmt::Display for SiteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SiteKind::GlobalRead => "global-read",
            SiteKind::GlobalWrite => "global-write",
            SiteKind::SharedRead => "shared-read",
            SiteKind::SharedWrite => "shared-write",
            SiteKind::Atomic => "atomic",
            SiteKind::Texture => "texture",
            SiteKind::Branch => "branch",
        })
    }
}

/// Classified per-warp access pattern of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Every active lane touches the same address/word (hardware
    /// broadcast — one transaction, no conflict).
    Broadcast,
    /// Affine lane→address map with stride = element size: adjacent lanes
    /// touch adjacent elements, the minimal-transaction pattern.
    Coalesced,
    /// Affine lane→address map with the given byte stride ≠ element size.
    Strided(i64),
    /// No affine fit: transaction count is data-dependent.
    Scattered,
    /// Shared-memory accesses serialized to the given degree (distinct
    /// words on one bank).
    Conflict(u32),
}

impl AccessPattern {
    fn severity(self) -> u64 {
        match self {
            AccessPattern::Broadcast => 0,
            AccessPattern::Coalesced => 1,
            AccessPattern::Strided(_) => 2,
            AccessPattern::Conflict(d) => 2 + d as u64,
            AccessPattern::Scattered => u64::MAX,
        }
    }

    /// The worse (more expensive) of two patterns.
    fn worst(self, other: AccessPattern) -> AccessPattern {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPattern::Broadcast => f.write_str("broadcast"),
            AccessPattern::Coalesced => f.write_str("coalesced"),
            AccessPattern::Strided(s) => write!(f, "strided-{s}"),
            AccessPattern::Scattered => f.write_str("scattered"),
            AccessPattern::Conflict(d) => write!(f, "conflict-{d}-way"),
        }
    }
}

/// Aggregated statistics of one access site (one aligned warp-instruction
/// position of one phase) across every sampled warp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSite {
    /// Kernel phase.
    pub phase: usize,
    /// Aligned warp-instruction position within the phase.
    pub position: usize,
    /// Access kind.
    pub kind: SiteKind,
    /// Worst pattern observed across sampled warps.
    pub pattern: AccessPattern,
    /// Warp-level requests (one per sampled warp executing the site).
    pub requests: u64,
    /// Global-memory transactions those requests cost (global sites).
    pub transactions: u64,
    /// Extra serialized cycles (shared bank conflicts / atomic
    /// same-address serialization).
    pub extra: u64,
    /// Largest active-lane count observed at this site.
    pub max_active_lanes: u32,
    /// Divergent executions (branch sites: warps where both outcomes
    /// occurred).
    pub divergent: u64,
}

/// Predicted texture-cache regime of the per-block working set, mapped
/// against the paper's measured test-2 inflection points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheRegime {
    /// Working set ≤ half the per-SM cache: fully resident, the flat
    /// region of the paper's curves.
    Resident,
    /// Working set within (half, full] capacity: the knee — conflict
    /// misses start, throughput becomes alignment-sensitive.
    NearCapacity,
    /// A single block's working set exceeds the per-SM cache: past the
    /// inflection point, every fetch round-trips to device memory.
    Thrashing,
}

impl fmt::Display for CacheRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheRegime::Resident => "resident",
            CacheRegime::NearCapacity => "near-capacity",
            CacheRegime::Thrashing => "thrashing",
        })
    }
}

/// Predicted per-block texture working set.
#[derive(Debug, Clone, PartialEq)]
pub struct TextureFootprint {
    /// Distinct cache lines fetched by the worst sampled block.
    pub lines_per_block: u64,
    /// `lines_per_block × line bytes`.
    pub bytes_per_block: u64,
    /// Texture fetches issued by that block.
    pub fetches_per_block: u64,
    /// Per-SM cache capacity the working set competes for.
    pub per_sm_capacity_bytes: u64,
    /// Predicted cache regime.
    pub regime: CacheRegime,
    /// Predicted hit-rate floor: `1 − lines/fetches` (compulsory misses
    /// only; 0 when thrashing — no reuse is guaranteed past capacity).
    pub hit_rate_floor: f64,
}

/// The scalar predictions the consistency gate compares against dynamic
/// counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Global transactions per warp-level request (reads + plain writes).
    pub global_tx_per_request: f64,
    /// Shared-memory conflict extra per request.
    pub shared_extra_per_request: f64,
    /// Atomic serialization extra per request.
    pub atomic_extra_per_request: f64,
    /// Fraction of branch executions that diverge.
    pub divergent_branch_fraction: f64,
    /// Texture hit-rate floor (1.0 when the kernel fetches no textures).
    pub tex_hit_rate_floor: f64,
    /// Static occupancy fraction (same function the profiler records).
    pub occupancy_fraction: f64,
}

/// The deterministic result of statically analyzing one
/// (kernel, [`LaunchConfig`], [`DeviceSpec`]) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    /// Kernel name (the launch name the caller would use).
    pub kernel: String,
    /// Device analyzed against.
    pub device: String,
    /// Launch grid.
    pub grid: Dim3,
    /// Launch block.
    pub block: Dim3,
    /// Per-block shared memory, bytes.
    pub shared_mem_bytes: usize,
    /// Kernel phases.
    pub phases: usize,
    /// Linear ids of the representative blocks interpreted.
    pub sampled_blocks: Vec<usize>,
    /// Distinct warp divergence classes observed.
    pub warp_classes: usize,
    /// Static occupancy (identical to the dynamic profile's).
    pub occupancy: Occupancy,
    /// Access sites, ordered by (phase, position, kind).
    pub sites: Vec<AccessSite>,
    /// Texture working-set prediction (kernels that fetch textures).
    pub texture: Option<TextureFootprint>,
    /// Gate-comparable scalar predictions.
    pub prediction: Prediction,
    /// Findings, ordered most severe first.
    pub lints: Vec<Lint>,
}

impl KernelReport {
    /// Number of findings at `level`.
    pub fn count(&self, level: LintLevel) -> usize {
        self.lints.iter().filter(|l| l.level == level).count()
    }

    /// Whether any deny-level finding is present (the pre-launch advisor
    /// rejects such launches).
    pub fn has_deny(&self) -> bool {
        self.lints.iter().any(|l| l.level == LintLevel::Deny)
    }

    /// Renders the report as the human-readable summary shown by
    /// `bench --analyze` (and quoted in the README).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "kernel `{}` on {} — grid {}x{}x{}, block {}x{}x{}, {} phase(s), \
             {} warp class(es) over {} sampled block(s)\n",
            self.kernel,
            self.device,
            self.grid.x,
            self.grid.y,
            self.grid.z,
            self.block.x,
            self.block.y,
            self.block.z,
            self.phases,
            self.warp_classes,
            self.sampled_blocks.len(),
        ));
        out.push_str(&format!(
            "  occupancy {:.3} ({} blocks/SM, {} warps/SM)\n",
            self.occupancy.fraction, self.occupancy.blocks_per_sm, self.occupancy.warps_per_sm,
        ));
        out.push_str(&format!(
            "  global {:.3} tx/req · shared {:.3} extra/req · atomics {:.3} extra/req · \
             divergent branches {:.1}%\n",
            self.prediction.global_tx_per_request,
            self.prediction.shared_extra_per_request,
            self.prediction.atomic_extra_per_request,
            100.0 * self.prediction.divergent_branch_fraction,
        ));
        if let Some(t) = &self.texture {
            out.push_str(&format!(
                "  texture: {} lines/block ({} B) of {} B per-SM cache — {}; \
                 hit-rate floor {:.3}\n",
                t.lines_per_block,
                t.bytes_per_block,
                t.per_sm_capacity_bytes,
                t.regime,
                t.hit_rate_floor,
            ));
        }
        out.push_str(&format!(
            "  lints: {} deny, {} warn, {} info\n",
            self.count(LintLevel::Deny),
            self.count(LintLevel::Warn),
            self.count(LintLevel::Info),
        ));
        for l in &self.lints {
            out.push_str(&format!("    {}[{}] {}\n", l.level, l.code, l.message));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Warp divergence-class signatures.
// ---------------------------------------------------------------------

/// One normalized operation of a warp signature: everything the cost
/// formulas depend on, with absolute addresses reduced to
/// segment-alignment + per-lane offsets so same-shaped warps across the
/// grid collapse into one class.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SigOp {
    Flop {
        lanes: u32,
    },
    Global {
        write: bool,
        align: u64,
        offs: Vec<(u64, u16)>,
    },
    Shared {
        write: bool,
        words: Vec<u32>,
    },
    Tex {
        line_offs: Vec<u64>,
    },
    Atomic {
        offs: Vec<u64>,
    },
    Branch {
        taken: Vec<bool>,
    },
}

/// Per-position cost of a warp class — the quantities `apply` folds into
/// sites and totals.
#[derive(Debug, Clone)]
struct PosCost {
    position: usize,
    kind: SiteKind,
    pattern: AccessPattern,
    transactions: u64,
    extra: u64,
    active: u32,
    divergent: bool,
}

struct WarpClass {
    phase: usize,
    sig: Vec<Vec<SigOp>>,
    multiplicity: u64,
}

#[derive(Default)]
struct BlockObservation {
    tex_lines: BTreeSet<u64>,
    tex_fetches: u64,
}

#[derive(Default)]
struct Accumulator {
    classes: Vec<WarpClass>,
    sites: BTreeMap<(usize, usize, u8), AccessSite>,
    global_requests: u64,
    global_transactions: u64,
    shared_requests: u64,
    shared_extra: u64,
    atomic_requests: u64,
    atomic_extra: u64,
    branches: u64,
    divergent: u64,
}

impl Accumulator {
    /// Folds one warp's aligned trace into the accumulator: looks up (or
    /// creates) its divergence class and applies the class costs once.
    fn note_warp(&mut self, phase: usize, traces: &[Vec<Event>], spec: &DeviceSpec) {
        let (sig, costs) = analyze_traces(traces, spec);
        self.apply(phase, &costs);
        if let Some(c) = self
            .classes
            .iter_mut()
            .find(|c| c.phase == phase && c.sig == sig)
        {
            c.multiplicity += 1;
        } else {
            self.classes.push(WarpClass {
                phase,
                sig,
                multiplicity: 1,
            });
        }
    }

    fn apply(&mut self, phase: usize, costs: &[PosCost]) {
        for c in costs {
            match c.kind {
                SiteKind::GlobalRead | SiteKind::GlobalWrite => {
                    self.global_requests += 1;
                    self.global_transactions += c.transactions;
                }
                SiteKind::SharedRead | SiteKind::SharedWrite => {
                    self.shared_requests += 1;
                    self.shared_extra += c.extra;
                }
                SiteKind::Atomic => {
                    self.atomic_requests += 1;
                    self.atomic_extra += c.extra;
                }
                SiteKind::Texture => {}
                SiteKind::Branch => {
                    self.branches += 1;
                    self.divergent += u64::from(c.divergent);
                }
            }
            let site = self
                .sites
                .entry((phase, c.position, c.kind.rank()))
                .or_insert(AccessSite {
                    phase,
                    position: c.position,
                    kind: c.kind,
                    pattern: c.pattern,
                    requests: 0,
                    transactions: 0,
                    extra: 0,
                    max_active_lanes: 0,
                    divergent: 0,
                });
            site.pattern = site.pattern.worst(c.pattern);
            site.requests += 1;
            site.transactions += c.transactions;
            site.extra += c.extra;
            site.max_active_lanes = site.max_active_lanes.max(c.active);
            site.divergent += u64::from(c.divergent);
        }
    }
}

/// Builds the normalized signature and per-position costs of one warp's
/// aligned traces (same positional alignment as
/// [`crate::warp::analyze_warp`]).
fn analyze_traces(traces: &[Vec<Event>], spec: &DeviceSpec) -> (Vec<Vec<SigOp>>, Vec<PosCost>) {
    let max_len = traces.iter().map(Vec::len).max().unwrap_or(0);
    let seg = spec.coalesce_segment as u64;
    let line = spec.tex_cache_line as u64;
    let mut sig = Vec::with_capacity(max_len);
    let mut costs = Vec::new();

    for pos in 0..max_len {
        let at: Vec<&Event> = traces.iter().filter_map(|t| t.get(pos)).collect();
        let mut ops: Vec<SigOp> = Vec::new();

        let mut flop_lanes = 0u32;
        let mut reads: Vec<(u64, u16)> = Vec::new();
        let mut writes: Vec<(u64, u16)> = Vec::new();
        let mut shared_reads: Vec<u32> = Vec::new();
        let mut shared_writes: Vec<u32> = Vec::new();
        let mut tex: Vec<u64> = Vec::new();
        let mut atomics: Vec<u64> = Vec::new();
        let mut taken: Vec<bool> = Vec::new();
        for e in &at {
            match **e {
                Event::Flop { .. } => flop_lanes += 1,
                Event::GlobalRead { addr, bytes } => reads.push((addr, bytes)),
                Event::GlobalWrite { addr, bytes } => writes.push((addr, bytes)),
                Event::SharedRead { word } => shared_reads.push(word),
                Event::SharedWrite { word } => shared_writes.push(word),
                Event::TexFetch { addr } => tex.push(addr),
                Event::AtomicAdd { addr } => atomics.push(addr),
                Event::Branch { taken: t } => taken.push(t),
            }
        }

        if flop_lanes > 0 {
            ops.push(SigOp::Flop { lanes: flop_lanes });
        }
        for (write, accesses) in [(false, &reads), (true, &writes)] {
            if accesses.is_empty() {
                continue;
            }
            let min = accesses.iter().map(|&(a, _)| a).min().unwrap_or(0);
            ops.push(SigOp::Global {
                write,
                align: min % seg,
                offs: accesses.iter().map(|&(a, b)| (a - min, b)).collect(),
            });
            let addrs: Vec<u64> = accesses.iter().map(|&(a, _)| a).collect();
            costs.push(PosCost {
                position: pos,
                kind: if write {
                    SiteKind::GlobalWrite
                } else {
                    SiteKind::GlobalRead
                },
                pattern: classify_global(&addrs, accesses[0].1),
                transactions: coalesce_transactions(accesses, spec.coalesce_segment),
                extra: 0,
                active: accesses.len() as u32,
                divergent: false,
            });
        }
        for (write, words) in [(false, &shared_reads), (true, &shared_writes)] {
            if words.is_empty() {
                continue;
            }
            ops.push(SigOp::Shared {
                write,
                words: (*words).clone(),
            });
            let extra = bank_conflict_extra(words, spec.shared_mem_banks);
            let broadcast = words.iter().all(|&w| w == words[0]);
            costs.push(PosCost {
                position: pos,
                kind: if write {
                    SiteKind::SharedWrite
                } else {
                    SiteKind::SharedRead
                },
                pattern: if broadcast {
                    AccessPattern::Broadcast
                } else if extra == 0 {
                    AccessPattern::Coalesced
                } else {
                    AccessPattern::Conflict(extra as u32 + 1)
                },
                transactions: 0,
                extra,
                active: words.len() as u32,
                divergent: false,
            });
        }
        if !tex.is_empty() {
            let min_line = tex.iter().map(|&a| a / line).min().unwrap_or(0);
            ops.push(SigOp::Tex {
                line_offs: tex.iter().map(|&a| a / line - min_line).collect(),
            });
            costs.push(PosCost {
                position: pos,
                kind: SiteKind::Texture,
                pattern: classify_global(&tex, 4),
                transactions: 0,
                extra: 0,
                active: tex.len() as u32,
                divergent: false,
            });
        }
        if !atomics.is_empty() {
            let min = atomics.iter().copied().min().unwrap_or(0);
            ops.push(SigOp::Atomic {
                offs: atomics.iter().map(|&a| a - min).collect(),
            });
            costs.push(PosCost {
                position: pos,
                kind: SiteKind::Atomic,
                pattern: classify_global(&atomics, 4),
                transactions: 0,
                extra: atomic_serialization_extra(&atomics),
                active: atomics.len() as u32,
                divergent: false,
            });
        }
        if !taken.is_empty() {
            ops.push(SigOp::Branch {
                taken: taken.clone(),
            });
            let divergent = taken.iter().any(|&t| t) && taken.iter().any(|&t| !t);
            costs.push(PosCost {
                position: pos,
                kind: SiteKind::Branch,
                pattern: if divergent {
                    AccessPattern::Scattered
                } else {
                    AccessPattern::Broadcast
                },
                transactions: 0,
                extra: 0,
                active: taken.len() as u32,
                divergent,
            });
        }
        sig.push(ops);
    }
    (sig, costs)
}

/// Classifies one warp's per-lane addresses via the affine fit.
fn classify_global(addrs: &[u64], elem_bytes: u16) -> AccessPattern {
    if addrs.len() > 1 && addrs.iter().all(|&a| a == addrs[0]) {
        return AccessPattern::Broadcast;
    }
    match affine_stride(addrs) {
        Some(s) if addrs.len() < 2 || s.unsigned_abs() == elem_bytes as u64 => {
            AccessPattern::Coalesced
        }
        Some(s) => AccessPattern::Strided(s),
        None => AccessPattern::Scattered,
    }
}

// ---------------------------------------------------------------------
// The interpreter.
// ---------------------------------------------------------------------

/// The deterministic representative-block sample: up to [`REP_BLOCKS`]
/// linear ids spread evenly across the grid (always including the first
/// and last block, so grid-padding control classes are observed).
fn representative_blocks(total: usize) -> Vec<usize> {
    if total <= REP_BLOCKS {
        return (0..total).collect();
    }
    let mut ids: Vec<usize> = (0..REP_BLOCKS)
        .map(|i| i * (total - 1) / (REP_BLOCKS - 1))
        .collect();
    ids.dedup();
    ids
}

/// Interprets one block through probe contexts, mirroring the reference
/// executor's warp/phase structure exactly.
fn interpret_block<K: Kernel + ?Sized>(
    kernel: &K,
    cfg: &LaunchConfig,
    spec: &DeviceSpec,
    block_linear: usize,
    acc: &mut Accumulator,
) -> BlockObservation {
    let threads = cfg.threads_per_block();
    let warp = spec.warp_size as usize;
    let phases = kernel.phases();
    let shared = SharedMem::new(cfg.shared_mem_bytes / 4);
    let block_idx = cfg.grid.delinearize(block_linear);
    let mut exited = vec![false; threads];
    let mut obs = BlockObservation::default();
    let line = spec.tex_cache_line as u64;

    for phase in 0..phases {
        if phase > 0 {
            shared.barrier();
        }
        for warp_start in (0..threads).step_by(warp) {
            let lanes = warp.min(threads - warp_start);
            let mut traces: Vec<Vec<Event>> = vec![Vec::new(); lanes];
            let mut any_live = false;
            for (lane, trace) in traces.iter_mut().enumerate() {
                let t = warp_start + lane;
                if exited[t] {
                    continue;
                }
                any_live = true;
                let thread_idx = cfg.block.delinearize(t);
                let mut ctx = ThreadCtx::new(
                    thread_idx,
                    block_idx,
                    cfg.block,
                    cfg.grid,
                    &shared,
                    Vec::new(),
                );
                ctx.set_probe();
                kernel.run(phase, &mut ctx);
                if ctx.exited() {
                    exited[t] = true;
                }
                *trace = ctx.take_events();
            }
            if !any_live {
                continue;
            }
            for trace in &traces {
                for e in trace {
                    if let Event::TexFetch { addr } = e {
                        obs.tex_lines.insert(addr / line);
                        obs.tex_fetches += 1;
                    }
                }
            }
            acc.note_warp(phase, &traces, spec);
        }
    }
    obs
}

// ---------------------------------------------------------------------
// Lint rules.
// ---------------------------------------------------------------------

fn lint_sites(sites: &BTreeMap<(usize, usize, u8), AccessSite>, spec: &DeviceSpec) -> Vec<Lint> {
    let mut lints = Vec::new();
    let half_warp = spec.warp_size as f64 / 2.0;
    for site in sites.values() {
        match site.kind {
            SiteKind::GlobalRead | SiteKind::GlobalWrite => {
                let avg_tx = site.transactions as f64 / site.requests as f64;
                if avg_tx >= half_warp && site.max_active_lanes >= 16 {
                    lints.push(Lint {
                        level: LintLevel::Deny,
                        code: "uncoalesced-global",
                        message: format!(
                            "{} at phase {} pos {} costs {avg_tx:.1} transactions per \
                             warp request ({} pattern, {} active lanes) — \
                             fully serialized global traffic",
                            site.kind,
                            site.phase,
                            site.position,
                            site.pattern,
                            site.max_active_lanes
                        ),
                        phase: site.phase,
                        position: site.position,
                    });
                } else if avg_tx >= 4.0 && site.max_active_lanes >= 8 {
                    lints.push(Lint {
                        level: LintLevel::Warn,
                        code: "strided-global",
                        message: format!(
                            "{} at phase {} pos {} costs {avg_tx:.1} transactions per \
                             warp request ({} pattern)",
                            site.kind, site.phase, site.position, site.pattern
                        ),
                        phase: site.phase,
                        position: site.position,
                    });
                }
            }
            SiteKind::SharedRead | SiteKind::SharedWrite => {
                let degree = site.extra as f64 / site.requests as f64 + 1.0;
                if degree >= 8.0 {
                    lints.push(Lint {
                        level: LintLevel::Deny,
                        code: "shared-bank-conflict",
                        message: format!(
                            "{} at phase {} pos {} serializes {degree:.0}-way on \
                             {}-bank shared memory",
                            site.kind, site.phase, site.position, spec.shared_mem_banks
                        ),
                        phase: site.phase,
                        position: site.position,
                    });
                } else if degree >= 2.0 {
                    lints.push(Lint {
                        level: LintLevel::Warn,
                        code: "shared-bank-conflict",
                        message: format!(
                            "{} at phase {} pos {} averages {degree:.1}-way bank conflicts",
                            site.kind, site.phase, site.position
                        ),
                        phase: site.phase,
                        position: site.position,
                    });
                }
            }
            SiteKind::Atomic => {
                let extra = site.extra as f64 / site.requests as f64;
                if extra >= 1.0 {
                    lints.push(Lint {
                        level: LintLevel::Warn,
                        code: "atomic-serialization",
                        message: format!(
                            "atomic at phase {} pos {} serializes {extra:.1} extra \
                             steps per warp (same-address contention)",
                            site.phase, site.position
                        ),
                        phase: site.phase,
                        position: site.position,
                    });
                }
            }
            SiteKind::Texture | SiteKind::Branch => {}
        }
    }
    lints
}

/// Statically analyzes `kernel` under `cfg` on `spec`.
///
/// Validates the launch shape first (the same check the executor runs),
/// then interprets the representative blocks and emits the
/// [`KernelReport`]. The analysis itself cannot fail; only an invalid
/// launch shape returns an error.
pub fn analyze_kernel<K: Kernel>(
    name: &str,
    kernel: &K,
    cfg: &LaunchConfig,
    spec: &DeviceSpec,
) -> Result<KernelReport, GpuError> {
    cfg.validate(spec)?;

    let total_blocks = cfg.total_blocks();
    let sampled = representative_blocks(total_blocks);
    let mut acc = Accumulator::default();
    let mut worst: Option<TextureFootprint> = None;
    let per_sm = spec.tex_cache_per_sm_bytes() as u64;
    let line = spec.tex_cache_line as u64;

    for &b in &sampled {
        let obs = interpret_block(kernel, cfg, spec, b, &mut acc);
        if obs.tex_fetches == 0 {
            continue;
        }
        let lines = obs.tex_lines.len() as u64;
        let bytes = lines * line;
        let regime = if bytes > per_sm {
            CacheRegime::Thrashing
        } else if bytes * 2 > per_sm {
            CacheRegime::NearCapacity
        } else {
            CacheRegime::Resident
        };
        let floor = if regime == CacheRegime::Thrashing {
            0.0
        } else {
            (1.0 - lines as f64 / obs.tex_fetches as f64).max(0.0)
        };
        let footprint = TextureFootprint {
            lines_per_block: lines,
            bytes_per_block: bytes,
            fetches_per_block: obs.tex_fetches,
            per_sm_capacity_bytes: per_sm,
            regime,
            hit_rate_floor: floor,
        };
        let replace = match &worst {
            Some(w) => footprint.lines_per_block > w.lines_per_block,
            None => true,
        };
        if replace {
            worst = Some(footprint);
        }
    }

    let occ = occupancy(spec, cfg);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let prediction = Prediction {
        global_tx_per_request: ratio(acc.global_transactions, acc.global_requests),
        shared_extra_per_request: ratio(acc.shared_extra, acc.shared_requests),
        atomic_extra_per_request: ratio(acc.atomic_extra, acc.atomic_requests),
        divergent_branch_fraction: ratio(acc.divergent, acc.branches),
        tex_hit_rate_floor: worst.as_ref().map_or(1.0, |t| t.hit_rate_floor),
        occupancy_fraction: occ.fraction,
    };

    let mut lints = lint_sites(&acc.sites, spec);
    if let Some(t) = &worst {
        match t.regime {
            CacheRegime::Thrashing => lints.push(Lint {
                level: LintLevel::Deny,
                code: "texture-working-set",
                message: format!(
                    "per-block texture working set {} B exceeds the {} B per-SM cache — \
                     past the paper's inflection point, every fetch misses",
                    t.bytes_per_block, t.per_sm_capacity_bytes
                ),
                phase: usize::MAX,
                position: usize::MAX,
            }),
            CacheRegime::NearCapacity => lints.push(Lint {
                level: LintLevel::Warn,
                code: "texture-working-set",
                message: format!(
                    "per-block texture working set {} B is within 2x of the {} B \
                     per-SM cache — at the knee of the paper's measured curve",
                    t.bytes_per_block, t.per_sm_capacity_bytes
                ),
                phase: usize::MAX,
                position: usize::MAX,
            }),
            CacheRegime::Resident => {}
        }
    }
    if prediction.divergent_branch_fraction > 0.5 {
        lints.push(Lint {
            level: LintLevel::Warn,
            code: "branch-divergence",
            message: format!(
                "{:.0}% of branch executions diverge",
                100.0 * prediction.divergent_branch_fraction
            ),
            phase: usize::MAX,
            position: usize::MAX,
        });
    } else if prediction.divergent_branch_fraction > 0.1 {
        lints.push(Lint {
            level: LintLevel::Info,
            code: "branch-divergence",
            message: format!(
                "{:.0}% of branch executions diverge",
                100.0 * prediction.divergent_branch_fraction
            ),
            phase: usize::MAX,
            position: usize::MAX,
        });
    }
    if occ.fraction < 0.25 {
        lints.push(Lint {
            level: LintLevel::Warn,
            code: "low-occupancy",
            message: format!(
                "occupancy {:.2} ({} warps/SM of {}) — latency hiding is starved",
                occ.fraction, occ.warps_per_sm, spec.max_warps_per_sm
            ),
            phase: usize::MAX,
            position: usize::MAX,
        });
    } else if occ.fraction < 0.5 {
        lints.push(Lint {
            level: LintLevel::Info,
            code: "low-occupancy",
            message: format!(
                "occupancy {:.2} ({} warps/SM of {})",
                occ.fraction, occ.warps_per_sm, spec.max_warps_per_sm
            ),
            phase: usize::MAX,
            position: usize::MAX,
        });
    }
    // Most severe first; ties ordered by code then site, so the report is
    // deterministic down to the byte.
    lints.sort_by(|a, b| {
        b.level
            .cmp(&a.level)
            .then_with(|| a.code.cmp(b.code))
            .then_with(|| (a.phase, a.position).cmp(&(b.phase, b.position)))
    });

    Ok(KernelReport {
        kernel: name.to_string(),
        device: spec.name.to_string(),
        grid: cfg.grid,
        block: cfg.block,
        shared_mem_bytes: cfg.shared_mem_bytes,
        phases: kernel.phases(),
        sampled_blocks: sampled,
        warp_classes: acc.classes.len(),
        occupancy: occ,
        sites: acc.sites.into_values().collect(),
        texture: worst,
        prediction,
        lints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::FlopClass;
    use crate::memory::global::{GlobalAtomicF32, GlobalBuffer};

    struct CoalescedRead<'a> {
        src: &'a GlobalBuffer<f32>,
        dst: &'a GlobalAtomicF32,
    }

    impl Kernel for CoalescedRead<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let t = ctx.thread_linear();
            let v = ctx.global_read(self.src, t);
            ctx.flops(FlopClass::Add, 1);
            ctx.atomic_add_global(self.dst, t, v);
        }
    }

    struct StridedRead<'a> {
        src: &'a GlobalBuffer<f32>,
        dst: &'a GlobalAtomicF32,
    }

    impl Kernel for StridedRead<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let t = ctx.thread_linear();
            let v = ctx.global_read(self.src, t * 32);
            ctx.atomic_add_global(self.dst, t, v);
        }
    }

    fn gpu_parts(words: usize) -> (crate::exec::VirtualGpu, GlobalAtomicF32) {
        let gpu = crate::exec::VirtualGpu::gtx480();
        let dst = gpu.alloc_atomic_f32(words);
        (gpu, dst)
    }

    #[test]
    fn coalesced_kernel_is_clean_and_probe_leaves_memory_untouched() {
        let (gpu, dst) = gpu_parts(64);
        let (src, _) = gpu.upload(vec![1.0f32; 64]);
        let k = CoalescedRead {
            src: &src,
            dst: &dst,
        };
        let cfg = LaunchConfig::new(2u32, 32u32);
        let report = analyze_kernel("coalesced", &k, &cfg, gpu.spec()).unwrap();
        assert!(!report.has_deny(), "{:#?}", report.lints);
        assert!((report.prediction.global_tx_per_request - 1.0).abs() < 1e-12);
        let site = &report.sites[0];
        assert_eq!(site.pattern, AccessPattern::Coalesced);
        // Probe interpretation must not have touched the output image.
        let host = gpu.try_download(&dst).unwrap().0;
        assert!(host.iter().all(|&v| v == 0.0), "probe mutated memory");
    }

    #[test]
    fn strided_kernel_is_denied() {
        let (gpu, dst) = gpu_parts(32);
        let (src, _) = gpu.upload(vec![1.0f32; 32 * 32]);
        let k = StridedRead {
            src: &src,
            dst: &dst,
        };
        let cfg = LaunchConfig::new(1u32, 32u32);
        let report = analyze_kernel("strided", &k, &cfg, gpu.spec()).unwrap();
        assert!(report.has_deny());
        assert_eq!(report.lints[0].code, "uncoalesced-global");
        assert!(matches!(
            report.sites[0].pattern,
            AccessPattern::Strided(128)
        ));
        // The advisor surfaces the denial as InvalidLaunch.
        let err = gpu.advise_launch("strided", &k, &cfg).unwrap_err();
        assert!(matches!(err, GpuError::InvalidLaunch(_)), "{err}");
    }

    #[test]
    fn reports_are_deterministic_and_backend_free() {
        let (gpu, dst) = gpu_parts(64);
        let (src, _) = gpu.upload(vec![1.0f32; 64]);
        let k = CoalescedRead {
            src: &src,
            dst: &dst,
        };
        let cfg = LaunchConfig::new(2u32, 32u32);
        let a = analyze_kernel("k", &k, &cfg, gpu.spec()).unwrap();
        let b = analyze_kernel(
            "k",
            &k,
            &cfg.with_backend(crate::kernel::KernelBackend::Simd),
            gpu.spec(),
        )
        .unwrap();
        assert_eq!(a, b, "backend must not enter the report");
    }

    #[test]
    fn representative_blocks_cover_first_and_last() {
        assert_eq!(representative_blocks(3), vec![0, 1, 2]);
        let ids = representative_blocks(10_000);
        assert_eq!(ids.len(), REP_BLOCKS);
        assert_eq!(ids[0], 0);
        assert_eq!(*ids.last().unwrap(), 9_999);
    }

    #[test]
    fn occupancy_matches_the_timing_model() {
        let spec = DeviceSpec::gtx480();
        let cfg = LaunchConfig::star_centric(512, 10, &spec);
        let (gpu, dst) = gpu_parts(512);
        let (src, _) = gpu.upload(vec![0.5f32; 51_200]);
        let k = CoalescedRead {
            src: &src,
            dst: &dst,
        };
        let report = analyze_kernel("occ", &k, &cfg, &spec).unwrap();
        assert_eq!(report.occupancy, occupancy(&spec, &cfg));
    }
}
