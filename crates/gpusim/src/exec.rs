//! The virtual GPU: device object, memory management, and kernel launches.
//!
//! Blocks are scheduled the way Fermi's GigaThread engine does it to first
//! order: block `b` runs on SM `b mod sm_count`, and each virtual SM
//! processes its blocks in issue order. The batched executor parallelizes
//! its counter pass over *SMs* (not blocks), which keeps every per-SM
//! structure — notably the texture cache — free of cross-thread
//! interleaving, so counter results are deterministic regardless of how
//! many host cores run the simulation; its deposit pass parallelizes over
//! disjoint bands of output rows, each adding the blocks in index order.
//! The reference and sanitized executors walk the blocks in index order
//! on the launching thread. Every executor therefore adds each pixel's
//! values in block order — one image per launch — except a batched launch
//! on the per-thread route, which keeps that only for kernels whose
//! threads write disjoint pixels.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::analyze::{KernelReport, LintLevel};
use crate::counters::Counters;
use crate::device::DeviceSpec;
#[cfg(test)]
use crate::dim::Dim3;
use crate::error::GpuError;
use crate::fault::{ArmedFaults, FaultKind, FaultPlan};
use crate::kernel::{BlockCtx, Event, Kernel, ThreadCtx};
use crate::launch::LaunchConfig;
use crate::memory::cache::CacheSim;
use crate::memory::global::{chunk_checksums_host, AddressSpace, GlobalAtomicF32, GlobalBuffer};
use crate::memory::shared::SharedMem;
use crate::memory::texture::Texture;
use crate::memory::transfer::{MemcpyKind, TransferModel};
use crate::pool::{default_workers, spawn_parallel_for_static, PoolTimeout, WorkerPool};
use crate::profiler::{KernelProfile, UtilizationSink};
use crate::sanitize::{
    self, Access, AccessKind, Finding, FindingKind, LaneHooks, SanitizeConfig, SanitizeReport,
    SmSan,
};
use crate::telemetry::{now_us, GpuTelemetry, LaunchTrace};
use crate::timing::{kernel_time, occupancy, CostModel};
use crate::warp::analyze_warp;

/// Host wall-clock stamps the executors record for one launch (the
/// dispatch window, and on the batched two-pass route the deposit pass as
/// the merge window). `Cell`s: only the launching thread writes them.
#[derive(Default)]
struct LaunchStamps {
    dispatch_start: std::cell::Cell<u64>,
    dispatch_end: std::cell::Cell<u64>,
    merge_start: std::cell::Cell<u64>,
    merge_end: std::cell::Cell<u64>,
}

impl LaunchStamps {
    fn window(start: u64, end: u64) -> Option<(u64, u64)> {
        (end > 0 && end >= start).then_some((start, end))
    }

    fn dispatch(&self) -> Option<(u64, u64)> {
        Self::window(self.dispatch_start.get(), self.dispatch_end.get())
    }

    fn merge(&self) -> Option<(u64, u64)> {
        Self::window(self.merge_start.get(), self.merge_end.get())
    }
}

/// Values per transfer-verification chunk (16 KiB of `f32`): coarse enough
/// that the checksum pass is a small fraction of the copy it guards, fine
/// enough that a corruption report localizes the damage.
const TRANSFER_CHUNK: usize = 4096;

/// How the executor runs a launch on the host.
///
/// All modes produce identical counters and identical modeled times at
/// every worker count; they differ only in host wall-clock cost. Each also
/// renders one image per launch, except that a batched launch on the
/// per-thread route whose blocks add into shared cells (cross-block
/// atomics) gets an add order host scheduling sets at two or more workers
/// (see [`Kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Per-thread interpretation with event traces fed through the warp
    /// analyzer — the semantic ground truth. Slow but fully general.
    Reference,
    /// Block-batched fast path: kernels whose [`Kernel::deposit_rows`]
    /// takes the launch run a counter pass ([`Kernel::run_block`], a whole
    /// block per call with analytic counter accounting) and a banded
    /// deposit pass ([`Kernel::deposit`]); other kernels run every block
    /// on the reference path inside the counter pass's SM schedule.
    #[default]
    Batched,
    /// The reference path with the sanitizer attached: every memory access
    /// feeds shadow access sets (racecheck / synccheck / memcheck per the
    /// device's [`SanitizeConfig`]), out-of-bounds accesses are reported
    /// instead of faulting, and each launch appends a [`SanitizeReport`]
    /// drained via [`VirtualGpu::take_sanitize_reports`]. Functional
    /// outputs, counters, and modeled times stay bit-identical to
    /// [`ExecMode::Reference`] on defect-free kernels.
    Sanitized,
}

impl ExecMode {
    /// Parses the CLI spelling (`"reference"` / `"batched"` /
    /// `"sanitized"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reference" => Some(ExecMode::Reference),
            "batched" => Some(ExecMode::Batched),
            "sanitized" => Some(ExecMode::Sanitized),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ExecMode::Reference => "reference",
            ExecMode::Batched => "batched",
            ExecMode::Sanitized => "sanitized",
        }
    }
}

/// A virtual GPU device.
///
/// The device owns every resource with a device lifetime: the persistent
/// [`WorkerPool`] (one pool serves all launches) and the per-SM texture
/// cache simulators (reset, not rebuilt, per launch). The executors add
/// straight into the launch's targets, so the frame loop performs no
/// per-launch allocations proportional to the image or the cache.
#[derive(Debug)]
pub struct VirtualGpu {
    spec: DeviceSpec,
    cost: CostModel,
    transfer: TransferModel,
    space: AddressSpace,
    workers: usize,
    exec_mode: ExecMode,
    /// Persistent worker pool. Behind a mutex so a watchdog-poisoned pool
    /// can be torn down and rebuilt at the next launch through `&self`
    /// (the launch gate serializes access).
    pool: Mutex<WorkerPool>,
    /// Per-launch escape hatch: when set, dispatch bypasses the pool and
    /// spawns scoped threads — the degradation ladder's first rung, usable
    /// through `&self` mid-frame.
    spawn_override: AtomicBool,
    /// Injected-fault schedule (chaos testing); `None` in production.
    fault: Option<Arc<FaultPlan>>,
    /// One past the fault-plan launch index this device last armed (0 =
    /// none yet): the coordinate its downloads bind to. Kept per device
    /// because the plan's own counter also moves with the launches of
    /// every other device sharing the plan.
    last_armed: AtomicU64,
    /// Watchdog deadline for pooled launches; `None` = wait forever.
    watchdog: Option<Duration>,
    /// Resilience diagnostics (see [`GpuDiagnostics`]).
    pool_rebuilds: AtomicU64,
    checksum_catches: AtomicU64,
    panics_caught: AtomicU64,
    timeouts: AtomicU64,
    /// Pre-launch advisor invocations ([`Self::advise_launch`]) — lets
    /// callers assert the static analyzer ran once at session setup and
    /// never on the frame hot path.
    advises: AtomicU64,
    /// Persistent per-SM texture caches ([`Self::launch_mode`] resets them
    /// at launch entry, so every launch still starts cold exactly like a
    /// freshly-built cache). Each SM is processed by one worker at a time;
    /// the mutex exists to satisfy `Sync`.
    caches: Vec<Mutex<CacheSim>>,
    /// Serializes launches: the persistent caches are device state, like
    /// a CUDA stream-0 queue.
    launch_gate: Mutex<()>,
    /// Telemetry sink; `None` (the default) keeps every launch free of
    /// trace recording and lane-event drains.
    telemetry: Option<Arc<GpuTelemetry>>,
    /// Per-device utilization accumulator; `None` (the default) skips
    /// the per-launch fold entirely.
    utilization: Option<Arc<UtilizationSink>>,
    /// Sequence number for traced launches.
    launch_seq: AtomicU64,
    /// Sanitizer configuration; only consulted by [`ExecMode::Sanitized`]
    /// launches.
    san_config: SanitizeConfig,
    /// Sanitizer reports accumulated since the last
    /// [`Self::take_sanitize_reports`] drain (bounded backlog).
    san_reports: Mutex<Vec<SanitizeReport>>,
    /// Monotone launch id stamped into sanitizer reports.
    san_seq: AtomicU64,
}

/// Undrained sanitizer reports kept per device; older reports are evicted
/// first, so a long chaos run without drains cannot grow without bound.
const SAN_REPORT_BACKLOG: usize = 1024;

/// Deposit bands per pool lane: enough that the lanes' shares even out
/// over the dense and sparse stretches of an image. A band deposits only
/// the blocks that reach it, found by a scan of the launch's per-block
/// span table (a load and two compares per block), so more bands add
/// scans, not deposits. On dense-field at 2 lanes (a 2-vCPU host), 1
/// band per lane ran about 40% fewer frames/s than 4, while 2 and 8
/// stayed within the run-to-run spread of 4.
const DEPOSIT_BANDS_PER_LANE: usize = 4;

/// Packs a block's deposit rows ([`BlockCtx::rows`]), clipped to the
/// launch's `rows` (below 2^32, checked per launch), as `start << 32 |
/// end`; an empty span packs as 0, which meets no band.
fn pack_rows(span: &std::ops::Range<usize>, rows: usize) -> u64 {
    let end = span.end.min(rows);
    if span.start < end {
        (span.start as u64) << 32 | end as u64
    } else {
        0
    }
}

/// Counters of resilience events on a device, all monotone since device
/// construction. Zero across the board in a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuDiagnostics {
    /// Watchdog-poisoned pools torn down and rebuilt at launch entry.
    pub pool_rebuilds: u64,
    /// Transfers failed by the per-chunk checksum.
    pub checksum_catches: u64,
    /// Worker panics converted into [`GpuError::WorkerPanic`].
    pub panics_caught: u64,
    /// Launches abandoned as [`GpuError::LaunchTimeout`].
    pub timeouts: u64,
}

impl GpuDiagnostics {
    /// Adds `other`'s counters into `self` — fleet aggregation over many
    /// devices (e.g. a server folding per-session snapshots into one
    /// monitoring total).
    pub fn absorb(&mut self, other: &GpuDiagnostics) {
        self.pool_rebuilds += other.pool_rebuilds;
        self.checksum_catches += other.checksum_catches;
        self.panics_caught += other.panics_caught;
        self.timeouts += other.timeouts;
    }

    /// The counter delta since `earlier` (saturating, so a stale or
    /// mismatched snapshot yields zeros rather than wrap-around noise).
    pub fn since(&self, earlier: &GpuDiagnostics) -> GpuDiagnostics {
        GpuDiagnostics {
            pool_rebuilds: self.pool_rebuilds.saturating_sub(earlier.pool_rebuilds),
            checksum_catches: self
                .checksum_catches
                .saturating_sub(earlier.checksum_catches),
            panics_caught: self.panics_caught.saturating_sub(earlier.panics_caught),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
        }
    }

    /// Sum of all counters — a quick "anything happened?" predicate.
    pub fn total(&self) -> u64 {
        self.pool_rebuilds + self.checksum_catches + self.panics_caught + self.timeouts
    }
}

impl VirtualGpu {
    /// A device with the given spec, Fermi cost constants, PCIe-2 transfer
    /// model, and one worker per host core (never more than the device has
    /// SMs — the executor parallelizes over SMs, so extra workers would
    /// only park).
    pub fn new(spec: DeviceSpec) -> Self {
        let workers = default_workers().min(spec.sm_count as usize).max(1);
        let caches = Self::build_caches(&spec);
        VirtualGpu {
            spec,
            cost: CostModel::fermi(),
            transfer: TransferModel::pcie2(),
            space: AddressSpace::new(),
            workers,
            exec_mode: ExecMode::default(),
            // `workers` is already ≤ the host's core count here, so this
            // matches `pool_lanes` (which only bites after `with_workers`).
            pool: Mutex::new(WorkerPool::new(workers)),
            spawn_override: AtomicBool::new(false),
            fault: None,
            last_armed: AtomicU64::new(0),
            watchdog: None,
            pool_rebuilds: AtomicU64::new(0),
            checksum_catches: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            advises: AtomicU64::new(0),
            caches,
            launch_gate: Mutex::new(()),
            telemetry: None,
            utilization: None,
            launch_seq: AtomicU64::new(0),
            san_config: SanitizeConfig::default(),
            san_reports: Mutex::new(Vec::new()),
            san_seq: AtomicU64::new(0),
        }
    }

    /// The paper's GTX480.
    pub fn gtx480() -> Self {
        VirtualGpu::new(DeviceSpec::gtx480())
    }

    /// One cold texture-cache simulator per SM: the device texture-cache
    /// budget shared evenly across SMs, rounded down to a whole number of
    /// sets.
    fn build_caches(spec: &DeviceSpec) -> Vec<Mutex<CacheSim>> {
        let per_sm_bytes = spec.tex_cache_per_sm_bytes();
        (0..spec.sm_count as usize)
            .map(|_| {
                Mutex::new(CacheSim::new(
                    per_sm_bytes,
                    spec.tex_cache_line,
                    spec.tex_cache_ways,
                ))
            })
            .collect()
    }

    /// Overrides the host worker count (functional parallelism only; has no
    /// effect on modeled times or counters). Values beyond the device's SM
    /// count are clamped with a warning — the executor parallelizes over
    /// SMs, so surplus workers would never receive work. Rebuilds the
    /// worker pool at the new width.
    pub fn with_workers(mut self, workers: usize) -> Self {
        let sm_count = self.spec.sm_count as usize;
        let mut workers = workers.max(1);
        if workers > sm_count {
            eprintln!(
                "starsim: warning: {workers} workers requested but the device has \
                 {sm_count} SMs; clamping to {sm_count}"
            );
            workers = sm_count;
        }
        self.workers = workers;
        self.pool = Mutex::new(self.fresh_pool());
        self
    }

    /// A new pool at [`Self::pool_lanes`] width with the device's
    /// telemetry gate applied (a new pool's lane rings start gated off).
    fn fresh_pool(&self) -> WorkerPool {
        let pool = WorkerPool::new(self.pool_lanes());
        pool.set_telemetry(self.telemetry.is_some());
        pool
    }

    /// Lanes the persistent pool should hold: one per worker, but never
    /// more than the host has cores — surplus lanes cannot add parallelism
    /// and each one costs a wake/park handshake and a context switch per
    /// launch. Role virtualization keeps the index → worker mapping (and
    /// therefore images, counters, and modeled times) bit-identical at any
    /// lane count, so the cap is purely a host-scheduling choice. A floor
    /// of two lanes (when the caller asked for ≥ 2 workers) keeps the
    /// watchdog, injected-stall, and lane-telemetry machinery live even on
    /// a single-core host — those paths need a real worker lane to fence.
    fn pool_lanes(&self) -> usize {
        self.workers.min(default_workers().max(2)).max(1)
    }

    /// Attaches a deterministic fault-injection schedule (chaos testing).
    /// [`FaultPlan::none`] keeps all resilience plumbing active at
    /// negligible cost (one atomic increment per launch, no transfer
    /// verification).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Arms a watchdog on pooled launches: a generation not finished within
    /// `deadline` (measured after the launching thread's own share of the
    /// work) is abandoned as [`GpuError::LaunchTimeout`], the pool is
    /// poisoned, and the next launch rebuilds it. It guards both passes of
    /// the batched executor — the places kernel code runs on pool lanes;
    /// the serial reference and sanitized executors and one-worker
    /// launches have no lane to fence.
    pub fn with_watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = Some(deadline);
        self
    }

    /// Forces (or releases) spawn dispatch for subsequent launches without
    /// rebuilding the device — the degradation ladder's first rung.
    pub fn set_dispatch_override(&self, spawn: bool) {
        self.spawn_override.store(spawn, Ordering::Relaxed);
    }

    /// Attaches a telemetry sink: every subsequent launch records a
    /// [`LaunchTrace`] (start/end, dispatch and merge windows, drained
    /// per-lane events) into it. See also [`Self::set_telemetry`].
    pub fn with_telemetry(mut self, sink: Arc<GpuTelemetry>) -> Self {
        self.set_telemetry(Some(sink));
        self
    }

    /// Attaches or detaches the telemetry sink, propagating the recording
    /// gate to the worker pool's lane rings.
    pub fn set_telemetry(&mut self, sink: Option<Arc<GpuTelemetry>>) {
        self.pool
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .set_telemetry(sink.is_some());
        self.telemetry = sink;
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<GpuTelemetry>> {
        self.telemetry.as_ref()
    }

    /// Attaches a utilization accumulator: every subsequent launch folds
    /// its modeled profile (occupancy, cycle breakdown, cache/memory
    /// counters) into the shared [`crate::DeviceUtilization`] aggregate. All
    /// inputs are modeled, so the aggregate is bit-identical across host
    /// worker counts for the same workload.
    pub fn with_utilization(mut self, sink: Arc<UtilizationSink>) -> Self {
        self.utilization = Some(sink);
        self
    }

    /// Attaches or detaches the utilization accumulator.
    pub fn set_utilization(&mut self, sink: Option<Arc<UtilizationSink>>) {
        self.utilization = sink;
    }

    /// The attached utilization accumulator, if any.
    pub fn utilization(&self) -> Option<&Arc<UtilizationSink>> {
        self.utilization.as_ref()
    }

    /// Resilience event counters (monotone since construction).
    pub fn diagnostics(&self) -> GpuDiagnostics {
        GpuDiagnostics {
            pool_rebuilds: self.pool_rebuilds.load(Ordering::Relaxed),
            checksum_catches: self.checksum_catches.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }

    /// Overrides the sanitizer configuration (which checks run in
    /// [`ExecMode::Sanitized`] launches, report and access caps).
    pub fn with_sanitize_config(mut self, cfg: SanitizeConfig) -> Self {
        self.san_config = cfg;
        self
    }

    /// The sanitizer configuration in effect.
    pub fn sanitize_config(&self) -> &SanitizeConfig {
        &self.san_config
    }

    /// Drains accumulated sanitizer reports: one per
    /// [`ExecMode::Sanitized`] launch.
    pub fn take_sanitize_reports(&self) -> Vec<SanitizeReport> {
        std::mem::take(&mut *self.san_reports.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Appends a report, evicting the oldest past the backlog bound.
    fn push_sanitize_report(&self, report: SanitizeReport) {
        let mut reports = self.san_reports.lock().unwrap_or_else(|e| e.into_inner());
        if reports.len() >= SAN_REPORT_BACKLOG {
            reports.remove(0);
        }
        reports.push(report);
    }

    /// Overrides the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Overrides the transfer model.
    pub fn with_transfer_model(mut self, transfer: TransferModel) -> Self {
        self.transfer = transfer;
        self
    }

    /// Overrides the default execution mode used by [`Self::launch`].
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Execution mode used by [`Self::launch`].
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Transfer model in use.
    pub fn transfer_model(&self) -> &TransferModel {
        &self.transfer
    }

    /// Uploads host data to a device buffer; returns the buffer and the
    /// modeled host→device copy time in seconds.
    pub fn upload<T: Copy>(&self, data: Vec<T>) -> (GlobalBuffer<T>, f64) {
        let bytes = std::mem::size_of::<T>() * data.len();
        let t = self.transfer.time(MemcpyKind::HostToDevice, bytes);
        (GlobalBuffer::from_host(&self.space, data), t)
    }

    /// [`Self::upload`] through the fault plan: an [`FaultKind::AllocOom`]
    /// spec bound to the upcoming launch surfaces here as
    /// [`GpuError::OutOfMemory`]. Identical to `upload` without a plan.
    pub fn try_upload<T: Copy>(&self, data: Vec<T>) -> Result<(GlobalBuffer<T>, f64), GpuError> {
        self.take_upload_fault(std::mem::size_of::<T>() * data.len())?;
        Ok(self.upload(data))
    }

    /// Consults the fault plan for an [`FaultKind::AllocOom`] spec bound
    /// to the upcoming launch or an earlier one
    /// ([`FaultPlan::take_due`]), as [`Self::try_upload`] would before
    /// copying `requested` bytes. A caller that stages its upload ahead of
    /// the launch (and retries the launch from the staged buffer) calls
    /// this just before each launch instead, so the fault keeps its launch
    /// coordinate.
    pub fn take_upload_fault(&self, requested: usize) -> Result<(), GpuError> {
        if let Some(plan) = &self.fault {
            if plan
                .take_due(FaultKind::AllocOom, plan.upcoming_launch())
                .is_some()
            {
                return Err(GpuError::OutOfMemory {
                    requested,
                    available: 0,
                    space: "global",
                });
            }
        }
        Ok(())
    }

    /// Allocates a zero-filled atomic f32 device buffer (e.g. the output
    /// image; zeroing is a `cudaMemset`, modeled as free).
    pub fn alloc_atomic_f32(&self, len: usize) -> GlobalAtomicF32 {
        GlobalAtomicF32::zeroed(&self.space, len)
    }

    /// Uploads host floats into an atomic device buffer; returns the buffer
    /// and the modeled copy time.
    pub fn upload_atomic_f32(&self, host: &[f32]) -> (GlobalAtomicF32, f64) {
        let t = self.transfer.time(MemcpyKind::HostToDevice, host.len() * 4);
        (GlobalAtomicF32::from_host(&self.space, host), t)
    }

    /// Downloads an atomic device buffer to the host through the fault plan
    /// and (when the plan demands it) per-chunk checksum verification;
    /// returns the data and the modeled device→host copy time.
    pub fn try_download(&self, buf: &GlobalAtomicF32) -> Result<(Vec<f32>, f64), GpuError> {
        let mut out = Vec::new();
        let t = self.verified_download(buf, &mut out, false)?;
        Ok((out, t))
    }

    /// Downloads an atomic device buffer into `out` (resized, not
    /// reallocated when capacity suffices) and zeroes the device buffer, so
    /// a persistent device image serves the next frame without
    /// reallocating (`cudaMemset` is modeled as free, so the modeled copy
    /// time equals [`Self::try_download`]'s). The device buffer is zeroed
    /// only *after* the checksums pass — a corrupted transfer must leave
    /// the device data intact for the retry.
    pub fn try_download_take(
        &self,
        buf: &GlobalAtomicF32,
        out: &mut Vec<f32>,
    ) -> Result<f64, GpuError> {
        self.verified_download(buf, out, true)
    }

    /// Shared verified-download path. Verification only runs when the fault
    /// plan contains transfer faults ([`FaultPlan::verify_transfers`]), so
    /// `FaultPlan::none()` downloads at full speed.
    fn verified_download(
        &self,
        buf: &GlobalAtomicF32,
        out: &mut Vec<f32>,
        take: bool,
    ) -> Result<f64, GpuError> {
        let t = self
            .transfer
            .time(MemcpyKind::DeviceToHost, buf.size_bytes());
        let plan = self.fault.as_deref().filter(|p| p.verify_transfers());
        let Some(plan) = plan else {
            if take {
                buf.take_to_host(out);
            } else {
                buf.to_host_into(out);
            }
            return Ok(t);
        };
        let device_sums = buf.chunk_checksums(TRANSFER_CHUNK);
        buf.to_host_into(out);
        // Injected corruption: flip one mantissa bit in the chunk the spec
        // names, after the copy but before verification — exactly where a
        // real in-flight corruption would land.
        if let Some(spec) = self
            .last_armed
            .load(Ordering::Relaxed)
            .checked_sub(1)
            .and_then(|l| plan.take(FaultKind::TransferCorrupt, l))
        {
            if !out.is_empty() {
                let idx = (spec.lane * TRANSFER_CHUNK) % out.len();
                out[idx] = f32::from_bits(out[idx].to_bits() ^ 0x0008_0000);
            }
        }
        let host_sums = chunk_checksums_host(out, TRANSFER_CHUNK);
        if let Some(chunk) = device_sums.iter().zip(&host_sums).position(|(d, h)| d != h) {
            self.checksum_catches.fetch_add(1, Ordering::Relaxed);
            return Err(GpuError::TransferCorrupted { chunk });
        }
        if take {
            buf.fill_zero();
        }
        Ok(t)
    }

    /// Binds a layered 2-D texture: models the upload plus the bind call.
    /// Returns `(texture, upload_time, bind_time)`.
    pub fn bind_texture(
        &self,
        width: usize,
        height: usize,
        layers: usize,
        data: Vec<f32>,
    ) -> Result<(Texture, f64, f64), GpuError> {
        if let Some(plan) = &self.fault {
            // Binds happen at setup, before any launch exists: the first
            // bind fault fires whatever its launch coordinate.
            if plan
                .take_due(FaultKind::TextureBindFail, u64::MAX)
                .is_some()
            {
                return Err(GpuError::TextureBind("injected bind failure".into()));
            }
        }
        let bytes = data.len() * 4;
        let tex = Texture::bind(
            &self.space,
            width,
            height,
            layers,
            data,
            self.spec.texture_mem_bytes,
            self.spec.tex_cache_line,
        )?;
        let upload = self.transfer.time(MemcpyKind::HostToDevice, bytes);
        Ok((tex, upload, self.cost.tex_bind_overhead_s))
    }

    /// Pre-launch advisor: statically analyzes `kernel` under `cfg` on
    /// this device (see [`crate::analyze`]) **without launching it** and
    /// without touching any launch state — no gate, no caches, no pool.
    /// Deny-level findings reject the launch shape with
    /// [`GpuError::InvalidLaunch`]; otherwise the full [`KernelReport`]
    /// is returned for the caller to log or export.
    ///
    /// This is deliberately *not* wired into [`Self::launch`]: the advisor
    /// is meant to run once at session setup, keeping the per-frame hot
    /// path overhead at exactly zero. [`Self::advise_count`] lets tests
    /// assert that.
    pub fn advise_launch<K: Kernel>(
        &self,
        name: &str,
        kernel: &K,
        cfg: &LaunchConfig,
    ) -> Result<KernelReport, GpuError> {
        self.advises.fetch_add(1, Ordering::Relaxed);
        let report = crate::analyze::analyze_kernel(name, kernel, cfg, &self.spec)?;
        if report.has_deny() {
            let denies: Vec<String> = report
                .lints
                .iter()
                .filter(|l| l.level == LintLevel::Deny)
                .map(|l| format!("{}: {}", l.code, l.message))
                .collect();
            return Err(GpuError::InvalidLaunch(format!(
                "static analysis denied launch of `{name}`: {}",
                denies.join("; ")
            )));
        }
        Ok(report)
    }

    /// How many times [`Self::advise_launch`] has run on this device.
    pub fn advise_count(&self) -> u64 {
        self.advises.load(Ordering::Relaxed)
    }

    /// Launches a kernel in the device's configured [`ExecMode`]:
    /// functionally executes every thread and returns the modeled
    /// [`KernelProfile`].
    pub fn launch<K: Kernel>(
        &self,
        name: &str,
        kernel: &K,
        cfg: LaunchConfig,
    ) -> Result<KernelProfile, GpuError> {
        self.launch_mode(name, kernel, cfg, self.exec_mode)
    }

    /// Launches a kernel in an explicit [`ExecMode`], overriding the
    /// device default for this launch only.
    pub fn launch_mode<K: Kernel>(
        &self,
        name: &str,
        kernel: &K,
        cfg: LaunchConfig,
        mode: ExecMode,
    ) -> Result<KernelProfile, GpuError> {
        cfg.validate(&self.spec)?;
        let occ = occupancy(&self.spec, &cfg);
        let trace_start = self.telemetry.as_ref().map(|_| now_us());

        // Launches are serialized like a CUDA stream-0 queue: the persistent
        // caches are device state. (Poison-tolerant: a panicking kernel
        // leaves state that the reset below repairs.)
        let _gate = self.launch_gate.lock().unwrap_or_else(|e| e.into_inner());

        // A pool poisoned by a watchdog timeout is torn down (joining any
        // straggler) and rebuilt here, so the launch after a timeout runs
        // at full parallel width again. The rebuilt pool inherits the
        // telemetry gate (fresh rings, recording re-enabled).
        {
            let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
            if pool.poisoned() {
                *pool = self.fresh_pool();
                self.pool_rebuilds.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Only a batched counter pass running pooled on ≥ 2 workers has a
        // worker lane to stall; anywhere else a stuck-lane spec stays
        // pending instead of counting as a fault that never happened.
        let lane_can_stall =
            mode == ExecMode::Batched && !self.use_spawn() && self.batched_workers(&cfg) >= 2;
        let armed = self.fault.as_ref().map(|f| f.arm(lane_can_stall));
        if let Some(a) = &armed {
            self.last_armed.store(a.launch + 1, Ordering::Relaxed);
        }
        let armed = armed.as_ref();
        let stamps = LaunchStamps::default();
        let stamps_ref = self.telemetry.as_ref().map(|_| &stamps);
        let launch_id = self.san_seq.fetch_add(1, Ordering::Relaxed);

        // Kernel panics — injected or genuine — must not cross the device
        // boundary: partial counters are discarded and the launch reports
        // `WorkerPanic`. (The caches stay consistent: they are reset at
        // every launch entry.)
        let executed = catch_unwind(AssertUnwindSafe(|| {
            // Per-SM texture caches (per-SM texture L1 path on Fermi),
            // reset — not rebuilt — per launch: a reset cache is
            // indistinguishable from a freshly-constructed one, so every
            // launch starts cold.
            for cache in &self.caches {
                cache.lock().unwrap_or_else(|e| e.into_inner()).reset();
            }
            match mode {
                ExecMode::Reference => self.execute_reference(kernel, &cfg, armed, stamps_ref),
                ExecMode::Batched => self.execute_batched(kernel, &cfg, armed, stamps_ref),
                ExecMode::Sanitized => {
                    self.execute_sanitized(name, launch_id, kernel, &cfg, armed, stamps_ref)
                }
            }
        }));
        let counters = match executed {
            Ok(result) => result?,
            Err(payload) => {
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                return Err(GpuError::WorkerPanic(panic_message(&payload)));
            }
        };

        let (time_s, cycles) = kernel_time(&counters, &self.spec, &self.cost, &occ);
        if let (Some(sink), Some(start_us)) = (&self.telemetry, trace_start) {
            // Drain the lane rings while every lane is parked (the launch
            // gate is still held), sort across lanes, and record the trace.
            let mut lane_events = Vec::new();
            let pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
            pool.drain_events(&mut lane_events);
            let events_dropped = pool.events_dropped();
            drop(pool);
            lane_events.sort_by_key(|e| e.t_us);
            sink.record(LaunchTrace {
                name: name.to_string(),
                mode: mode.as_str(),
                launch: self.launch_seq.fetch_add(1, Ordering::Relaxed),
                start_us,
                end_us: now_us(),
                dispatch_us: stamps.dispatch(),
                merge_us: stamps.merge(),
                modeled_kernel_s: time_s,
                lane_events,
                events_dropped,
            });
        }
        let profile = KernelProfile {
            name: name.to_string(),
            time_s,
            cycles,
            counters,
            occupancy: occ,
        };
        // Still under the launch gate: the fold is serialized with every
        // other launch, so aggregate order is deterministic.
        if let Some(sink) = &self.utilization {
            sink.record(&profile);
        }
        Ok(profile)
    }

    /// Whether dispatch should bypass the pool: the degradation ladder
    /// forced spawn dispatch for this frame.
    fn use_spawn(&self) -> bool {
        self.spawn_override.load(Ordering::Relaxed)
    }

    /// Converts a pool timeout into the device-level error, counting it.
    fn timeout_error(&self, t: PoolTimeout) -> GpuError {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
        GpuError::LaunchTimeout {
            deadline_ms: t.deadline.as_millis() as u64,
        }
    }

    /// Workers the batched counter pass runs on: one per SM with a block,
    /// at most the device's worker count.
    fn batched_workers(&self, cfg: &LaunchConfig) -> usize {
        let sms = (self.spec.sm_count as usize).min(cfg.total_blocks());
        self.workers.min(sms.max(1))
    }

    /// Normalizes an injected stall onto a worker lane of this dispatch
    /// (lane 0 is the launching thread and runs the watchdog, so it cannot
    /// stall). [`Self::launch_mode`] arms a stall only when at least 2
    /// workers participate.
    fn armed_stall(armed: Option<&ArmedFaults>, workers: usize) -> Option<(usize, Duration)> {
        let a = armed?;
        let lane = a.stall_lane?;
        (workers >= 2).then(|| (1 + lane % (workers - 1), a.stall))
    }

    /// Static-stride dispatch (index `i` → worker `i % workers`, a pure
    /// function of `(count, workers)` on both paths), through the
    /// persistent pool under the watchdog or, on the degradation ladder's
    /// spawn rung, per-call spawned scopes. The pooled path claims roles
    /// by work stealing — ragged per-SM block batches no longer serialize
    /// on one lane. Stealing may run two roles of the same worker
    /// concurrently, so per-worker state may only be touched through
    /// order-insensitive operations.
    fn dispatch_static<F>(
        &self,
        count: usize,
        workers: usize,
        stall: Option<(usize, Duration)>,
        body: F,
    ) -> Result<(), GpuError>
    where
        F: Fn(usize, usize) + Sync,
    {
        if self.use_spawn() {
            spawn_parallel_for_static(count, workers, body);
            return Ok(());
        }
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .parallel_for_static_stealing_guarded(count, workers, self.watchdog, stall, body)
            .map_err(|t| self.timeout_error(t))
    }

    /// The reference executor: every thread interpreted, every warp traced.
    ///
    /// Blocks run in index order on the launching thread — block `b` on SM
    /// `b mod sm_count`, so each SM's texture cache still sees its own
    /// blocks in issue order — and every pixel receives its atomic adds in
    /// block order: the image depends only on the launch, never on the
    /// worker count, the host's cores or thread scheduling, and equals the
    /// batched executor's. Worker lanes, the watchdog and injected lane
    /// stalls therefore never reach this executor (nor
    /// [`Self::execute_sanitized`], which shares the schedule), just as
    /// they never reach a one-worker device: a stuck-lane spec bound to
    /// such a launch stays pending in its plan.
    fn execute_reference<K: Kernel>(
        &self,
        kernel: &K,
        cfg: &LaunchConfig,
        armed: Option<&ArmedFaults>,
        stamps: Option<&LaunchStamps>,
    ) -> Result<Counters, GpuError> {
        self.execute_serial(kernel, cfg, armed, stamps, None)
    }

    /// The sanitized executor: the reference schedule with per-SM shadow
    /// access sets attached. Each SM records its lanes' accesses and
    /// inline findings into its own slot; the slots are then merged *in SM
    /// order* and analyzed, so the report is deterministic. Counters,
    /// hazards, and the functional output are computed exactly as in
    /// [`Self::execute_reference`].
    fn execute_sanitized<K: Kernel>(
        &self,
        name: &str,
        launch_id: u64,
        kernel: &K,
        cfg: &LaunchConfig,
        armed: Option<&ArmedFaults>,
        stamps: Option<&LaunchStamps>,
    ) -> Result<Counters, GpuError> {
        let sms = (self.spec.sm_count as usize).min(cfg.total_blocks());
        let san_cfg = &self.san_config;
        let mut slots: Vec<SmSan> = (0..sms).map(|_| SmSan::default()).collect();
        let counters =
            self.execute_serial(kernel, cfg, armed, stamps, Some((san_cfg, &mut slots)))?;

        let (findings, accesses, truncated) = sanitize::analyze(san_cfg, slots);
        self.push_sanitize_report(SanitizeReport {
            kernel: name.to_string(),
            launch: launch_id,
            findings,
            accesses,
            truncated,
        });
        Ok(counters)
    }

    /// The reference schedule shared by [`Self::execute_reference`] and
    /// [`Self::execute_sanitized`]: blocks in index order on the launching
    /// thread, each through [`Self::run_block_reference`] on its SM's
    /// cache, recording into SM `s`'s sanitizer slot `san.1[s]` when `san`
    /// is set. An injected panic fires at the first block of its SM.
    fn execute_serial<K: Kernel>(
        &self,
        kernel: &K,
        cfg: &LaunchConfig,
        armed: Option<&ArmedFaults>,
        stamps: Option<&LaunchStamps>,
        mut san: Option<(&SanitizeConfig, &mut [SmSan])>,
    ) -> Result<Counters, GpuError> {
        let mut counters = Counters::default();
        let hazards = AtomicU64::new(0);
        let sm_count = self.spec.sm_count as usize;
        let total_blocks = cfg.total_blocks();
        let sms = sm_count.min(total_blocks);
        let panic_sm = armed.and_then(|a| a.panic_sm).map(|l| l % sms.max(1));
        let mut caches: Vec<_> = self.caches[..sms]
            .iter()
            .map(|c| c.lock().unwrap_or_else(|e| e.into_inner()))
            .collect();

        if let Some(s) = stamps {
            s.dispatch_start.set(now_us());
        }
        for block in 0..total_blocks {
            if panic_sm == Some(block) {
                panic!("injected fault: worker panic on sm {block}");
            }
            let sm_id = block % sm_count;
            let san = san.as_mut().map(|(c, slots)| (*c, &mut slots[sm_id]));
            self.run_block_reference(
                kernel,
                cfg,
                block,
                &mut counters,
                &mut caches[sm_id],
                &hazards,
                san,
            );
        }
        if let Some(s) = stamps {
            s.dispatch_end.set(now_us());
        }
        counters.shared_hazards = hazards.load(Ordering::Relaxed);
        Ok(counters)
    }

    /// The batched executor. A launch that [`Kernel::deposit_rows`] takes
    /// runs in two passes:
    ///
    /// 1. the counter pass (the dispatch window): one role per SM on the
    ///    pool, each running its SM's blocks (`sm, sm + sm_count, …`,
    ///    ascending) through [`Kernel::run_block`], so every texture cache
    ///    sees its blocks in issue order;
    /// 2. the deposit pass (the merge window): disjoint bands of whole
    ///    output rows on the pool, each adding in index order, through
    ///    [`Kernel::deposit`], every block whose rows the counter pass
    ///    recorded ([`BlockCtx::rows`]) meet the band.
    ///
    /// Any other launch runs every block on the per-thread path
    /// ([`Self::run_block_reference`]) in the counter pass's SM roles,
    /// adding straight into its targets — one image per launch for kernels
    /// whose threads write disjoint pixels, such as the pixel-centric one.
    ///
    /// Counters are integral, so their per-worker merge is exact in any
    /// order; on the two-pass route every pixel receives its adds in block
    /// order whatever the band edges, lane count, claim order or dispatch
    /// path (pooled, stolen, or spawned). Counters, modeled times and the
    /// image therefore equal the reference executor's at every worker
    /// count.
    fn execute_batched<K: Kernel>(
        &self,
        kernel: &K,
        cfg: &LaunchConfig,
        armed: Option<&ArmedFaults>,
        stamps: Option<&LaunchStamps>,
    ) -> Result<Counters, GpuError> {
        let rows = kernel.deposit_rows(cfg);
        assert!(
            rows.is_none_or(|r| u32::try_from(r).is_ok()),
            "{rows:?} deposit rows overflow the per-block span table"
        );
        let sm_count = self.spec.sm_count as usize;
        let total_blocks = cfg.total_blocks();
        let sms = sm_count.min(total_blocks);
        let workers = self.batched_workers(cfg);
        let hazards = AtomicU64::new(0);
        let panic_sm = armed.and_then(|a| a.panic_sm).map(|l| l % sms.max(1));
        // Per-worker counters, merged in worker order below. The short
        // lock is contended only when two roles of one worker finish
        // simultaneously.
        let counter_slots: Vec<Mutex<Counters>> = (0..workers)
            .map(|_| Mutex::new(Counters::default()))
            .collect();
        // Each block's deposit rows on the two-pass route, packed by
        // `pack_rows`. The counter pass stores them and the deposit pass
        // loads them; `dispatch_static` returns only after every role of
        // a pass has run, which orders the two, so `Relaxed` suffices.
        let spans: Vec<AtomicU64> = match rows {
            Some(_) => (0..total_blocks).map(|_| AtomicU64::new(0)).collect(),
            None => Vec::new(),
        };

        if let Some(s) = stamps {
            s.dispatch_start.set(now_us());
        }
        self.dispatch_static(
            sms,
            workers,
            Self::armed_stall(armed, workers),
            |sm_id, worker| {
                if panic_sm == Some(sm_id) {
                    panic!("injected fault: worker panic on sm {sm_id}");
                }
                let mut counters = Counters::default();
                let mut cache = self.caches[sm_id].lock().unwrap_or_else(|e| e.into_inner());
                for block in (sm_id..total_blocks).step_by(sm_count) {
                    if let Some(rows) = rows {
                        let mut ctx = BlockCtx {
                            block_idx: cfg.grid.delinearize(block),
                            block_dim: cfg.block,
                            grid_dim: cfg.grid,
                            spec: &self.spec,
                            counters: &mut counters,
                            cache: &mut cache,
                            rows: 0..rows,
                        };
                        kernel.run_block(&mut ctx);
                        spans[block].store(pack_rows(&ctx.rows, rows), Ordering::Relaxed);
                    } else {
                        self.run_block_reference(
                            kernel,
                            cfg,
                            block,
                            &mut counters,
                            &mut cache,
                            &hazards,
                            None,
                        );
                    }
                }
                counter_slots[worker]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .merge(&counters);
            },
        )?;
        if let Some(s) = stamps {
            s.dispatch_end.set(now_us());
        }

        if let Some(rows) = rows {
            if let Some(s) = stamps {
                s.merge_start.set(now_us());
            }
            // Whole-row bands, so no two lanes ever write one pixel; one
            // band on one lane, where splitting would only repeat the scan.
            let lanes = self.pool_lanes().min(workers);
            let bands = if lanes < 2 {
                1
            } else {
                lanes * DEPOSIT_BANDS_PER_LANE
            };
            let band_rows = rows.div_ceil(bands).max(1);
            self.dispatch_static(rows.div_ceil(band_rows), lanes, None, |band, _| {
                let band = band * band_rows..((band + 1) * band_rows).min(rows);
                let (lo, hi) = (band.start as u64, band.end as u64);
                for (block, span) in spans.iter().enumerate() {
                    let span = span.load(Ordering::Relaxed);
                    // `start < band.end && band.start < end`, packed.
                    if span >> 32 < hi && span & u64::from(u32::MAX) > lo {
                        kernel.deposit(block, band.clone());
                    }
                }
            })?;
            if let Some(s) = stamps {
                s.merge_end.set(now_us());
            }
        }
        let mut counters = Counters::default();
        for s in &counter_slots {
            counters.merge(&s.lock().unwrap_or_else(|e| e.into_inner()));
        }
        counters.shared_hazards += hazards.load(Ordering::Relaxed);
        Ok(counters)
    }

    /// Executes one block on the reference path: all phases, warp by warp.
    ///
    /// With `san` attached (the sanitized executor), the lanes' event
    /// traces are additionally mirrored into the SM's shadow access set,
    /// barrier arrivals are checked for divergence, and memcheck hooks are
    /// installed on every thread context — without changing a single
    /// counter or functional result.
    #[allow(clippy::too_many_arguments)]
    fn run_block_reference<K: Kernel>(
        &self,
        kernel: &K,
        cfg: &LaunchConfig,
        block_linear: usize,
        counters: &mut Counters,
        cache: &mut CacheSim,
        hazards: &AtomicU64,
        mut san: Option<(&SanitizeConfig, &mut SmSan)>,
    ) {
        let block_idx = cfg.grid.delinearize(block_linear);
        let threads = cfg.threads_per_block();
        let warp = self.spec.warp_size as usize;
        let shared = SharedMem::new(cfg.shared_mem_bytes / 4);
        let phases = kernel.phases().max(1);
        // Inline memcheck findings from this block's lanes (RefCell: lanes
        // run strictly sequentially on the owning worker).
        let lane_findings = std::cell::RefCell::new(Vec::new());

        let mut exited = vec![false; threads];
        // Reusable per-lane trace buffers.
        let mut traces: Vec<Vec<crate::kernel::Event>> = vec![Vec::new(); warp];

        for phase in 0..phases {
            if phase > 0 {
                shared.barrier();
                // One barrier instruction per warp that still has live
                // threads — fully-exited warps (e.g. grid-padding blocks
                // past the starCount guard) never reach the barrier.
                let live_warps = (0..threads)
                    .step_by(warp)
                    .filter(|&ws| (ws..(ws + warp).min(threads)).any(|t| !exited[t]))
                    .count();
                counters.barriers += live_warps as u64;
                // Synccheck: some lanes of the block arrive at this
                // barrier while others already returned — divergent
                // `__syncthreads()`. A fully-exited block (the paper's
                // whole-block starCount guard) never arrives and is fine.
                if let Some((sc, slot)) = san.as_mut() {
                    if sc.synccheck {
                        let gone = exited.iter().filter(|&&e| e).count();
                        if gone > 0 && gone < threads {
                            slot.findings.push(Finding {
                                block: block_linear,
                                kind: FindingKind::BarrierDivergence {
                                    barrier: phase,
                                    arrived: threads - gone,
                                    expected: threads,
                                },
                            });
                        }
                    }
                }
            }
            for warp_start in (0..threads).step_by(warp) {
                let lanes = warp.min(threads - warp_start);
                let mut any = false;
                for (lane, trace) in traces.iter_mut().enumerate().take(lanes) {
                    let t = warp_start + lane;
                    trace.clear();
                    if exited[t] {
                        continue;
                    }
                    any = true;
                    let thread_idx = cfg.block.delinearize(t);
                    let ctx_events = std::mem::take(trace);
                    let mut ctx = ThreadCtx::new(
                        thread_idx, block_idx, cfg.block, cfg.grid, &shared, ctx_events,
                    );
                    if let Some((sc, _)) = san.as_ref() {
                        ctx.set_sanitizer(LaneHooks {
                            findings: &lane_findings,
                            block: block_linear,
                            epoch: phase,
                            memcheck: sc.memcheck,
                        });
                    }
                    kernel.run(phase, &mut ctx);
                    if ctx.exited() {
                        exited[t] = true;
                    }
                    if phase == 0 {
                        counters.threads += 1;
                    }
                    *trace = ctx.take_events();
                    // Mirror this lane's accesses into the shadow set.
                    if let Some((sc, slot)) = san.as_mut() {
                        for ev in trace.iter() {
                            let (kind, addr) = match *ev {
                                Event::GlobalRead { addr, .. } => (AccessKind::GlobalRead, addr),
                                Event::GlobalWrite { addr, .. } => (AccessKind::GlobalWrite, addr),
                                Event::AtomicAdd { addr } => (AccessKind::GlobalAtomic, addr),
                                Event::SharedRead { word } => (AccessKind::SharedRead, word as u64),
                                Event::SharedWrite { word } => {
                                    (AccessKind::SharedWrite, word as u64)
                                }
                                _ => continue,
                            };
                            slot.record(
                                sc.access_cap,
                                Access {
                                    block: block_linear,
                                    epoch: phase as u32,
                                    lane: t as u32,
                                    kind,
                                    addr,
                                },
                            );
                        }
                    }
                }
                for trace in traces.iter_mut().skip(lanes) {
                    trace.clear();
                }
                if any {
                    counters.warps += 1;
                    analyze_warp(&traces[..lanes], &self.spec, counters, cache);
                }
            }
        }
        hazards.fetch_add(shared.hazards(), Ordering::Relaxed);
        if let Some((_, slot)) = san.as_mut() {
            slot.findings.append(&mut lane_findings.borrow_mut());
        }
    }
}

impl Default for VirtualGpu {
    fn default() -> Self {
        VirtualGpu::gtx480()
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::FlopClass;

    /// y[i] = a*x[i] + y[i] over a 1-D launch — the "hello world" kernel.
    struct Saxpy<'a> {
        a: f32,
        x: &'a GlobalBuffer<f32>,
        y: &'a GlobalAtomicF32,
        n: usize,
    }

    impl Kernel for Saxpy<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let i = ctx.block_linear() * ctx.block_dim.count() + ctx.thread_linear();
            if !ctx.branch(i < self.n) {
                ctx.exit();
                return;
            }
            let xv = ctx.global_read(self.x, i);
            ctx.flops(FlopClass::Fma, 1);
            ctx.atomic_add_global(self.y, i, self.a * xv);
        }
    }

    #[test]
    fn saxpy_computes_correct_values() {
        let gpu = VirtualGpu::gtx480();
        let n = 1000;
        let (x, _) = gpu.upload((0..n).map(|i| i as f32).collect::<Vec<_>>());
        let (y, _) = gpu.upload_atomic_f32(&vec![1.0f32; n]);
        let k = Saxpy {
            a: 2.0,
            x: &x,
            y: &y,
            n,
        };
        let cfg = LaunchConfig::new(n.div_ceil(128) as u32, 128u32);
        let profile = gpu.launch("saxpy", &k, cfg).unwrap();

        let (host, _) = gpu.try_download(&y).unwrap();
        for (i, &v) in host.iter().enumerate() {
            assert_eq!(v, 2.0 * i as f32 + 1.0, "element {i}");
        }
        // 1000 threads did work; 1024 launched.
        assert_eq!(profile.counters.threads, 1024);
        assert_eq!(profile.counters.flops_fma, 1000);
        assert!(profile.time_s > 0.0);
        // The tail warp (threads 992..1024) diverges on the bounds check
        // (8 in-range, 24 out). All others are uniform.
        assert_eq!(profile.counters.divergent_branches, 1);
    }

    #[test]
    fn coalescing_visible_in_saxpy() {
        let gpu = VirtualGpu::gtx480();
        let n = 256;
        let (x, _) = gpu.upload(vec![1.0f32; n]);
        let (y, _) = gpu.upload_atomic_f32(&vec![0.0f32; n]);
        let k = Saxpy {
            a: 1.0,
            x: &x,
            y: &y,
            n,
        };
        let profile = gpu
            .launch("saxpy", &k, LaunchConfig::new(2u32, 128u32))
            .unwrap();
        // 8 warps, each reading 32 consecutive f32 = one 128B transaction.
        assert_eq!(profile.counters.global_requests, 8);
        assert_eq!(profile.counters.global_transactions, 8);
    }

    /// Two-phase kernel staging through shared memory, like the paper's.
    struct StagedBroadcast<'a> {
        src: &'a GlobalBuffer<f32>,
        dst: &'a GlobalAtomicF32,
    }

    impl Kernel for StagedBroadcast<'_> {
        fn phases(&self) -> usize {
            2
        }
        fn run(&self, phase: usize, ctx: &mut ThreadCtx<'_>) {
            let b = ctx.block_linear();
            match phase {
                0 => {
                    // One thread per block loads the block's value.
                    if ctx.branch(ctx.thread_linear() == 0) {
                        let v = ctx.global_read(self.src, b);
                        ctx.shared_write(0, v);
                    }
                }
                _ => {
                    let v = ctx.shared_read(0);
                    let i = b * ctx.block_dim.count() + ctx.thread_linear();
                    ctx.atomic_add_global(self.dst, i, v);
                }
            }
        }
    }

    #[test]
    fn barrier_phases_order_shared_memory() {
        let gpu = VirtualGpu::gtx480();
        let blocks = 20;
        let tpb = 64;
        let (src, _) = gpu.upload((0..blocks).map(|b| b as f32 * 10.0).collect::<Vec<_>>());
        let dst = gpu.alloc_atomic_f32(blocks * tpb);
        let k = StagedBroadcast {
            src: &src,
            dst: &dst,
        };
        let cfg = LaunchConfig::new(blocks as u32, tpb as u32).with_shared_mem(4);
        let profile = gpu.launch("staged", &k, cfg).unwrap();
        let (host, _) = gpu.try_download(&dst).unwrap();
        for b in 0..blocks {
            for t in 0..tpb {
                assert_eq!(host[b * tpb + t], b as f32 * 10.0);
            }
        }
        // No same-phase hazard: the write and reads are barrier-separated.
        assert_eq!(profile.counters.shared_hazards, 0);
        // Barriers: one per warp per extra phase = blocks × 2 warps.
        assert_eq!(profile.counters.barriers, (blocks * 2) as u64);
        // Global reads reduced to one per block by the staging (the paper's
        // §III-B.3 optimization).
        assert_eq!(profile.counters.global_requests, blocks as u64);
    }

    /// The same broadcast *without* the barrier — the bug the paper's
    /// step 6 (`__syncthreads`) prevents. The hazard detector must fire.
    struct RacyBroadcast<'a> {
        src: &'a GlobalBuffer<f32>,
    }

    impl Kernel for RacyBroadcast<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            if ctx.branch(ctx.thread_linear() == 0) {
                let v = ctx.global_read(self.src, ctx.block_linear());
                ctx.shared_write(0, v);
            }
            let _ = ctx.shared_read(0);
        }
    }

    #[test]
    fn missing_syncthreads_detected_as_hazard() {
        let gpu = VirtualGpu::gtx480();
        let (src, _) = gpu.upload(vec![1.0f32; 4]);
        let k = RacyBroadcast { src: &src };
        let cfg = LaunchConfig::new(4u32, 32u32).with_shared_mem(4);
        let profile = gpu.launch("racy", &k, cfg).unwrap();
        assert!(
            profile.counters.shared_hazards > 0,
            "cross-thread same-phase read must be flagged"
        );
    }

    #[test]
    fn launch_validation_propagates() {
        let gpu = VirtualGpu::gtx480();
        let (src, _) = gpu.upload(vec![1.0f32; 4]);
        let k = RacyBroadcast { src: &src };
        let bad = LaunchConfig::new(1u32, Dim3::d2(33, 33));
        assert!(matches!(
            gpu.launch("bad", &k, bad),
            Err(GpuError::InvalidLaunch(_))
        ));
    }

    #[test]
    fn deterministic_counters_across_worker_counts() {
        let run = |workers: usize| {
            let gpu = VirtualGpu::gtx480().with_workers(workers);
            let n = 4096;
            let (x, _) = gpu.upload(vec![1.0f32; n]);
            let (y, _) = gpu.upload_atomic_f32(&vec![0.0f32; n]);
            let k = Saxpy {
                a: 3.0,
                x: &x,
                y: &y,
                n,
            };
            gpu.launch("saxpy", &k, LaunchConfig::new(32u32, 128u32))
                .unwrap()
                .counters
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b, "counters must not depend on host parallelism");
    }

    #[test]
    fn exec_modes_agree_for_fallback_kernels() {
        // No kernel here implements `run_block`, so the batched executor
        // runs every block on the reference path — but through its own
        // scheduling and reduction. Counters and results must be identical.
        let run = |mode: ExecMode| {
            let gpu = VirtualGpu::gtx480().with_workers(4).with_exec_mode(mode);
            let n = 4096;
            let (x, _) = gpu.upload((0..n).map(|i| i as f32).collect::<Vec<_>>());
            let (y, _) = gpu.upload_atomic_f32(&vec![0.5f32; n]);
            let k = Saxpy {
                a: 2.0,
                x: &x,
                y: &y,
                n,
            };
            let p = gpu
                .launch("saxpy", &k, LaunchConfig::new(32u32, 128u32))
                .unwrap();
            (p.counters, p.time_s, gpu.try_download(&y).unwrap().0)
        };
        let (ca, ta, ia) = run(ExecMode::Reference);
        let (cb, tb, ib) = run(ExecMode::Batched);
        assert_eq!(ca, cb, "counters must not depend on the executor");
        assert_eq!(ta, tb, "modeled time must not depend on the executor");
        assert_eq!(ia, ib);
    }

    /// A two-pass kernel whose blocks overlap: thread `t` of block `b`
    /// adds `value(b, t)` to pixel `(7b + t) mod len` of a target of
    /// `ROW`-value rows. Values of mixed magnitudes make every pixel's sum
    /// depend on the order of its adds.
    struct Overlap<'a> {
        out: &'a GlobalAtomicF32,
        threads: usize,
    }

    const ROW: usize = 64;

    impl Overlap<'_> {
        fn pixel(&self, block: usize, t: usize) -> usize {
            (block * 7 + t) % self.out.len()
        }

        fn value(block: usize, t: usize) -> f32 {
            [1e7, 0.3, 7.7][block % 3] + t as f32 * 0.01
        }
    }

    impl Kernel for Overlap<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            let (b, t) = (ctx.block_linear(), ctx.thread_linear());
            ctx.atomic_add_global(self.out, self.pixel(b, t), Self::value(b, t));
        }

        fn deposit_rows(&self, _cfg: &LaunchConfig) -> Option<usize> {
            Some(self.out.len() / ROW)
        }

        /// The warp analyzer's charges for one atomic per lane at distinct
        /// addresses.
        fn run_block(&self, ctx: &mut BlockCtx<'_>) {
            let warps = self.threads.div_ceil(ctx.spec.warp_size as usize) as u64;
            ctx.counters.threads += self.threads as u64;
            ctx.counters.warps += warps;
            ctx.counters.atomic_requests += warps;
        }

        fn deposit(&self, block: usize, rows: std::ops::Range<usize>) {
            for t in 0..self.threads {
                let i = self.pixel(block, t);
                if rows.contains(&(i / ROW)) {
                    self.out.merge_add_range(i, &[Self::value(block, t)]);
                }
            }
        }
    }

    /// Launches [`Overlap`] (600 blocks of 32 threads over 16 rows) on
    /// `gpu` in `mode`, returning the counters and the image bits.
    fn overlap_frame(gpu: &VirtualGpu, mode: ExecMode) -> (Counters, Vec<u32>) {
        let out = gpu.alloc_atomic_f32(16 * ROW);
        let k = Overlap {
            out: &out,
            threads: 32,
        };
        let p = gpu
            .launch_mode("overlap", &k, LaunchConfig::new(600u32, 32u32), mode)
            .unwrap();
        let bits = out.to_host().iter().map(|v| v.to_bits()).collect();
        (p.counters, bits)
    }

    /// Every executor adds each pixel's values in block order for a
    /// two-pass kernel, at every worker count and on both dispatch paths:
    /// one image per launch, equal to a host loop over the blocks.
    #[test]
    fn every_executor_adds_in_block_order() {
        let mut expected = vec![0.0f32; 16 * ROW];
        for b in 0..600 {
            for t in 0..32 {
                expected[(b * 7 + t) % (16 * ROW)] += Overlap::value(b, t);
            }
        }
        let expected: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
        let (reference, _) = overlap_frame(&VirtualGpu::gtx480(), ExecMode::Reference);
        for workers in [1, 2, 3, 4, 7, 15] {
            for mode in [ExecMode::Reference, ExecMode::Batched, ExecMode::Sanitized] {
                let gpu = VirtualGpu::gtx480().with_workers(workers);
                for spawn in [false, true] {
                    gpu.set_dispatch_override(spawn);
                    let (counters, bits) = overlap_frame(&gpu, mode);
                    let label = format!("{mode:?}, workers {workers}, spawn {spawn}");
                    assert_eq!(counters, reference, "{label}: counters");
                    assert!(bits == expected, "{label}: image");
                }
            }
        }
    }

    /// A two-pass kernel whose blocks report narrow deposit rows through
    /// [`BlockCtx::rows`]: block `b < live` writes one value per thread
    /// into the rows `span(b)` names (empty, row 0, the last row, three
    /// rows from an odd start, rows 3..12, or rows running past the
    /// image); blocks from `live` on are past the guard and write
    /// nothing. Its deposit fails the launch when called for a band its
    /// rows miss.
    struct Spans<'a> {
        out: &'a GlobalAtomicF32,
        live: usize,
    }

    const SPAN_ROWS: usize = 16;

    impl Spans<'_> {
        /// The rows block `block` reports: possibly empty, possibly past
        /// the image.
        fn span(&self, block: usize) -> std::ops::Range<usize> {
            if block >= self.live {
                return 0..0;
            }
            match block % 6 {
                0 => 5..5,
                1 => 0..1,
                2 => SPAN_ROWS - 1..SPAN_ROWS,
                3 => {
                    let s = 1 + 2 * (block / 6 % 7);
                    s..s + 3
                }
                4 => 3..12,
                _ => SPAN_ROWS - 3..SPAN_ROWS + 24,
            }
        }

        /// Thread `t`'s pixel and value, if block `block` writes one.
        fn write(&self, block: usize, t: usize) -> Option<(usize, f32)> {
            let span = self.span(block);
            let rows = span.start..span.end.min(SPAN_ROWS);
            (!rows.is_empty()).then(|| {
                let row = rows.start + t % rows.len();
                let value = [1e7, 0.3, 7.7][block / 6 % 3] + t as f32 * 0.01;
                (row * ROW + (block * 7 + t) % ROW, value)
            })
        }
    }

    impl Kernel for Spans<'_> {
        fn run(&self, _phase: usize, ctx: &mut ThreadCtx<'_>) {
            if let Some((i, v)) = self.write(ctx.block_linear(), ctx.thread_linear()) {
                ctx.atomic_add_global(self.out, i, v);
            }
        }

        fn deposit_rows(&self, _cfg: &LaunchConfig) -> Option<usize> {
            Some(SPAN_ROWS)
        }

        /// One warp of 32 threads: one atomic request (distinct
        /// addresses) when the block writes.
        fn run_block(&self, ctx: &mut BlockCtx<'_>) {
            let block = ctx.block_linear();
            ctx.counters.threads += 32;
            ctx.counters.warps += 1;
            if self.write(block, 0).is_some() {
                ctx.counters.atomic_requests += 1;
            }
            ctx.rows = self.span(block);
        }

        fn deposit(&self, block: usize, rows: std::ops::Range<usize>) {
            let span = self.span(block);
            assert!(
                span.start < rows.end && rows.start < span.end,
                "block {block} with rows {span:?} deposited in band {rows:?}"
            );
            for (i, v) in (0..32).filter_map(|t| self.write(block, t)) {
                if rows.contains(&(i / ROW)) {
                    self.out.merge_add_range(i, &[v]);
                }
            }
        }
    }

    /// The deposit pass visits exactly the blocks whose reported rows meet
    /// each band, so the image and counters equal the reference
    /// executor's at every worker count and on both dispatch paths: with
    /// 2 lanes a band is 2 rows, thinner than several spans, and odd
    /// spans cross band edges.
    #[test]
    fn deposit_bands_visit_the_blocks_whose_rows_meet_them() {
        let frame = |gpu: &VirtualGpu, mode: ExecMode| {
            let out = gpu.alloc_atomic_f32(SPAN_ROWS * ROW);
            let k = Spans {
                out: &out,
                live: 84,
            };
            let p = gpu
                .launch_mode("spans", &k, LaunchConfig::new(96u32, 32u32), mode)
                .unwrap();
            let bits: Vec<u32> = out.to_host().iter().map(|v| v.to_bits()).collect();
            (p.counters, bits)
        };
        let reference = frame(&VirtualGpu::gtx480(), ExecMode::Reference);
        // 70 writing blocks × 32 adds land on 760 distinct pixels.
        assert_eq!(reference.1.iter().filter(|&&b| b != 0).count(), 760);
        for workers in [1, 2, 3, 4, 7, 15] {
            let gpu = VirtualGpu::gtx480().with_workers(workers);
            for spawn in [false, true] {
                gpu.set_dispatch_override(spawn);
                let label = format!("workers {workers}, spawn {spawn}");
                assert!(frame(&gpu, ExecMode::Batched) == reference, "{label}");
            }
        }
    }

    #[test]
    fn exec_mode_parses_cli_spellings() {
        assert_eq!(ExecMode::parse("reference"), Some(ExecMode::Reference));
        assert_eq!(ExecMode::parse("batched"), Some(ExecMode::Batched));
        assert_eq!(ExecMode::parse("sanitized"), Some(ExecMode::Sanitized));
        assert_eq!(ExecMode::parse("turbo"), None);
        assert_eq!(ExecMode::Batched.as_str(), "batched");
        assert_eq!(ExecMode::Reference.as_str(), "reference");
        assert_eq!(ExecMode::Sanitized.as_str(), "sanitized");
        assert_eq!(ExecMode::default(), ExecMode::Batched);
    }

    #[test]
    fn hazard_detection_survives_batched_fallback() {
        let gpu = VirtualGpu::gtx480().with_exec_mode(ExecMode::Batched);
        let (src, _) = gpu.upload(vec![1.0f32; 4]);
        let k = RacyBroadcast { src: &src };
        let cfg = LaunchConfig::new(4u32, 32u32).with_shared_mem(4);
        let profile = gpu.launch("racy", &k, cfg).unwrap();
        assert!(profile.counters.shared_hazards > 0);
    }

    /// Each `DeviceSpec` launch limit, violated one at a time through
    /// `gpu.launch`, must come back as a typed `InvalidLaunch` whose
    /// message names the offending quantity.
    mod launch_limits {
        use super::*;

        fn try_launch(cfg: LaunchConfig) -> GpuError {
            let gpu = VirtualGpu::gtx480();
            let (src, _) = gpu.upload(vec![1.0f32; 4]);
            let k = RacyBroadcast { src: &src };
            match gpu.launch("bad", &k, cfg) {
                Err(e) => e,
                Ok(_) => panic!("launch must be rejected"),
            }
        }

        fn assert_invalid(cfg: LaunchConfig, needle: &str) {
            match try_launch(cfg) {
                GpuError::InvalidLaunch(msg) => {
                    assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
                }
                other => panic!("expected InvalidLaunch, got {other:?}"),
            }
        }

        #[test]
        fn threads_per_block_limit() {
            // 33×33 = 1089 > 1024 even though each dimension is legal.
            assert_invalid(LaunchConfig::new(1u32, Dim3::d2(33, 33)), "1089");
        }

        #[test]
        fn block_dim_z_limit() {
            // 2×2×65 = 260 threads (legal) but z exceeds the 64 limit.
            assert_invalid(LaunchConfig::new(1u32, Dim3::d3(2, 2, 65)), "per-dimension");
        }

        #[test]
        fn grid_dim_x_limit() {
            assert_invalid(LaunchConfig::new(65536u32, 32u32), "per-dimension");
        }

        #[test]
        fn grid_dim_z_limit() {
            assert_invalid(LaunchConfig::new(Dim3::d3(1, 1, 2), 32u32), "grid");
        }

        #[test]
        fn shared_mem_limit() {
            let spec = DeviceSpec::gtx480();
            let cfg = LaunchConfig::new(1u32, 32u32).with_shared_mem(spec.shared_mem_per_block + 1);
            assert_invalid(cfg, "shared");
        }

        #[test]
        fn degenerate_launch_rejected() {
            assert_invalid(LaunchConfig::new(0u32, 32u32), "degenerate");
        }
    }

    #[test]
    fn texture_budget_enforced_through_device() {
        let gpu = VirtualGpu::gtx480();
        let too_big = gpu.spec().texture_mem_bytes / 4 + 1;
        let r = gpu.bind_texture(too_big, 1, 1, vec![0.0; too_big]);
        assert!(matches!(r, Err(GpuError::OutOfMemory { .. })));
    }

    #[test]
    fn upload_download_roundtrip_with_times() {
        let gpu = VirtualGpu::gtx480();
        let (buf, t_up) = gpu.upload_atomic_f32(&[1.0, 2.0, 3.0]);
        let (back, t_down) = gpu.try_download(&buf).unwrap();
        assert_eq!(back, vec![1.0, 2.0, 3.0]);
        assert!(t_up > 0.0 && t_down > 0.0);
    }

    #[test]
    fn download_take_reuses_the_host_buffer() {
        let gpu = VirtualGpu::gtx480();
        let (buf, _) = gpu.upload_atomic_f32(&[1.0, 2.0, 3.0]);
        let mut host = vec![9.0; 3];
        let cap = host.capacity();
        let t = gpu.try_download_take(&buf, &mut host).unwrap();
        assert_eq!(host, vec![1.0, 2.0, 3.0]);
        assert_eq!(host.capacity(), cap, "no reallocation on reuse");
        let (zeroed, t_plain) = gpu.try_download(&buf).unwrap();
        assert_eq!(zeroed, vec![0.0; 3], "take must zero the device buffer");
        assert_eq!(t, t_plain);
    }

    #[test]
    fn workers_clamped_to_sm_count() {
        let gpu = VirtualGpu::gtx480().with_workers(1000);
        assert_eq!(gpu.workers, gpu.spec().sm_count as usize);
        let gpu = VirtualGpu::gtx480().with_workers(3);
        assert_eq!(gpu.workers, 3);
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery.
    // ------------------------------------------------------------------

    use crate::fault::{FaultKind, FaultPlan, FaultSpec};
    use std::time::Duration;

    /// Launches saxpy (a=2, x=i, y0=0) on `gpu`, returning the profile and
    /// the output buffer, not yet downloaded.
    fn saxpy_launch(
        gpu: &VirtualGpu,
        n: usize,
    ) -> Result<(KernelProfile, GlobalAtomicF32), GpuError> {
        let (x, _) = gpu.try_upload((0..n).map(|i| i as f32).collect::<Vec<_>>())?;
        let y = gpu.alloc_atomic_f32(n);
        let k = Saxpy {
            a: 2.0,
            x: &x,
            y: &y,
            n,
        };
        let profile = gpu.launch(
            "saxpy",
            &k,
            LaunchConfig::new(n.div_ceil(128) as u32, 128u32),
        )?;
        Ok((profile, y))
    }

    /// Runs saxpy (a=2, x=i, y0=0) on `gpu`, returning the image.
    fn saxpy_frame(gpu: &VirtualGpu, n: usize) -> Result<Vec<f32>, GpuError> {
        let (_, y) = saxpy_launch(gpu, n)?;
        Ok(gpu.try_download(&y)?.0)
    }

    #[test]
    fn fault_plan_none_is_invisible() {
        let clean = VirtualGpu::gtx480().with_workers(4);
        let chaos = VirtualGpu::gtx480()
            .with_workers(4)
            .with_fault_plan(Arc::new(FaultPlan::none()))
            .with_watchdog(Duration::from_secs(30));
        let a = saxpy_frame(&clean, 4096).unwrap();
        let b = saxpy_frame(&chaos, 4096).unwrap();
        assert_eq!(a, b);
        assert_eq!(chaos.diagnostics(), GpuDiagnostics::default());
    }

    #[test]
    fn injected_panic_is_caught_and_device_recovers_bit_identically() {
        let clean = VirtualGpu::gtx480().with_workers(4);
        let expected = saxpy_frame(&clean, 4096).unwrap();

        let gpu = VirtualGpu::gtx480()
            .with_workers(4)
            .with_fault_plan(Arc::new(FaultPlan::single(FaultKind::WorkerPanic, 0, 2)));
        let err = saxpy_frame(&gpu, 4096).expect_err("launch 0 must fail");
        assert!(matches!(err, GpuError::WorkerPanic(_)), "got {err:?}");
        assert_eq!(gpu.diagnostics().panics_caught, 1);

        // The fault is one-shot: the very next frame is clean and
        // bit-identical to the fault-free device.
        let retried = saxpy_frame(&gpu, 4096).expect("retry must succeed");
        assert_eq!(retried, expected);
    }

    #[test]
    fn injected_oom_surfaces_on_try_upload() {
        let gpu = VirtualGpu::gtx480().with_fault_plan(Arc::new(FaultPlan::single(
            FaultKind::AllocOom,
            0,
            0,
        )));
        let err = saxpy_frame(&gpu, 256).expect_err("upload must report OOM");
        assert!(matches!(err, GpuError::OutOfMemory { .. }), "got {err:?}");
        // The failed attempt never armed a launch, so the retry is still
        // launch 0 — and the fault is spent.
        assert!(saxpy_frame(&gpu, 256).is_ok());
    }

    #[test]
    fn transfer_corruption_caught_by_checksum_and_device_data_survives() {
        let clean = VirtualGpu::gtx480().with_workers(4);
        let expected = saxpy_frame(&clean, 8192).unwrap();

        let gpu = VirtualGpu::gtx480()
            .with_workers(4)
            .with_fault_plan(Arc::new(FaultPlan::single(
                FaultKind::TransferCorrupt,
                0,
                1,
            )));
        let (_, y) = saxpy_launch(&gpu, 8192).unwrap();
        let err = gpu
            .try_download(&y)
            .expect_err("checksum must catch the flip");
        assert!(
            matches!(err, GpuError::TransferCorrupted { chunk: 1 }),
            "got {err:?}"
        );
        assert_eq!(gpu.diagnostics().checksum_catches, 1);
        // Verification is non-destructive: the device image is intact, so
        // re-downloading (fault spent) recovers the exact frame.
        let (host, _) = gpu.try_download(&y).expect("second download is clean");
        assert_eq!(host, expected);
    }

    /// Devices sharing one plan (every `starsimd` session under a server
    /// fault plan) interleave: here both consult the plan for their
    /// uploads before either launches. A download binds to its own
    /// device's last launch, so B's launch between A's launch and A's
    /// download cannot steal the coordinate of A's transfer fault; an
    /// upload fault fires at the first consult at or after its launch, so
    /// one bound to B's launch is not skipped.
    #[test]
    fn shared_plan_faults_survive_interleaved_devices() {
        let spec = |launch, lane, kind| FaultSpec { launch, lane, kind };
        let plan = Arc::new(FaultPlan::from_specs(vec![
            spec(0, 1, FaultKind::TransferCorrupt),
            spec(1, 0, FaultKind::AllocOom),
        ]));
        let [a, b] = [(); 2].map(|()| {
            VirtualGpu::gtx480()
                .with_workers(2)
                .with_fault_plan(Arc::clone(&plan))
        });
        let n = 8192;
        let staged = [&a, &b].map(|gpu| {
            let (x, _) = gpu
                .try_upload(vec![1.0f32; n])
                .expect("consult at launch 0");
            (x, gpu.alloc_atomic_f32(n))
        });
        for (gpu, (x, y)) in [&a, &b].into_iter().zip(&staged) {
            let k = Saxpy { a: 2.0, x, y, n };
            gpu.launch(
                "saxpy",
                &k,
                LaunchConfig::new(n.div_ceil(128) as u32, 128u32),
            )
            .expect("plan launches 0 and 1");
        }
        let err = a
            .try_download(&staged[0].1)
            .expect_err("A's download follows plan launch 0");
        assert!(
            matches!(err, GpuError::TransferCorrupted { chunk: 1 }),
            "got {err:?}"
        );
        assert!(b.try_download(&staged[1].1).is_ok());
        let err = a
            .try_upload(vec![1.0f32; n])
            .expect_err("the launch-1 spec is due at upcoming launch 2");
        assert!(matches!(err, GpuError::OutOfMemory { .. }), "got {err:?}");
        assert_eq!(plan.remaining(), 0, "each fault fired exactly once");
    }

    #[test]
    fn stuck_lane_times_out_within_deadline_and_pool_rebuilds() {
        let clean = VirtualGpu::gtx480().with_workers(3);
        let expected = saxpy_frame(&clean, 4096).unwrap();

        let stall = Duration::from_millis(300);
        let gpu = VirtualGpu::gtx480()
            .with_workers(3)
            .with_watchdog(Duration::from_millis(30))
            .with_fault_plan(Arc::new(
                FaultPlan::single(FaultKind::StuckLane, 0, 0).with_stall(stall),
            ));
        let start = std::time::Instant::now();
        let err = saxpy_frame(&gpu, 4096).expect_err("stuck lane must time out");
        assert!(
            start.elapsed() < stall,
            "watchdog must fire before the stall ends"
        );
        assert!(
            matches!(err, GpuError::LaunchTimeout { deadline_ms: 30 }),
            "got {err:?}"
        );
        assert_eq!(gpu.diagnostics().timeouts, 1);

        // The very next launch rebuilds the pool and recovers bit-exactly.
        let retried = saxpy_frame(&gpu, 4096).expect("retry after rebuild");
        assert_eq!(retried, expected);
        assert_eq!(gpu.diagnostics().pool_rebuilds, 1);
    }

    /// A stuck lane needs a pooled counter pass on ≥ 2 workers. One worker,
    /// a one-block launch, the spawn rung and the reference executor have
    /// no worker lane to stall: the launch runs clean and the spec stays
    /// pending — not injected, still in `remaining()` — for good.
    #[test]
    fn stuck_lane_without_a_lane_to_stall_stays_pending() {
        let expected = saxpy_frame(&VirtualGpu::gtx480(), 4096).unwrap();
        let stuck = |workers, mode| {
            let plan = Arc::new(FaultPlan::single(FaultKind::StuckLane, 0, 1));
            let gpu = VirtualGpu::gtx480()
                .with_workers(workers)
                .with_exec_mode(mode)
                .with_watchdog(Duration::from_millis(30))
                .with_fault_plan(Arc::clone(&plan));
            (plan, gpu)
        };
        let cases = [
            ("one worker", 1, ExecMode::Batched, false, 4096),
            ("one-block launch", 4, ExecMode::Batched, false, 128),
            ("spawn rung", 4, ExecMode::Batched, true, 4096),
            ("reference executor", 4, ExecMode::Reference, false, 4096),
        ];
        for (label, workers, mode, spawn, n) in cases {
            let (plan, gpu) = stuck(workers, mode);
            gpu.set_dispatch_override(spawn);
            let image = saxpy_frame(&gpu, n).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(image, expected[..n], "{label}");
            // Launch 1 is pooled and batched, but the spec is bound to
            // launch 0: it is not deferred.
            gpu.set_dispatch_override(false);
            let gpu = gpu.with_exec_mode(ExecMode::Batched);
            saxpy_frame(&gpu, 4096).unwrap_or_else(|e| panic!("{label}, launch 1: {e}"));
            assert_eq!(plan.injected(), 0, "{label}: nothing was injected");
            assert_eq!(plan.remaining(), 1, "{label}: the spec stays pending");
            assert_eq!(gpu.diagnostics().timeouts, 0, "{label}");
        }

        // The control: a pooled counter pass on 4 workers takes the spec.
        let (plan, gpu) = stuck(4, ExecMode::Batched);
        let err = saxpy_frame(&gpu, 4096).expect_err("the lane stalls");
        assert!(matches!(err, GpuError::LaunchTimeout { .. }), "got {err:?}");
        assert_eq!((plan.injected(), plan.remaining()), (1, 0));
    }

    #[test]
    fn texture_bind_fault_fires_once() {
        let gpu = VirtualGpu::gtx480().with_fault_plan(Arc::new(FaultPlan::single(
            FaultKind::TextureBindFail,
            0,
            0,
        )));
        let r = gpu.bind_texture(4, 4, 1, vec![0.0; 16]);
        assert!(matches!(r, Err(GpuError::TextureBind(_))));
        assert!(gpu.bind_texture(4, 4, 1, vec![0.0; 16]).is_ok());
    }

    /// At 1 worker (inline) and at 4 (pooled), with the sink attached
    /// after and before `with_workers` rebuilds the pool. The two-pass
    /// launch stamps both windows; the per-thread one only the dispatch.
    #[test]
    fn telemetry_records_launch_traces_with_lane_events() {
        for workers in [1, 4] {
            for sink_first in [false, true] {
                let sink = Arc::new(GpuTelemetry::new());
                let gpu = if sink_first {
                    VirtualGpu::gtx480()
                        .with_telemetry(Arc::clone(&sink))
                        .with_workers(workers)
                } else {
                    VirtualGpu::gtx480()
                        .with_workers(workers)
                        .with_telemetry(Arc::clone(&sink))
                };
                let expected =
                    saxpy_frame(&VirtualGpu::gtx480().with_workers(workers), 4096).unwrap();
                let traced = saxpy_frame(&gpu, 4096).unwrap();
                assert_eq!(traced, expected, "telemetry must not perturb results");

                let launches = sink.take_launches();
                assert_eq!(launches.len(), 1);
                let t = &launches[0];
                assert_eq!(t.name, "saxpy");
                assert_eq!(t.mode, "batched");
                assert_eq!(t.launch, 0);
                assert!(t.end_us >= t.start_us);
                let (d0, d1) = t.dispatch_us.expect("dispatch window stamped");
                assert!(d0 >= t.start_us && d1 >= d0);
                assert_eq!(t.merge_us, None, "saxpy runs per thread: no deposit");
                assert!(t.modeled_kernel_s > 0.0);
                if workers > 1 {
                    assert!(
                        t.lane_events
                            .iter()
                            .any(|e| e.kind == crate::telemetry::LaneEventKind::Launch),
                        "lane events must include the publish \
                         (workers {workers}, sink first {sink_first}): {:?}",
                        t.lane_events
                    );
                }
                assert!(t.lane_events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
                assert_eq!(t.events_dropped, 0);
                assert!(sink.is_empty(), "take_launches drains the sink");

                overlap_frame(&gpu, ExecMode::Batched);
                let t = &sink.take_launches()[0];
                let (_, d1) = t.dispatch_us.expect("counter pass stamped");
                let (m0, m1) = t.merge_us.expect("deposit pass stamped as the merge");
                assert!(m0 >= d1 && m1 >= m0 && t.end_us >= m1);
            }
        }
    }

    /// Ladder rung 1 (spawn dispatch, forced per launch) must be
    /// observationally identical to pooled dispatch: same counters, same
    /// modeled time, same image, in both host-parallel executors.
    #[test]
    fn dispatch_override_matches_pooled_results() {
        for mode in [ExecMode::Reference, ExecMode::Batched] {
            let gpu = VirtualGpu::gtx480().with_workers(4).with_exec_mode(mode);
            let frame = |gpu: &VirtualGpu| {
                let (p, y) = saxpy_launch(gpu, 4096).unwrap();
                (p.counters, p.time_s, gpu.try_download(&y).unwrap().0)
            };
            let pooled = frame(&gpu);
            gpu.set_dispatch_override(true);
            let spawned = frame(&gpu);
            gpu.set_dispatch_override(false);
            let pooled_again = frame(&gpu);
            assert_eq!(pooled, spawned, "ladder rung 1 must be bit-identical");
            assert_eq!(pooled, pooled_again);
        }
    }
}
