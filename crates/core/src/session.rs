//! Persistent simulation sessions: amortizing one-time setup across a
//! frame sequence.
//!
//! The paper's closing remark — "The developed code is currently used for
//! simulating complex star images in a realistic large-scale star
//! simulator" — implies a *long-running* deployment: the simulator renders
//! frame after frame with fixed optics (σ, ROI) and a fixed magnitude
//! range. Under those conditions the adaptive simulator's lookup table is
//! frame-invariant, so its build and texture bind can be paid **once**.
//! [`AdaptiveSession`] does exactly that; per-frame cost then drops to
//! transfers + the (cheap) fetch kernel, which — as the `session`
//! experiment shows — removes the inflection point entirely: a session-
//! based adaptive simulator wins at *every* scale where a GPU wins at all.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpusim::{AppProfile, ExecMode, GlobalBuffer, MemcpyKind, VirtualGpu};
use psf::lut::LookupTable;
use starfield::StarCatalog;
use starimage::ImageF32;

use crate::adaptive::{bind_lut, build_lut, AdaptiveKernel, BoundLut};
use crate::config::{PsfKind, SimConfig};
use crate::error::SimError;
use crate::parallel::StarCentricKernel;
use crate::report::SimulationReport;
use crate::resilience::{run_with_retry_from, CancelToken, ResilienceReport, RetryPolicy, Rung};
use crate::star_record::{to_device_stars, DeviceStar};
use crate::telemetry::{maybe_span, Telemetry};

/// Everything the lookup-table build depends on, hashable. Floats are
/// compared by bit pattern: two configs share a table exactly when every
/// input to [`build_lut`] is bit-identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LutKey {
    roi_side: usize,
    mag_bins: usize,
    phases: usize,
    mag_lo: u32,
    mag_hi: u32,
    sigma: u32,
    a_factor: u32,
    /// PSF discriminant plus its parameter bit patterns (zeros when unused).
    psf: (u8, u32, u32),
}

impl LutKey {
    fn of(config: &SimConfig) -> Self {
        let psf = match config.psf {
            PsfKind::Point => (0, 0, 0),
            PsfKind::Integrated => (1, 0, 0),
            PsfKind::Smeared { length, angle } => (2, length.to_bits(), angle.to_bits()),
            PsfKind::Moffat { beta } => (3, beta.to_bits(), 0),
        };
        LutKey {
            roi_side: config.roi_side,
            mag_bins: config.lut_mag_bins,
            phases: config.lut_phases,
            mag_lo: config.mag_range.0.to_bits(),
            mag_hi: config.mag_range.1.to_bits(),
            sigma: config.sigma.to_bits(),
            a_factor: config.a_factor.to_bits(),
            psf,
        }
    }
}

/// A cached table plus its recency stamp and owning tenant.
struct LutEntry {
    lut: Arc<LookupTable>,
    last_use: u64,
    /// The tenant whose miss built (and whose quota holds) this table;
    /// `None` for anonymous (non-server) use.
    owner: Option<String>,
}

/// Per-tenant [`LutCache`] counters (guarded by the tenants mutex).
#[derive(Debug, Default, Clone, Copy)]
struct TenantCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A cross-session cache of built lookup tables, bounded by an LRU policy.
///
/// A large-scale simulator often runs many sessions over the same optics —
/// sweeping star counts, re-opening sessions per camera, re-rendering with
/// a different executor. The table depends only on the optics (σ, ROI,
/// magnitude range, PSF, binning), so a session opened through the cache
/// ([`LutSource::Cached`]) skips both the host-side build *and* the
/// modeled build time on a hit; only the per-device texture upload/bind
/// is re-paid.
///
/// The cache holds at most [`Self::capacity`] tables (default
/// [`LutCache::DEFAULT_CAPACITY`]); inserting past the bound evicts the
/// least-recently-*used* key, so a many-optics server's memory stays
/// bounded while its hot optics stay resident.
/// When the cache is shared across server tenants
/// ([`Self::with_tenant_quota`] + [`Self::get_or_build_for`]), each
/// tenant's resident tables are additionally bounded by a per-tenant
/// quota, and inserting past *that* bound evicts the tenant's **own**
/// least-recently-used table first — one tenant churning through optics
/// cannot evict another tenant's hot tables. Per-tenant hit/miss/eviction
/// counters are kept alongside the global ones ([`Self::stats_for`]).
pub struct LutCache {
    map: Mutex<HashMap<LutKey, LutEntry>>,
    capacity: usize,
    /// Maximum resident tables owned by any single tenant (`None` = only
    /// the global bound applies).
    tenant_quota: Option<usize>,
    tenants: Mutex<HashMap<String, TenantCounters>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A point-in-time snapshot of [`LutCache`] accounting, cheap to copy
/// into telemetry reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LutCacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that had to build a table.
    pub misses: u64,
    /// Tables displaced by the LRU bound.
    pub evictions: u64,
    /// Tables currently resident.
    pub len: usize,
    /// Maximum resident tables.
    pub capacity: usize,
}

impl Default for LutCache {
    fn default() -> Self {
        LutCache::new()
    }
}

impl LutCache {
    /// Default capacity: plenty for one camera sweeping a few PSFs, small
    /// against the multi-megabyte tables it bounds.
    pub const DEFAULT_CAPACITY: usize = 8;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        LutCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` tables.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "LutCache capacity must be positive");
        LutCache {
            map: Mutex::new(HashMap::new()),
            capacity,
            tenant_quota: None,
            tenants: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Bounds every tenant to at most `quota` resident tables of its own.
    /// Inserting past the quota evicts the tenant's own LRU table (charged
    /// to that tenant), before the global bound is even consulted — the
    /// isolation guarantee multi-tenant servers need.
    ///
    /// # Panics
    /// Panics when `quota` is zero.
    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        assert!(quota > 0, "LutCache tenant quota must be positive");
        self.tenant_quota = Some(quota);
        self
    }

    /// The per-tenant resident-table quota, if one is set.
    pub fn tenant_quota(&self) -> Option<usize> {
        self.tenant_quota
    }

    /// Maximum number of resident tables.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tables currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no table is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Tables evicted by the LRU bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// All counters plus occupancy in one consistent-enough snapshot
    /// (each field is individually exact; the set is racy under
    /// concurrent use, like any monitoring read).
    pub fn stats(&self) -> LutCacheStats {
        LutCacheStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            len: self.len(),
            capacity: self.capacity,
        }
    }

    /// Returns the cached table for `config`, building it for `gpu`'s
    /// texture memory (and caching it) on a miss. The boolean is `true` on
    /// a hit.
    ///
    /// With a `tenant`, the lookup is charged to that tenant's hit/miss
    /// counters, a built table is owned by (and counts against the quota
    /// of) the tenant, and quota evictions displace the tenant's **own**
    /// LRU table before the global LRU bound runs — so one tenant's churn
    /// never evicts another's tables through the quota path.
    pub fn get_or_build_for(
        &self,
        gpu: &VirtualGpu,
        config: &SimConfig,
        tenant: Option<&str>,
    ) -> Result<(Arc<LookupTable>, bool), SimError> {
        let key = LutKey::of(config);
        if let Some(entry) = self
            .map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get_mut(&key)
        {
            entry.last_use = self.tick.fetch_add(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(tenant) = tenant {
                self.tenant_counters(tenant, |c| c.hits += 1);
            }
            return Ok((Arc::clone(&entry.lut), true));
        }
        // Build outside the lock: a miss takes milliseconds and other
        // sessions may be hitting concurrently. Racing builders produce
        // bit-identical tables, so last-writer-wins is harmless.
        let lut = Arc::new(build_lut(config, gpu.spec())?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(tenant) = tenant {
            self.tenant_counters(tenant, |c| c.misses += 1);
        }
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let (Some(tenant), Some(quota)) = (tenant, self.tenant_quota) {
            // Quota bound first: the inserting tenant pays for its own
            // churn before any shared-capacity pressure is applied.
            let own = |e: &LutEntry| e.owner.as_deref() == Some(tenant);
            while !map.contains_key(&key) && map.values().filter(|e| own(e)).count() >= quota {
                self.evict_lru(&mut map, own);
            }
        }
        while map.len() >= self.capacity && !map.contains_key(&key) {
            self.evict_lru(&mut map, |_| true);
        }
        map.insert(
            key,
            LutEntry {
                lut: Arc::clone(&lut),
                last_use: self.tick.fetch_add(1, Ordering::Relaxed),
                owner: tenant.map(String::from),
            },
        );
        Ok((lut, false))
    }

    /// Evicts the least-recently-used table among those `eligible` selects,
    /// charging the eviction to its owner. Both callers' loop conditions
    /// guarantee one is eligible (a quota or capacity of at least 1 is
    /// reached). Linear scan: the cache is small by construction (that is
    /// its purpose).
    fn evict_lru(&self, map: &mut HashMap<LutKey, LutEntry>, eligible: impl Fn(&LutEntry) -> bool) {
        let Some(victim) = map
            .iter()
            .filter(|(_, e)| eligible(e))
            .min_by_key(|(_, e)| e.last_use)
            .map(|(k, _)| k.clone())
        else {
            return;
        };
        if let Some(owner) = map.remove(&victim).and_then(|e| e.owner) {
            self.tenant_counters(&owner, |c| c.evictions += 1);
        }
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Applies `update` to `tenant`'s counters, creating them on first use.
    fn tenant_counters(&self, tenant: &str, update: impl FnOnce(&mut TenantCounters)) {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        update(tenants.entry(tenant.to_string()).or_default());
    }

    /// `tenant`'s view of the cache: its own hit/miss/eviction counters,
    /// the tables it currently owns, and the bound they count against (the
    /// tenant quota when set, the shared capacity otherwise). All-zero for
    /// a tenant the cache has never seen.
    pub fn stats_for(&self, tenant: &str) -> LutCacheStats {
        let counters = self
            .tenants
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(tenant)
            .copied()
            .unwrap_or_default();
        let len = self
            .map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|e| e.owner.as_deref() == Some(tenant))
            .count();
        LutCacheStats {
            hits: counters.hits,
            misses: counters.misses,
            evictions: counters.evictions,
            len,
            capacity: self.tenant_quota.unwrap_or(self.capacity),
        }
    }

    /// Every tenant the cache has served, with its stats, sorted by name
    /// (deterministic for monitoring responses).
    pub fn tenant_stats(&self) -> Vec<(String, LutCacheStats)> {
        let names: Vec<String> = {
            let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
            let mut names: Vec<String> = tenants.keys().cloned().collect();
            names.sort();
            names
        };
        names
            .into_iter()
            .map(|name| {
                let stats = self.stats_for(&name);
                (name, stats)
            })
            .collect()
    }
}

/// Where [`AdaptiveSession::open`] gets its lookup table.
#[derive(Clone, Copy, Default)]
pub enum LutSource<'a> {
    /// Build the table for this session alone.
    #[default]
    Fresh,
    /// Share tables through a cache: a hit skips the build and its modeled
    /// time; a miss builds the table and inserts it.
    Cached(&'a LutCache),
    /// [`Self::Cached`], with the lookup charged to a tenant's counters and
    /// quota ([`LutCache::get_or_build_for`]).
    Tenant(&'a LutCache, &'a str),
}

impl LutSource<'_> {
    /// The table for `config` on `gpu`, and whether it came from a cache.
    /// A cache lookup records `lut_cache.*` metrics into `telemetry`.
    pub(crate) fn fetch(
        self,
        gpu: &VirtualGpu,
        config: &SimConfig,
        telemetry: Option<&Telemetry>,
    ) -> Result<(Arc<LookupTable>, bool), SimError> {
        let (cache, tenant) = match self {
            LutSource::Fresh => return Ok((Arc::new(build_lut(config, gpu.spec())?), false)),
            LutSource::Cached(cache) => (cache, None),
            LutSource::Tenant(cache, tenant) => (cache, Some(tenant)),
        };
        let (lut, hit) = cache.get_or_build_for(gpu, config, tenant)?;
        if let Some(t) = telemetry {
            let stats = cache.stats();
            let metrics = t.metrics();
            metrics.counter_add(
                if hit {
                    "lut_cache.hits"
                } else {
                    "lut_cache.misses"
                },
                1,
            );
            metrics.gauge_set("lut_cache.len", stats.len as f64);
            metrics.gauge_set("lut_cache.evictions", stats.evictions as f64);
        }
        Ok((lut, hit))
    }
}

/// How [`AdaptiveSession::open`] sets a session up, beside its device and
/// config. The default builds a fresh table, makes one attempt at every
/// bind and frame, and records no telemetry.
#[derive(Clone, Default)]
pub struct SessionSetup<'a> {
    /// Where the lookup table comes from.
    pub lut: LutSource<'a>,
    /// Retries a failed texture bind, and runs every frame under the
    /// bounded-retry degradation ladder.
    pub retry: Option<RetryPolicy>,
    /// Records the setup spans (`session-setup > {lut-build,
    /// texture-bind}`), the `lut_cache.*` metrics of a cache lookup, and
    /// every frame's spans, metrics and device launch traces.
    pub telemetry: Option<Arc<Telemetry>>,
}

/// Timings of one frame rendered through the zero-allocation path
/// ([`AdaptiveSession::render_into`]).
///
/// Beyond the two headline numbers, the timing splits the modeled
/// application time into its pipeline phases (`app_time_s == kernel_s +
/// star_upload_s + serial_transfer_s` up to float summation order) and
/// carries the launch's hardware counters, so frame-loop callers can
/// check bit-equality between render paths and feed the
/// [`crate::streams`] overlap model without re-rendering.
#[derive(Debug, Clone, Copy)]
pub struct FrameTiming {
    /// Modeled application time (kernel + transfers), seconds.
    pub app_time_s: f64,
    /// Host wall-clock time of the frame's successful attempt (kernel
    /// launch and download), seconds.
    pub wall_time_s: f64,
    /// Modeled kernel execution time, seconds.
    pub kernel_s: f64,
    /// Modeled star-upload time — the transfer a streamed copy/compute
    /// overlap can hide behind the previous frame's kernel, seconds.
    pub star_upload_s: f64,
    /// Modeled image upload + download — the serial prefix/suffix no
    /// pipeline removes, seconds.
    pub serial_transfer_s: f64,
    /// Hardware counters of the frame's kernel launch.
    pub counters: gpusim::Counters,
}

/// One frame's star data staged on the device ahead of its launch
/// ([`AdaptiveSession::prepare_stars`]).
///
/// Holds the uploaded buffer plus the modeled upload time. The fault-plan
/// consult is deferred to the render attempt, just before the launch, so
/// an upload fault keeps its launch coordinate and a retry relaunches from
/// the same staged buffer.
pub struct PreparedStars {
    stars: GlobalBuffer<DeviceStar>,
    star_count: usize,
    star_bytes: usize,
    t_stars: f64,
}

impl PreparedStars {
    /// Stars staged in the buffer.
    pub fn star_count(&self) -> usize {
        self.star_count
    }

    /// Modeled host→device time of the staged upload, seconds.
    pub fn modeled_upload_s(&self) -> f64 {
        self.t_stars
    }
}

/// One rendered frame: the launch's profile and the modeled transfers.
struct Rendered {
    kernel: gpusim::KernelProfile,
    star_upload_s: f64,
    image_upload_s: f64,
    download_s: f64,
    wall_time_s: f64,
}

impl Rendered {
    /// The profile's one "CPU-GPU transmission" item: star upload, image
    /// upload and download.
    fn transfer_s(&self) -> f64 {
        (self.star_upload_s + self.image_upload_s) + self.download_s
    }

    fn timing(&self) -> FrameTiming {
        FrameTiming {
            // Same association as `AppProfile::app_time` (kernel time plus
            // the one transmission item), so `render` and `render_into`
            // report bit-equal modeled times.
            app_time_s: self.kernel.time_s + self.transfer_s(),
            wall_time_s: self.wall_time_s,
            kernel_s: self.kernel.time_s,
            star_upload_s: self.star_upload_s,
            serial_transfer_s: self.image_upload_s + self.download_s,
            counters: self.kernel.counters,
        }
    }
}

/// A long-lived adaptive simulator with its lookup table resident in
/// texture memory.
pub struct AdaptiveSession {
    gpu: VirtualGpu,
    config: SimConfig,
    lut: BoundLut,
    /// Persistent device image: each frame's download zeroes it in the
    /// same pass (`try_download_take`), and a failed frame zeroes it too, so
    /// it is reused — never reallocated — across the session's lifetime.
    image_dev: gpusim::GlobalAtomicF32,
    /// One-time setup cost (LUT build + upload + bind), seconds.
    setup_time_s: f64,
    /// Atomic (not `Cell`) so the session stays `Sync`: every render path
    /// takes `&self`, and callers may share one session across threads.
    frames_rendered: AtomicU64,
    /// When set, every render path retries failed frames under this
    /// policy, descending the degradation ladder one [`Rung`] per attempt.
    retry: Option<RetryPolicy>,
    /// Host-side resilience accounting (faults, retries, rungs).
    stats: Mutex<ResilienceReport>,
    /// When set, every render path records spans and metrics here (and
    /// the device records launch traces into the same sink's timeline).
    telemetry: Option<Arc<Telemetry>>,
    /// Load-shedding floor as a [`Rung::index`]: render attempts start the
    /// degradation ladder here instead of [`Rung::Configured`]. Atomic so
    /// a server's shed controller can lower/raise the floor while frames
    /// are in flight on other threads.
    shed_floor: AtomicU8,
    /// When set, the retry ladder consults this token **between**
    /// attempts, so a cancelled (or deadline-expired) request stops
    /// burning retry budget while in-flight attempts still drain.
    cancel_token: Option<CancelToken>,
    /// The static analyzer's report for this session's production kernel,
    /// when the config enabled the pre-launch advisor
    /// ([`SimConfig::analyze`]). Produced once at setup; frames never
    /// re-run the analysis.
    analysis: Option<gpusim::KernelReport>,
}

impl AdaptiveSession {
    /// Opens a session: gets the lookup table from `setup.lut`, binds it to
    /// `gpu`'s texture memory once, and allocates the persistent device
    /// image. The ROI is checked against the image before any table is
    /// built or looked up, so a rejected open leaves a shared cache as it
    /// was. `config.workers` sets the device's worker count.
    pub fn open(
        gpu: VirtualGpu,
        config: SimConfig,
        setup: SessionSetup<'_>,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let mut gpu = match config.workers {
            Some(w) => gpu.with_workers(w),
            None => gpu,
        };
        if let Some(t) = &setup.telemetry {
            gpu.set_telemetry(Some(t.gpu_sink()));
        }
        let setup_span = maybe_span(setup.telemetry.as_ref(), "session-setup");
        let lut = bind_lut(&gpu, &config, &setup)?;
        let image_dev = gpu.alloc_atomic_f32(config.pixels());
        let mut session = AdaptiveSession {
            gpu,
            config,
            setup_time_s: lut.build_s + lut.upload_s + lut.bind_s,
            stats: Mutex::new(lut.bind_faults),
            lut,
            image_dev,
            frames_rendered: AtomicU64::new(0),
            retry: setup.retry,
            telemetry: setup.telemetry,
            shed_floor: AtomicU8::new(Rung::Configured.index() as u8),
            cancel_token: None,
            analysis: None,
        };
        if session.config.analyze {
            session.run_advisor()?;
        }
        drop(setup_span);
        Ok(session)
    }

    /// Opens a session on the paper's GTX480 with a freshly built table.
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        Self::open(VirtualGpu::gtx480(), config, SessionSetup::default())
    }

    /// [`Self::open`] with the default setup. Kept only because perfbench
    /// calls it.
    pub fn on(gpu: VirtualGpu, config: SimConfig) -> Result<Self, SimError> {
        Self::open(gpu, config, SessionSetup::default())
    }

    /// [`Self::open`] through `tenant`'s share of `cache`, with whether the
    /// table came from it. Kept only because perfbench calls it.
    pub fn on_cached_tenant(
        gpu: VirtualGpu,
        config: SimConfig,
        cache: &LutCache,
        tenant: &str,
    ) -> Result<(Self, bool), SimError> {
        let setup = SessionSetup {
            lut: LutSource::Tenant(cache, tenant),
            ..SessionSetup::default()
        };
        let session = Self::open(gpu, config, setup)?;
        let hit = session.lut_cache_hit();
        Ok((session, hit))
    }

    /// Runs the pre-launch advisor once over this session's production
    /// kernel: the static analyzer vets the exact (kernel, launch, device)
    /// triple every frame will use — deny-level findings reject the
    /// session before a single frame renders — and a one-star dynamic
    /// probe launch (into a scratch image; session state is untouched)
    /// measures the texture hit rate the static floor predicts. Both land
    /// in the metrics registry as `analyze.*` gauges when telemetry is
    /// attached.
    fn run_advisor(&mut self) -> Result<(), SimError> {
        let _span = maybe_span(self.telemetry.as_ref(), "static-analysis");
        let (lo, hi) = self.config.mag_range;
        let probe = DeviceStar {
            mag: 0.5 * (lo + hi),
            x: self.config.width as f32 / 2.0,
            y: self.config.height as f32 / 2.0,
        };
        let (stars, _t) = self.gpu.upload(vec![probe]);
        let scratch = self.gpu.alloc_atomic_f32(self.config.pixels());
        let (kernel, cfg) = AdaptiveKernel::build(
            &self.config,
            self.gpu.spec(),
            &self.lut,
            &stars,
            1,
            &scratch,
        );
        let report = self.gpu.advise_launch("adaptive-lut", &kernel, &cfg)?;
        // The probe pins Reference mode: counters are bit-equal across exec
        // modes, and inheriting Sanitized here would append a setup-time
        // sanitize report that frame-accounting consumers don't expect.
        let profile = self.gpu.launch_mode(
            "adaptive-lut-probe",
            &kernel,
            cfg,
            gpusim::ExecMode::Reference,
        )?;
        if let Some(t) = &self.telemetry {
            let m = t.metrics();
            m.gauge_set(
                "analyze.adaptive_lut.lints_deny",
                report.count(gpusim::LintLevel::Deny) as f64,
            );
            m.gauge_set(
                "analyze.adaptive_lut.lints_warn",
                report.count(gpusim::LintLevel::Warn) as f64,
            );
            m.gauge_set(
                "analyze.adaptive_lut.lints_info",
                report.count(gpusim::LintLevel::Info) as f64,
            );
            m.gauge_set(
                "analyze.adaptive_lut.occupancy",
                report.prediction.occupancy_fraction,
            );
            let floor = report.prediction.tex_hit_rate_floor;
            let measured = profile.counters.tex_hit_rate();
            m.gauge_set("analyze.adaptive_lut.tex_hit_rate_floor", floor);
            m.gauge_set("analyze.adaptive_lut.tex_hit_rate_measured", measured);
            m.gauge_set("analyze.adaptive_lut.tex_hit_rate_delta", measured - floor);
        }
        self.analysis = Some(report);
        Ok(())
    }

    /// The static analyzer's report from session setup, when
    /// [`SimConfig::analyze`] was enabled.
    pub fn analysis(&self) -> Option<&gpusim::KernelReport> {
        self.analysis.as_ref()
    }

    /// How many times the pre-launch advisor has run on this session's
    /// device — exactly once per session with [`SimConfig::analyze`] set,
    /// zero otherwise, regardless of how many frames render (the gate
    /// asserts the frame hot path never pays for analysis).
    pub fn advise_runs(&self) -> u64 {
        self.gpu.advise_count()
    }

    /// Sets the load-shedding floor: subsequent render attempts start the
    /// degradation ladder at `floor` instead of [`Rung::Configured`].
    /// [`Rung::DirectPsf`] is the server's heaviest shed — the adaptive
    /// LUT kernel (and its shared texture pressure) is bypassed for the
    /// star-centric fallback, trading bit-fidelity for capacity exactly
    /// like the fault ladder's last rung. Takes `&self`: a shed controller
    /// may flip the floor while frames are in flight.
    pub fn set_shed_floor(&self, floor: Rung) {
        self.shed_floor
            .store(floor.index() as u8, Ordering::Relaxed);
    }

    /// The current load-shedding floor ([`Rung::Configured`] by default).
    pub fn shed_floor(&self) -> Rung {
        Rung::from_index(self.shed_floor.load(Ordering::Relaxed) as usize)
            .unwrap_or(Rung::Configured)
    }

    /// Installs (or clears) the cancellation token the retry ladder
    /// consults between attempts — deadline budgets compose with retries
    /// through this hook.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel_token = token;
    }

    /// Cumulative resilience accounting for this session: host-side fault
    /// and retry counters folded together with the device's diagnostics
    /// (pool rebuilds, checksum catches, arena drops).
    pub fn resilience_report(&self) -> ResilienceReport {
        let mut report = *self.stats.lock().unwrap_or_else(|e| e.into_inner());
        report.absorb_diagnostics(self.gpu.diagnostics());
        report
    }

    /// [`Self::set_telemetry`] on an open session: later renders record
    /// spans and metrics, and the device records launch traces. Kept only
    /// because perfbench calls it.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.set_telemetry(Some(telemetry));
        self
    }

    /// Attaches or detaches the telemetry sink in place.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.gpu
            .set_telemetry(telemetry.as_ref().map(|t| t.gpu_sink()));
        self.telemetry = telemetry;
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// The device's resilience counters (pool rebuilds, checksum catches,
    /// panics, timeouts, arena drops) without handing out the device.
    pub fn diagnostics(&self) -> gpusim::GpuDiagnostics {
        self.gpu.diagnostics()
    }

    /// The session's device (for fault-plan wiring in tests and benches).
    pub fn gpu(&self) -> &VirtualGpu {
        &self.gpu
    }

    /// The session's fixed configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// One-time setup cost paid at [`Self::open`], seconds: the modeled
    /// table build (zero for a table from a cache), upload and bind.
    pub fn setup_time_s(&self) -> f64 {
        self.setup_time_s
    }

    /// Whether the lookup table came from a cache.
    pub fn lut_cache_hit(&self) -> bool {
        self.lut.cached
    }

    /// Frames rendered so far.
    pub fn frames_rendered(&self) -> u64 {
        self.frames_rendered.load(Ordering::Relaxed)
    }

    /// Launches the fetch kernel over the `prepared` stars against
    /// `image_dev` and returns its profile.
    ///
    /// `rung` selects the degradation level: [`Rung::ReferenceExec`] and
    /// below force the reference executor, and [`Rung::DirectPsf`] swaps
    /// the LUT fetch kernel for the direct-PSF star-centric kernel (the
    /// last-resort fallback — numerically close, not bit-identical).
    fn launch_kernel(
        &self,
        prepared: &PreparedStars,
        image_dev: &gpusim::GlobalAtomicF32,
        rung: Rung,
    ) -> Result<gpusim::KernelProfile, SimError> {
        let config = &self.config;
        let _launch_span = maybe_span(self.telemetry.as_ref(), "kernel-launch");

        let mode = if config.exec_mode == ExecMode::Sanitized {
            // The sanitizer already rides the reference path; degradation
            // to ReferenceExec must not silently detach it.
            ExecMode::Sanitized
        } else if rung >= Rung::ReferenceExec {
            ExecMode::Reference
        } else {
            config.exec_mode
        };
        let (device, stars, n) = (self.gpu.spec(), &prepared.stars, prepared.star_count);
        if rung == Rung::DirectPsf {
            let (kernel, cfg) = StarCentricKernel::build(config, device, stars, n, image_dev);
            Ok(self
                .gpu
                .launch_mode("star-centric-fallback", &kernel, cfg, mode)?)
        } else {
            let (kernel, cfg) =
                AdaptiveKernel::build(config, device, &self.lut, stars, n, image_dev);
            Ok(self.gpu.launch_mode("adaptive-lut", &kernel, cfg, mode)?)
        }
    }

    /// Renders one frame. Unlike the one-shot [`crate::AdaptiveSimulator`],
    /// the profile carries **no** lookup-table build or texture-binding items —
    /// they were paid at session setup. The frame runs through the same
    /// body as [`Self::render_into`]: it starts at the shed floor and
    /// retries under the session's [`RetryPolicy`], if one is set.
    pub fn render(&self, catalog: &StarCatalog) -> Result<SimulationReport, SimError> {
        let wall_start = Instant::now();
        let prepared = self.prepare_stars(catalog);
        let mut host_pixels = Vec::new();
        let frame = self.render_frame(&prepared, &self.image_dev, &mut host_pixels)?;
        let mut profile = AppProfile::new();
        let transfer_s = frame.transfer_s();
        profile.kernels.push(frame.kernel);
        profile.push_overhead("CPU-GPU transmission", transfer_s);
        let app_time_s = profile.app_time();
        Ok(SimulationReport {
            simulator: "adaptive-session",
            image: ImageF32::from_data(self.config.width, self.config.height, host_pixels),
            profile,
            app_time_s,
            wall_time_s: wall_start.elapsed().as_secs_f64(),
            stars: catalog.len(),
            roi_side: self.config.roi_side,
        })
    }

    /// Renders one frame into a caller-owned pixel buffer — the
    /// zero-allocation frame path. `host` is resized on first use and
    /// reused verbatim afterwards; no device image, shadow buffer, or host
    /// image is allocated once the loop is warm. Pixels and modeled times
    /// are bit-identical to [`Self::render`].
    ///
    /// With a [`RetryPolicy`] installed ([`SessionSetup::retry`]), a failed
    /// frame is retried under the
    /// degradation ladder: spawn dispatch (bit-identical to the configured
    /// path), then the reference executor, then the direct-PSF fallback
    /// kernel (both numerically equivalent, not bit-equal — see
    /// [`Rung`]). Every fault and rung is recorded in
    /// [`Self::resilience_report`].
    pub fn render_into(
        &self,
        catalog: &StarCatalog,
        host: &mut Vec<f32>,
    ) -> Result<FrameTiming, SimError> {
        let prepared = self.prepare_stars(catalog);
        self.render_prepared_into(&prepared, &self.image_dev, host)
    }

    /// Renders one frame from stars staged by [`Self::prepare_stars`] into
    /// `image_dev`, draining the result into `host`. [`Self::render_into`]
    /// is this call on the session's own device image.
    ///
    /// Pixels, counters, and modeled times are bit-identical to
    /// [`Self::render_into`] on the same catalog. With a [`RetryPolicy`]
    /// installed, failed attempts descend the same degradation ladder and
    /// relaunch from the staged buffer after zeroing `image_dev`.
    pub fn render_prepared_into(
        &self,
        prepared: &PreparedStars,
        image_dev: &gpusim::GlobalAtomicF32,
        host: &mut Vec<f32>,
    ) -> Result<FrameTiming, SimError> {
        self.render_frame(prepared, image_dev, host)
            .map(|frame| frame.timing())
    }

    /// A fresh zeroed device image sized for this session's frames, for
    /// callers that render into an image of their own through
    /// [`Self::render_prepared_into`].
    pub fn alloc_frame_image(&self) -> gpusim::GlobalAtomicF32 {
        self.gpu.alloc_atomic_f32(self.config.pixels())
    }

    /// Stages one frame's star data on the device: the host-side record
    /// conversion and the upload copy. It does **not** consult the fault
    /// plan: the render attempt takes the upload fault just before the
    /// launch, so an injected `AllocOom` keeps its launch coordinate.
    pub fn prepare_stars(&self, catalog: &StarCatalog) -> PreparedStars {
        let _upload_span = maybe_span(self.telemetry.as_ref(), "star-upload");
        let data = to_device_stars(catalog.stars());
        let star_bytes = std::mem::size_of::<DeviceStar>() * data.len();
        let (stars, t_stars) = self.gpu.upload(data);
        PreparedStars {
            stars,
            star_count: catalog.len(),
            star_bytes,
            t_stars,
        }
    }

    /// The one render body behind every public render path: starts the
    /// degradation ladder at the shed floor, retries under the session's
    /// [`RetryPolicy`] (one attempt without one), and counts the frame.
    ///
    /// A failed attempt can leave partial deposits in `image_dev`: the SMs
    /// that ran before an injected panic, or a download whose checksum
    /// caught a corruption before re-zeroing. So the image is zeroed
    /// before every retry and after a frame that fails for good; the next
    /// frame then starts from the same all-zero image as a fresh session.
    fn render_frame(
        &self,
        prepared: &PreparedStars,
        image_dev: &gpusim::GlobalAtomicF32,
        host: &mut Vec<f32>,
    ) -> Result<Rendered, SimError> {
        let _render_span = maybe_span(self.telemetry.as_ref(), "render");
        let start = self.shed_floor();
        let result = match self.retry {
            None => self.attempt(prepared, image_dev, host, start),
            Some(policy) => {
                let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
                run_with_retry_from(
                    &policy,
                    &mut stats,
                    start,
                    self.cancel_token.as_ref(),
                    |rung| {
                        if rung != start {
                            image_dev.fill_zero();
                        }
                        self.attempt(prepared, image_dev, host, rung)
                    },
                )
            }
        };
        match &result {
            Ok(frame) => {
                self.frames_rendered.fetch_add(1, Ordering::Relaxed);
                self.note_frame_metrics(frame.wall_time_s);
            }
            Err(_) => image_dev.fill_zero(),
        }
        result
    }

    /// One attempt at `rung`: the upload-fault consult, the launch and the
    /// download.
    fn attempt(
        &self,
        prepared: &PreparedStars,
        image_dev: &gpusim::GlobalAtomicF32,
        host: &mut Vec<f32>,
        rung: Rung,
    ) -> Result<Rendered, SimError> {
        let _attempt_span = maybe_span(self.telemetry.as_ref(), rung.span_name());
        let wall_start = Instant::now();
        let spawn = rung >= Rung::SpawnDispatch;
        if spawn {
            // Sidestep the worker pool: spawn dispatch survives a poisoned
            // or rebuilt pool and is bit-identical to pooled dispatch.
            self.gpu.set_dispatch_override(true);
        }
        let launched = self
            .gpu
            .take_upload_fault(prepared.star_bytes)
            .map_err(SimError::from)
            .and_then(|()| self.launch_kernel(prepared, image_dev, rung));
        if spawn {
            self.gpu.set_dispatch_override(false);
        }
        let kernel = launched?;
        let _download_span = maybe_span(self.telemetry.as_ref(), "download");
        let download_s = self.gpu.try_download_take(image_dev, host)?;
        Ok(Rendered {
            kernel,
            star_upload_s: prepared.t_stars,
            image_upload_s: self
                .gpu
                .transfer_model()
                .time(MemcpyKind::HostToDevice, self.config.pixels() * 4),
            download_s,
            wall_time_s: wall_start.elapsed().as_secs_f64(),
        })
    }

    /// Per-frame metric rollup, recorded once per successful frame.
    fn note_frame_metrics(&self, wall_s: f64) {
        if let Some(t) = &self.telemetry {
            let metrics = t.metrics();
            metrics.counter_add("frames.rendered", 1);
            metrics.observe("frame.wall_ms", wall_s * 1e3);
            metrics.gauge_set("arena.pooled", self.gpu.arena_pooled() as f64);
        }
    }

    /// Amortized per-frame cost after `frames` renders of `per_frame_s`
    /// each: `(setup + frames·per_frame) / frames`.
    pub fn amortized_frame_cost(&self, per_frame_s: f64, frames: u64) -> f64 {
        assert!(frames > 0, "need at least one frame");
        (self.setup_time_s + frames as f64 * per_frame_s) / frames as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveSimulator;
    use crate::parallel::ParallelSimulator;
    use crate::Simulator;
    use gpusim::{FaultKind, FaultPlan};
    use starfield::FieldGenerator;
    use starimage::diff::images_close;

    fn cfg() -> SimConfig {
        SimConfig::new(128, 128, 10)
    }

    /// A GTX480 session whose table goes through `cache`.
    fn cached(cache: &LutCache, config: SimConfig) -> Result<AdaptiveSession, SimError> {
        let setup = SessionSetup {
            lut: LutSource::Cached(cache),
            ..SessionSetup::default()
        };
        AdaptiveSession::open(VirtualGpu::gtx480(), config, setup)
    }

    #[test]
    fn session_renders_the_same_image_as_the_one_shot_simulator() {
        let cat = FieldGenerator::new(128, 128).generate(300, 3);
        let session = AdaptiveSession::new(cfg()).unwrap();
        let one_shot = AdaptiveSimulator::new().simulate(&cat, &cfg()).unwrap();
        let frame = session.render(&cat).unwrap();
        assert!(images_close(&one_shot.image, &frame.image, 1e-6, 1e-6));
        assert_eq!(frame.simulator, "adaptive-session");
    }

    #[test]
    fn per_frame_cost_drops_by_the_setup_items() {
        let cat = FieldGenerator::new(128, 128).generate(300, 3);
        let session = AdaptiveSession::new(cfg()).unwrap();
        let one_shot = AdaptiveSimulator::new().simulate(&cat, &cfg()).unwrap();
        let frame = session.render(&cat).unwrap();
        let setup_items = one_shot.profile.overhead_named("lookup table build")
            + one_shot.profile.overhead_named("texture memory binding");
        assert!(setup_items > 0.0);
        // Session frames also skip the LUT *upload*, so they are at least
        // `setup_items` cheaper.
        assert!(
            frame.app_time_s <= one_shot.app_time_s - setup_items + 1e-9,
            "session frame {:.6}s should beat one-shot {:.6}s by ≥ {:.6}s",
            frame.app_time_s,
            one_shot.app_time_s,
            setup_items
        );
        // And the session profile carries no setup items.
        assert_eq!(frame.profile.overhead_named("lookup table build"), 0.0);
        assert_eq!(frame.profile.overhead_named("texture memory binding"), 0.0);
    }

    #[test]
    fn session_beats_parallel_below_the_inflection() {
        // The headline: with setup amortized away, adaptive wins even where
        // the one-shot selection table says Parallel.
        let cat = FieldGenerator::new(128, 128).generate(512, 7); // tiny field
        let session = AdaptiveSession::new(cfg()).unwrap();
        let frame = session.render(&cat).unwrap();
        let par = ParallelSimulator::new().simulate(&cat, &cfg()).unwrap();
        assert!(
            frame.app_time_s < par.app_time_s,
            "session {:.6}s should beat parallel {:.6}s at small scale",
            frame.app_time_s,
            par.app_time_s
        );
    }

    #[test]
    fn frames_counter_and_amortization() {
        let cat = FieldGenerator::new(128, 128).generate(50, 1);
        let session = AdaptiveSession::new(cfg()).unwrap();
        assert_eq!(session.frames_rendered(), 0);
        let frame = session.render(&cat).unwrap();
        let _ = session.render(&cat).unwrap();
        assert_eq!(session.frames_rendered(), 2);
        assert!(session.setup_time_s() > 0.0);
        // Amortized cost tends to the per-frame cost.
        let a1 = session.amortized_frame_cost(frame.app_time_s, 1);
        let a100 = session.amortized_frame_cost(frame.app_time_s, 100);
        assert!(a1 > a100);
        assert!(a100 - frame.app_time_s < session.setup_time_s() / 50.0);
    }

    #[test]
    fn render_into_matches_render_bitwise() {
        let cat = FieldGenerator::new(128, 128).generate(250, 11);
        let by_report = AdaptiveSession::new(cfg()).unwrap();
        let by_buffer = AdaptiveSession::new(cfg()).unwrap();
        let report = by_report.render(&cat).unwrap();
        let mut host = Vec::new();
        let mut timing = by_buffer.render_into(&cat, &mut host).unwrap();
        assert_eq!(report.image.data(), host.as_slice());
        assert_eq!(report.app_time_s, timing.app_time_s);
        // Warm loop: the same host buffer serves every later frame.
        let cap = host.capacity();
        for _ in 0..3 {
            timing = by_buffer.render_into(&cat, &mut host).unwrap();
        }
        assert_eq!(host.capacity(), cap, "no host reallocation when warm");
        // Frame 4 equals a fresh session's frame 1: `try_download_take`
        // re-zeroed the persistent image and the per-SM caches reset cold.
        assert_eq!(report.image.data(), host.as_slice());
        assert_eq!(report.app_time_s, timing.app_time_s);
        assert_eq!(report.profile.kernels[0].counters, timing.counters);
        assert_eq!(by_buffer.frames_rendered(), 4);
        assert!(timing.wall_time_s > 0.0);
    }

    #[test]
    fn session_and_staged_stars_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<AdaptiveSession>();
        assert_sync::<PreparedStars>();
    }

    #[test]
    fn prepared_path_matches_render_into_bitwise() {
        let cat = FieldGenerator::new(128, 128).generate(250, 11);
        let sequential = AdaptiveSession::new(cfg()).unwrap();
        let staged = AdaptiveSession::new(cfg()).unwrap();
        let mut expected = Vec::new();
        let expected_t = sequential.render_into(&cat, &mut expected).unwrap();

        let image = staged.alloc_frame_image();
        let prepared = staged.prepare_stars(&cat);
        assert_eq!(prepared.star_count(), cat.len());
        assert!(prepared.modeled_upload_s() > 0.0);
        let mut host = Vec::new();
        let timing = staged
            .render_prepared_into(&prepared, &image, &mut host)
            .unwrap();
        assert_eq!(
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            host.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "prepared path must match render_into bit-for-bit"
        );
        assert_eq!(expected_t.app_time_s.to_bits(), timing.app_time_s.to_bits());
        assert_eq!(expected_t.kernel_s.to_bits(), timing.kernel_s.to_bits());
        assert_eq!(expected_t.counters, timing.counters);
        assert_eq!(staged.frames_rendered(), 1);
    }

    #[test]
    fn frame_timing_phases_sum_to_the_app_time() {
        let cat = FieldGenerator::new(128, 128).generate(250, 11);
        let session = AdaptiveSession::new(cfg()).unwrap();
        let mut host = Vec::new();
        let t = session.render_into(&cat, &mut host).unwrap();
        let sum = t.kernel_s + t.star_upload_s + t.serial_transfer_s;
        assert!((t.app_time_s - sum).abs() <= 1e-15 * t.app_time_s.abs());
        assert!(t.kernel_s > 0.0 && t.star_upload_s > 0.0 && t.serial_transfer_s > 0.0);
    }

    #[test]
    fn config_workers_flow_into_the_device() {
        let cat = FieldGenerator::new(128, 128).generate(250, 4);
        let mut limited = cfg();
        limited.workers = Some(2);
        let a = AdaptiveSession::new(cfg()).unwrap().render(&cat).unwrap();
        let b = AdaptiveSession::new(limited).unwrap().render(&cat).unwrap();
        // Worker count is functional parallelism only: counters and modeled
        // times are invariant; pixels match to merge-order rounding.
        assert_eq!(a.app_time_s, b.app_time_s);
        assert!(images_close(&a.image, &b.image, 1e-6, 1e-6));
    }

    #[test]
    fn lut_cache_evicts_least_recently_used() {
        let cache = LutCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let mut sigma3 = cfg();
        sigma3.sigma = 3.0;
        let mut sigma4 = cfg();
        sigma4.sigma = 4.0;

        // Fill: [base, sigma3], then touch base so sigma3 becomes LRU.
        let _ = cached(&cache, cfg()).unwrap();
        let _ = cached(&cache, sigma3.clone()).unwrap();
        let _ = cached(&cache, cfg()).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));

        // Inserting sigma4 must evict sigma3 (LRU), not base (recently used).
        let _ = cached(&cache, sigma4).unwrap();
        assert_eq!(cache.len(), 2, "capacity bound holds");
        let _ = cached(&cache, cfg()).unwrap();
        assert_eq!(cache.hits(), 2, "base survived the eviction");
        let _ = cached(&cache, sigma3).unwrap();
        assert_eq!(cache.misses(), 4, "sigma3 was evicted and rebuilt");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn lut_cache_rejects_zero_capacity() {
        let _ = LutCache::with_capacity(0);
    }

    #[test]
    #[should_panic(expected = "quota must be positive")]
    fn lut_cache_rejects_zero_tenant_quota() {
        let _ = LutCache::new().with_tenant_quota(0);
    }

    #[test]
    fn tenant_quota_evicts_the_tenants_own_tables_first() {
        // Shared capacity 4, but each tenant may own at most 1 table.
        let cache = LutCache::with_capacity(4).with_tenant_quota(1);
        assert_eq!(cache.tenant_quota(), Some(1));
        let gpu = VirtualGpu::gtx480;
        let mut sigma3 = cfg();
        sigma3.sigma = 3.0;
        let mut sigma4 = cfg();
        sigma4.sigma = 4.0;

        // Tenant a resident with `cfg`; tenant b resident with `sigma3`.
        let _ = cache.get_or_build_for(&gpu(), &cfg(), Some("a")).unwrap();
        let _ = cache.get_or_build_for(&gpu(), &sigma3, Some("b")).unwrap();
        assert_eq!(cache.len(), 2);

        // Tenant a churns to a third optics: its OWN table is evicted even
        // though the shared cache has room — tenant b is untouched.
        let _ = cache.get_or_build_for(&gpu(), &sigma4, Some("a")).unwrap();
        assert_eq!(cache.len(), 2, "a's quota bound the insert");
        let a = cache.stats_for("a");
        let b = cache.stats_for("b");
        assert_eq!((a.misses, a.evictions, a.len), (2, 1, 1));
        assert_eq!((b.misses, b.evictions, b.len), (1, 0, 1));
        assert_eq!(a.capacity, 1, "per-tenant view reports the quota");

        // b's table survived a's churn: this lookup is a hit.
        let (_, hit) = cache.get_or_build_for(&gpu(), &sigma3, Some("b")).unwrap();
        assert!(hit, "one tenant's churn must not evict another's tables");
        assert_eq!(cache.stats_for("b").hits, 1);

        // The sorted roll-up sees both tenants.
        let all = cache.tenant_stats();
        assert_eq!(
            all.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        // Unknown tenants read as all-zero, not a panic.
        assert_eq!(
            cache.stats_for("nobody"),
            LutCacheStats {
                capacity: 1,
                ..Default::default()
            }
        );
    }

    /// Tenants with the same optics share one table, owned by (and
    /// counted against) the tenant that built it.
    #[test]
    fn on_cached_tenant_reports_the_hit_and_renders_identically() {
        let cat = FieldGenerator::new(128, 128).generate(200, 9);
        let cache = LutCache::new().with_tenant_quota(2);
        let open = |tenant| {
            AdaptiveSession::on_cached_tenant(VirtualGpu::gtx480(), cfg(), &cache, tenant).unwrap()
        };
        let ((a, hit_a), (b, hit_b)) = (open("a"), open("b"));
        assert!(!hit_a && hit_b, "same optics: b hits a's table");
        assert_eq!((hit_a, hit_b), (a.lut_cache_hit(), b.lut_cache_hit()));
        assert!(Arc::ptr_eq(&a.lut.lut, &b.lut.lut));
        assert_eq!((cache.stats_for("a").len, cache.stats_for("b").len), (1, 0));
        assert_eq!(cache.stats_for("b").hits, 1);
        let want = AdaptiveSession::new(cfg())
            .unwrap()
            .render(&cat)
            .unwrap()
            .image;
        assert_eq!(a.render(&cat).unwrap().image, want);
        assert_eq!(b.render(&cat).unwrap().image, want);
    }

    #[test]
    fn shed_floor_switches_the_kernel_and_restores() {
        let cat = FieldGenerator::new(128, 128).generate(200, 5);
        let session = AdaptiveSession::new(cfg()).unwrap();
        let mut adaptive = Vec::new();
        session.render_into(&cat, &mut adaptive).unwrap();

        // Shed to the star-centric fallback: numerically close, and the
        // direct-PSF reference for this catalog.
        assert_eq!(session.shed_floor(), Rung::Configured);
        session.set_shed_floor(Rung::DirectPsf);
        assert_eq!(session.shed_floor(), Rung::DirectPsf);
        let mut shed = Vec::new();
        session.render_into(&cat, &mut shed).unwrap();
        let direct = ParallelSimulator::new().simulate(&cat, &cfg()).unwrap();
        let shed_img = ImageF32::from_data(128, 128, shed);
        assert!(images_close(&direct.image, &shed_img, 1e-5, 1e-5));

        // Restoring the floor restores bit-identical adaptive output.
        session.set_shed_floor(Rung::Configured);
        let mut restored = Vec::new();
        session.render_into(&cat, &mut restored).unwrap();
        assert_eq!(
            adaptive.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            restored.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// Every setup `open` takes (table source × retry × telemetry) renders
    /// the default session's frame bit for bit; only a cache hit's setup
    /// time differs, by the build it skipped.
    #[test]
    fn every_setup_renders_the_default_sessions_frame() {
        let cat = FieldGenerator::new(128, 128).generate(200, 9);
        let frame = |s: &AdaptiveSession| {
            let r = s.render(&cat).unwrap();
            let pixels: Vec<u32> = r.image.data().iter().map(|v| v.to_bits()).collect();
            (
                pixels,
                r.profile.kernels[0].counters,
                r.app_time_s.to_bits(),
            )
        };
        let base = AdaptiveSession::new(cfg()).unwrap();
        let want = frame(&base);
        let policy = RetryPolicy {
            backoff: std::time::Duration::ZERO,
            ..RetryPolicy::default()
        };
        for source in ["fresh", "cache", "tenant"] {
            for (retry, traced) in [None, Some(policy)]
                .into_iter()
                .flat_map(|r| [(r, false), (r, true)])
            {
                let cache = LutCache::new();
                let lut = match source {
                    "fresh" => LutSource::Fresh,
                    "cache" => LutSource::Cached(&cache),
                    _ => LutSource::Tenant(&cache, "t"),
                };
                let uses_cache = source != "fresh";
                // Cold, then warm: a cache serves the second open.
                let mut opened = Vec::new();
                for warm in [false, true] {
                    let case = format!("{source}, {retry:?}, traced {traced}, warm {warm}");
                    let telemetry = traced.then(Telemetry::new);
                    let setup = SessionSetup {
                        lut,
                        retry,
                        telemetry: telemetry.clone(),
                    };
                    // Under a policy, the open's first bind fails and is
                    // retried, and the frame runs on the retry ladder.
                    let mut gpu = VirtualGpu::gtx480();
                    if retry.is_some() {
                        let plan = FaultPlan::single(FaultKind::TextureBindFail, 0, 0);
                        gpu = gpu.with_fault_plan(Arc::new(plan));
                    }
                    let session = AdaptiveSession::open(gpu, cfg(), setup).unwrap();
                    assert_eq!(frame(&session), want, "{case}");
                    let r = session.resilience_report();
                    let n = u64::from(retry.is_some());
                    assert_eq!((r.bind_failures, r.retries, r.frames), (n, n, n), "{case}");
                    let hit = uses_cache && warm;
                    assert_eq!(session.lut_cache_hit(), hit, "{case}");
                    let counts = if uses_cache {
                        (u64::from(warm), 1, 1)
                    } else {
                        (0, 0, 0)
                    };
                    assert_eq!(
                        (cache.hits(), cache.misses(), cache.len()),
                        counts,
                        "{case}"
                    );
                    let skipped = base.setup_time_s() - session.setup_time_s();
                    let build = if hit { base.lut.build_s } else { 0.0 };
                    assert!((skipped - build).abs() < 1e-12, "{case}");
                    opened.push(session);
                    let Some(t) = telemetry else { continue };
                    let sig = t.span_tree_signature();
                    for edge in [
                        ("", "session-setup", 1),
                        ("session-setup", "lut-build", 1),
                        ("session-setup", "texture-bind", 1),
                    ] {
                        assert!(sig.contains(&edge), "{case}: {sig:?}");
                    }
                    let m = t.metrics();
                    let lookups = m.counter("lut_cache.hits") + m.counter("lut_cache.misses");
                    assert_eq!(lookups, u64::from(uses_cache), "{case}");
                    assert_eq!(m.gauge("lut_cache.len").is_some(), uses_cache, "{case}");
                }
                // The warm session holds the cold one's table allocation.
                let shared = Arc::ptr_eq(&opened[0].lut.lut, &opened[1].lut.lut);
                assert_eq!(shared, uses_cache, "{source}, {retry:?}, traced {traced}");
            }
        }
    }

    /// The ROI is checked before the table lookup: a rejected open neither
    /// counts a miss nor inserts a table that evicts a good one.
    #[test]
    fn a_rejected_open_leaves_the_cache_as_it_was() {
        let cache = LutCache::with_capacity(1);
        cached(&cache, cfg()).unwrap();
        let before = cache.stats();
        let err = cached(&cache, SimConfig::new(16, 16, 20))
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("exceeds the 16×16 image"), "{err}");
        assert_eq!(cache.stats(), before);
        assert!(cached(&cache, cfg()).unwrap().lut_cache_hit());
    }

    #[test]
    fn lut_cache_propagates_build_errors() {
        let cache = LutCache::new();
        let mut bad = cfg();
        bad.lut_mag_bins = usize::MAX / 1024; // blows the texture budget
        assert!(cached(&cache, bad).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn session_rejects_invalid_config() {
        assert!(AdaptiveSession::new(SimConfig::new(0, 10, 10)).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn amortization_needs_frames() {
        let session = AdaptiveSession::new(cfg()).unwrap();
        let _ = session.amortized_frame_cost(0.001, 0);
    }

    mod resilience {
        use super::*;
        use crate::resilience::RetryPolicy;
        use std::time::Duration;

        fn resilient(gpu: VirtualGpu) -> AdaptiveSession {
            let setup = SessionSetup {
                retry: Some(RetryPolicy {
                    backoff: Duration::ZERO,
                    ..RetryPolicy::default()
                }),
                ..SessionSetup::default()
            };
            AdaptiveSession::open(gpu, cfg(), setup).unwrap()
        }

        #[test]
        fn retried_frame_is_bit_identical_after_a_worker_panic() {
            let cat = FieldGenerator::new(128, 128).generate(200, 5);
            let clean = AdaptiveSession::new(cfg()).unwrap();
            let mut expected = Vec::new();
            clean.render_into(&cat, &mut expected).unwrap();

            let gpu = VirtualGpu::gtx480().with_fault_plan(Arc::new(FaultPlan::single(
                FaultKind::WorkerPanic,
                0,
                3,
            )));
            let session = resilient(gpu);
            let mut host = Vec::new();
            session.render_into(&cat, &mut host).unwrap();
            assert_eq!(
                expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                host.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "retried frame must match the fault-free run bit-for-bit"
            );
            let report = session.resilience_report();
            assert_eq!(report.retries, 1);
            assert_eq!(report.panics, 1);
            assert_eq!(report.rung_frames, [0, 1, 0, 0]);
            assert_eq!(report.frames, 1);
            assert_eq!(report.exhausted, 0);
        }

        #[test]
        fn without_a_policy_faults_surface_directly() {
            let cat = FieldGenerator::new(128, 128).generate(50, 2);
            let gpu = VirtualGpu::gtx480().with_fault_plan(Arc::new(FaultPlan::single(
                FaultKind::WorkerPanic,
                0,
                1,
            )));
            let session = AdaptiveSession::open(gpu, cfg(), SessionSetup::default()).unwrap();
            let mut host = Vec::new();
            let err = session.render_into(&cat, &mut host).unwrap_err();
            assert!(matches!(
                err,
                SimError::Gpu(gpusim::GpuError::WorkerPanic(_))
            ));
            assert_eq!(session.frames_rendered(), 0);
        }

        #[test]
        fn exhausted_retries_report_the_last_error() {
            // Four one-shot panics sink every attempt of a 4-attempt policy.
            let plan = FaultPlan::from_specs(
                (0..4)
                    .map(|launch| gpusim::FaultSpec {
                        launch,
                        lane: 0,
                        kind: FaultKind::WorkerPanic,
                    })
                    .collect(),
            );
            let session = resilient(VirtualGpu::gtx480().with_fault_plan(Arc::new(plan)));
            let cat = FieldGenerator::new(128, 128).generate(50, 2);
            let mut host = Vec::new();
            let err = session.render_into(&cat, &mut host).unwrap_err();
            assert!(matches!(
                err,
                SimError::RetriesExhausted { attempts: 4, .. }
            ));
            let report = session.resilience_report();
            assert_eq!(report.exhausted, 1);
            assert_eq!(report.faults_seen, 4);
            assert_eq!(report.retries, 3);
        }
    }
}
