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

use gpusim::{AppProfile, ExecMode, GlobalBuffer, LaunchConfig, MemcpyKind, Texture, VirtualGpu};
use psf::lut::LookupTable;
use psf::roi::Roi;
use starfield::StarCatalog;
use starimage::ImageF32;

use crate::adaptive::{AdaptiveKernel, AdaptiveSimulator, LUT_BUILD_S_PER_ENTRY, SMEM_WORDS};
use crate::config::{PsfKind, SimConfig};
use crate::error::SimError;
use crate::parallel::StarCentricKernel;
use crate::report::SimulationReport;
use crate::resilience::{run_with_retry_from, CancelToken, ResilienceReport, RetryPolicy, Rung};
use crate::star_record::{to_device_stars, DeviceStar};
use crate::telemetry::{maybe_span, Telemetry};

/// Everything the lookup-table build depends on, hashable. Floats are
/// compared by bit pattern: two configs share a table exactly when every
/// input to [`AdaptiveSimulator::build_lut`] is bit-identical.
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
/// magnitude range, PSF, binning), so [`AdaptiveSession::on_cached`] can
/// skip both the host-side build *and* the modeled build time on a hit;
/// only the per-device texture upload/bind is re-paid.
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

    /// Builds (or touches) the table for `config` without opening a
    /// session — the off-critical-path warm-up hook. The pipelined frame
    /// loop calls this from its producer stage while the consumer renders,
    /// so a later session over the same optics pays neither the host-side
    /// build nor the modeled build time. Returns `true` on a hit (the
    /// table was already resident).
    pub fn prefetch(&self, gpu: &VirtualGpu, config: &SimConfig) -> Result<bool, SimError> {
        config.validate()?;
        let (_, hit) = self.get_or_build(gpu, config)?;
        Ok(hit)
    }

    /// Returns the cached table for `config`, building (and caching) it on
    /// a miss. The boolean is `true` on a hit.
    fn get_or_build(
        &self,
        gpu: &VirtualGpu,
        config: &SimConfig,
    ) -> Result<(Arc<LookupTable>, bool), SimError> {
        self.get_or_build_for(gpu, config, None)
    }

    /// [`get_or_build`](Self::get_or_build) with tenant attribution: the
    /// lookup is charged to `tenant`'s hit/miss counters, a built table is
    /// owned by (and counts against the quota of) `tenant`, and quota
    /// evictions displace the tenant's **own** LRU table before the global
    /// LRU bound runs — so one tenant's churn never evicts another's
    /// tables through the quota path.
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
        let builder = AdaptiveSimulator::on(VirtualGpu::new(gpu.spec().clone()));
        let lut = Arc::new(builder.build_lut(config)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(tenant) = tenant {
            self.tenant_counters(tenant, |c| c.misses += 1);
        }
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let (Some(tenant), Some(quota)) = (tenant, self.tenant_quota) {
            // Quota bound first: the inserting tenant pays for its own
            // churn before any shared-capacity pressure is applied.
            while !map.contains_key(&key)
                && map
                    .values()
                    .filter(|e| e.owner.as_deref() == Some(tenant))
                    .count()
                    >= quota
            {
                let Some(victim) = map
                    .iter()
                    .filter(|(_, e)| e.owner.as_deref() == Some(tenant))
                    .min_by_key(|(_, e)| e.last_use)
                    .map(|(k, _)| k.clone())
                else {
                    break; // unreachable: the filter found ≥ quota ≥ 1 above
                };
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.tenant_counters(tenant, |c| c.evictions += 1);
            }
        }
        while map.len() >= self.capacity && !map.contains_key(&key) {
            // Evict the least-recently-used entry. Linear scan: the cache
            // is small by construction (that is its purpose).
            let Some(victim) = map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone())
            else {
                break; // unreachable: map is non-empty above capacity ≥ 1
            };
            if let Some(owner) = map.remove(&victim).and_then(|e| e.owner) {
                self.tenant_counters(&owner, |c| c.evictions += 1);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
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

/// Modeled build cost of `lut` (what the one-shot profile charges).
fn lut_build_time_s(lut: &LookupTable) -> f64 {
    lut.len() as f64 * LUT_BUILD_S_PER_ENTRY
}

/// Build cost of a cache hit: the table already exists.
fn zero_build_time(_: &LookupTable) -> f64 {
    0.0
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
    /// Host wall-clock time of the render call, seconds.
    pub wall_time_s: f64,
    /// Modeled kernel execution time, seconds.
    pub kernel_s: f64,
    /// Modeled star-upload time — the transfer a pipelined loop can hide
    /// behind the previous frame's kernel, seconds.
    pub star_upload_s: f64,
    /// Modeled image upload + download — the serial prefix/suffix no
    /// pipeline removes, seconds.
    pub serial_transfer_s: f64,
    /// Hardware counters of the frame's kernel launch.
    pub counters: gpusim::Counters,
}

/// One frame's star data staged on the device ahead of its launch by the
/// pipelined frame loop's producer stage ([`AdaptiveSession::prepare_stars`]).
///
/// Holds the uploaded buffer plus the modeled upload time; the fault-plan
/// consult is deferred to the consumer so fault coordinates stay
/// serialized in launch order.
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

/// A long-lived adaptive simulator with its lookup table resident in
/// texture memory.
pub struct AdaptiveSession {
    gpu: VirtualGpu,
    config: SimConfig,
    lut: Arc<LookupTable>,
    lut_tex: Texture,
    /// Persistent device image: each frame's download zeroes it in the
    /// same pass (`download_take`), so it is reused — never reallocated —
    /// across the session's lifetime.
    image_dev: gpusim::GlobalAtomicF32,
    /// One-time setup cost (LUT build + upload + bind), seconds.
    setup_time_s: f64,
    /// Atomic (not `Cell`) so the session is `Sync`: the pipelined frame
    /// loop shares one session between its producer and consumer stages.
    frames_rendered: AtomicU64,
    /// When set, [`Self::render_into`] retries failed frames under this
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
    /// Opens a session on the paper's GTX480: builds the lookup table and
    /// binds it to texture memory once.
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        Self::on(VirtualGpu::gtx480(), config)
    }

    /// Opens a session on a caller-provided device.
    pub fn on(gpu: VirtualGpu, config: SimConfig) -> Result<Self, SimError> {
        config.validate()?;
        // Reuse the simulator's builder so table parameters stay in sync.
        let builder = AdaptiveSimulator::on(VirtualGpu::new(gpu.spec().clone()));
        let lut = Arc::new(builder.build_lut(&config)?);
        Self::with_lut(gpu, config, lut, lut_build_time_s)
    }

    /// Opens a session reusing `cache` for the lookup table: on a cache hit
    /// neither the host-side build nor the modeled build time is paid —
    /// setup shrinks to the texture upload + bind of *this* device.
    pub fn on_cached(
        gpu: VirtualGpu,
        config: SimConfig,
        cache: &LutCache,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let (lut, hit) = cache.get_or_build(&gpu, &config)?;
        let charge = if hit {
            zero_build_time
        } else {
            lut_build_time_s
        };
        Self::with_lut(gpu, config, lut, charge)
    }

    /// [`Self::on_cached`] with tenant attribution: the lookup is charged
    /// to `tenant`'s cache counters and quota
    /// ([`LutCache::get_or_build_for`]). Returns the session plus whether
    /// the table came from cache, so servers can report per-session cache
    /// behavior to the client.
    pub fn on_cached_tenant(
        gpu: VirtualGpu,
        config: SimConfig,
        cache: &LutCache,
        tenant: &str,
    ) -> Result<(Self, bool), SimError> {
        config.validate()?;
        let (lut, hit) = cache.get_or_build_for(&gpu, &config, Some(tenant))?;
        let charge = if hit {
            zero_build_time
        } else {
            lut_build_time_s
        };
        Ok((Self::with_lut(gpu, config, lut, charge)?, hit))
    }

    /// Opens a session with the resilient frame loop enabled: texture
    /// binding retries under `policy`, and every [`Self::render_into`]
    /// frame runs under the bounded-retry degradation ladder.
    pub fn on_resilient(
        gpu: VirtualGpu,
        config: SimConfig,
        policy: RetryPolicy,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let builder = AdaptiveSimulator::on(VirtualGpu::new(gpu.spec().clone()));
        let lut = Arc::new(builder.build_lut(&config)?);
        let mut session =
            Self::with_lut_retry(gpu, config, lut, lut_build_time_s, Some(policy), None)?;
        session.retry = Some(policy);
        Ok(session)
    }

    /// Opens a fully observable session: spans for every setup and render
    /// stage, cache and frame metrics, and device launch traces all land
    /// in `telemetry`. With a `cache`, the lookup table goes through it
    /// (recording `lut_cache.*` counters); without one it is built fresh.
    pub fn on_telemetry(
        gpu: VirtualGpu,
        config: SimConfig,
        cache: Option<&LutCache>,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let setup_span = telemetry.span("session-setup");
        let (lut, charge): (Arc<LookupTable>, fn(&LookupTable) -> f64) = {
            let _build = telemetry.span("lut-build");
            match cache {
                Some(cache) => {
                    let (lut, hit) = cache.get_or_build(&gpu, &config)?;
                    let stats = cache.stats();
                    let metrics = telemetry.metrics();
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
                    let charge: fn(&LookupTable) -> f64 = if hit {
                        zero_build_time
                    } else {
                        lut_build_time_s
                    };
                    (lut, charge)
                }
                None => {
                    let builder = AdaptiveSimulator::on(VirtualGpu::new(gpu.spec().clone()));
                    (Arc::new(builder.build_lut(&config)?), lut_build_time_s)
                }
            }
        };
        let session = Self::with_lut_retry(gpu, config, lut, charge, None, Some(telemetry))?;
        drop(setup_span);
        Ok(session)
    }

    /// Shared constructor tail: binds `lut` on `gpu`, allocates the
    /// persistent device image, applies `config.workers`, and charges
    /// `build_charge(&lut)` seconds of setup on top of upload + bind.
    fn with_lut(
        gpu: VirtualGpu,
        config: SimConfig,
        lut: Arc<LookupTable>,
        build_charge: fn(&LookupTable) -> f64,
    ) -> Result<Self, SimError> {
        Self::with_lut_retry(gpu, config, lut, build_charge, None, None)
    }

    /// Constructor tail with an optional bind-retry policy: a transient
    /// texture-bind failure is retried up to `retry.max_attempts` times
    /// (each failure recorded in the session's resilience stats) before
    /// surfacing as an error.
    fn with_lut_retry(
        gpu: VirtualGpu,
        config: SimConfig,
        lut: Arc<LookupTable>,
        build_charge: fn(&LookupTable) -> f64,
        retry: Option<RetryPolicy>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<Self, SimError> {
        let mut gpu = match config.workers {
            Some(w) => gpu.with_workers(w),
            None => gpu,
        };
        if let Some(t) = &telemetry {
            gpu.set_telemetry(Some(t.gpu_sink()));
        }
        let _bind_span = maybe_span(telemetry.as_ref(), "texture-bind");
        let build_time = build_charge(&lut);
        let side = config.roi_side;
        // Static pre-launch validation: the ROI must fit the image, or
        // every frame of this session would index out of bounds.
        gpusim::sanitize::validate_roi(side, config.width, config.height)?;
        let mut stats = ResilienceReport::default();
        let max_attempts = retry.map_or(1, |p| p.max_attempts.max(1));
        let mut attempt = 1u32;
        let (lut_tex, t_upload, t_bind) = loop {
            match gpu.bind_texture(side, side, lut.layers(), lut.data().to_vec()) {
                Ok(bound) => break bound,
                Err(e) => {
                    let err = SimError::from(e);
                    stats.record_error(&err);
                    if attempt >= max_attempts {
                        return Err(err);
                    }
                    stats.retries += 1;
                    attempt += 1;
                }
            }
        };
        // Static LUT-domain validation: the fetch domain of every future
        // frame (magnitude layers × ROI texels) must lie inside the table
        // just bound — texture clamping would mask a shape mismatch.
        gpusim::sanitize::validate_lut_domain(&lut_tex, lut.layers() - 1, side - 1, side - 1)?;
        let image_dev = gpu.alloc_atomic_f32(config.pixels());
        let mut session = AdaptiveSession {
            gpu,
            config,
            lut,
            lut_tex,
            image_dev,
            setup_time_s: build_time + t_upload + t_bind,
            frames_rendered: AtomicU64::new(0),
            retry: None,
            stats: Mutex::new(stats),
            telemetry,
            shed_floor: AtomicU8::new(Rung::Configured.index() as u8),
            cancel_token: None,
            analysis: None,
        };
        if session.config.analyze {
            session.run_advisor()?;
        }
        Ok(session)
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
        let side = self.config.roi_side;
        let (lo, hi) = self.config.mag_range;
        let probe = DeviceStar {
            mag: 0.5 * (lo + hi),
            x: self.config.width as f32 / 2.0,
            y: self.config.height as f32 / 2.0,
        };
        let (stars, _t) = self.gpu.upload(vec![probe]);
        let scratch = self.gpu.alloc_atomic_f32(self.config.pixels());
        let kernel = AdaptiveKernel {
            stars: &stars,
            image: &scratch,
            lut_tex: &self.lut_tex,
            lut: &self.lut,
            star_count: 1,
            width: self.config.width,
            height: self.config.height,
            roi: Roi::new(side),
        };
        let cfg = LaunchConfig::star_centric(1, side, self.gpu.spec())
            .with_shared_mem(SMEM_WORDS * 4)
            .with_backend(self.config.backend);
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

    /// Enables the bounded-retry degradation ladder for
    /// [`Self::render_into`] frames.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Sets (or clears) the frame retry policy in place.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// The active frame retry policy, if any.
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry
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

    /// Attaches a telemetry sink after construction: subsequent renders
    /// record spans/metrics and the device records launch traces.
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

    /// One-time setup cost paid at [`Self::new`], seconds.
    pub fn setup_time_s(&self) -> f64 {
        self.setup_time_s
    }

    /// Frames rendered so far.
    pub fn frames_rendered(&self) -> u64 {
        self.frames_rendered.load(Ordering::Relaxed)
    }

    /// Uploads the catalog and launches the fetch kernel against
    /// `image_dev`; returns the kernel profile and the modeled transfer
    /// time of the star upload + image upload (download not included).
    ///
    /// `rung` selects the degradation level: [`Rung::ReferenceExec`] and
    /// below force the reference executor, and [`Rung::DirectPsf`] swaps
    /// the LUT fetch kernel for the direct-PSF star-centric kernel (the
    /// last-resort fallback — numerically close, not bit-identical).
    fn launch_frame(
        &self,
        catalog: &StarCatalog,
        image_dev: &gpusim::GlobalAtomicF32,
        rung: Rung,
    ) -> Result<(gpusim::KernelProfile, f64, f64), SimError> {
        let upload_span = maybe_span(self.telemetry.as_ref(), "star-upload");
        let (stars, t_stars) = self.gpu.try_upload(to_device_stars(catalog.stars()))?;
        let t_img_up = self
            .gpu
            .transfer_model()
            .time(MemcpyKind::HostToDevice, self.config.pixels() * 4);
        drop(upload_span);
        let profile = self.launch_kernel(&stars, catalog.len(), image_dev, rung)?;
        Ok((profile, t_stars, t_img_up))
    }

    /// The kernel half of [`Self::launch_frame`]: mode/rung selection and
    /// the launch itself, against an already-uploaded star buffer. Shared
    /// by the sequential path and the pipelined path (whose star buffer
    /// was staged ahead of time by [`Self::prepare_stars`]).
    fn launch_kernel(
        &self,
        stars: &GlobalBuffer<DeviceStar>,
        star_count: usize,
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
        let cfg = LaunchConfig::star_centric(star_count.max(1), config.roi_side, self.gpu.spec())
            .with_shared_mem(3 * 4)
            .with_backend(config.backend);
        let profile = if rung == Rung::DirectPsf {
            let kernel = StarCentricKernel {
                stars,
                image: image_dev,
                star_count,
                width: config.width,
                height: config.height,
                roi: Roi::new(config.roi_side),
                psf: config.psf_model(),
                a_factor: config.a_factor,
            };
            self.gpu
                .launch_mode("star-centric-fallback", &kernel, cfg, mode)?
        } else {
            let kernel = AdaptiveKernel {
                stars,
                image: image_dev,
                lut_tex: &self.lut_tex,
                lut: self.lut.as_ref(),
                star_count,
                width: config.width,
                height: config.height,
                roi: Roi::new(config.roi_side),
            };
            self.gpu.launch_mode("adaptive-lut", &kernel, cfg, mode)?
        };
        Ok(profile)
    }

    /// Renders one frame. Unlike [`AdaptiveSimulator::simulate`], the
    /// profile carries **no** lookup-table build or texture-binding items —
    /// they were paid at session setup.
    pub fn render(&self, catalog: &StarCatalog) -> Result<SimulationReport, SimError> {
        let _render_span = maybe_span(self.telemetry.as_ref(), "render");
        let wall_start = Instant::now();
        let mut profile = AppProfile::new();
        let config = &self.config;
        let star_count = catalog.len();

        let (kernel_profile, t_stars, t_img_up) =
            self.launch_frame(catalog, &self.image_dev, Rung::Configured)?;
        let t_up = t_stars + t_img_up;
        profile.kernels.push(kernel_profile);

        let download_span = maybe_span(self.telemetry.as_ref(), "download");
        // Drain the persistent device image so the next frame starts from
        // zero, exactly like a fresh allocation.
        let mut host_pixels = Vec::new();
        let t_down = self
            .gpu
            .try_download_take(&self.image_dev, &mut host_pixels)?;
        drop(download_span);
        profile.push_overhead("CPU-GPU transmission", t_up + t_down);

        self.frames_rendered.fetch_add(1, Ordering::Relaxed);
        self.note_frame_metrics(wall_start.elapsed().as_secs_f64());
        let image = ImageF32::from_data(config.width, config.height, host_pixels);
        let app_time_s = profile.app_time();
        Ok(SimulationReport {
            simulator: "adaptive-session",
            image,
            profile,
            app_time_s,
            wall_time_s: wall_start.elapsed().as_secs_f64(),
            stars: star_count,
            roi_side: config.roi_side,
        })
    }

    /// Renders one frame into a caller-owned pixel buffer — the
    /// zero-allocation frame path. `host` is resized on first use and
    /// reused verbatim afterwards; no device image, shadow buffer, or host
    /// image is allocated once the loop is warm. Pixels and modeled times
    /// are bit-identical to [`Self::render`].
    ///
    /// With a [`RetryPolicy`] installed ([`Self::with_retry_policy`] /
    /// [`Self::on_resilient`]), a failed frame is retried under the
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
        let _render_span = maybe_span(self.telemetry.as_ref(), "render");
        let start = self.shed_floor();
        let result = match self.retry {
            None => self.render_attempt(catalog, host, start),
            Some(policy) => {
                let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
                run_with_retry_from(
                    &policy,
                    &mut stats,
                    start,
                    self.cancel_token.as_ref(),
                    |rung| {
                        if rung != start {
                            // A failed attempt may have deposited partial
                            // results into the persistent device image; the
                            // retry must start from zero to stay bit-identical.
                            self.image_dev.fill_zero();
                        }
                        self.render_attempt(catalog, host, rung)
                    },
                )
            }
        };
        if let Ok(timing) = &result {
            self.frames_rendered.fetch_add(1, Ordering::Relaxed);
            self.note_frame_metrics(timing.wall_time_s);
        }
        result
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

    /// One attempt of the zero-allocation frame path at `rung`.
    fn render_attempt(
        &self,
        catalog: &StarCatalog,
        host: &mut Vec<f32>,
        rung: Rung,
    ) -> Result<FrameTiming, SimError> {
        let _attempt_span = maybe_span(self.telemetry.as_ref(), rung.span_name());
        let spawn = rung >= Rung::SpawnDispatch;
        if spawn {
            // Sidestep the worker pool: spawn dispatch survives a poisoned
            // or rebuilt pool and is bit-identical to pooled dispatch.
            self.gpu.set_dispatch_override(true);
        }
        let result = self.render_attempt_inner(catalog, host, rung);
        if spawn {
            self.gpu.set_dispatch_override(false);
        }
        result
    }

    fn render_attempt_inner(
        &self,
        catalog: &StarCatalog,
        host: &mut Vec<f32>,
        rung: Rung,
    ) -> Result<FrameTiming, SimError> {
        let wall_start = Instant::now();
        let (kernel_profile, t_stars, t_img_up) =
            self.launch_frame(catalog, &self.image_dev, rung)?;
        let t_up = t_stars + t_img_up;
        let _download_span = maybe_span(self.telemetry.as_ref(), "download");
        let t_down = self.gpu.try_download_take(&self.image_dev, host)?;
        Ok(FrameTiming {
            // Same association as `AppProfile::app_time` (kernel time plus
            // the one transmission overhead item) so the two render paths
            // report bit-equal modeled times.
            app_time_s: kernel_profile.time_s + (t_up + t_down),
            wall_time_s: wall_start.elapsed().as_secs_f64(),
            kernel_s: kernel_profile.time_s,
            star_upload_s: t_stars,
            serial_transfer_s: t_img_up + t_down,
            counters: kernel_profile.counters,
        })
    }

    /// A fresh zeroed device image sized for this session's frames.
    ///
    /// The pipelined frame loop allocates two of these once and rotates
    /// them across frames (frame N downloading while frame N+1's stars
    /// stage), so its steady state allocates nothing — the same contract
    /// as the session's own persistent image.
    pub fn alloc_frame_image(&self) -> gpusim::GlobalAtomicF32 {
        self.gpu.alloc_atomic_f32(self.config.pixels())
    }

    /// Stages one frame's star data on the device — the producer half of
    /// the pipelined frame loop. Runs the host-side record conversion and
    /// the upload copy, but does **not** consult the fault plan: fault
    /// coordinates stay serialized in launch order, so the consumer takes
    /// the upload fault in [`Self::render_prepared_into`] just before the
    /// launch, exactly where the sequential loop would.
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

    /// Renders one frame from stars staged by [`Self::prepare_stars`] into
    /// `image_dev` (one of the pipeline's two rotating device images),
    /// draining the result into `host` — the consumer half of the
    /// pipelined frame loop.
    ///
    /// Pixels, counters, and modeled times are bit-identical to
    /// [`Self::render_into`] on the same catalog: the staged upload is the
    /// same bytes, the upload-fault consult happens here in launch order,
    /// and the modeled-time summation replays the sequential association
    /// exactly. With a [`RetryPolicy`] installed, failed attempts descend
    /// the same degradation ladder; retries re-launch from the retained
    /// staged buffer after zeroing `image_dev`, so recovery on rungs 0–1
    /// is bit-identical just as in the sequential loop.
    pub fn render_prepared_into(
        &self,
        prepared: &PreparedStars,
        image_dev: &gpusim::GlobalAtomicF32,
        host: &mut Vec<f32>,
    ) -> Result<FrameTiming, SimError> {
        let _render_span = maybe_span(self.telemetry.as_ref(), "render");
        let start = self.shed_floor();
        let result = match self.retry {
            None => self.prepared_attempt(prepared, image_dev, host, start),
            Some(policy) => {
                let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
                run_with_retry_from(
                    &policy,
                    &mut stats,
                    start,
                    self.cancel_token.as_ref(),
                    |rung| {
                        if rung != start {
                            // A failed attempt may have deposited partial
                            // results into the rotating device image; the
                            // retry must start from zero to stay bit-identical.
                            image_dev.fill_zero();
                        }
                        self.prepared_attempt(prepared, image_dev, host, rung)
                    },
                )
            }
        };
        if let Ok(timing) = &result {
            self.frames_rendered.fetch_add(1, Ordering::Relaxed);
            self.note_frame_metrics(timing.wall_time_s);
        }
        result
    }

    /// One attempt of the prepared-frame path at `rung` (same dispatch
    /// override handling as [`Self::render_attempt`]).
    fn prepared_attempt(
        &self,
        prepared: &PreparedStars,
        image_dev: &gpusim::GlobalAtomicF32,
        host: &mut Vec<f32>,
        rung: Rung,
    ) -> Result<FrameTiming, SimError> {
        let _attempt_span = maybe_span(self.telemetry.as_ref(), rung.span_name());
        let spawn = rung >= Rung::SpawnDispatch;
        if spawn {
            self.gpu.set_dispatch_override(true);
        }
        let result = self.prepared_attempt_inner(prepared, image_dev, host, rung);
        if spawn {
            self.gpu.set_dispatch_override(false);
        }
        result
    }

    fn prepared_attempt_inner(
        &self,
        prepared: &PreparedStars,
        image_dev: &gpusim::GlobalAtomicF32,
        host: &mut Vec<f32>,
        rung: Rung,
    ) -> Result<FrameTiming, SimError> {
        let wall_start = Instant::now();
        // The upload-fault consult the producer deliberately skipped: an
        // `AllocOom` spec bound to this launch surfaces here, in launch
        // order, exactly as `try_upload` would have in the sequential loop.
        self.gpu.take_upload_fault(prepared.star_bytes)?;
        let t_stars = prepared.t_stars;
        let t_img_up = self
            .gpu
            .transfer_model()
            .time(MemcpyKind::HostToDevice, self.config.pixels() * 4);
        let kernel_profile =
            self.launch_kernel(&prepared.stars, prepared.star_count, image_dev, rung)?;
        let t_up = t_stars + t_img_up;
        let _download_span = maybe_span(self.telemetry.as_ref(), "download");
        let t_down = self.gpu.try_download_take(image_dev, host)?;
        Ok(FrameTiming {
            // Identical float association to `render_attempt_inner`, so
            // pipelined and sequential modeled times are bit-equal.
            app_time_s: kernel_profile.time_s + (t_up + t_down),
            wall_time_s: wall_start.elapsed().as_secs_f64(),
            kernel_s: kernel_profile.time_s,
            star_upload_s: t_stars,
            serial_transfer_s: t_img_up + t_down,
            counters: kernel_profile.counters,
        })
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
    use crate::parallel::ParallelSimulator;
    use crate::Simulator;
    use starfield::FieldGenerator;
    use starimage::diff::images_close;

    fn cfg() -> SimConfig {
        SimConfig::new(128, 128, 10)
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
    fn lut_cache_hits_share_one_table_and_skip_build_time() {
        let cache = LutCache::new();
        let cold = AdaptiveSession::on_cached(VirtualGpu::gtx480(), cfg(), &cache).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));

        let warm = AdaptiveSession::on_cached(VirtualGpu::gtx480(), cfg(), &cache).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        // The warm session skips the modeled build: exactly the build time
        // cheaper (upload + bind are identical on identical devices).
        let build = cold.lut.len() as f64 * LUT_BUILD_S_PER_ENTRY;
        assert!((cold.setup_time_s() - warm.setup_time_s() - build).abs() < 1e-12);
        // Both sessions hold the *same* table allocation.
        assert!(Arc::ptr_eq(&cold.lut, &warm.lut));

        // A different optics key builds its own table.
        let mut other = cfg();
        other.sigma = 3.0;
        let _ = AdaptiveSession::on_cached(VirtualGpu::gtx480(), other, &cache).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));
    }

    #[test]
    fn cached_session_renders_identically_to_uncached() {
        let cat = FieldGenerator::new(128, 128).generate(200, 9);
        let cache = LutCache::new();
        let plain = AdaptiveSession::new(cfg()).unwrap();
        let cached = AdaptiveSession::on_cached(VirtualGpu::gtx480(), cfg(), &cache).unwrap();
        let warm = AdaptiveSession::on_cached(VirtualGpu::gtx480(), cfg(), &cache).unwrap();
        let a = plain.render(&cat).unwrap();
        let b = cached.render(&cat).unwrap();
        let c = warm.render(&cat).unwrap();
        let bits = |r: &SimulationReport| -> Vec<u32> {
            r.image.data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(bits(&a), bits(&c));
        assert_eq!(a.app_time_s, b.app_time_s);
        assert_eq!(a.app_time_s, c.app_time_s);
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
        // Frame 4 equals a fresh session's frame 1: `download_take`
        // re-zeroed the persistent image and the per-SM caches reset cold.
        assert_eq!(report.image.data(), host.as_slice());
        assert_eq!(report.app_time_s, timing.app_time_s);
        assert_eq!(report.profile.kernels[0].counters, timing.counters);
        assert_eq!(by_buffer.frames_rendered(), 4);
        assert!(timing.wall_time_s > 0.0);
    }

    #[test]
    fn session_is_sync_for_the_pipelined_stages() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<AdaptiveSession>();
        assert_sync::<PreparedStars>();
    }

    #[test]
    fn prepared_path_matches_render_into_bitwise() {
        let cat = FieldGenerator::new(128, 128).generate(250, 11);
        let sequential = AdaptiveSession::new(cfg()).unwrap();
        let pipelined = AdaptiveSession::new(cfg()).unwrap();
        let mut expected = Vec::new();
        let expected_t = sequential.render_into(&cat, &mut expected).unwrap();

        let image = pipelined.alloc_frame_image();
        let prepared = pipelined.prepare_stars(&cat);
        assert_eq!(prepared.star_count(), cat.len());
        assert!(prepared.modeled_upload_s() > 0.0);
        let mut host = Vec::new();
        let timing = pipelined
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
        assert_eq!(pipelined.frames_rendered(), 1);
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
    fn lut_cache_prefetch_warms_the_cache_off_session() {
        let cache = LutCache::new();
        let gpu = VirtualGpu::gtx480();
        let hit = cache.prefetch(&gpu, &cfg()).unwrap();
        assert!(!hit, "first prefetch builds");
        let hit = cache.prefetch(&gpu, &cfg()).unwrap();
        assert!(hit, "second prefetch hits");
        // A session over the same optics now skips the build entirely.
        let warm = AdaptiveSession::on_cached(VirtualGpu::gtx480(), cfg(), &cache).unwrap();
        assert_eq!(cache.hits(), 2);
        assert!(warm.setup_time_s() > 0.0);
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

        let gpu = VirtualGpu::gtx480;
        // Fill: [base, sigma3], then touch base so sigma3 becomes LRU.
        let _ = AdaptiveSession::on_cached(gpu(), cfg(), &cache).unwrap();
        let _ = AdaptiveSession::on_cached(gpu(), sigma3.clone(), &cache).unwrap();
        let _ = AdaptiveSession::on_cached(gpu(), cfg(), &cache).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));

        // Inserting sigma4 must evict sigma3 (LRU), not base (recently used).
        let _ = AdaptiveSession::on_cached(gpu(), sigma4, &cache).unwrap();
        assert_eq!(cache.len(), 2, "capacity bound holds");
        let _ = AdaptiveSession::on_cached(gpu(), cfg(), &cache).unwrap();
        assert_eq!(cache.hits(), 2, "base survived the eviction");
        let _ = AdaptiveSession::on_cached(gpu(), sigma3, &cache).unwrap();
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

    #[test]
    fn tenant_hits_share_tables_across_tenants() {
        let cache = LutCache::new().with_tenant_quota(2);
        let gpu = VirtualGpu::gtx480;
        let (lut_a, hit_a) = cache.get_or_build_for(&gpu(), &cfg(), Some("a")).unwrap();
        let (lut_b, hit_b) = cache.get_or_build_for(&gpu(), &cfg(), Some("b")).unwrap();
        assert!(!hit_a && hit_b, "same optics: b hits a's table");
        assert!(Arc::ptr_eq(&lut_a, &lut_b));
        // The table stays owned by (and counted against) its builder.
        assert_eq!(cache.stats_for("a").len, 1);
        assert_eq!(cache.stats_for("b").len, 0);
        assert_eq!(cache.stats_for("b").hits, 1);
    }

    #[test]
    fn on_cached_tenant_reports_the_hit_and_renders_identically() {
        let cat = FieldGenerator::new(128, 128).generate(200, 9);
        let cache = LutCache::new().with_tenant_quota(2);
        let plain = AdaptiveSession::new(cfg()).unwrap();
        let (cold, cold_hit) =
            AdaptiveSession::on_cached_tenant(VirtualGpu::gtx480(), cfg(), &cache, "a").unwrap();
        let (warm, warm_hit) =
            AdaptiveSession::on_cached_tenant(VirtualGpu::gtx480(), cfg(), &cache, "b").unwrap();
        assert!(!cold_hit && warm_hit);
        let a = plain.render(&cat).unwrap();
        let b = cold.render(&cat).unwrap();
        let c = warm.render(&cat).unwrap();
        assert_eq!(a.image, b.image);
        assert_eq!(a.image, c.image);
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

    #[test]
    fn lut_cache_propagates_build_errors() {
        let cache = LutCache::new();
        let mut bad = cfg();
        bad.lut_mag_bins = usize::MAX / 1024; // blows the texture budget
        assert!(AdaptiveSession::on_cached(VirtualGpu::gtx480(), bad, &cache).is_err());
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
        use gpusim::{FaultKind, FaultPlan};
        use std::time::Duration;

        fn fast_retry() -> RetryPolicy {
            RetryPolicy {
                backoff: Duration::ZERO,
                ..RetryPolicy::default()
            }
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
            let session = AdaptiveSession::on(gpu, cfg())
                .unwrap()
                .with_retry_policy(fast_retry());
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
            let session = AdaptiveSession::on(gpu, cfg()).unwrap();
            let mut host = Vec::new();
            let err = session.render_into(&cat, &mut host).unwrap_err();
            assert!(matches!(
                err,
                SimError::Gpu(gpusim::GpuError::WorkerPanic(_))
            ));
            assert_eq!(session.frames_rendered(), 0);
        }

        #[test]
        fn on_resilient_retries_the_texture_bind() {
            let gpu = VirtualGpu::gtx480().with_fault_plan(Arc::new(FaultPlan::single(
                FaultKind::TextureBindFail,
                0,
                0,
            )));
            let session = AdaptiveSession::on_resilient(gpu, cfg(), fast_retry()).unwrap();
            let report = session.resilience_report();
            assert_eq!(report.bind_failures, 1);
            assert_eq!(report.retries, 1);
            // And the session renders normally afterwards.
            let cat = FieldGenerator::new(128, 128).generate(50, 2);
            let mut host = Vec::new();
            assert!(session.render_into(&cat, &mut host).is_ok());
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
            let gpu = VirtualGpu::gtx480().with_fault_plan(Arc::new(plan));
            let session = AdaptiveSession::on(gpu, cfg())
                .unwrap()
                .with_retry_policy(fast_retry());
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
