//! `starsimd`: the overload-safe star-image render server.
//!
//! One [`StarServer`] owns a TCP listener, a shared tenant-attributed
//! [`LutCache`], a [`Telemetry`] sink and an [`AdmissionController`];
//! each accepted connection gets a handler thread speaking the
//! [`crate::protocol`] frame format. The robustness contract:
//!
//! * **Admission before work.** Every open/render request must win a
//!   bounded [`Permit`] first; at capacity the server answers
//!   `Reject{saturated, retry_after_ms}` immediately instead of queueing
//!   unboundedly or timing the client out.
//! * **Deadline budgets.** A render's `deadline_ms` becomes a
//!   [`CancelToken::with_budget`] threaded through
//!   [`FrameSequencer::run_frames_observed`]; an expiring budget stops the
//!   burst between frames, and the burst stays bit-identically
//!   resumable.
//! * **Graceful shedding.** The admission controller's hysteresis ladder
//!   ([`ShedLevel`]) sheds telemetry detail first, then monitoring
//!   resolution, then falls back to the star-centric kernel
//!   ([`Rung::DirectPsf`]) — requests are rejected only once everything
//!   cheaper has been shed.
//! * **Panic isolation.** Request handling runs under `catch_unwind`; a
//!   client-triggered panic discards that client's session and answers
//!   `Reject{internal}` — the acceptor and every other session keep
//!   running. All server-side locks are poison-tolerant.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gpusim::telemetry::now_us;
use gpusim::{DeviceSpec, DeviceUtilization, GpuDiagnostics, UtilizationSink, VirtualGpu};
use starfield::dynamics::AttitudeDynamics;
use starfield::fov::SkyCatalog;
use starfield::generator::synthetic_sky;
use starfield::projection::Camera;
use starfield::{Attitude, FieldError};

use crate::admission::{AdmissionConfig, AdmissionController, Permit, ShedLevel};
use crate::error::SimError;
use crate::frames::FrameSequencer;
use crate::obsplane::{FlightEntry, ObsPlane, DEFAULT_SAMPLE_PERIOD_US};
use crate::protocol::{
    read_message, write_message, Message, MonitorReply, ProtoError, RejectCode, RenderDone,
    SessionSpec, SloState, MAX_FRAMES_PER_REQUEST, PROTOCOL_VERSION,
};
use crate::resilience::{CancelToken, Rung};
use crate::session::{AdaptiveSession, LutCache, LutSource, SessionSetup};
use crate::telemetry::Telemetry;

/// FNV-1a offset basis — the seed of every session's cumulative digest.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a running hash. Servers fold every rendered
/// frame's pixel bits into the session digest; a deadline-split burst
/// sequence ends on the same digest as an uninterrupted one iff the
/// frames are bit-identical.
pub fn digest_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// `ZERO_RUN_POW[k]` = `FNV_PRIME^(4·2^k)`: the fold of `2^k` pixels whose
/// bit pattern is 0 (`4·2^k` zero bytes).
const ZERO_RUN_POW: [u64; 64] = {
    let mut pow = [0u64; 64];
    let p2 = FNV_PRIME.wrapping_mul(FNV_PRIME);
    pow[0] = p2.wrapping_mul(p2);
    let mut k = 1;
    while k < 64 {
        pow[k] = pow[k - 1].wrapping_mul(pow[k - 1]);
        k += 1;
    }
    pow
};

/// Pixels scanned per zero test: one OR over the chunk, which the compiler
/// vectorizes, lets a blank stretch of sky skip the per-pixel branch.
const ZERO_SCAN: usize = 16;

/// Folds a frame's pixels into the digest, exactly as [`digest_fold`] over
/// every pixel's little-endian bytes would. FNV-1a's xor with a zero byte
/// is a no-op, so a run of `n` `+0.0` pixels folds as one multiply by
/// `FNV_PRIME^(4n)`, taken from `ZERO_RUN_POW` one set bit of `n` at a
/// time; `-0.0` and every other non-zero pattern folds byte by byte.
pub fn digest_frame(mut hash: u64, pixels: &[f32]) -> u64 {
    let mut run = 0;
    let mut chunks = pixels.chunks_exact(ZERO_SCAN);
    for chunk in &mut chunks {
        if chunk.iter().fold(0, |any, px| any | px.to_bits()) == 0 {
            run += ZERO_SCAN;
        } else {
            hash = fold_pixels(hash, &mut run, chunk);
        }
    }
    hash = fold_pixels(hash, &mut run, chunks.remainder());
    fold_zero_run(hash, run)
}

/// Folds `pixels` one at a time: a `+0.0` pixel extends the pending zero
/// `run`, any other pixel folds the run and then its own four bytes.
fn fold_pixels(mut hash: u64, run: &mut usize, pixels: &[f32]) -> u64 {
    for px in pixels {
        let bits = px.to_bits();
        if bits == 0 {
            *run += 1;
        } else {
            hash = digest_fold(
                fold_zero_run(hash, std::mem::take(run)),
                &bits.to_le_bytes(),
            );
        }
    }
    hash
}

/// Folds `pixels` pixels whose bit pattern is 0: one multiply per set bit.
fn fold_zero_run(mut hash: u64, mut pixels: usize) -> u64 {
    while pixels != 0 {
        hash = hash.wrapping_mul(ZERO_RUN_POW[pixels.trailing_zeros() as usize]);
        pixels &= pixels - 1;
    }
    hash
}

/// Server tuning knobs. The defaults are sized for tests and the bench
/// loadgen: small admission window, one shared cache, gentle drift scene.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission gate parameters (queue capacity, retry-after hint, shed
    /// hysteresis thresholds).
    pub admission: AdmissionConfig,
    /// Sessions one connection may hold open at once.
    pub max_sessions_per_conn: usize,
    /// Shared [`LutCache`] capacity, tables.
    pub lut_capacity: usize,
    /// Per-tenant cache quota, tables; `None` disables quotas.
    pub tenant_quota: Option<usize>,
    /// Exposure time per rendered frame, seconds.
    pub exposure_s: f64,
    /// Frame period, seconds.
    pub frame_dt: f64,
    /// Read-poll granularity on connection sockets — bounds how long a
    /// handler thread takes to notice a shutdown, seconds.
    pub poll_interval: Duration,
    /// Fault-injection hook for tests: opening a session for this tenant
    /// panics inside the request handler, exercising the `catch_unwind`
    /// isolation path. `None` in production.
    pub panic_tenant: Option<String>,
    /// Device fault plan attached to every session's virtual GPU — the
    /// PR 3 chaos matrix runs through the server path with this. `None`
    /// in production.
    pub fault_plan: Option<Arc<gpusim::FaultPlan>>,
    /// Watchdog budget attached to every session's device (pairs with
    /// stalling fault plans). `None` leaves the device default.
    pub watchdog: Option<Duration>,
    /// Retry policy every session opens with ([`SessionSetup::retry`]): it
    /// retries the open's texture bind and runs every frame under the
    /// degradation ladder, so faults injected by `fault_plan` retry and
    /// degrade through it exactly as in process.
    pub retry: Option<crate::resilience::RetryPolicy>,
    /// Directory the flight recorder dumps post-mortems into. `None`
    /// counts dump triggers without writing files.
    pub flight_dir: Option<PathBuf>,
    /// Minimum microseconds between observability-plane ring samples.
    pub sample_period_us: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            admission: AdmissionConfig::default(),
            max_sessions_per_conn: 8,
            lut_capacity: 8,
            tenant_quota: Some(4),
            exposure_s: 0.05,
            frame_dt: 0.1,
            poll_interval: Duration::from_millis(25),
            panic_tenant: None,
            fault_plan: None,
            watchdog: None,
            retry: None,
            flight_dir: None,
            sample_period_us: DEFAULT_SAMPLE_PERIOD_US,
        }
    }
}

/// State shared by the acceptor and every connection handler.
struct Shared {
    config: ServerConfig,
    admission: AdmissionController,
    cache: Arc<LutCache>,
    telemetry: Arc<Telemetry>,
    draining: AtomicBool,
    stop: AtomicBool,
    sessions_open: AtomicUsize,
    deadline_misses: AtomicU64,
    handler_panics: AtomicU64,
    /// Fleet-aggregated device diagnostics, folded in as per-session
    /// deltas after each render.
    gpu_diags: Mutex<GpuDiagnostics>,
    /// The observability plane: series ring, SLO engine, flight recorder.
    obs: ObsPlane,
    /// Fleet per-device utilization aggregate, shared by every session's
    /// virtual GPU. Its launch count doubles as the request→launch
    /// correlation sequence.
    utilization: Arc<UtilizationSink>,
    /// Server-wide request id, stamped on every inbound message.
    next_request_id: AtomicU64,
    /// Last observed shed level (index); escalations trip a flight dump.
    last_shed: AtomicUsize,
    /// Fleet rung-frame totals, folded in as per-session deltas after
    /// each render — the source of the monitor's rung summary.
    rung_frames: Mutex<[u64; 4]>,
}

/// The `starsimd` server engine. [`StarServer::bind`] starts the acceptor
/// and returns a [`ServerHandle`]; the engine itself is internal.
pub struct StarServer;

impl StarServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), starts
    /// the accept loop on a background thread, and returns a handle.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<ServerHandle> {
        config
            .admission
            .validate()
            .map_err(|m| std::io::Error::new(ErrorKind::InvalidInput, m))?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let admission = AdmissionController::new(config.admission);
        let mut cache = LutCache::with_capacity(config.lut_capacity);
        if let Some(quota) = config.tenant_quota {
            cache = cache.with_tenant_quota(quota);
        }
        let obs = ObsPlane::with_sample_period_us(config.sample_period_us);
        obs.recorder().set_dir(config.flight_dir.clone());
        let shared = Arc::new(Shared {
            admission,
            cache: Arc::new(cache),
            telemetry: Telemetry::new(),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            sessions_open: AtomicUsize::new(0),
            deadline_misses: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
            gpu_diags: Mutex::new(GpuDiagnostics::default()),
            obs,
            utilization: Arc::new(UtilizationSink::new(&DeviceSpec::gtx480())),
            next_request_id: AtomicU64::new(0),
            last_shed: AtomicUsize::new(0),
            rung_frames: Mutex::new([0; 4]),
            config,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("starsimd-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn acceptor");
        Ok(ServerHandle {
            addr: local_addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admission controller — tests saturate it directly by holding
    /// [`Permit`]s to force rejects deterministically.
    pub fn admission(&self) -> &AdmissionController {
        &self.shared.admission
    }

    /// The shared lookup-table cache (per-tenant stats live here).
    pub fn lut_cache(&self) -> &Arc<LutCache> {
        &self.shared.cache
    }

    /// The server's telemetry sink.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// The observability plane (series ring, SLO engine, flight
    /// recorder) — tests and benches read scrape state directly here.
    pub fn obs(&self) -> &ObsPlane {
        &self.shared.obs
    }

    /// A copy of the fleet per-device utilization aggregate.
    pub fn device_utilization(&self) -> DeviceUtilization {
        self.shared.utilization.snapshot()
    }

    /// Request handler panics caught (and isolated) so far.
    pub fn handler_panics(&self) -> u64 {
        self.shared.handler_panics.load(Ordering::Relaxed)
    }

    /// Render bursts that missed their deadline budget so far.
    pub fn deadline_misses(&self) -> u64 {
        self.shared.deadline_misses.load(Ordering::Relaxed)
    }

    /// Sessions currently open across all connections.
    pub fn sessions_open(&self) -> usize {
        self.shared.sessions_open.load(Ordering::Relaxed)
    }

    /// Starts draining: every subsequent open/render is rejected with
    /// [`RejectCode::Draining`] while in-flight work finishes. (Clients
    /// can also request this over the wire with [`Message::Drain`].)
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
    }

    /// Stops the acceptor, waits for it to exit, and returns once the
    /// listener is closed. Connection handlers notice within one poll
    /// interval and exit on their own.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let poll = shared.config.poll_interval;
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("starsimd-conn".into())
                    .spawn(move || serve_connection(stream, conn_shared));
                // Out of threads is an overload condition like any other:
                // shed the connection, keep accepting.
                drop(spawned);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(poll),
            Err(_) => std::thread::sleep(poll),
        }
    }
}

/// One open session on a connection.
struct SessionState {
    seq: FrameSequencer,
    tenant: String,
    /// Cumulative FNV-1a digest over every frame rendered on this session.
    digest: u64,
    /// Device diagnostics at the last fleet-aggregate fold, for deltas.
    last_diags: GpuDiagnostics,
    /// Rung-frame totals at the last fleet-aggregate fold, for deltas.
    last_rung: [u64; 4],
}

/// Per-connection handler state. Sessions are connection-scoped: ids are
/// meaningless on other connections, and a dropped connection frees them.
struct ConnState {
    sessions: HashMap<u64, SessionState>,
    next_id: u64,
}

fn serve_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let mut stream = stream;
    let mut conn = ConnState {
        sessions: HashMap::new(),
        next_id: 1,
    };
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let message = match read_message(&mut stream) {
            Ok(m) => m,
            Err(ProtoError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                continue; // idle poll tick — check the stop flag and wait on
            }
            Err(ProtoError::Io(_)) => break, // disconnect / EOF mid-frame
            Err(e) => {
                // A framing violation leaves the byte stream unsynchronized:
                // answer once, then close. Crucially the oversized-length
                // case arrives here *without* the payload ever having been
                // allocated or read.
                let code = match e {
                    ProtoError::Version(_) => RejectCode::VersionUnsupported,
                    _ => RejectCode::BadRequest,
                };
                let _ = write_message(
                    &mut stream,
                    &Message::Reject {
                        code,
                        retry_after_ms: 0,
                        message: e.to_string(),
                    },
                );
                break;
            }
        };
        // The session a panic would poison, extracted before the handler
        // runs so the catch_unwind arm knows what to discard.
        let touched = match &message {
            Message::Render { session, .. } | Message::CloseSession { session } => Some(*session),
            Message::OpenSession(_) => None,
            _ => None,
        };
        let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed) + 1;
        let reply = match catch_unwind(AssertUnwindSafe(|| {
            handle_message(message, request_id, &mut conn, &shared)
        })) {
            Ok(reply) => reply,
            Err(_) => {
                shared.handler_panics.fetch_add(1, Ordering::Relaxed);
                shared
                    .telemetry
                    .metrics()
                    .counter_add("server.handler_panics", 1);
                if let Some(id) = touched {
                    if conn.sessions.remove(&id).is_some() {
                        shared.sessions_open.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                shared.obs.recorder().record(FlightEntry {
                    t_us: now_us(),
                    request_id,
                    session: touched.unwrap_or(0),
                    tenant: String::new(),
                    kind: "panic",
                    frames: 0,
                    launch_range: (0, 0),
                    detail: "request handler panicked; session discarded".into(),
                });
                let _ = shared
                    .obs
                    .recorder()
                    .dump("handler panic", Some(&shared.telemetry));
                Message::Reject {
                    code: RejectCode::Internal,
                    retry_after_ms: 0,
                    message: "request handler panicked; the session it touched is discarded".into(),
                }
            }
        };
        if write_message(&mut stream, &reply).is_err() {
            break;
        }
    }
    let dropped = conn.sessions.len();
    if dropped > 0 {
        shared.sessions_open.fetch_sub(dropped, Ordering::Relaxed);
    }
}

fn handle_message(
    message: Message,
    request_id: u64,
    conn: &mut ConnState,
    shared: &Shared,
) -> Message {
    shared.telemetry.metrics().counter_add("server.requests", 1);
    // Pull-through sampling: any request traffic keeps the series ring
    // fresh (one atomic load unless the sample period elapsed).
    shared.obs.maybe_sample(shared.telemetry.metrics());
    match message {
        Message::Hello { version } => {
            if version == PROTOCOL_VERSION {
                Message::HelloAck {
                    version: PROTOCOL_VERSION,
                }
            } else {
                reject(
                    shared,
                    RejectCode::VersionUnsupported,
                    0,
                    format!("server speaks protocol version {PROTOCOL_VERSION}, not {version}"),
                )
            }
        }
        Message::OpenSession(spec) => handle_open(spec, request_id, conn, shared),
        Message::Render {
            session,
            frames,
            deadline_ms,
        } => handle_render(session, frames, deadline_ms, request_id, conn, shared),
        Message::Monitor => Message::MonitorReply(monitor_snapshot(conn, shared)),
        Message::Metrics => {
            let stats = shared.admission.stats();
            shared
                .obs
                .sync_admission(shared.telemetry.metrics(), stats.admitted, stats.rejected);
            let (snapshots, exposition) = shared
                .obs
                .scrape(shared.telemetry.metrics(), &scrape_labels(shared));
            Message::MetricsReply {
                snapshots,
                exposition,
            }
        }
        Message::Alerts => {
            let stats = shared.admission.stats();
            shared
                .obs
                .sync_admission(shared.telemetry.metrics(), stats.admitted, stats.rejected);
            let (state, body) = shared.obs.alerts(shared.telemetry.metrics());
            Message::AlertsReply { state, body }
        }
        Message::Drain => {
            shared.draining.store(true, Ordering::Release);
            // Ack once in-flight work drains (bounded wait — an ack with
            // nonzero pending means somebody is still rendering).
            let deadline = Instant::now() + Duration::from_secs(5);
            while shared.admission.depth() > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            Message::DrainAck {
                pending: shared.admission.depth() as u32,
            }
        }
        Message::CloseSession { session } => {
            if conn.sessions.remove(&session).is_some() {
                shared.sessions_open.fetch_sub(1, Ordering::Relaxed);
                Message::SessionClosed { session }
            } else {
                reject(
                    shared,
                    RejectCode::UnknownSession,
                    0,
                    format!("no session {session} on this connection"),
                )
            }
        }
        // Server-to-client message types arriving at the server are a
        // protocol violation, but a recoverable one.
        other => reject(
            shared,
            RejectCode::BadRequest,
            0,
            format!("unexpected message at the server: {other:?}"),
        ),
    }
}

/// The deterministic scene a session opened for `spec` renders:
/// `spec.seed` fixes the sky, the camera spans a 10° FOV, and the platform
/// drifts gently enough that the smear PSF stays disengaged (a requirement
/// of [`FrameSequencer::on_session`]). Public so that a served frame can be
/// rendered again in process, outside the server.
pub fn session_scene(
    spec: &SessionSpec,
) -> Result<(SkyCatalog, Camera, AttitudeDynamics), FieldError> {
    let sky = synthetic_sky(spec.stars as usize, 0.0, 6.0, spec.seed);
    let camera = Camera::from_fov(
        10.0f64.to_radians(),
        spec.width as usize,
        spec.height as usize,
    )?;
    let dynamics = AttitudeDynamics::new(Attitude::pointing(1.0, 0.2, 0.0), [5e-4, 0.0, 0.0]);
    Ok((sky, camera, dynamics))
}

fn handle_open(
    spec: SessionSpec,
    request_id: u64,
    conn: &mut ConnState,
    shared: &Shared,
) -> Message {
    if shared.draining.load(Ordering::Acquire) {
        return reject(shared, RejectCode::Draining, 0, "server is draining".into());
    }
    if conn.sessions.len() >= shared.config.max_sessions_per_conn {
        return reject(
            shared,
            RejectCode::SessionLimit,
            0,
            format!("connection already holds {} sessions", conn.sessions.len()),
        );
    }
    let config = match spec.validate() {
        Ok(config) => config,
        Err(e) => return reject(shared, RejectCode::BadRequest, 0, e.to_string()),
    };
    // Opening a session builds (or fetches) a lookup table — real work, so
    // it goes through the admission gate like a render does.
    let _permit = match admit(shared) {
        Ok(permit) => permit,
        Err(message) => return message,
    };
    if let Some(panic_tenant) = &shared.config.panic_tenant {
        assert!(
            *panic_tenant != spec.tenant,
            "fault injection: tenant {panic_tenant} panics its handler"
        );
    }
    let mut gpu = VirtualGpu::gtx480().with_utilization(Arc::clone(&shared.utilization));
    if let Some(plan) = &shared.config.fault_plan {
        gpu = gpu.with_fault_plan(Arc::clone(plan));
    }
    if let Some(watchdog) = shared.config.watchdog {
        gpu = gpu.with_watchdog(watchdog);
    }
    let setup = SessionSetup {
        lut: LutSource::Tenant(&shared.cache, &spec.tenant),
        retry: shared.config.retry,
        telemetry: None,
    };
    let session = match AdaptiveSession::open(gpu, config, setup) {
        Ok(session) => session,
        Err(e) => return reject(shared, RejectCode::Internal, 0, e.to_string()),
    };
    let lut_cache_hit = session.lut_cache_hit();
    let (sky, camera, dynamics) = match session_scene(&spec) {
        Ok(scene) => scene,
        Err(e) => return reject(shared, RejectCode::BadRequest, 0, e.to_string()),
    };
    let seq = match FrameSequencer::on_session(
        session,
        sky,
        camera,
        dynamics,
        shared.config.exposure_s,
        shared.config.frame_dt,
    ) {
        Ok(seq) => seq,
        Err(e) => return reject(shared, RejectCode::Internal, 0, e.to_string()),
    };
    let id = conn.next_id;
    conn.next_id += 1;
    shared.obs.recorder().record(FlightEntry {
        t_us: now_us(),
        request_id,
        session: id,
        tenant: spec.tenant.clone(),
        kind: "open",
        frames: 0,
        launch_range: (0, 0),
        detail: format!("stars={} lut_cache_hit={lut_cache_hit}", spec.stars),
    });
    let mut state = SessionState {
        seq,
        tenant: spec.tenant,
        digest: DIGEST_SEED,
        last_diags: GpuDiagnostics::default(),
        last_rung: [0; 4],
    };
    apply_shed(observe_shed(shared), &mut state, shared);
    conn.sessions.insert(id, state);
    shared.sessions_open.fetch_add(1, Ordering::Relaxed);
    shared
        .telemetry
        .metrics()
        .counter_add("server.sessions_opened", 1);
    Message::SessionOpen {
        session: id,
        lut_cache_hit,
    }
}

fn handle_render(
    id: u64,
    frames: u32,
    deadline_ms: u32,
    request_id: u64,
    conn: &mut ConnState,
    shared: &Shared,
) -> Message {
    if frames == 0 || frames > MAX_FRAMES_PER_REQUEST {
        return reject(
            shared,
            RejectCode::BadRequest,
            0,
            format!("frames must be 1..={MAX_FRAMES_PER_REQUEST}, got {frames}"),
        );
    }
    if shared.draining.load(Ordering::Acquire) {
        return reject(shared, RejectCode::Draining, 0, "server is draining".into());
    }
    if !conn.sessions.contains_key(&id) {
        return reject(
            shared,
            RejectCode::UnknownSession,
            0,
            format!("no session {id} on this connection"),
        );
    }
    let _permit = match admit(shared) {
        Ok(permit) => permit,
        Err(message) => return message,
    };
    let level = observe_shed(shared);
    let state = conn.sessions.get_mut(&id).expect("checked above");
    apply_shed(level, state, shared);

    let token = if deadline_ms > 0 {
        CancelToken::with_budget(Duration::from_millis(u64::from(deadline_ms)))
    } else {
        CancelToken::new()
    };
    let mut digest = state.digest;
    let mut completed: u32 = 0;
    let mut app_time_us: u64 = 0;
    let launch_first = shared.utilization.launches();
    let start = Instant::now();
    let result = state
        .seq
        .run_frames_observed(frames as usize, &token, |frame| {
            digest = digest_frame(digest, frame.pixels);
            completed += 1;
            app_time_us += (frame.timing.app_time_s * 1e6) as u64;
        });
    let wall_us = start.elapsed().as_micros() as u64;
    let launch_range = (launch_first, shared.utilization.launches());
    state.digest = digest;

    // Fold this session's device-diagnostics delta into the fleet total.
    let now_diags = state.seq.session().diagnostics();
    let delta = now_diags.since(&state.last_diags);
    state.last_diags = now_diags;
    lock_tolerant(&shared.gpu_diags).absorb(&delta);

    // Same delta fold for rung frames — the monitor's rung summary.
    let report = state.seq.resilience_report();
    {
        let mut fleet = lock_tolerant(&shared.rung_frames);
        for (i, fleet_rung) in fleet.iter_mut().enumerate() {
            *fleet_rung += report.rung_frames[i].saturating_sub(state.last_rung[i]);
        }
    }
    state.last_rung = report.rung_frames;

    let deadline_missed = match result {
        Ok(_) => false,
        Err(SimError::DeadlineExceeded) | Err(SimError::Cancelled) => {
            shared.deadline_misses.fetch_add(1, Ordering::Relaxed);
            if level < ShedLevel::CoarseMonitoring {
                shared
                    .telemetry
                    .metrics()
                    .counter_add("server.deadline_misses", 1);
            }
            true
        }
        Err(e) => {
            // The failed frame left the session's image zeroed; the
            // session stays usable, the request is answered with the error.
            shared.obs.recorder().record(FlightEntry {
                t_us: now_us(),
                request_id,
                session: id,
                tenant: state.tenant.clone(),
                kind: "fault",
                frames: u64::from(completed),
                launch_range,
                detail: e.to_string(),
            });
            let _ = shared
                .obs
                .recorder()
                .dump("internal render fault", Some(&shared.telemetry));
            return reject(shared, RejectCode::Internal, 0, e.to_string());
        }
    };
    if level < ShedLevel::CoarseMonitoring {
        let metrics = shared.telemetry.metrics();
        metrics.observe("server.render_wall_ms", wall_us as f64 / 1e3);
        metrics.counter_add("server.renders", 1);
        metrics.counter_add("server.frames_rendered", u64::from(completed));
    }
    shared.obs.recorder().record(FlightEntry {
        t_us: now_us(),
        request_id,
        session: id,
        tenant: state.tenant.clone(),
        kind: if deadline_missed {
            "deadline-miss"
        } else {
            "render"
        },
        frames: u64::from(completed),
        launch_range,
        detail: format!("requested={frames} wall_us={wall_us} shed={}", level.name()),
    });
    if deadline_missed {
        let _ = shared
            .obs
            .recorder()
            .dump("deadline miss", Some(&shared.telemetry));
    }
    Message::RenderDone(RenderDone {
        session: id,
        requested: frames,
        completed,
        digest,
        app_time_us,
        wall_us,
        shed_level: level.index() as u8,
        deadline_missed,
    })
}

/// Takes an admission permit or builds the saturated-reject reply.
fn admit(shared: &Shared) -> Result<Permit, Message> {
    match shared.admission.try_admit() {
        Ok(permit) => Ok(permit),
        Err(rejected) => {
            observe_shed(shared);
            Err(reject(
                shared,
                RejectCode::Saturated,
                rejected.retry_after_ms as u32,
                format!("admission queue full at depth {}", rejected.depth),
            ))
        }
    }
}

fn reject(shared: &Shared, code: RejectCode, retry_after_ms: u32, message: String) -> Message {
    shared.telemetry.metrics().counter_add(
        match code {
            RejectCode::Saturated => "server.rejects.saturated",
            RejectCode::Draining => "server.rejects.draining",
            RejectCode::BadRequest => "server.rejects.bad_request",
            RejectCode::Internal => "server.rejects.internal",
            RejectCode::VersionUnsupported => "server.rejects.version",
            RejectCode::SessionLimit => "server.rejects.session_limit",
            RejectCode::UnknownSession => "server.rejects.unknown_session",
        },
        1,
    );
    Message::Reject {
        code,
        retry_after_ms,
        message,
    }
}

/// Observes the shed ladder and, on an escalation (the level climbing),
/// records a black-box entry and dumps a post-mortem — the flight
/// recorder captures the ladder's climb even when nobody is scraping.
fn observe_shed(shared: &Shared) -> ShedLevel {
    let level = shared.admission.observe();
    let prev = shared.last_shed.swap(level.index(), Ordering::Relaxed);
    if level.index() > prev {
        shared.obs.recorder().record(FlightEntry {
            t_us: now_us(),
            request_id: 0,
            session: 0,
            tenant: String::new(),
            kind: "shed-escalation",
            frames: 0,
            launch_range: (0, 0),
            detail: format!(
                "{} -> {}",
                ShedLevel::from_index(prev).map_or("?", |l| l.name()),
                level.name()
            ),
        });
        let _ = shared
            .obs
            .recorder()
            .dump("shed-ladder escalation", Some(&shared.telemetry));
    }
    level
}

/// The instance-level exposition labels: device, shed level, rung floor,
/// open sessions. (Per-tenant detail stays in counters/monitor bodies.)
fn scrape_labels(shared: &Shared) -> Vec<(String, String)> {
    let level = shared.admission.shed_level();
    vec![
        ("device".to_string(), "gtx480".to_string()),
        ("shed".to_string(), level.name().to_string()),
        ("rung_floor".to_string(), rung_floor(level).to_string()),
        (
            "sessions".to_string(),
            shared.sessions_open.load(Ordering::Relaxed).to_string(),
        ),
    ]
}

/// The render-ladder floor the shed level imposes (mirrors
/// [`apply_shed`]).
fn rung_floor(level: ShedLevel) -> &'static str {
    match level {
        ShedLevel::FallbackRender => "direct-psf",
        _ => "configured",
    }
}

/// Applies the shed ladder to one session, mirroring the degradation
/// order of the retry ladder: observability sheds before work does.
fn apply_shed(level: ShedLevel, state: &mut SessionState, shared: &Shared) {
    match level {
        ShedLevel::Full => {
            state.seq.set_telemetry(Some(Arc::clone(&shared.telemetry)));
            state.seq.set_shed_floor(Rung::Configured);
        }
        ShedLevel::LeanTelemetry | ShedLevel::CoarseMonitoring => {
            state.seq.set_telemetry(None);
            state.seq.set_shed_floor(Rung::Configured);
        }
        ShedLevel::FallbackRender => {
            state.seq.set_telemetry(None);
            // Shed the adaptive kernel's LUT/texture pressure: render
            // star-centric until the load subsides.
            state.seq.set_shed_floor(Rung::DirectPsf);
        }
    }
}

fn monitor_snapshot(conn: &ConnState, shared: &Shared) -> MonitorReply {
    let stats = shared.admission.stats();
    let level = stats.shed_level;
    let detail = level < ShedLevel::CoarseMonitoring;
    let body = if detail {
        monitor_body(conn, shared)
    } else {
        String::new()
    };
    // The rung summary survives every shed level — even at
    // CoarseMonitoring an operator can still see which ladder rungs the
    // fleet is rendering on, in one line.
    let rungs = *lock_tolerant(&shared.rung_frames);
    let rung_summary = format!(
        "shed={} floor={} rung_frames configured={} spawn={} reference={} direct-psf={}",
        level.name(),
        rung_floor(level),
        rungs[0],
        rungs[1],
        rungs[2],
        rungs[3]
    );
    MonitorReply {
        shed_level: level.index() as u8,
        depth: stats.depth as u32,
        capacity: stats.capacity as u32,
        admitted: stats.admitted,
        rejected: stats.rejected,
        deadline_misses: shared.deadline_misses.load(Ordering::Relaxed),
        sessions: shared.sessions_open.load(Ordering::Relaxed) as u32,
        detail,
        rung_summary,
        body,
    }
}

/// The full-detail monitoring body: metrics counters, fleet GPU
/// diagnostics, global and per-tenant LUT-cache stats, as JSON text.
fn monitor_body(conn: &ConnState, shared: &Shared) -> String {
    let mut body = String::from("{\"counters\":{");
    let counters = shared.telemetry.metrics().counters();
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("\"{name}\":{value}"));
    }
    let diags = *lock_tolerant(&shared.gpu_diags);
    body.push_str(&format!(
        "}},\"gpu\":{{\"pool_rebuilds\":{},\"checksum_catches\":{},\"panics_caught\":{},\
         \"timeouts\":{}}}",
        diags.pool_rebuilds, diags.checksum_catches, diags.panics_caught, diags.timeouts
    ));
    let cache = shared.cache.stats();
    body.push_str(&format!(
        ",\"lut_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"len\":{},\"capacity\":{}}}",
        cache.hits, cache.misses, cache.evictions, cache.len, cache.capacity
    ));
    body.push_str(",\"tenants\":{");
    for (i, (tenant, stats)) in shared.cache.tenant_stats().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "\"{}\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"len\":{},\"quota\":{}}}",
            json_escape(tenant),
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.len,
            stats.capacity
        ));
    }
    // This connection's sessions, id → tenant, in id order.
    let mut sessions: Vec<_> = conn.sessions.iter().collect();
    sessions.sort_by_key(|(id, _)| **id);
    body.push_str("},\"conn_sessions\":{");
    for (i, (id, state)) in sessions.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("\"{id}\":\"{}\"", json_escape(&state.tenant)));
    }
    body.push_str("}}");
    body
}

/// Minimal JSON string escaping for tenant names (already valid UTF-8 and
/// length-capped by the protocol boundary).
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Poison-tolerant lock: a handler that panicked while holding the lock
/// already had its damage contained by `catch_unwind`; the data here is
/// monotone counters, safe to keep serving.
fn lock_tolerant<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A minimal blocking client for [`StarServer`] — shared by the bench
/// loadgen, the integration tests and `starsimd --self-test`.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects and completes the hello handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ProtoError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client { stream };
        match client.request(&Message::Hello {
            version: PROTOCOL_VERSION,
        })? {
            Message::HelloAck { .. } => Ok(client),
            other => Err(ProtoError::Malformed(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// Sends one message.
    pub fn send(&mut self, message: &Message) -> Result<(), ProtoError> {
        write_message(&mut self.stream, message)
    }

    /// Receives one message (blocking).
    pub fn recv(&mut self) -> Result<Message, ProtoError> {
        read_message(&mut self.stream)
    }

    /// Sends `message` and returns the server's reply.
    pub fn request(&mut self, message: &Message) -> Result<Message, ProtoError> {
        self.send(message)?;
        self.recv()
    }

    /// Opens a session; returns `(session_id, lut_cache_hit)` or the
    /// server's reject as an error string.
    pub fn open_session(&mut self, spec: &SessionSpec) -> Result<(u64, bool), ProtoError> {
        match self.request(&Message::OpenSession(spec.clone()))? {
            Message::SessionOpen {
                session,
                lut_cache_hit,
            } => Ok((session, lut_cache_hit)),
            Message::Reject { code, message, .. } => Err(ProtoError::Malformed(format!(
                "open rejected ({}): {message}",
                code.name()
            ))),
            other => Err(ProtoError::Malformed(format!(
                "expected SessionOpen, got {other:?}"
            ))),
        }
    }

    /// Renders `frames` frames; returns the raw reply ([`Message::RenderDone`]
    /// or [`Message::Reject`]) so callers can implement retry loops.
    pub fn render(
        &mut self,
        session: u64,
        frames: u32,
        deadline_ms: u32,
    ) -> Result<Message, ProtoError> {
        self.request(&Message::Render {
            session,
            frames,
            deadline_ms,
        })
    }

    /// Fetches a monitoring snapshot.
    pub fn monitor(&mut self) -> Result<MonitorReply, ProtoError> {
        match self.request(&Message::Monitor)? {
            Message::MonitorReply(reply) => Ok(reply),
            other => Err(ProtoError::Malformed(format!(
                "expected MonitorReply, got {other:?}"
            ))),
        }
    }

    /// Scrapes the metrics exposition; returns
    /// `(ring_snapshots, exposition_text)`.
    pub fn metrics(&mut self) -> Result<(u32, String), ProtoError> {
        match self.request(&Message::Metrics)? {
            Message::MetricsReply {
                snapshots,
                exposition,
            } => Ok((snapshots, exposition)),
            other => Err(ProtoError::Malformed(format!(
                "expected MetricsReply, got {other:?}"
            ))),
        }
    }

    /// Fetches the SLO evaluation; returns `(overall_state, json_body)`.
    pub fn alerts(&mut self) -> Result<(SloState, String), ProtoError> {
        match self.request(&Message::Alerts)? {
            Message::AlertsReply { state, body } => Ok((state, body)),
            other => Err(ProtoError::Malformed(format!(
                "expected AlertsReply, got {other:?}"
            ))),
        }
    }

    /// Requests a graceful drain; returns the depth still pending at ack.
    pub fn drain(&mut self) -> Result<u32, ProtoError> {
        match self.request(&Message::Drain)? {
            Message::DrainAck { pending } => Ok(pending),
            other => Err(ProtoError::Malformed(format!(
                "expected DrainAck, got {other:?}"
            ))),
        }
    }

    /// Closes a session.
    pub fn close_session(&mut self, session: u64) -> Result<(), ProtoError> {
        match self.request(&Message::CloseSession { session })? {
            Message::SessionClosed { .. } => Ok(()),
            other => Err(ProtoError::Malformed(format!(
                "expected SessionClosed, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_fold_matches_the_reference_vector() {
        // FNV-1a of "a" from the classic test vectors.
        assert_eq!(digest_fold(DIGEST_SEED, b"a"), 0xaf63_dc4c_8601_ec8c);
        // Folding in two calls equals folding once — the property the
        // resumable-burst digest relies on.
        let once = digest_fold(DIGEST_SEED, b"starsimd");
        let split = digest_fold(digest_fold(DIGEST_SEED, b"star"), b"simd");
        assert_eq!(once, split);
    }

    /// The fold `digest_frame` must equal: every pixel's bytes, one by one.
    fn bytewise(hash: u64, pixels: &[f32]) -> u64 {
        pixels
            .iter()
            .fold(hash, |h, px| digest_fold(h, &px.to_bits().to_le_bytes()))
    }

    fn lit(n: usize) -> Vec<f32> {
        (0..n).map(|i| 0.25 + i as f32).collect()
    }

    #[test]
    fn zero_run_powers_fold_their_zero_bytes() {
        for (k, &pow) in ZERO_RUN_POW.iter().enumerate().take(12) {
            let zeros = vec![0u8; 4 << k];
            assert_eq!(7u64.wrapping_mul(pow), digest_fold(7, &zeros), "k = {k}");
        }
    }

    #[test]
    fn digest_frame_folds_zero_runs_anywhere_like_the_bytewise_fold() {
        let runs = [
            0,
            1,
            2,
            ZERO_SCAN - 1,
            ZERO_SCAN,
            ZERO_SCAN + 1,
            2 * ZERO_SCAN + 3,
            1000,
        ];
        // Prefixes up to a chunk and a pixel long shift the run across
        // every chunk alignment; no prefix puts it at the start and no
        // suffix at the end of the frame.
        for before in 0..=ZERO_SCAN + 1 {
            for run in runs {
                for after in [0, 1, 3, ZERO_SCAN + 2] {
                    let mut frame = lit(before);
                    frame.resize(frame.len() + run, 0.0);
                    frame.extend(lit(after));
                    assert_eq!(
                        digest_frame(DIGEST_SEED, &frame),
                        bytewise(DIGEST_SEED, &frame),
                        "{before} lit, {run} zero, {after} lit"
                    );
                }
            }
        }
    }

    #[test]
    fn digest_frame_handles_empty_blank_and_fully_lit_frames() {
        assert_eq!(digest_frame(DIGEST_SEED, &[]), DIGEST_SEED);
        for n in [1, ZERO_SCAN, 4099, 64 * 64] {
            let blank = vec![0.0f32; n];
            assert_eq!(
                digest_frame(DIGEST_SEED, &blank),
                bytewise(DIGEST_SEED, &blank),
                "{n} blank pixels"
            );
            let lit = lit(n);
            assert_eq!(
                digest_frame(DIGEST_SEED, &lit),
                bytewise(DIGEST_SEED, &lit),
                "{n} lit pixels"
            );
        }
    }

    #[test]
    fn digest_frame_folds_negative_zero_nans_and_subnormals_bytewise() {
        let odd = [
            -0.0,
            f32::from_bits(0x7fc0_0001), // quiet NaN with a payload
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0xffc0_0000), // negative NaN
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x8000_0001), // negative subnormal
            f32::from_bits(0x0000_0100), // subnormal with zero low bytes
            f32::MIN_POSITIVE / 2.0,
        ];
        for &px in &odd {
            for run in [0, 1, ZERO_SCAN + 5] {
                let mut frame = vec![0.0f32; run];
                frame.push(px);
                frame.resize(frame.len() + run, 0.0);
                frame.push(px);
                assert_eq!(
                    digest_frame(DIGEST_SEED, &frame),
                    bytewise(DIGEST_SEED, &frame),
                    "{:#010x} between runs of {run}",
                    px.to_bits()
                );
            }
        }
        // A frame of nothing but -0.0 has no zero run at all.
        let negative = vec![-0.0f32; 3 * ZERO_SCAN];
        assert_eq!(
            digest_frame(DIGEST_SEED, &negative),
            bytewise(DIGEST_SEED, &negative)
        );
        assert_ne!(
            digest_frame(DIGEST_SEED, &negative),
            digest_frame(DIGEST_SEED, &[0.0; 3 * ZERO_SCAN]),
            "-0.0 must not fold as +0.0"
        );
    }

    #[test]
    fn digest_frame_is_split_invariant() {
        // Lit pixels, -0.0 and zero runs shorter and longer than a chunk.
        let mut frame = lit(3);
        frame.extend([0.0; 5]);
        frame.push(-0.0);
        frame.extend([0.0; ZERO_SCAN + 4]);
        frame.extend(lit(2));
        frame.extend([0.0; 2 * ZERO_SCAN]);
        frame.push(f32::from_bits(1));
        let whole = digest_frame(DIGEST_SEED, &frame);
        assert_eq!(whole, bytewise(DIGEST_SEED, &frame));
        for split in 0..=frame.len() {
            let (a, b) = frame.split_at(split);
            assert_eq!(
                digest_frame(digest_frame(DIGEST_SEED, a), b),
                whole,
                "split at {split}"
            );
        }
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn server_config_defaults_are_valid() {
        let config = ServerConfig::default();
        assert!(config.admission.validate().is_ok());
        assert!(config.exposure_s <= config.frame_dt);
    }
}
