//! The traced runs: each workload's seeded inputs replayed through one
//! public call per layer. Each call the benchmark makes is a span on a
//! `core::telemetry::Telemetry` sink of its own. The sink is attached to
//! the replayed sessions, so the spans the program already records
//! (`star-upload`, `render`, `kernel-launch`, `download`) and the
//! device's `LaunchTrace` windows (launch, dispatch, shadow merge) nest
//! under the benchmark's. Nothing new is instrumented inside the program.
//!
//! A span's self time is its duration minus its children's. Spans named
//! `op` and `frame` only group calls; their self time is the time no
//! layer accounts for, which must stay under [`RECONCILE_TOL_PCT`] of the
//! traced wall-clock. Spans named `bench.*` are the benchmark's own work
//! (copies, digests of the replay) and are left out of the traced
//! wall-clock.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use starsim::field::dynamics::AttitudeDynamics;
use starsim::field::generator::synthetic_sky;
use starsim::field::{Camera, SkyCatalog};
use starsim::gpu::{Counters, DeviceSpec, GlobalAtomicF32, GpuTelemetry, LaunchTrace, VirtualGpu};
use starsim::sim::protocol::{read_message, write_message};
use starsim::sim::server::DIGEST_SEED;
use starsim::sim::{
    audit_adaptive, AdaptiveSession, DeviceStar, FrameSequencer, LutCache, Message, RenderDone,
    ServerConfig, SessionSpec, SimConfig, SpanRecord, Telemetry,
};

use crate::metrics::{median, Outcome};
use crate::scene::{self, Shape, Workload};
use crate::workloads::{self, Tally};

/// Largest share of the traced wall-clock that may fall outside every
/// layer span, percent.
pub const RECONCILE_TOL_PCT: f64 = 5.0;
/// Frames the single-worker baseline and the default device both render.
const SCALING_FRAMES: usize = 4;
/// Bursts run through `FrameSequencer::run_frames_pipelined`.
const PIPELINE_BURSTS: usize = 2;

// ---------------------------------------------------------------- trace

/// Times `f` as a span named `name` on the trace sink.
fn time<T>(tel: &Arc<Telemetry>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = tel.span(name);
    f()
}

fn is_overhead(name: &str) -> bool {
    name.starts_with("bench.")
}

fn is_grouping(name: &str) -> bool {
    matches!(name, "op" | "frame")
}

fn us_to_s(start_us: u64, end_us: u64) -> f64 {
    end_us.saturating_sub(start_us) as f64 * 1e-6
}

/// A span or a device window, with its parent's index.
struct Node {
    name: &'static str,
    parent: Option<usize>,
    dur_s: f64,
}

/// The trace as one tree: the sink's spans in completion order (each
/// after all of its descendants), then the device's launch windows. A
/// launch nests in the `kernel-launch` span that issued it: the n-th such
/// span issued the n-th launch, and must contain its window.
fn tree(spans: &[SpanRecord], launches: &[LaunchTrace]) -> Result<Vec<Node>, String> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut nodes: Vec<Node> = spans
        .iter()
        .map(|s| Node {
            name: s.name,
            parent: index.get(&s.parent).copied(),
            dur_s: s.duration_us() as f64 * 1e-6,
        })
        .collect();
    let mut issuers: Vec<&SpanRecord> =
        spans.iter().filter(|s| s.name == "kernel-launch").collect();
    issuers.sort_by_key(|s| s.start_us);
    if issuers.len() != launches.len() {
        return Err(format!(
            "{} kernel-launch spans but {} device launches",
            issuers.len(),
            launches.len()
        ));
    }
    for (issuer, launch) in issuers.into_iter().zip(launches) {
        if launch.start_us < issuer.start_us || launch.end_us > issuer.end_us {
            return Err("a device launch lies outside the span that issued it".into());
        }
        let l = nodes.len();
        nodes.push(Node {
            name: "exec.launch",
            parent: Some(index[&issuer.id]),
            dur_s: us_to_s(launch.start_us, launch.end_us),
        });
        for (name, window) in [
            ("exec.dispatch", launch.dispatch_us),
            ("exec.merge", launch.merge_us),
        ] {
            if let Some((a, b)) = window {
                nodes.push(Node {
                    name,
                    parent: Some(l),
                    dur_s: us_to_s(a, b),
                });
            }
        }
    }
    Ok(nodes)
}

/// Per-name totals over a trace.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    count: u64,
    /// Duration without the benchmark's own work inside the span.
    dur_s: f64,
    /// Duration minus the duration of every child.
    self_s: f64,
}

/// Totals by name, and the traced wall-clock (root spans without the
/// benchmark's own work).
fn totals(nodes: &[Node]) -> (BTreeMap<&'static str, Totals>, f64) {
    let mut child_s = vec![0.0; nodes.len()];
    let mut overhead_s = vec![0.0; nodes.len()];
    // Every span comes after its descendants, so one forward pass has a
    // span's benchmark work complete before passing it to the parent.
    // The device windows at the end hold none.
    for (i, node) in nodes.iter().enumerate() {
        if is_overhead(node.name) {
            overhead_s[i] = node.dur_s;
        }
        if let Some(p) = node.parent {
            child_s[p] += node.dur_s;
            overhead_s[p] += overhead_s[i];
        }
    }
    let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
    let mut wall_s = 0.0;
    for (i, node) in nodes.iter().enumerate() {
        let t = totals.entry(node.name).or_default();
        t.count += 1;
        t.self_s += node.dur_s - child_s[i];
        if is_overhead(node.name) {
            t.dur_s += node.dur_s;
        } else {
            t.dur_s += node.dur_s - overhead_s[i];
            if node.parent.is_none() {
                wall_s += node.dur_s - overhead_s[i];
            }
        }
    }
    (totals, wall_s)
}

// --------------------------------------------------------------- scenes

/// Where a session's inputs come from.
enum Source<'a> {
    Dense { seed: u64, shape: Shape },
    Spec(&'a SessionSpec),
}

/// One open session plus the benchmark's own copy of its scene.
struct Rig {
    seq: FrameSequencer,
    image: GlobalAtomicF32,
    host: Vec<f32>,
    sky: SkyCatalog,
    camera: Camera,
    /// The attitude state of frame 0, and of the next replayed frame.
    start: AttitudeDynamics,
    dynamics: AttitudeDynamics,
    frame_dt: f64,
    roi: usize,
    lut_hit: bool,
    /// The session's cumulative digest, folded as `starsimd` folds it.
    digest: u64,
    /// The cumulative digest after each replayed frame.
    digests: Vec<u64>,
}

/// Opens a session the way its workload does, one span per layer call,
/// with the trace sink attached.
fn open(tel: &Arc<Telemetry>, source: &Source, cache: &LutCache) -> Result<Rig, String> {
    let _span = tel.span("session.open");
    let (config, tenant) = match source {
        Source::Dense { shape, .. } => (SimConfig::new(shape.side, shape.side, shape.roi), "dense"),
        Source::Spec(spec) => (
            time(tel, "session.validate", || spec.validate()).map_err(|e| format!("spec: {e}"))?,
            spec.tenant.as_str(),
        ),
    };
    let sky = time(tel, "scene.sky_gen", || match source {
        Source::Dense { seed, shape } => scene::dense_sky(shape.stars, *seed),
        Source::Spec(spec) => synthetic_sky(spec.stars as usize, 0.0, 6.0, spec.seed),
    });
    let (dynamics, (exposure_s, frame_dt)) = match source {
        Source::Dense { .. } => (
            scene::dense_dynamics(),
            (scene::DENSE_EXPOSURE_S, scene::DENSE_FRAME_DT),
        ),
        Source::Spec(_) => (scene::server_dynamics(), scene::server_timing()),
    };
    let camera = scene::camera(config.width)?;
    let gpu = time(tel, "session.device", VirtualGpu::gtx480);
    let (_, lut_hit) = time(tel, "lut.lookup", || {
        cache.get_or_build_for(&gpu, &config, Some(tenant))
    })
    .map_err(|e| format!("LUT: {e}"))?;
    let (session, _) = time(tel, "session.bind", || {
        AdaptiveSession::on_cached_tenant(gpu, config.clone(), cache, tenant)
    })
    .map_err(|e| format!("session: {e}"))?;
    let session = session.with_telemetry(Arc::clone(tel));
    let sky_for_seq = time(tel, "bench.clone_sky", || sky.clone());
    let seq = time(tel, "session.sequencer", || {
        FrameSequencer::on_session(session, sky_for_seq, camera, dynamics, exposure_s, frame_dt)
    })
    .map_err(|e| format!("sequencer: {e}"))?;
    let image = time(tel, "bench.alloc", || seq.session().alloc_frame_image());
    Ok(Rig {
        seq,
        image,
        host: Vec::new(),
        sky,
        camera,
        start: dynamics,
        dynamics,
        frame_dt,
        roi: config.roi_side,
        lut_hit,
        digest: DIGEST_SEED,
        digests: Vec::new(),
    })
}

/// Non-time figures of the replayed frames, and the device's launches.
#[derive(Default)]
struct FrameTally {
    frames: u64,
    in_view: u64,
    scanned: u64,
    upload_bytes: u64,
    transfer_modeled_s: f64,
    kernel_modeled_s: f64,
    counters: Counters,
    download_bytes: u64,
    launches: Vec<LaunchTrace>,
}

/// One frame through every layer the frame loop calls, and (for server
/// workloads) the reply digest.
fn replay_frame(
    tel: &Arc<Telemetry>,
    rig: &mut Rig,
    serve: bool,
    tally: &mut FrameTally,
) -> Result<(), String> {
    let frame = tel.span("frame");
    let result = frame_calls(tel, rig, serve, tally);
    drop(frame);
    if !serve {
        rig.digest = time(tel, "bench.digest", || {
            scene::fold_frame(rig.digest, &rig.host)
        });
    }
    rig.digests.push(rig.digest);
    time(tel, "bench.launches", || {
        // Only the windows are kept, not the per-lane events.
        tally
            .launches
            .extend(tel.gpu_sink().take_launches().into_iter().map(|mut l| {
                l.lane_events = Vec::new();
                l
            }))
    });
    result
}

fn frame_calls(
    tel: &Arc<Telemetry>,
    rig: &mut Rig,
    serve: bool,
    tally: &mut FrameTally,
) -> Result<(), String> {
    let attitude = rig.dynamics.attitude;
    let catalog = time(tel, "fov.view", || {
        rig.sky.view(attitude, &rig.camera, rig.roi as f32)
    });
    let frame_dt = rig.frame_dt;
    time(tel, "dynamics.step", || rig.dynamics.step(frame_dt));
    // The program times these two itself: `star-upload`, and `render`
    // with the launch and the download of the frame inside it.
    let session = rig.seq.session();
    let prepared = session.prepare_stars(&catalog);
    let timing = session
        .render_prepared_into(&prepared, &rig.image, &mut rig.host)
        .map_err(|e| format!("render: {e}"))?;
    if serve {
        rig.digest = time(tel, "server.digest", || {
            scene::fold_frame(rig.digest, &rig.host)
        });
    }
    tally.frames += 1;
    tally.in_view += catalog.len() as u64;
    tally.scanned += rig.sky.len() as u64;
    tally.upload_bytes += (prepared.star_count() * std::mem::size_of::<DeviceStar>()) as u64;
    tally.transfer_modeled_s += timing.star_upload_s + timing.serial_transfer_s;
    tally.kernel_modeled_s += timing.kernel_s;
    tally.counters.merge(&timing.counters);
    tally.download_bytes += (rig.host.len() * 4) as u64;
    Ok(())
}

/// Encodes and decodes one message through the wire format.
fn wire(
    tel: &Arc<Telemetry>,
    message: &Message,
    buf: &mut Vec<u8>,
    bytes: &mut u64,
) -> Result<(), String> {
    buf.clear();
    time(tel, "protocol.encode", || write_message(buf, message))
        .map_err(|e| format!("encode: {e}"))?;
    *bytes += buf.len() as u64;
    let mut reader = buf.as_slice();
    let decoded = time(tel, "protocol.decode", || read_message(&mut reader))
        .map_err(|e| format!("decode: {e}"))?;
    if time(tel, "bench.check", || decoded != *message) {
        return Err("a message changed through encode and decode".into());
    }
    Ok(())
}

fn render_done(rig: &Rig, frames: u32, app_time_us: u64) -> Message {
    Message::RenderDone(RenderDone {
        session: 1,
        requested: frames,
        completed: frames,
        digest: rig.digest,
        app_time_us,
        wall_us: 0,
        shed_level: 0,
        deadline_missed: false,
    })
}

// ------------------------------------------------------------ side legs

/// Single-worker dispatch ÷ (default dispatch × default workers), over
/// the same first frames on two fresh sessions, interleaved.
fn scaling_efficiency(rig: &Rig) -> Result<f64, String> {
    let config = rig.seq.session().config().clone();
    let mut single = config.clone();
    single.workers = Some(1);
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(DeviceSpec::gtx480().sm_count as usize);
    let mut devices = Vec::new();
    for c in [config, single] {
        let sink = Arc::new(GpuTelemetry::new());
        let gpu = VirtualGpu::gtx480().with_telemetry(Arc::clone(&sink));
        let session = AdaptiveSession::on(gpu, c).map_err(|e| format!("scaling session: {e}"))?;
        let image = session.alloc_frame_image();
        devices.push((session, sink, image, Vec::new()));
    }
    let mut dynamics = rig.start;
    let mut host = Vec::new();
    for _ in 0..SCALING_FRAMES {
        let catalog = rig.sky.view(dynamics.attitude, &rig.camera, rig.roi as f32);
        dynamics.step(rig.frame_dt);
        for (session, sink, image, dispatch) in &mut devices {
            let prepared = session.prepare_stars(&catalog);
            session
                .render_prepared_into(&prepared, image, &mut host)
                .map_err(|e| format!("scaling render: {e}"))?;
            dispatch.extend(
                sink.take_launches()
                    .iter()
                    .filter_map(|l| l.dispatch_us.map(|(a, b)| us_to_s(a, b))),
            );
        }
    }
    let [many, one] =
        [&devices[0].3, &devices[1].3].map(|d| if d.is_empty() { 0.0 } else { median(d) });
    Ok(if many > 0.0 {
        one / (many * workers as f64)
    } else {
        0.0
    })
}

/// What the frame loop itself reports over a few pipelined bursts.
#[derive(Default)]
struct PipelineLeg {
    frames: u64,
    produce_s: f64,
    consume_s: f64,
    overlap: f64,
    elapsed_s: f64,
    bursts: u64,
    /// Cumulative digest of the bursts' frames, from frame 0.
    digest: u64,
}

fn pipeline_leg(rig: &mut Rig, burst: usize) -> Result<PipelineLeg, String> {
    let mut leg = PipelineLeg {
        digest: DIGEST_SEED,
        ..PipelineLeg::default()
    };
    let token = starsim::sim::CancelToken::new();
    for _ in 0..PIPELINE_BURSTS {
        let digest = &mut leg.digest;
        let report = rig
            .seq
            .run_frames_pipelined_observed(burst, &token, |f| {
                *digest = scene::fold_frame(*digest, f.pixels)
            })
            .map_err(|e| format!("pipelined burst: {e}"))?;
        let overlap = report.overlap.ok_or("a burst reported no overlap")?;
        leg.frames += report.frames as u64;
        leg.produce_s += overlap.produce_busy_s;
        leg.consume_s += overlap.consume_busy_s;
        leg.overlap += overlap.measured_efficiency;
        leg.elapsed_s += report.elapsed_s;
        leg.bursts += 1;
    }
    Ok(leg)
}

/// Wall-clock of one lookup-table build (a cache miss) for the rig's
/// optics, seconds: the median of a few, each on an empty cache.
fn lut_build_s(rig: &Rig) -> Result<f64, String> {
    let gpu = rig.seq.session().gpu();
    let config = rig.seq.session().config();
    let mut builds = Vec::new();
    for _ in 0..3 {
        let cache = LutCache::new();
        let t0 = Instant::now();
        cache
            .get_or_build_for(gpu, config, None)
            .map_err(|e| format!("LUT: {e}"))?;
        builds.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&builds))
}

/// The static analyzer's texture-hit floor for the first frame.
fn tex_hit_floor(rig: &Rig) -> Result<f64, String> {
    let catalog = rig
        .sky
        .view(rig.start.attitude, &rig.camera, rig.roi as f32);
    let audit =
        audit_adaptive(rig.seq.session().config(), &catalog).map_err(|e| format!("audit: {e}"))?;
    Ok(audit.report.prediction.tex_hit_rate_floor)
}

/// Real round trips to `starsimd`, for what only a server can show.
struct ServerLeg {
    tally: Tally,
    rejected_ratio: f64,
    depth_mean: f64,
}

/// Drives a fresh server for `seconds` with the untraced run's clients
/// (session-churn's when `churn` gives its seed, else one wide-sky client
/// on `specs[0]`) while sampling admission depth.
fn server_leg(
    specs: &[SessionSpec],
    burst: u32,
    churn: Option<u64>,
    seconds: f64,
) -> Result<ServerLeg, String> {
    let server = workloads::bind()?;
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (tallies, depth) = std::thread::scope(|s| {
        let (server, stop) = (&server, &stop);
        let sampler = s.spawn(move || {
            let (mut sum, mut n) = (0usize, 0u64);
            while !stop.load(Ordering::Relaxed) {
                sum += server.admission().depth();
                n += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            sum as f64 / n.max(1) as f64
        });
        let clients: Vec<_> = match churn {
            Some(seed) => (0..workloads::churn_clients())
                .map(|c| {
                    s.spawn(move || {
                        workloads::churn_client(server, specs, seed, c, start, seconds, false)
                    })
                })
                .collect(),
            None => vec![s.spawn(move || {
                let mut client = workloads::connect(server)?;
                let (session, _) = client
                    .open_session(&specs[0])
                    .map_err(|e| format!("open: {e}"))?;
                Ok(workloads::wide_client(
                    &mut client,
                    session,
                    burst,
                    start,
                    seconds,
                ))
            })],
        };
        let tallies: Vec<Result<Tally, String>> = clients
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("server-leg client panicked".into()))
            })
            .collect();
        stop.store(true, Ordering::Relaxed);
        (tallies, sampler.join().unwrap_or(0.0))
    });
    let mut tally = Tally::default();
    for part in tallies {
        tally.absorb(part?);
    }
    let stats = server.admission().stats();
    server.shutdown();
    Ok(ServerLeg {
        tally,
        rejected_ratio: stats.rejected as f64 / (stats.admitted + stats.rejected).max(1) as f64,
        depth_mean: depth,
    })
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

// ------------------------------------------------------------------ run

/// Everything a traced run gathers before it becomes metrics.
#[derive(Default)]
struct Gathered {
    tally: FrameTally,
    /// The replay's spans, taken before the side legs add their own.
    spans: Vec<SpanRecord>,
    ops: u64,
    wire_bytes: u64,
    opens: u64,
    lut_hits: u64,
    evictions: u64,
    scaling: f64,
    tex_floor: f64,
    lut_build_s: f64,
    pipeline: Option<PipelineLeg>,
    server: Option<ServerLeg>,
    /// Untraced wall-clock per operation, for `trace.overhead_pct`.
    untraced_op_s: f64,
}

impl Gathered {
    fn open(
        &mut self,
        tel: &Arc<Telemetry>,
        source: &Source,
        cache: &LutCache,
    ) -> Result<Rig, String> {
        let rig = open(tel, source, cache)?;
        self.opens += 1;
        self.lut_hits += u64::from(rig.lut_hit);
        Ok(rig)
    }
}

/// Replays `workload` traced for about `seconds`: half on the layer
/// calls, a quarter on real server round trips, the rest on short legs
/// (single-worker baseline, pipelined bursts, static analysis).
pub fn run(workload: Workload, seed: u64, seconds: f64, shape: Shape) -> Result<Outcome, String> {
    let tel = Telemetry::new();
    let mut g = Gathered::default();
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let server_config = ServerConfig::default();
    let mut cache = LutCache::with_capacity(server_config.lut_capacity);
    if let Some(quota) = server_config.tenant_quota {
        cache = cache.with_tenant_quota(quota);
    }
    let replay_s = seconds * 0.5;
    let start = Instant::now();
    let mut checks: Vec<Result<String, String>> = Vec::new();
    let mut buf = Vec::new();
    match workload {
        Workload::DenseField => {
            let mut rig = g.open(&tel, &Source::Dense { seed, shape }, &cache)?;
            while g.ops == 0 || start.elapsed().as_secs_f64() < replay_s {
                let op = tel.span("op");
                let r = (0..shape.burst)
                    .try_for_each(|_| replay_frame(&tel, &mut rig, false, &mut g.tally));
                drop(op);
                r?;
                g.ops += 1;
            }
            g.spans = tel.snapshot_spans();
            side_legs(&mut g, &mut rig, shape.burst as usize, &mut checks)?;
            let leg = g.pipeline.as_ref().expect("side legs ran");
            g.untraced_op_s = leg.elapsed_s / leg.bursts as f64;
        }
        Workload::WideSky => {
            let spec = scene::wide_spec(seed, shape);
            let mut rig = g.open(&tel, &Source::Spec(&spec), &cache)?;
            let burst = shape.burst;
            while g.ops == 0 || start.elapsed().as_secs_f64() < replay_s {
                let op = tel.span("op");
                let r = wide_op(&tel, &mut rig, burst, &mut buf, &mut g);
                drop(op);
                r?;
                g.ops += 1;
            }
            g.spans = tel.snapshot_spans();
            let first_op = rig.digests[burst as usize - 1];
            side_legs(&mut g, &mut rig, burst as usize, &mut checks)?;
            let leg = server_leg(std::slice::from_ref(&spec), burst, None, seconds * 0.25)?;
            checks.push(match leg.tally.digests.get(&0) {
                Some(&d) if d == first_op => {
                    Ok(format!("replayed op digest {d:016x} equals starsimd's"))
                }
                Some(&d) => Err(format!(
                    "replayed op digest {first_op:016x}, starsimd's {d:016x}"
                )),
                None => Err("starsimd rendered nothing".into()),
            });
            g.server = Some(leg);
        }
        Workload::SessionChurn => {
            // Like the untraced run, the replay starts on an empty cache.
            let pool = scene::churn_pool(seed, shape);
            let mut stream = scene::churn_stream(seed, 0);
            let mut replayed: BTreeMap<usize, u64> = BTreeMap::new();
            let mut first = None;
            while g.ops == 0 || start.elapsed().as_secs_f64() < replay_s {
                let i = stream.below(pool.len());
                first.get_or_insert(i);
                let op = tel.span("op");
                let r = churn_op(&tel, &pool[i], &cache, &mut buf, &mut g);
                drop(op);
                let digest = r?;
                if *replayed.entry(i).or_insert(digest) != digest {
                    return Err(format!("replayed spec {i} twice with different digests"));
                }
                g.ops += 1;
            }
            g.spans = tel.snapshot_spans();
            let first = first.expect("at least one cycle");
            let mut rig = open(&Telemetry::new(), &Source::Spec(&pool[first]), &cache)?;
            side_legs(&mut g, &mut rig, 1, &mut checks)?;
            let leg = server_leg(&pool, 1, Some(seed), seconds * 0.25)?;
            let shared: Vec<usize> = replayed
                .keys()
                .filter(|i| leg.tally.digests.contains_key(i))
                .copied()
                .collect();
            checks.push(
                match shared.iter().find(|i| replayed[i] != leg.tally.digests[i]) {
                    None if !shared.is_empty() => Ok(format!(
                        "{} replayed specs equal starsimd's digests",
                        shared.len()
                    )),
                    None => Err("no spec was both replayed and served".into()),
                    Some(i) => Err(format!("replayed spec {i} differs from starsimd's render")),
                },
            );
            g.server = Some(leg);
        }
    }
    if tel.dropped_spans() > 0 {
        return Err(format!(
            "the trace sink dropped {} spans; shorten --seconds",
            tel.dropped_spans()
        ));
    }
    if let Some(leg) = &g.server {
        if let Some(e) = &leg.tally.bad {
            checks.push(Err(format!("starsimd leg: {e}")));
        }
        g.untraced_op_s = mean(&leg.tally.ops);
    }
    g.evictions = cache.stats().evictions;
    outcome.attempted = g.ops;
    for check in checks {
        match check {
            Ok(line) => outcome.note(format!("correctness: {line}")),
            Err(e) => outcome.fail_check(e),
        }
    }
    metrics(&g, workload, &mut outcome)?;
    Ok(outcome)
}

/// Pipelined bursts (checked against the replay), the single-worker
/// baseline, the static analyzer and a cold LUT build, on the rig's scene.
fn side_legs(
    g: &mut Gathered,
    rig: &mut Rig,
    burst: usize,
    checks: &mut Vec<Result<String, String>>,
) -> Result<(), String> {
    let replayed = rig.digests.clone();
    let leg = pipeline_leg(rig, burst)?;
    let n = leg.frames as usize;
    // The rig was opened for this leg only when the replay did not run
    // on it (session-churn); then there is nothing to compare.
    if replayed.len() >= n {
        checks.push(if replayed[n - 1] == leg.digest {
            Ok(format!(
                "{n} pipelined frames equal the layer-by-layer replay"
            ))
        } else {
            Err(format!(
                "{n} pipelined frames differ from the layer-by-layer replay"
            ))
        });
    }
    g.pipeline = Some(leg);
    g.scaling = scaling_efficiency(rig)?;
    g.tex_floor = tex_hit_floor(rig)?;
    g.lut_build_s = lut_build_s(rig)?;
    Ok(())
}

fn wide_op(
    tel: &Arc<Telemetry>,
    rig: &mut Rig,
    burst: u32,
    buf: &mut Vec<u8>,
    g: &mut Gathered,
) -> Result<(), String> {
    let request = Message::Render {
        session: 1,
        frames: burst,
        deadline_ms: 0,
    };
    wire(tel, &request, buf, &mut g.wire_bytes)?;
    let modeled_before = g.tally.kernel_modeled_s + g.tally.transfer_modeled_s;
    for _ in 0..burst {
        replay_frame(tel, rig, true, &mut g.tally)?;
    }
    let modeled = g.tally.kernel_modeled_s + g.tally.transfer_modeled_s - modeled_before;
    wire(
        tel,
        &render_done(rig, burst, (modeled * 1e6) as u64),
        buf,
        &mut g.wire_bytes,
    )
}

/// One open → render → close cycle; returns the frame's digest.
fn churn_op(
    tel: &Arc<Telemetry>,
    spec: &SessionSpec,
    cache: &LutCache,
    buf: &mut Vec<u8>,
    g: &mut Gathered,
) -> Result<u64, String> {
    wire(
        tel,
        &Message::OpenSession(spec.clone()),
        buf,
        &mut g.wire_bytes,
    )?;
    let mut rig = g.open(tel, &Source::Spec(spec), cache)?;
    let opened = Message::SessionOpen {
        session: 1,
        lut_cache_hit: rig.lut_hit,
    };
    wire(tel, &opened, buf, &mut g.wire_bytes)?;
    wire(
        tel,
        &Message::Render {
            session: 1,
            frames: 1,
            deadline_ms: 0,
        },
        buf,
        &mut g.wire_bytes,
    )?;
    let modeled_before = g.tally.kernel_modeled_s + g.tally.transfer_modeled_s;
    replay_frame(tel, &mut rig, true, &mut g.tally)?;
    let modeled = g.tally.kernel_modeled_s + g.tally.transfer_modeled_s - modeled_before;
    wire(
        tel,
        &render_done(&rig, 1, (modeled * 1e6) as u64),
        buf,
        &mut g.wire_bytes,
    )?;
    wire(
        tel,
        &Message::CloseSession { session: 1 },
        buf,
        &mut g.wire_bytes,
    )?;
    let digest = rig.digest;
    time(tel, "session.close", || drop(rig));
    wire(
        tel,
        &Message::SessionClosed { session: 1 },
        buf,
        &mut g.wire_bytes,
    )?;
    Ok(digest)
}

/// Turns the trace and the side legs into the per-layer metrics, the
/// reconciliation check and the breakdown notes.
fn metrics(g: &Gathered, workload: Workload, o: &mut Outcome) -> Result<(), String> {
    let (totals, wall_s) = totals(&tree(&g.spans, &g.tally.launches)?);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let t = &g.tally;
    let frames = t.frames;
    let c = &t.counters;

    o.set("fov.view_ms", per(get("fov.view").dur_s, frames) * 1e3);
    o.set("fov.stars_in_view", per(t.in_view as f64, frames));
    o.set("fov.useful_ratio", per(t.in_view as f64, t.scanned));
    o.set(
        "dynamics.step_us",
        per(get("dynamics.step").dur_s, frames) * 1e6,
    );

    let (sky, open) = (get("scene.sky_gen"), get("session.open"));
    o.set("scene.sky_gen_ms", per(sky.dur_s, sky.count) * 1e3);
    o.set("lut.build_ms", g.lut_build_s * 1e3);
    o.set("session.open_ms", per(open.dur_s, open.count) * 1e3);
    o.set("lut_cache.hit_ratio", per(g.lut_hits as f64, g.opens));
    o.set("lut_cache.evictions", g.evictions as f64);

    o.set(
        "upload.prepare_ms",
        per(get("star-upload").dur_s, frames) * 1e3,
    );
    o.set("upload.bytes_per_frame", per(t.upload_bytes as f64, frames));
    o.set(
        "transfer.modeled_ms",
        per(t.transfer_modeled_s, frames) * 1e3,
    );

    let (render, launch, download) = (get("render"), get("exec.launch"), get("download"));
    o.set(
        "render.other_ms",
        per(render.dur_s - launch.dur_s - download.dur_s, frames) * 1e3,
    );
    o.set("exec.launch_ms", per(launch.dur_s, frames) * 1e3);
    o.set(
        "exec.dispatch_ms",
        per(get("exec.dispatch").dur_s, frames) * 1e3,
    );
    o.set("exec.merge_ms", per(get("exec.merge").dur_s, frames) * 1e3);
    o.set("exec.launch_other_ms", per(launch.self_s, frames) * 1e3);
    o.set("exec.scaling_efficiency", g.scaling);

    o.set("kernel.modeled_ms", per(t.kernel_modeled_s, frames) * 1e3);
    o.set("kernel.tex_hit_ratio", c.tex_hit_rate());
    o.set(
        "kernel.atomic_conflicts_per_frame",
        per(c.atomic_conflicts as f64, frames),
    );
    o.set(
        "kernel.global_tx_per_request",
        per(c.global_transactions as f64, c.global_requests),
    );
    o.set(
        "kernel.flops_per_frame",
        per(c.total_flops() as f64, frames),
    );
    o.set("analyze.tex_hit_floor", g.tex_floor);

    o.set(
        "download.ms_per_frame",
        per(download.dur_s, download.count) * 1e3,
    );
    o.set(
        "download.bytes_per_frame",
        per(t.download_bytes as f64, frames),
    );

    if let Some(leg) = &g.pipeline {
        o.set(
            "pipeline.produce_busy_ms",
            per(leg.produce_s, leg.frames) * 1e3,
        );
        o.set(
            "pipeline.consume_busy_ms",
            per(leg.consume_s, leg.frames) * 1e3,
        );
        o.set("pipeline.measured_overlap", per(leg.overlap, leg.bursts));
    }

    let wire_ops = if get("protocol.encode").count > 0 {
        g.ops
    } else {
        0
    };
    o.set(
        "protocol.encode_us",
        per(get("protocol.encode").dur_s, wire_ops) * 1e6,
    );
    o.set(
        "protocol.decode_us",
        per(get("protocol.decode").dur_s, wire_ops) * 1e6,
    );
    o.set("protocol.bytes_per_op", per(g.wire_bytes as f64, wire_ops));
    let digest = get("server.digest");
    o.set(
        "server.digest_ms_per_frame",
        per(digest.dur_s, digest.count) * 1e3,
    );
    let server = g.server.as_ref();
    o.set(
        "server.round_trip_overhead_ms",
        server.map_or(0.0, |s| mean(&s.tally.overhead_s) * 1e3),
    );
    o.set(
        "admission.rejected_ratio",
        server.map_or(0.0, |s| s.rejected_ratio),
    );
    o.set("admission.depth_mean", server.map_or(0.0, |s| s.depth_mean));

    let op = get("op");
    let traced_op_s = per(op.dur_s, op.count);
    o.set(
        "trace.overhead_pct",
        if g.untraced_op_s > 0.0 {
            (traced_op_s / g.untraced_op_s - 1.0) * 100.0
        } else {
            0.0
        },
    );
    let unattributed_s: f64 = totals
        .iter()
        .filter(|(name, _)| is_grouping(name))
        .map(|(_, t)| t.self_s)
        .sum();
    let unattributed_pct = unattributed_s / wall_s.max(f64::MIN_POSITIVE) * 100.0;
    o.set("trace.unattributed_pct", unattributed_pct);

    if unattributed_pct.abs() <= RECONCILE_TOL_PCT {
        o.note(format!(
            "reconciled: layer self-times cover all but {unattributed_pct:.3}% of the traced \
             wall-clock {wall_s:.3} s (tolerance {RECONCILE_TOL_PCT}%)"
        ));
    } else {
        o.fail_check(format!(
            "layer self-times leave {unattributed_pct:.3}% of the traced wall-clock \
             unattributed (tolerance {RECONCILE_TOL_PCT}%)"
        ));
    }
    o.note(format!(
        "trace: {} ops, {frames} frames, traced wall {wall_s:.3} s; self time by span:",
        g.ops
    ));
    for (name, t) in &totals {
        if !is_overhead(name) {
            o.note(format!(
                "  {name:<20} {:>10.3} ms/op  {:>6.2}%",
                per(t.self_s, g.ops) * 1e3,
                t.self_s / wall_s.max(f64::MIN_POSITIVE) * 100.0
            ));
        }
    }

    // The bottleneck each workload was built to exercise.
    let frame_s = get("frame").dur_s;
    let (claim, share, holds) = match workload {
        Workload::DenseField => {
            let s = (get("exec.dispatch").dur_s + get("exec.merge").dur_s) / frame_s;
            ("exec.dispatch + exec.merge > 50% of frame time", s, s > 0.5)
        }
        Workload::WideSky => {
            let s = get("fov.view").dur_s / frame_s;
            ("fov.view > 50% of frame time", s, s > 0.5)
        }
        Workload::SessionChurn => {
            let s = launch.dur_s / op.dur_s;
            ("exec.launch < 10% of cycle time", s, s < 0.1)
        }
    };
    o.note(format!(
        "bottleneck: {claim}: {:.1}% — {}",
        share * 100.0,
        if holds { "confirmed" } else { "NOT confirmed" }
    ));
    Ok(())
}
