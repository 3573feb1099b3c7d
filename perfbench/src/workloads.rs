//! The untraced runs. Every end-to-end metric comes from here. The
//! closed-loop `starsimd` clients are shared with the traced run's
//! server leg.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::Instant;

use starsim::sim::{
    CancelToken, Client, ExecMode, Message, RenderDone, ServerConfig, ServerHandle, SessionSpec,
    SimConfig, StarServer,
};

use crate::check;
use crate::host;
use crate::metrics::{median, percentile, Outcome};
use crate::scene::{self, Shape, Workload};

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Frames each wide-sky digest session renders.
const CHECK_FRAMES: u32 = 3;
/// session-churn's closed-loop clients (never more than the host's cores).
const CHURN_CLIENTS: usize = 2;

/// Client-observed operations of one timed window.
#[derive(Default)]
pub struct Tally {
    /// Latency of every completed operation, seconds.
    pub ops: Vec<f64>,
    /// Per `Render` round trip: client latency minus the server's own
    /// `RenderDone.wall_us`, seconds.
    pub overhead_s: Vec<f64>,
    /// The first digest rendered per pool index (wide-sky: index 0).
    pub digests: BTreeMap<usize, u64>,
    pub frames: u64,
    pub modeled_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Why the first failed or refused operation failed.
    pub first_failure: Option<String>,
    /// The first correctness failure: a reply the protocol does not allow
    /// here, or a render that differs from an earlier one of its spec.
    pub bad: Option<String>,
}

impl Tally {
    /// Records an operation that started at `t0` and just completed;
    /// returns its latency, seconds.
    fn record(&mut self, t0: Instant) -> f64 {
        let latency = t0.elapsed().as_secs_f64();
        self.ops.push(latency);
        latency
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Keeps the first digest of pool entry `spec`; every later one must
    /// equal it.
    fn repeat(&mut self, spec: usize, digest: u64) {
        match self.digests.entry(spec) {
            Entry::Vacant(first) => {
                first.insert(digest);
            }
            Entry::Occupied(first) => {
                if let Err(e) = check::repeat_digest(spec, *first.get(), digest) {
                    self.bad.get_or_insert(e);
                }
            }
        }
    }

    /// Adds another client's tally; its first digests must agree with
    /// this one's.
    pub fn absorb(&mut self, other: Tally) {
        self.ops.extend(other.ops);
        self.overhead_s.extend(other.overhead_s);
        for (spec, digest) in other.digests {
            self.repeat(spec, digest);
        }
        self.frames += other.frames;
        self.modeled_s += other.modeled_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
        self.bad = self.bad.take().or(other.bad);
    }
}

/// Runs `workload` untraced for `seconds`. With `tamper`, one sampled
/// pixel or digest is corrupted before its check (the self-test proves
/// the check then fails).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    shape: Shape,
    tamper: bool,
) -> Result<Outcome, String> {
    match workload {
        Workload::DenseField => dense_field(seed, seconds, shape, tamper),
        Workload::WideSky => wide_sky(seed, seconds, shape, tamper),
        Workload::SessionChurn => session_churn(seed, seconds, shape, tamper),
    }
}

fn finish(
    workload: Workload,
    tally: Tally,
    wall_s: f64,
    cpu_s: f64,
    setup_s: &[f64],
) -> Result<Outcome, String> {
    let mut latencies = tally.ops;
    if tally.frames == 0 || latencies.is_empty() {
        return Err("no operation completed in the timed window".into());
    }
    latencies.sort_by(f64::total_cmp);

    let q = workload.tail_percentile();
    let beyond = latencies.len() - (q / 100.0 * latencies.len() as f64).ceil() as usize;
    let frames = tally.frames as f64;
    let mut o = Outcome {
        correct: true,
        attempted: tally.attempted,
        failed: tally.failed,
        ..Outcome::default()
    };
    o.set("frames_per_s", frames / wall_s);
    o.set("ops_per_s", latencies.len() as f64 / wall_s);
    o.set("latency_p50_ms", percentile(&latencies, 50.0) * 1e3);
    o.set("latency_tail_ms", percentile(&latencies, q) * 1e3);
    o.set("modeled_gpu_ms_per_frame", tally.modeled_s / frames * 1e3);
    o.set("setup_s", median(setup_s));
    o.set("cpu_ms_per_frame", cpu_s / frames * 1e3);
    o.set("peak_rss_mib", host::peak_rss_mib()?);
    o.note(format!(
        "latency_tail_ms is p{q} of {} operations over {wall_s:.2} s ({beyond} beyond it)",
        latencies.len()
    ));
    o.note(format!(
        "failed_ratio = {} ({} of {} operations failed or were refused)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    ));
    if let Some(why) = tally.first_failure {
        o.note(format!("first failed operation: {why}"));
    }
    o.note(format!(
        "setup_s is the median of {} cold set-ups",
        setup_s.len()
    ));
    if let Some(e) = tally.bad {
        o.fail_check(e);
    }
    Ok(o)
}

/// Starts the timed window: `(wall start, CPU seconds at start)`.
fn window_start() -> Result<(Instant, f64), String> {
    Ok((Instant::now(), host::cpu_seconds()?))
}

// ---------------------------------------------------------------- dense

fn dense_field(seed: u64, seconds: f64, shape: Shape, tamper: bool) -> Result<Outcome, String> {
    let sky = scene::dense_sky(shape.stars, seed);
    let config = SimConfig::new(shape.side, shape.side, shape.roi);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let sky = sky.clone();
        let t0 = Instant::now();
        let seq = scene::dense_sequencer(config.clone(), sky, scene::dense_dynamics())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(seq);
    }

    let mut seq = scene::dense_sequencer(config.clone(), sky.clone(), scene::dense_dynamics())?;
    let burst = shape.burst as usize;
    // An untimed burst warms the pool, arenas and rotating images, and
    // keeps one frame, chosen by the seed, for the correctness check.
    let sample = seed % u64::from(shape.burst);
    let mut sampled = None;
    seq.run_frames_pipelined_observed(burst, &CancelToken::new(), |f| {
        if f.index == sample {
            sampled = Some((f.pixels.to_vec(), f.timing));
        }
    })
    .map_err(|e| format!("warm-up burst: {e}"))?;

    let mut tally = Tally::default();
    let (start, cpu0) = window_start()?;
    while start.elapsed().as_secs_f64() < seconds {
        tally.attempted += 1;
        let t0 = Instant::now();
        match seq.run_frames_pipelined(burst) {
            Ok(report) => {
                tally.record(t0);
                tally.frames += report.frames as u64;
                tally.modeled_s += report.mean_app_time_s * report.frames as f64;
            }
            Err(e) => tally.fail(e.to_string()),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds()? - cpu0;
    let mut outcome = finish(Workload::DenseField, tally, wall_s, cpu_s, &setup_s)?;

    let (mut pixels, timing) = sampled.ok_or("the warm-up burst skipped the sampled frame")?;
    if tamper {
        let mid = pixels.len() / 2;
        pixels[mid] += 1.0 + pixels[mid].abs();
    }
    let mut dynamics = scene::dense_dynamics();
    for _ in 0..sample {
        dynamics.step(scene::DENSE_FRAME_DT);
    }
    let mut ref_config = config;
    ref_config.exec_mode = ExecMode::Reference;
    let reference = scene::dense_sequencer(ref_config, sky, dynamics)?
        .next_frame()
        .map_err(|e| format!("reference frame: {e}"))?
        .report;
    match check::sampled_frame(&pixels, &timing, &reference) {
        Ok(max_abs) => outcome.note(format!(
            "correctness: frame {sample} matches ExecMode::Reference \
             (max abs pixel diff {max_abs:e}; counters and modeled time bit-equal)"
        )),
        Err(e) => outcome.fail_check(e),
    }
    Ok(outcome)
}

// ------------------------------------------------------------- starsimd

pub fn bind() -> Result<ServerHandle, String> {
    StarServer::bind("127.0.0.1:0", ServerConfig::default()).map_err(|e| format!("bind: {e}"))
}

pub fn connect(server: &ServerHandle) -> Result<Client, String> {
    Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))
}

/// A short description of an unexpected reply.
fn describe(m: &Message) -> String {
    format!("{m:?}").chars().take(120).collect()
}

/// A render or cycle the server answered as the protocol allows.
pub enum Reply<T> {
    Done(T),
    Refused(String),
}

/// One `Render` round trip. `Err` is a reply the protocol does not allow
/// here (a correctness failure); a `Reject` is a refused operation.
pub fn render(client: &mut Client, session: u64, frames: u32) -> Result<Reply<RenderDone>, String> {
    match client
        .render(session, frames, 0)
        .map_err(|e| format!("render: {e}"))?
    {
        Message::RenderDone(done) if done.completed == frames && !done.deadline_missed => {
            Ok(Reply::Done(done))
        }
        Message::Reject { code, message, .. } => {
            Ok(Reply::Refused(format!("{}: {message}", code.name())))
        }
        other => Err(format!("render: unexpected reply {}", describe(&other))),
    }
}

/// `OpenSession` round trips on fresh servers, so every one misses the
/// LUT cache: the wall-clock of each, seconds.
fn cold_opens(spec: &SessionSpec) -> Result<Vec<f64>, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let server = bind()?;
        let mut client = connect(&server)?;
        let t0 = Instant::now();
        let (session, hit) = client
            .open_session(spec)
            .map_err(|e| format!("cold open: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if hit {
            return Err("a cold open hit the LUT cache".into());
        }
        client
            .close_session(session)
            .map_err(|e| format!("close: {e}"))?;
        drop(client);
        server.shutdown();
    }
    Ok(setup_s)
}

// ------------------------------------------------------------- wide-sky

fn wide_sky(seed: u64, seconds: f64, shape: Shape, tamper: bool) -> Result<Outcome, String> {
    let spec = scene::wide_spec(seed, shape);
    let setup_s = cold_opens(&spec)?;
    let server = bind()?;
    let mut client = connect(&server)?;
    let (session, _) = client
        .open_session(&spec)
        .map_err(|e| format!("open: {e}"))?;
    if let Reply::Refused(why) = render(&mut client, session, shape.burst)? {
        return Err(format!("warm-up burst refused: {why}"));
    }

    let (start, cpu0) = window_start()?;
    let tally = wide_client(&mut client, session, shape.burst, start, seconds);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds()? - cpu0;
    let mut outcome = finish(Workload::WideSky, tally, wall_s, cpu_s, &setup_s)?;

    let whole_a = digest_after(&mut client, &spec, &[CHECK_FRAMES])?;
    let mut whole_b = digest_after(&mut client, &spec, &[CHECK_FRAMES])?;
    let split = digest_after(&mut client, &spec, &[1, CHECK_FRAMES - 1])?;
    if tamper {
        whole_b ^= 1;
    }
    let zeros = vec![0.0f32; shape.side * shape.side];
    let blank = (0..CHECK_FRAMES).fold(starsim::sim::server::DIGEST_SEED, |d, _| {
        scene::fold_frame(d, &zeros)
    });
    match check::wide_digests(whole_a, whole_b, split, blank) {
        Ok(()) => outcome.note(format!(
            "correctness: two sessions and a {}+{} split burst all end on digest {whole_a:016x}",
            1,
            CHECK_FRAMES - 1
        )),
        Err(e) => outcome.fail_check(e),
    }
    client
        .close_session(session)
        .map_err(|e| format!("close: {e}"))?;
    drop(client);
    server.shutdown();
    Ok(outcome)
}

/// The wide-sky client: `Render` bursts on one open session, each sent
/// once the previous reply is in, until the window closes (at least one).
pub fn wide_client(
    client: &mut Client,
    session: u64,
    burst: u32,
    start: Instant,
    seconds: f64,
) -> Tally {
    let mut tally = Tally::default();
    while tally.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        tally.attempted += 1;
        let t0 = Instant::now();
        match render(client, session, burst) {
            Ok(Reply::Done(done)) => {
                let latency = tally.record(t0);
                tally.overhead_s.push(latency - done.wall_us as f64 * 1e-6);
                tally.frames += u64::from(done.completed);
                tally.modeled_s += done.app_time_us as f64 * 1e-6;
                tally.digests.entry(0).or_insert(done.digest);
            }
            Ok(Reply::Refused(why)) => tally.fail(why),
            Err(e) => {
                tally.fail(e.clone());
                tally.bad = Some(e);
                break;
            }
        }
    }
    tally
}

/// Opens a fresh session on `spec`, renders the given bursts, closes it,
/// and returns the session's final cumulative digest.
fn digest_after(client: &mut Client, spec: &SessionSpec, bursts: &[u32]) -> Result<u64, String> {
    let (session, _) = client
        .open_session(spec)
        .map_err(|e| format!("open: {e}"))?;
    let mut digest = None;
    for &frames in bursts {
        match render(client, session, frames)? {
            Reply::Done(done) => digest = Some(done.digest),
            Reply::Refused(why) => return Err(format!("check burst refused: {why}")),
        }
    }
    client
        .close_session(session)
        .map_err(|e| format!("close: {e}"))?;
    digest.ok_or_else(|| "no burst rendered".into())
}

// -------------------------------------------------------- session-churn

/// A completed session-churn cycle.
pub struct Cycle {
    pub digest: u64,
    pub app_time_us: u64,
    /// Client-observed wall-clock of the `Render` round trip, seconds.
    pub render_s: f64,
    /// The server's own wall-clock for the render, µs.
    pub wall_us: u64,
}

/// One open → render one frame → close cycle.
pub fn cycle(client: &mut Client, spec: &SessionSpec) -> Result<Reply<Cycle>, String> {
    let session = match client
        .request(&Message::OpenSession(spec.clone()))
        .map_err(|e| format!("open: {e}"))?
    {
        Message::SessionOpen { session, .. } => session,
        Message::Reject { code, message, .. } => {
            return Ok(Reply::Refused(format!("{}: {message}", code.name())))
        }
        other => return Err(format!("open: unexpected reply {}", describe(&other))),
    };
    let t0 = Instant::now();
    let rendered = render(client, session, 1)?;
    let render_s = t0.elapsed().as_secs_f64();
    match client
        .request(&Message::CloseSession { session })
        .map_err(|e| format!("close: {e}"))?
    {
        Message::SessionClosed { session: closed } if closed == session => {}
        other => return Err(format!("close: unexpected reply {}", describe(&other))),
    }
    Ok(match rendered {
        Reply::Done(done) => Reply::Done(Cycle {
            digest: done.digest,
            app_time_us: done.app_time_us,
            render_s,
            wall_us: done.wall_us,
        }),
        Reply::Refused(why) => Reply::Refused(why),
    })
}

pub fn churn_clients() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    CHURN_CLIENTS.min(cores)
}

fn session_churn(seed: u64, seconds: f64, shape: Shape, tamper: bool) -> Result<Outcome, String> {
    let pool = scene::churn_pool(seed, shape);
    let setup_s = cold_opens(&scene::churn_setup_spec(seed, shape))?;
    // No warm-up: the LUT cache starts empty and the window sees its
    // steady state of misses and evictions from the first cycles on.
    let server = bind()?;
    let (start, cpu0) = window_start()?;
    let results: Vec<Result<Tally, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..churn_clients())
            .map(|c| {
                let (pool, server) = (&pool, &server);
                s.spawn(move || churn_client(server, pool, seed, c, start, seconds, tamper))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("churn client panicked".into()))
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds()? - cpu0;
    let mut tally = Tally::default();
    for result in results {
        tally.absorb(result?);
    }
    let specs_seen = tally.digests.len();
    let cache = server.lut_cache().stats();
    let mut outcome = finish(Workload::SessionChurn, tally, wall_s, cpu_s, &setup_s)?;
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    outcome.note(format!(
        "LUT cache over the window: {} lookups, {:.3} misses and {:.3} evictions per lookup",
        cache.hits + cache.misses,
        cache.misses as f64 / lookups,
        cache.evictions as f64 / lookups
    ));
    if outcome.correct {
        outcome.note(format!(
            "correctness: every reply had the expected type; every render of the \
             {specs_seen} specs served repeated that spec's first digest"
        ));
    }
    drop(server);
    Ok(outcome)
}

/// One closed-loop session-churn client until the window closes (at
/// least one cycle). Every render of a pool entry must repeat the digest
/// of its first render; with `tamper`, that first digest is kept
/// corrupted.
pub fn churn_client(
    server: &ServerHandle,
    pool: &[SessionSpec],
    seed: u64,
    client_index: usize,
    start: Instant,
    seconds: f64,
    tamper: bool,
) -> Result<Tally, String> {
    let mut client = connect(server)?;
    let mut stream = scene::churn_stream(seed, client_index);
    let mut tally = Tally::default();
    while tally.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        let i = stream.below(pool.len());
        tally.attempted += 1;
        let t0 = Instant::now();
        match cycle(&mut client, &pool[i]) {
            Ok(Reply::Done(done)) => {
                tally.record(t0);
                tally
                    .overhead_s
                    .push(done.render_s - done.wall_us as f64 * 1e-6);
                tally.frames += 1;
                tally.modeled_s += done.app_time_us as f64 * 1e-6;
                let first = tamper && !tally.digests.contains_key(&i);
                tally.repeat(i, if first { done.digest ^ 1 } else { done.digest });
            }
            Ok(Reply::Refused(why)) => tally.fail(why),
            Err(e) => {
                tally.fail(e.clone());
                tally.bad = Some(e);
                break;
            }
        }
    }
    Ok(tally)
}
