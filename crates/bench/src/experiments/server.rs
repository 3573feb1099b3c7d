//! Server loadgen: `starsimd` under N concurrent closed-loop clients.
//!
//! Three legs against one in-process [`StarServer`]:
//!
//! 1. **Uncontended** — a single client measures the baseline per-request
//!    p50/p99 and FPS.
//! 2. **Overload** — `4 × admission capacity` clients drive the server at
//!    well over sustainable demand. The admission gate must hold: depth
//!    stays bounded at capacity (no unbounded queueing, no OOM), excess
//!    demand is *rejected with a retry-after hint* rather than timed out,
//!    and the p99 of **admitted** requests stays within 2× the
//!    uncontended p99 — the latency protection that admission control
//!    buys.
//! 3. **Deadline** — tight `deadline_ms` budgets force mid-burst
//!    cancellation; the session then resumes the remaining frames and the
//!    final cumulative digest must equal an uninterrupted session's —
//!    deadline-cancelled bursts are bit-identically resumable.
//!
//! `BENCH_PR8.json` carries `reject_rate`, `deadline_miss_rate` and
//! `gate_ok` (grepped by `scripts/ci.sh`).

use std::time::{Duration, Instant};

use starsim_core::admission::AdmissionConfig;
use starsim_core::protocol::{Message, RejectCode, SessionSpec};
use starsim_core::server::{Client, ServerConfig, ServerHandle, StarServer};

use super::format::{write_json_object, Json, Table};
use super::Context;

/// Admitted-p99 protection gate: overload p99 over uncontended p99.
const P99_RATIO_GATE: f64 = 2.0;
/// Overload demand multiple over admission capacity.
const OVERLOAD_FACTOR: usize = 4;

/// Admission capacity the loadgen server runs with: the host's
/// *sustainable* render concurrency, which is 1 on any core count — a
/// single render burst already spreads across the available cores (the
/// kernel worker pool), so admitting a second concurrent burst just
/// time-slices both. Every admitted
/// request gets slower, which is exactly what the admitted-p99 gate
/// exists to forbid; capacity 1 keeps admitted work undegraded and
/// pushes all excess demand into rejects, where it belongs.
const SUSTAINABLE_CAPACITY: usize = 1;

fn spec(ctx: &Context, quick: bool, tenant: &str) -> SessionSpec {
    SessionSpec {
        width: if quick { 192 } else { 256 },
        height: if quick { 192 } else { 256 },
        roi_side: 8,
        stars: if quick { 4_000 } else { 8_000 },
        seed: ctx.seed,
        backend: ctx.backend as u8,
        tenant: tenant.into(),
    }
}

fn boot(ctx: &Context) -> ServerHandle {
    let config = ServerConfig {
        admission: AdmissionConfig {
            capacity: SUSTAINABLE_CAPACITY,
            retry_after_ms: if ctx.quick { 5 } else { 10 },
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    };
    StarServer::bind("127.0.0.1:0", config).expect("bind loadgen server")
}

/// Latencies (seconds) of one client's admitted requests, plus its
/// admission-reject count and frames completed.
struct ClientRun {
    latencies_s: Vec<f64>,
    rejects: u64,
    frames: u64,
    retry_honored: bool,
}

/// Closed loop: `requests` render requests of `frames` frames, backing
/// off on admission rejects by the server's retry-after hint, like a
/// well-behaved client. The latency of an admitted request counts from
/// its *admitted* send — backoff waits are the client's cost of the
/// server's latency protection and are reported separately as rejects.
fn closed_loop(
    addr: std::net::SocketAddr,
    spec: &SessionSpec,
    requests: usize,
    frames: u32,
) -> ClientRun {
    let mut client = Client::connect(addr).expect("loadgen connect");
    let (session, _hit) = client.open_session_with_backoff(spec);
    let mut run = ClientRun {
        latencies_s: Vec::with_capacity(requests),
        rejects: 0,
        frames: 0,
        retry_honored: true,
    };
    for _ in 0..requests {
        loop {
            let start = Instant::now();
            match client.render(session, frames, 0).expect("render request") {
                Message::RenderDone(done) => {
                    run.latencies_s.push(start.elapsed().as_secs_f64());
                    run.frames += u64::from(done.completed);
                    break;
                }
                Message::Reject {
                    code: RejectCode::Saturated,
                    retry_after_ms,
                    ..
                } => {
                    run.rejects += 1;
                    if retry_after_ms == 0 {
                        run.retry_honored = false; // a reject without a hint
                    }
                    std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                }
                other => panic!("loadgen: unexpected reply {other:?}"),
            }
        }
    }
    run
}

/// Backoff-aware open: session opens also pass the admission gate, so an
/// overloaded boot phase can see saturated rejects too.
trait OpenWithBackoff {
    fn open_session_with_backoff(&mut self, spec: &SessionSpec) -> (u64, bool);
}

impl OpenWithBackoff for Client {
    fn open_session_with_backoff(&mut self, spec: &SessionSpec) -> (u64, bool) {
        loop {
            match self
                .request(&Message::OpenSession(spec.clone()))
                .expect("open request")
            {
                Message::SessionOpen {
                    session,
                    lut_cache_hit,
                } => return (session, lut_cache_hit),
                Message::Reject {
                    code: RejectCode::Saturated,
                    retry_after_ms,
                    ..
                } => std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1)))),
                other => panic!("loadgen: unexpected open reply {other:?}"),
            }
        }
    }
}

/// Nearest-rank percentile of unsorted latencies, milliseconds.
fn percentile_ms(latencies_s: &[f64], q: f64) -> f64 {
    if latencies_s.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] * 1e3
}

/// The deadline leg: force a mid-burst deadline miss, resume, and compare
/// the cumulative digest against an uninterrupted session.
struct DeadlineLeg {
    requests: u64,
    misses: u64,
    resume_identical: bool,
}

fn deadline_leg(
    addr: std::net::SocketAddr,
    spec: &SessionSpec,
    frames: u32,
    per_frame_ms: f64,
) -> DeadlineLeg {
    let mut client = Client::connect(addr).expect("deadline connect");

    // The uninterrupted reference digest.
    let (reference, _) = client.open_session_with_backoff(spec);
    let reference_digest = match client
        .render(reference, frames, 0)
        .expect("reference render")
    {
        Message::RenderDone(done) => done.digest,
        other => panic!("deadline leg: unexpected reference reply {other:?}"),
    };

    let mut leg = DeadlineLeg {
        requests: 0,
        misses: 0,
        resume_identical: false,
    };
    // Shrink the budget until a burst actually misses: start around three
    // frames' worth and halve. Fast hosts need the lower budgets; the
    // floor of 1 ms cuts any burst whose frames cost ≳ 0.1 ms.
    let mut budget_ms = (per_frame_ms * 3.0).max(2.0);
    for _ in 0..8 {
        let (session, _) = client.open_session_with_backoff(spec);
        leg.requests += 1;
        let done = match client
            .render(session, frames, budget_ms.max(1.0) as u32)
            .expect("deadline render")
        {
            Message::RenderDone(done) => done,
            Message::Reject { .. } => {
                // Transient saturation: give the session back (the
                // connection's session limit is finite) and retry fresh.
                let _ = client.close_session(session);
                continue;
            }
            other => panic!("deadline leg: unexpected reply {other:?}"),
        };
        if !done.deadline_missed || done.completed == 0 {
            // Completed inside the budget (or cut before frame one):
            // adjust and try a fresh session.
            if done.deadline_missed {
                leg.misses += 1;
                budget_ms *= 2.0; // cut too early — allow some progress
            } else {
                budget_ms /= 2.0; // too generous — tighten
            }
            let _ = client.close_session(session);
            continue;
        }
        // A genuine mid-burst miss: resume the remaining frames with no
        // deadline and compare the final cumulative digest.
        leg.misses += 1;
        let remaining = frames - done.completed;
        let resumed = match client.render(session, remaining, 0).expect("resume render") {
            Message::RenderDone(done) => done,
            other => panic!("deadline leg: unexpected resume reply {other:?}"),
        };
        leg.resume_identical = resumed.completed == remaining && resumed.digest == reference_digest;
        let _ = client.close_session(session);
        break;
    }
    leg
}

/// Runs the three legs and writes `server_loadgen.csv` plus the
/// `BENCH_PR8.json` headline artefact.
pub fn run(ctx: &Context) -> Table {
    let handle = boot(ctx);
    let addr = handle.addr();
    let capacity = handle.admission().config().capacity;
    // Quick mode shrinks the *frame*, not the sample count: the p99
    // ratio gate needs enough admitted samples (and requests that cost
    // a few ms each) or scheduler noise dominates the percentile.
    let frames: u32 = 8;
    let requests = 10;

    // Leg 1: uncontended baseline.
    eprintln!("server: uncontended leg (1 client, {requests} requests x {frames} frames) ...");
    let base_spec = spec(ctx, ctx.quick, "baseline");
    let t0 = Instant::now();
    let baseline = closed_loop(addr, &base_spec, requests, frames);
    let baseline_elapsed = t0.elapsed().as_secs_f64();
    let uncontended_p50 = percentile_ms(&baseline.latencies_s, 50.0);
    let uncontended_p99 = percentile_ms(&baseline.latencies_s, 99.0);
    let uncontended_fps = baseline.frames as f64 / baseline_elapsed;

    // Leg 2: overload at OVERLOAD_FACTOR × capacity concurrent clients.
    let clients = capacity * OVERLOAD_FACTOR;
    eprintln!("server: overload leg ({clients} clients, capacity {capacity}) ...");
    let t0 = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let tenant = format!("tenant-{}", i % 3); // a few tenants share the cache
                let client_spec = spec(ctx, ctx.quick, &tenant);
                scope.spawn(move || closed_loop(addr, &client_spec, requests, frames))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let overload_elapsed = t0.elapsed().as_secs_f64();
    let admitted_latencies: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.latencies_s.iter().copied())
        .collect();
    let rejects: u64 = runs.iter().map(|r| r.rejects).sum();
    let admitted = admitted_latencies.len() as u64;
    let total_frames: u64 = runs.iter().map(|r| r.frames).sum();
    let retry_honored = runs.iter().all(|r| r.retry_honored);
    let admitted_p50 = percentile_ms(&admitted_latencies, 50.0);
    let admitted_p99 = percentile_ms(&admitted_latencies, 99.0);
    let aggregate_fps = total_frames as f64 / overload_elapsed;
    let reject_rate = rejects as f64 / (rejects + admitted).max(1) as f64;
    let stats = handle.admission().stats();
    let depth_bounded = stats.depth <= stats.capacity;

    // Leg 3: deadline budgets + resumability.
    eprintln!("server: deadline leg ...");
    let per_frame_ms = uncontended_p50 / f64::from(frames.max(1));
    let deadline = deadline_leg(
        addr,
        &spec(ctx, ctx.quick, "deadline"),
        frames * 2,
        per_frame_ms,
    );
    let deadline_miss_rate = deadline.misses as f64 / deadline.requests.max(1) as f64;

    let lut_tenants = handle.lut_cache().tenant_stats().len() as u64;
    let shed_level = handle.admission().shed_level();
    handle.shutdown();

    // Gates. Overload must shed (rejects observed, with hints, depth
    // bounded), admitted latency must stay protected, and a
    // deadline-cancelled burst must have resumed bit-identically.
    let p99_ratio = if uncontended_p99 > 0.0 {
        admitted_p99 / uncontended_p99
    } else {
        f64::INFINITY
    };
    let reject_ok = rejects > 0 && retry_honored;
    let p99_ok = p99_ratio <= P99_RATIO_GATE;
    let deadline_ok = deadline.misses > 0 && deadline.resume_identical;
    let gate_ok = reject_ok && p99_ok && deadline_ok && depth_bounded;
    if !gate_ok {
        eprintln!(
            "server: WARNING: gate failed — rejects {rejects} (hint honored {retry_honored}), \
             p99 ratio {p99_ratio:.2} (need <= {P99_RATIO_GATE}), deadline misses \
             {} (resume identical {}), depth bounded {depth_bounded}",
            deadline.misses, deadline.resume_identical
        );
    }

    let mut t = Table::new(vec!["leg", "fps", "p50_ms", "p99_ms", "rejects"]);
    t.row(vec![
        "uncontended".to_string(),
        format!("{uncontended_fps:.2}"),
        format!("{uncontended_p50:.3}"),
        format!("{uncontended_p99:.3}"),
        format!("{}", baseline.rejects),
    ]);
    t.row(vec![
        format!("overload x{OVERLOAD_FACTOR} ({clients} clients)"),
        format!("{aggregate_fps:.2}"),
        format!("{admitted_p50:.3}"),
        format!("{admitted_p99:.3}"),
        format!("{rejects}"),
    ]);
    t.row(vec![
        "deadline".to_string(),
        String::new(),
        format!("misses {}", deadline.misses),
        format!("resume_ok {}", deadline.resume_identical),
        String::new(),
    ]);
    let _ = t.write_csv(&ctx.out_path("server_loadgen.csv"));

    let _ = write_json_object(
        &ctx.out_path("BENCH_PR8.json"),
        &[
            ("capacity", Json::Int(capacity as u64)),
            ("clients", Json::Int(clients as u64)),
            ("requests_per_client", Json::Int(requests as u64)),
            ("frames_per_request", Json::Int(u64::from(frames))),
            ("uncontended_fps", Json::f3(uncontended_fps)),
            ("uncontended_p50_ms", Json::f3(uncontended_p50)),
            ("uncontended_p99_ms", Json::f3(uncontended_p99)),
            ("aggregate_fps", Json::f3(aggregate_fps)),
            ("admitted_p50_ms", Json::f3(admitted_p50)),
            ("admitted_p99_ms", Json::f3(admitted_p99)),
            ("p99_ratio", Json::f3(p99_ratio)),
            ("p99_ratio_gate", Json::f3(P99_RATIO_GATE)),
            ("admitted", Json::Int(admitted)),
            ("rejected", Json::Int(rejects)),
            ("reject_rate", Json::f3(reject_rate)),
            ("retry_after_honored", Json::Bool(retry_honored)),
            ("depth_bounded", Json::Bool(depth_bounded)),
            ("shed_level", Json::Str(shed_level.name().into())),
            ("lut_tenants", Json::Int(lut_tenants)),
            ("deadline_requests", Json::Int(deadline.requests)),
            ("deadline_misses", Json::Int(deadline.misses)),
            ("deadline_miss_rate", Json::f3(deadline_miss_rate)),
            ("resume_identical", Json::Bool(deadline.resume_identical)),
            ("reject_ok", Json::Bool(reject_ok)),
            ("p99_ok", Json::Bool(p99_ok)),
            ("deadline_ok", Json::Bool(deadline_ok)),
            ("gate_ok", Json::Bool(gate_ok)),
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_loadgen_runs_quick_and_writes_artefacts() {
        let dir = std::env::temp_dir().join("starsim_server_bench");
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = Context {
            quick: true,
            out_dir: dir.clone(),
            ..Default::default()
        };
        let t = run(&ctx);
        assert_eq!(t.len(), 3, "three legs");
        let json = std::fs::read_to_string(dir.join("BENCH_PR8.json")).unwrap();
        for key in [
            "uncontended_p99_ms",
            "aggregate_fps",
            "admitted_p99_ms",
            "p99_ratio",
            "reject_rate",
            "retry_after_honored",
            "depth_bounded",
            "deadline_miss_rate",
            "resume_identical",
            "gate_ok",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Correctness gates must hold even in a debug-profile smoke run:
        // overload sheds with hints, depth stays bounded, and the
        // deadline-cut burst resumed bit-identically. (The p99 latency
        // gate is only meaningful under --release; scripts/ci.sh asserts
        // the full gate_ok there.)
        assert!(json.contains("\"retry_after_honored\": true"), "{json}");
        assert!(json.contains("\"depth_bounded\": true"), "{json}");
        assert!(json.contains("\"resume_identical\": true"), "{json}");
        assert!(dir.join("server_loadgen.csv").exists());
    }
}
