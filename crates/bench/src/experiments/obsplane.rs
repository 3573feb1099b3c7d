//! Observability plane benchmark: the exporter + flight-recorder
//! disabled-overhead gate, a seeded-fault post-mortem round-trip, and
//! the per-device utilization determinism sweep.
//!
//! Four legs:
//!
//! 1. **Overhead** — the headline frame stream (2^13 stars dense in a
//!    10° FOV at 1024×1024, the same shape `pipeline` measures) with the
//!    plane *off* (no sink, no sampling, no recording) and *on* in its
//!    worst case (utilization sink attached, a ring sample attempted and
//!    a flight entry recorded on **every** frame — production throttles
//!    to one sample per 250 ms). The on-path must cost ≤
//!    [`OVERHEAD_GATE_PCT`] of throughput.
//! 2. **Exposition** — an in-process `starsimd` is scraped over the wire;
//!    the exposition must parse back ([`parse_exposition`]) with the
//!    frame counter and instance labels intact, and a healthy server's
//!    SLOs must all be `ok`.
//! 3. **Flight recorder** — a seeded handler fault (the `panic_tenant`
//!    hook) must produce a `flight-*.json` post-mortem whose embedded
//!    Chrome trace parses and whose entries chain a server request id to
//!    the kernel-launch range it caused.
//! 4. **Utilization determinism** — the [`DeviceUtilization`] aggregate
//!    (occupancy, stall breakdown, cache hits, traffic) must be
//!    bit-identical across host worker counts for the same seed
//!    ([`DeviceUtilization::signature`] compares the raw bits).
//!
//! `BENCH_PR9.json` carries `overhead_pct`, `flight_dump_ok`,
//! `util_signature_match` and `gate_ok` (grepped by `scripts/ci.sh`).

use std::sync::Arc;

use gpusim::telemetry::now_us;
use gpusim::{DeviceSpec, DeviceUtilization, UtilizationSink, VirtualGpu};
use starsim_core::obsplane::parse_exposition;
use starsim_core::protocol::{Message, RejectCode, SessionSpec, SloState};
use starsim_core::server::{Client, ServerConfig, StarServer};
use starsim_core::telemetry::parse_json;
use starsim_core::{
    CancelToken, FlightEntry, FrameSequencer, MetricsRegistry, ObsPlane, PipelinedFrame,
};

use super::format::{write_json_object, Json, Table};
use super::pipeline::sequencer;
use super::Context;

/// The headline workload: 2^13 stars (the pipeline experiment's shape,
/// so the overhead is measured against the PR 8-era frame loop).
const HEADLINE_EXPONENT: u32 = 13;

/// Exporter + recorder throughput cost gate, percent.
const OVERHEAD_GATE_PCT: f64 = 3.0;

/// One leg's sustained throughput (best of `reps`, like `pipeline`).
struct Sustained {
    fps: f64,
    p99_ms: f64,
}

/// Runs `reps` bursts of `frames` through the frame loop with
/// `per_frame` on the observer hook and keeps the fastest pass. One
/// untimed warmup burst starts the pool and sizes the host buffers.
fn measure(
    seq: &mut FrameSequencer,
    frames: usize,
    reps: usize,
    mut per_frame: impl FnMut(&PipelinedFrame<'_>),
) -> Sustained {
    let token = CancelToken::new();
    let _ = seq
        .run_frames_observed(frames, &token, &mut per_frame)
        .expect("warmup burst");
    let mut best: Option<Sustained> = None;
    for _ in 0..reps.max(1) {
        let report = seq
            .run_frames_observed(frames, &token, &mut per_frame)
            .expect("measured burst");
        let pass = Sustained {
            fps: report.fps(),
            p99_ms: report.p99_ms,
        };
        if best.as_ref().is_none_or(|b| pass.fps > b.fps) {
            best = Some(pass);
        }
    }
    best.expect("reps >= 1")
}

/// The overhead leg's numbers plus the on-leg's scrape result.
struct OverheadLeg {
    off: Sustained,
    on: Sustained,
    overhead_pct: f64,
    ring_snapshots: u32,
    exposition_samples: usize,
    exposition_ok: bool,
}

fn overhead_leg(ctx: &Context, frames: usize, reps: usize, workers: usize) -> OverheadLeg {
    let stars = 1usize << HEADLINE_EXPONENT;
    let mut config = ctx.sim_config(1024, 1024, 10);
    config.workers = Some(workers);

    // Off: the plain frame loop, no sink, no sampling, no recorder.
    eprintln!("obsplane: overhead leg, plane off ({frames} frames) ...");
    let mut seq =
        sequencer(VirtualGpu::gtx480(), config.clone(), stars, ctx.seed).expect("off sequencer");
    let off = measure(&mut seq, frames, reps, |_| {});

    // On, worst case: utilization sink attached, and every frame bumps
    // counters, observes a latency histogram, attempts a ring sample
    // (period 0 — production throttles to 250 ms) and records a flight
    // entry. The flight-entry Strings are empty, so the per-frame hook
    // stays allocation-free.
    eprintln!("obsplane: overhead leg, plane on ({frames} frames) ...");
    let sink = Arc::new(UtilizationSink::new(&DeviceSpec::gtx480()));
    let gpu = VirtualGpu::gtx480().with_utilization(Arc::clone(&sink));
    let mut seq = sequencer(gpu, config, stars, ctx.seed).expect("on sequencer");
    let obs = ObsPlane::with_sample_period_us(0);
    let registry = MetricsRegistry::new();
    let mut request_id = 0u64;
    let on = measure(&mut seq, frames, reps, |frame| {
        request_id += 1;
        registry.counter_add("server.frames_rendered", 1);
        registry.observe("server.render_wall_ms", frame.timing.app_time_s * 1e3);
        obs.maybe_sample(&registry);
        obs.recorder().record(FlightEntry {
            t_us: now_us(),
            request_id,
            session: 1,
            tenant: String::new(),
            kind: "frame",
            frames: 1,
            launch_range: (0, sink.launches()),
            detail: String::new(),
        });
    });

    // The scrape itself (off the hot path) must round-trip.
    let labels = vec![("bench".to_string(), "obsplane".to_string())];
    let (ring_snapshots, exposition) = obs.scrape(&registry, &labels);
    let samples = parse_exposition(&exposition).unwrap_or_default();
    let exposition_ok = samples.iter().any(|s| {
        s.name == "starsim_server_frames_rendered"
            && s.value > 0.0
            && s.labels
                .iter()
                .any(|(k, v)| k == "bench" && v == "obsplane")
    });

    let overhead_pct = if off.fps > 0.0 {
        (1.0 - on.fps / off.fps) * 100.0
    } else {
        f64::INFINITY
    };
    OverheadLeg {
        off,
        on,
        overhead_pct,
        ring_snapshots,
        exposition_samples: samples.len(),
        exposition_ok,
    }
}

/// The server round-trip: wire scrape, SLO state, seeded fault, dump.
struct FlightLeg {
    wire_scrape_ok: bool,
    slo_state: SloState,
    flight_dumps: u64,
    dump_written: bool,
    trace_ok: bool,
    chain_ok: bool,
    utilization: DeviceUtilization,
}

fn flight_leg(ctx: &Context, quick: bool) -> FlightLeg {
    let flight_dir = ctx.out_path("flight");
    let _ = std::fs::remove_dir_all(&flight_dir);
    let config = ServerConfig {
        flight_dir: Some(flight_dir.clone()),
        panic_tenant: Some("chaos".into()),
        ..ServerConfig::default()
    };
    let handle = StarServer::bind("127.0.0.1:0", config).expect("bind obsplane server");
    let mut client = Client::connect(handle.addr()).expect("obsplane connect");
    let spec = SessionSpec {
        width: 192,
        height: 192,
        roi_side: 8,
        stars: if quick { 2_000 } else { 4_000 },
        seed: ctx.seed,
        backend: 0,
        tenant: "obsbench".into(),
    };
    let (session, _hit) = client.open_session(&spec).expect("open session");
    for _ in 0..2 {
        match client.render(session, 2, 0).expect("render request") {
            Message::RenderDone(done) => assert_eq!(done.completed, 2, "burst completes"),
            other => panic!("obsplane: unexpected render reply {other:?}"),
        }
    }

    // Wire scrape: the exposition parses back with the frame counter and
    // the instance labels the server stamps on.
    let (_snapshots, exposition) = client.metrics().expect("metrics scrape");
    let wire_scrape_ok = parse_exposition(&exposition).is_ok_and(|samples| {
        samples.iter().any(|s| {
            s.name == "starsim_server_frames_rendered"
                && s.value >= 4.0
                && s.labels.iter().any(|(k, v)| k == "device" && v == "gtx480")
        })
    });
    let (slo_state, _body) = client.alerts().expect("alerts request");

    // Seeded fault: the chaos tenant panics its handler; the server must
    // isolate it to an Internal reject and dump a post-mortem.
    match client.request(&Message::OpenSession(SessionSpec {
        tenant: "chaos".into(),
        ..spec
    })) {
        Ok(Message::Reject {
            code: RejectCode::Internal,
            ..
        }) => {}
        other => panic!("obsplane: seeded fault not isolated: {other:?}"),
    }
    let flight_dumps = handle.obs().recorder().dump_count();
    let utilization = handle.device_utilization();
    handle.shutdown();

    // The newest dump must be self-contained: entries chaining a request
    // id to its launch range, plus a parseable Chrome trace.
    let mut dumps: Vec<_> = std::fs::read_dir(&flight_dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".json"))
                })
                .collect()
        })
        .unwrap_or_default();
    dumps.sort();
    let (mut dump_written, mut trace_ok, mut chain_ok) = (false, false, false);
    if let Some(path) = dumps.last() {
        dump_written = true;
        if let Ok(doc) = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_json(&text).map_err(|e| e.to_string()))
        {
            trace_ok = doc
                .get("trace")
                .and_then(|t| t.get("traceEvents"))
                .and_then(|e| e.as_array())
                .is_some_and(|events| !events.is_empty());
            let entries = doc.get("entries").and_then(|e| e.as_array());
            let field = |entry: &starsim_core::telemetry::JsonValue, key: &str| -> f64 {
                entry.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
            };
            let kind_is = |entry: &starsim_core::telemetry::JsonValue, kind: &str| {
                entry.get("kind").and_then(|k| k.as_str()) == Some(kind)
            };
            chain_ok = entries.is_some_and(|entries| {
                let rendered = entries.iter().any(|e| {
                    kind_is(e, "render")
                        && field(e, "request_id") > 0.0
                        && field(e, "session") > 0.0
                        && field(e, "launch_past_last") > field(e, "launch_first")
                });
                let panicked = entries
                    .iter()
                    .any(|e| kind_is(e, "panic") && field(e, "request_id") > 0.0);
                rendered && panicked
            });
        }
    }
    FlightLeg {
        wire_scrape_ok,
        slo_state,
        flight_dumps,
        dump_written,
        trace_ok,
        chain_ok,
        utilization,
    }
}

/// Runs the same small frame stream under different host worker counts
/// and reports whether every [`DeviceUtilization::signature`] matches.
fn utilization_determinism(ctx: &Context) -> (bool, usize) {
    let mut signatures: Vec<String> = Vec::new();
    for &workers in &[1usize, 2, 15] {
        let sink = Arc::new(UtilizationSink::new(&DeviceSpec::gtx480()));
        let gpu = VirtualGpu::gtx480().with_utilization(Arc::clone(&sink));
        let mut config = ctx.sim_config(256, 256, 10);
        config.workers = Some(workers);
        let mut seq = sequencer(gpu, config, 1024, ctx.seed).expect("determinism sequencer");
        let _ = seq.run_frames(3).expect("determinism burst");
        signatures.push(sink.snapshot().signature());
    }
    let first = signatures.first().cloned().unwrap_or_default();
    let all_match = !first.is_empty() && signatures.iter().all(|s| *s == first);
    if !all_match {
        for (i, s) in signatures.iter().enumerate() {
            eprintln!("obsplane: WARNING: utilization signature [{i}]: {s}");
        }
    }
    (all_match, signatures.len())
}

/// Runs the four legs and writes `obsplane.csv` plus the
/// `BENCH_PR9.json` headline artefact.
pub fn run(ctx: &Context) -> Table {
    let frames = if ctx.quick { 6 } else { 24 };
    let reps = if ctx.quick { 2 } else { 3 };
    let workers = ctx
        .workers
        .unwrap_or(DeviceSpec::gtx480().sm_count as usize);

    let overhead = overhead_leg(ctx, frames, reps, workers);

    eprintln!("obsplane: flight-recorder leg (seeded fault over the wire) ...");
    let flight = flight_leg(ctx, ctx.quick);

    eprintln!("obsplane: utilization determinism sweep ...");
    let (util_signature_match, util_configs) = utilization_determinism(ctx);

    let overhead_ok = overhead.overhead_pct <= OVERHEAD_GATE_PCT;
    let slo_ok = flight.slo_state == SloState::Ok;
    let flight_dump_ok = flight.flight_dumps >= 1 && flight.dump_written;
    let gate_ok = overhead_ok
        && overhead.exposition_ok
        && flight.wire_scrape_ok
        && slo_ok
        && flight_dump_ok
        && flight.trace_ok
        && flight.chain_ok
        && util_signature_match;
    if !gate_ok {
        eprintln!(
            "obsplane: WARNING: gate failed — overhead {:.2}% (need <= {OVERHEAD_GATE_PCT}%), \
             exposition {} wire {} slo {} dump {} trace {} chain {} util {}",
            overhead.overhead_pct,
            overhead.exposition_ok,
            flight.wire_scrape_ok,
            flight.slo_state.name(),
            flight_dump_ok,
            flight.trace_ok,
            flight.chain_ok,
            util_signature_match
        );
    }

    let util = &flight.utilization;
    let mut t = Table::new(vec!["leg", "result", "detail"]);
    t.row(vec![
        "overhead".to_string(),
        format!("{:.2} -> {:.2} fps", overhead.off.fps, overhead.on.fps),
        format!(
            "{:+.2}% (gate <= {OVERHEAD_GATE_PCT}%)",
            overhead.overhead_pct
        ),
    ]);
    t.row(vec![
        "exposition".to_string(),
        format!(
            "{} samples / {} snapshots",
            overhead.exposition_samples, overhead.ring_snapshots
        ),
        format!(
            "wire ok {}, slo {}",
            flight.wire_scrape_ok,
            flight.slo_state.name()
        ),
    ]);
    t.row(vec![
        "flight".to_string(),
        format!("{} dumps", flight.flight_dumps),
        format!("trace {} chain {}", flight.trace_ok, flight.chain_ok),
    ]);
    t.row(vec![
        "utilization".to_string(),
        format!(
            "occ {:.3} busy {:.3} tex {:.3}",
            util.occupancy_mean(),
            util.sm_busy_fraction(),
            util.tex_hit_rate()
        ),
        format!("signature match {util_signature_match} ({util_configs} worker counts)"),
    ]);
    let _ = t.write_csv(&ctx.out_path("obsplane.csv"));

    let _ = write_json_object(
        &ctx.out_path("BENCH_PR9.json"),
        &[
            (
                "workload",
                Json::Str(format!("dense/2^{HEADLINE_EXPONENT} @1024")),
            ),
            ("frames", Json::Int(frames as u64)),
            ("workers", Json::Int(workers as u64)),
            ("off_fps", Json::f3(overhead.off.fps)),
            ("off_p99_ms", Json::f3(overhead.off.p99_ms)),
            ("on_fps", Json::f3(overhead.on.fps)),
            ("on_p99_ms", Json::f3(overhead.on.p99_ms)),
            ("overhead_pct", Json::f3(overhead.overhead_pct)),
            ("overhead_gate_pct", Json::f3(OVERHEAD_GATE_PCT)),
            (
                "ring_snapshots",
                Json::Int(u64::from(overhead.ring_snapshots)),
            ),
            (
                "exposition_samples",
                Json::Int(overhead.exposition_samples as u64),
            ),
            ("exposition_ok", Json::Bool(overhead.exposition_ok)),
            ("wire_scrape_ok", Json::Bool(flight.wire_scrape_ok)),
            ("slo_state", Json::Str(flight.slo_state.name().into())),
            ("flight_dumps", Json::Int(flight.flight_dumps)),
            ("trace_ok", Json::Bool(flight.trace_ok)),
            ("chain_ok", Json::Bool(flight.chain_ok)),
            ("util_launches", Json::Int(util.launches)),
            ("util_occupancy_mean", Json::f3(util.occupancy_mean())),
            ("util_sm_busy_fraction", Json::f3(util.sm_busy_fraction())),
            ("util_tex_hit_rate", Json::f3(util.tex_hit_rate())),
            (
                "util_memory_traffic_mb",
                Json::f3(util.memory_traffic_bytes() as f64 / (1024.0 * 1024.0)),
            ),
            ("util_configs", Json::Int(util_configs as u64)),
            ("util_signature_match", Json::Bool(util_signature_match)),
            ("overhead_ok", Json::Bool(overhead_ok)),
            ("slo_ok", Json::Bool(slo_ok)),
            ("flight_dump_ok", Json::Bool(flight_dump_ok)),
            ("gate_ok", Json::Bool(gate_ok)),
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obsplane_runs_quick_and_writes_artefacts() {
        let dir = std::env::temp_dir().join("starsim_obsplane_bench");
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = Context {
            quick: true,
            out_dir: dir.clone(),
            // Keep the smoke cheap; the full SM-wide fan-out is the real
            // bench run's job.
            workers: Some(2),
            ..Default::default()
        };
        let t = run(&ctx);
        assert_eq!(t.len(), 4, "four legs");
        let json = std::fs::read_to_string(dir.join("BENCH_PR9.json")).unwrap();
        for key in [
            "off_fps",
            "on_fps",
            "overhead_pct",
            "exposition_ok",
            "wire_scrape_ok",
            "slo_state",
            "flight_dumps",
            "trace_ok",
            "chain_ok",
            "util_signature_match",
            "overhead_ok",
            "flight_dump_ok",
            "gate_ok",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Correctness gates must hold even in a debug-profile smoke run:
        // the exposition round-trips, the seeded fault dumps a chained
        // post-mortem, and utilization is worker-count invariant. (The
        // overhead gate is only meaningful under --release; scripts/ci.sh
        // asserts the full gate_ok there.)
        assert!(json.contains("\"exposition_ok\": true"), "{json}");
        assert!(json.contains("\"wire_scrape_ok\": true"), "{json}");
        assert!(json.contains("\"flight_dump_ok\": true"), "{json}");
        assert!(json.contains("\"trace_ok\": true"), "{json}");
        assert!(json.contains("\"chain_ok\": true"), "{json}");
        assert!(json.contains("\"util_signature_match\": true"), "{json}");
        assert!(json.contains("\"slo_ok\": true"), "{json}");
        assert!(dir.join("obsplane.csv").exists());
    }
}
