//! End-to-end telemetry contract: spans nest, the span tree is
//! deterministic for a fixed seed, LutCache stats surface through the
//! session, the throughput report carries device diagnostics, and the
//! exported Chrome trace parses back with the expected shape — at every
//! worker count of [`worker_counts`].

use std::sync::Arc;

use starsim::field::FieldGenerator;
use starsim::gpu::VirtualGpu;
use starsim::sim::telemetry::{chrome_trace_json, parse_json, JsonValue, Telemetry};
use starsim::sim::{AdaptiveSession, LutCache, LutSource, SessionSetup, SimConfig};

/// One worker (no pool lanes), two, the host's cores, and one per SM of
/// the GTX480.
fn worker_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1, 2, cores.min(15), 15];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn cfg(workers: usize) -> SimConfig {
    let mut c = SimConfig::new(128, 128, 10);
    c.workers = Some(workers);
    c
}

/// A fully instrumented session on `workers` workers whose table goes
/// through `cache`.
fn traced_session(cache: &LutCache, telemetry: &Arc<Telemetry>, workers: usize) -> AdaptiveSession {
    let setup = SessionSetup {
        lut: LutSource::Cached(cache),
        telemetry: Some(Arc::clone(telemetry)),
        ..SessionSetup::default()
    };
    AdaptiveSession::open(VirtualGpu::gtx480(), cfg(workers), setup).expect("session")
}

/// Renders `frames` frames on a fully instrumented session and returns
/// the sink.
fn traced_run(frames: usize, seed: u64, workers: usize) -> Arc<Telemetry> {
    let telemetry = Telemetry::new();
    let cache = LutCache::new();
    let session = traced_session(&cache, &telemetry, workers);
    let cat = FieldGenerator::new(128, 128).generate(150, seed);
    let mut host = Vec::new();
    for _ in 0..frames {
        let _frame = telemetry.span("frame");
        session.render_into(&cat, &mut host).expect("frame");
    }
    telemetry
}

#[test]
fn spans_nest_under_the_frame_and_setup_roots() {
    for workers in worker_counts() {
        let t = traced_run(2, 7, workers);
        let sig = t.span_tree_signature();
        // Setup: session-setup > {lut-build, texture-bind}.
        assert!(sig.contains(&("", "session-setup", 1)), "sig: {sig:?}");
        assert!(sig.contains(&("session-setup", "lut-build", 1)));
        assert!(sig.contains(&("session-setup", "texture-bind", 1)));
        // Frames: frame > {star-upload, render > attempt-configured >
        // {kernel-launch, download}}.
        assert!(sig.contains(&("", "frame", 2)));
        assert!(sig.contains(&("frame", "star-upload", 2)));
        assert!(sig.contains(&("frame", "render", 2)));
        assert!(sig.contains(&("render", "attempt-configured", 2)));
        assert!(sig.contains(&("attempt-configured", "kernel-launch", 2)));
        assert!(sig.contains(&("attempt-configured", "download", 2)));
    }
}

#[test]
fn same_seed_runs_produce_the_same_span_tree() {
    let first = traced_run(3, 42, 1).span_tree_signature();
    for workers in worker_counts() {
        let a = traced_run(3, 42, workers).span_tree_signature();
        let b = traced_run(3, 42, workers).span_tree_signature();
        assert_eq!(a, b, "span tree must be structurally deterministic");
        assert_eq!(
            a, first,
            "workers {workers}: span tree depends on the worker count"
        );
    }
}

#[test]
fn session_surfaces_cache_stats_and_diagnostics() {
    for workers in worker_counts() {
        let cache = LutCache::new();
        let t = Telemetry::new();
        let cold = traced_session(&cache, &t, workers);
        let _warm = traced_session(&cache, &t, workers);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert_eq!((stats.len, stats.capacity), (1, LutCache::DEFAULT_CAPACITY));
        assert_eq!(t.metrics().counter("lut_cache.hits"), 1);
        assert_eq!(t.metrics().counter("lut_cache.misses"), 1);
        // A healthy session reports all-zero device diagnostics.
        assert_eq!(cold.diagnostics(), starsim::gpu::GpuDiagnostics::default());
    }
}

#[test]
fn exported_trace_is_valid_chrome_trace_json_with_gpu_rows() {
    for workers in worker_counts() {
        exported_trace_checks(workers);
    }
}

/// One traced run on `workers` workers exports a Chrome trace with host
/// spans, one GPU launch row per frame, and — when the launch publishes
/// to pool lanes (two or more workers) — lane instants.
fn exported_trace_checks(workers: usize) {
    let t = traced_run(2, 11, workers);
    let text = chrome_trace_json(&t);
    let doc = parse_json(&text).expect("trace must parse");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut host_spans = 0usize;
    let mut gpu_launches = 0usize;
    let mut lane_instants = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        let pid = e.get("pid").and_then(JsonValue::as_f64).unwrap_or(0.0);
        match (ph, pid as u64) {
            ("X", 1) => host_spans += 1,
            ("X", 2) => {
                let name = e.get("name").and_then(JsonValue::as_str).unwrap_or("");
                if name.starts_with("gpu:") {
                    gpu_launches += 1;
                }
            }
            ("i", 2) => lane_instants += 1,
            _ => {}
        }
        // Every non-metadata event carries a numeric timestamp.
        if ph != "M" {
            assert!(e.get("ts").and_then(JsonValue::as_f64).is_some(), "{e:?}");
        }
    }
    assert!(host_spans >= 10, "2 frames x >=5 spans, got {host_spans}");
    assert_eq!(gpu_launches, 2, "one traced launch per frame");
    assert_eq!(
        lane_instants > 0,
        workers > 1,
        "workers {workers}: lane rings contribute instants iff lanes run"
    );
}
