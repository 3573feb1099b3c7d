//! End-to-end tracing and metrics for the frame pipeline.
//!
//! Three layers (DESIGN.md §10):
//!
//! 1. **Spans** ([`span`]) — RAII guards recording named, nested
//!    wall-clock intervals (`session-setup` > `lut-build`, `render` >
//!    `kernel-launch`, …) on a shared [`Telemetry`] sink;
//! 2. **Device traces** — the sink owns a [`gpusim::GpuTelemetry`]
//!    shared with the `VirtualGpu`, which records one
//!    [`gpusim::LaunchTrace`] per launch (dispatch/merge windows plus
//!    the per-lane events drained from the worker pool's rings);
//! 3. **Metrics and export** ([`metrics`], [`chrome`]) — counters,
//!    gauges and histograms summarized into a [`FrameTelemetry`]
//!    report, and a Chrome trace-event JSON exporter whose output loads
//!    in Perfetto / `chrome://tracing`.
//!
//! Everything is opt-in: sessions without an attached sink skip all
//! recording (`Option<&Arc<Telemetry>>` checks only), and the bench's
//! `trace` experiment holds the overhead gate at ≤ 3% on the headline
//! throughput workload.

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod span;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gpusim::telemetry::now_us;
use gpusim::{GpuTelemetry, LaunchTrace};

pub use chrome::{chrome_trace_json, write_chrome_trace};
pub use json::{parse as parse_json, JsonValue};
pub use metrics::{HistogramSummary, MetricsRegistry};
pub use span::{maybe_span, SpanGuard, SpanRecord};

/// Bound on retained span records (a frame records ~10 spans, so this
/// covers >100k frames between exports; beyond it spans are dropped and
/// counted, never reallocated unboundedly).
const SPAN_CAPACITY: usize = 1 << 20;

/// The host-side telemetry sink: spans + metrics + the shared device
/// sink. Cheap to share (`Arc`); all methods take `&self`.
pub struct Telemetry {
    spans: Mutex<Vec<SpanRecord>>,
    dropped_spans: AtomicU64,
    metrics: MetricsRegistry,
    gpu: Arc<GpuTelemetry>,
    /// Launch traces drained from the device sink, retained for export.
    gpu_launches: Mutex<Vec<LaunchTrace>>,
    /// Sink creation time (epoch-relative), the export time origin.
    created_us: u64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("spans", &self.spans.lock().map(|s| s.len()).unwrap_or(0))
            .field("metrics", &self.metrics)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A fresh sink (wrapped in `Arc`: spans clone the handle).
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<Self> {
        Arc::new(Telemetry {
            spans: Mutex::new(Vec::new()),
            dropped_spans: AtomicU64::new(0),
            metrics: MetricsRegistry::new(),
            gpu: Arc::new(GpuTelemetry::new()),
            gpu_launches: Mutex::new(Vec::new()),
            created_us: now_us(),
        })
    }

    /// Opens a span named `name`; the returned guard records the span
    /// when dropped, nested under any span already open on this thread.
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        SpanGuard::open(Arc::clone(self), name)
    }

    /// The metrics registry (counters / gauges / histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The device-side sink to attach to a `VirtualGpu`
    /// ([`gpusim::VirtualGpu::with_telemetry`]). Shares this sink's
    /// timeline, so host spans and device traces merge into one trace.
    pub fn gpu_sink(&self) -> Arc<GpuTelemetry> {
        Arc::clone(&self.gpu)
    }

    /// Sink creation time, microseconds since the process epoch.
    pub fn created_us(&self) -> u64 {
        self.created_us
    }

    pub(crate) fn record_span(&self, record: SpanRecord) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if spans.len() < SPAN_CAPACITY {
            spans.push(record);
        } else {
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// All recorded spans, in completion order.
    pub fn snapshot_spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Spans dropped because the retention bound was hit.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans.load(Ordering::Relaxed)
    }

    /// Moves launches recorded by the device since the last call into
    /// this sink's retained list, then returns a snapshot of all of
    /// them (launch order).
    pub fn snapshot_gpu_launches(&self) -> Vec<LaunchTrace> {
        let mut retained = self.gpu_launches.lock().unwrap_or_else(|e| e.into_inner());
        retained.extend(self.gpu.take_launches());
        retained.clone()
    }

    /// The per-stage span tree signature: `(parent_name, name, count)`
    /// tuples in deterministic order. Two runs over the same seed and
    /// config produce the same signature even though every timestamp
    /// differs — the determinism contract the telemetry tests pin.
    pub fn span_tree_signature(&self) -> Vec<(&'static str, &'static str, usize)> {
        let spans = self.snapshot_spans();
        let name_of = |id: u64| -> &'static str {
            if id == 0 {
                return "";
            }
            spans
                .iter()
                .find(|s| s.id == id)
                .map(|s| s.name)
                .unwrap_or("")
        };
        let mut counts: std::collections::BTreeMap<(&'static str, &'static str), usize> =
            std::collections::BTreeMap::new();
        for s in &spans {
            *counts.entry((name_of(s.parent), s.name)).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|((parent, name), count)| (parent, name, count))
            .collect()
    }

    /// Summarizes everything recorded so far into a [`FrameTelemetry`]
    /// report (does not drain spans or metrics; device launches are
    /// synced into the retained list).
    pub fn frame_telemetry(&self) -> FrameTelemetry {
        let spans = self.snapshot_spans();
        let launches = self.snapshot_gpu_launches();

        // Per-stage duration summaries, stage = span name.
        let mut by_name: std::collections::BTreeMap<&'static str, Vec<f64>> =
            std::collections::BTreeMap::new();
        for s in &spans {
            by_name
                .entry(s.name)
                .or_default()
                .push(s.duration_us() as f64);
        }
        let stages = by_name
            .into_iter()
            .map(|(name, mut durs)| {
                durs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                StageStats {
                    name,
                    count: durs.len(),
                    p50_us: metrics::percentile(&durs, 50.0) as u64,
                    p99_us: metrics::percentile(&durs, 99.0) as u64,
                    total_us: durs.iter().sum::<f64>() as u64,
                }
            })
            .collect();

        FrameTelemetry {
            spans_recorded: spans.len(),
            spans_dropped: self.dropped_spans(),
            stages,
            gpu_launches: launches.len(),
            lane_events: launches.iter().map(|l| l.lane_events.len()).sum(),
            lane_events_dropped: launches.last().map_or(0, |l| l.events_dropped),
            counters: self
                .metrics
                .counters()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            gauges: self
                .metrics
                .gauges()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            histograms: self
                .metrics
                .histograms()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        }
    }
}

/// Per-stage wall-clock summary (one span name = one stage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Stage (span) name.
    pub name: &'static str,
    /// Spans recorded under this name.
    pub count: usize,
    /// Nearest-rank p50 duration, microseconds.
    pub p50_us: u64,
    /// Nearest-rank p99 duration, microseconds.
    pub p99_us: u64,
    /// Total time in this stage, microseconds.
    pub total_us: u64,
}

/// The telemetry section of a `ThroughputReport`: everything the sink
/// aggregated over a frame run, ready for human-readable printing or
/// structured comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FrameTelemetry {
    /// Spans recorded (post-drop).
    pub spans_recorded: usize,
    /// Spans dropped at the retention bound.
    pub spans_dropped: u64,
    /// Per-stage duration summaries, stage-name order.
    pub stages: Vec<StageStats>,
    /// Device launches traced.
    pub gpu_launches: usize,
    /// Per-lane events captured across all launches.
    pub lane_events: usize,
    /// Ring-overflow drops observed at the last drain.
    pub lane_events_dropped: u64,
    /// Counters, name order.
    pub counters: Vec<(String, u64)>,
    /// Gauges, name order.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, name order.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl FrameTelemetry {
    /// Renders the report as a human-readable table (the bench's
    /// `--metrics` output).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry: {} spans ({} dropped), {} gpu launches, {} lane events",
            self.spans_recorded, self.spans_dropped, self.gpu_launches, self.lane_events
        );
        let _ = writeln!(
            out,
            "  {:<18} {:>7} {:>10} {:>10} {:>12}",
            "stage", "count", "p50_us", "p99_us", "total_us"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<18} {:>7} {:>10} {:>10} {:>12}",
                s.name, s.count, s.p50_us, s.p99_us, s.total_us
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters:");
            for (n, v) in &self.counters {
                let _ = writeln!(out, "    {n:<28} {v}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "  gauges:");
            for (n, v) in &self.gauges {
                let _ = writeln!(out, "    {n:<28} {v}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "  histograms:");
            for (n, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "    {n:<28} n={} p50={:.3} p99={:.3} mean={:.3} max={:.3}",
                    h.count, h.p50, h.p99, h.mean, h.max
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_telemetry_summarizes_stages_and_metrics() {
        let t = Telemetry::new();
        for _ in 0..3 {
            let _f = t.span("frame");
            let _r = t.span("render");
        }
        t.metrics().counter_add("frames.rendered", 3);
        t.metrics().gauge_set("lut_cache.len", 2.0);
        t.metrics().observe("frame.wall_ms", 1.25);

        let ft = t.frame_telemetry();
        assert_eq!(ft.spans_recorded, 6);
        assert_eq!(ft.spans_dropped, 0);
        let frame = ft.stages.iter().find(|s| s.name == "frame").unwrap();
        assert_eq!(frame.count, 3);
        assert_eq!(ft.counters, vec![("frames.rendered".to_string(), 3)]);
        assert_eq!(ft.gauges, vec![("lut_cache.len".to_string(), 2.0)]);
        assert_eq!(ft.histograms.len(), 1);
        let rendered = ft.render();
        assert!(rendered.contains("frame"));
        assert!(rendered.contains("frames.rendered"));
    }

    #[test]
    fn span_tree_signature_is_structural() {
        let build = || {
            let t = Telemetry::new();
            {
                let _a = t.span("frame");
                let _b = t.span("render");
            }
            {
                let _a = t.span("frame");
                let _b = t.span("render");
            }
            t.span_tree_signature()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same structure, same signature");
        assert!(a.contains(&("", "frame", 2)));
        assert!(a.contains(&("frame", "render", 2)));
    }
}
