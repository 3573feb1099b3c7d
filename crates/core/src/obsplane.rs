//! The production observability plane (DESIGN.md §15).
//!
//! Four pillars, all std-only and allocation-free on the hot path:
//!
//! 1. **Time-series aggregation + exposition** — a fixed-capacity
//!    [`SeriesRing`] of periodic [`MetricsSnapshot`]s captured from the
//!    shared [`MetricsRegistry`], with counter deltas and per-second
//!    rates computed over the retained window, rendered as a
//!    Prometheus-style text [`expose`]-ition (and parsed back by
//!    [`parse_exposition`] for round-trip tests and smoke checks).
//! 2. **SLO engine** — declarative [`SloSpec`] objectives (p99 latency,
//!    ratio-over-window error rates, zero-tolerance counters) evaluated
//!    against the ring with fast/slow burn-rate thresholds, producing a
//!    fleet [`SloState`] and per-objective [`SloReport`]s.
//! 3. **Flight recorder** — an always-on bounded [`FlightRecorder`]
//!    black box of recent request/frame events that [`FlightRecorder::dump`]s
//!    a self-contained JSON post-mortem (entries + embedded Chrome
//!    trace) when something goes wrong.
//! 4. **The [`ObsPlane`] wrapper** — throttled sampling, scrape and
//!    alert entry points the server wires to the `Metrics`/`Alerts`
//!    protocol messages.
//!
//! Sampling is pull-through: nothing runs in the background. Request
//! handling calls [`ObsPlane::maybe_sample`], which is a single atomic
//! load unless the sample period has elapsed.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gpusim::telemetry::{delta_us, now_us};

use crate::protocol::SloState;
use crate::telemetry::{HistogramSummary, MetricsRegistry, Telemetry};

/// Default snapshots retained in the series ring (at the default
/// sample period this is a half-hour window).
pub const DEFAULT_RING_CAPACITY: usize = 360;
/// Default flight-recorder entries retained.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;
/// Default minimum microseconds between two ring samples.
pub const DEFAULT_SAMPLE_PERIOD_US: u64 = 250_000;

// ---------------------------------------------------------------------------
// Pillar 1: snapshots, the ring, exposition.
// ---------------------------------------------------------------------------

/// One point-in-time capture of a [`MetricsRegistry`]: every counter,
/// gauge and histogram summary, in name order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Capture time, microseconds on the shared telemetry clock.
    pub t_us: u64,
    /// Counters, name order.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges, name order.
    pub gauges: Vec<(&'static str, f64)>,
    /// Histogram summaries, name order.
    pub histograms: Vec<(&'static str, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Captures `registry` now.
    pub fn capture(registry: &MetricsRegistry) -> Self {
        MetricsSnapshot {
            t_us: now_us(),
            counters: registry.counters(),
            gauges: registry.gauges(),
            histograms: registry.histograms(),
        }
    }

    /// Counter value in this snapshot (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Histogram summary in this snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| *h)
    }
}

/// A fixed-capacity ring of [`MetricsSnapshot`]s, oldest evicted first.
pub struct SeriesRing {
    ring: Mutex<VecDeque<MetricsSnapshot>>,
    capacity: usize,
}

impl SeriesRing {
    /// An empty ring retaining at most `capacity` snapshots.
    pub fn new(capacity: usize) -> Self {
        SeriesRing {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(2),
        }
    }

    /// Appends `snapshot`, evicting the oldest at capacity.
    pub fn push(&self, snapshot: MetricsSnapshot) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(snapshot);
    }

    /// Retained snapshots, oldest first.
    pub fn snapshots(&self) -> Vec<MetricsSnapshot> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().cloned().collect()
    }

    /// Snapshots currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no snapshot has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Counter increase between the ring's window start and `latest`.
///
/// The baseline is the newest snapshot older than
/// `latest.t_us - window_us` (so the delta spans *at least* the window
/// when history allows), falling back to the oldest retained snapshot.
/// Counters are monotone; a smaller latest value (registry swapped out)
/// saturates to 0.
fn counter_delta(snaps: &[MetricsSnapshot], name: &str, window_us: u64) -> u64 {
    let Some(latest) = snaps.last() else { return 0 };
    let start = latest.t_us.saturating_sub(window_us);
    let baseline = snaps
        .iter()
        .rev()
        .find(|s| s.t_us <= start)
        .or_else(|| snaps.first());
    match baseline {
        Some(b) => latest.counter(name).saturating_sub(b.counter(name)),
        None => 0,
    }
}

/// Elapsed microseconds the delta in [`counter_delta`] actually spans.
fn delta_span_us(snaps: &[MetricsSnapshot], window_us: u64) -> u64 {
    let Some(latest) = snaps.last() else { return 0 };
    let start = latest.t_us.saturating_sub(window_us);
    let baseline = snaps
        .iter()
        .rev()
        .find(|s| s.t_us <= start)
        .or_else(|| snaps.first());
    baseline.map_or(0, |b| delta_us(b.t_us, latest.t_us))
}

/// Mangles a registry key into a Prometheus metric name:
/// `server.rejects.saturated` → `starsim_server_rejects_saturated`.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("starsim_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",...}` from the base labels plus an optional extra
/// (used for the `quantile` label); empty string when there are none.
fn render_labels(base: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if base.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in base {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Renders the ring's latest snapshot as Prometheus-style text, plus
/// per-second rate gauges derived from counter deltas over the whole
/// retained window. `labels` (the server attaches device, shed level,
/// rung floor and open sessions) are attached to every sample line.
pub fn expose(snaps: &[MetricsSnapshot], labels: &[(String, String)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(4096);
    let window_us = delta_span_us(snaps, u64::MAX / 4);
    let _ = writeln!(
        out,
        "# starsim exposition v1 snapshots={} window_us={}",
        snaps.len(),
        window_us
    );
    let Some(latest) = snaps.last() else {
        return out;
    };
    let plain = render_labels(labels, None);

    for (name, value) in &latest.counters {
        let m = metric_name(name);
        let _ = writeln!(out, "# TYPE {m} counter");
        let _ = writeln!(out, "{m}{plain} {value}");
        let delta = counter_delta(snaps, name, u64::MAX / 4);
        let rate = if window_us == 0 {
            0.0
        } else {
            delta as f64 / (window_us as f64 / 1e6)
        };
        let _ = writeln!(out, "# TYPE {m}_per_s gauge");
        let _ = writeln!(out, "{m}_per_s{plain} {rate}");
    }
    for (name, value) in &latest.gauges {
        let m = metric_name(name);
        let _ = writeln!(out, "# TYPE {m} gauge");
        let _ = writeln!(out, "{m}{plain} {value}");
    }
    for (name, h) in &latest.histograms {
        let m = metric_name(name);
        let _ = writeln!(out, "# TYPE {m} summary");
        for (q, v) in [("0.5", h.p50), ("0.99", h.p99), ("1", h.max)] {
            let ql = render_labels(labels, Some(("quantile", q)));
            let _ = writeln!(out, "{m}{ql} {v}");
        }
        let _ = writeln!(out, "{m}_count{plain} {}", h.count);
        let _ = writeln!(out, "{m}_sum{plain} {}", h.mean * h.count as f64);
    }
    out
}

/// One sample line parsed back out of an exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpositionSample {
    /// Full metric name (`starsim_...`).
    pub name: String,
    /// Labels in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Parses [`expose`] output back into samples (comments skipped).
/// Returns an error naming the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<ExpositionSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
        let (head, value_str) = match line.find('}') {
            Some(close) => {
                let (h, rest) = line.split_at(close + 1);
                (h, rest.trim())
            }
            None => line.split_once(' ').ok_or_else(|| bad("missing value"))?,
        };
        let (name, labels) = match head.split_once('{') {
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| bad("unterminated labels"))?;
                let mut labels = Vec::new();
                for pair in split_label_pairs(body) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| bad("label missing '='"))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| bad("label value not quoted"))?;
                    labels.push((k.to_string(), v.replace("\\\"", "\"").replace("\\\\", "\\")));
                }
                (name.to_string(), labels)
            }
            None => (head.trim().to_string(), Vec::new()),
        };
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(bad("bad metric name"));
        }
        let value: f64 = value_str
            .trim()
            .parse()
            .map_err(|_| bad("bad sample value"))?;
        samples.push(ExpositionSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Splits a label body on commas that are outside quoted values.
fn split_label_pairs(body: &str) -> Vec<&str> {
    let mut pairs = Vec::new();
    let mut start = 0;
    let mut in_quote = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_quote => escaped = !escaped,
            '"' if !escaped => in_quote = !in_quote,
            ',' if !in_quote => {
                pairs.push(&body[start..i]);
                start = i + 1;
                escaped = false;
            }
            _ => escaped = false,
        }
    }
    if start < body.len() {
        pairs.push(&body[start..]);
    }
    pairs
}

// ---------------------------------------------------------------------------
// Pillar 2: the SLO engine.
// ---------------------------------------------------------------------------

/// What an objective measures.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// Histogram p99 must stay at or under the budget (same unit as the
    /// histogram's observations).
    HistogramP99 {
        /// Registry histogram key.
        histogram: &'static str,
    },
    /// `num_delta / den_delta` over the window must stay at or under
    /// the budget (an error-rate objective).
    RatioDelta {
        /// Numerator counter key (the bad events).
        num: &'static str,
        /// Denominator counter key (all events).
        den: &'static str,
    },
    /// The counter must never increase — zero tolerance. Any nonzero
    /// total pages immediately, regardless of window.
    CounterZero {
        /// Registry counter key.
        counter: &'static str,
    },
}

/// One declarative objective with fast/slow burn-rate alerting: the
/// fast window catches sharp regressions (page), the slow window
/// catches sustained budget burn (warn).
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name (stable; appears in alert bodies).
    pub name: &'static str,
    /// What is measured.
    pub kind: SloKind,
    /// The budget: max allowed p99 / ratio. Ignored by `CounterZero`.
    pub budget: f64,
    /// Fast (paging) window, microseconds.
    pub fast_window_us: u64,
    /// Slow (warning) window, microseconds.
    pub slow_window_us: u64,
    /// Burn-rate threshold over the fast window that pages.
    pub fast_burn: f64,
    /// Burn-rate threshold over the slow window that warns.
    pub slow_burn: f64,
}

/// Per-objective evaluation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Objective name.
    pub name: &'static str,
    /// Alert state for this objective alone.
    pub state: SloState,
    /// Burn rate (measured / budget) over the fast window.
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
    /// One-line human-readable measurement.
    pub detail: String,
}

/// The starsimd fleet objectives from DESIGN.md §15: admitted p99
/// latency, deadline-miss rate, reject rate, and zero bit-identity
/// violations.
pub fn default_slos() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "admitted-p99-latency",
            kind: SloKind::HistogramP99 {
                histogram: "server.render_wall_ms",
            },
            budget: 250.0,
            fast_window_us: 60_000_000,
            slow_window_us: 600_000_000,
            fast_burn: 2.0,
            slow_burn: 1.0,
        },
        SloSpec {
            name: "deadline-miss-rate",
            kind: SloKind::RatioDelta {
                num: "server.deadline_misses",
                den: "server.renders",
            },
            budget: 0.05,
            fast_window_us: 60_000_000,
            slow_window_us: 600_000_000,
            fast_burn: 14.4,
            slow_burn: 3.0,
        },
        SloSpec {
            name: "reject-rate",
            kind: SloKind::RatioDelta {
                num: "server.rejected_total",
                den: "server.requests_total",
            },
            budget: 0.25,
            fast_window_us: 60_000_000,
            slow_window_us: 600_000_000,
            fast_burn: 3.0,
            slow_burn: 1.0,
        },
        SloSpec {
            name: "bit-identity-violations",
            kind: SloKind::CounterZero {
                counter: "server.bit_identity_violations",
            },
            budget: 0.0,
            fast_window_us: 60_000_000,
            slow_window_us: 600_000_000,
            fast_burn: 1.0,
            slow_burn: 1.0,
        },
    ]
}

/// Maximum histogram p99 across the snapshots inside `window_us`.
fn p99_over_window(snaps: &[MetricsSnapshot], name: &str, window_us: u64) -> f64 {
    let Some(latest) = snaps.last() else {
        return 0.0;
    };
    let start = latest.t_us.saturating_sub(window_us);
    snaps
        .iter()
        .filter(|s| s.t_us >= start)
        .filter_map(|s| s.histogram(name))
        .map(|h| h.p99)
        .fold(0.0, f64::max)
}

/// Evaluates every objective against the ring. The overall state is
/// the worst per-objective state.
pub fn evaluate_slos(slos: &[SloSpec], snaps: &[MetricsSnapshot]) -> (SloState, Vec<SloReport>) {
    let mut overall = SloState::Ok;
    let mut reports = Vec::with_capacity(slos.len());
    for slo in slos {
        let budget = if slo.budget > 0.0 { slo.budget } else { 1.0 };
        let (burn_fast, burn_slow, detail) = match &slo.kind {
            SloKind::HistogramP99 { histogram } => {
                let fast = p99_over_window(snaps, histogram, slo.fast_window_us);
                let slow = p99_over_window(snaps, histogram, slo.slow_window_us);
                (
                    fast / budget,
                    slow / budget,
                    format!("p99 fast={fast:.3} slow={slow:.3} budget={:.3}", slo.budget),
                )
            }
            SloKind::RatioDelta { num, den } => {
                let ratio = |window: u64| {
                    let n = counter_delta(snaps, num, window) as f64;
                    let d = counter_delta(snaps, den, window) as f64;
                    if d <= 0.0 {
                        0.0
                    } else {
                        n / d
                    }
                };
                let fast = ratio(slo.fast_window_us);
                let slow = ratio(slo.slow_window_us);
                (
                    fast / budget,
                    slow / budget,
                    format!(
                        "ratio fast={fast:.4} slow={slow:.4} budget={:.4}",
                        slo.budget
                    ),
                )
            }
            SloKind::CounterZero { counter } => {
                let total = snaps.last().map_or(0, |s| s.counter(counter));
                (
                    total as f64,
                    total as f64,
                    format!("total={total} (zero tolerance)"),
                )
            }
        };
        let state = if burn_fast >= slo.fast_burn {
            SloState::Page
        } else if burn_slow >= slo.slow_burn {
            SloState::Warn
        } else {
            SloState::Ok
        };
        overall = overall.max(state);
        reports.push(SloReport {
            name: slo.name,
            state,
            burn_fast,
            burn_slow,
            detail,
        });
    }
    (overall, reports)
}

/// Renders the evaluation as the `AlertsReply` JSON body.
pub fn alerts_json(overall: SloState, reports: &[SloReport]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256);
    let _ = write!(out, "{{\"state\":\"{}\",\"slos\":[", overall.name());
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"state\":\"{}\",\"burn_fast\":{:.6},\"burn_slow\":{:.6},\"detail\":\"{}\"}}",
            r.name,
            r.state.name(),
            r.burn_fast,
            r.burn_slow,
            esc(&r.detail)
        );
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Pillar 3: the flight recorder.
// ---------------------------------------------------------------------------

/// One black-box entry: a request-scoped event with enough correlation
/// (request id, session, launch range) to chain a server message to
/// the kernel launches it caused.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Event time, microseconds on the shared telemetry clock.
    pub t_us: u64,
    /// Server-wide request id (`0` for non-request events).
    pub request_id: u64,
    /// Session id (`0` when none).
    pub session: u64,
    /// Tenant label (empty when none).
    pub tenant: String,
    /// Event kind (`open`, `render`, `deadline-miss`, `panic`,
    /// `shed-escalation`, …).
    pub kind: &'static str,
    /// Frames involved in the event.
    pub frames: u64,
    /// `[first, past-last)` device launch sequence numbers attributable
    /// to this event (`(0, 0)` when none).
    pub launch_range: (u64, u64),
    /// Free-form one-line detail.
    pub detail: String,
}

/// An always-on bounded black box: records cheaply at all times, dumps
/// a self-contained post-mortem file on fault.
pub struct FlightRecorder {
    entries: Mutex<VecDeque<FlightEntry>>,
    capacity: usize,
    dumps: AtomicU64,
    dir: Mutex<Option<PathBuf>>,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            entries: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(8),
            dumps: AtomicU64::new(0),
            dir: Mutex::new(None),
        }
    }

    /// Sets (or clears) the directory dumps are written to. Without a
    /// directory, dumps are counted but not written.
    pub fn set_dir(&self, dir: Option<PathBuf>) {
        *self.dir.lock().unwrap_or_else(|e| e.into_inner()) = dir;
    }

    /// Appends `entry`, evicting the oldest at capacity.
    pub fn record(&self, entry: FlightEntry) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// Retained entries, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEntry> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.iter().cloned().collect()
    }

    /// Post-mortems dumped so far.
    pub fn dump_count(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Dumps a post-mortem: the retained entries plus (when a telemetry
    /// sink is attached) the full Chrome trace, as one self-contained
    /// JSON document `flight-<seq>.json` in the configured directory.
    /// Returns the written path, or `None` when no directory is set.
    pub fn dump(
        &self,
        reason: &str,
        telemetry: Option<&Telemetry>,
    ) -> std::io::Result<Option<PathBuf>> {
        let seq = self.dumps.fetch_add(1, Ordering::Relaxed) + 1;
        let dir = self.dir.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let Some(dir) = dir else { return Ok(None) };
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("flight-{seq:04}.json"));
        let body = self.render_dump(reason, seq, telemetry);
        let mut file = std::fs::File::create(&path)?;
        file.write_all(body.as_bytes())?;
        Ok(Some(path))
    }

    /// The dump document body (separate from [`Self::dump`] so tests
    /// can check the format without touching the filesystem).
    pub fn render_dump(&self, reason: &str, seq: u64, telemetry: Option<&Telemetry>) -> String {
        use std::fmt::Write as _;
        let entries = self.snapshot();
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"reason\":\"{}\",\"seq\":{seq},\"dumped_at_us\":{},\"entries\":[",
            esc(reason),
            now_us()
        );
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                concat!(
                    "{{\"t_us\":{},\"request_id\":{},\"session\":{},\"tenant\":\"{}\",",
                    "\"kind\":\"{}\",\"frames\":{},\"launch_first\":{},\"launch_past_last\":{},",
                    "\"detail\":\"{}\"}}"
                ),
                e.t_us,
                e.request_id,
                e.session,
                esc(&e.tenant),
                e.kind,
                e.frames,
                e.launch_range.0,
                e.launch_range.1,
                esc(&e.detail)
            );
        }
        out.push_str("],\"trace\":");
        match telemetry {
            Some(t) => out.push_str(crate::telemetry::chrome_trace_json(t).trim_end()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Pillar 4: the wrapper the server holds.
// ---------------------------------------------------------------------------

/// The observability plane: ring + SLOs + flight recorder behind one
/// handle. All methods take `&self`; the server shares it via `Arc`.
pub struct ObsPlane {
    ring: SeriesRing,
    slos: Mutex<Vec<SloSpec>>,
    recorder: FlightRecorder,
    sample_period_us: u64,
    last_sample_us: AtomicU64,
}

impl Default for ObsPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsPlane {
    /// A plane with default capacities, sample period and fleet SLOs.
    pub fn new() -> Self {
        Self::with_sample_period_us(DEFAULT_SAMPLE_PERIOD_US)
    }

    /// A plane sampling at most once per `period_us` microseconds.
    pub fn with_sample_period_us(period_us: u64) -> Self {
        ObsPlane {
            ring: SeriesRing::new(DEFAULT_RING_CAPACITY),
            slos: Mutex::new(default_slos()),
            recorder: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY),
            sample_period_us: period_us,
            last_sample_us: AtomicU64::new(0),
        }
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Replaces the objective set.
    pub fn set_slos(&self, slos: Vec<SloSpec>) {
        *self.slos.lock().unwrap_or_else(|e| e.into_inner()) = slos;
    }

    /// Retained ring snapshots, oldest first.
    pub fn snapshots(&self) -> Vec<MetricsSnapshot> {
        self.ring.snapshots()
    }

    /// Takes a ring sample if the sample period has elapsed (or nothing
    /// was ever sampled). The fast path is one atomic load. Returns
    /// whether a sample was taken.
    pub fn maybe_sample(&self, registry: &MetricsRegistry) -> bool {
        let last = self.last_sample_us.load(Ordering::Relaxed);
        let now = now_us();
        if last != 0 && delta_us(last, now) < self.sample_period_us {
            return false;
        }
        // One sampler wins the race; losers skip (their sample would be
        // a duplicate anyway).
        if self
            .last_sample_us
            .compare_exchange(last, now.max(1), Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        self.ring.push(MetricsSnapshot::capture(registry));
        true
    }

    /// Takes an unconditional ring sample (scrapes always see fresh
    /// data, regardless of the throttle).
    pub fn sample_now(&self, registry: &MetricsRegistry) {
        self.last_sample_us
            .store(now_us().max(1), Ordering::Relaxed);
        self.ring.push(MetricsSnapshot::capture(registry));
    }

    /// Folds cumulative admission stats into the registry as monotone
    /// counters so ratio SLOs (reject rate) can window over them.
    pub fn sync_admission(&self, registry: &MetricsRegistry, admitted: u64, rejected: u64) {
        for (name, total) in [
            ("server.admitted_total", admitted),
            ("server.rejected_total", rejected),
            ("server.requests_total", admitted + rejected),
        ] {
            let have = registry.counter(name);
            if total > have {
                registry.counter_add(name, total - have);
            }
        }
    }

    /// Serves a `Metrics` scrape: forces a fresh sample, then renders
    /// the exposition. Returns `(snapshots_retained, exposition)`.
    pub fn scrape(&self, registry: &MetricsRegistry, labels: &[(String, String)]) -> (u32, String) {
        self.sample_now(registry);
        let snaps = self.ring.snapshots();
        let text = expose(&snaps, labels);
        (snaps.len() as u32, text)
    }

    /// Serves an `Alerts` request: forces a fresh sample, evaluates
    /// every objective, and returns the overall state plus JSON body.
    pub fn alerts(&self, registry: &MetricsRegistry) -> (SloState, String) {
        self.sample_now(registry);
        let snaps = self.ring.snapshots();
        let slos = self.slos.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let (state, reports) = evaluate_slos(&slos, &snaps);
        (state, alerts_json(state, &reports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::json;

    fn snap_at(t_us: u64, counters: &[(&'static str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            t_us,
            counters: counters.to_vec(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let ring = SeriesRing::new(3);
        for i in 0..5u64 {
            ring.push(snap_at(i, &[("c", i)]));
        }
        let snaps = ring.snapshots();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].t_us, 2);
        assert_eq!(snaps[2].t_us, 4);
    }

    #[test]
    fn counter_delta_windows_correctly() {
        let snaps = vec![
            snap_at(0, &[("c", 10)]),
            snap_at(1_000_000, &[("c", 30)]),
            snap_at(2_000_000, &[("c", 70)]),
        ];
        // Full-history window.
        assert_eq!(counter_delta(&snaps, "c", u64::MAX / 4), 60);
        // 1s window: baseline is the snapshot at t=1s.
        assert_eq!(counter_delta(&snaps, "c", 1_000_000), 40);
        // Absent counter, empty slice.
        assert_eq!(counter_delta(&snaps, "nope", 1_000_000), 0);
        assert_eq!(counter_delta(&[], "c", 1_000_000), 0);
    }

    #[test]
    fn exposition_round_trips_through_parser() {
        let m = MetricsRegistry::new();
        m.counter_add("server.renders", 42);
        m.gauge_set("queue.depth", 2.5);
        for v in 1..=100 {
            m.observe("server.render_wall_ms", v as f64);
        }
        let snaps = vec![MetricsSnapshot::capture(&m)];
        let labels = vec![
            ("device".to_string(), "gtx480".to_string()),
            ("shed".to_string(), "full".to_string()),
        ];
        let text = expose(&snaps, &labels);
        let samples = parse_exposition(&text).expect("exposition must parse back");

        let find = |name: &str, q: Option<&str>| {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && match q {
                            Some(q) => s.labels.iter().any(|(k, v)| k == "quantile" && v == q),
                            None => true,
                        }
                })
                .unwrap_or_else(|| panic!("missing sample {name}"))
        };
        assert_eq!(find("starsim_server_renders", None).value, 42.0);
        assert_eq!(find("starsim_queue_depth", None).value, 2.5);
        assert_eq!(
            find("starsim_server_render_wall_ms", Some("0.99")).value,
            99.0
        );
        assert_eq!(
            find("starsim_server_render_wall_ms_count", None).value,
            100.0
        );
        // Every sample line carries the base labels.
        for s in &samples {
            assert!(
                s.labels.iter().any(|(k, v)| k == "device" && v == "gtx480"),
                "{} lost its labels",
                s.name
            );
        }
    }

    #[test]
    fn exposition_handles_empty_registry_and_single_sample() {
        // Empty registry: header only, parses to zero samples.
        let m = MetricsRegistry::new();
        let snaps = vec![MetricsSnapshot::capture(&m)];
        let text = expose(&snaps, &[]);
        assert!(parse_exposition(&text).unwrap().is_empty());
        // Empty ring: still valid.
        assert!(parse_exposition(&expose(&[], &[])).unwrap().is_empty());

        // Single-sample histogram: all quantiles equal the sample.
        m.observe("h", 7.5);
        let snaps = vec![MetricsSnapshot::capture(&m)];
        let samples = parse_exposition(&expose(&snaps, &[])).unwrap();
        for q in ["0.5", "0.99", "1"] {
            let s = samples
                .iter()
                .find(|s| s.name == "starsim_h" && s.labels.iter().any(|(_, v)| v == q))
                .unwrap();
            assert_eq!(s.value, 7.5);
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_exposition("starsim_x{unterminated 1").is_err());
        assert!(parse_exposition("starsim_x notanumber").is_err());
        assert!(parse_exposition("bad-name 1").is_err());
        assert!(parse_exposition("starsim_x{k=unquoted} 1").is_err());
    }

    #[test]
    fn label_values_escape_and_round_trip() {
        let snaps = vec![snap_at(0, &[("c", 1)])];
        let labels = vec![("t".to_string(), "a\"b\\c".to_string())];
        let text = expose(&snaps, &labels);
        let samples = parse_exposition(&text).unwrap();
        assert_eq!(samples[0].labels[0].1, "a\"b\\c");
    }

    #[test]
    fn slo_ratio_pages_on_fast_burn_and_warns_on_slow() {
        let slo = SloSpec {
            name: "miss-rate",
            kind: SloKind::RatioDelta {
                num: "miss",
                den: "all",
            },
            budget: 0.05,
            fast_window_us: 1_000_000,
            slow_window_us: 10_000_000,
            fast_burn: 10.0,
            slow_burn: 2.0,
        };
        // Healthy: 1 miss in 1000.
        let snaps = vec![
            snap_at(0, &[("all", 0), ("miss", 0)]),
            snap_at(1_000_000, &[("all", 1000), ("miss", 1)]),
        ];
        let (state, reports) = evaluate_slos(std::slice::from_ref(&slo), &snaps);
        assert_eq!(state, SloState::Ok);
        assert!(reports[0].burn_fast < 1.0);

        // Sharp regression: 80% missing inside the fast window → page.
        let snaps = vec![
            snap_at(0, &[("all", 0), ("miss", 0)]),
            snap_at(1_000_000, &[("all", 100), ("miss", 80)]),
        ];
        let (state, _) = evaluate_slos(std::slice::from_ref(&slo), &snaps);
        assert_eq!(state, SloState::Page);

        // Sustained moderate burn: 12.5% over the slow window (burn 2.5)
        // with a clean fast window → warn, not page.
        let snaps = vec![
            snap_at(0, &[("all", 0), ("miss", 0)]),
            snap_at(9_000_000, &[("all", 1000), ("miss", 250)]),
            snap_at(10_000_000, &[("all", 2000), ("miss", 250)]),
        ];
        let (state, reports) = evaluate_slos(&[slo], &snaps);
        assert_eq!(state, SloState::Warn, "{:?}", reports);
    }

    #[test]
    fn slo_counter_zero_pages_on_any_violation() {
        let slos = vec![SloSpec {
            name: "bit-identity",
            kind: SloKind::CounterZero { counter: "viol" },
            budget: 0.0,
            fast_window_us: 1,
            slow_window_us: 1,
            fast_burn: 1.0,
            slow_burn: 1.0,
        }];
        let (state, _) = evaluate_slos(&slos, &[snap_at(0, &[("viol", 0)])]);
        assert_eq!(state, SloState::Ok);
        let (state, _) = evaluate_slos(&slos, &[snap_at(0, &[("viol", 1)])]);
        assert_eq!(state, SloState::Page);
    }

    #[test]
    fn slo_p99_latency_states() {
        let slos = vec![SloSpec {
            name: "p99",
            kind: SloKind::HistogramP99 { histogram: "lat" },
            budget: 100.0,
            fast_window_us: 1_000_000,
            slow_window_us: 10_000_000,
            fast_burn: 2.0,
            slow_burn: 1.0,
        }];
        let snap = |t_us: u64, p99: f64| MetricsSnapshot {
            t_us,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![(
                "lat",
                HistogramSummary {
                    count: 10,
                    p50: p99 / 2.0,
                    p99,
                    mean: p99 / 2.0,
                    max: p99,
                },
            )],
        };
        let (state, _) = evaluate_slos(&slos, &[snap(0, 50.0)]);
        assert_eq!(state, SloState::Ok);
        let (state, _) = evaluate_slos(&slos, &[snap(0, 150.0)]);
        assert_eq!(state, SloState::Warn);
        let (state, _) = evaluate_slos(&slos, &[snap(0, 250.0)]);
        assert_eq!(state, SloState::Page);
        // No data at all: Ok, not a false page.
        let (state, _) = evaluate_slos(&slos, &[]);
        assert_eq!(state, SloState::Ok);
    }

    #[test]
    fn alerts_json_is_valid_json() {
        let (state, reports) = evaluate_slos(&default_slos(), &[snap_at(0, &[])]);
        let body = alerts_json(state, &reports);
        let doc = json::parse(&body).expect("alerts body must be valid JSON");
        assert_eq!(doc.get("state").and_then(|v| v.as_str()), Some("ok"));
        let slos = doc.get("slos").and_then(|v| v.as_array()).unwrap();
        assert_eq!(slos.len(), default_slos().len());
    }

    #[test]
    fn flight_recorder_is_bounded_and_dump_parses() {
        let rec = FlightRecorder::new(8);
        for i in 0..20u64 {
            rec.record(FlightEntry {
                t_us: i,
                request_id: i,
                session: 1,
                tenant: format!("t{i}"),
                kind: "render",
                frames: 2,
                launch_range: (i * 4, i * 4 + 4),
                detail: format!("frame batch {i}"),
            });
        }
        let entries = rec.snapshot();
        assert_eq!(entries.len(), 8);
        assert_eq!(entries[0].request_id, 12, "oldest evicted first");

        let t = crate::telemetry::Telemetry::new();
        {
            let _s = t.span("frame");
        }
        let body = rec.render_dump("handler panic: boom \"quoted\"", 1, Some(&t));
        let doc = json::parse(&body).expect("dump must be valid JSON");
        assert_eq!(
            doc.get("reason").and_then(|v| v.as_str()),
            Some("handler panic: boom \"quoted\"")
        );
        let dumped = doc.get("entries").and_then(|v| v.as_array()).unwrap();
        assert_eq!(dumped.len(), 8);
        assert!(dumped[0]
            .get("request_id")
            .and_then(|v| v.as_f64())
            .is_some());
        // The embedded Chrome trace is a real trace document.
        let trace = doc.get("trace").unwrap();
        assert!(trace
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .is_some());
    }

    #[test]
    fn flight_recorder_dump_writes_file_when_dir_set() {
        let rec = FlightRecorder::new(8);
        rec.record(FlightEntry {
            t_us: 1,
            request_id: 7,
            session: 3,
            tenant: "acme".to_string(),
            kind: "deadline-miss",
            frames: 4,
            launch_range: (0, 0),
            detail: "budget exhausted".to_string(),
        });
        // No directory: counted, not written.
        assert_eq!(rec.dump("x", None).unwrap(), None);
        assert_eq!(rec.dump_count(), 1);

        let dir = std::env::temp_dir().join("starsim_flight_test");
        let _ = std::fs::remove_dir_all(&dir);
        rec.set_dir(Some(dir.clone()));
        let path = rec.dump("deadline miss", None).unwrap().expect("written");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(json::parse(&text).is_ok());
        assert_eq!(rec.dump_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obsplane_throttles_sampling_but_scrape_forces() {
        let plane = ObsPlane::with_sample_period_us(60_000_000);
        let m = MetricsRegistry::new();
        m.counter_add("server.renders", 1);
        assert!(plane.maybe_sample(&m), "first sample always taken");
        assert!(!plane.maybe_sample(&m), "second inside period throttled");
        assert_eq!(plane.snapshots().len(), 1);

        m.counter_add("server.renders", 1);
        let (n, text) = plane.scrape(&m, &[]);
        assert_eq!(n, 2, "scrape forces a fresh sample");
        let samples = parse_exposition(&text).unwrap();
        assert_eq!(
            samples
                .iter()
                .find(|s| s.name == "starsim_server_renders")
                .unwrap()
                .value,
            2.0
        );
    }

    #[test]
    fn obsplane_alerts_reflect_admission_sync() {
        let plane = ObsPlane::with_sample_period_us(1);
        let m = MetricsRegistry::new();
        plane.sync_admission(&m, 10, 0);
        plane.sample_now(&m);
        let (state, body) = plane.alerts(&m);
        assert_eq!(state, SloState::Ok, "{body}");

        // Mass rejection trips the reject-rate page threshold
        // (burn = (90/100)/0.25 = 3.6 ≥ fast_burn 3.0).
        plane.sync_admission(&m, 10, 90);
        let (state, body) = plane.alerts(&m);
        assert_eq!(state, SloState::Page, "{body}");
        assert!(body.contains("reject-rate"));
        // sync is idempotent: counters don't double-count.
        plane.sync_admission(&m, 10, 90);
        assert_eq!(m.counter("server.requests_total"), 100);
    }
}
