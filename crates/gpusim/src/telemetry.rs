//! Device-side telemetry primitives: a process-wide monotonic clock,
//! packed per-lane events, fixed-capacity lock-free event rings, and the
//! per-launch trace sink consumed by `starsim-core`'s exporter.
//!
//! Everything here is allocation-free on the hot path. Worker lanes
//! record [`LaneEvent`]s into an [`EventRing`] with a single
//! `fetch_add` + `store`; the launcher drains the rings once per launch
//! while every lane is parked (the pool's state mutex provides the
//! happens-before edge), so readers never race a writer in steady
//! state. A ring that fills up drops the newest events and counts them
//! — telemetry must never block or grow the simulation.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-wide epoch shared by every telemetry clock in the workspace.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process-wide telemetry epoch.
///
/// The epoch is latched on first call, so all spans, lane events and
/// launch traces — host- and device-side — live on one timeline and can
/// be merged into a single Chrome trace.
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Wrap-safe elapsed microseconds between two [`now_us`] stamps.
///
/// Timestamps may wrap (lane events carry only 40 bits — ~12.7 days of
/// uptime) or regress (stamps taken on different threads race by a few
/// microseconds around a drain). A plain `end - start` would panic in
/// debug builds or produce a negative-huge sample in release; this
/// helper computes the wrapping difference and treats any delta larger
/// than half the range as a regression, clamping it to zero. Use it at
/// every subtraction site that feeds a histogram or a trace duration.
pub fn delta_us(start_us: u64, end_us: u64) -> u64 {
    let d = end_us.wrapping_sub(start_us);
    if d > u64::MAX / 2 {
        0
    } else {
        d
    }
}

/// What happened on a worker lane.
///
/// Discriminants are stable (packed into 4 bits of the wire format);
/// keep them ≤ 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LaneEventKind {
    /// The launcher published a new generation (recorded on lane 0).
    Launch = 0,
    /// A lane observed the new generation and started running roles.
    Wake = 1,
    /// A lane finished its roles and went back to the parked state.
    Park = 2,
    /// A lane's role payload panicked (the launch will be poisoned).
    Panic = 3,
    /// A lane observed it was fenced by the watchdog and bailed out.
    Fenced = 4,
    /// A fault-injected stall began on this lane.
    Stall = 5,
}

impl LaneEventKind {
    fn from_bits(bits: u64) -> Self {
        match bits & 0xF {
            0 => Self::Launch,
            1 => Self::Wake,
            2 => Self::Park,
            3 => Self::Panic,
            4 => Self::Fenced,
            _ => Self::Stall,
        }
    }

    /// Short stable label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            Self::Launch => "launch",
            Self::Wake => "wake",
            Self::Park => "park",
            Self::Panic => "panic",
            Self::Fenced => "fenced",
            Self::Stall => "stall",
        }
    }
}

/// One timestamped lane event, packable into a single `u64`.
///
/// Wire layout (LSB first): kind 4 bits, lane 8 bits, generation
/// 12 bits (low bits only — enough to correlate within a drain window),
/// timestamp 40 bits of microseconds (~12.7 days of uptime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneEvent {
    /// Microseconds since the telemetry epoch ([`now_us`]).
    pub t_us: u64,
    /// Worker lane index (0 = the launcher itself).
    pub lane: u8,
    /// Low 12 bits of the pool generation the event belongs to.
    pub generation: u16,
    /// Event kind.
    pub kind: LaneEventKind,
}

impl LaneEvent {
    /// Packs the event into the one-word wire format.
    pub fn pack(self) -> u64 {
        (self.kind as u64)
            | (self.lane as u64) << 4
            | (self.generation as u64 & 0xFFF) << 12
            | (self.t_us & ((1 << 40) - 1)) << 24
    }

    /// Unpacks an event from the one-word wire format.
    pub fn unpack(bits: u64) -> Self {
        Self {
            t_us: bits >> 24,
            lane: (bits >> 4) as u8,
            generation: ((bits >> 12) & 0xFFF) as u16,
            kind: LaneEventKind::from_bits(bits),
        }
    }
}

/// Fixed-capacity, lock-free, single-drain event log.
///
/// Writers claim a slot with one `fetch_add` and publish with one
/// `store`; events past capacity are dropped (and counted), never
/// blocking the writer. [`EventRing::drain_into`] resets the ring and
/// must only run while no writer is active — in the worker pool that is
/// guaranteed by draining between launches, when every lane is parked.
pub struct EventRing {
    slots: Box<[AtomicU64]>,
    head: AtomicUsize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.slots.len())
            .field(
                "len",
                &self.head.load(Ordering::Relaxed).min(self.slots.len()),
            )
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventRing {
    /// A ring holding up to `capacity` events between drains.
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1)).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one event; drops it (counted) if the ring is full.
    pub fn push(&self, event: LaneEvent) {
        let slot = self.head.fetch_add(1, Ordering::Relaxed);
        if let Some(cell) = self.slots.get(slot) {
            cell.store(event.pack(), Ordering::Release);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Moves every recorded event into `out` and resets the ring.
    ///
    /// Caller must guarantee no concurrent [`push`](Self::push) — see
    /// the type docs for the pool's drain rule.
    pub fn drain_into(&self, out: &mut Vec<LaneEvent>) {
        let len = self.head.swap(0, Ordering::AcqRel).min(self.slots.len());
        for cell in &self.slots[..len] {
            let bits = cell.swap(0, Ordering::Acquire);
            if bits != 0 {
                out.push(LaneEvent::unpack(bits));
            }
        }
    }

    /// Total events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Everything the device recorded about one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchTrace {
    /// Kernel name as passed to the launch.
    pub name: String,
    /// Executor mode label (`"reference"` / `"batched"`).
    pub mode: &'static str,
    /// Zero-based launch sequence number on this device.
    pub launch: u64,
    /// Launch start, microseconds since the telemetry epoch.
    pub start_us: u64,
    /// Launch end (host wall clock), microseconds since the epoch.
    pub end_us: u64,
    /// Host dispatch window `[start, end)` in epoch microseconds, if
    /// the executor stamped one (on the batched executor's two-pass route,
    /// the counter pass).
    pub dispatch_us: Option<(u64, u64)>,
    /// Deposit-pass window `[start, end)` in epoch microseconds: the
    /// batched executor's second pass, which adds every block into its
    /// bands of output rows. `None` on a launch without one (the reference
    /// executors, and kernels on the per-thread route).
    pub merge_us: Option<(u64, u64)>,
    /// Modeled GPU kernel time in seconds (the analytical Fermi model).
    pub modeled_kernel_s: f64,
    /// Per-lane events drained from the pool after this launch,
    /// timestamp-sorted.
    pub lane_events: Vec<LaneEvent>,
    /// Cumulative ring-overflow drops observed at drain time.
    pub events_dropped: u64,
}

/// Device-side telemetry sink: a bounded log of [`LaunchTrace`]s.
///
/// Owned behind an `Arc` shared between the `VirtualGpu` that records
/// and the host-side `Telemetry` that drains for export.
#[derive(Debug)]
pub struct GpuTelemetry {
    launches: Mutex<Vec<LaunchTrace>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Default for GpuTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl GpuTelemetry {
    /// Default bound on retained launches between drains.
    pub const DEFAULT_CAPACITY: usize = 1 << 14;

    /// A sink retaining up to [`Self::DEFAULT_CAPACITY`] launches.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A sink retaining up to `capacity` launches between drains.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            launches: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one launch trace; drops it (counted) when full.
    pub fn record(&self, trace: LaunchTrace) {
        let mut launches = self.launches.lock().unwrap_or_else(|e| e.into_inner());
        if launches.len() < self.capacity {
            launches.push(trace);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes every recorded launch, leaving the sink empty.
    pub fn take_launches(&self) -> Vec<LaunchTrace> {
        std::mem::take(&mut *self.launches.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Number of launches currently retained.
    pub fn len(&self) -> usize {
        self.launches
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Whether the sink holds no launches.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Launch traces dropped because the sink was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }

    #[test]
    fn delta_us_is_wrap_and_regression_safe() {
        // Normal forward progress.
        assert_eq!(delta_us(100, 250), 150);
        assert_eq!(delta_us(0, 0), 0);
        // Clock regression (cross-thread stamp race): clamps to zero
        // instead of a negative-huge sample.
        assert_eq!(delta_us(250, 100), 0);
        assert_eq!(delta_us(u64::MAX / 2 + 2, 1), 0);
        // Counter wrap (e.g. a 40-bit lane timestamp rolling over):
        // the wrapping difference recovers the true small delta.
        assert_eq!(delta_us(u64::MAX - 9, 10), 20);
        let forty_bit_max = (1u64 << 40) - 1;
        let wrapped = forty_bit_max.wrapping_add(5) & forty_bit_max;
        assert_eq!(
            delta_us(forty_bit_max - 2, wrapped | (1 << 40)),
            // Same low-40-bit distance once the caller re-extends;
            // full-width stamps just subtract.
            delta_us(forty_bit_max - 2, forty_bit_max + 5)
        );
    }

    #[test]
    fn lane_event_roundtrips_through_pack() {
        for kind in [
            LaneEventKind::Launch,
            LaneEventKind::Wake,
            LaneEventKind::Park,
            LaneEventKind::Panic,
            LaneEventKind::Fenced,
            LaneEventKind::Stall,
        ] {
            let e = LaneEvent {
                t_us: 0x12_3456_789A,
                lane: 14,
                generation: 0xABC,
                kind,
            };
            assert_eq!(LaneEvent::unpack(e.pack()), e);
        }
    }

    #[test]
    fn generation_is_masked_to_12_bits() {
        let e = LaneEvent {
            t_us: 1,
            lane: 0,
            generation: 0xFFF,
            kind: LaneEventKind::Wake,
        };
        assert_eq!(LaneEvent::unpack(e.pack()).generation, 0xFFF);
    }

    #[test]
    fn ring_drains_in_order_and_resets() {
        let ring = EventRing::new(8);
        for i in 0..5u64 {
            ring.push(LaneEvent {
                t_us: i + 1,
                lane: i as u8,
                generation: i as u16,
                kind: LaneEventKind::Wake,
            });
        }
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].t_us, 1);
        assert_eq!(out[4].lane, 4);
        out.clear();
        ring.drain_into(&mut out);
        assert!(out.is_empty(), "drain resets the ring");
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_overflow_drops_newest_and_counts() {
        let ring = EventRing::new(2);
        for i in 0..5u64 {
            ring.push(LaneEvent {
                t_us: i + 1,
                lane: 0,
                generation: 0,
                kind: LaneEventKind::Park,
            });
        }
        assert_eq!(ring.dropped(), 3);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].t_us, 1, "oldest events are the ones kept");
    }

    #[test]
    fn ring_is_safe_under_concurrent_writers() {
        let ring = std::sync::Arc::new(EventRing::new(64));
        let mut handles = Vec::new();
        for lane in 0..4u8 {
            let ring = std::sync::Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for g in 0..32u16 {
                    ring.push(LaneEvent {
                        t_us: now_us().max(1),
                        lane,
                        generation: g,
                        kind: LaneEventKind::Wake,
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len() as u64 + ring.dropped(), 128);
    }

    #[test]
    fn gpu_sink_bounds_retained_launches() {
        let sink = GpuTelemetry::with_capacity(2);
        for i in 0..3 {
            sink.record(LaunchTrace {
                name: "k".into(),
                mode: "batched",
                launch: i,
                start_us: 0,
                end_us: 1,
                dispatch_us: None,
                merge_us: None,
                modeled_kernel_s: 0.0,
                lane_events: Vec::new(),
                events_dropped: 0,
            });
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 1);
        assert_eq!(sink.take_launches().len(), 2);
        assert!(sink.is_empty());
    }
}
