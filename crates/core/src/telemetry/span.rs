//! The span layer: RAII guard objects recording named, nested wall-clock
//! intervals onto a shared [`Telemetry`] sink.
//!
//! Nesting is tracked per thread with a thread-local parent stack, so a
//! span opened while another is live becomes its child without the call
//! sites having to thread IDs around. Span names are `&'static str` by
//! design: the set of pipeline stages is a closed vocabulary, recording
//! never allocates for the name, and two runs can be compared by name.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gpusim::telemetry::{delta_us, now_us};

use super::Telemetry;

thread_local! {
    /// Stack of open span IDs on this thread (innermost last).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Monotone span-ID source shared by every sink (IDs are unique
/// process-wide, so traces from several sinks can be merged safely).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique (process-wide) span ID.
    pub id: u64,
    /// ID of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// Stage name (closed vocabulary, e.g. `"render"`).
    pub name: &'static str,
    /// Start, microseconds since the telemetry epoch.
    pub start_us: u64,
    /// End, microseconds since the telemetry epoch.
    pub end_us: u64,
    /// Recording thread (dense per-process index, 0-based).
    pub thread: u64,
}

impl SpanRecord {
    /// Span duration in microseconds (wrap- and regression-safe: a
    /// wrapped or racing clock clamps to zero instead of going huge).
    pub fn duration_us(&self) -> u64 {
        delta_us(self.start_us, self.end_us)
    }
}

/// Dense per-thread index for trace rows (0 = first thread that ever
/// recorded a span).
pub(super) fn thread_index() -> u64 {
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static INDEX: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// An open span; records itself onto the sink when dropped.
///
/// Created by [`Telemetry::span`]. Hold it in a `let _guard = …;`
/// binding for the extent of the stage (a bare `let _ = …` drops it
/// immediately and records a zero-length span).
#[must_use = "a span guard records on drop; binding it to `_` closes it immediately"]
pub struct SpanGuard {
    sink: Arc<Telemetry>,
    id: u64,
    parent: u64,
    name: &'static str,
    start_us: u64,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.name)
            .field("id", &self.id)
            .field("parent", &self.parent)
            .finish()
    }
}

impl SpanGuard {
    pub(super) fn open(sink: Arc<Telemetry>, name: &'static str) -> Self {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        SpanGuard {
            sink,
            id,
            parent,
            name,
            start_us: now_us(),
        }
    }

    /// The span's stage name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_us = now_us();
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards normally close LIFO; out-of-order drops (possible
            // with explicitly moved guards) just remove their own entry.
            if s.last() == Some(&self.id) {
                s.pop();
            } else {
                s.retain(|&id| id != self.id);
            }
        });
        self.sink.record_span(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_us: self.start_us,
            end_us,
            thread: thread_index(),
        });
    }
}

/// Opens a span on `sink` if telemetry is attached; the `None` path is a
/// no-op. The standard instrumentation idiom for optional telemetry:
///
/// ```ignore
/// let _stage = maybe_span(self.telemetry.as_ref(), "kernel-launch");
/// ```
pub fn maybe_span(sink: Option<&Arc<Telemetry>>, name: &'static str) -> Option<SpanGuard> {
    sink.map(|s| s.span(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_via_thread_local_stack() {
        let t = Telemetry::new();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
            }
            let _sibling = t.span("sibling");
        }
        let spans = t.snapshot_spans();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let outer = by_name("outer");
        assert_eq!(outer.parent, 0, "outer is a root span");
        assert_eq!(by_name("inner").parent, outer.id);
        assert_eq!(by_name("sibling").parent, outer.id);
        assert!(by_name("inner").end_us <= outer.end_us);
    }

    #[test]
    fn sibling_threads_get_independent_stacks() {
        let t = Telemetry::new();
        let _root = t.span("root");
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || {
            let _other = t2.span("other-thread");
        })
        .join()
        .unwrap();
        drop(_root);
        let spans = t.snapshot_spans();
        let other = spans.iter().find(|s| s.name == "other-thread").unwrap();
        assert_eq!(
            other.parent, 0,
            "a span on another thread must not parent onto this thread's stack"
        );
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_ne!(other.thread, root.thread);
    }

    #[test]
    fn maybe_span_is_noop_without_sink() {
        assert!(maybe_span(None, "x").is_none());
        let t = Telemetry::new();
        let g = maybe_span(Some(&t), "x").unwrap();
        assert_eq!(g.name(), "x");
    }
}
