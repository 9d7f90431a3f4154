//! The thread-local instrument registry.
//!
//! All telemetry state lives in one thread-local [`Collector`]: typed
//! instruments (counters, gauges, histograms), per-span aggregates, the
//! live span stack, and the bounded event ring buffer. Thread-locality
//! keeps recording lock-free and isolates parallel test threads; the
//! simulator itself is single-threaded, so one collector sees a whole
//! run.
//!
//! Every public recording function is gated on [`crate::enabled`] and
//! is a no-op (one relaxed atomic load) when telemetry is off. Re-entry
//! through `try_borrow_mut` is impossible by construction (no recording
//! call invokes another), but the guard keeps the crate panic-free even
//! if that changes.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use crate::hist::Histogram;
use crate::{Key, Label};

/// Capacity of the structured-event ring buffer. Oldest events are
/// dropped (and counted) beyond this bound.
pub const EVENT_CAPACITY: usize = 4096;

/// Aggregate statistics for one span name+label.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed span instances.
    pub count: u64,
    /// Total wall time across instances, nanoseconds.
    pub total_ns: u64,
    /// Self time: total minus time attributed to child spans.
    pub self_ns: u64,
    /// Longest single instance, nanoseconds.
    pub max_ns: u64,
}

/// One completed span instance in the event ring buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Monotonic sequence number (survives ring-buffer eviction).
    pub seq: u64,
    /// Span name.
    pub name: &'static str,
    /// Span scope.
    pub label: Label,
    /// Nesting depth at open (0 = root).
    pub depth: usize,
    /// Start offset from the collector's epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall duration, nanoseconds.
    pub duration_ns: u64,
}

/// A frame of the live span stack: accumulates child wall time so the
/// parent can compute its self time on close.
#[derive(Debug, Default)]
pub(crate) struct Frame {
    pub(crate) child_ns: u64,
}

/// All telemetry state for one thread.
#[derive(Debug, Default)]
pub(crate) struct Collector {
    pub(crate) counters: BTreeMap<Key, u64>,
    pub(crate) gauges: BTreeMap<Key, f64>,
    pub(crate) hists: BTreeMap<Key, Histogram>,
    pub(crate) spans: BTreeMap<Key, SpanStats>,
    pub(crate) stack: Vec<Frame>,
    pub(crate) events: VecDeque<SpanEvent>,
    pub(crate) dropped_events: u64,
    pub(crate) next_seq: u64,
    /// First instant observed; event offsets are relative to it.
    pub(crate) epoch: Option<Instant>,
}

impl Collector {
    pub(crate) fn push_event(&mut self, event: SpanEvent) {
        if self.events.len() >= EVENT_CAPACITY {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(event);
    }

    pub(crate) fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.hists.clear();
        self.spans.clear();
        self.events.clear();
        self.dropped_events = 0;
        self.next_seq = 0;
        self.epoch = None;
        // Live frames are kept: open guards will still pop them.
    }
}

thread_local! {
    pub(crate) static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::default());
}

/// Runs `f` with the thread's collector; silently skipped on re-entry.
pub(crate) fn with_collector<R>(f: impl FnOnce(&mut Collector) -> R) -> Option<R> {
    COLLECTOR.with(|c| c.try_borrow_mut().ok().map(|mut c| f(&mut c)))
}

// The recording entry points are split fast/slow: the `#[inline(always)]`
// wrapper compiles to a relaxed load plus a not-taken branch at every call
// site, and the `#[cold]` body stays out of callers' instruction streams —
// keeping hot protocol loops byte-for-byte close to uninstrumented code.

/// Adds `delta` to the counter `name`/`label`.
#[inline(always)]
pub fn counter_add(name: &'static str, label: Label, delta: u64) {
    if crate::enabled() {
        counter_add_slow(name, label, delta);
    }
}

#[cold]
#[inline(never)]
fn counter_add_slow(name: &'static str, label: Label, delta: u64) {
    with_collector(|c| {
        *c.counters.entry(Key::new(name, label)).or_insert(0) += delta;
    });
}

/// Sets the gauge `name`/`label` to `value` (last write wins).
#[inline(always)]
pub fn gauge_set(name: &'static str, label: Label, value: f64) {
    if crate::enabled() {
        gauge_set_slow(name, label, value);
    }
}

#[cold]
#[inline(never)]
fn gauge_set_slow(name: &'static str, label: Label, value: f64) {
    with_collector(|c| {
        c.gauges.insert(Key::new(name, label), value);
    });
}

/// Records `value` into the histogram `name`/`label`.
#[inline(always)]
pub fn observe(name: &'static str, label: Label, value: u64) {
    if crate::enabled() {
        observe_slow(name, label, value);
    }
}

#[cold]
#[inline(never)]
fn observe_slow(name: &'static str, label: Label, value: u64) {
    with_collector(|c| {
        c.hists
            .entry(Key::new(name, label))
            .or_default()
            .record(value);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_enabled, snapshot};

    #[test]
    fn disabled_recording_is_dropped() {
        let _flag = crate::flag_guard();
        set_enabled(false);
        crate::reset();
        counter_add("t/disabled", Label::Global, 5);
        gauge_set("t/disabled", Label::Global, 1.0);
        observe("t/disabled", Label::Global, 1);
        set_enabled(true);
        let snap = snapshot();
        set_enabled(false);
        assert!(snap.counters.iter().all(|c| c.name != "t/disabled"));
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn counters_accumulate_per_label() {
        let _flag = crate::flag_guard();
        set_enabled(true);
        crate::reset();
        counter_add("t/c", Label::Cluster(1), 2);
        counter_add("t/c", Label::Cluster(1), 3);
        counter_add("t/c", Label::Cluster(2), 7);
        let snap = snapshot();
        set_enabled(false);
        let values: Vec<u64> = snap
            .counters
            .iter()
            .filter(|c| c.name == "t/c")
            .map(|c| c.value)
            .collect();
        assert_eq!(values, vec![5, 7]);
    }

    #[test]
    fn gauges_keep_last_write() {
        let _flag = crate::flag_guard();
        set_enabled(true);
        crate::reset();
        gauge_set("t/g", Label::Global, 1.5);
        gauge_set("t/g", Label::Global, 2.5);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.gauges[0].value, 2.5);
    }

    #[test]
    fn event_ring_buffer_is_bounded() {
        let mut c = Collector::default();
        for i in 0..(EVENT_CAPACITY as u64 + 10) {
            c.push_event(SpanEvent {
                seq: i,
                name: "t/e",
                label: Label::Global,
                depth: 0,
                start_ns: i,
                duration_ns: 1,
            });
        }
        assert_eq!(c.events.len(), EVENT_CAPACITY);
        assert_eq!(c.dropped_events, 10);
        assert_eq!(c.events.front().map(|e| e.seq), Some(10));
    }
}
