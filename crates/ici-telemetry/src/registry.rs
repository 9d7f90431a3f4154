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

/// Telemetry state drained from one thread's collector, ready to be
/// merged into another thread's registry.
///
/// Worker threads (see the `ici-par` pool) record into their own
/// thread-local collectors; without an explicit hand-off every counter,
/// histogram, span, and event they produce would be lost when the
/// worker goes idle. A worker calls [`drain_delta`] after finishing a
/// task and ships the delta back with its result; the coordinating
/// thread folds it in with [`merge_delta`]. Merging is commutative for
/// counters/histograms/spans; gauges are last-write-wins, so merge
/// deltas in a deterministic order (the pool merges in chunk order).
#[derive(Clone, Debug, Default)]
pub struct TelemetryDelta {
    pub(crate) counters: BTreeMap<Key, u64>,
    pub(crate) gauges: BTreeMap<Key, f64>,
    pub(crate) hists: BTreeMap<Key, Histogram>,
    pub(crate) spans: BTreeMap<Key, SpanStats>,
    pub(crate) events: Vec<SpanEvent>,
    pub(crate) dropped_events: u64,
}

impl TelemetryDelta {
    /// Whether the delta carries no recorded state at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
            && self.spans.is_empty()
            && self.events.is_empty()
            && self.dropped_events == 0
    }
}

/// Drains the current thread's recorded telemetry into a portable
/// [`TelemetryDelta`], leaving the collector empty (but keeping its
/// epoch and any live span stack, so open spans still close cleanly).
///
/// Event `start_ns` offsets stay relative to the *origin* thread's
/// epoch; after a merge they order events within one worker's stream
/// but not across threads.
pub fn drain_delta() -> TelemetryDelta {
    with_collector(|c| TelemetryDelta {
        counters: std::mem::take(&mut c.counters),
        gauges: std::mem::take(&mut c.gauges),
        hists: std::mem::take(&mut c.hists),
        spans: std::mem::take(&mut c.spans),
        events: std::mem::take(&mut c.events).into(),
        dropped_events: std::mem::take(&mut c.dropped_events),
    })
    .unwrap_or_default()
}

/// Folds a drained delta into the current thread's collector.
///
/// Counters and histograms add, span aggregates accumulate, gauges take
/// the delta's value (last write wins), and events are appended to the
/// ring buffer with fresh sequence numbers (their relative order within
/// the delta is preserved).
pub fn merge_delta(delta: TelemetryDelta) {
    with_collector(|c| {
        for (k, v) in delta.counters {
            *c.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in delta.gauges {
            c.gauges.insert(k, v);
        }
        for (k, h) in delta.hists {
            c.hists.entry(k).or_default().merge(&h);
        }
        for (k, s) in delta.spans {
            let agg = c.spans.entry(k).or_default();
            agg.count += s.count;
            agg.total_ns = agg.total_ns.saturating_add(s.total_ns);
            agg.self_ns = agg.self_ns.saturating_add(s.self_ns);
            agg.max_ns = agg.max_ns.max(s.max_ns);
        }
        c.dropped_events += delta.dropped_events;
        for mut event in delta.events {
            event.seq = c.next_seq;
            c.next_seq += 1;
            c.push_event(event);
        }
    });
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
    fn drain_and_merge_round_trip() {
        let _flag = crate::flag_guard();
        set_enabled(true);
        crate::reset();
        counter_add("t/merge_c", Label::Global, 3);
        gauge_set("t/merge_g", Label::Global, 1.5);
        observe("t/merge_h", Label::Global, 10);
        {
            let _g = crate::span_guard("t/merge_s", Label::Global);
        }
        let delta = drain_delta();
        assert!(!delta.is_empty());
        assert!(TelemetryDelta::default().is_empty());
        // The collector is now empty...
        assert!(snapshot().is_empty());
        // ...and merging the delta twice doubles every additive family.
        merge_delta(delta.clone());
        merge_delta(delta);
        let snap = snapshot();
        set_enabled(false);
        let counter = snap
            .counters
            .iter()
            .find(|c| c.name == "t/merge_c")
            .map(|c| c.value);
        assert_eq!(counter, Some(6));
        assert_eq!(snap.gauges[0].value, 1.5);
        assert_eq!(snap.histograms[0].count, 2);
        let span = snap.span("t/merge_s").map(|s| s.count);
        assert_eq!(span, Some(2));
        // Events were re-sequenced monotonically on merge.
        assert_eq!(snap.events.len(), 2);
        assert!(snap.events[0].seq < snap.events[1].seq);
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
