//! Snapshots and export: JSON (for `results/e*.json`).
//!
//! A [`TelemetrySnapshot`] is a plain-data copy of the thread's
//! collector, decoupled from the live registry so exporters can hold it
//! across further recording. The JSON shape is documented in
//! `EXPERIMENTS.md`; `ici-sim`'s `ExperimentRecord` embeds it verbatim
//! as the record's `telemetry` section.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::registry::{with_collector, EVENT_CAPACITY};
use crate::Key;

/// One counter series.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterEntry {
    /// Instrument name (`subsystem/operation`).
    pub name: &'static str,
    /// Rendered label (`""`, `"cluster=3"`, ...).
    pub label: String,
    /// Accumulated value.
    pub value: u64,
}

/// One gauge series.
#[derive(Clone, Debug, PartialEq)]
pub struct GaugeEntry {
    /// Instrument name.
    pub name: &'static str,
    /// Rendered label.
    pub label: String,
    /// Last written value.
    pub value: f64,
}

/// One histogram series, reduced to its summary statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramEntry {
    /// Instrument name.
    pub name: &'static str,
    /// Rendered label.
    pub label: String,
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Mean sample.
    pub mean: f64,
    /// Estimated 50th percentile.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Non-empty buckets as `(bucket_index, count)`.
    pub buckets: Vec<(usize, u64)>,
}

/// One span series (aggregated over instances).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEntry {
    /// Span name.
    pub name: &'static str,
    /// Rendered label.
    pub label: String,
    /// Completed instances.
    pub count: u64,
    /// Total wall nanoseconds.
    pub total_ns: u64,
    /// Self (non-child) nanoseconds.
    pub self_ns: u64,
    /// Longest instance, nanoseconds.
    pub max_ns: u64,
}

/// One structured event from the ring buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventEntry {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Span name.
    pub name: &'static str,
    /// Rendered label.
    pub label: String,
    /// Nesting depth at open (0 = root).
    pub depth: usize,
    /// Start offset from the collector epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub duration_ns: u64,
}

/// A plain-data copy of the thread's telemetry state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Counter series, ascending by (name, label).
    pub counters: Vec<CounterEntry>,
    /// Gauge series.
    pub gauges: Vec<GaugeEntry>,
    /// Histogram series.
    pub histograms: Vec<HistogramEntry>,
    /// Span aggregates.
    pub spans: Vec<SpanEntry>,
    /// Most recent span events (bounded ring buffer).
    pub events: Vec<EventEntry>,
    /// Events evicted from the ring buffer before this snapshot.
    pub dropped_events: u64,
}

/// Copies the current thread's telemetry state. Works regardless of the
/// enabled flag (a disabled thread simply has empty state).
pub fn snapshot() -> TelemetrySnapshot {
    with_collector(|c| TelemetrySnapshot {
        counters: c
            .counters
            .iter()
            .map(|(k, &v)| CounterEntry {
                name: k.name,
                label: k.label.render(),
                value: v,
            })
            .collect(),
        gauges: c
            .gauges
            .iter()
            .map(|(k, &v)| GaugeEntry {
                name: k.name,
                label: k.label.render(),
                value: v,
            })
            .collect(),
        histograms: c
            .hists
            .iter()
            .map(|(k, h)| HistogramEntry {
                name: k.name,
                label: k.label.render(),
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                mean: h.mean(),
                p50: h.percentile(50.0),
                p90: h.percentile(90.0),
                p99: h.percentile(99.0),
                buckets: h.nonzero_buckets(),
            })
            .collect(),
        spans: c
            .spans
            .iter()
            .map(|(k, s)| SpanEntry {
                name: k.name,
                label: k.label.render(),
                count: s.count,
                total_ns: s.total_ns,
                self_ns: s.self_ns,
                max_ns: s.max_ns,
            })
            .collect(),
        events: c
            .events
            .iter()
            .map(|e| EventEntry {
                seq: e.seq,
                name: e.name,
                label: e.label.render(),
                depth: e.depth,
                start_ns: e.start_ns,
                duration_ns: e.duration_ns,
            })
            .collect(),
        dropped_events: c.dropped_events,
    })
    .unwrap_or_default()
}

/// Clears the current thread's telemetry state (instruments, spans,
/// events). Spans still open keep working and record on close.
pub fn reset() {
    with_collector(|c| c.clear());
}

impl TelemetrySnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// The first span aggregate named `name` (any label).
    pub fn span(&self, name: &str) -> Option<&SpanEntry> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Distinct subsystems (name text before the first `/`) across all
    /// instruments and spans.
    pub fn subsystems(&self) -> BTreeSet<&'static str> {
        let of = |name: &'static str| Key::new(name, crate::Label::Global).subsystem();
        self.counters
            .iter()
            .map(|c| of(c.name))
            .chain(self.gauges.iter().map(|g| of(g.name)))
            .chain(self.histograms.iter().map(|h| of(h.name)))
            .chain(self.spans.iter().map(|s| of(s.name)))
            .collect()
    }

    /// Distinct subsystems that contributed spans specifically.
    pub fn span_subsystems(&self) -> BTreeSet<&'static str> {
        self.spans
            .iter()
            .map(|s| Key::new(s.name, crate::Label::Global).subsystem())
            .collect()
    }

    /// The `n` span aggregates with the largest self time, descending.
    pub fn top_spans_by_self_time(&self, n: usize) -> Vec<&SpanEntry> {
        let mut sorted: Vec<&SpanEntry> = self.spans.iter().collect();
        sorted.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        sorted.truncate(n);
        sorted
    }

    /// Renders the snapshot as a pretty JSON object at `indent` (the
    /// whitespace prefix of the object's closing brace).
    pub fn write_json(&self, out: &mut String, indent: &str) {
        let inner = format!("{indent}  ");
        let _ = write!(out, "{{\n{inner}\"event_capacity\": {EVENT_CAPACITY},");
        let _ = write!(out, "\n{inner}\"dropped_events\": {},", self.dropped_events);

        let _ = write!(out, "\n{inner}\"counters\": ");
        write_array(out, &inner, &self.counters, |out, c| {
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"label\": \"{}\", \"value\": {}}}",
                escape(c.name),
                escape(&c.label),
                c.value
            );
        });
        out.push(',');

        let _ = write!(out, "\n{inner}\"gauges\": ");
        write_array(out, &inner, &self.gauges, |out, g| {
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"label\": \"{}\", \"value\": {}}}",
                escape(g.name),
                escape(&g.label),
                fmt_f64(g.value)
            );
        });
        out.push(',');

        let _ = write!(out, "\n{inner}\"histograms\": ");
        write_array(out, &inner, &self.histograms, |out, h| {
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"label\": \"{}\", \"count\": {}, \"sum\": {}, \
                 \"min\": {}, \"max\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \
                 \"p99\": {}, \"buckets\": [",
                escape(h.name),
                escape(&h.label),
                h.count,
                h.sum,
                h.min,
                h.max,
                fmt_f64(h.mean),
                h.p50,
                h.p90,
                h.p99,
            );
            for (i, (b, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{b}, {n}]");
            }
            out.push_str("]}");
        });
        out.push(',');

        let _ = write!(out, "\n{inner}\"spans\": ");
        write_array(out, &inner, &self.spans, |out, s| {
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"label\": \"{}\", \"count\": {}, \
                 \"total_ns\": {}, \"self_ns\": {}, \"max_ns\": {}}}",
                escape(s.name),
                escape(&s.label),
                s.count,
                s.total_ns,
                s.self_ns,
                s.max_ns
            );
        });
        out.push(',');

        let _ = write!(out, "\n{inner}\"events\": ");
        write_array(out, &inner, &self.events, |out, e| {
            let _ = write!(
                out,
                "{{\"seq\": {}, \"name\": \"{}\", \"label\": \"{}\", \"depth\": {}, \
                 \"start_ns\": {}, \"duration_ns\": {}}}",
                e.seq,
                escape(e.name),
                escape(&e.label),
                e.depth,
                e.start_ns,
                e.duration_ns
            );
        });

        let _ = write!(out, "\n{indent}}}");
    }

    /// Renders the snapshot as standalone pretty JSON.
    pub fn to_json(&self, indent_level: usize) -> String {
        let mut out = String::new();
        self.write_json(&mut out, &"  ".repeat(indent_level));
        out
    }
}

fn write_array<T>(
    out: &mut String,
    indent: &str,
    items: &[T],
    mut one: impl FnMut(&mut String, &T),
) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n{indent}  ");
        one(out, item);
    }
    let _ = write!(out, "\n{indent}]");
}

/// Escapes a JSON string body (instrument names and labels contain no
/// exotic characters, but exports must never emit invalid JSON).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Finite float formatting that is valid JSON (no NaN/inf literals).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter_add, observe, set_enabled, Label};

    fn populated() -> TelemetrySnapshot {
        let _flag = crate::flag_guard();
        set_enabled(true);
        reset();
        counter_add("a/c", Label::Cluster(1), 4);
        observe("b/h", Label::Global, 300);
        {
            let _g = crate::span_guard("c/s", Label::Global);
        }
        let snap = snapshot();
        set_enabled(false);
        snap
    }

    #[test]
    fn snapshot_copies_all_families() {
        let snap = populated();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.events.len(), 1);
        assert!(!snap.is_empty());
        assert_eq!(
            snap.subsystems().into_iter().collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        assert_eq!(
            snap.span_subsystems().into_iter().collect::<Vec<_>>(),
            vec!["c"]
        );
    }

    #[test]
    fn json_is_structurally_sound() {
        let snap = populated();
        let json = snap.to_json(0);
        assert!(json.contains("\"counters\": ["));
        assert!(json.contains("\"name\": \"a/c\""));
        assert!(json.contains("\"label\": \"cluster=1\""));
        assert!(json.contains("\"spans\": ["));
        assert!(json.contains("\"p99\": "));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_snapshot_serializes_empty_arrays() {
        let snap = TelemetrySnapshot::default();
        assert!(snap.is_empty());
        let json = snap.to_json(1);
        assert!(json.contains("\"counters\": []"));
        assert!(json.contains("\"events\": []"));
    }

    #[test]
    fn top_spans_rank_by_self_time() {
        let _flag = crate::flag_guard();
        set_enabled(true);
        reset();
        {
            let _a = crate::span_guard("x/slow", Label::Global);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _b = crate::span_guard("x/fast", Label::Global);
        }
        let snap = snapshot();
        set_enabled(false);
        let top = snap.top_spans_by_self_time(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].name, "x/slow");
    }

    /// Pushes `n` span events straight into this thread's collector,
    /// bypassing the process-global enable flag (other tests toggle it
    /// concurrently; the ring itself is thread-local and race-free).
    fn push_raw_events(n: usize) {
        with_collector(|c| {
            for _ in 0..n {
                let event = crate::registry::SpanEvent {
                    seq: c.next_seq,
                    name: "w/wrap",
                    label: crate::Label::Global,
                    depth: 0,
                    start_ns: 0,
                    duration_ns: 1,
                };
                c.next_seq += 1;
                c.push_event(event);
            }
        });
    }

    #[test]
    fn ring_wrap_surfaces_dropped_events_in_snapshot_and_json() {
        reset();
        push_raw_events(EVENT_CAPACITY + 7);
        let snap = snapshot();
        reset();
        assert_eq!(snap.dropped_events, 7, "exactly the overflow is counted");
        assert_eq!(snap.events.len(), EVENT_CAPACITY);
        // The survivors are the newest events: the oldest seqs went first.
        assert_eq!(snap.events.first().map(|e| e.seq), Some(7));
        let json = snap.to_json(0);
        assert!(json.contains("\"dropped_events\": 7,"));
        assert!(json.contains(&format!("\"event_capacity\": {EVENT_CAPACITY},")));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(1.5), "1.5");
    }
}
