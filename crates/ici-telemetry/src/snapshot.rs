//! Snapshots and export: JSON (for `results/e*.json`).
//!
//! A [`TelemetrySnapshot`] is a plain-data copy of the thread's
//! collector, decoupled from the live registry so exporters can hold it
//! across further recording. The JSON shape is documented in
//! `EXPERIMENTS.md`; `ici-sim`'s `ExperimentRecord` embeds it verbatim
//! as the record's `telemetry` section.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::registry::with_collector;
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

/// One call path of the span tree: every instance of a span opened
/// under the same chain of enclosing spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallEntry {
    /// Index of the enclosing call path in [`TelemetrySnapshot::calls`]
    /// (always below this entry's own); `None` for an outermost span.
    pub parent: Option<usize>,
    /// The path's aggregate; `self_ns` is its total minus its children's.
    pub span: SpanEntry,
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
    /// Span aggregates: [`Self::calls`] folded by name and label,
    /// ascending by (name, label).
    pub spans: Vec<SpanEntry>,
    /// The span call tree, parents before children.
    pub calls: Vec<CallEntry>,
}

/// Copies the current thread's telemetry state. Works regardless of the
/// enabled flag (a disabled thread simply has empty state).
pub fn snapshot() -> TelemetrySnapshot {
    with_collector(|c| {
        let nodes = c.calls.get(1..).unwrap_or_default();
        let calls: Vec<CallEntry> = nodes
            .iter()
            .map(|n| {
                let children = n.children.iter().filter_map(|&i| c.calls.get(i));
                let child_ns: u64 = children.map(|child| child.total_ns).sum();
                CallEntry {
                    parent: n.parent.checked_sub(1),
                    span: SpanEntry {
                        name: n.key.name,
                        label: n.key.label.render(),
                        count: n.count,
                        total_ns: n.total_ns,
                        self_ns: n.total_ns.saturating_sub(child_ns),
                        max_ns: n.max_ns,
                    },
                }
            })
            .collect();
        let mut spans: BTreeMap<Key, SpanEntry> = BTreeMap::new();
        for (n, call) in nodes.iter().zip(&calls) {
            let s = &call.span;
            let flat = spans.entry(n.key).or_insert_with(|| SpanEntry {
                count: 0,
                total_ns: 0,
                self_ns: 0,
                max_ns: 0,
                ..s.clone()
            });
            flat.count += s.count;
            flat.total_ns = flat.total_ns.saturating_add(s.total_ns);
            flat.self_ns = flat.self_ns.saturating_add(s.self_ns);
            flat.max_ns = flat.max_ns.max(s.max_ns);
        }
        TelemetrySnapshot {
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
            // A path still open at the snapshot has no instance yet.
            spans: spans.into_values().filter(|s| s.count > 0).collect(),
            calls,
        }
    })
    .unwrap_or_default()
}

/// Clears the current thread's telemetry state (instruments and the
/// call tree). Spans still open record nothing when they close.
pub fn reset() {
    with_collector(|c| c.clear());
}

impl TelemetrySnapshot {
    /// The first span aggregate named `name` (any label).
    pub fn span(&self, name: &str) -> Option<&SpanEntry> {
        self.spans.iter().find(|s| s.name == name)
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
        let _ = write!(out, "{{\n{inner}\"counters\": ");
        write_array(out, &inner, &self.counters, |out, c| {
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"label\": \"{}\", \"value\": {}}}",
                escape_json(c.name),
                escape_json(&c.label),
                c.value
            );
        });
        out.push(',');

        let _ = write!(out, "\n{inner}\"gauges\": ");
        write_array(out, &inner, &self.gauges, |out, g| {
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"label\": \"{}\", \"value\": {}}}",
                escape_json(g.name),
                escape_json(&g.label),
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
                escape_json(h.name),
                escape_json(&h.label),
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
            out.push('{');
            write_span(out, s);
        });
        out.push(',');

        let _ = write!(out, "\n{inner}\"calls\": ");
        write_array(out, &inner, &self.calls, |out, c| {
            match c.parent {
                Some(p) => _ = write!(out, "{{\"parent\": {p}, "),
                None => out.push_str("{\"parent\": null, "),
            }
            write_span(out, &c.span);
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

/// A span aggregate's fields and the closing brace of its object.
fn write_span(out: &mut String, s: &SpanEntry) {
    let _ = write!(
        out,
        "\"name\": \"{}\", \"label\": \"{}\", \"count\": {}, \
         \"total_ns\": {}, \"self_ns\": {}, \"max_ns\": {}}}",
        escape_json(s.name),
        escape_json(&s.label),
        s.count,
        s.total_ns,
        s.self_ns,
        s.max_ns
    );
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

/// Escapes `s` as the contents of a JSON string literal (instrument
/// names and labels contain no exotic characters, but exports must never
/// emit invalid JSON). `ici-sim`'s records use it too.
pub fn escape_json(s: &str) -> String {
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
        assert_eq!(snap.calls.len(), 1);
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
        let json = TelemetrySnapshot::default().to_json(1);
        assert!(json.contains("\"counters\": []"));
        assert!(json.contains("\"calls\": []"));
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

    #[test]
    fn spans_fold_the_call_tree_by_name_and_label() {
        // Straight into this thread's collector: other tests toggle the
        // process-global enable flag concurrently.
        reset();
        with_collector(|c| {
            let key = |name, n| Key::new(name, Label::Cluster(n));
            for (outer, ns) in [(key("f/a", 10), 50), (key("f/a", 2), 30)] {
                let o = c.enter(outer);
                let i = c.enter(key("f/leaf", 1));
                c.exit(i, ns - 20);
                c.exit(o, ns);
            }
        });
        let snap = snapshot();
        reset();
        let folded: Vec<_> = snap
            .spans
            .iter()
            .map(|s| (s.name, s.label.as_str(), s.count, s.total_ns, s.self_ns))
            .collect();
        // Labels order by value, not by their rendering.
        assert_eq!(
            folded,
            vec![
                ("f/a", "cluster=2", 1, 30, 20),
                ("f/a", "cluster=10", 1, 50, 20),
                ("f/leaf", "cluster=1", 2, 40, 40),
            ]
        );
        let parents: Vec<_> = snap.calls.iter().map(|c| c.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None, Some(2)]);
        let json = snap.to_json(0);
        assert!(json.contains("{\"parent\": null, \"name\": \"f/a\", \"label\": \"cluster=10\""));
        assert!(json.contains("{\"parent\": 2, \"name\": \"f/leaf\""));
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(1.5), "1.5");
    }
}
