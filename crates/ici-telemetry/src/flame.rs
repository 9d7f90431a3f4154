//! Flamegraph-style text rendering of the span call tree.
//!
//! Span aggregates ([`crate::snapshot::SpanEntry`]) tell you *how much*
//! time each span name consumed, but not *under which callers*. The
//! snapshot's call tree ([`TelemetrySnapshot::calls`]) already merges
//! identical frames (same name and label under the same parent path),
//! exactly like a classic flamegraph, so [`render_flamegraph`] prints it
//! as it is: one line per call path with indented name, total wall time,
//! share of the root total, instance count, and a proportional bar.
//! Siblings are ordered by descending total time with name/label
//! tiebreaks, so output is deterministic for a given snapshot, which
//! keeps it golden-testable.

use std::fmt::Write as _;

use crate::snapshot::{SpanEntry, TelemetrySnapshot};

/// The frame's display text: `name`, plus ` [label]` when scoped.
fn display(span: &SpanEntry) -> String {
    if span.label.is_empty() {
        span.name.to_string()
    } else {
        format!("{} [{}]", span.name, span.label)
    }
}

/// Nanoseconds as fixed-point milliseconds (three decimals).
fn fmt_ns(ns: u64) -> String {
    format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

/// Renders the snapshot's call tree as a flamegraph-style text tree.
///
/// `bar_width` is the width of the proportional `#` bar (percentages
/// are relative to the sum of all root frames). Returns a multi-line
/// string ending in a newline; deterministic for a given snapshot.
pub fn render_flamegraph(snapshot: &TelemetrySnapshot, bar_width: usize) -> String {
    let calls = &snapshot.calls;
    // children[i] lists call i's children; the extra last slot the roots.
    // A parent is always an earlier call, which also rules out cycles.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); calls.len() + 1];
    for (i, call) in calls.iter().enumerate() {
        children[call.parent.filter(|&p| p < i).unwrap_or(calls.len())].push(i);
    }
    for siblings in &mut children {
        siblings.sort_by(|&a, &b| {
            let (a, b) = (&calls[a].span, &calls[b].span);
            b.total_ns
                .cmp(&a.total_ns)
                .then(a.name.cmp(b.name))
                .then(a.label.cmp(&b.label))
        });
    }
    let roots = &children[calls.len()];
    let grand_total: u64 = roots.iter().map(|&r| calls[r].span.total_ns).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flame graph: {} call paths, {} total",
        calls.len(),
        fmt_ns(grand_total)
    );
    if roots.is_empty() {
        out.push_str("  (no spans recorded)\n");
        return out;
    }
    // Depth-first, in display order: (indented text, span).
    let mut lines: Vec<(String, &SpanEntry)> = Vec::with_capacity(calls.len());
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&r| (0, r)).collect();
    while let Some((level, i)) = stack.pop() {
        let span = &calls[i].span;
        lines.push((format!("{}{}", "  ".repeat(level), display(span)), span));
        stack.extend(children[i].iter().rev().map(|&c| (level + 1, c)));
    }
    let name_width = lines.iter().map(|(text, _)| text.chars().count()).max();
    let name_width = name_width.unwrap_or(0);
    let grand_total = grand_total.max(1);
    for (text, span) in lines {
        let pct = span.total_ns as f64 * 100.0 / grand_total as f64;
        let filled = (span.total_ns as u128 * bar_width as u128) / grand_total as u128;
        let filled = usize::try_from(filled).unwrap_or(bar_width).min(bar_width);
        let bar = format!("{}{}", "#".repeat(filled), " ".repeat(bar_width - filled));
        let _ = writeln!(
            out,
            "{text:<name_width$}  {dur:>11}  {pct:>5.1}%  x{count:<4} |{bar}|",
            dur = fmt_ns(span.total_ns),
            count = span.count,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::CallEntry;

    fn call(
        parent: Option<usize>,
        name: &'static str,
        label: &str,
        count: u64,
        ms: u64,
    ) -> CallEntry {
        CallEntry {
            parent,
            span: SpanEntry {
                name,
                label: label.to_string(),
                count,
                total_ns: ms * 1_000_000,
                self_ns: 0,
                max_ns: 0,
            },
        }
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let snap = TelemetrySnapshot::default();
        let text = render_flamegraph(&snap, 20);
        assert!(text.contains("0 call paths, 0.000ms total"));
        assert!(text.contains("(no spans recorded)"));
    }

    #[test]
    fn golden_flamegraph_rendering() {
        let snap = TelemetrySnapshot {
            calls: vec![
                call(None, "b/side", "cluster=1", 1, 100),
                call(None, "a/outer", "", 1, 100),
                call(Some(1), "a/inner", "", 2, 70),
                call(Some(2), "a/leaf", "", 2, 10),
                call(Some(1), "a/quick", "", 1, 20),
            ],
            ..TelemetrySnapshot::default()
        };
        let text = render_flamegraph(&snap, 20);
        let expected = "\
flame graph: 5 call paths, 200.000ms total
a/outer               100.000ms   50.0%  x1    |##########          |
  a/inner              70.000ms   35.0%  x2    |#######             |
    a/leaf             10.000ms    5.0%  x2    |#                   |
  a/quick              20.000ms   10.0%  x1    |##                  |
b/side [cluster=1]    100.000ms   50.0%  x1    |##########          |
";
        assert_eq!(text, expected);
    }
}
