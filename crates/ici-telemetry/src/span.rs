//! Span tracing: RAII guards over [`Instant`].
//!
//! A span measures one dynamic extent of a named operation. Guards nest:
//! while a guard is live, any guard opened on the same thread is its
//! child, and on close a parent learns how much of its wall time was
//! spent inside children — the exported *self time* is what the span
//! itself cost. Aggregates land in the registry keyed by name+label;
//! each completed instance also lands in the bounded event ring buffer
//! with its depth and start offset, preserving the tree shape.

use std::time::Instant;

use crate::registry::{with_collector, Frame, SpanEvent, SpanStats};
use crate::{Key, Label};

/// RAII guard for one span instance; closes (and records) on drop.
///
/// Created by [`span_guard`] or the [`crate::span!`] macro. Inert when
/// telemetry was disabled at open time.
#[must_use = "binding the guard keeps the span open until end of scope"]
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    label: Label,
    started: Instant,
    start_ns: u64,
    depth: usize,
}

/// Opens a span. Prefer the [`crate::span!`] macro, which adds label
/// sugar. When telemetry is disabled the returned guard is inert and
/// this call performs one relaxed atomic load; the recording body is
/// `#[cold]`-outlined so it never bloats the caller's instruction stream.
#[inline(always)]
pub fn span_guard(name: &'static str, label: Label) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { open: None };
    }
    open_span(name, label)
}

#[cold]
#[inline(never)]
fn open_span(name: &'static str, label: Label) -> SpanGuard {
    // lint:allow(wall-clock) -- span timing measures the host, never
    // feeds protocol state; exported metrics carry counts, not times
    let started = Instant::now();
    let open = with_collector(|c| {
        let epoch = *c.epoch.get_or_insert(started);
        let depth = c.stack.len();
        c.stack.push(Frame::default());
        let start_ns = saturating_ns(started.duration_since(epoch).as_nanos());
        (start_ns, depth)
    });
    match open {
        Some((start_ns, depth)) => SpanGuard {
            open: Some(OpenSpan {
                name,
                label,
                started,
                start_ns,
                depth,
            }),
        },
        None => SpanGuard { open: None },
    }
}

fn saturating_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

impl Drop for SpanGuard {
    #[inline(always)]
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            close_span(open);
        }
    }
}

#[cold]
#[inline(never)]
fn close_span(open: OpenSpan) {
    let elapsed_ns = saturating_ns(open.started.elapsed().as_nanos());
    with_collector(|c| {
        // The frame pushed at open; an unbalanced stack (reset with
        // guards live) degrades to zero child time rather than
        // misattributing another frame's.
        let child_ns = if c.stack.len() > open.depth {
            c.stack.pop().map(|f| f.child_ns).unwrap_or(0)
        } else {
            0
        };
        let self_ns = elapsed_ns.saturating_sub(child_ns);
        if let Some(parent) = c.stack.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(elapsed_ns);
        }
        let stats = c
            .spans
            .entry(Key::new(open.name, open.label))
            .or_insert_with(SpanStats::default);
        stats.count += 1;
        stats.total_ns = stats.total_ns.saturating_add(elapsed_ns);
        stats.self_ns = stats.self_ns.saturating_add(self_ns);
        stats.max_ns = stats.max_ns.max(elapsed_ns);
        let seq = c.next_seq;
        c.next_seq += 1;
        c.push_event(SpanEvent {
            seq,
            name: open.name,
            label: open.label,
            depth: open.depth,
            start_ns: open.start_ns,
            duration_ns: elapsed_ns,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_enabled, snapshot};

    fn spin(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _flag = crate::flag_guard();
        set_enabled(false);
        crate::reset();
        {
            let _g = span_guard("t/never", Label::Global);
        }
        set_enabled(true);
        let snap = snapshot();
        set_enabled(false);
        assert!(snap.spans.iter().all(|s| s.name != "t/never"));
    }

    #[test]
    fn nested_spans_split_self_and_child_time() {
        let _flag = crate::flag_guard();
        set_enabled(true);
        crate::reset();
        {
            let _outer = span_guard("t/outer", Label::Global);
            spin(200);
            {
                let _inner = span_guard("t/inner", Label::Global);
                spin(400);
            }
            spin(100);
        }
        let snap = snapshot();
        set_enabled(false);
        let outer = snap.span("t/outer").expect("outer recorded");
        let inner = snap.span("t/inner").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        // Outer self time excludes the inner 400 µs.
        assert!(
            outer.self_ns < outer.total_ns,
            "outer self {} vs total {}",
            outer.self_ns,
            outer.total_ns
        );
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns,
            "child time not deducted"
        );
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn events_preserve_tree_shape() {
        let _flag = crate::flag_guard();
        set_enabled(true);
        crate::reset();
        {
            let _a = span_guard("t/a", Label::Cluster(1));
            let _b = span_guard("t/b", Label::Global);
        }
        let snap = snapshot();
        set_enabled(false);
        let a = snap.events.iter().find(|e| e.name == "t/a").expect("a");
        let b = snap.events.iter().find(|e| e.name == "t/b").expect("b");
        assert_eq!(a.depth, 0);
        assert_eq!(b.depth, 1);
        assert!(b.seq < a.seq, "inner closes first");
        assert_eq!(a.label, "cluster=1");
    }

    #[test]
    fn repeated_spans_aggregate() {
        let _flag = crate::flag_guard();
        set_enabled(true);
        crate::reset();
        for _ in 0..5 {
            let _g = span_guard("t/rep", Label::Global);
        }
        let snap = snapshot();
        set_enabled(false);
        let rep = snap.span("t/rep").expect("recorded");
        assert_eq!(rep.count, 5);
        assert!(rep.max_ns <= rep.total_ns);
    }
}
