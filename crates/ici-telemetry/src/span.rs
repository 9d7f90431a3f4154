//! Span tracing: RAII guards over [`Instant`].
//!
//! A span measures one dynamic extent of a named operation. Guards nest:
//! while a guard is live, any guard opened on the same thread is its
//! child. Each guard charges its wall time to its call path's node in
//! the registry's call tree; *self time* (what the span itself cost) is
//! the node's total minus its children's, read at snapshot time.

use std::time::Instant;

use crate::registry::with_collector;
use crate::{Key, Label};

/// RAII guard for one span instance; closes (and records) on drop.
///
/// Created by [`span_guard`] or the [`crate::span!`] macro. Inert when
/// telemetry was disabled at open time, and records nothing when the
/// collector was [`crate::reset`] while it was open.
#[must_use = "binding the guard keeps the span open until end of scope"]
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    node: usize,
    generation: u64,
    started: Instant,
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
    let entered = with_collector(|c| (c.enter(Key::new(name, label)), c.generation));
    SpanGuard {
        open: entered.map(|(node, generation)| OpenSpan {
            node,
            generation,
            // lint:allow(wall-clock) -- span timing measures the host, never
            // feeds protocol state; exported metrics carry counts, not times
            started: Instant::now(),
        }),
    }
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
    let elapsed_ns = u64::try_from(open.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    with_collector(|c| {
        if c.generation == open.generation {
            c.exit(open.node, elapsed_ns);
        }
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
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns < outer.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn calls_preserve_tree_shape() {
        let _flag = crate::flag_guard();
        set_enabled(true);
        crate::reset();
        {
            let _a = span_guard("t/a", Label::Cluster(1));
            let _b = span_guard("t/b", Label::Global);
        }
        let snap = snapshot();
        set_enabled(false);
        let a = snap.calls.iter().position(|c| c.span.name == "t/a");
        let b = snap.calls.iter().find(|c| c.span.name == "t/b").expect("b");
        assert_eq!(snap.calls[a.expect("a")].parent, None);
        assert_eq!(snap.calls[a.expect("a")].span.label, "cluster=1");
        assert_eq!(b.parent, a);
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
        assert_eq!(snap.calls.len(), 1);
    }

    #[test]
    fn a_guard_open_across_reset_records_nothing() {
        let _flag = crate::flag_guard();
        set_enabled(true);
        crate::reset();
        let stale = span_guard("t/stale", Label::Global);
        crate::reset();
        {
            let _fresh = span_guard("t/fresh", Label::Global);
        }
        drop(stale);
        let snap = snapshot();
        set_enabled(false);
        assert!(snap.span("t/stale").is_none());
        let fresh = snap.calls.iter().find(|c| c.span.name == "t/fresh");
        assert_eq!(fresh.map(|c| (c.parent, c.span.count)), Some((None, 1)));
    }

    #[test]
    fn a_guard_dropped_out_of_order_closes_what_it_encloses() {
        let _flag = crate::flag_guard();
        set_enabled(true);
        crate::reset();
        let outer = span_guard("t/outer", Label::Global);
        let inner = span_guard("t/inner", Label::Global);
        drop(outer);
        // The open stack is back at the root: this span is outermost.
        {
            let _next = span_guard("t/next", Label::Global);
        }
        drop(inner);
        let snap = snapshot();
        set_enabled(false);
        let parent_of = |name| {
            snap.calls
                .iter()
                .find(|c| c.span.name == name)
                .map(|c| c.parent)
        };
        assert_eq!(parent_of("t/outer"), Some(None));
        assert_eq!(parent_of("t/inner"), Some(Some(0)));
        assert_eq!(parent_of("t/next"), Some(None));
        assert_eq!(snap.span("t/inner").map(|s| s.count), Some(1));
    }
}
