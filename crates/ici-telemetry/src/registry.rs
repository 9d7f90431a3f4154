//! The thread-local instrument registry.
//!
//! All telemetry state lives in one thread-local `Collector`: typed
//! instruments (counters, gauges, histograms) and the span call tree.
//! Thread-locality keeps recording lock-free and isolates parallel test
//! threads; the simulator itself is single-threaded, so one collector
//! sees a whole run.
//!
//! The call tree has one node per distinct call path — (parent node,
//! name, label) — holding count, total and max. Opening a span finds or
//! creates its node under the innermost open one; closing it charges
//! the node. Memory is bounded by the number of distinct paths, so
//! nothing is ever dropped.
//!
//! Every public recording function is gated on [`crate::enabled`] and
//! is a no-op (one relaxed atomic load) when telemetry is off. Re-entry
//! through `try_borrow_mut` is impossible by construction (no recording
//! call invokes another), but the guard keeps the crate panic-free even
//! if that changes.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::{Key, Label};

/// Index of the call tree's root: the node outermost spans open under.
/// It is never charged and never exported.
pub(crate) const ROOT: usize = 0;

/// One call path: every instance of `key` opened while `parent` was the
/// innermost open span.
#[derive(Debug)]
pub(crate) struct CallNode {
    pub(crate) parent: usize,
    pub(crate) key: Key,
    pub(crate) children: Vec<usize>,
    pub(crate) count: u64,
    pub(crate) total_ns: u64,
    pub(crate) max_ns: u64,
}

impl CallNode {
    fn new(parent: usize, key: Key) -> CallNode {
        CallNode {
            parent,
            key,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }
}

/// All telemetry state for one thread.
#[derive(Debug)]
pub(crate) struct Collector {
    pub(crate) counters: BTreeMap<Key, u64>,
    pub(crate) gauges: BTreeMap<Key, f64>,
    pub(crate) hists: BTreeMap<Key, Histogram>,
    /// The call tree in creation order, so a parent precedes its children.
    pub(crate) calls: Vec<CallNode>,
    /// The innermost open span's node ([`ROOT`] when none is open).
    pub(crate) open: usize,
    /// Bumped by every clear: a guard opened before it records nothing.
    pub(crate) generation: u64,
}

impl Collector {
    fn new(generation: u64) -> Collector {
        Collector {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            calls: vec![CallNode::new(ROOT, Key::new("", Label::Global))],
            open: ROOT,
            generation,
        }
    }

    /// Opens a span of `key` under the innermost open one and returns
    /// its node, created on the path's first open.
    pub(crate) fn enter(&mut self, key: Key) -> usize {
        let (parent, calls) = (self.open, &self.calls);
        // Siblings differ mostly by label (one per cluster), so it is
        // compared first.
        let same = |&i: &usize| {
            let k = calls.get(i).map(|n| n.key);
            k.is_some_and(|k| k.label == key.label && k.name == key.name)
        };
        let found = calls
            .get(parent)
            .and_then(|p| p.children.iter().copied().find(same));
        let node = found.unwrap_or_else(|| {
            let node = self.calls.len();
            self.calls.push(CallNode::new(parent, key));
            if let Some(p) = self.calls.get_mut(parent) {
                p.children.push(node);
            }
            node
        });
        self.open = node;
        node
    }

    /// Charges one `elapsed_ns` instance to `node` and, when `node` is on
    /// the open path, truncates the path to its parent: a guard dropped
    /// out of order also closes every span still open inside it.
    pub(crate) fn exit(&mut self, node: usize, elapsed_ns: u64) {
        let Some(n) = self.calls.get_mut(node) else {
            return;
        };
        n.count += 1;
        n.total_ns = n.total_ns.saturating_add(elapsed_ns);
        n.max_ns = n.max_ns.max(elapsed_ns);
        let parent = n.parent;
        // Parents precede children, so the walk ends at the root.
        let mut at = self.open;
        while at != node && at != ROOT {
            at = self.calls.get(at).map_or(ROOT, |n| n.parent);
        }
        if at == node {
            self.open = parent;
        }
    }

    pub(crate) fn clear(&mut self) {
        *self = Collector::new(self.generation.wrapping_add(1));
    }
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::new(0));
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
    fn a_call_path_is_one_node_however_often_it_opens() {
        let mut c = Collector::new(0);
        let outer = Key::new("t/outer", Label::Global);
        let inner = |n| Key::new("t/inner", Label::Cluster(n));
        for _ in 0..3 {
            let o = c.enter(outer);
            for n in 0..4 {
                let i = c.enter(inner(n));
                c.exit(i, 1);
            }
            c.exit(o, 10);
        }
        // The root, one outer and four inner paths.
        assert_eq!(c.calls.len(), 6);
        assert_eq!(c.open, ROOT);
        assert_eq!((c.calls[1].count, c.calls[1].total_ns), (3, 30));
        assert_eq!(c.calls[1].children, vec![2, 3, 4, 5]);
        assert!(c.calls[2..].iter().all(|n| n.parent == 1 && n.count == 3));
    }
}
