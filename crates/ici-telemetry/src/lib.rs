//! Workspace-wide tracing, metrics, and profiling.
//!
//! The experiment binaries report end-of-run aggregates (storage,
//! traffic, latency); this crate explains *where* time and bytes go
//! inside a run. It is std-only (hermetic-build policy), panic-free in
//! non-test code, and designed around a hard requirement: **when
//! telemetry is disabled, instrumentation must cost almost nothing** so
//! the simulator's cost model stays honest.
//!
//! Three instrument families, all scoped by an optional [`Label`]
//! (node, cluster, or protocol phase):
//!
//! * **Counters** — monotonic `u64` accumulators ([`counter_add`]).
//! * **Gauges** — last-write-wins `f64` samples ([`gauge_set`]).
//! * **Histograms** — fixed power-of-two bucket distributions for
//!   latencies and sizes ([`observe`]).
//!
//! Plus lightweight **span tracing**: the [`span!`] macro returns an
//! RAII guard built on [`std::time::Instant`]; nested guards form one
//! call tree per thread, one node per distinct call path, each with
//! call count, total and max wall time. Snapshots fold it by name and
//! label into per-span aggregates with *self* time (total minus time
//! spent in child spans), and render it as a flame graph.
//!
//! All state is thread-local, so parallel test threads never interfere;
//! a process-global atomic flag gates every recording call. Snapshots
//! export as JSON (riding `ici-sim`'s `results/e*.json` records).
//!
//! # Examples
//!
//! ```
//! ici_telemetry::set_enabled(true);
//! ici_telemetry::reset();
//!
//! {
//!     let _outer = ici_telemetry::span!("demo/outer");
//!     let _inner = ici_telemetry::span!("demo/inner", cluster = 3u32);
//!     ici_telemetry::counter_add("demo/widgets", ici_telemetry::Label::Global, 2);
//!     ici_telemetry::observe("demo/bytes", ici_telemetry::Label::Global, 4096);
//! }
//!
//! let snap = ici_telemetry::snapshot();
//! assert_eq!(snap.counters[0].value, 2);
//! assert_eq!(snap.spans.len(), 2);
//! assert_eq!(snap.calls[1].parent, Some(0)); // demo/inner under demo/outer
//! assert!(snap.to_json(0).contains("demo/outer"));
//! ici_telemetry::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flame;
pub mod hist;
pub mod registry;
pub mod snapshot;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};

pub use flame::render_flamegraph;
pub use hist::Histogram;
pub use registry::{counter_add, gauge_set, observe};
pub use snapshot::{
    reset, snapshot, CallEntry, CounterEntry, GaugeEntry, HistogramEntry, SpanEntry,
    TelemetrySnapshot,
};
pub use span::{span_guard, SpanGuard};

/// Process-wide enable flag. Every recording call loads it with relaxed
/// ordering and bails out immediately when off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Environment variable consulted by [`init_from_env`].
pub const ENV_VAR: &str = "ICI_TELEMETRY";

/// Turns telemetry collection on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry collection is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Serializes unit tests that toggle [`set_enabled`]: the flag is
/// process-global while collectors are thread-local, so without the
/// guard a concurrently running test can flip recording off
/// mid-assertion.
#[cfg(test)]
pub(crate) fn flag_guard() -> std::sync::MutexGuard<'static, ()> {
    static FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Enables telemetry when `ICI_TELEMETRY` is set to `1` or `true`.
/// Returns the resulting enabled state.
pub fn init_from_env() -> bool {
    let on = std::env::var(ENV_VAR)
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);
    if on {
        set_enabled(true);
    }
    enabled()
}

/// Scope of an instrument: which node, cluster, or protocol phase a
/// sample belongs to. `Global` means unscoped.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Label {
    /// No scope — a workspace-wide aggregate.
    Global,
    /// Scoped to one node id.
    Node(u64),
    /// Scoped to one cluster id.
    Cluster(u64),
    /// Scoped to a named protocol phase (or message class).
    Phase(&'static str),
}

impl Label {
    /// Renders the label as a `key=value` string; empty for `Global`.
    pub fn render(&self) -> String {
        match self {
            Label::Global => String::new(),
            Label::Node(n) => format!("node={n}"),
            Label::Cluster(c) => format!("cluster={c}"),
            Label::Phase(p) => format!("phase={p}"),
        }
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(&self.render())
    }
}

/// Instrument identity: a static name plus a [`Label`] scope.
///
/// Names use a `subsystem/operation` convention (`"consensus/pbft_round"`,
/// `"crypto/rs_encode"`) so exports can group by subsystem.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Key {
    /// Instrument name, `subsystem/operation`.
    pub name: &'static str,
    /// Scope of this series.
    pub label: Label,
}

impl Key {
    /// Builds a key.
    pub fn new(name: &'static str, label: Label) -> Key {
        Key { name, label }
    }

    /// The `subsystem` half of the name (text before the first `/`).
    pub fn subsystem(&self) -> &'static str {
        match self.name.split_once('/') {
            Some((s, _)) => s,
            None => self.name,
        }
    }
}

/// Opens a traced span. Expands to a call returning a [`SpanGuard`];
/// bind it (`let _span = span!(..)`) so it lives to the end of scope.
///
/// Forms:
///
/// * `span!("name")` — unscoped;
/// * `span!("name", cluster = id)` — scoped to a cluster;
/// * `span!("name", node = id)` — scoped to a node;
/// * `span!("name", phase = "prepare")` — scoped to a phase.
///
/// When telemetry is disabled the guard is inert and the expansion costs
/// one relaxed atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_guard($name, $crate::Label::Global)
    };
    ($name:expr, cluster = $v:expr) => {
        $crate::span_guard($name, $crate::Label::Cluster(u64::from($v)))
    };
    ($name:expr, node = $v:expr) => {
        $crate::span_guard($name, $crate::Label::Node(u64::from($v)))
    };
    ($name:expr, phase = $v:expr) => {
        $crate::span_guard($name, $crate::Label::Phase($v))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_flag_round_trips() {
        let _flag = crate::flag_guard();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn labels_render_compactly() {
        assert_eq!(Label::Global.render(), "");
        assert_eq!(Label::Node(7).render(), "node=7");
        assert_eq!(Label::Cluster(2).render(), "cluster=2");
        assert_eq!(Label::Phase("prepare").render(), "phase=prepare");
        assert_eq!(format!("{:<10}|", Label::Node(7)), "node=7    |");
    }

    #[test]
    fn key_subsystem_is_the_prefix() {
        assert_eq!(
            Key::new("consensus/pbft_round", Label::Global).subsystem(),
            "consensus"
        );
        assert_eq!(Key::new("plain", Label::Global).subsystem(), "plain");
    }

    #[test]
    fn keys_order_by_name_then_label() {
        let a = Key::new("a", Label::Cluster(1));
        let b = Key::new("a", Label::Cluster(2));
        let c = Key::new("b", Label::Global);
        assert!(a < b && b < c);
    }

    #[test]
    fn init_from_env_defaults_off() {
        let _flag = crate::flag_guard();
        std::env::remove_var(ENV_VAR);
        set_enabled(false);
        assert!(!init_from_env());
    }
}
