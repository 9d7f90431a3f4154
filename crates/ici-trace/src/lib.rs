//! Deterministic causal event tracing on the simulated clock.
//!
//! `ici-trace` records structured events timestamped in **virtual
//! microseconds** — the `ici-net` simulated clock — never wall time, so
//! a trace of a pinned-seed experiment is byte-reproducible on any
//! host. Events carry causal ids:
//! every traced [`Network::send`](../ici_net/struct.Network.html) mints
//! an id the receiver's handler inherits as its `parent`, and lifecycle
//! stages are keyed by `(height, cluster, node, stage)`, so a block's
//! path propose → distribute → verify → commit → store is
//! reconstructable across nodes from the event log alone.
//!
//! # Gating
//!
//! Tracing is off by default. Every event goes through one entry
//! point, [`record`], which an emitter calls with a [`TraceEvent`]
//! built field by field, after checking [`enabled`] — a single relaxed
//! atomic load — so the disabled path builds nothing and costs ~a
//! nanosecond per hook (measured by `ici-bench`'s telemetry bench,
//! alongside the span figure). `record` checks the flag again, so a
//! call that skips the check still records nothing while tracing is
//! off. Enable with `ICI_TRACE=1` (see [`init_from_env`]) or
//! [`set_enabled`] in tests.
//!
//! # Collectors
//!
//! Collectors are thread-local, so parallel test threads never
//! interfere; a run happens on one thread and one collector sees all of
//! it. The bounded ring drops oldest-first, keeping the last
//! [`EVENT_CAPACITY`] events; the loss is surfaced in
//! [`TraceSnapshot::dropped`], never silent.
//!
//! # Exporters
//!
//! [`export::canonical_json`] renders the event log as a standalone
//! JSON document (`results/TRACE_<id>.json`); [`export::chrome_json`]
//! renders a Chrome trace-event file loadable in `chrome://tracing` or
//! Perfetto, mapping virtual µs to trace timestamps with one process
//! per cluster and one thread per node. [`series`] holds the per-round
//! time-series sampler that rides the `ExperimentRecord` export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod series;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

/// Environment variable that enables tracing when set to `1`/`true`.
pub const ENV_VAR: &str = "ICI_TRACE";

/// Environment variable overriding the trace output directory
/// (defaults to `results`).
pub const OUT_ENV_VAR: &str = "ICI_TRACE_OUT";

/// Maximum buffered events per thread before the ring drops
/// oldest-first (surfaced via [`TraceSnapshot::dropped`]).
pub const EVENT_CAPACITY: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns trace collection on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is enabled. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables tracing when `ICI_TRACE` is `1` or `true` (any case).
pub fn init_from_env() {
    if let Ok(raw) = std::env::var(ENV_VAR) {
        let on = raw == "1" || raw.eq_ignore_ascii_case("true");
        set_enabled(on);
    }
}

/// Directory trace exports are written into: `ICI_TRACE_OUT` when set
/// and non-empty, else `results`.
pub fn out_dir() -> String {
    match std::env::var(OUT_ENV_VAR) {
        Ok(dir) if !dir.is_empty() => dir,
        _ => String::from("results"),
    }
}

/// Event class, coarser than the event name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// A network transmission (one `Network::send` that opted in).
    Send,
    /// A lifecycle stage with a begin time and a duration.
    Stage,
    /// An instantaneous annotation (crash, restart, …); the default,
    /// as the event whose duration and bytes are zero.
    #[default]
    Mark,
}

impl TraceKind {
    /// Stable lower-case label used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Send => "send",
            TraceKind::Stage => "stage",
            TraceKind::Mark => "mark",
        }
    }
}

/// One recorded event. All times are virtual microseconds.
///
/// Emitters name every field they set and take the rest from
/// [`Default`] (`..TraceEvent::default()`): zero times and bytes, no
/// cluster, node or peer. [`record`] assigns `seq`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global record order, assigned by the collector. A run records on
    /// one thread into one ring, so this is the order events happened
    /// in.
    pub seq: u64,
    /// Event class.
    pub kind: TraceKind,
    /// Stable event name, e.g. `consensus/commit` or a message kind.
    pub name: &'static str,
    /// Begin time on the virtual clock, µs.
    pub at_us: u64,
    /// Duration on the virtual clock, µs (0 for marks and lost sends).
    pub dur_us: u64,
    /// Block height the event belongs to (0 when not height-scoped).
    pub height: u64,
    /// Cluster the event belongs to, when cluster-scoped.
    pub cluster: Option<u64>,
    /// Acting node (sender for [`TraceKind::Send`]).
    pub node: Option<u64>,
    /// Peer node (receiver for [`TraceKind::Send`]).
    pub peer: Option<u64>,
    /// Payload bytes attributed to the event (0 when not applicable).
    pub bytes: u64,
    /// Causal id of this event (non-zero; from [`send_id`] or
    /// [`derive_id`]).
    pub id: u64,
    /// Causal id of the event this one descends from (0 = root).
    pub parent: u64,
}

/// Causal context a [`Network`](../ici_net/struct.Network.html) stamps
/// onto traced sends. Plain data, so a sequence stream carries it by
/// value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SendCtx {
    /// Emit one event per `send` while set. Off by default so bulk
    /// chatter (votes, gossip) is summarised by stages, not per-send.
    pub sends: bool,
    /// Virtual time the surrounding operation started, µs.
    pub at_us: u64,
    /// Block height the sends belong to.
    pub height: u64,
    /// Cluster the sends belong to.
    pub cluster: Option<u64>,
    /// Causal parent inherited by events recorded under this context.
    pub parent: u64,
}

const SEND_SALT: u64 = 0x5EED_0000_0000_0001;

/// splitmix64 step + finalizer; the workspace-standard bit mixer.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn nonzero(id: u64) -> u64 {
    if id == 0 {
        1
    } else {
        id
    }
}

/// The id a send with network sequence number `seq` will carry. Pure
/// function of the sequence counter, so sender and
/// receiver sides agree without any shared mutable state.
pub fn send_id(seq: u64) -> u64 {
    nonzero(mix(seq ^ SEND_SALT))
}

/// Derives a child id from a parent id and a small salt (never 0).
pub fn derive_id(parent: u64, salt: u64) -> u64 {
    nonzero(mix(parent ^ mix(salt)))
}

#[derive(Debug, Default)]
struct Collector {
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

impl Collector {
    fn push(&mut self, mut event: TraceEvent) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == EVENT_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::default());
}

fn with_collector<T>(f: impl FnOnce(&mut Collector) -> T) -> Option<T> {
    COLLECTOR.with(|cell| cell.try_borrow_mut().ok().map(|mut c| f(&mut c)))
}

/// Records `event` on the calling thread's collector, which assigns its
/// [`TraceEvent::seq`]. No-op unless tracing is enabled. Emitters check
/// [`enabled`] before they build an event, so an untraced run never
/// constructs one; `#[cold]` keeps that construction off their hot path.
#[cold]
pub fn record(event: TraceEvent) {
    if enabled() {
        with_collector(|c| c.push(event));
    }
}

/// Everything the calling thread's collector holds right now.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Buffered events in record order.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap (oldest-first) since the last reset.
    pub dropped: u64,
}

/// Copies the calling thread's buffered events without draining them.
pub fn snapshot() -> TraceSnapshot {
    with_collector(|c| TraceSnapshot {
        events: c.events.iter().cloned().collect(),
        dropped: c.dropped,
    })
    .unwrap_or_default()
}

/// Clears the calling thread's collector (events, dropped counter, and
/// sequence numbering).
pub fn reset() {
    with_collector(|c| *c = Collector::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The enabled flag is process-global while collectors are
    // thread-local; serialize tests that toggle it so a concurrently
    // running test cannot flip recording on/off mid-assertion.
    static FLAG_LOCK: Mutex<()> = Mutex::new(());

    fn flag_guard() -> std::sync::MutexGuard<'static, ()> {
        FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stage(name: &'static str) -> TraceEvent {
        TraceEvent {
            kind: TraceKind::Stage,
            name,
            at_us: 10,
            dur_us: 5,
            height: 1,
            cluster: Some(2),
            node: Some(3),
            bytes: 100,
            id: derive_id(7, 0),
            ..TraceEvent::default()
        }
    }

    fn send(name: &'static str) -> TraceEvent {
        TraceEvent {
            kind: TraceKind::Send,
            name,
            at_us: 1,
            dur_us: 2,
            height: 6,
            cluster: Some(7),
            node: Some(3),
            peer: Some(4),
            bytes: 5,
            id: send_id(9),
            parent: 8,
            ..TraceEvent::default()
        }
    }

    fn mark(name: &'static str) -> TraceEvent {
        TraceEvent {
            kind: TraceKind::Mark,
            name,
            at_us: 2,
            node: Some(1),
            id: derive_id(2, 0),
            ..TraceEvent::default()
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let _flag = flag_guard();
        set_enabled(false);
        reset();
        record(stage("t/never"));
        record(send("t/never"));
        record(mark("t/never"));
        assert!(snapshot().events.is_empty());
    }

    #[test]
    fn events_are_sequenced_in_record_order() {
        let _flag = flag_guard();
        set_enabled(true);
        reset();
        record(stage("t/a"));
        record(send("t/b"));
        record(mark("t/c"));
        set_enabled(false);
        let snap = snapshot();
        let names: Vec<_> = snap.events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["t/a", "t/b", "t/c"]);
        let seqs: Vec<_> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert_eq!(snap.events[1].node, Some(3));
        assert_eq!(snap.events[1].peer, Some(4));
        assert_eq!(snap.events[2].kind, TraceKind::Mark);
        reset();
    }

    #[test]
    fn ids_are_nonzero_and_stable() {
        assert_ne!(send_id(0), 0);
        assert_ne!(derive_id(0, 0), 0);
        assert_eq!(send_id(42), send_id(42));
        assert_ne!(send_id(42), send_id(43));
        assert_ne!(derive_id(7, 1), derive_id(7, 2));
        assert_ne!(derive_id(5, 0), send_id(5));
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts() {
        let _flag = flag_guard();
        set_enabled(true);
        reset();
        for i in 0..(EVENT_CAPACITY as u64 + 3) {
            record(TraceEvent {
                kind: TraceKind::Stage,
                name: "t/wrap",
                at_us: i,
                id: derive_id(i, 0),
                ..TraceEvent::default()
            });
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.dropped, 3);
        assert_eq!(snap.events.len(), EVENT_CAPACITY);
        // Oldest three lost: the survivor with the smallest seq is 3.
        assert_eq!(snap.events[0].seq, 3);
        assert_eq!(snap.events[0].at_us, 3);
        reset();
    }
}
