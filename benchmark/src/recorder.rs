//! The benchmark's own span recorder (layer `bench`).
//!
//! The benchmark measures each layer from outside, by timing its calls
//! into the crates' public functions. A span is `layer.operation`,
//! start and end in nanoseconds since the recorder was made, the span
//! that was open when it started (its parent), and the id of the
//! operation it belongs to; counts are taken at the same boundaries.
//! Everything stays in memory until the run ends. A disabled recorder
//! takes no timestamps, so the untraced and the traced run execute the
//! same benchmark code.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// Which part of a traced run a span belongs to. Self time is ledgered
/// per phase because the phases time the same work at different grain:
/// `Op` spans are the workload's operations themselves, `Replay` spans
/// re-run the layer calls one operation is made of (with the
/// operation's multiplicities), and `Probe` spans are fixed-size calls
/// whose count says nothing about the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    Op,
    Replay,
    Probe,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Op => "op",
            Phase::Replay => "replay",
            Phase::Probe => "probe",
        }
    }
}

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Shared by all spans of one operation.
    pub op: u64,
    /// Calls the interval covers: ns-scale functions are timed in
    /// batches, and one sample is the interval divided by this.
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The part of the name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle returned by [`Recorder::enter`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// In-memory span and count store.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    phase: Phase,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            phase: Phase::Op,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from here on belong to `phase`.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Spans recorded from here on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    #[cfg(test)]
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; spans opened before [`Recorder::exit`] nest in it.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            phase: self.phase,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            calls: 1,
        });
        self.open.push(index);
        // Stamped last, so the recorder's own bookkeeping is outside.
        self.spans[index].start_ns = self.now_ns();
        Open(Some(index))
    }

    /// Closes `open`, which covered `calls` calls.
    pub fn exit_calls(&mut self, open: Open, calls: u64) {
        let end_ns = self.now_ns();
        let Some(index) = open.0 else { return };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans close in nesting order");
        let span = &mut self.spans[index];
        span.end_ns = end_ns.max(span.start_ns);
        span.calls = calls.max(1);
    }

    pub fn exit(&mut self, open: Open) {
        self.exit_calls(open, 1);
    }

    /// Times `f` as a leaf span covering `calls` calls.
    pub fn time_calls<T>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit_calls(open, calls);
        out
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_calls(name, 1, f)
    }

    /// Records a span whose ends were stamped elsewhere (a callback out
    /// of the measured program), as a child of the open span.
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            phase: self.phase,
            start_ns: since(start),
            end_ns: since(end).max(since(start)),
            parent: self.open.last().copied(),
            op: self.op,
            calls: 1,
        });
    }

    /// Adds `delta` to the count `name`.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += delta;
        }
    }

    /// Per-call durations in nanoseconds of every span named `name`.
    pub fn samples_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / s.calls as f64)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover (their union, so
    /// overlapping children are not subtracted twice).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, intervals)| {
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in intervals.iter() {
                    let start = (*start).clamp(reach, span.end_ns);
                    let end = (*end).clamp(start, span.end_ns);
                    covered += end - start;
                    reach = reach.max(end);
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Self time summed per phase and layer.
    pub fn layer_self_ns(&self) -> BTreeMap<(Phase, &'static str), u64> {
        let mut ledger = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *ledger.entry((span.phase, span.layer())).or_insert(0) += self_ns;
        }
        ledger
    }

    /// Self time of `layers` in `phase`, summed.
    pub fn phase_self_ns(&self, phase: Phase, layers: &[&str]) -> u64 {
        self.layer_self_ns()
            .iter()
            .filter(|((p, layer), _)| *p == phase && layers.contains(layer))
            .map(|(_, ns)| ns)
            .sum()
    }

    /// The spans in Chrome trace-event format (complete events, `ts`
    /// and `dur` in microseconds), loadable in Perfetto or
    /// `chrome://tracing`. Phases show as threads of one process.
    pub fn chrome_trace(&self) -> Value {
        let self_ns = self.self_times_ns();
        let events = self
            .spans
            .iter()
            .zip(self_ns)
            .enumerate()
            .map(|(index, (span, self_ns))| {
                Value::obj([
                    ("name", Value::str(span.name)),
                    ("cat", Value::str(span.layer())),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Value::Num(span.duration_ns() as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(span.phase as u8 as f64 + 1.0)),
                    (
                        "args",
                        Value::obj([
                            ("span", Value::Num(index as f64)),
                            (
                                "parent",
                                span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("op", Value::Num(span.op as f64)),
                            ("calls", Value::Num(span.calls as f64)),
                            ("self_ns", Value::Num(self_ns as f64)),
                            ("phase", Value::str(span.phase.name())),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::str("ns")),
        ])
    }

    /// The self-time ledger and the counts as JSON.
    pub fn ledger_json(&self) -> (Value, Value) {
        let mut phases: Vec<(String, Vec<(String, Value)>)> = Vec::new();
        for ((phase, layer), ns) in self.layer_self_ns() {
            if phases.last().map(|(p, _)| p.as_str()) != Some(phase.name()) {
                phases.push((phase.name().to_string(), Vec::new()));
            }
            if let Some((_, layers)) = phases.last_mut() {
                layers.push((layer.to_string(), Value::Num(ns as f64)));
            }
        }
        let self_time = Value::Obj(
            phases
                .into_iter()
                .map(|(phase, layers)| (phase, Value::Obj(layers)))
                .collect(),
        );
        let counts = Value::obj(
            self.counts
                .iter()
                .map(|(name, n)| (*name, Value::Num(*n as f64))),
        );
        (self_time, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A recorder with hand-placed spans: (name, phase, start, end, parent).
    fn recorder(spans: &[(&'static str, Phase, u64, u64, Option<usize>)]) -> Recorder {
        let mut rec = Recorder::new(true);
        for (name, phase, start_ns, end_ns, parent) in spans.iter().copied() {
            rec.spans.push(Span {
                name,
                phase,
                start_ns,
                end_ns,
                parent,
                op: 7,
                calls: 1,
            });
        }
        rec
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let rec = recorder(&[
            ("core.op", Phase::Op, 0, 100, None),
            ("chain.validate", Phase::Op, 10, 40, Some(0)),
            ("crypto.verify", Phase::Op, 15, 25, Some(1)),
            ("net.send", Phase::Op, 50, 70, Some(0)),
            // Overlaps its sibling net.send by 10 ns: the union counts once.
            ("net.absorb", Phase::Op, 60, 90, Some(0)),
        ]);
        // Parent: 100 - (30 + 40 covered by [50, 90)).
        assert_eq!(rec.self_times_ns(), vec![30, 20, 10, 20, 30]);
        let ledger = rec.layer_self_ns();
        assert_eq!(ledger[&(Phase::Op, "core")], 30);
        assert_eq!(ledger[&(Phase::Op, "net")], 50);
        assert_eq!(rec.phase_self_ns(Phase::Op, &["chain", "crypto"]), 30);
        assert_eq!(rec.phase_self_ns(Phase::Replay, &["chain", "crypto"]), 0);
    }

    #[test]
    fn child_reaching_past_its_parent_is_clamped() {
        let rec = recorder(&[
            ("core.op", Phase::Op, 10, 50, None),
            ("net.send", Phase::Op, 0, 20, Some(0)),
            ("net.send", Phase::Op, 40, 90, Some(0)),
        ]);
        assert_eq!(rec.self_times_ns()[0], 20);
    }

    #[test]
    fn live_spans_nest_and_divide_by_calls() {
        let mut rec = Recorder::new(true);
        rec.set_phase(Phase::Replay);
        rec.set_op(3);
        let outer = rec.enter("bench.block");
        rec.time_calls("storage.owners", 64, || std::hint::black_box(1 + 1));
        let stamp = Instant::now();
        rec.push("core.build", stamp, stamp);
        rec.exit(outer);
        rec.count("net.vote_msgs", 5);
        rec.count("net.vote_msgs", 2);

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(spans.iter().all(|s| s.op == 3 && s.phase == Phase::Replay));
        assert_eq!(spans[1].calls, 64);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let per_call = rec.samples_ns("storage.owners")[0];
        assert_eq!(per_call, spans[1].duration_ns() as f64 / 64.0);
        assert_eq!(rec.counts()["net.vote_msgs"], 7);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.enter("core.op");
        assert_eq!(rec.time("chain.validate", || 5), 5);
        rec.exit(open);
        rec.push("core.build", Instant::now(), Instant::now());
        rec.count("x", 1);
        assert!(rec.spans().is_empty() && rec.counts().is_empty());
    }

    #[test]
    fn chrome_trace_and_ledger_parse_back() {
        let mut rec = recorder(&[
            ("core.op", Phase::Op, 1_000, 9_000, None),
            ("chain.validate", Phase::Replay, 2_500, 4_000, Some(0)),
        ]);
        rec.count("net.vote_msgs", 12);

        let trace = json::parse(&rec.chrome_trace().render_pretty()).expect("trace parses");
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("events");
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(
            child.get("name").and_then(Value::as_str),
            Some("chain.validate")
        );
        assert_eq!(child.get("cat").and_then(Value::as_str), Some("chain"));
        assert_eq!(child.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(child.get("ts").and_then(Value::as_f64), Some(2.5));
        assert_eq!(child.get("dur").and_then(Value::as_f64), Some(1.5));
        let args = child.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(args.get("op").and_then(Value::as_f64), Some(7.0));
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("self_ns"))
                .and_then(Value::as_f64),
            Some(6_500.0)
        );

        let (self_time, counts) = rec.ledger_json();
        let self_time = json::parse(&self_time.render()).expect("ledger parses");
        assert_eq!(
            self_time
                .get("op")
                .and_then(|p| p.get("core"))
                .and_then(Value::as_f64),
            Some(6_500.0)
        );
        assert_eq!(
            self_time
                .get("replay")
                .and_then(|p| p.get("chain"))
                .and_then(Value::as_f64),
            Some(1_500.0)
        );
        assert_eq!(
            counts.get("net.vote_msgs").and_then(Value::as_f64),
            Some(12.0)
        );
    }
}
