//! Per-round time-series riding the `ExperimentRecord` export.
//!
//! The simulation runners sample one [`RoundSample`] per proposal
//! round (gated on `ICI_TELEMETRY=1`, like the rest of the telemetry
//! section) and push the finished [`RunSeries`] here; the report
//! builder drains the registry and renders a `"series"` section next
//! to the end-of-run aggregates. Traffic is reported as **deltas**
//! between consecutive samples — what each round cost, not the running
//! total — computed by [`TrafficTracker`] from `TrafficMeter` totals.
//!
//! The registry is thread-local, and a run samples on the one thread it
//! runs on.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Messages/bytes one round added for one message class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficDelta {
    /// Stable message-class name (`MessageKind::name`).
    pub kind: &'static str,
    /// Messages sent this round.
    pub messages: u64,
    /// Payload bytes sent this round.
    pub bytes: u64,
}

/// One sampled proposal round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundSample {
    /// Round index within the run, from 0.
    pub round: u64,
    /// Height of the block this round committed.
    pub height: u64,
    /// Virtual clock after the round, µs.
    pub at_us: u64,
    /// Transactions committed so far (cumulative).
    pub committed_txs: u64,
    /// Generated-but-uncommitted transactions after the round.
    pub mempool_depth: u64,
    /// Nodes alive after the round.
    pub live_nodes: u64,
    /// Bytes stored per node, indexed by node id.
    pub stored_bytes: Vec<u64>,
    /// Per-class traffic deltas for this round (non-zero classes only).
    pub traffic: Vec<TrafficDelta>,
}

/// A labelled series of round samples for one simulated run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunSeries {
    /// Run label, e.g. `ICIStrategy/n=128`.
    pub run: String,
    /// Samples in round order.
    pub samples: Vec<RoundSample>,
}

thread_local! {
    static SERIES: RefCell<Vec<RunSeries>> = const { RefCell::new(Vec::new()) };
}

/// Registers a finished run's series for the next [`drain`].
pub fn push(series: RunSeries) {
    SERIES.with(|cell| {
        if let Ok(mut list) = cell.try_borrow_mut() {
            list.push(series);
        }
    });
}

/// Takes every registered series, clearing the registry.
pub fn drain() -> Vec<RunSeries> {
    SERIES.with(|cell| {
        cell.try_borrow_mut()
            .map(|mut list| std::mem::take(&mut *list))
            .unwrap_or_default()
    })
}

/// Turns running per-class traffic totals into per-round deltas.
///
/// Feed it the meter's `(name, messages, bytes)` totals after each
/// round; it returns the classes that moved since the previous call.
#[derive(Debug, Default)]
pub struct TrafficTracker {
    last: BTreeMap<&'static str, (u64, u64)>,
}

impl TrafficTracker {
    /// A tracker with no history: the first delta equals the totals.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deltas for every class whose totals moved since the last call.
    pub fn delta(
        &mut self,
        totals: impl IntoIterator<Item = (&'static str, u64, u64)>,
    ) -> Vec<TrafficDelta> {
        let mut moved = Vec::new();
        for (kind, messages, bytes) in totals {
            let (prev_m, prev_b) = self.last.insert(kind, (messages, bytes)).unwrap_or((0, 0));
            let dm = messages.saturating_sub(prev_m);
            let db = bytes.saturating_sub(prev_b);
            if dm > 0 || db > 0 {
                moved.push(TrafficDelta {
                    kind,
                    messages: dm,
                    bytes: db,
                });
            }
        }
        moved
    }
}

fn push_u64_list(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

/// Renders the series list as a JSON array, each line prefixed with
/// `indent` so it nests inside the hand-rolled record JSON.
pub fn render_json(series: &[RunSeries], indent: &str) -> String {
    let mut out = String::new();
    out.push('[');
    for (si, run) in series.iter().enumerate() {
        out.push_str(if si == 0 { "\n" } else { ",\n" });
        out.push_str(indent);
        out.push_str("  {\n");
        out.push_str(indent);
        out.push_str(&format!("    \"run\": \"{}\",\n", run.run));
        out.push_str(indent);
        out.push_str("    \"samples\": [");
        for (i, s) in run.samples.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(indent);
            out.push_str("      {");
            out.push_str(&format!(
                "\"round\": {}, \"height\": {}, \"at_us\": {}, \
                 \"committed_txs\": {}, \"mempool_depth\": {}, \"live_nodes\": {}, ",
                s.round, s.height, s.at_us, s.committed_txs, s.mempool_depth, s.live_nodes
            ));
            out.push_str("\"stored_bytes\": ");
            push_u64_list(&mut out, &s.stored_bytes);
            out.push_str(", \"traffic\": [");
            for (ti, t) in s.traffic.iter().enumerate() {
                if ti > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"kind\": \"{}\", \"messages\": {}, \"bytes\": {}}}",
                    t.kind, t.messages, t.bytes
                ));
            }
            out.push_str("]}");
        }
        if run.samples.is_empty() {
            out.push_str("]\n");
        } else {
            out.push('\n');
            out.push_str(indent);
            out.push_str("    ]\n");
        }
        out.push_str(indent);
        out.push_str("  }");
    }
    if series.is_empty() {
        out.push(']');
    } else {
        out.push('\n');
        out.push_str(indent);
        out.push(']');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_reports_deltas_not_totals() {
        let mut tracker = TrafficTracker::new();
        let first = tracker.delta([("BlockFull", 2, 100), ("Vote", 0, 0)]);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].kind, "BlockFull");
        assert_eq!((first[0].messages, first[0].bytes), (2, 100));
        let second = tracker.delta([("BlockFull", 5, 160), ("Vote", 3, 30)]);
        assert_eq!(second.len(), 2);
        assert_eq!((second[0].messages, second[0].bytes), (3, 60));
        assert_eq!((second[1].messages, second[1].bytes), (3, 30));
        // Nothing moved: empty delta.
        assert!(tracker
            .delta([("BlockFull", 5, 160), ("Vote", 3, 30)])
            .is_empty());
    }

    #[test]
    fn registry_drains_in_push_order() {
        drain();
        push(RunSeries {
            run: String::from("a"),
            samples: Vec::new(),
        });
        push(RunSeries {
            run: String::from("b"),
            samples: Vec::new(),
        });
        let drained = drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].run, "a");
        assert_eq!(drained[1].run, "b");
        assert!(drain().is_empty());
    }

    #[test]
    fn render_nests_under_the_given_indent() {
        let series = vec![RunSeries {
            run: String::from("ICIStrategy/n=8"),
            samples: vec![RoundSample {
                round: 0,
                height: 1,
                at_us: 1234,
                committed_txs: 5,
                mempool_depth: 2,
                live_nodes: 8,
                stored_bytes: vec![10, 20],
                traffic: vec![TrafficDelta {
                    kind: "BlockFull",
                    messages: 1,
                    bytes: 64,
                }],
            }],
        }];
        let json = render_json(&series, "  ");
        assert!(json.starts_with("[\n"));
        assert!(json.contains("    \"run\": \"ICIStrategy/n=8\","));
        assert!(json.contains(
            "{\"round\": 0, \"height\": 1, \"at_us\": 1234, \"committed_txs\": 5, \
             \"mempool_depth\": 2, \"live_nodes\": 8, \"stored_bytes\": [10, 20], \
             \"traffic\": [{\"kind\": \"BlockFull\", \"messages\": 1, \"bytes\": 64}]}"
        ));
        assert!(json.ends_with("\n  ]"));
        assert_eq!(render_json(&[], "  "), "[]");
    }
}
