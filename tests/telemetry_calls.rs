//! The span call tree against the flat span aggregates folded from it.
//!
//! The three strategies run back to back with telemetry on, opening more
//! span instances than a 4 096-event ring could hold; the tree keeps
//! every one. One test, because the enable flag is process-global.

use std::collections::BTreeMap;

use ici_baselines::full::FullConfig;
use ici_baselines::rapidchain::RapidChainConfig;
use ici_core::config::IciConfig;
use ici_sim::{run_full, run_ici, run_rapidchain};
use ici_telemetry::{render_flamegraph, TelemetrySnapshot};
use ici_workload::WorkloadConfig;

const BLOCKS: usize = 40;

fn three_runs() -> TelemetrySnapshot {
    let workload = WorkloadConfig {
        accounts: 64,
        seed: 11,
        ..WorkloadConfig::default()
    };
    let ici = IciConfig::builder()
        .nodes(128)
        .cluster_size(8)
        .replication(2)
        .seed(7)
        .build()
        .expect("valid");
    let full = FullConfig {
        nodes: 32,
        fanout: 4,
        seed: 7,
        ..FullConfig::default()
    };
    let rapidchain = RapidChainConfig {
        nodes: 32,
        committee_size: 8,
        seed: 7,
        ..RapidChainConfig::default()
    };
    ici_telemetry::set_enabled(true);
    ici_telemetry::reset();
    let _ = run_full(full, BLOCKS, 10, workload);
    let _ = run_rapidchain(rapidchain, BLOCKS, 10, workload);
    let _ = run_ici(ici, BLOCKS, 10, workload);
    let snap = ici_telemetry::snapshot();
    ici_telemetry::set_enabled(false);
    ici_telemetry::reset();
    snap
}

#[test]
fn the_call_tree_folds_to_the_flat_spans_and_drops_nothing() {
    let snap = three_runs();
    let instances: u64 = snap.spans.iter().map(|s| s.count).sum();
    assert!(instances > 4096, "only {instances} span instances");

    // Each run is a root path carrying its flat count.
    for run in ["sim/run_full", "sim/run_rapidchain", "sim/run_ici"] {
        let paths: Vec<_> = snap.calls.iter().filter(|c| c.span.name == run).collect();
        assert!(paths.iter().all(|c| c.parent.is_none()), "{run} is nested");
        let count: u64 = paths.iter().map(|c| c.span.count).sum();
        assert_eq!(snap.span(run).map(|s| s.count), Some(count), "{run}");
        assert_eq!(count, 1, "{run}");
    }

    // Per name and label, the call paths sum to the flat entry.
    let mut folded: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
    for c in &snap.calls {
        let sum = folded.entry((c.span.name, &c.span.label)).or_default();
        sum.0 += c.span.count;
        sum.1 += c.span.total_ns;
    }
    let flat: BTreeMap<(&str, &str), (u64, u64)> = snap
        .spans
        .iter()
        .map(|s| ((s.name, s.label.as_str()), (s.count, s.total_ns)))
        .collect();
    assert_eq!(folded, flat);

    // Self time is what the children leave of the total, on every node.
    let mut child_ns = vec![0u64; snap.calls.len()];
    for (i, c) in snap.calls.iter().enumerate() {
        if let Some(parent) = c.parent {
            assert!(parent < i, "call {i} precedes its parent {parent}");
            child_ns[parent] += c.span.total_ns;
        }
    }
    for (c, children) in snap.calls.iter().zip(child_ns) {
        let left = c.span.total_ns.checked_sub(children);
        assert_eq!(left, Some(c.span.self_ns), "{:?}", c.span);
    }

    // The flame graph's header total is the sum of the roots.
    let roots: u64 = snap
        .calls
        .iter()
        .filter(|c| c.parent.is_none())
        .map(|c| c.span.total_ns)
        .sum();
    let graph = render_flamegraph(&snap, 40);
    let header = graph.lines().next().unwrap_or_default();
    let total = format!("{}.{:03}ms", roots / 1_000_000, (roots % 1_000_000) / 1_000);
    assert!(header.ends_with(&format!(", {total} total")), "{header}");
}
