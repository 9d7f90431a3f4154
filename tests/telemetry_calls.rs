//! The span call tree against the flat span aggregates folded from it.
//!
//! The three strategies run back to back with telemetry on, quiet and
//! then under a fault profile that schedules nothing, opening more span
//! instances than a 4 096-event ring could hold; the tree keeps every
//! one. Each run is a root of its own. The same runs hold the
//! quiet/fault boundary: a quiet run neither repairs nor audits, nor
//! keeps fault bookkeeping; and the
//! one-execution rule: a proposer builds each block once and no run
//! validates a block it built. One test, because the enable flag is
//! process-global.

use std::collections::BTreeMap;

use ici_baselines::full::{FullConfig, FullReplicationNetwork};
use ici_baselines::rapidchain::{RapidChainConfig, RapidChainNetwork};
use ici_core::config::IciConfig;
use ici_core::network::IciNetwork;
use ici_faults::plan::ChurnConfig;
use ici_sim::{run, run_under_faults, FaultProfile, RunSummary};
use ici_telemetry::{render_flamegraph, TelemetrySnapshot};
use ici_workload::WorkloadConfig;

const BLOCKS: usize = 40;

/// The six runs' telemetry, and each run's root span name with the
/// blocks it committed (in a quiet run, every block it proposed).
fn six_runs() -> (TelemetrySnapshot, [(&'static str, u64); 6]) {
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
    // A plan that schedules nothing is as quiet as `run`'s own.
    let zero = FaultProfile {
        rounds: BLOCKS,
        churn: ChurnConfig {
            crash_prob: 0.0,
            restart_prob: 0.0,
            cluster_churn_prob: 0.0,
            ensure_cycle_per_cluster: false,
            ..ChurnConfig::default()
        },
        ..FaultProfile::default()
    };
    ici_telemetry::set_enabled(true);
    ici_telemetry::reset();
    let blocks = |summary: RunSummary| summary.committed_blocks;
    let proposed = [
        (
            "sim/run_full",
            blocks(run::<FullReplicationNetwork>(full.clone(), BLOCKS, 10, workload).1),
        ),
        (
            "sim/run_rapidchain",
            blocks(run::<RapidChainNetwork>(rapidchain.clone(), BLOCKS, 10, workload).1),
        ),
        (
            "sim/run_ici",
            blocks(run::<IciNetwork>(ici.clone(), BLOCKS, 10, workload).1),
        ),
        (
            "sim/run_full_faults",
            blocks(
                run_under_faults::<FullReplicationNetwork>(full, 10, workload, zero)
                    .expect("plan builds")
                    .1,
            ),
        ),
        (
            "sim/run_rapidchain_faults",
            blocks(
                run_under_faults::<RapidChainNetwork>(rapidchain, 10, workload, zero)
                    .expect("plan builds")
                    .1,
            ),
        ),
        (
            "sim/run_ici_faults",
            blocks(
                run_under_faults::<IciNetwork>(ici, 10, workload, zero)
                    .expect("plan builds")
                    .1,
            ),
        ),
    ];
    let snap = ici_telemetry::snapshot();
    ici_telemetry::set_enabled(false);
    ici_telemetry::reset();
    (snap, proposed)
}

#[test]
fn the_call_tree_folds_to_the_flat_spans_and_drops_nothing() {
    let (snap, proposed) = six_runs();
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
    // So is each zero-profile fault run, under its strategy's fault root.
    for run in [
        "sim/run_full_faults",
        "sim/run_rapidchain_faults",
        "sim/run_ici_faults",
    ] {
        let paths: Vec<_> = snap.calls.iter().filter(|c| c.span.name == run).collect();
        assert!(!paths.is_empty(), "{run} is not a span");
        assert!(paths.iter().all(|c| c.parent.is_none()), "{run} is nested");
        assert_eq!(paths.iter().map(|c| c.span.count).sum::<u64>(), 1, "{run}");
    }

    // A quiet run is the fault loop under a plan that schedules nothing:
    // it repairs nothing, audits nothing and keeps no fault bookkeeping.
    assert!(
        snap.span("core/merkle_audit").is_none(),
        "a quiet run opened core/merkle_audit"
    );
    assert!(
        snap.counters
            .iter()
            .all(|c| c.name != "sim/fault_repair_bytes"),
        "a quiet run added sim/fault_repair_bytes"
    );
    assert!(
        snap.gauges.iter().all(|g| g.name != "faults/live_nodes"),
        "a quiet run set faults/live_nodes"
    );
    assert!(
        snap.span("faults/round").is_none(),
        "a quiet run opened faults/round"
    );

    // A block is executed once, by the proposer that builds it: every
    // proposed block is built once under its run, and no run validates
    // one (the commit installs the state the build sealed).
    let root_of = |mut i: usize| {
        while let Some(parent) = snap.calls[i].parent {
            i = parent;
        }
        snap.calls[i].span.name
    };
    let under = |run: &str, name: &str| -> u64 {
        (0..snap.calls.len())
            .filter(|&i| snap.calls[i].span.name == name && root_of(i) == run)
            .map(|i| snap.calls[i].span.count)
            .sum()
    };
    for (run, blocks) in proposed {
        assert!(blocks > 0, "{run} committed nothing");
        assert_eq!(
            under(run, "chain/block_build"),
            blocks,
            "{run}: chain/block_build"
        );
        assert_eq!(
            under(run, "chain/block_validate"),
            0,
            "{run}: chain/block_validate"
        );
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
