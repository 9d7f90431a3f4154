//! End-to-end integration tests of the ICIStrategy network through the
//! public facade, spanning every crate: crypto → chain → net → cluster →
//! storage → consensus → core.

mod prop_support;

use icistrategy::core::config::Clustering;
use icistrategy::net::metrics::MessageKind;
use icistrategy::net::time::Duration;
use icistrategy::prelude::*;
use prop_support::{crash_and_byzantine, overspending_workload, replay_from_genesis};

fn network(nodes: usize, c: usize, r: usize, seed: u64) -> IciNetwork {
    let config = IciConfig::builder()
        .nodes(nodes)
        .cluster_size(c)
        .replication(r)
        .seed(seed)
        .build()
        .expect("valid configuration");
    IciNetwork::new(config).expect("constructs")
}

fn drive(network: &mut IciNetwork, blocks: usize, txs: usize, seed: u64) {
    let mut workload = WorkloadGenerator::new(WorkloadConfig {
        accounts: 128,
        seed,
        ..WorkloadConfig::default()
    });
    for _ in 0..blocks {
        network
            .propose_block(workload.batch(txs))
            .expect("block commits");
    }
}

#[test]
fn full_lifecycle_preserves_every_invariant() {
    let mut net = network(48, 12, 2, 1);
    drive(&mut net, 15, 20, 1);

    // Chain grows and links.
    assert_eq!(net.chain_len(), 16);
    for h in 1..16 {
        let parent = net.block(h - 1).expect("parent").id();
        assert_eq!(net.block(h).expect("block").header().parent, parent);
    }

    // State root of the tip matches incremental execution.
    assert_eq!(net.tip().state_root, net.state().root());

    // Intra-cluster integrity everywhere.
    assert!(net.audit_all().iter().all(|r| r.is_intact()));

    // Every body is replicated exactly r times per cluster.
    for report in net.audit_all() {
        for (replicas, _) in &report.replication_histogram {
            assert!(*replicas <= 2, "over-replicated: {report:?}");
        }
    }

    // Every node holds the full header chain.
    for i in 0..48u64 {
        let h = net.holdings(NodeId::new(i)).expect("known node");
        assert_eq!(h.header_count(), 16, "node {i}");
    }
}

#[test]
fn runs_are_deterministic() {
    let summary = |seed: u64| {
        let mut net = network(32, 8, 2, seed);
        drive(&mut net, 6, 10, 99);
        (
            net.tip().id(),
            net.storage_bytes(),
            net.net().meter().total().bytes,
            net.now(),
        )
    };
    assert_eq!(summary(5), summary(5));
    assert_ne!(summary(5).0, summary(6).0, "different seeds, same chain id");
}

#[test]
fn every_node_can_read_every_block() {
    let mut net = network(36, 12, 2, 3);
    drive(&mut net, 8, 15, 3);
    for node in (0..36u64).step_by(5) {
        for height in [1u64, 4, 8] {
            let report = net
                .query_body(NodeId::new(node), height)
                .unwrap_or_else(|e| panic!("node {node} height {height}: {e}"));
            assert_eq!(report.height, height);
        }
    }
}

#[test]
fn commit_records_are_internally_consistent() {
    let mut net = network(32, 8, 2, 4);
    drive(&mut net, 5, 12, 4);
    for record in net.commit_log() {
        assert!(record.home_commit >= record.proposed_at);
        assert!(record.network_commit >= record.home_commit);
        assert_eq!(
            record.cluster_commits.len() + record.missed_clusters.len(),
            4
        );
        assert!(record.messages > 0);
        assert!(record.bytes > 0);
        assert!(record.missed_clusters.is_empty());
    }
}

#[test]
fn clustering_choice_does_not_affect_correctness() {
    for clustering in [
        Clustering::Random,
        Clustering::KMeans,
        Clustering::BalancedKMeans,
    ] {
        let config = IciConfig::builder()
            .nodes(32)
            .cluster_size(8)
            .replication(2)
            .clustering(clustering)
            .seed(8)
            .build()
            .expect("valid configuration");
        let mut net = IciNetwork::new(config).expect("constructs");
        drive(&mut net, 4, 8, 8);
        assert!(
            net.audit_all().iter().all(|r| r.is_intact()),
            "{clustering:?} violated integrity"
        );
    }
}

#[test]
fn assignment_choice_does_not_affect_correctness() {
    use icistrategy::core::config::Assignment;
    for assignment in [
        Assignment::Rendezvous,
        Assignment::Ring,
        Assignment::RoundRobin,
    ] {
        let config = IciConfig::builder()
            .nodes(32)
            .cluster_size(8)
            .replication(2)
            .assignment(assignment)
            .seed(8)
            .build()
            .expect("valid configuration");
        let mut net = IciNetwork::new(config).expect("constructs");
        drive(&mut net, 4, 8, 8);
        assert!(
            net.audit_all().iter().all(|r| r.is_intact()),
            "{assignment:?} violated integrity"
        );
    }
}

#[test]
fn join_crash_repair_cycle_keeps_chain_alive_and_intact() {
    let mut net = network(48, 12, 2, 11);
    drive(&mut net, 6, 12, 11);

    // Join two nodes.
    for i in 0..2 {
        net.bootstrap_node(
            Coord::new(20.0 * i as f64, 10.0),
            JoinPolicy::SmallestCluster,
        )
        .expect("join succeeds");
    }
    // Crash three nodes across clusters.
    for i in [1u64, 13, 25] {
        net.crash_node(NodeId::new(i)).expect("known node");
    }
    // Chain keeps committing.
    drive(&mut net, 4, 12, 12);

    // Repair everything and audit.
    net.repair_all();
    for report in net.audit_all() {
        assert!(report.is_intact(), "{report:?}");
    }
    assert_eq!(net.chain_len(), 11);
}

/// A node that joins a cluster whose every member is down still gets
/// the header chain, from the nearest live node outside it: one
/// bootstrap message of the chain's header bytes, which takes time.
#[test]
fn a_join_into_a_dead_cluster_takes_its_headers_from_a_live_node() {
    let config = IciConfig::builder()
        .nodes(24)
        .cluster_size(8)
        .replication(2)
        .assignment(Assignment::RoundRobin)
        .seed(5)
        .build()
        .expect("valid configuration");
    let mut net = IciNetwork::new(config).expect("constructs");
    for _ in 0..2 {
        net.propose_block(Vec::new()).expect("block commits");
    }
    let dead = ClusterId::new(0);
    for member in net.membership().members(dead).to_vec() {
        net.crash_node(member).expect("known node");
    }
    let nodes = net.net().topology().len() as u64;
    let sent = |net: &IciNetwork| -> Vec<_> {
        (0..nodes)
            .map(|n| net.net().meter().sent_by(NodeId::new(n)))
            .collect()
    };
    let meter = net.net().meter();
    let (total, bootstrap) = (meter.total(), meter.kind(MessageKind::Bootstrap));
    let sent_before = sent(&net);

    let report = net
        .bootstrap_node(Coord::new(50.0, 50.0), JoinPolicy::SmallestCluster)
        .expect("joins");
    assert_eq!(
        report.cluster,
        dead.get(),
        "the join must land in the dead cluster"
    );
    assert_eq!(report.header_bytes, 3 * BlockHeader::ENCODED_LEN as u64);
    let after = net.net().meter().total();
    assert_eq!(
        (after.messages, after.bytes),
        (total.messages + 1, total.bytes + report.header_bytes),
        "one header message, and nothing else"
    );
    let headers = net.net().meter().kind(MessageKind::Bootstrap);
    assert_eq!(headers.messages, bootstrap.messages + 1);
    assert_eq!(headers.bytes, bootstrap.bytes + report.header_bytes);
    let senders: Vec<NodeId> = sent(&net)
        .iter()
        .zip(&sent_before)
        .enumerate()
        .filter(|(_, (now, then))| now != then)
        .map(|(n, _)| NodeId::new(n as u64))
        .collect();
    assert_eq!(senders.len(), 1, "one sender, got {senders:?}");
    assert_ne!(net.membership().cluster_of(senders[0]), dead);
    assert!(net.net().is_up(senders[0]));
    assert!(report.duration > Duration::ZERO);

    // With no node live at all, the next join is refused before anything
    // changes.
    for n in 0..net.net().topology().len() as u64 {
        net.crash_node(NodeId::new(n)).expect("known node");
    }
    let (nodes, meter) = (net.net().topology().len(), net.net().meter().total());
    assert_eq!(
        net.bootstrap_node(Coord::new(50.0, 50.0), JoinPolicy::SmallestCluster),
        Err(IciError::HeadersUnavailable)
    );
    assert_eq!(net.net().topology().len(), nodes);
    assert_eq!(net.net().meter().total(), meter);
}

#[test]
fn storage_scales_with_r_over_c() {
    let mean_storage = |c: usize, r: usize| {
        let mut net = network(64, c, r, 2);
        drive(&mut net, 8, 20, 2);
        net.storage_stats().mean
    };
    let base = mean_storage(16, 2);
    let double_r = mean_storage(16, 4);
    let double_c = mean_storage(32, 2);
    assert!(double_r > base * 1.5, "r=4 {double_r} vs r=2 {base}");
    assert!(double_c < base * 0.75, "c=32 {double_c} vs c=16 {base}");
}

#[test]
fn total_supply_is_conserved_through_the_run() {
    let mut net = network(24, 8, 2, 6);
    let supply_before = net.state().total_supply();
    drive(&mut net, 6, 10, 6);
    assert_eq!(net.state().total_supply(), supply_before);
}

/// The leader executes each block once and the network commits the
/// state it sealed, so every committed chain — a quiet run and one under
/// crashes and Byzantine action, both offering overspends — replays from
/// genesis to its tip's root and to the network's state.
#[test]
fn committed_chains_replay_from_genesis() {
    let config = || {
        IciConfig::builder()
            .nodes(48)
            .cluster_size(12)
            .replication(2)
            .seed(5)
            .build()
            .expect("valid configuration")
    };
    let (blocks, txs) = (8, 20);
    let (quiet, _) = run::<IciNetwork>(config(), blocks, txs, overspending_workload(5));
    let (faulted, faults) = run_under_faults::<IciNetwork>(
        config(),
        txs,
        overspending_workload(6),
        crash_and_byzantine(),
    )
    .expect("plan builds");
    assert!(
        faults.crash_events > 0 && faults.equivocation_attempts > 0 && faults.committed_blocks > 0,
        "{faults:?}"
    );
    for (label, net) in [("ici quiet", &quiet), ("ici crash+byzantine", &faulted)] {
        let chain: Vec<&Block> = (0..net.chain_len()).filter_map(|h| net.block(h)).collect();
        let replayed = replay_from_genesis(label, &net.config().genesis, &chain, txs);
        assert!(
            replayed == *net.state(),
            "{label}: the replayed state differs from the committed one"
        );
    }
}
