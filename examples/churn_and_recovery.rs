//! Churn and recovery: nodes join, nodes crash, the cluster repairs
//! itself — while the chain keeps growing.
//!
//! This walks the operational story the paper's design implies: a joiner
//! bootstraps cheaply (headers + its assigned share), crashes degrade
//! replication, the repair protocol restores it (reaching across clusters
//! when a block lost every local owner), and the integrity audit verifies
//! the invariant at every step.
//!
//! Run with: `cargo run --example churn_and_recovery`

use icistrategy::prelude::*;
use icistrategy::storage::stats::format_bytes;

fn main() -> Result<(), IciError> {
    let config = IciConfig::builder()
        .nodes(48)
        .cluster_size(12)
        .replication(2)
        .seed(7)
        .build()
        .map_err(IciError::Config)?;
    let mut network = IciNetwork::new(config)?;
    let mut workload = WorkloadGenerator::new(WorkloadConfig {
        accounts: 128,
        ..WorkloadConfig::default()
    });

    // Phase 1 — grow a chain.
    for _ in 0..12 {
        network.propose_block(workload.batch(20))?;
    }
    println!("phase 1: chain at height {}", network.chain_len() - 1);

    // Phase 2 — a new node joins and bootstraps.
    let join = network.bootstrap_node(Coord::new(30.0, 30.0), JoinPolicy::NearestCentroid)?;
    println!(
        "phase 2: node {} joined cluster c{} — downloaded {} headers + {} bodies ({}) in {:.1} ms; \
         {} stale replicas pruned from ex-owners",
        join.node,
        join.cluster,
        network.chain_len(),
        join.bodies,
        format_bytes(join.total_bytes()),
        join.duration.as_millis_f64(),
        join.pruned_bodies,
    );

    // Phase 3 — failures: crash a third of one cluster.
    let victim_cluster = network.clusters()[0];
    let victims: Vec<NodeId> = network
        .membership()
        .members(victim_cluster)
        .iter()
        .copied()
        .take(4)
        .collect();
    for v in &victims {
        network.crash_node(*v)?;
    }
    let degraded = network.audit(victim_cluster);
    println!(
        "phase 3: crashed {:?} — cluster c{} availability {:.3}, {} heights singly held",
        victims,
        victim_cluster.get(),
        degraded.availability(),
        degraded.singly_held.len(),
    );

    // Phase 4 — repair.
    let report = network.repair_cluster(victim_cluster);
    println!(
        "phase 4: repair moved {} bodies ({}) in {:.1} ms; {} cross-cluster fetches, {} lost",
        report.transfers,
        format_bytes(report.bytes),
        report.duration.as_millis_f64(),
        report.cross_cluster_fetches.len(),
        report.unrecoverable.len(),
    );
    let repaired = network.audit(victim_cluster);
    assert!(repaired.is_intact(), "repair must restore integrity");
    println!(
        "          cluster c{} availability back to {:.3}",
        victim_cluster.get(),
        repaired.availability()
    );

    // Phase 5 — life goes on: the chain keeps committing with the crashed
    // nodes still down.
    for _ in 0..3 {
        let record = network.propose_block(workload.batch(20))?;
        println!(
            "phase 5: block {} committed by {} clusters despite failures",
            record.height,
            record.cluster_commits.len(),
        );
    }
    Ok(())
}
