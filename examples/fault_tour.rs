//! A tour of the deterministic fault-injection harness (`ici-faults`).
//!
//! Three stops:
//!
//! 1. A **fault plan** is a value — built from an `ici-rng` seed, it fixes
//!    every crash, restart, partition window, and per-round message-fault
//!    profile up front. Same seed ⇒ byte-identical schedule on every
//!    machine, so failures found in CI replay exactly.
//! 2. A plan is **just its rounds**: walking `plan.rounds()` gives each
//!    round's crashes and restarts, and `plan.send_faults()` the
//!    `ici_net::FaultConfig` to install on the send path that round.
//! 3. The **failure-aware runner** drives a full `IciNetwork` through a
//!    plan: blocks keep committing under churn, survivors re-replicate
//!    after every crash, and each repair is certified by a shard-level
//!    Merkle audit (the collaborative-verification machinery turned on
//!    its own storage).
//!
//! Run with: `cargo run --release --example fault_tour`

use icistrategy::faults::{
    ByzantineConfig, ChurnConfig, FaultPlanConfig, MessageFaultSpec, PartitionPolicy,
};
use icistrategy::prelude::*;
use icistrategy::storage::stats::format_bytes;

fn main() {
    // ------------------------------------------------------------------
    // Stop 1 — the plan as a value.
    // ------------------------------------------------------------------
    let clusters: Vec<Vec<NodeId>> = (0..3u64)
        .map(|c| (0..8u64).map(|i| NodeId::new(c * 8 + i)).collect())
        .collect();
    let plan = FaultPlanConfig::new(7, 10, clusters)
        .churn(ChurnConfig {
            crash_prob: 0.08,
            restart_prob: 0.4,
            ..ChurnConfig::default()
        })
        .build()
        .expect("valid plan");
    println!(
        "stop 1: plan fingerprint {:016x} — {} crashes / {} restarts scheduled",
        plan.fingerprint(),
        plan.total_crashes(),
        plan.total_restarts(),
    );
    println!("{}", plan.render());

    // ------------------------------------------------------------------
    // Stop 2 — walking the schedule.
    // ------------------------------------------------------------------
    let mut live = plan.nodes();
    let rounds = plan.rounds().iter().zip(plan.send_faults());
    for (index, (round, send_faults)) in rounds.enumerate() {
        live = live + round.restarts.len() - round.crashes.len();
        if round.crashes.is_empty() && round.restarts.is_empty() {
            continue;
        }
        println!(
            "stop 2: round {index:>2} — crash {:?}, restart {:?}, {live} nodes live, fault seed {:016x}",
            round.crashes, round.restarts, send_faults.seed,
        );
    }

    // ------------------------------------------------------------------
    // Stop 3 — a real network under the full fault model.
    // ------------------------------------------------------------------
    let config = IciConfig::builder()
        .nodes(36)
        .cluster_size(12)
        .replication(2)
        .seed(42)
        .build()
        .expect("valid configuration");
    let profile = FaultProfile {
        seed: 42,
        rounds: 12,
        churn: ChurnConfig {
            crash_prob: 0.05,
            restart_prob: 0.5,
            min_live_per_cluster: 6,
            ..ChurnConfig::default()
        },
        partitions: PartitionPolicy {
            prob: 0.1,
            max_duration_rounds: 2,
        },
        messages: MessageFaultSpec {
            drop_prob: 0.05,
            dup_prob: 0.02,
            delay_prob: 0.05,
            max_extra_delay_ms: 20.0,
        },
        // Honest-but-crashing tour; the Byzantine roles get their own
        // walkthrough in `e_byz`, and stage-boundary churn its own
        // showcase in `e_fault`.
        byzantine: ByzantineConfig::default(),
        stage_churn: ici_sim::fault_run::StageChurn::default(),
    };
    let (network, summary) = run_ici_under_faults(
        config,
        20,
        WorkloadConfig {
            accounts: 128,
            seed: 42,
            ..WorkloadConfig::default()
        },
        profile,
    )
    .expect("plan builds over the formed clusters");

    println!(
        "stop 3: {}/{} rounds committed under churn ({} crashes, {} restarts)",
        summary.committed_blocks, summary.rounds, summary.crash_events, summary.restart_events,
    );
    println!(
        "        recovery {:.0}% over {} attempts — {} of re-replication, {} cross-cluster fetches",
        summary.recovery_success_rate() * 100.0,
        summary.recovery_attempts,
        format_bytes(summary.repair_bytes),
        summary.cross_cluster_fetches,
    );
    println!(
        "        worst round: {} nodes live, min cluster availability {:.3}; commit p50 {:.1} ms",
        summary.min_live_nodes, summary.min_availability, summary.commit_latency.p50_ms,
    );
    println!(
        "        final shard-level Merkle audit: {} ({} live replicas covered)",
        if summary.final_audit_clean {
            "clean"
        } else {
            "FAILED"
        },
        summary.merkle_shards_verified,
    );
    assert!(network.audit_all().iter().all(|r| r.is_intact()));
    assert!(summary.final_audit_clean);
}
