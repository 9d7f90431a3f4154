//! **E-fault (reconstructed) — survivability under deterministic churn.**
//!
//! Drives ICIStrategy through a seed-deterministic fault schedule
//! (crashes, cluster-correlated churn, message loss/duplication/delay,
//! partition windows) and reports the survivability numbers the paper's
//! failure argument rests on: recovery success rate, re-replication
//! traffic, commit latency under churn, and worst-case availability.
//! Every repaired cluster must pass the shard-level Merkle audit — the
//! run asserts recovery at content level, not replica count.
//!
//! The same `--seed` produces a byte-identical fault schedule and (with
//! telemetry off) a byte-identical `results/e_fault.json`; CI runs it
//! twice and diffs the files.
//!
//! Run: `cargo run --release -p ici-bench --bin e_fault [--paper] [--seed N]`

use ici_bench::{emit, quiet_link, seed_from_args, standard_workload, Scale};
use ici_core::config::IciConfig;
use ici_faults::plan::{ByzantineConfig, ChurnConfig, MessageFaultSpec, PartitionPolicy};
use ici_sim::fault_run::{run_ici_under_faults, FaultProfile, StageChurn};
use ici_sim::table::Table;
use ici_storage::stats::format_bytes;

fn main() {
    let scale = Scale::from_args();
    let seed = seed_from_args();
    let (nodes, cluster_size, rounds) = match scale {
        Scale::Small => (48usize, 12usize, 16usize),
        Scale::Paper => (256, 16, 24),
    };

    let config = IciConfig::builder()
        .nodes(nodes)
        .cluster_size(cluster_size)
        .replication(2)
        .link(quiet_link())
        .seed(seed)
        .build()
        .expect("valid configuration");
    let profile = FaultProfile {
        seed,
        rounds,
        churn: ChurnConfig {
            crash_prob: 0.04,
            restart_prob: 0.45,
            cluster_churn_prob: 0.08,
            cluster_churn_fraction: 0.25,
            min_live_per_cluster: 6,
            ensure_cycle_per_cluster: true,
        },
        partitions: PartitionPolicy {
            prob: 0.1,
            max_duration_rounds: 2,
        },
        messages: MessageFaultSpec {
            drop_prob: 0.05,
            dup_prob: 0.02,
            delay_prob: 0.05,
            max_extra_delay_ms: 25.0,
        },
        // Crash-only experiment: Byzantine actors live in e_byz. The
        // inert config draws nothing, keeping e_fault.json byte-stable.
        byzantine: ByzantineConfig::default(),
        // Every third round also loses a verifier *between* lifecycle
        // stages of the proposal itself — the staged lifecycle's
        // boundary re-sync is part of what this experiment certifies.
        stage_churn: StageChurn { interval: 3 },
    };

    let (network, summary) = run_ici_under_faults(config, 30, standard_workload(seed), profile)
        .expect("fault plan builds over the formed clusters");

    let mut survivability = Table::new(
        format!("E-fault: survivability under churn, N={nodes}, c={cluster_size}, seed={seed}"),
        ["metric", "value"],
    );
    survivability
        .row([
            "fault schedule fingerprint".to_string(),
            format!("{:016x}", summary.plan_fingerprint),
        ])
        .row(["rounds".to_string(), summary.rounds.to_string()])
        .row([
            "committed blocks".to_string(),
            summary.committed_blocks.to_string(),
        ])
        .row([
            "skipped rounds (liveness loss)".to_string(),
            summary.skipped_rounds.to_string(),
        ])
        .row(["crash events".to_string(), summary.crash_events.to_string()])
        .row([
            "restart events".to_string(),
            summary.restart_events.to_string(),
        ])
        .row([
            "stage-boundary crashes".to_string(),
            summary.stage_crash_events.to_string(),
        ])
        .row([
            "stage-crash rounds committed".to_string(),
            summary.stage_crash_commits.to_string(),
        ])
        .row([
            "recovery attempts".to_string(),
            summary.recovery_attempts.to_string(),
        ])
        .row([
            "recovery success rate".to_string(),
            format!("{:.1}%", summary.recovery_success_rate() * 100.0),
        ])
        .row([
            "re-replication traffic".to_string(),
            format_bytes(summary.repair_bytes),
        ])
        .row([
            "repair transfers".to_string(),
            summary.repair_transfers.to_string(),
        ])
        .row([
            "cross-cluster fetches".to_string(),
            summary.cross_cluster_fetches.to_string(),
        ])
        .row([
            "unrecoverable heights".to_string(),
            summary.unrecoverable_heights.len().to_string(),
        ])
        .row([
            "min live nodes".to_string(),
            summary.min_live_nodes.to_string(),
        ])
        .row([
            "min cluster availability".to_string(),
            format!("{:.3}", summary.min_availability),
        ])
        .row([
            "commit latency p50 (ms)".to_string(),
            format!("{:.1}", summary.commit_latency.p50_ms),
        ])
        .row([
            "commit latency p95 (ms)".to_string(),
            format!("{:.1}", summary.commit_latency.p95_ms),
        ])
        .row([
            "final Merkle audit".to_string(),
            if summary.final_audit_clean {
                format!(
                    "clean ({} shards re-hashed)",
                    summary.merkle_shards_verified
                )
            } else {
                "FAILED".to_string()
            },
        ]);

    let mut cycles = Table::new(
        "E-fault: crash-and-recover cycles per cluster".to_string(),
        ["cluster", "cycles", "final live members", "final audit"],
    );
    let audits = network.merkle_audit_all();
    for (c, count) in summary.cycles_per_cluster.iter().enumerate() {
        let cluster = network.clusters()[c];
        cycles.row([
            format!("c{c}"),
            count.to_string(),
            network.live_members(cluster).len().to_string(),
            if audits[c].is_clean() {
                "clean"
            } else {
                "FAILED"
            }
            .to_string(),
        ]);
    }

    // The acceptance gates: every cluster saw at least one full
    // crash-and-recover cycle, every recovery was verified at shard
    // level, and nothing was permanently lost.
    assert!(
        summary.cycles_per_cluster.iter().all(|c| *c >= 1),
        "a cluster never completed a crash-and-recover cycle: {:?}",
        summary.cycles_per_cluster
    );
    assert!(
        (summary.recovery_success_rate() - 1.0).abs() < f64::EPSILON,
        "recovery fell short of 100%: {summary:?}"
    );
    assert!(summary.final_audit_clean, "final Merkle audit failed");
    assert!(
        summary.stage_crash_events > 0,
        "stage churn never fired: {summary:?}"
    );
    assert!(
        summary.unrecoverable_heights.is_empty(),
        "lost heights: {:?}",
        summary.unrecoverable_heights
    );

    emit(
        "E_fault",
        "Reconstructed: survivability under deterministic fault injection",
        &format!(
            "scale={scale:?}, N={nodes}, c={cluster_size}, r=2, rounds={rounds}, seed={seed}, \
             plan={:016x}",
            summary.plan_fingerprint
        ),
        &[&survivability, &cycles],
    );
}
