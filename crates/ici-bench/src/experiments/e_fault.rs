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
//! telemetry off) a byte-identical `results/e_fault.json`; `ici-bench
//! check` runs it twice against the committed record.
//!
//! Run: `cargo run --release -p ici-bench -- e_fault [--paper] [--seed N]`

use ici_bench::{ici_config, metric_table, standard_workload, Report, Scale};
use ici_core::network::IciNetwork;
use ici_faults::plan::{ByzantineConfig, ChurnConfig, MessageFaultSpec, PartitionPolicy};
use ici_sim::fault_run::{run_under_faults, FaultProfile, StageChurn};
use ici_sim::table::Table;
use ici_storage::stats::format_bytes;

pub fn run(scale: Scale, seed: u64) -> Report {
    let (nodes, cluster_size, rounds) = match scale {
        Scale::Small => (48usize, 12usize, 16usize),
        Scale::Paper => (256, 16, 24),
    };

    let config = ici_config(nodes, cluster_size, 2, seed);
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
        // stages of the proposal itself — that later stages see the
        // crash is part of what this experiment certifies.
        stage_churn: StageChurn { interval: 3 },
    };

    let (network, summary) =
        run_under_faults::<IciNetwork>(config, 30, standard_workload(seed), profile)
            .expect("fault plan builds over the formed clusters");

    let s = &summary;
    let survivability = metric_table(
        format!("E-fault: survivability under churn, N={nodes}, c={cluster_size}, seed={seed}"),
        [
            (
                "fault schedule fingerprint",
                format!("{:016x}", s.plan_fingerprint),
            ),
            ("rounds", s.rounds.to_string()),
            ("committed blocks", s.committed_blocks.to_string()),
            (
                "skipped rounds (liveness loss)",
                s.skipped_rounds.to_string(),
            ),
            ("crash events", s.crash_events.to_string()),
            ("restart events", s.restart_events.to_string()),
            ("stage-boundary crashes", s.stage_crash_events.to_string()),
            (
                "stage-crash rounds committed",
                s.stage_crash_commits.to_string(),
            ),
            ("recovery attempts", s.recovery_attempts.to_string()),
            (
                "recovery success rate",
                format!("{:.1}%", s.recovery_success_rate() * 100.0),
            ),
            ("re-replication traffic", format_bytes(s.repair_bytes)),
            ("repair transfers", s.repair_transfers.to_string()),
            ("cross-cluster fetches", s.cross_cluster_fetches.to_string()),
            (
                "unrecoverable heights",
                s.unrecoverable_heights.len().to_string(),
            ),
            ("min live nodes", s.min_live_nodes.to_string()),
            (
                "min cluster availability",
                format!("{:.3}", s.min_availability),
            ),
            (
                "commit latency p50 (ms)",
                format!("{:.1}", s.commit_latency.p50_ms),
            ),
            (
                "commit latency p95 (ms)",
                format!("{:.1}", s.commit_latency.p95_ms),
            ),
            (
                "final Merkle audit",
                if s.final_audit_clean {
                    format!("clean ({} shards re-hashed)", s.merkle_shards_verified)
                } else {
                    "FAILED".to_string()
                },
            ),
        ],
    );

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

    Report {
        id: "E_fault",
        title: "Reconstructed: survivability under deterministic fault injection",
        params: format!(
            "scale={scale:?}, N={nodes}, c={cluster_size}, r=2, rounds={rounds}, seed={seed}, \
             plan={:016x}",
            summary.plan_fingerprint
        ),
        tables: vec![survivability, cycles],
        closing: None,
    }
}
