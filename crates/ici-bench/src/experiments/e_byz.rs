//! **E-byz (reconstructed) — survivability under Byzantine actors.**
//!
//! Drives ICIStrategy and both baselines (full replication, RapidChain
//! committees) through the *same* seed-deterministic fault schedule of
//! crash churn plus Byzantine action — equivocating proposers and
//! false-verdict verifiers — and compares how each strategy detects and
//! pays for it:
//!
//! * **detection** — what fraction of equivocation attempts were
//!   exposed by cross-audience exchange, and how many lying verifiers
//!   were named by honest re-verification;
//! * **safety hazard** — equivocations that went undetected because one
//!   audience half held no honest live witness (no strategy commits a
//!   twin, but an undetected split is a real hazard and is counted);
//! * **waste** — bytes spent disseminating blocks that Byzantine action
//!   then killed, as a fraction of all traffic.
//!
//! The same `--seed` produces a byte-identical `results/e_byz.json`
//! (telemetry off); `ici-bench check` runs it twice against the
//! committed record.
//!
//! Run: `cargo run --release -p ici-bench -- e_byz [--paper] [--seed N]`

use ici_baselines::full::FullReplicationNetwork;
use ici_baselines::rapidchain::RapidChainNetwork;
use ici_bench::{
    full_config, ici_config, metric_table, rapidchain_config, standard_workload, Report, Scale,
};
use ici_core::network::IciNetwork;
use ici_faults::plan::{ByzantineConfig, ChurnConfig};
use ici_sim::fault_run::{run_under_faults, FaultProfile, RunSummary};
use ici_sim::table::Table;
use ici_storage::stats::format_bytes;

/// The shared adversary: every strategy faces this schedule shape.
fn byz_profile(seed: u64, rounds: usize, min_live: usize) -> FaultProfile {
    FaultProfile {
        seed,
        rounds,
        churn: ChurnConfig {
            crash_prob: 0.03,
            restart_prob: 0.5,
            cluster_churn_prob: 0.0,
            cluster_churn_fraction: 0.0,
            min_live_per_cluster: min_live,
            ensure_cycle_per_cluster: false,
        },
        byzantine: ByzantineConfig {
            equivocation_prob: 0.25,
            false_verdict_fraction: 0.2,
            flip_prob: 0.3,
            withhold_prob: 0.1,
        },
        ..FaultProfile::default()
    }
}

pub fn run(scale: Scale, seed: u64) -> Report {
    let (nodes, cluster_size, rounds, min_live) = match scale {
        Scale::Small => (48usize, 12usize, 16usize, 6usize),
        Scale::Paper => (256, 16, 24, 8),
    };
    let txs_per_block = 30;

    let (_, ici) = run_under_faults::<IciNetwork>(
        ici_config(nodes, cluster_size, 2, seed),
        txs_per_block,
        standard_workload(seed),
        byz_profile(seed, rounds, min_live),
    )
    .expect("fault plan builds over the formed clusters");

    let (_, full) = run_under_faults::<FullReplicationNetwork>(
        full_config(nodes, seed),
        txs_per_block,
        standard_workload(seed),
        byz_profile(seed, rounds, min_live),
    )
    .expect("fault plan builds over the node set");

    let (_, rapidchain) = run_under_faults::<RapidChainNetwork>(
        rapidchain_config(nodes, cluster_size, seed),
        txs_per_block,
        standard_workload(seed),
        byz_profile(seed, rounds, min_live),
    )
    .expect("fault plan builds over the committees");

    let columns = [&ici, &full, &rapidchain];

    let mut comparison = Table::new(
        format!("E-byz: Byzantine survivability, N={nodes}, c={cluster_size}, seed={seed}"),
        ["metric", "ici", "full", "rapidchain"],
    );
    let metrics: [(&str, fn(&RunSummary) -> String); 16] = [
        ("committed blocks", |c| c.committed_blocks.to_string()),
        ("skipped rounds", |c| c.skipped_rounds.to_string()),
        ("rounds lost to Byzantine action", |c| {
            c.byz_skipped_rounds.to_string()
        }),
        ("equivocation attempts", |c| {
            c.equivocation_attempts.to_string()
        }),
        ("equivocations detected", |c| {
            c.equivocations_detected.to_string()
        }),
        ("equivocation detection rate", |c| {
            format!("{:.1}%", c.equivocation_detection_rate() * 100.0)
        }),
        ("undetected equivocations (hazard)", |c| {
            c.safety_breaches.to_string()
        }),
        ("verdict flips", |c| c.verdict_flips.to_string()),
        ("verdict withholds", |c| c.verdict_withholds.to_string()),
        ("lying verifiers named", |c| c.liars_detected.to_string()),
        ("liar detection rate", |c| {
            format!("{:.1}%", c.liar_detection_rate() * 100.0)
        }),
        ("wasted bytes (killed blocks)", |c| {
            format_bytes(c.wasted_bytes)
        }),
        ("total bytes", |c| format_bytes(c.total_bytes)),
        ("wasted fraction", |c| {
            format!("{:.2}%", c.wasted_fraction() * 100.0)
        }),
        ("min live nodes", |c| c.min_live_nodes.to_string()),
        ("fault schedule fingerprint", |c| {
            format!("{:016x}", c.plan_fingerprint)
        }),
    ];
    for (metric, cell) in metrics {
        comparison.row([metric.to_string()].into_iter().chain(columns.map(cell)));
    }

    let audit = if ici.final_audit_clean {
        "clean"
    } else {
        "FAILED"
    };
    let detail = metric_table(
        "E-byz: ICI detection detail",
        [
            ("clusters", ici.clusters.to_string()),
            (
                "remote cluster verdicts missed",
                ici.byz_missed_cluster_verdicts.to_string(),
            ),
            (
                "recovery success rate",
                format!("{:.1}%", ici.recovery_success_rate() * 100.0),
            ),
            ("final Merkle audit", audit.to_string()),
        ],
    );

    // Acceptance gates. The adversary must actually show up, ICI must
    // expose every equivocation (honest witnesses in both audience
    // halves at this scale) without a single undetected split, name
    // every lying verifier, and still finish with clean storage.
    for c in columns {
        assert!(
            c.equivocation_attempts > 0,
            "vacuous run: `{}` saw no equivocation attempts",
            c.strategy
        );
    }
    assert!(
        (ici.equivocation_detection_rate() - 1.0).abs() < f64::EPSILON,
        "ICI missed an equivocation: {ici:?}"
    );
    assert_eq!(ici.safety_breaches, 0, "undetected equivocation: {ici:?}");
    assert!(
        (ici.liar_detection_rate() - 1.0).abs() < f64::EPSILON,
        "ICI failed to name a lying verifier: {ici:?}"
    );
    assert!(ici.final_audit_clean, "final Merkle audit failed");
    assert!(
        ici.committed_blocks > 0,
        "Byzantine schedule starved the chain entirely"
    );

    Report {
        id: "E_byz",
        title: "Reconstructed: survivability under Byzantine proposers and verifiers",
        params: format!(
            "scale={scale:?}, N={nodes}, c={cluster_size}, r=2, rounds={rounds}, seed={seed}, \
             equiv=0.25, byz_frac=0.2, flip=0.3, withhold=0.1, plan={:016x}",
            ici.plan_fingerprint
        ),
        tables: vec![comparison, detail],
        closing: None,
    }
}
