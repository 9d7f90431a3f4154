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
//! (telemetry off); CI runs it twice and under 1 and 4 worker threads
//! and diffs the files.
//!
//! Run: `cargo run --release -p ici-bench --bin e_byz [--paper] [--seed N]`

use ici_baselines::full::FullConfig;
use ici_baselines::rapidchain::RapidChainConfig;
use ici_bench::{emit, quiet_link, seed_from_args, standard_workload, Scale};
use ici_core::config::IciConfig;
use ici_faults::plan::{ByzantineConfig, ChurnConfig};
use ici_sim::fault_run::{
    run_full_under_faults, run_ici_under_faults, run_rapidchain_under_faults, FaultProfile,
    FaultRunSummary,
};
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

fn main() {
    let scale = Scale::from_args();
    let seed = seed_from_args();
    let (nodes, cluster_size, rounds, min_live) = match scale {
        Scale::Small => (48usize, 12usize, 16usize, 6usize),
        Scale::Paper => (256, 16, 24, 8),
    };
    let txs_per_block = 30;

    let ici_config = IciConfig::builder()
        .nodes(nodes)
        .cluster_size(cluster_size)
        .replication(2)
        .link(quiet_link())
        .seed(seed)
        .build()
        .expect("valid configuration");
    let (_, ici) = run_ici_under_faults(
        ici_config,
        txs_per_block,
        standard_workload(seed),
        byz_profile(seed, rounds, min_live),
    )
    .expect("fault plan builds over the formed clusters");

    let full_config = FullConfig {
        nodes,
        link: quiet_link(),
        seed,
        ..FullConfig::default()
    };
    let (_, full) = run_full_under_faults(
        full_config,
        txs_per_block,
        standard_workload(seed),
        byz_profile(seed, rounds, min_live),
    )
    .expect("fault plan builds over the node set");

    let rc_config = RapidChainConfig {
        nodes,
        committee_size: cluster_size,
        link: quiet_link(),
        seed,
        ..RapidChainConfig::default()
    };
    let (_, rapidchain) = run_rapidchain_under_faults(
        rc_config,
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
    let row3 = |t: &mut Table, metric: &str, f: &dyn Fn(&FaultRunSummary) -> String| {
        t.row([
            metric.to_string(),
            f(columns[0]),
            f(columns[1]),
            f(columns[2]),
        ]);
    };
    row3(&mut comparison, "committed blocks", &|c| {
        c.committed_blocks.to_string()
    });
    row3(&mut comparison, "skipped rounds", &|c| {
        c.skipped_rounds.to_string()
    });
    row3(&mut comparison, "rounds lost to Byzantine action", &|c| {
        c.byz_skipped_rounds.to_string()
    });
    row3(&mut comparison, "equivocation attempts", &|c| {
        c.equivocation_attempts.to_string()
    });
    row3(&mut comparison, "equivocations detected", &|c| {
        c.equivocations_detected.to_string()
    });
    row3(&mut comparison, "equivocation detection rate", &|c| {
        format!("{:.1}%", c.equivocation_detection_rate() * 100.0)
    });
    row3(&mut comparison, "undetected equivocations (hazard)", &|c| {
        c.safety_breaches.to_string()
    });
    row3(&mut comparison, "verdict flips", &|c| {
        c.verdict_flips.to_string()
    });
    row3(&mut comparison, "verdict withholds", &|c| {
        c.verdict_withholds.to_string()
    });
    row3(&mut comparison, "lying verifiers named", &|c| {
        c.liars_detected.to_string()
    });
    row3(&mut comparison, "liar detection rate", &|c| {
        format!("{:.1}%", c.liar_detection_rate() * 100.0)
    });
    row3(&mut comparison, "wasted bytes (killed blocks)", &|c| {
        format_bytes(c.wasted_bytes)
    });
    row3(&mut comparison, "total bytes", &|c| {
        format_bytes(c.total_bytes)
    });
    row3(&mut comparison, "wasted fraction", &|c| {
        format!("{:.2}%", c.wasted_fraction() * 100.0)
    });
    row3(&mut comparison, "min live nodes", &|c| {
        c.min_live_nodes.to_string()
    });
    row3(&mut comparison, "fault schedule fingerprint", &|c| {
        format!("{:016x}", c.plan_fingerprint)
    });

    let mut detail = Table::new(
        "E-byz: ICI detection detail".to_string(),
        ["metric", "value"],
    );
    detail
        .row(["clusters".to_string(), ici.clusters.to_string()])
        .row([
            "remote cluster verdicts missed".to_string(),
            ici.byz_missed_cluster_verdicts.to_string(),
        ])
        .row([
            "recovery success rate".to_string(),
            format!("{:.1}%", ici.recovery_success_rate() * 100.0),
        ])
        .row([
            "final Merkle audit".to_string(),
            if ici.final_audit_clean {
                "clean".to_string()
            } else {
                "FAILED".to_string()
            },
        ]);

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

    emit(
        "E_byz",
        "Reconstructed: survivability under Byzantine proposers and verifiers",
        &format!(
            "scale={scale:?}, N={nodes}, c={cluster_size}, r=2, rounds={rounds}, seed={seed}, \
             equiv=0.25, byz_frac=0.2, flip=0.3, withhold=0.1, plan={:016x}",
            ici.plan_fingerprint
        ),
        &[&comparison, &detail],
    );
}
