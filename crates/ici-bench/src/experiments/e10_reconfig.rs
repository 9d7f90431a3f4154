//! **E10 (ablation) — epoch reconfiguration cost.**
//!
//! How expensive is it to re-cluster a live, drifted network? Nodes join
//! at biased positions (eroding the original clusters), then a
//! reconfiguration epoch runs: the table reports the migration volume,
//! the improvement in intra-cluster latency, and the commit-latency gain
//! that pays for the move — for each clustering algorithm.
//!
//! Run: `cargo run --release -p ici-bench -- e10 [--paper]`

use ici_bench::{ici_builder, standard_workload, Report, Scale};
use ici_cluster::membership::JoinPolicy;
use ici_core::config::Clustering;
use ici_net::topology::Coord;
use ici_sim::runner::run_ici;
use ici_sim::table::Table;
use ici_storage::stats::format_bytes;
use ici_workload::WorkloadGenerator;

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    values[values.len() / 2]
}

pub fn run(scale: Scale) -> Report {
    let n = match scale {
        Scale::Small => 128usize,
        Scale::Paper => 512,
    };
    let c = 16usize;
    let joins = 24usize;

    let mut table = Table::new(
        format!("E10: reconfiguration after {joins} drifting joins, N={n}+{joins}, c={c}"),
        [
            "clustering",
            "moved nodes",
            "bodies fetched",
            "bytes moved",
            "intra-dist before (ms)",
            "intra-dist after (ms)",
            "commit p50 before (ms)",
            "commit p50 after (ms)",
        ],
    );

    for (name, clustering) in [
        ("random", Clustering::Random),
        ("balanced k-means", Clustering::BalancedKMeans),
    ] {
        let (mut network, _) = run_ici(
            ici_builder(n, c, 2, 41)
                .clustering(clustering)
                .build()
                .expect("valid configuration"),
            10,
            30,
            standard_workload(41),
        );

        // Drift: a burst of joins concentrated in one corner of the
        // latency space (a new region coming online).
        for i in 0..joins {
            network
                .bootstrap_node(
                    Coord::new(150.0 + (i % 5) as f64, 150.0 + (i / 5) as f64),
                    JoinPolicy::SmallestCluster,
                )
                .expect("join succeeds");
        }

        // Post-join, pre-reconfiguration baseline: the drifted network's
        // own commit latency, so the comparison isolates reconfiguration.
        let mut generator = WorkloadGenerator::new(standard_workload(42));
        let log_mark = network.commit_log().len();
        for _ in 0..8 {
            network
                .propose_block(generator.batch(30))
                .expect("commits before reconfig");
        }
        let commit_before = median(
            network.commit_log()[log_mark..]
                .iter()
                .map(|r| r.commit_latency().as_millis_f64())
                .collect(),
        );
        let topology = network.net().topology().clone();
        let dist_before = network
            .membership()
            .partition()
            .mean_intra_cluster_distance(&topology);

        let report = network.reconfigure_clusters();
        let dist_after = network
            .membership()
            .partition()
            .mean_intra_cluster_distance(&topology);

        // Commit a few more blocks to measure post-reconfig latency.
        let log_before = network.commit_log().len();
        for _ in 0..8 {
            network
                .propose_block(generator.batch(30))
                .expect("commits after reconfig");
        }
        let commit_after = median(
            network.commit_log()[log_before..]
                .iter()
                .map(|r| r.commit_latency().as_millis_f64())
                .collect(),
        );

        table.row([
            name.to_string(),
            report.moved_nodes.to_string(),
            report.bodies_fetched.to_string(),
            format_bytes(report.bytes_moved),
            format!("{dist_before:.2}"),
            format!("{dist_after:.2}"),
            format!("{commit_before:.1}"),
            format!("{commit_after:.1}"),
        ]);

        // Invariant: integrity survives reconfiguration.
        assert!(network.audit_all().iter().all(|rep| rep.is_intact()));
    }

    Report {
        id: "E10",
        title: "Ablation: epoch reconfiguration cost and benefit",
        params: format!("scale={scale:?}, N={n}, c={c}, joins={joins}"),
        tables: vec![table],
        closing: None,
    }
}
