//! **E8 / Fig. clustering — latency-aware clustering vs random partition.**
//!
//! The strategy is "via clustering": on a regionally clumped WAN,
//! balanced k-means clusters have far smaller intra-cluster RTTs than a
//! random partition, which directly shrinks the intra-cluster PBFT round
//! and therefore block commit latency. This experiment reports cluster
//! quality (mean intra-cluster distance, diameter) and the measured ICI
//! commit latency under each clustering algorithm.
//!
//! Run: `cargo run --release -p ici-bench -- e8 [--paper]`

use ici_bench::{cluster_size, ici_builder, standard_workload, Report, Scale};
use ici_cluster::kmeans::{balanced_kmeans, kmeans, random_partition, KMeansConfig};
use ici_cluster::partition::Partition;
use ici_core::config::Clustering;
use ici_net::topology::{Placement, Topology};
use ici_sim::runner::run_ici;
use ici_sim::table::Table;

fn quality(partition: &Partition, topology: &Topology) -> (f64, f64) {
    let mean = partition.mean_intra_cluster_distance(topology);
    let max_diameter = partition
        .cluster_diameters(topology)
        .into_iter()
        .fold(0.0f64, f64::max);
    (mean, max_diameter)
}

pub fn run(scale: Scale) -> Report {
    let n: usize = match scale {
        Scale::Small => 256,
        Scale::Paper => 1_024,
    };
    let c = cluster_size(scale);
    let k = n.div_ceil(c);
    let blocks = 12;
    let txs = 30;

    // Cluster-quality table on the same regional topology the runs use.
    let topology = Topology::generate(n, &Placement::default(), 25);
    let mut quality_table = Table::new(
        format!("E8 (quality): clustering on a regional WAN, N={n}, k={k}"),
        [
            "algorithm",
            "mean intra-cluster dist (ms)",
            "max cluster diameter (ms)",
            "size imbalance",
        ],
    );
    for (name, partition) in [
        ("random", random_partition(n, k, 25)),
        ("k-means", kmeans(&topology, &KMeansConfig::with_k(k, 25))),
        (
            "balanced k-means",
            balanced_kmeans(&topology, &KMeansConfig::with_k(k, 25)),
        ),
    ] {
        let (mean, diameter) = quality(&partition, &topology);
        quality_table.row([
            name.to_string(),
            format!("{mean:.2}"),
            format!("{diameter:.2}"),
            partition.imbalance().to_string(),
        ]);
    }

    // End-to-end effect: commit latency under each clustering.
    let mut latency_table = Table::new(
        format!("E8 (measured): ICI commit latency by clustering, {blocks} blocks"),
        [
            "clustering",
            "home-cluster p50 (ms)",
            "network p50 (ms)",
            "network p95 (ms)",
        ],
    );
    for (name, algorithm) in [
        ("random", Clustering::Random),
        ("k-means", Clustering::KMeans),
        ("balanced k-means", Clustering::BalancedKMeans),
    ] {
        let (network, summary) = run_ici(
            ici_builder(n, c, 2, 25)
                .clustering(algorithm)
                .build()
                .expect("valid configuration"),
            blocks,
            txs,
            standard_workload(25),
        );
        let mut home: Vec<f64> = network
            .commit_log()
            .iter()
            .map(|r| r.home_latency().as_millis_f64())
            .collect();
        home.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let home_p50 = home.get(home.len() / 2).copied().unwrap_or(0.0);
        latency_table.row([
            name.to_string(),
            format!("{home_p50:.2}"),
            format!("{:.2}", summary.commit_latency.p50_ms),
            format!("{:.2}", summary.commit_latency.p95_ms),
        ]);
    }

    Report {
        id: "E8",
        title: "Clustering quality and its effect on commit latency",
        params: format!("scale={scale:?}, N={n}, c={c}, k={k}, blocks={blocks}, txs/block={txs}"),
        tables: vec![quality_table, latency_table],
        closing: None,
    }
}
