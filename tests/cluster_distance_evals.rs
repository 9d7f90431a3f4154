//! Balanced k-means at N = 4 096 nodes and clusters of 64 (k = 64),
//! counted: `cluster/distance_evals` (every `Coord::distance` in
//! `kmeans.rs`) pinned, and `cluster/kmeans_iters` equal to the plain
//! Lloyd's.
//!
//! The plain algorithms evaluated `n·k` distances for the k-means++
//! seeding, `n·k + k` per Lloyd iteration (the scan and the drifts), `n·k`
//! for the final assignment and `n·k` for the sorted fill: 7 866 048 here
//! over 27 iterations. Bounded Lloyd and the lazy fill must stay under a
//! third of that.

use ici_cluster::kmeans::{balanced_kmeans, KMeansConfig};
use ici_net::topology::{Placement, Topology};

fn counter(snapshot: &ici_telemetry::TelemetrySnapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

#[test]
fn balanced_kmeans_at_4096_nodes_evaluates_under_a_third_of_the_plain_distances() {
    let topology = Topology::generate(4_096, &Placement::default(), 17);
    ici_telemetry::set_enabled(true);
    ici_telemetry::reset();
    let partition = balanced_kmeans(&topology, &KMeansConfig::with_k(64, 17));
    let snapshot = ici_telemetry::snapshot();
    ici_telemetry::set_enabled(false);
    assert_eq!(partition.imbalance(), 0, "sizes {:?}", partition.sizes());

    const PLAIN_EVALS: u64 = 7_866_048;
    let evals = counter(&snapshot, "cluster/distance_evals");
    assert_eq!(counter(&snapshot, "cluster/kmeans_iters"), 27);
    assert!(evals * 3 <= PLAIN_EVALS, "{evals} distance evaluations");
    assert_eq!(evals, 2_055_506);
}
