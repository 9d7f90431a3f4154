//! Balanced k-means holds `O(n + k)` beside its input: at N = 4 096 and
//! k = 64 it raises the live heap's high-water mark by under 1 MiB. A
//! fill that sorts all `n·k` `(distance, node, cluster)` triples holds
//! 24 bytes a triple, 6.3 MB here, and raised it by 12.65 MB.
//!
//! Read from the process-wide allocator `ici-bench` installs, so this
//! binary holds one test: no other test thread allocates while it
//! measures.

use ici_bench::alloc::stats;
use ici_cluster::kmeans::{balanced_kmeans, KMeansConfig};
use ici_net::topology::{Placement, Topology};

#[test]
fn balanced_kmeans_at_4096_nodes_peaks_under_a_mebibyte() {
    let topology = Topology::generate(4_096, &Placement::default(), 17);
    let before = stats();
    let partition = std::hint::black_box(balanced_kmeans(&topology, &KMeansConfig::with_k(64, 17)));
    let after = stats();
    assert_eq!(partition.node_count(), 4_096);
    // The high-water mark over the call, less what was live before it:
    // an upper bound on what the call held at once.
    let raised = after.peak_live_bytes - before.live_bytes;
    assert!(
        raised < 1 << 20,
        "balanced_kmeans raised the peak by {raised} bytes"
    );
}
