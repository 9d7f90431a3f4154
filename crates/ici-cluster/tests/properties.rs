//! Randomized property tests over clustering and membership.
//!
//! Ported from `proptest` to seeded, deterministic case loops over
//! [`ici_rng`].

use ici_cluster::kmeans::{balanced_kmeans, kmeans, random_partition, KMeansConfig};
use ici_cluster::membership::{JoinPolicy, Membership};
use ici_cluster::partition::{ClusterId, Partition};
use ici_net::node::NodeId;
use ici_net::topology::{Placement, Topology};
use ici_rng::Xoshiro256;

const CASES: usize = 32;

/// Every clustering algorithm assigns every node to exactly one
/// cluster with dense ids.
#[test]
fn partitions_are_total_and_dense() {
    let mut rng = Xoshiro256::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..120);
        let k = rng.gen_range(1usize..12);
        let seed = rng.next_u64();
        let topo = Topology::generate(n, &Placement::default(), seed);
        let cfg = KMeansConfig::with_k(k, seed);
        for partition in [
            random_partition(n, k, seed),
            kmeans(&topo, &cfg),
            balanced_kmeans(&topo, &cfg),
        ] {
            assert_eq!(partition.node_count(), n);
            assert_eq!(partition.sizes().iter().sum::<usize>(), n);
            for i in 0..n as u64 {
                let c = partition.cluster_of(NodeId::new(i));
                assert!(c.index() < partition.cluster_count());
                assert!(partition.members(c).contains(&NodeId::new(i)));
            }
        }
    }
}

/// Balanced k-means and random partitions are always within one of
/// perfectly even.
#[test]
fn balanced_partitions_are_balanced() {
    let mut rng = Xoshiro256::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..120);
        let k = rng.gen_range(1usize..12);
        let seed = rng.next_u64();
        let topo = Topology::generate(n, &Placement::default(), seed);
        let balanced = balanced_kmeans(&topo, &KMeansConfig::with_k(k, seed));
        assert!(balanced.imbalance() <= 1, "sizes {:?}", balanced.sizes());
        let random = random_partition(n, k, seed);
        assert!(random.imbalance() <= 1, "sizes {:?}", random.sizes());
    }
}

/// Joins always land in a valid cluster, and every member list stays
/// ascending by id.
#[test]
fn joins_are_placed_validly() {
    let mut rng = Xoshiro256::seed_from_u64(0xA4);
    for _ in 0..CASES * 2 {
        let n = rng.gen_range(4usize..30);
        let k = rng.gen_range(2usize..5);
        let joins = rng.gen_range(1usize..6);
        let nearest = rng.gen_bool(0.5);
        let seed = rng.next_u64();
        let mut topo = Topology::generate(n, &Placement::default(), seed);
        let mut membership = Membership::new(random_partition(n, k, seed));
        let policy = if nearest {
            JoinPolicy::NearestCentroid
        } else {
            JoinPolicy::SmallestCluster
        };
        for j in 0..joins {
            let coord = ici_net::topology::Coord::new(j as f64 * 7.0, 3.0);
            let node = topo.push(coord);
            let cluster = membership.join(node, coord, &topo, policy);
            assert!(cluster.index() < membership.cluster_count());
            assert!(membership.members(cluster).contains(&node));
            assert_eq!(membership.cluster_of(node), cluster);
        }
        assert_eq!(membership.partition().node_count(), n + joins);
        for c in 0..membership.cluster_count() as u32 {
            let members = membership.members(ClusterId::new(c));
            assert!(members.windows(2).all(|w| w[0] < w[1]), "{members:?}");
        }
    }
}

/// A membership of no nodes still has one (empty) cluster, and the
/// first node to join lands in it under either policy.
#[test]
fn a_join_into_an_empty_membership_admits_node_zero_to_cluster_zero() {
    for policy in [JoinPolicy::SmallestCluster, JoinPolicy::NearestCentroid] {
        let mut topo = Topology::from_coords(Vec::new());
        let mut membership = Membership::new(Partition::from_assignment(Vec::new()));
        assert_eq!(membership.cluster_count(), 1);
        let coord = ici_net::topology::Coord::new(5.0, 5.0);
        let node = topo.push(coord);
        assert_eq!(node, NodeId::new(0));
        let cluster = membership.join(node, coord, &topo, policy);
        assert_eq!(cluster, ClusterId::new(0), "{policy:?}");
        assert_eq!(membership.members(cluster), &[node]);
        assert_eq!(membership.cluster_of(node), cluster);
    }
}

/// A random partition into zero clusters is one cluster holding every
/// node, the same as `k = 1`.
#[test]
fn a_random_partition_into_zero_clusters_is_one_cluster() {
    for n in [0usize, 1, 7] {
        let partition = random_partition(n, 0, 9);
        assert_eq!(partition.cluster_count(), 1, "n={n}");
        assert_eq!(partition.sizes(), vec![n], "n={n}");
        assert_eq!(partition, random_partition(n, 1, 9), "n={n}");
    }
}
