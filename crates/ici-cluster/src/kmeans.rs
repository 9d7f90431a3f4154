//! Latency-aware clustering: k-means and balanced k-means.
//!
//! The paper divides participants into clusters "via clustering"; the
//! natural objective in a WAN is low intra-cluster latency, so nodes are
//! clustered over their latency-space coordinates. Two algorithms:
//!
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding. Clusters track
//!   network geography but sizes float.
//! * [`balanced_kmeans`] — the same centroids, but assignment fills
//!   clusters to a hard capacity `⌈n/k⌉` nearest-first. ICIStrategy wants
//!   near-equal cluster sizes (per-node storage is `≈ chain / |cluster|`,
//!   so a tiny cluster would overload its members).
//!
//! Plus [`random_partition`], the baseline for experiment E8.

use ici_rng::Xoshiro256;

use ici_net::node::NodeId;
use ici_net::topology::{Coord, Topology};

use crate::partition::{ClusterId, Partition};

/// Points per partial sum in the Lloyd update step. Coordinate sums are
/// accumulated per chunk of this many points and the partials added in
/// chunk order; floating-point addition is not associative, so the
/// chunk width is part of every centroid's bits (and of every committed
/// record downstream of a clustering). Runs with `n <= CHUNK_POINTS`
/// form a single chunk, which is the plain running sum.
const CHUNK_POINTS: usize = 1024;

/// Maximum Lloyd iterations.
const MAX_ITERS: usize = 50;

/// Convergence threshold: stop when no centroid moves further than this
/// (ms).
const TOLERANCE_MS: f64 = 0.01;

/// Configuration for the k-means algorithms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KMeansConfig {
    /// Number of clusters `k`.
    pub k: usize,
    /// Seed for k-means++ initialisation.
    pub seed: u64,
}

impl KMeansConfig {
    /// A config with `k` clusters. Lloyd runs at most 50 iterations and
    /// stops once no centroid moves more than 0.01 ms.
    pub fn with_k(k: usize, seed: u64) -> KMeansConfig {
        KMeansConfig { k, seed }
    }
}

fn kmeans_pp_init(coords: &[Coord], k: usize, rng: &mut Xoshiro256) -> Vec<Coord> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(coords[rng.gen_range(0..coords.len())]);
    let mut dist2: Vec<f64> = coords
        .iter()
        .map(|c| {
            let d = c.distance(&centroids[0]);
            d * d
        })
        .collect();
    while centroids.len() < k {
        let total: f64 = dist2.iter().sum();
        let next = if total <= f64::EPSILON {
            // All points coincide with existing centroids; pick uniformly.
            coords[rng.gen_range(0..coords.len())]
        } else {
            let mut target = rng.gen_f64() * total;
            let mut chosen = coords.len() - 1;
            for (i, d) in dist2.iter().enumerate() {
                if target < *d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            coords[chosen]
        };
        centroids.push(next);
        for (i, c) in coords.iter().enumerate() {
            let d = c.distance(&next);
            dist2[i] = dist2[i].min(d * d);
        }
    }
    centroids
}

fn nearest(centroids: &[Coord], point: &Coord) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = point.distance(c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Lloyd assignment step: nearest centroid per point.
fn assign_step(coords: &[Coord], centroids: &[Coord]) -> Vec<usize> {
    coords.iter().map(|c| nearest(centroids, c)).collect()
}

/// Lloyd update step: per-cluster coordinate sums, accumulated per
/// [`CHUNK_POINTS`]-wide chunk and reduced in chunk order.
fn recompute_centroids(
    coords: &[Coord],
    assignment: &[usize],
    k: usize,
    old: &[Coord],
) -> Vec<Coord> {
    let mut sums = vec![(0.0f64, 0.0f64, 0usize); k];
    for (coords, assignment) in coords
        .chunks(CHUNK_POINTS)
        .zip(assignment.chunks(CHUNK_POINTS))
    {
        let mut partial = vec![(0.0f64, 0.0f64, 0usize); k];
        for (coord, &c) in coords.iter().zip(assignment) {
            if let Some(entry) = partial.get_mut(c) {
                entry.0 += coord.x;
                entry.1 += coord.y;
                entry.2 += 1;
            }
        }
        for (acc, part) in sums.iter_mut().zip(partial) {
            acc.0 += part.0;
            acc.1 += part.1;
            acc.2 += part.2;
        }
    }
    sums.iter()
        .enumerate()
        .map(|(i, (x, y, n))| {
            if *n == 0 {
                old.get(i).copied().unwrap_or_default() // keep an empty cluster's centroid in place
            } else {
                Coord::new(x / *n as f64, y / *n as f64)
            }
        })
        .collect()
}

/// Lloyd's iterations from a k-means++ seeding: the final centroids.
fn lloyd(coords: &[Coord], k: usize, config: &KMeansConfig) -> Vec<Coord> {
    let mut rng = Xoshiro256::seed_from_u64(config.seed ^ 0x6B6D_6561_6E73);
    let mut centroids = kmeans_pp_init(coords, k, &mut rng);
    let mut iters = 0u64;
    for _ in 0..MAX_ITERS {
        let _iter_span = ici_telemetry::span!("cluster/kmeans_iter");
        iters += 1;
        let assignment = assign_step(coords, &centroids);
        let next = recompute_centroids(coords, &assignment, k, &centroids);
        let moved = centroids
            .iter()
            .zip(&next)
            .map(|(a, b)| a.distance(b))
            .fold(0.0f64, f64::max);
        centroids = next;
        if moved <= TOLERANCE_MS {
            break;
        }
    }
    ici_telemetry::counter_add("cluster/kmeans_iters", ici_telemetry::Label::Global, iters);
    centroids
}

/// Runs Lloyd's k-means over the topology's coordinates.
///
/// A `config.k` of zero runs as one cluster; an empty topology gives a
/// partition of no nodes.
pub fn kmeans(topology: &Topology, config: &KMeansConfig) -> Partition {
    let _span = ici_telemetry::span!("cluster/kmeans");
    let coords = topology.coords();
    if coords.is_empty() {
        return Partition::from_assignment(Vec::new());
    }
    let centroids = lloyd(coords, config.k.clamp(1, coords.len()), config);
    Partition::from_assignment(
        assign_step(coords, &centroids)
            .into_iter()
            .map(|c| ClusterId::new(c as u32))
            .collect(),
    )
}

/// Balanced k-means: k-means centroids, then capacity-constrained
/// assignment. Every cluster ends with `⌊n/k⌋` or `⌈n/k⌉` members.
///
/// Assignment sorts all `(node, centroid)` pairs by distance and fills
/// greedily, so each node gets the closest centroid that still has room —
/// `O(nk log nk)`, fast enough for the paper-scale 4,000-node sweeps.
///
/// As with [`kmeans`], a `config.k` of zero runs as one cluster and an
/// empty topology gives a partition of no nodes.
pub fn balanced_kmeans(topology: &Topology, config: &KMeansConfig) -> Partition {
    let _span = ici_telemetry::span!("cluster/balanced_kmeans");
    let unbalanced = kmeans(topology, config);
    let coords = topology.coords();
    let n = coords.len();
    if n == 0 {
        return unbalanced;
    }
    let k = config.k.clamp(1, n);

    // Recover centroids of the unbalanced solution.
    let mut centroids = vec![Coord::default(); k];
    let mut counts = vec![0usize; k];
    for (i, coord) in coords.iter().enumerate() {
        let c = unbalanced.cluster_of(NodeId::new(i as u64)).index();
        centroids[c].x += coord.x;
        centroids[c].y += coord.y;
        counts[c] += 1;
    }
    for (c, count) in counts.iter().enumerate() {
        if *count > 0 {
            centroids[c].x /= *count as f64;
            centroids[c].y /= *count as f64;
        }
    }

    let cap_high = n.div_ceil(k);
    let n_high = if n % k == 0 { k } else { n % k };
    // `n_high` clusters may take ⌈n/k⌉; the rest are capped at ⌊n/k⌋.
    let mut capacity: Vec<usize> = (0..k)
        .map(|i| if i < n_high { cap_high } else { n / k })
        .collect();

    // Sort every (node, centroid) pair by distance; fill greedily. Distance
    // ties break on (node, cluster) index for determinism.
    let mut pairs: Vec<(f64, usize, usize)> = Vec::with_capacity(n * k);
    for (i, coord) in coords.iter().enumerate() {
        for (c, centroid) in centroids.iter().enumerate() {
            pairs.push((coord.distance(centroid), i, c));
        }
    }
    pairs.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    let mut assignment = vec![usize::MAX; n];
    let mut placed = 0;
    for (_, node, cluster) in pairs {
        if placed == n {
            break;
        }
        if assignment[node] == usize::MAX && capacity[cluster] > 0 {
            assignment[node] = cluster;
            capacity[cluster] -= 1;
            placed += 1;
        }
    }

    Partition::from_assignment(
        assignment
            .into_iter()
            .map(|c| ClusterId::new(c as u32))
            .collect(),
    )
}

/// Uniform random partition into `k` near-equal clusters (round-robin over
/// a shuffled node order). The clustering baseline of experiment E8.
/// A `k` of zero is taken as one: every node lands in cluster 0.
pub fn random_partition(n: usize, k: usize, seed: u64) -> Partition {
    let k = k.max(1);
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x7261_6E64_7061_7274);
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut assignment = vec![ClusterId::new(0); n];
    for (pos, node) in order.into_iter().enumerate() {
        assignment[node] = ClusterId::new((pos % k) as u32);
    }
    Partition::from_assignment(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_net::topology::Placement;

    fn wan(n: usize, seed: u64) -> Topology {
        Topology::generate(
            n,
            &Placement::Regional {
                regions: 4,
                side: 120.0,
                spread: 4.0,
            },
            seed,
        )
    }

    #[test]
    fn kmeans_is_deterministic() {
        let topo = wan(80, 1);
        let cfg = KMeansConfig::with_k(4, 9);
        assert_eq!(kmeans(&topo, &cfg), kmeans(&topo, &cfg));
    }

    #[test]
    fn lloyd_centroid_bits_are_pinned_above_one_chunk() {
        // 2 500 points are three partial sums; the bits below are what
        // that reduction order gives (taken at 801014f, where the chunks
        // were pool tasks, at one and at four threads). A plain running
        // sum over all points lands on different low bits.
        let topo = wan(2500, 13);
        let bits: Vec<(u64, u64)> = lloyd(topo.coords(), 8, &KMeansConfig::with_k(8, 21))
            .iter()
            .map(|c| (c.x.to_bits(), c.y.to_bits()))
            .collect();
        let pinned = [
            (0x4059d9f5b0852b2f, 0x40566a92a91c5af1),
            (0x405cccf17d03ced4, 0xbfbe4cddb06f627a),
            (0x404262c3312a845f, 0x401e0b38742f7fc4),
            (0x4022dbeb35da30bc, 0x401d193dfdc6b366),
            (0x40441425293e7f7f, 0x3ffe6f24f9ea3432),
            (0x405e20cfd380a7c0, 0x400dfec058debfa3),
            (0x4059fdedbee26030, 0x405812a53f7abb6f),
            (0x402c129f61d0d949, 0x400746970b242cd7),
        ];
        assert_eq!(bits, pinned);
    }

    #[test]
    fn kmeans_covers_all_nodes() {
        let topo = wan(100, 2);
        let p = kmeans(&topo, &KMeansConfig::with_k(5, 3));
        assert_eq!(p.node_count(), 100);
        assert_eq!(p.sizes().iter().sum::<usize>(), 100);
        assert!(p.cluster_count() <= 5);
    }

    #[test]
    fn kmeans_beats_random_on_regional_topologies() {
        let topo = wan(120, 5);
        let km = kmeans(&topo, &KMeansConfig::with_k(4, 1));
        let rnd = random_partition(120, 4, 1);
        let km_d = km.mean_intra_cluster_distance(&topo);
        let rnd_d = rnd.mean_intra_cluster_distance(&topo);
        assert!(
            km_d < rnd_d * 0.7,
            "kmeans {km_d:.1}ms not clearly below random {rnd_d:.1}ms"
        );
    }

    #[test]
    fn balanced_kmeans_is_balanced() {
        let topo = wan(103, 7);
        let p = balanced_kmeans(&topo, &KMeansConfig::with_k(5, 2));
        assert_eq!(p.node_count(), 103);
        assert!(p.imbalance() <= 1, "sizes {:?}", p.sizes());
    }

    #[test]
    fn balanced_kmeans_still_latency_aware() {
        let topo = wan(120, 11);
        let bal = balanced_kmeans(&topo, &KMeansConfig::with_k(4, 1));
        let rnd = random_partition(120, 4, 1);
        assert!(
            bal.mean_intra_cluster_distance(&topo) < rnd.mean_intra_cluster_distance(&topo),
            "balanced k-means should still beat random"
        );
    }

    #[test]
    fn exact_division_gives_equal_sizes() {
        let topo = wan(100, 3);
        let p = balanced_kmeans(&topo, &KMeansConfig::with_k(4, 0));
        assert_eq!(p.sizes(), vec![25, 25, 25, 25]);
    }

    #[test]
    fn k_larger_than_n_degrades_gracefully() {
        let topo = wan(3, 1);
        let p = kmeans(&topo, &KMeansConfig::with_k(10, 0));
        assert_eq!(p.node_count(), 3);
        assert!(p.cluster_count() <= 3);
    }

    #[test]
    fn k_equals_one_is_single_cluster() {
        let topo = wan(20, 1);
        let p = kmeans(&topo, &KMeansConfig::with_k(1, 0));
        assert_eq!(p.cluster_count(), 1);
        assert_eq!(p.members(ClusterId::new(0)).len(), 20);
    }

    #[test]
    fn random_partition_is_balanced_and_seeded() {
        let a = random_partition(50, 7, 3);
        let b = random_partition(50, 7, 3);
        let c = random_partition(50, 7, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.imbalance() <= 1);
        assert_eq!(a.cluster_count(), 7);
    }

    #[test]
    fn identical_coordinates_do_not_hang() {
        let topo = Topology::from_coords(vec![Coord::new(1.0, 1.0); 12]);
        let p = kmeans(&topo, &KMeansConfig::with_k(3, 0));
        assert_eq!(p.node_count(), 12);
        let b = balanced_kmeans(&topo, &KMeansConfig::with_k(3, 0));
        assert!(b.imbalance() <= 1);
    }

    #[test]
    fn kmeans_iterations_are_span_covered() {
        ici_telemetry::set_enabled(true);
        ici_telemetry::reset();
        let topo = wan(60, 9);
        let _ = balanced_kmeans(&topo, &KMeansConfig::with_k(4, 2));
        let snap = ici_telemetry::snapshot();
        ici_telemetry::set_enabled(false);
        assert!(snap.spans.iter().any(|s| s.name == "cluster/kmeans"));
        assert!(snap
            .spans
            .iter()
            .any(|s| s.name == "cluster/balanced_kmeans"));
        let iter_span = snap
            .spans
            .iter()
            .find(|s| s.name == "cluster/kmeans_iter")
            .expect("every Lloyd iteration is span-covered");
        let iters = snap
            .counters
            .iter()
            .find(|c| c.name == "cluster/kmeans_iters")
            .expect("iteration counter recorded");
        assert!(iters.value >= 1);
        assert_eq!(iter_span.count, iters.value);
    }

    #[test]
    fn zero_k_is_one_cluster_and_no_nodes_no_partition() {
        let topo = wan(10, 0);
        let (zero, one) = (KMeansConfig::with_k(0, 5), KMeansConfig::with_k(1, 5));
        assert_eq!(kmeans(&topo, &zero), kmeans(&topo, &one));
        assert_eq!(balanced_kmeans(&topo, &zero), balanced_kmeans(&topo, &one));
        assert_eq!(balanced_kmeans(&topo, &zero).cluster_count(), 1);

        let empty = Topology::from_coords(Vec::new());
        for k in [0, 4] {
            let config = KMeansConfig::with_k(k, 5);
            assert_eq!(kmeans(&empty, &config).node_count(), 0);
            assert_eq!(balanced_kmeans(&empty, &config).node_count(), 0);
        }
    }
}
