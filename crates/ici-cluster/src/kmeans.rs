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
//!
//! Both phases return what their plain forms return, to the bit, for
//! less work:
//! * Lloyd keeps Hamerly's (2010) bounds per point (an upper bound on
//!   the distance to its centroid, a lower bound on the distance to any
//!   other) and skips a point only when the two are apart by more than a
//!   `1e-9` relative slack, far more than the bounds' rounding. So a
//!   point whose computed nearest centroid could change, or that sits on
//!   an exact tie, is always scanned, and a scan keeps the lowest index
//!   on a tie. The assignments, and so every centroid bit and the
//!   iteration count, are the full scan's.
//! * The capacity fill takes the `(distance, node, cluster)` triples
//!   in ascending order, as a sort of all `n·k` of them would, but
//!   lazily from a heap of one triple per unplaced node (see
//!   [`balanced_kmeans`]).
//!
//! Every `Coord::distance` call here is counted, per call of [`kmeans`]
//! or [`balanced_kmeans`], in the `cluster/distance_evals` counter.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

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

/// Whether a point whose distance to its own centroid is at most
/// `upper`, and to every other centroid at least `bound`, is certainly
/// nearest its own centroid: the gap must exceed a slack of `1e-9`
/// relative to both sides (and `1e-9` absolute). The bounds are sums
/// and differences of distances, each a few ulps off per Lloyd
/// iteration; over at most [`MAX_ITERS`] iterations at latency-space
/// magnitudes (distances far below 10⁴ ms) that stays far inside the
/// slack, so a point whose computed nearest centroid could change is
/// never skipped. An exact tie is never skipped either.
fn separated(upper: f64, bound: f64) -> bool {
    upper + 1e-9 * (1.0 + upper.abs() + bound.abs()) < bound
}

/// Lloyd's assignment under Hamerly's (2010) bounds, kept across
/// iterations.
///
/// Per point: its centroid, an upper bound on the distance to it and a
/// lower bound on the distance to every other centroid. Per centroid:
/// half the distance to its nearest other centroid, so that a point
/// within it of its own centroid is nearer that one than any other. A
/// point whose upper bound is [`separated`] from the larger of its two
/// lower bounds is not scanned; otherwise its upper bound is tightened
/// to the exact distance, tested again, and only then are all centroids
/// scanned. Each update step loosens the bounds by how far the centroids
/// moved.
struct Lloyd<'a> {
    coords: &'a [Coord],
    centroids: Vec<Coord>,
    assignment: Vec<usize>,
    upper: Vec<f64>,
    lower: Vec<f64>,
    half_gap: Vec<f64>,
    drift: Vec<f64>,
    /// `Coord::distance` calls so far, the k-means++ seeding's included.
    evals: u64,
}

impl<'a> Lloyd<'a> {
    /// Bounds before any pass: every point sits on centroid 0 at an
    /// unknown distance, so the first pass tightens and scans it.
    fn new(coords: &'a [Coord], centroids: Vec<Coord>, evals: u64) -> Lloyd<'a> {
        let (n, k) = (coords.len(), centroids.len());
        Lloyd {
            coords,
            centroids,
            assignment: vec![0; n],
            upper: vec![f64::INFINITY; n],
            lower: vec![0.0; n],
            half_gap: vec![f64::INFINITY; k],
            drift: vec![0.0; k],
            evals,
        }
    }

    /// Lloyd assignment step: every point to its nearest centroid, ties
    /// to the lowest index — what a full scan of every point gives.
    fn assign(&mut self) {
        let k = self.centroids.len();
        self.half_gap.fill(f64::INFINITY);
        for (j, a) in self.centroids.iter().enumerate() {
            for (other, b) in self.centroids.iter().enumerate().skip(j + 1) {
                let d = a.distance(b);
                self.half_gap[j] = self.half_gap[j].min(d);
                self.half_gap[other] = self.half_gap[other].min(d);
            }
        }
        self.half_gap.iter_mut().for_each(|gap| *gap *= 0.5);
        let mut evals = (k * (k - 1) / 2) as u64;

        for (i, point) in self.coords.iter().enumerate() {
            let own = self.assignment[i];
            let bound = self.half_gap[own].max(self.lower[i]);
            if separated(self.upper[i], bound) {
                continue;
            }
            let own_d = point.distance(&self.centroids[own]);
            evals += 1;
            self.upper[i] = own_d;
            if separated(own_d, bound) {
                continue;
            }
            // Strict `<` in index order: the lowest index wins a tie.
            let (mut best, mut best_d, mut second_d) = (0, f64::INFINITY, f64::INFINITY);
            for (j, centroid) in self.centroids.iter().enumerate() {
                let d = if j == own {
                    own_d
                } else {
                    point.distance(centroid)
                };
                if d < best_d {
                    (second_d, best_d, best) = (best_d, d, j);
                } else if d < second_d {
                    second_d = d;
                }
            }
            evals += (k - 1) as u64;
            self.assignment[i] = best;
            self.upper[i] = best_d;
            self.lower[i] = second_d;
        }
        self.evals += evals;
    }

    /// Lloyd update step, then each point's bounds loosened: its upper
    /// bound by its own centroid's drift, its lower bound by the largest
    /// drift among the others. Returns the largest drift.
    fn update(&mut self) -> f64 {
        let next = recompute_centroids(
            self.coords,
            &self.assignment,
            self.centroids.len(),
            &self.centroids,
        );
        for ((drift, old), new) in self.drift.iter_mut().zip(&self.centroids).zip(&next) {
            *drift = old.distance(new);
        }
        self.evals += self.drift.len() as u64;
        self.centroids = next;

        let (mut first, mut first_at, mut second) = (0.0f64, usize::MAX, 0.0f64);
        for (j, &d) in self.drift.iter().enumerate() {
            if d > first {
                (second, first, first_at) = (first, d, j);
            } else if d > second {
                second = d;
            }
        }
        for ((upper, lower), &own) in self
            .upper
            .iter_mut()
            .zip(&mut self.lower)
            .zip(&self.assignment)
        {
            *upper += self.drift[own];
            *lower -= if own == first_at { second } else { first };
        }
        self.drift.iter().copied().fold(0.0f64, f64::max)
    }
}

/// Lloyd's iterations from a k-means++ seeding: the final centroids,
/// with the last assignment's bounds loosened to them, ready for the
/// caller's final [`Lloyd::assign`].
fn lloyd<'a>(coords: &'a [Coord], k: usize, config: &KMeansConfig) -> Lloyd<'a> {
    let mut rng = Xoshiro256::seed_from_u64(config.seed ^ 0x6B6D_6561_6E73);
    let centroids = kmeans_pp_init(coords, k, &mut rng);
    let mut lloyd = Lloyd::new(coords, centroids, (coords.len() * k) as u64);
    let mut iters = 0u64;
    for _ in 0..MAX_ITERS {
        let _iter_span = ici_telemetry::span!("cluster/kmeans_iter");
        iters += 1;
        lloyd.assign();
        if lloyd.update() <= TOLERANCE_MS {
            break;
        }
    }
    ici_telemetry::counter_add("cluster/kmeans_iters", ici_telemetry::Label::Global, iters);
    lloyd
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
    let mut lloyd = lloyd(coords, config.k.clamp(1, coords.len()), config);
    lloyd.assign();
    ici_telemetry::counter_add(
        "cluster/distance_evals",
        ici_telemetry::Label::Global,
        lloyd.evals,
    );
    Partition::from_assignment(
        lloyd
            .assignment
            .into_iter()
            .map(|c| ClusterId::new(c as u32))
            .collect(),
    )
}

/// A fill candidate `(distance, node, cluster)` packed into one integer
/// that orders as the tuple does: a non-negative distance's bits order
/// as its value.
fn candidate(distance: f64, node: usize, cluster: usize) -> u128 {
    (u128::from(distance.to_bits()) << 64) | ((node as u128) << 32) | cluster as u128
}

/// `point`'s nearest centroid among those with room left, ties to the
/// lowest index, as `node`'s fill candidate. Counts its distances into
/// `evals`. The first open cluster stands even at an infinite or NaN
/// distance, so the candidate always names a cluster with room and the
/// fill cannot re-scan forever.
fn nearest_open(
    point: &Coord,
    node: usize,
    centroids: &[Coord],
    capacity: &[usize],
    evals: &mut u64,
) -> u128 {
    let (mut best, mut best_d) = (usize::MAX, f64::INFINITY);
    for (c, (centroid, room)) in centroids.iter().zip(capacity).enumerate() {
        if *room > 0 {
            let d = point.distance(centroid);
            *evals += 1;
            if best == usize::MAX || d < best_d {
                (best, best_d) = (c, d);
            }
        }
    }
    candidate(best_d, node, best)
}

/// Balanced k-means: k-means centroids, then capacity-constrained
/// assignment. Every cluster ends with `⌊n/k⌋` or `⌈n/k⌉` members.
///
/// The assignment is the greedy fill over every `(distance, node,
/// cluster)` triple in ascending order, taking a triple when its node is
/// unplaced and its cluster has room, so each node gets the closest
/// centroid that still has room. It runs lazily: a min-heap holds one
/// triple per unplaced node, its nearest centroid with room when the
/// triple was made (ties to the lowest cluster). The minimum is taken if
/// its cluster still has room; otherwise its node is re-scanned over the
/// clusters with room and its triple replaced. A full cluster never
/// reopens, so a node's triple is never greater than its next valid one,
/// and the fill takes exactly the sorted greedy's triples in the same
/// order, in `O(n + k)` memory.
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

    let mut evals = 0u64;
    let mut heap: BinaryHeap<Reverse<u128>> = coords
        .iter()
        .enumerate()
        .map(|(i, coord)| Reverse(nearest_open(coord, i, &centroids, &capacity, &mut evals)))
        .collect();
    let mut assignment = vec![ClusterId::new(0); n];
    while let Some(mut top) = heap.peek_mut() {
        let Reverse(key) = *top;
        let (node, cluster) = ((key >> 32) as u32 as usize, key as u32 as usize);
        if capacity[cluster] > 0 {
            capacity[cluster] -= 1;
            assignment[node] = ClusterId::new(cluster as u32);
            PeekMut::pop(top);
        } else {
            *top = Reverse(nearest_open(
                &coords[node],
                node,
                &centroids,
                &capacity,
                &mut evals,
            ));
        }
    }
    ici_telemetry::counter_add(
        "cluster/distance_evals",
        ici_telemetry::Label::Global,
        evals,
    );
    Partition::from_assignment(assignment)
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
            .centroids
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
