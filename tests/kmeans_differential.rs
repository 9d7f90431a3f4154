//! `kmeans` and `balanced_kmeans` against the plain algorithms they
//! replace: Lloyd with a full scan of every centroid for every point,
//! and a capacity fill that sorts all `n·k` `(distance, node, cluster)`
//! triples. The reference below is that code as it stood before the
//! bounded Lloyd and the lazy fill, kept only here.
//!
//! Seeded topologies cover the three placements; integer grids, each
//! point once or three times, are full of exact distance ties. Every
//! case must give the same partitions. The two large cases are
//! `#[ignore]`d (the reference takes over a second in release at
//! 16 384 nodes); `scripts/ci.sh` runs them in release:
//! `cargo test --release -q --test kmeans_differential -- --ignored`.

use std::time::{Duration, Instant};

use ici_cluster::kmeans::{balanced_kmeans, kmeans, KMeansConfig};
use ici_cluster::partition::{ClusterId, Partition};
use ici_net::node::NodeId;
use ici_net::topology::{Coord, Placement, Topology};

/// The plain algorithms, as they were.
mod reference {
    use super::*;
    use ici_rng::Xoshiro256;

    const CHUNK_POINTS: usize = 1024;
    const MAX_ITERS: usize = 50;
    const TOLERANCE_MS: f64 = 0.01;

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

    fn assign_step(coords: &[Coord], centroids: &[Coord]) -> Vec<usize> {
        coords.iter().map(|c| nearest(centroids, c)).collect()
    }

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
                    old.get(i).copied().unwrap_or_default()
                } else {
                    Coord::new(x / *n as f64, y / *n as f64)
                }
            })
            .collect()
    }

    fn lloyd(coords: &[Coord], k: usize, config: &KMeansConfig) -> Vec<Coord> {
        let mut rng = Xoshiro256::seed_from_u64(config.seed ^ 0x6B6D_6561_6E73);
        let mut centroids = kmeans_pp_init(coords, k, &mut rng);
        for _ in 0..MAX_ITERS {
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
        centroids
    }

    pub fn kmeans(topology: &Topology, config: &KMeansConfig) -> Partition {
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

    pub fn balanced_kmeans(topology: &Topology, config: &KMeansConfig) -> Partition {
        balanced_fill(topology, config, kmeans(topology, config))
    }

    /// `balanced_kmeans` from the `kmeans` partition it starts with.
    pub fn balanced_fill(
        topology: &Topology,
        config: &KMeansConfig,
        unbalanced: Partition,
    ) -> Partition {
        let coords = topology.coords();
        let n = coords.len();
        if n == 0 {
            return unbalanced;
        }
        let k = config.k.clamp(1, n);

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
        let mut capacity: Vec<usize> = (0..k)
            .map(|i| if i < n_high { cap_high } else { n / k })
            .collect();

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
}

/// Runs both algorithms and both references on one case; returns a
/// line naming the case and the algorithm for every disagreement.
fn differ(case: &str, topology: &Topology, config: &KMeansConfig) -> Vec<String> {
    let mut diffs = Vec::new();
    let plain = reference::kmeans(topology, config);
    if kmeans(topology, config) != plain {
        diffs.push(format!("kmeans differs at {case}"));
    }
    let balanced = reference::balanced_fill(topology, config, plain);
    if balanced_kmeans(topology, config) != balanced {
        diffs.push(format!("balanced_kmeans differs at {case}"));
    }
    diffs
}

fn assert_none(diffs: Vec<String>, cases: usize) {
    assert!(
        diffs.is_empty(),
        "{} disagreements over {cases} cases:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

#[test]
fn seeded_topologies_partition_as_the_plain_algorithms_do() {
    let placements = [
        ("default", Placement::default()),
        ("uniform", Placement::Uniform { side: 100.0 }),
        (
            "regional",
            Placement::Regional {
                regions: 4,
                side: 120.0,
                spread: 4.0,
            },
        ),
    ];
    let (mut diffs, mut cases) = (Vec::new(), 0);
    for n in [13, 64, 100, 512, 1_000, 2_000] {
        for k in [4, 7, 16, 64] {
            for seed in [1, 17, 42] {
                for (name, placement) in &placements {
                    let topology = Topology::generate(n, placement, seed);
                    let case = format!("N = {n}, k = {k}, seed {seed}, {name} placement");
                    diffs.extend(differ(&case, &topology, &KMeansConfig::with_k(k, seed)));
                    cases += 1;
                }
            }
        }
    }
    assert_none(diffs, cases);
}

/// A `side × side` integer grid, each point `copies` times in a row.
fn grid(side: u32, copies: usize) -> Topology {
    let mut coords = Vec::new();
    for x in 0..side {
        for y in 0..side {
            for _ in 0..copies {
                coords.push(Coord::new(f64::from(x), f64::from(y)));
            }
        }
    }
    Topology::from_coords(coords)
}

#[test]
fn integer_grids_break_ties_as_the_plain_algorithms_do() {
    let (mut diffs, mut cases) = (Vec::new(), 0);
    for side in [4, 5, 6, 7, 8, 11, 16, 23, 32, 64] {
        for copies in [1, 3] {
            let topology = grid(side, copies);
            for k in [1, 2, 3, 4, 7, 16, 64] {
                let seed = u64::from(side) * 8 + k as u64;
                let case = format!(
                    "N = {}, k = {k}, seed {seed}, {side}×{side} grid ×{copies}",
                    topology.len()
                );
                diffs.extend(differ(&case, &topology, &KMeansConfig::with_k(k, seed)));
                cases += 1;
            }
        }
    }
    assert_none(diffs, cases);
}

/// The best of three runs of `f`.
fn best_of_three<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    let mut best = start.elapsed();
    for _ in 0..2 {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    (out, best)
}

/// The paper's cluster size at two deployment sizes; at 16 384 nodes
/// balanced k-means must also finish within 0.2 s (it took ≈ 1.3 s on a
/// 2-vCPU Xeon with the sort and the plain Lloyd). Release only.
#[test]
#[ignore = "seconds in a debug build; run in release by scripts/ci.sh"]
fn deployment_sizes_partition_as_the_plain_algorithms_do() {
    let cluster_size = 64;
    for n in [4_096, 16_384] {
        let k = n / cluster_size;
        let topology = Topology::generate(n, &Placement::default(), 17);
        let config = KMeansConfig::with_k(k, 17);
        let (balanced, took) = best_of_three(|| balanced_kmeans(&topology, &config));
        assert_eq!(
            balanced,
            reference::balanced_kmeans(&topology, &config),
            "balanced_kmeans differs at N = {n}, k = {k}, seed 17"
        );
        assert_eq!(
            kmeans(&topology, &config),
            reference::kmeans(&topology, &config),
            "kmeans differs at N = {n}, k = {k}, seed 17"
        );
        if n == 16_384 {
            assert!(
                took <= Duration::from_millis(200),
                "balanced_kmeans at N = {n}, k = {k} took {took:?}, over 0.2 s"
            );
        }
    }
}
