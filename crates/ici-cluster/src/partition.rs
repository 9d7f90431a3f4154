//! Cluster partitions and their quality metrics.
//!
//! A [`Partition`] maps every node to exactly one cluster. The ICIStrategy
//! invariant — each cluster collectively stores the whole chain — is
//! enforced *per cluster*, so the partition is the root data structure the
//! core protocol is parameterised by.

use std::fmt;

use ici_net::node::NodeId;
use ici_net::topology::Topology;

/// Identifier of a cluster, dense from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClusterId(u32);

impl ClusterId {
    /// Creates a cluster id.
    pub const fn new(id: u32) -> ClusterId {
        ClusterId(id)
    }

    /// The raw id.
    pub fn get(self) -> u32 {
        self.0
    }

    /// The id as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// An assignment of every node to a cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// `assignment[node.index()]` is the node's cluster.
    assignment: Vec<ClusterId>,
    /// Members per cluster, kept sorted.
    members: Vec<Vec<NodeId>>,
}

impl Partition {
    /// Builds a partition from a per-node assignment vector.
    ///
    /// Cluster ids must be dense (`0..k`); empty clusters are allowed but
    /// every id below the max must exist as an index. A partition has at
    /// least one cluster: an empty assignment makes one empty cluster,
    /// for the first node to join.
    pub fn from_assignment(assignment: Vec<ClusterId>) -> Partition {
        let k = assignment
            .iter()
            .map(|c| c.index() + 1)
            .max()
            .unwrap_or(0)
            .max(1);
        let mut members = vec![Vec::new(); k];
        for (i, cluster) in assignment.iter().enumerate() {
            members[cluster.index()].push(NodeId::new(i as u64));
        }
        Partition {
            assignment,
            members,
        }
    }

    /// Number of clusters (including empty ones).
    pub fn cluster_count(&self) -> usize {
        self.members.len()
    }

    /// Number of nodes assigned.
    pub fn node_count(&self) -> usize {
        self.assignment.len()
    }

    /// The cluster of `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        self.assignment[node.index()]
    }

    /// Members of `cluster`, ascending by id.
    pub fn members(&self, cluster: ClusterId) -> &[NodeId] {
        &self.members[cluster.index()]
    }

    /// Iterates `(cluster, members)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClusterId, &[NodeId])> {
        self.members
            .iter()
            .enumerate()
            .map(|(i, m)| (ClusterId::new(i as u32), m.as_slice()))
    }

    /// Sizes of all clusters.
    pub fn sizes(&self) -> Vec<usize> {
        self.members.iter().map(Vec::len).collect()
    }

    /// Size of the largest cluster minus the smallest (0 = perfectly
    /// balanced).
    pub fn imbalance(&self) -> usize {
        let sizes = self.sizes();
        match (sizes.iter().max(), sizes.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    /// Mean pairwise intra-cluster distance in ms (the clustering-quality
    /// measure of experiment E8). Exact for cluster sizes the experiments
    /// use; `O(Σ c_i²)` overall.
    pub fn mean_intra_cluster_distance(&self, topology: &Topology) -> f64 {
        let mut total = 0.0;
        let mut pairs = 0u64;
        for members in &self.members {
            for (i, a) in members.iter().enumerate() {
                for b in &members[i + 1..] {
                    total += topology.distance_ms(*a, *b);
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total / pairs as f64
        }
    }

    /// The diameter (max pairwise distance) of each cluster in ms.
    pub fn cluster_diameters(&self, topology: &Topology) -> Vec<f64> {
        self.members
            .iter()
            .map(|members| {
                let mut max = 0.0f64;
                for (i, a) in members.iter().enumerate() {
                    for b in &members[i + 1..] {
                        max = max.max(topology.distance_ms(*a, *b));
                    }
                }
                max
            })
            .collect()
    }

    /// Appends the next node into `target` and returns its id,
    /// `node_count()` before the call: the partition assigns it, so
    /// ids stay dense.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn push_node(&mut self, target: ClusterId) -> NodeId {
        let node = NodeId::new(self.assignment.len() as u64);
        self.assignment.push(target);
        // The largest id yet, so the member list stays ascending.
        self.members[target.index()].push(node);
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_net::topology::{Coord, Placement};

    fn partition_of(sizes: &[usize]) -> Partition {
        let mut assignment = Vec::new();
        for (c, size) in sizes.iter().enumerate() {
            for _ in 0..*size {
                assignment.push(ClusterId::new(c as u32));
            }
        }
        Partition::from_assignment(assignment)
    }

    #[test]
    fn from_assignment_builds_member_lists() {
        let p = partition_of(&[2, 3]);
        assert_eq!(p.cluster_count(), 2);
        assert_eq!(p.node_count(), 5);
        assert_eq!(
            p.members(ClusterId::new(0)),
            &[NodeId::new(0), NodeId::new(1)]
        );
        assert_eq!(p.sizes(), vec![2, 3]);
        assert_eq!(p.imbalance(), 1);
        assert_eq!(p.cluster_of(NodeId::new(4)), ClusterId::new(1));
    }

    #[test]
    fn interleaved_assignment() {
        let p = Partition::from_assignment(vec![
            ClusterId::new(1),
            ClusterId::new(0),
            ClusterId::new(1),
            ClusterId::new(0),
        ]);
        assert_eq!(
            p.members(ClusterId::new(0)),
            &[NodeId::new(1), NodeId::new(3)]
        );
        assert_eq!(
            p.members(ClusterId::new(1)),
            &[NodeId::new(0), NodeId::new(2)]
        );
    }

    #[test]
    fn push_node_assigns_the_next_dense_id() {
        let mut p = partition_of(&[2, 2]);
        assert_eq!(p.push_node(ClusterId::new(0)), NodeId::new(4));
        assert_eq!(p.push_node(ClusterId::new(1)), NodeId::new(5));
        assert_eq!(p.node_count(), 6);
        assert_eq!(p.cluster_of(NodeId::new(4)), ClusterId::new(0));
        assert_eq!(
            p.members(ClusterId::new(0)),
            &[NodeId::new(0), NodeId::new(1), NodeId::new(4)]
        );
        assert_eq!(p.members(ClusterId::new(1)).last(), Some(&NodeId::new(5)));
    }

    #[test]
    fn intra_cluster_distance_on_known_layout() {
        // Two clusters of two nodes each, 3 ms and 5 ms apart.
        let topo = Topology::from_coords(vec![
            Coord::new(0.0, 0.0),
            Coord::new(3.0, 0.0),
            Coord::new(100.0, 0.0),
            Coord::new(100.0, 5.0),
        ]);
        let p = partition_of(&[2, 2]);
        assert!((p.mean_intra_cluster_distance(&topo) - 4.0).abs() < 1e-9);
        let d = p.cluster_diameters(&topo);
        assert!((d[0] - 3.0).abs() < 1e-9 && (d[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn singleton_and_empty_cluster_metrics_are_zero() {
        let topo = Topology::generate(3, &Placement::Uniform { side: 10.0 }, 0);
        let p = Partition::from_assignment(vec![
            ClusterId::new(0),
            ClusterId::new(0),
            ClusterId::new(2), // cluster 1 is empty
        ]);
        assert_eq!(p.cluster_count(), 3);
        assert_eq!(p.members(ClusterId::new(1)), &[] as &[NodeId]);
        let d = p.cluster_diameters(&topo);
        assert_eq!(d[1], 0.0);
        assert_eq!(d[2], 0.0);
    }
}
