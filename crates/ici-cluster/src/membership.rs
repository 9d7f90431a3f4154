//! Cluster membership as nodes join.
//!
//! Wraps a [`Partition`] with the join rule: a brand-new node takes the
//! next dense id and one cluster, chosen per [`JoinPolicy`]. Crashes are
//! the network's business, not membership's: a crashed node stays a
//! member of its cluster, and protocols skip it through the network's
//! liveness set.

use ici_net::node::NodeId;
use ici_net::topology::{Coord, Topology};

use crate::partition::{ClusterId, Partition};

/// Policy for placing a joining node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JoinPolicy {
    /// Join the cluster with the fewest members (ties → lowest id).
    /// Keeps sizes balanced, ignoring latency.
    #[default]
    SmallestCluster,
    /// Join the cluster whose member centroid is nearest to the joiner;
    /// ties and empty clusters fall back to smallest.
    NearestCentroid,
}

/// Membership view over a partition.
#[derive(Clone, Debug)]
pub struct Membership {
    partition: Partition,
}

impl Membership {
    /// A membership of every partitioned node.
    pub fn new(partition: Partition) -> Membership {
        Membership { partition }
    }

    /// The underlying partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The cluster of `node`.
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        self.partition.cluster_of(node)
    }

    /// Members of `cluster`, ascending by id.
    pub fn members(&self, cluster: ClusterId) -> &[NodeId] {
        self.partition.members(cluster)
    }

    // Kept for the frozen benchmark only: `benchmark/src/surface.rs`
    // collects it into a `Vec<Vec<NodeId>>`. No member ever departs, so
    // it is `members(cluster).to_vec()`. The next `benchmark` PR calls
    // `members` and removes it; nothing in this repository may call it.
    #[doc(hidden)]
    pub fn active_members(&self, cluster: ClusterId) -> Vec<NodeId> {
        self.members(cluster).to_vec()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.partition.cluster_count()
    }

    /// Admits a brand-new node at `coord`, choosing its cluster per
    /// `policy`: [`Membership::choose_cluster`], then
    /// [`Membership::admit`]. Returns the chosen cluster.
    ///
    /// `node` is the next dense id, `partition().node_count()`, as
    /// `Topology::push` returns it. The partition assigns that id
    /// itself, so a wrong `node` cannot open a gap in the ids; debug
    /// builds check that the two agree.
    pub fn join(
        &mut self,
        node: NodeId,
        coord: Coord,
        topology: &Topology,
        policy: JoinPolicy,
    ) -> ClusterId {
        let cluster = self.choose_cluster(coord, topology, policy);
        let admitted = self.admit(cluster);
        debug_assert_eq!(admitted, node, "node ids stay dense");
        cluster
    }

    /// The cluster a node joining at `coord` would join under `policy`,
    /// without admitting it.
    pub fn choose_cluster(
        &self,
        coord: Coord,
        topology: &Topology,
        policy: JoinPolicy,
    ) -> ClusterId {
        match policy {
            JoinPolicy::SmallestCluster => self.smallest_cluster(),
            JoinPolicy::NearestCentroid => self
                .nearest_centroid_cluster(coord, topology)
                .unwrap_or_else(|| self.smallest_cluster()),
        }
    }

    /// Admits a brand-new node to `cluster` and returns its id, the
    /// next dense one.
    pub fn admit(&mut self, cluster: ClusterId) -> NodeId {
        self.partition.push_node(cluster)
    }

    /// The cluster with the fewest members, ties to the lowest id. A
    /// partition has at least one cluster, so the fold starts at 0.
    fn smallest_cluster(&self) -> ClusterId {
        (1..self.cluster_count() as u32)
            .map(ClusterId::new)
            .fold(ClusterId::new(0), |best, c| {
                if self.members(c).len() < self.members(best).len() {
                    c
                } else {
                    best
                }
            })
    }

    /// The mean position of `cluster`'s members, or `None` for an empty
    /// cluster. A node joining there under
    /// [`JoinPolicy::NearestCentroid`] joins that cluster, unless
    /// another cluster's centroid is exactly as close.
    pub fn centroid(&self, cluster: ClusterId, topology: &Topology) -> Option<Coord> {
        let members = self.members(cluster);
        if members.is_empty() {
            return None;
        }
        let (mut x, mut y) = (0.0, 0.0);
        for m in members {
            let c = topology.coord(*m);
            x += c.x;
            y += c.y;
        }
        Some(Coord::new(
            x / members.len() as f64,
            y / members.len() as f64,
        ))
    }

    fn nearest_centroid_cluster(&self, coord: Coord, topology: &Topology) -> Option<ClusterId> {
        let mut best: Option<(f64, ClusterId)> = None;
        for (cluster, _) in self.partition.iter() {
            let Some(centroid) = self.centroid(cluster, topology) else {
                continue;
            };
            let d = coord.distance(&centroid);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, cluster));
            }
        }
        best.map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::random_partition;
    use ici_net::topology::Placement;

    fn membership(n: usize, k: usize) -> Membership {
        Membership::new(random_partition(n, k, 1))
    }

    #[test]
    fn every_node_is_a_member() {
        let m = membership(12, 3);
        assert_eq!(m.partition().node_count(), 12);
        for c in 0..3 {
            assert_eq!(m.members(ClusterId::new(c)).len(), 4);
        }
    }

    #[test]
    fn join_smallest_balances() {
        // Cluster 1 is the smaller one.
        let assignment = [0, 1, 0, 1, 0, 0].map(ClusterId::new).to_vec();
        let mut m = Membership::new(Partition::from_assignment(assignment));
        let topo = Topology::generate(7, &Placement::Uniform { side: 10.0 }, 0);
        let chosen = m.join(
            NodeId::new(6),
            topo.coord(NodeId::new(6)),
            &topo,
            JoinPolicy::SmallestCluster,
        );
        assert_eq!(chosen, ClusterId::new(1));
        assert_eq!(m.members(ClusterId::new(1)).len(), 3);
        assert_eq!(m.cluster_of(NodeId::new(6)), ClusterId::new(1));
    }

    #[test]
    fn join_nearest_picks_close_cluster() {
        // Cluster 0 around (0,0), cluster 1 around (100,100).
        let coords = vec![
            Coord::new(0.0, 0.0),
            Coord::new(1.0, 0.0),
            Coord::new(100.0, 100.0),
            Coord::new(101.0, 100.0),
            Coord::new(99.0, 99.0), // the joiner
        ];
        let topo = Topology::from_coords(coords);
        let assignment = vec![
            ClusterId::new(0),
            ClusterId::new(0),
            ClusterId::new(1),
            ClusterId::new(1),
        ];
        let mut m = Membership::new(Partition::from_assignment(assignment));
        let chosen = m.join(
            NodeId::new(4),
            topo.coord(NodeId::new(4)),
            &topo,
            JoinPolicy::NearestCentroid,
        );
        assert_eq!(chosen, ClusterId::new(1));
    }
}
