//! Cluster membership under churn.
//!
//! Wraps a [`Partition`] with liveness flags and join/leave handling.
//! Node ids stay dense forever (a departed node's id is never reused);
//! protocols consult [`Membership::active_members`] instead of the raw
//! partition when choosing storage owners or verification committees.

use ici_net::node::NodeId;
use ici_net::topology::{Coord, Topology};

use crate::partition::{ClusterId, Partition};

/// Policy for placing a joining node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum JoinPolicy {
    /// Join the cluster with the fewest active members (ties → lowest id).
    /// Keeps sizes balanced, ignoring latency.
    #[default]
    SmallestCluster,
    /// Join the cluster whose active-member centroid is nearest to the
    /// joiner; ties and empty clusters fall back to smallest.
    NearestCentroid,
}

/// Live membership view over a partition.
#[derive(Clone, Debug)]
pub struct Membership {
    partition: Partition,
    active: Vec<bool>,
}

impl Membership {
    /// Starts with every partitioned node active.
    pub fn new(partition: Partition) -> Membership {
        let n = partition.node_count();
        Membership {
            partition,
            active: vec![true; n],
        }
    }

    /// The underlying partition (includes departed nodes).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Whether `node` is currently a live member.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.active.get(node.index()).copied().unwrap_or(false)
    }

    /// The cluster of `node` (meaningful also for departed nodes).
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        self.partition.cluster_of(node)
    }

    /// Active members of `cluster`, ascending by id, without collecting
    /// them.
    pub fn iter_active(&self, cluster: ClusterId) -> impl Iterator<Item = NodeId> + '_ {
        self.partition
            .members(cluster)
            .iter()
            .copied()
            .filter(|n| self.is_active(*n))
    }

    /// Active members of `cluster`, ascending by id.
    pub fn active_members(&self, cluster: ClusterId) -> Vec<NodeId> {
        self.iter_active(cluster).collect()
    }

    /// Active member count of `cluster`.
    pub fn active_count(&self, cluster: ClusterId) -> usize {
        self.iter_active(cluster).count()
    }

    /// Total number of active nodes.
    pub fn total_active(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.partition.cluster_count()
    }

    /// Marks `node` as departed. Returns whether it was active.
    pub fn leave(&mut self, node: NodeId) -> bool {
        let was = self.is_active(node);
        if let Some(slot) = self.active.get_mut(node.index()) {
            *slot = false;
        }
        was
    }

    /// Re-activates a previously departed node (rejoin with the same id).
    pub fn rejoin(&mut self, node: NodeId) {
        if let Some(slot) = self.active.get_mut(node.index()) {
            *slot = true;
        }
    }

    /// Admits a brand-new node at `coord`, choosing its cluster per
    /// `policy`: [`Membership::choose_cluster`], then
    /// [`Membership::admit`]. Returns the chosen cluster.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not the next dense id.
    pub fn join(
        &mut self,
        node: NodeId,
        coord: Coord,
        topology: &Topology,
        policy: JoinPolicy,
    ) -> ClusterId {
        let cluster = self.choose_cluster(coord, topology, policy);
        self.admit(node, cluster);
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

    /// Admits the brand-new node `node` to `cluster`, active.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not the next dense id.
    pub fn admit(&mut self, node: NodeId, cluster: ClusterId) {
        self.partition.push_node(node, cluster);
        self.active.push(true);
    }

    fn smallest_cluster(&self) -> ClusterId {
        (0..self.cluster_count() as u32)
            .map(ClusterId::new)
            .min_by_key(|c| (self.active_count(*c), c.get()))
            // lint:allow(panic) -- partitions are built with ≥ 1 cluster
            // (constructor invariant), so the range is never empty
            .expect("at least one cluster")
    }

    fn nearest_centroid_cluster(&self, coord: Coord, topology: &Topology) -> Option<ClusterId> {
        let mut best: Option<(f64, ClusterId)> = None;
        for (cluster, _) in self.partition.iter() {
            let members = self.active_members(cluster);
            if members.is_empty() {
                continue;
            }
            let (mut x, mut y) = (0.0, 0.0);
            for m in &members {
                let c = topology.coord(*m);
                x += c.x;
                y += c.y;
            }
            let centroid = Coord::new(x / members.len() as f64, y / members.len() as f64);
            let d = coord.distance(&centroid);
            if best.map_or(true, |(bd, _)| d < bd) {
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
    fn starts_fully_active() {
        let m = membership(12, 3);
        assert_eq!(m.total_active(), 12);
        for c in 0..3 {
            assert_eq!(m.active_count(ClusterId::new(c)), 4);
        }
    }

    #[test]
    fn leave_deactivates_and_reports() {
        let mut m = membership(6, 2);
        let node = NodeId::new(2);
        assert!(m.leave(node));
        assert!(!m.leave(node));
        assert!(!m.is_active(node));
        let cluster = m.cluster_of(node);
        assert!(!m.active_members(cluster).contains(&node));
        assert_eq!(m.total_active(), 5);
    }

    #[test]
    fn rejoin_restores() {
        let mut m = membership(6, 2);
        let node = NodeId::new(1);
        m.leave(node);
        m.rejoin(node);
        assert!(m.is_active(node));
        assert_eq!(m.total_active(), 6);
    }

    #[test]
    fn join_smallest_balances() {
        let mut m = membership(6, 2);
        // Make cluster 1 smaller.
        let victim = m.active_members(ClusterId::new(1))[0];
        m.leave(victim);
        let topo = Topology::generate(7, &Placement::Uniform { side: 10.0 }, 0);
        let chosen = m.join(
            NodeId::new(6),
            topo.coord(NodeId::new(6)),
            &topo,
            JoinPolicy::SmallestCluster,
        );
        assert_eq!(chosen, ClusterId::new(1));
        assert_eq!(m.active_count(ClusterId::new(1)), 3);
        assert!(m.is_active(NodeId::new(6)));
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

    #[test]
    fn nearest_falls_back_when_all_empty() {
        let mut m = membership(4, 2);
        for i in 0..4 {
            m.leave(NodeId::new(i));
        }
        let topo = Topology::generate(5, &Placement::Uniform { side: 10.0 }, 0);
        let chosen = m.join(
            NodeId::new(4),
            topo.coord(NodeId::new(4)),
            &topo,
            JoinPolicy::NearestCentroid,
        );
        assert_eq!(chosen, ClusterId::new(0)); // smallest (tie → lowest id)
    }
}
