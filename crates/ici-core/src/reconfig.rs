//! Epoch reconfiguration: re-clustering a live network.
//!
//! Long-running deployments drift: nodes join and leave, and the original
//! latency-aware clusters erode. Reconfiguration recomputes the partition
//! over the *current* population with the configured clustering algorithm,
//! then migrates block bodies so every new cluster satisfies intra-cluster
//! integrity at replication `r` — fetches first (sources are the
//! pre-reconfiguration holders), prunes after, so no body is ever lost in
//! flight. Migration traffic is metered as [`MessageKind::Repair`].
//!
//! The ablation benchmark `e9_assignment` quantifies how much data a
//! reconfiguration moves under each assignment strategy.

use ici_cluster::kmeans::{balanced_kmeans, kmeans, random_partition, KMeansConfig};
use ici_cluster::membership::Membership;
use ici_net::metrics::MessageKind;
use ici_net::node::NodeId;
use ici_net::time::Duration;
use ici_storage::audit::HeightSet;

use crate::config::Clustering;
use crate::network::{IciNetwork, Shipment};

/// Outcome of one reconfiguration epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReconfigReport {
    /// Clusters before and after.
    pub clusters_before: usize,
    /// Clusters after repartitioning.
    pub clusters_after: usize,
    /// Nodes whose cluster changed.
    pub moved_nodes: usize,
    /// Bodies fetched by new owners.
    pub bodies_fetched: usize,
    /// Bodies pruned from ex-owners.
    pub bodies_pruned: usize,
    /// Bytes of migration traffic.
    pub bytes_moved: u64,
    /// Wall-clock span of the migration.
    pub duration: Duration,
}

impl IciNetwork {
    /// Recomputes the cluster partition over the current population and
    /// migrates storage to satisfy intra-cluster integrity in the new
    /// clusters.
    ///
    /// Departed nodes keep their (new) cluster assignment but stay
    /// inactive; crashed-but-member nodes are treated as members whose
    /// copies cannot serve as sources.
    pub fn reconfigure_clusters(&mut self) -> ReconfigReport {
        let _span = ici_telemetry::span!("core/reconfig");
        let n = self.holdings.len();
        let active: Vec<bool> = (0..n as u64)
            .map(|i| self.membership.is_active(NodeId::new(i)))
            .collect();
        let active_count = active.iter().filter(|a| **a).count();
        let k = active_count.div_ceil(self.config.cluster_size).max(1);
        let clusters_before = self.membership.cluster_count();

        // Repartition over the full topology (inactive nodes are assigned
        // too, but only active members matter for ownership).
        let topology = self.net.topology().clone();
        let seed = self.config.seed ^ self.chain_len();
        let partition = match self.config.clustering {
            Clustering::BalancedKMeans => {
                balanced_kmeans(&topology, &KMeansConfig::with_k(k, seed))
            }
            Clustering::KMeans => kmeans(&topology, &KMeansConfig::with_k(k, seed)),
            Clustering::Random => random_partition(n, k, seed),
        };
        let moved_nodes = (0..n as u64)
            .map(NodeId::new)
            .filter(|node| partition.cluster_of(*node) != self.membership.cluster_of(*node))
            .count();

        let mut membership = Membership::new(partition);
        for (i, is_active) in active.iter().enumerate() {
            if !is_active {
                membership.leave(NodeId::new(i as u64));
            }
        }
        self.membership = membership;

        // Phase 1 — fetch: every new owner that lacks its body pulls it
        // from a live pre-migration holder (snapshot taken up front).
        let holders_snapshot: Vec<HeightSet> = self
            .holdings
            .iter()
            .map(|h| h.body_heights().clone())
            .collect();
        let live_holder = |height: u64, net: &ici_net::network::Network| -> Option<NodeId> {
            (0..n as u64)
                .map(NodeId::new)
                .find(|node| net.is_up(*node) && holders_snapshot[node.index()].contains(&height))
        };

        let start = self.clock;
        let mut shipment = Shipment::new(MessageKind::Repair);
        let chain_len = self.chain_len();
        for height in 0..chain_len {
            let id = self.chain[height as usize].id();
            for cluster in self.clusters() {
                let members = self.membership.active_members(cluster);
                for owner in self.dispatch_owners(&id, height, &members) {
                    if self.holdings[owner.index()].has_body(height) {
                        continue;
                    }
                    let Some(source) = live_holder(height, &self.net) else {
                        continue; // already lost; repair handles it later
                    };
                    self.ship(&mut shipment, source, owner, height);
                }
            }
        }

        // Phase 2 — prune: drop bodies from nodes that are no longer
        // owners within their new cluster.
        let mut pruned = 0usize;
        for node_idx in 0..n {
            let node = NodeId::new(node_idx as u64);
            let cluster = self.membership.cluster_of(node);
            let members = self.membership.active_members(cluster);
            let held: Vec<u64> = self.holdings[node_idx].body_heights().iter().collect();
            for height in held {
                let block = &self.chain[height as usize];
                let owners = self.dispatch_owners(&block.id(), height, &members);
                if !owners.contains(&node) {
                    let bytes = block.header().body_len as u64;
                    if self.holdings[node_idx].drop_body(height, bytes) {
                        pruned += 1;
                    }
                }
            }
        }

        let duration = shipment.span();
        self.clock = start + duration;

        ReconfigReport {
            clusters_before,
            clusters_after: k,
            moved_nodes,
            bodies_fetched: shipment.replicas,
            bodies_pruned: pruned,
            bytes_moved: shipment.bytes,
            duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IciConfig;
    use ici_chain::genesis::GenesisConfig;
    use ici_chain::transaction::{Address, Transaction};
    use ici_cluster::membership::JoinPolicy;
    use ici_crypto::sig::Keypair;
    use ici_net::topology::Coord;

    fn network_with_blocks(blocks: u64, clustering: Clustering) -> IciNetwork {
        let config = IciConfig::builder()
            .nodes(32)
            .cluster_size(8)
            .replication(2)
            .clustering(clustering)
            .genesis(GenesisConfig::uniform(32, 10_000_000))
            .seed(29)
            .build()
            .expect("valid");
        let mut net = IciNetwork::new(config).expect("constructs");
        for round in 0..blocks {
            let txs: Vec<Transaction> = (0..5)
                .map(|i| {
                    Transaction::signed(
                        &Keypair::from_seed(i),
                        Address::from_seed(i + 1),
                        2,
                        1,
                        round,
                        vec![0u8; 120],
                    )
                })
                .collect();
            net.propose_block(txs).expect("commits");
        }
        net
    }

    #[test]
    fn reconfiguration_preserves_integrity() {
        let mut net = network_with_blocks(8, Clustering::BalancedKMeans);
        let report = net.reconfigure_clusters();
        assert_eq!(report.clusters_after, 4);
        for audit in net.audit_all() {
            assert!(audit.is_intact(), "{audit:?}");
        }
        // Replication bounded by r in every cluster.
        for audit in net.audit_all() {
            for (replicas, _) in &audit.replication_histogram {
                assert!(*replicas <= 2);
            }
        }
    }

    #[test]
    fn reconfiguration_after_joins_rebalances() {
        let mut net = network_with_blocks(6, Clustering::BalancedKMeans);
        for i in 0..6 {
            net.bootstrap_node(
                Coord::new(5.0 * i as f64, 80.0),
                JoinPolicy::SmallestCluster,
            )
            .expect("joins");
        }
        let report = net.reconfigure_clusters();
        // 38 active nodes, c = 8 ⇒ 5 clusters now.
        assert_eq!(report.clusters_after, 5);
        for audit in net.audit_all() {
            assert!(audit.is_intact(), "{audit:?}");
        }
        // The chain still advances afterwards.
        let txs: Vec<Transaction> = (0..3)
            .map(|i| {
                Transaction::signed(
                    &Keypair::from_seed(i),
                    Address::from_seed(i + 1),
                    1,
                    1,
                    6,
                    Vec::new(),
                )
            })
            .collect();
        net.propose_block(txs).expect("commits after reconfig");
    }

    #[test]
    fn migration_traffic_is_metered_and_reported() {
        let mut net = network_with_blocks(6, Clustering::Random);
        let before = net.net().meter().kind(MessageKind::Repair).bytes;
        let report = net.reconfigure_clusters();
        let after = net.net().meter().kind(MessageKind::Repair).bytes;
        assert_eq!(after - before, report.bytes_moved);
        if report.bodies_fetched > 0 {
            assert!(report.bytes_moved > 0);
            assert!(report.duration > Duration::ZERO);
        }
    }

    #[test]
    fn idempotent_when_nothing_changed() {
        let mut net = network_with_blocks(4, Clustering::BalancedKMeans);
        let first = net.reconfigure_clusters();
        let second = net.reconfigure_clusters();
        // Same population, same seed inputs ⇒ the second epoch moves
        // nothing new (partition identical, owners already in place).
        assert_eq!(
            second.bodies_fetched, 0,
            "first: {first:?}, second: {second:?}"
        );
        assert_eq!(second.bodies_pruned, 0);
    }

    #[test]
    fn crashed_nodes_do_not_serve_migrations() {
        let mut net = network_with_blocks(5, Clustering::Random);
        // Crash one node; migration must still succeed from live holders.
        net.crash_node(NodeId::new(3)).expect("known");
        let _ = net.reconfigure_clusters();
        // Live members can still read everything.
        for audit in net.audit_all() {
            // Crashed node's copies don't count; availability may dip but
            // the chain must not be lost (r=2, one crash).
            assert!(audit.availability() > 0.9, "{audit:?}");
        }
    }
}
