//! Epoch reconfiguration: re-clustering a live network.
//!
//! Long-running deployments drift: nodes join, and the original
//! latency-aware clusters erode. Reconfiguration recomputes the partition
//! over the *current* population with the configured clustering algorithm,
//! then migrates block bodies so every new cluster satisfies intra-cluster
//! integrity at replication `r` — fetches first (sources are the
//! pre-reconfiguration holders, destinations the live new owners, or the
//! member a repair would pick where every owner is down), prunes after
//! with the one prune a join uses (`IciNetwork::prune_to_table`), so no
//! body is ever lost in flight. Migration traffic is metered as
//! [`MessageKind::Repair`].
//!
//! The ablation benchmark `e9_assignment` quantifies how much data a
//! reconfiguration moves under each assignment strategy.

use ici_cluster::membership::Membership;
use ici_net::metrics::MessageKind;
use ici_net::node::NodeId;
use ici_net::time::Duration;

use crate::network::{owner_of, slot_of, IciNetwork, OwnerTable, Shipment};

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
    /// Crashed nodes are members like any other, but their copies cannot
    /// serve as sources.
    pub fn reconfigure_clusters(&mut self) -> ReconfigReport {
        let _span = ici_telemetry::span!("core/reconfig");
        let n = self.holdings.len();
        let clusters_before = self.membership.cluster_count();
        let (clusters_after, moved_nodes) = self.repartition();

        // Phase 1 — fetch: every live new owner that lacks its body
        // pulls it from a live pre-migration holder, the lowest id among
        // them, found for every height in one pass before anything
        // ships. The owners ranked here are the new owner table.
        let chain_len = self.chain_len();
        let mut first_holder = vec![OwnerTable::EMPTY; self.chain.len()];
        for (index, holdings) in self.holdings.iter().enumerate() {
            let node = NodeId::new(index as u64);
            if !self.net.is_up(node) {
                continue;
            }
            for height in holdings.body_heights().iter() {
                let first = &mut first_holder[height as usize];
                if *first == OwnerTable::EMPTY {
                    *first = slot_of(node);
                }
            }
        }

        let start = self.clock;
        let mut shipment = Shipment::new(MessageKind::Repair);
        self.owners = OwnerTable::new(self.membership.cluster_count(), self.config.replication);
        self.owners.reserve(self.chain.len());
        for height in 0..chain_len {
            let id = self.chain[height as usize].id();
            self.owners
                .push_row(self.config.assignment, &id, &self.membership);
            // Already lost when no live node held it; repair handles it
            // later.
            let Some(source) = owner_of(first_holder[height as usize]) else {
                continue;
            };
            for cluster in self.cluster_ids() {
                let mut live_owner = false;
                for slot in 0..self.config.replication {
                    let column = self.owners.column(height, cluster);
                    let Some(owner) = column.get(slot).copied().and_then(owner_of) else {
                        break;
                    };
                    if !self.net.is_up(owner) {
                        continue;
                    }
                    live_owner = true;
                    if !self.holdings[owner.index()].has_body(height) {
                        self.ship(&mut shipment, source, owner, height);
                    }
                }
                // Every owner is down and no live member holds the body:
                // it goes where a repair would put it, and is kept there
                // while no owner serves it.
                let members = self.membership.members(cluster);
                if !live_owner && !members.iter().any(|&m| self.serves(m, height)) {
                    let live = self.live_members(cluster);
                    if let Some(&first) = self.dispatch_owners(&id, height, &live).first() {
                        self.ship(&mut shipment, source, first, height);
                    }
                }
            }
        }

        // Phase 2 — prune: drop bodies from nodes that are no longer
        // owners within their new cluster, as the new table records,
        // unless no live owner there serves the body.
        let mut pruned = 0usize;
        for node in (0..n as u64).map(NodeId::new) {
            pruned += self.prune_to_table(self.membership.cluster_of(node), node);
        }

        let duration = shipment.span();
        self.clock = start + duration;

        ReconfigReport {
            clusters_before,
            clusters_after,
            moved_nodes,
            bodies_fetched: shipment.replicas,
            bodies_pruned: pruned,
            bytes_moved: shipment.bytes,
            duration,
        }
    }

    /// Recomputes the partition over the whole topology, with the
    /// configured clustering, and installs it as the membership.
    /// Returns the cluster count it aimed at and how many nodes changed
    /// cluster.
    fn repartition(&mut self) -> (usize, usize) {
        let n = self.holdings.len();
        let k = n.div_ceil(self.config.cluster_size).max(1);
        let seed = self.config.seed ^ self.chain_len();
        let partition = self
            .config
            .clustering
            .partition(self.net.topology(), k, seed);
        let moved_nodes = (0..n as u64)
            .map(NodeId::new)
            .filter(|node| partition.cluster_of(*node) != self.membership.cluster_of(*node))
            .count();
        self.membership = Membership::new(partition);
        (k, moved_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Clustering, IciConfig};
    use ici_chain::genesis::GenesisConfig;
    use ici_chain::transaction::{Address, Transaction};
    use ici_cluster::membership::JoinPolicy;
    use ici_crypto::sig::Keypair;
    use ici_net::topology::Coord;
    use ici_storage::audit::HeightSet;

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

    /// Re-clustering as it was before its sources were found in one
    /// pass: owners ranked afresh per (height, cluster), and each body
    /// a live owner lacks fetched from the first live node, in id order,
    /// whose snapshot taken before phase 1 holds it. Where every owner
    /// is down and no live member holds the body, it goes to the first
    /// owner ranked over the live members. A node drops a body it does
    /// not own while a live owner serves it.
    fn reconfigure_by_scan(net: &mut IciNetwork) -> ReconfigReport {
        let n = net.holdings.len();
        let clusters_before = net.membership.cluster_count();
        let (clusters_after, moved_nodes) = net.repartition();
        let snapshot: Vec<HeightSet> = net
            .holdings
            .iter()
            .map(|h| h.body_heights().clone())
            .collect();
        let start = net.clock;
        let mut shipment = Shipment::new(MessageKind::Repair);
        for height in 0..net.chain_len() {
            let id = net.chain[height as usize].id();
            for cluster in net.clusters() {
                let members = net.membership.members(cluster).to_vec();
                let owners = net.dispatch_owners(&id, height, &members);
                let live_owners: Vec<NodeId> =
                    owners.into_iter().filter(|o| net.net.is_up(*o)).collect();
                let source = (0..n as u64)
                    .map(NodeId::new)
                    .find(|node| net.net.is_up(*node) && snapshot[node.index()].contains(&height));
                let Some(source) = source else {
                    continue;
                };
                for &owner in &live_owners {
                    if !net.holdings[owner.index()].has_body(height) {
                        net.ship(&mut shipment, source, owner, height);
                    }
                }
                if live_owners.is_empty() && !members.iter().any(|m| net.serves(*m, height)) {
                    let live = net.live_members(cluster);
                    if let Some(&first) = net.dispatch_owners(&id, height, &live).first() {
                        net.ship(&mut shipment, source, first, height);
                    }
                }
            }
        }
        let mut pruned = 0;
        for node in (0..n as u64).map(NodeId::new) {
            let members = net.membership.members(net.membership.cluster_of(node));
            let held: Vec<u64> = net.holdings[node.index()].body_heights().iter().collect();
            for height in held {
                let id = net.chain[height as usize].id();
                let owners = net.dispatch_owners(&id, height, members);
                let owner_serves = owners.iter().any(|o| net.serves(*o, height));
                if !owners.contains(&node) && owner_serves {
                    let bytes = net.chain[height as usize].header().body_len as u64;
                    pruned += usize::from(net.holdings[node.index()].drop_body(height, bytes));
                }
            }
        }
        let duration = shipment.span();
        net.clock = start + duration;
        ReconfigReport {
            clusters_before,
            clusters_after,
            moved_nodes,
            bodies_fetched: shipment.replicas,
            bodies_pruned: pruned,
            bytes_moved: shipment.bytes,
            duration,
        }
    }

    /// After joins and crashes, under each clustering, re-clustering
    /// reports, ships, meters and leaves every node holding what the
    /// per-owner scan did.
    #[test]
    fn one_pass_sources_match_the_per_owner_scan() {
        for clustering in [Clustering::BalancedKMeans, Clustering::Random] {
            let shaped = || {
                let mut net = network_with_blocks(7, clustering);
                for i in 0..5 {
                    let at = Coord::new(17.0 * i as f64, 60.0);
                    net.bootstrap_node(at, JoinPolicy::SmallestCluster)
                        .expect("joins");
                }
                for node in [2, 9, 30, 33] {
                    net.crash_node(NodeId::new(node)).expect("known");
                }
                net
            };
            let (mut fast, mut scan) = (shaped(), shaped());
            let report = fast.reconfigure_clusters();
            assert_eq!(report, reconfigure_by_scan(&mut scan), "{clustering:?}");
            assert!(
                report.bodies_fetched > 0 && report.bodies_pruned > 0,
                "{report:?}"
            );
            assert!(
                fast.holdings == scan.holdings,
                "{clustering:?}: holdings differ"
            );
            assert_eq!(fast.net().meter().total(), scan.net().meter().total());
            assert_eq!(fast.now(), scan.now());
        }
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
