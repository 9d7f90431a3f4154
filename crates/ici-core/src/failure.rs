//! Failure handling: crashes, integrity damage, and re-replication.
//!
//! Crashing a node removes its replicas from the live set immediately. The
//! cluster's remaining members detect under-replication (in practice via
//! heartbeats; here the planner runs on demand) and execute the transfers
//! that restore `r` live replicas per block, metered as
//! [`MessageKind::Repair`] traffic.

use ici_net::metrics::MessageKind;
use ici_net::node::NodeId;
use ici_net::time::Duration;
use ici_storage::recovery::{plan_chain_recovery, BlockRef, RecoveryPlan};

use ici_cluster::partition::ClusterId;

use crate::error::IciError;
use crate::network::{IciNetwork, Shipment};

/// Outcome of repairing one cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairReport {
    /// The repaired cluster.
    pub cluster: u32,
    /// Intra-cluster transfers executed.
    pub transfers: usize,
    /// Bytes moved (intra- plus cross-cluster).
    pub bytes: u64,
    /// Wall-clock span of the repair (parallel across sources).
    pub duration: Duration,
    /// Heights restored by fetching from another cluster (every local
    /// owner was dead).
    pub cross_cluster_fetches: Vec<u64>,
    /// Heights no live node anywhere still holds — permanently lost.
    pub unrecoverable: Vec<u64>,
}

impl IciNetwork {
    /// Crashes `node` (fail-stop). Its stored replicas stop counting
    /// toward availability until repair or recovery.
    ///
    /// # Errors
    ///
    /// [`IciError::UnknownNode`] if out of range.
    pub fn crash_node(&mut self, node: NodeId) -> Result<(), IciError> {
        if node.index() >= self.holdings.len() {
            return Err(IciError::UnknownNode(node));
        }
        self.net.crash(node);
        Ok(())
    }

    /// Restores a crashed node. Its replicas count again (fail-stop nodes
    /// come back with their disk intact).
    ///
    /// # Errors
    ///
    /// [`IciError::UnknownNode`] if out of range.
    pub fn recover_node(&mut self, node: NodeId) -> Result<(), IciError> {
        if node.index() >= self.holdings.len() {
            return Err(IciError::UnknownNode(node));
        }
        self.net.recover(node);
        Ok(())
    }

    /// Plans and executes re-replication for `cluster`, restoring every
    /// block to `r` live replicas where possible.
    pub fn repair_cluster(&mut self, cluster: ClusterId) -> RepairReport {
        let live = self.live_holdings(cluster);
        let block_at = |height| {
            let block = &self.chain[height as usize]; // the planner asks below chain length
            BlockRef {
                id: block.id(),
                height,
                body_bytes: block.header().body_len as u64,
            }
        };

        // Plan against the configured assignment over live members.
        let plan: RecoveryPlan = plan_chain_recovery(
            self.chain_len(),
            block_at,
            &live,
            &self.config.assignment,
            self.config.replication,
        );

        let start = self.clock;
        let mut shipment = Shipment::new(MessageKind::Repair);
        for t in &plan.transfers {
            self.ship(&mut shipment, t.source, t.destination, t.height);
        }
        let transfers = shipment.replicas;

        // Cross-cluster recovery for heights whose every local owner died:
        // tier-3 of the query protocol, driven by the repair coordinator.
        // Each fetched body lands on the assignment's preferred live local
        // owners (all `r` of them, shipped once across the WAN and once
        // more locally per extra replica — both metered as repair).
        let mut fetched = Vec::new();
        let mut lost = Vec::new();
        for height in plan.unrecoverable {
            let remote_holder = (0..self.holdings.len() as u64).map(NodeId::new).find(|n| {
                self.net.is_up(*n)
                    && self.membership.cluster_of(*n) != cluster
                    && self.holdings[n.index()].has_body(height)
            });
            let Some(remote) = remote_holder else {
                lost.push(height);
                continue;
            };
            let live = self.live_members(cluster);
            let id = self.chain[height as usize].id();
            let owners = self.dispatch_owners(&id, height, &live);
            let Some(&first) = owners.first() else {
                lost.push(height);
                continue;
            };
            self.ship(&mut shipment, remote, first, height);
            for &owner in owners.iter().skip(1) {
                self.ship(&mut shipment, first, owner, height);
            }
            fetched.push(height);
        }

        let duration = shipment.span();
        self.clock = start + duration;

        RepairReport {
            cluster: cluster.get(),
            transfers,
            bytes: shipment.bytes,
            duration,
            cross_cluster_fetches: fetched,
            unrecoverable: lost,
        }
    }

    /// Repairs every cluster; returns the per-cluster reports.
    pub fn repair_all(&mut self) -> Vec<RepairReport> {
        self.clusters()
            .into_iter()
            .map(|c| self.repair_cluster(c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IciConfig;
    use ici_chain::genesis::GenesisConfig;
    use ici_chain::transaction::{Address, Transaction};
    use ici_crypto::sig::Keypair;

    fn network_with_blocks(blocks: u64) -> IciNetwork {
        let config = IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .genesis(GenesisConfig::uniform(32, 10_000_000))
            .seed(13)
            .build()
            .expect("valid");
        let mut net = IciNetwork::new(config).expect("constructs");
        for round in 0..blocks {
            let txs: Vec<Transaction> = (0..5)
                .map(|i| {
                    Transaction::signed(
                        &Keypair::from_seed(i),
                        Address::from_seed(i + 1),
                        5,
                        1,
                        round,
                        vec![0u8; 150],
                    )
                })
                .collect();
            net.propose_block(txs).expect("commits");
        }
        net
    }

    #[test]
    fn crash_degrades_then_repair_restores() {
        let mut net = network_with_blocks(8);
        // Pick the first node actually holding bodies so the test is not
        // sensitive to how the owner lottery falls for a given seed.
        let victim = (0..32)
            .map(NodeId::new)
            .find(|&n| net.holdings(n).is_some_and(|h| h.body_count() > 0))
            .expect("some node holds a body");
        let cluster = net.membership().cluster_of(victim);

        net.crash_node(victim).expect("known node");
        let degraded = net.audit(cluster);
        assert!(degraded.is_intact(), "r=2 survives one crash");
        assert!(!degraded.singly_held.is_empty());

        let report = net.repair_cluster(cluster);
        assert!(report.transfers > 0);
        assert!(report.unrecoverable.is_empty());

        let repaired = net.audit(cluster);
        // Every non-genesis height back at >= 2 live replicas.
        for h in &repaired.singly_held {
            assert_eq!(*h, 0, "height {h} still singly held (genesis is empty)");
        }
    }

    #[test]
    fn repair_is_idempotent() {
        let mut net = network_with_blocks(6);
        net.crash_node(NodeId::new(1)).expect("known node");
        let cluster = net.membership().cluster_of(NodeId::new(1));
        let first = net.repair_cluster(cluster);
        let second = net.repair_cluster(cluster);
        assert_eq!(second.transfers, 0, "first: {first:?}");
        assert_eq!(second.bytes, 0);
    }

    #[test]
    fn repair_traffic_is_metered() {
        let mut net = network_with_blocks(6);
        net.crash_node(NodeId::new(2)).expect("known node");
        let cluster = net.membership().cluster_of(NodeId::new(2));
        let before = net.net().meter().kind(MessageKind::Repair).bytes;
        let report = net.repair_cluster(cluster);
        let after = net.net().meter().kind(MessageKind::Repair).bytes;
        assert_eq!(after - before, report.bytes);
    }

    #[test]
    fn losing_all_local_owners_triggers_cross_cluster_fetch() {
        let mut net = network_with_blocks(5);
        // Crash both owners of height 1 in one cluster.
        let cluster = net.clusters()[0];
        let block_id = net.block(1).expect("exists").id();
        let owners = net.owners_in_cluster(cluster, &block_id, 1);
        assert_eq!(owners.len(), 2);
        for o in &owners {
            net.crash_node(*o).expect("known node");
        }
        let audit = net.audit(cluster);
        assert!(audit.missing.contains(&1));

        let repair_bytes_before = net.net().meter().kind(MessageKind::Repair).bytes;
        let report = net.repair_cluster(cluster);
        assert!(report.cross_cluster_fetches.contains(&1));
        assert!(report.unrecoverable.is_empty());
        assert!(net.net().meter().kind(MessageKind::Repair).bytes > repair_bytes_before);

        // The cluster satisfies intra-cluster integrity again.
        let after = net.audit(cluster);
        assert!(after.is_intact(), "{after:?}");
    }

    #[test]
    fn block_lost_everywhere_is_reported_unrecoverable() {
        let mut net = network_with_blocks(4);
        // Crash every holder of height 2 in the whole network.
        for i in 0..24u64 {
            let n = NodeId::new(i);
            if net.holdings(n).expect("known").has_body(2) {
                net.crash_node(n).expect("known node");
            }
        }
        let reports = net.repair_all();
        assert!(
            reports.iter().any(|r| r.unrecoverable.contains(&2)),
            "{reports:?}"
        );
    }

    #[test]
    fn recovery_restores_replicas_without_transfer() {
        let mut net = network_with_blocks(4);
        let victim = NodeId::new(3);
        let cluster = net.membership().cluster_of(victim);
        net.crash_node(victim).expect("known node");
        net.recover_node(victim).expect("known node");
        let audit = net.audit(cluster);
        assert!(audit.is_intact());
        // No repair needed after recovery.
        assert_eq!(net.repair_cluster(cluster).transfers, 0);
    }

    #[test]
    fn unknown_node_is_rejected() {
        let mut net = network_with_blocks(1);
        assert_eq!(
            net.crash_node(NodeId::new(500)),
            Err(IciError::UnknownNode(NodeId::new(500)))
        );
        assert_eq!(
            net.recover_node(NodeId::new(500)),
            Err(IciError::UnknownNode(NodeId::new(500)))
        );
    }
}
