//! The bootstrap protocol: admitting a new node.
//!
//! The abstract's third claim: "the ICIStrategy could greatly save the
//! overhead of bootstrapping." A joining node under full replication must
//! download the entire ledger; under ICIStrategy it downloads
//!
//! * the **header chain** (needed by everyone to validate anything), and
//! * the **bodies of the blocks assigned to it** — about `r/c` of the
//!   chain's body bytes once the cluster's assignment is recomputed over
//!   the grown membership.
//!
//! With rendezvous assignment the recomputation also tells the *previous*
//! owners which bodies they may prune; the protocol executes those prunes
//! so storage stays at `r` replicas per cluster, not `r + ε`.

use ici_chain::block::BlockHeader;
use ici_cluster::membership::JoinPolicy;
use ici_net::metrics::MessageKind;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};
use ici_net::topology::Coord;

use crate::error::IciError;
use crate::holdings::NodeHoldings;
use crate::network::IciNetwork;

/// Outcome of one node join.
#[derive(Clone, Debug, PartialEq)]
pub struct BootstrapReport {
    /// The new node's id.
    pub node: NodeId,
    /// Cluster it joined.
    pub cluster: u32,
    /// Header bytes downloaded.
    pub header_bytes: u64,
    /// Body bytes downloaded (the new node's assigned share).
    pub body_bytes: u64,
    /// Number of bodies downloaded.
    pub bodies: usize,
    /// Bodies pruned from previous owners after responsibility moved.
    pub pruned_bodies: usize,
    /// Wall-clock duration of the download (headers first, then bodies
    /// fetched sequentially per source with parallel sources).
    pub duration: Duration,
}

impl BootstrapReport {
    /// Total bytes the joiner downloaded.
    pub fn total_bytes(&self) -> u64 {
        self.header_bytes + self.body_bytes
    }
}

impl IciNetwork {
    /// Admits a new node at `coord`, runs the bootstrap download, and
    /// rebalances ownership.
    ///
    /// # Errors
    ///
    /// [`IciError::BodyUnavailable`] if an assigned body has no live
    /// source (a cluster that already violated integrity).
    pub fn bootstrap_node(
        &mut self,
        coord: Coord,
        policy: JoinPolicy,
    ) -> Result<BootstrapReport, IciError> {
        let _span = ici_telemetry::span!("core/bootstrap");
        let node = self.net.join(coord);
        let cluster = self
            .membership
            .join(node, coord, self.net.topology(), policy);
        self.holdings.push(NodeHoldings::new());
        let start = self.clock;

        // 1. Header chain from the closest live cluster member.
        let chain_len = self.chain_len();
        let header_bytes = chain_len * BlockHeader::ENCODED_LEN as u64;
        let members = self.live_members(cluster);
        let header_source = members
            .iter()
            .copied()
            .filter(|m| *m != node)
            .min_by(|a, b| {
                let da = self.net.topology().distance_ms(node, *a);
                let db = self.net.topology().distance_ms(node, *b);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            });
        let mut finish = start;
        if let Some(source) = header_source {
            if let Some(delay) = self
                .net
                .send(source, node, MessageKind::Bootstrap, header_bytes)
                .delay()
            {
                finish = start + delay;
            }
        }
        for _ in 0..chain_len {
            self.holdings[node.index()].add_header();
        }

        // 2. Recompute ownership over the grown membership; download the
        // joiner's share, prune ex-owners.
        let new_members = self.membership.active_members(cluster);
        let mut body_bytes = 0u64;
        let mut bodies = 0usize;
        let mut pruned = 0usize;
        let mut per_source_finish: std::collections::BTreeMap<NodeId, SimTime> =
            std::collections::BTreeMap::new();

        for height in 0..chain_len {
            let block = &self.chain[height as usize];
            let bytes = block.header().body_len as u64;
            let id = block.id();
            let owners_now = self.dispatch_owners(&id, height, &new_members);

            if owners_now.contains(&node) {
                // Fetch from a live current holder in the cluster.
                let source = new_members
                    .iter()
                    .copied()
                    .find(|m| {
                        *m != node
                            && self.net.is_up(*m)
                            && self.holdings[m.index()].has_body(height)
                    })
                    .ok_or(IciError::BodyUnavailable(height))?;
                if bytes > 0 {
                    if let Some(delay) = self
                        .net
                        .send(source, node, MessageKind::Bootstrap, bytes)
                        .delay()
                    {
                        // Transfers from one source are sequential; sources
                        // stream in parallel.
                        let t = per_source_finish.entry(source).or_insert(finish);
                        *t = (*t).max(finish) + delay;
                    }
                }
                self.store_replica(node, height, bytes);
                body_bytes += bytes;
                bodies += 1;
            }

            // Prune members that are no longer owners.
            for member in &new_members {
                if *member == node || owners_now.contains(member) {
                    continue;
                }
                if self.holdings[member.index()].drop_body(height, bytes) {
                    pruned += 1;
                }
            }
        }
        let body_finish = per_source_finish.values().max().copied().unwrap_or(finish);
        let duration = body_finish.max(finish).saturating_since(start);

        ici_telemetry::counter_add("core/bootstraps", ici_telemetry::Label::Global, 1);
        ici_telemetry::counter_add(
            "core/bootstrap_bytes",
            ici_telemetry::Label::Global,
            header_bytes + body_bytes,
        );
        ici_telemetry::observe(
            "core/bootstrap_sim_us",
            ici_telemetry::Label::Global,
            duration.as_micros(),
        );
        Ok(BootstrapReport {
            node,
            cluster: cluster.get(),
            header_bytes,
            body_bytes,
            bodies,
            pruned_bodies: pruned,
            duration,
        })
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
            .seed(11)
            .build()
            .expect("valid");
        let mut net = IciNetwork::new(config).expect("constructs");
        for round in 0..blocks {
            let txs: Vec<Transaction> = (0..6)
                .map(|i| {
                    Transaction::signed(
                        &Keypair::from_seed(i),
                        Address::from_seed(i + 1),
                        5,
                        1,
                        round,
                        vec![0u8; 200],
                    )
                })
                .collect();
            net.propose_block(txs).expect("commits");
        }
        net
    }

    #[test]
    fn joiner_downloads_headers_plus_its_share() {
        let mut net = network_with_blocks(10);
        let report = net
            .bootstrap_node(Coord::new(10.0, 10.0), JoinPolicy::SmallestCluster)
            .expect("joins");
        assert_eq!(report.node, NodeId::new(24));
        assert_eq!(report.header_bytes, 11 * BlockHeader::ENCODED_LEN as u64);
        // Share is roughly r/c of the chain's bodies; must be well below
        // the full body volume.
        let full_bodies: u64 = (0..11)
            .map(|h| net.block(h).expect("exists").body_len() as u64)
            .sum();
        assert!(
            report.body_bytes < full_bodies / 2,
            "joiner pulled {} of {} body bytes",
            report.body_bytes,
            full_bodies
        );
        assert!(report.duration > Duration::ZERO);
    }

    #[test]
    fn integrity_holds_after_join_and_prune() {
        let mut net = network_with_blocks(8);
        net.bootstrap_node(Coord::new(40.0, 40.0), JoinPolicy::NearestCentroid)
            .expect("joins");
        for report in net.audit_all() {
            assert!(report.is_intact(), "{report:?}");
        }
    }

    #[test]
    fn replication_stays_at_r_after_join() {
        let mut net = network_with_blocks(8);
        let report = net
            .bootstrap_node(Coord::new(40.0, 40.0), JoinPolicy::SmallestCluster)
            .expect("joins");
        let cluster = ici_cluster::partition::ClusterId::new(report.cluster);
        let audit = net.audit(cluster);
        // Non-empty bodies must sit at exactly r=2 replicas (empty genesis
        // body is also tracked but weightless).
        for (replicas, count) in &audit.replication_histogram {
            assert!(*replicas <= 2, "{count} heights at {replicas} replicas");
        }
    }

    #[test]
    fn joiner_state_is_queryable() {
        let mut net = network_with_blocks(5);
        let report = net
            .bootstrap_node(Coord::new(0.0, 0.0), JoinPolicy::SmallestCluster)
            .expect("joins");
        // The joiner can serve or fetch any block.
        let q = net.query_body(report.node, 3).expect("query works");
        assert!(q.bytes > 0 || q.tier == crate::query::QueryTier::Local);
    }

    #[test]
    fn multiple_joins_accumulate() {
        let mut net = network_with_blocks(4);
        for i in 0..3 {
            let report = net
                .bootstrap_node(
                    Coord::new(i as f64 * 20.0, 5.0),
                    JoinPolicy::SmallestCluster,
                )
                .expect("joins");
            assert_eq!(report.node, NodeId::new(24 + i));
        }
        assert_eq!(net.membership().total_active(), 27);
        for report in net.audit_all() {
            assert!(report.is_intact());
        }
    }

    #[test]
    fn bootstrap_traffic_is_metered_as_bootstrap() {
        let mut net = network_with_blocks(6);
        let before = net.net().meter().kind(MessageKind::Bootstrap).bytes;
        let report = net
            .bootstrap_node(Coord::new(15.0, 15.0), JoinPolicy::SmallestCluster)
            .expect("joins");
        let after = net.net().meter().kind(MessageKind::Bootstrap).bytes;
        assert_eq!(after - before, report.total_bytes());
    }
}
