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

use ici_chain::block::{BlockHeader, Height};
use ici_cluster::membership::JoinPolicy;
use ici_net::metrics::MessageKind;
use ici_net::node::NodeId;
use ici_net::time::Duration;
use ici_net::topology::Coord;

use crate::error::IciError;
use crate::holdings::NodeHoldings;
use crate::network::{IciNetwork, Shipment};

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
    /// The whole join is decided before anything changes: a join that
    /// fails leaves the topology, membership, holdings, meter and clock
    /// exactly as they were.
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
        // Decide. The joiner takes the next dense id, so it sorts last in
        // the post-join member list. Bit `h * width + i` is set when
        // `members[i]` owns height `h`: one bit a (height, member) pair
        // holds the decision without keeping every height's owner list.
        let node = NodeId::new(self.net.topology().len() as u64);
        let cluster = self
            .membership
            .choose_cluster(coord, self.net.topology(), policy);
        let mut members = Vec::with_capacity(self.membership.active_count(cluster) + 1);
        members.extend(self.membership.iter_active(cluster));
        members.push(node);
        let width = members.len();
        let (holders, joiner) = (&members[..width - 1], width - 1);
        let chain_len = self.chain_len();
        let mut owns = vec![0u64; (chain_len as usize * width).div_ceil(64)];
        let owned = |owns: &[u64], height: Height, i: usize| {
            let bit = height as usize * width + i;
            owns[bit / 64] >> (bit % 64) & 1 == 1
        };
        for height in 0..chain_len {
            let id = self.chain[height as usize].id();
            for owner in self.dispatch_owners(&id, height, &members) {
                if let Ok(i) = members.binary_search(&owner) {
                    let bit = height as usize * width + i;
                    owns[bit / 64] |= 1 << (bit % 64);
                }
            }
            if owned(&owns, height, joiner) && self.join_source(holders, height).is_none() {
                return Err(IciError::BodyUnavailable(height));
            }
        }

        self.net.join(coord);
        self.membership.admit(node, cluster);
        self.holdings.push(NodeHoldings::new());

        // 1. Header chain from the closest live cluster member.
        let header_bytes = chain_len * BlockHeader::ENCODED_LEN as u64;
        let header_source = holders
            .iter()
            .copied()
            .filter(|m| self.net.is_up(*m))
            .min_by(|a, b| {
                let da = self.net.topology().distance_ms(node, *a);
                let db = self.net.topology().distance_ms(node, *b);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            });
        let mut header_delay = Duration::ZERO;
        if let Some(source) = header_source {
            if let Some(delay) = self
                .net
                .send(source, node, MessageKind::Bootstrap, header_bytes)
                .delay()
            {
                header_delay = delay;
            }
        }
        for _ in 0..chain_len {
            self.holdings[node.index()].add_header();
        }

        // 2. Download the joiner's share after the headers, prune
        // ex-owners.
        let mut shipment = Shipment::new(MessageKind::Bootstrap);
        let mut pruned = 0usize;
        for height in 0..chain_len {
            if owned(&owns, height, joiner) {
                if let Some(source) = self.join_source(holders, height) {
                    self.ship(&mut shipment, source, node, height);
                }
            }
            let bytes = self.chain[height as usize].header().body_len as u64;
            for (i, member) in holders.iter().enumerate() {
                if !owned(&owns, height, i)
                    && self.holdings[member.index()].drop_body(height, bytes)
                {
                    pruned += 1;
                }
            }
        }
        let body_bytes = shipment.bytes;
        let duration = header_delay + shipment.span();

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
            bodies: shipment.replicas,
            pruned_bodies: pruned,
            duration,
        })
    }

    /// The first of `holders` that is live and holds the body at
    /// `height`: where a joiner downloads it from.
    fn join_source(&self, holders: &[NodeId], height: Height) -> Option<NodeId> {
        holders
            .iter()
            .copied()
            .find(|m| self.net.is_up(*m) && self.holdings[m.index()].has_body(height))
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

    #[test]
    fn a_failed_join_changes_nothing() {
        let mut net = network_with_blocks(10);
        let coord = Coord::new(25.0, 25.0);
        let policy = JoinPolicy::NearestCentroid;
        // The height the joiner would own first, and the cluster it would
        // join.
        let joiner = NodeId::new(24);
        let cluster = net
            .membership()
            .choose_cluster(coord, net.net().topology(), policy);
        let mut members = net.membership().active_members(cluster);
        members.push(joiner);
        let height = (1..net.chain_len())
            .find(|&h| {
                let id = net.block(h).expect("committed").id();
                net.dispatch_owners(&id, h, &members).contains(&joiner)
            })
            .expect("the joiner owns some height");
        for member in net.membership().active_members(cluster) {
            if net.holdings(member).expect("known").has_body(height) {
                net.crash_node(member).expect("known node");
            }
        }

        let nodes = net.net().topology().len();
        let active = net.membership().total_active();
        let storage = net.storage_bytes();
        let bootstrap = net.net().meter().kind(MessageKind::Bootstrap);
        let audits = net.audit_all();
        let clock = net.now();
        assert!(matches!(
            net.bootstrap_node(coord, policy),
            Err(IciError::BodyUnavailable(_))
        ));
        assert_eq!(net.net().topology().len(), nodes);
        assert_eq!(net.membership().total_active(), active);
        assert_eq!(net.storage_bytes(), storage);
        assert_eq!(net.net().meter().kind(MessageKind::Bootstrap), bootstrap);
        assert_eq!(net.audit_all(), audits);
        assert_eq!(net.now(), clock);

        // Once the holders are back, the same node joins under the same id.
        for member in net.membership().active_members(cluster) {
            net.recover_node(member).expect("known node");
        }
        let report = net.bootstrap_node(coord, policy).expect("joins");
        assert_eq!(report.node, joiner);
        assert!(net.holdings(joiner).expect("joined").has_body(height));
    }
}
