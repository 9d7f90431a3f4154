//! The ICIStrategy network: construction and state accessors.
//!
//! [`IciNetwork`] owns everything a run needs: the simulated WAN, the
//! cluster partition, the authoritative chain and state, and per-node
//! storage holdings. The protocol itself lives in the sibling modules
//! ([`crate::lifecycle`], [`crate::query`], [`crate::bootstrap`],
//! [`crate::failure`]), all as `impl IciNetwork` blocks.

use std::collections::BTreeMap;

use ici_chain::block::{Block, BlockHeader, Height};
use ici_chain::locator::TxLocator;
use ici_chain::state::WorldState;
use ici_cluster::kmeans::{balanced_kmeans, kmeans, random_partition, KMeansConfig};
use ici_cluster::membership::Membership;
use ici_cluster::partition::ClusterId;
use ici_consensus::pbft::VoteScratch;
use ici_crypto::sha256::Digest;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};
use ici_net::topology::Topology;
use ici_storage::assignment::AssignmentStrategy;
use ici_storage::audit::{audit_replicas, HeightSet, IntegrityReport};
use ici_storage::stats::StorageStats;

use crate::config::{Clustering, IciConfig};
use crate::error::IciError;
use crate::holdings::NodeHoldings;
use crate::lifecycle::BlockCommitRecord;
use crate::merkle_audit::Verdicts;

/// Bodies written after their block committed, shipped through
/// [`IciNetwork::ship`]. One source streams its transfers one after
/// another; distinct sources run in parallel, so the shipment's
/// [`span`](Shipment::span) is its slowest source's total.
pub(crate) struct Shipment {
    kind: MessageKind,
    /// Each source's delivered delays, summed.
    per_source: BTreeMap<NodeId, Duration>,
    /// Body bytes written.
    pub(crate) bytes: u64,
    /// Replicas written.
    pub(crate) replicas: usize,
}

impl Shipment {
    /// An empty shipment whose sends are metered as `kind`.
    pub(crate) fn new(kind: MessageKind) -> Shipment {
        Shipment {
            kind,
            per_source: BTreeMap::new(),
            bytes: 0,
            replicas: 0,
        }
    }

    /// Wall-clock span of the shipment: the largest per-source total.
    pub(crate) fn span(&self) -> Duration {
        self.per_source
            .values()
            .max()
            .copied()
            .unwrap_or(Duration::ZERO)
    }
}

/// A complete simulated ICIStrategy deployment.
pub struct IciNetwork {
    pub(crate) config: IciConfig,
    pub(crate) net: Network,
    pub(crate) membership: Membership,
    /// The committed chain, genesis first. Authoritative copy; per-node
    /// replicas are tracked in `holdings`.
    pub(crate) chain: Vec<Block>,
    /// Header of the last block of `chain`, by value: written at
    /// construction and beside the one `chain.push`.
    pub(crate) tip: BlockHeader,
    /// Transaction index over a prefix of `chain`. Read-side only:
    /// [`IciNetwork::query_transaction`] extends it to the tip, block
    /// commit never touches it.
    pub(crate) locator: TxLocator,
    /// Post-state of the tip.
    pub(crate) state: WorldState,
    /// Per-node storage accounting, indexed by node id.
    pub(crate) holdings: Vec<NodeHoldings>,
    /// Simulation clock; advances as blocks commit.
    pub(crate) clock: SimTime,
    /// One record per committed block (after genesis).
    pub(crate) commit_log: Vec<BlockCommitRecord>,
    /// What the repair certificates have hashed so far, two bytes a
    /// height: `None` (or past the end) until a certificate derives the
    /// height, and again once a replica of it is written after commit.
    /// Only [`IciNetwork::repair_and_certify`] reads it.
    pub(crate) verdicts: Verdicts,
    /// Each cluster's vote-round scratch, indexed by cluster id and
    /// grown on demand: its closed-form delay table outlives the height
    /// and is refilled only when the cluster's members, their positions
    /// or the link change.
    pub(crate) vote_scratch: Vec<VoteScratch>,
}

impl IciNetwork {
    /// Builds the network: places nodes, forms clusters, installs genesis.
    ///
    /// # Errors
    ///
    /// [`IciError::Config`] if the configuration is inconsistent.
    pub fn new(config: IciConfig) -> Result<IciNetwork, IciError> {
        config.validate().map_err(IciError::Config)?;
        let topology = Topology::generate(config.nodes, &config.placement, config.seed);
        let k = config.cluster_count();
        let partition = match config.clustering {
            Clustering::BalancedKMeans => {
                balanced_kmeans(&topology, &KMeansConfig::with_k(k, config.seed))
            }
            Clustering::KMeans => kmeans(&topology, &KMeansConfig::with_k(k, config.seed)),
            Clustering::Random => random_partition(config.nodes, k, config.seed),
        };
        let membership = Membership::new(partition);
        let net = Network::new(topology, config.link);

        let genesis = config.genesis.genesis_block();
        let state = config.genesis.initial_state();
        let mut holdings = vec![NodeHoldings::new(); config.nodes];

        // Genesis is known to everyone: header everywhere, body (empty) on
        // the assigned owners of each cluster.
        let genesis_id = genesis.id();
        let genesis_body = genesis.header().body_len as u64;
        for h in &mut holdings {
            h.add_header();
        }
        let mut network = IciNetwork {
            config,
            net,
            membership,
            tip: *genesis.header(),
            chain: vec![genesis],
            locator: TxLocator::new(),
            state,
            holdings,
            clock: SimTime::ZERO,
            commit_log: Vec::new(),
            verdicts: Verdicts::new(),
            vote_scratch: Vec::new(),
        };
        for cluster in network.clusters() {
            for owner in network.owners_in_cluster(cluster, &genesis_id, 0) {
                network.holdings[owner.index()].add_body(0, genesis_body);
            }
        }
        Ok(network)
    }

    /// The configuration in force.
    pub fn config(&self) -> &IciConfig {
        &self.config
    }

    /// The underlying simulated network (topology, meter, liveness).
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the simulated network (failure injection).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Cluster membership view.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Chain length including genesis.
    pub fn chain_len(&self) -> Height {
        self.chain.len() as Height
    }

    /// The committed block at `height`.
    pub fn block(&self, height: Height) -> Option<&Block> {
        self.chain.get(height as usize)
    }

    /// The tip header.
    pub fn tip(&self) -> &BlockHeader {
        &self.tip
    }

    /// The post-state of the tip.
    pub fn state(&self) -> &WorldState {
        &self.state
    }

    /// The transaction locator (how much of the chain reads have
    /// indexed so far).
    pub fn tx_locator(&self) -> &TxLocator {
        &self.locator
    }

    /// Per-block commit records (excludes genesis).
    pub fn commit_log(&self) -> &[BlockCommitRecord] {
        &self.commit_log
    }

    /// Storage holdings of `node`.
    pub fn holdings(&self, node: NodeId) -> Option<&NodeHoldings> {
        self.holdings.get(node.index())
    }

    /// All cluster ids, ascending.
    pub fn clusters(&self) -> Vec<ClusterId> {
        self.cluster_ids().collect()
    }

    /// All cluster ids, ascending, without collecting them.
    pub(crate) fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.membership.cluster_count() as u32).map(ClusterId::new)
    }

    /// Whether any active member of `cluster` is network-live.
    pub(crate) fn has_live_member(&self, cluster: ClusterId) -> bool {
        self.membership
            .iter_active(cluster)
            .any(|n| self.net.is_up(n))
    }

    /// Active members of `cluster` that are also network-live.
    pub fn live_members(&self, cluster: ClusterId) -> Vec<NodeId> {
        self.membership
            .active_members(cluster)
            .into_iter()
            .filter(|n| self.net.is_up(*n))
            .collect()
    }

    /// The configured assignment's owners of block `(id, height)` within
    /// `cluster`, computed over the cluster's *active* members (the set
    /// assignment decisions are made against; network-crashed nodes are
    /// still owners until membership reconfiguration removes them).
    pub fn owners_in_cluster(
        &self,
        cluster: ClusterId,
        id: &Digest,
        height: Height,
    ) -> Vec<NodeId> {
        let members = self.membership.active_members(cluster);
        self.dispatch_owners(id, height, &members)
    }

    pub(crate) fn dispatch_owners(
        &self,
        id: &Digest,
        height: Height,
        members: &[NodeId],
    ) -> Vec<NodeId> {
        self.config
            .assignment
            .owners(id, height, members, self.config.replication)
    }

    /// Per-node total storage bytes, indexed by node id.
    pub fn storage_bytes(&self) -> Vec<u64> {
        self.holdings
            .iter()
            .map(NodeHoldings::total_bytes)
            .collect()
    }

    /// Summary statistics over per-node storage.
    pub fn storage_stats(&self) -> StorageStats {
        StorageStats::from_bytes(self.storage_bytes())
    }

    /// Bytes a single full replica of the chain occupies (headers+bodies),
    /// the denominator of the storage-ratio tables.
    pub fn full_replica_bytes(&self) -> u64 {
        self.chain
            .iter()
            .map(|b| (BlockHeader::ENCODED_LEN + b.header().body_len as usize) as u64)
            .sum()
    }

    /// Each network-live active member of `cluster`, ascending, with the
    /// heights whose bodies it holds.
    pub(crate) fn live_holdings(&self, cluster: ClusterId) -> Vec<(NodeId, &HeightSet)> {
        self.membership
            .active_members(cluster)
            .into_iter()
            .filter(|m| self.net.is_up(*m))
            .map(|m| (m, self.holdings[m.index()].body_heights()))
            .collect()
    }

    /// Ships the body at `height` from `source` to `destination` after
    /// its block committed (repair, re-clustering, a joiner's download)
    /// and writes the replica. The send is metered under the shipment's
    /// class unless the body is empty, and a delivered delay adds to
    /// `source`'s sequential total. The replica is written whether or
    /// not the send was delivered. Whatever a certificate concluded
    /// about the height predates this replica, so the next one covering
    /// it hashes it again.
    pub(crate) fn ship(
        &mut self,
        shipment: &mut Shipment,
        source: NodeId,
        destination: NodeId,
        height: Height,
    ) {
        let bytes = self.chain[height as usize].header().body_len as u64; // callers ship committed heights
        if bytes > 0 {
            if let Some(delay) = self
                .net
                .send(source, destination, shipment.kind, bytes)
                .delay()
            {
                *shipment.per_source.entry(source).or_insert(Duration::ZERO) += delay;
            }
        }
        // height < chain length, which memory bounds
        if let Some(verdict) = self.verdicts.get_mut(height as usize) {
            *verdict = None;
        }
        ici_telemetry::counter_add("core/replicas_written", ici_telemetry::Label::Global, 1);
        self.holdings[destination.index()].add_body(height, bytes);
        shipment.bytes += bytes;
        shipment.replicas += 1;
    }

    /// Audits intra-cluster integrity of `cluster` against the committed
    /// chain, counting only network-live members.
    pub fn audit(&self, cluster: ClusterId) -> IntegrityReport {
        let live = self.live_holdings(cluster);
        audit_replicas(live.iter().map(|(_, held)| *held), self.chain_len())
    }

    /// Audits every cluster; returns per-cluster reports.
    pub fn audit_all(&self) -> Vec<IntegrityReport> {
        self.cluster_ids().map(|c| self.audit(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IciConfig;

    fn small() -> IciNetwork {
        let config = IciConfig::builder()
            .nodes(32)
            .cluster_size(8)
            .replication(2)
            .seed(1)
            .build()
            .expect("valid");
        IciNetwork::new(config).expect("constructs")
    }

    #[test]
    fn construction_installs_genesis_everywhere() {
        let net = small();
        assert_eq!(net.chain_len(), 1);
        assert_eq!(net.tip().height, 0);
        for node in 0..32u64 {
            let h = net.holdings(NodeId::new(node)).expect("known node");
            assert_eq!(h.header_count(), 1);
        }
    }

    #[test]
    fn clusters_cover_all_nodes() {
        let net = small();
        let total: usize = net
            .clusters()
            .into_iter()
            .map(|c| net.membership().active_members(c).len())
            .sum();
        assert_eq!(total, 32);
        assert_eq!(net.clusters().len(), 4);
    }

    #[test]
    fn genesis_audit_is_intact_in_every_cluster() {
        let net = small();
        for report in net.audit_all() {
            assert!(report.is_intact());
        }
    }

    #[test]
    fn owners_are_cluster_members() {
        let net = small();
        for cluster in net.clusters() {
            let owners = net.owners_in_cluster(cluster, &net.chain[0].id(), 0);
            assert_eq!(owners.len(), 2);
            for o in owners {
                assert_eq!(net.membership().cluster_of(o), cluster);
            }
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = IciConfig::default();
        config.replication = 0;
        assert!(matches!(IciNetwork::new(config), Err(IciError::Config(_))));
    }

    #[test]
    fn storage_stats_reflect_headers_only_plus_genesis() {
        let net = small();
        let stats = net.storage_stats();
        assert_eq!(stats.nodes, 32);
        // Genesis body is empty, so every node stores exactly one header.
        assert_eq!(stats.min, BlockHeader::ENCODED_LEN as u64);
        assert_eq!(stats.max, BlockHeader::ENCODED_LEN as u64);
    }
}
