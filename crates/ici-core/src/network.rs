//! The ICIStrategy network: construction and state accessors.
//!
//! [`IciNetwork`] owns everything a run needs: the simulated WAN, the
//! cluster partition, the authoritative chain and state, and per-node
//! storage holdings. The protocol itself lives in the sibling modules
//! ([`crate::lifecycle`], [`crate::query`], [`crate::bootstrap`],
//! [`crate::failure`], [`crate::reconfig`]), all as `impl IciNetwork`
//! blocks. The storage rules they share are written once here: the
//! owner table, which copies a prune keeps
//! (`IciNetwork::keeps_body`, `IciNetwork::prune_to_table`) and the
//! one write path for a body after commit (`IciNetwork::ship`).

use std::collections::BTreeMap;

use ici_chain::block::{Block, BlockHeader, Height};
use ici_chain::locator::TxLocator;
use ici_chain::state::WorldState;
use ici_cluster::membership::Membership;
use ici_cluster::partition::ClusterId;
use ici_consensus::pbft::VoteScratch;
use ici_crypto::lottery::{for_each_rendezvous_rank, insert_top};
use ici_crypto::sha256::Digest;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};
use ici_net::topology::{Placement, Topology};
use ici_storage::assignment::AssignmentStrategy;
use ici_storage::audit::{audit_replicas, HeightSet, IntegrityReport};
use ici_storage::stats::StorageStats;

use crate::config::{Assignment, IciConfig};
use crate::error::IciError;
use crate::holdings::NodeHoldings;
use crate::lifecycle::{BlockCommitRecord, ClusterLeg};
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

/// Every cluster's owners of every committed height, as the commit
/// assigned them: what a read asks and a join merges into, instead of
/// ranking the members again. A row per height, genesis first, of
/// `clusters × r` slots, cluster by cluster; a cluster's slots hold its
/// owners' node indices best-first, exactly as
/// [`IciNetwork::owners_in_cluster`] returns them, then
/// [`OwnerTable::EMPTY`] where a cluster smaller than `r` has no owner.
/// Row `h`'s column `c` equals `owners_in_cluster(c, &chain[h].id(), h)`:
/// a committed block never changes, so only construction, a commit, a
/// join and a re-clustering write it.
///
/// Beside every slot sits a rank prefix: under rendezvous assignment the
/// top 16 bits of that owner's rendezvous rank of the height's block, so
/// a join places its joiner among the owners by comparing prefixes and
/// ranks an owner again only on a tie (one comparison in 65 536); under
/// ring and round-robin, and in an empty slot, 0. Two bytes a slot, not
/// four: a table grown height by height holds up to twice its rows.
pub(crate) struct OwnerTable {
    /// Slots a cluster takes in a row: the replication `r`.
    r: usize,
    /// Slots a row takes: the cluster count times `r`.
    width: usize,
    slots: Vec<u32>,
    /// One rank prefix a slot, laid out as `slots`.
    prefixes: Vec<u16>,
    /// A rendezvous ranking's best-first `(rank, node)` pairs, `r` of
    /// them: the writers rank into it, so a row allocates nothing.
    top: Vec<(u64, u64)>,
}

impl OwnerTable {
    /// A slot no owner fills.
    pub(crate) const EMPTY: u32 = u32::MAX;

    /// An empty table over `clusters` clusters of `r` slots each.
    pub(crate) fn new(clusters: usize, r: usize) -> OwnerTable {
        OwnerTable {
            r,
            width: clusters * r,
            slots: Vec::new(),
            prefixes: Vec::new(),
            top: vec![(0, 0); r],
        }
    }

    /// Makes room for `rows` more heights.
    pub(crate) fn reserve(&mut self, rows: usize) {
        self.slots.reserve(rows * self.width);
        self.prefixes.reserve(rows * self.width);
    }

    /// Heights recorded.
    fn rows(&self) -> usize {
        self.slots.len() / self.width.max(1)
    }

    /// Appends the next height's row: each cluster of `membership`
    /// ranked under `assignment` for the block `id`, as
    /// [`IciNetwork::owners_in_cluster`] would, and its owners' rank
    /// prefixes.
    pub(crate) fn push_row(
        &mut self,
        assignment: Assignment,
        id: &Digest,
        membership: &Membership,
    ) {
        let height = self.rows() as Height;
        let at = self.slots.len();
        self.slots.resize(at + self.width, OwnerTable::EMPTY);
        self.prefixes.resize(at + self.width, 0);
        let slots = self.slots[at..].chunks_exact_mut(self.r);
        let prefixes = self.prefixes[at..].chunks_exact_mut(self.r);
        for ((slots, prefixes), c) in slots.zip(prefixes).zip(0u32..) {
            let members = membership.members(ClusterId::new(c));
            if assignment != Assignment::Rendezvous {
                fill_column(slots, &assignment.owners(id, height, members, self.r));
                continue;
            }
            let mut len = 0;
            let top = &mut self.top;
            for_each_rendezvous_rank(id, members.iter().map(|m| m.get()), |node, rank| {
                len = insert_top(top, len, rank, node);
            });
            for ((slot, prefix), &(rank, node)) in slots.iter_mut().zip(prefixes).zip(&top[..len]) {
                *slot = slot_of(NodeId::new(node));
                *prefix = rank_prefix(rank);
            }
        }
    }

    /// Drops the last height's row: a height that failed to commit.
    pub(crate) fn pop_row(&mut self) {
        let at = self.slots.len().saturating_sub(self.width);
        self.slots.truncate(at);
        self.prefixes.truncate(at);
    }

    fn column_at(&self, height: Height, cluster: ClusterId) -> usize {
        height as usize * self.width + cluster.index() * self.r
    }

    /// `cluster`'s `r` slots at `height`; empty past the table.
    pub(crate) fn column(&self, height: Height, cluster: ClusterId) -> &[u32] {
        let at = self.column_at(height, cluster);
        self.slots.get(at..at + self.r).unwrap_or(&[])
    }

    /// The rank prefixes of [`OwnerTable::column`]'s slots.
    pub(crate) fn prefixes(&self, height: Height, cluster: ClusterId) -> &[u16] {
        let at = self.column_at(height, cluster);
        self.prefixes.get(at..at + self.r).unwrap_or(&[])
    }

    /// Copies `column` and its `prefixes`, `r` slots a height from
    /// genesis, into `cluster`'s slots of every row.
    pub(crate) fn set_cluster(&mut self, cluster: ClusterId, column: &[u32], prefixes: &[u16]) {
        let offset = cluster.index() * self.r;
        let rows = self.slots.chunks_exact_mut(self.width);
        for (row, owners) in rows.zip(column.chunks_exact(self.r)) {
            row[offset..offset + self.r].copy_from_slice(owners);
        }
        let rows = self.prefixes.chunks_exact_mut(self.width);
        for (row, ranks) in rows.zip(prefixes.chunks_exact(self.r)) {
            row[offset..offset + self.r].copy_from_slice(ranks);
        }
    }

    /// Whether `node` owns `height` in `cluster`.
    pub(crate) fn holds(&self, height: Height, cluster: ClusterId, node: NodeId) -> bool {
        self.column(height, cluster).contains(&slot_of(node))
    }
}

/// The rank prefix a table keeps of a rendezvous `rank`: its top 16
/// bits.
pub(crate) fn rank_prefix(rank: u64) -> u16 {
    (rank >> 48) as u16
}

/// `node` as a table slot. Node ids are dense indices into the
/// network's holdings, so a deployment reaches `u32::MAX` nodes only
/// long after memory runs out.
pub(crate) fn slot_of(node: NodeId) -> u32 {
    debug_assert!(node.get() < u64::from(OwnerTable::EMPTY), "dense node id");
    node.get() as u32
}

/// The owner a table slot names, `None` for an empty one.
pub(crate) fn owner_of(slot: u32) -> Option<NodeId> {
    (slot != OwnerTable::EMPTY).then(|| NodeId::new(u64::from(slot)))
}

/// Writes `owners` into `column`'s first slots and empties the rest.
pub(crate) fn fill_column(column: &mut [u32], owners: &[NodeId]) {
    column.fill(OwnerTable::EMPTY);
    for (slot, owner) in column.iter_mut().zip(owners) {
        *slot = slot_of(*owner);
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
    /// Every cluster's owners of every committed height: the one place
    /// reads and joins get them.
    pub(crate) owners: OwnerTable,
    /// A join's new column of the joined cluster, `r` slots a height,
    /// and their rank prefixes, kept so a join allocates nothing.
    pub(crate) join_column: Vec<u32>,
    pub(crate) join_prefixes: Vec<u16>,
    /// The heights one holder holds, while it is pruned to the owner
    /// table.
    pub(crate) held: Vec<Height>,
    /// The remote clusters' legs of the height in flight, kept so a
    /// height allocates nothing per cluster.
    pub(crate) remote_legs: Vec<ClusterLeg>,
}

impl IciNetwork {
    /// Builds the network: places nodes, forms clusters, installs genesis.
    ///
    /// # Errors
    ///
    /// [`IciError::Config`] if the configuration is inconsistent.
    pub fn new(config: IciConfig) -> Result<IciNetwork, IciError> {
        config.validate().map_err(IciError::Config)?;
        let topology = Topology::generate(config.nodes, &Placement::default(), config.seed);
        let k = config.cluster_count();
        let partition = config.clustering.partition(&topology, k, config.seed);
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
        let owners = OwnerTable::new(membership.cluster_count(), config.replication);
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
            owners,
            join_column: Vec::new(),
            join_prefixes: Vec::new(),
            held: Vec::new(),
            remote_legs: Vec::new(),
        };
        let assignment = network.config.assignment;
        network
            .owners
            .push_row(assignment, &genesis_id, &network.membership);
        for cluster in network.cluster_ids() {
            for &slot in network.owners.column(0, cluster) {
                if let Some(owner) = owner_of(slot) {
                    network.holdings[owner.index()].add_body(0, genesis_body);
                }
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

    /// Whether any member of `cluster` is network-live.
    pub(crate) fn has_live_member(&self, cluster: ClusterId) -> bool {
        self.membership
            .members(cluster)
            .iter()
            .any(|n| self.net.is_up(*n))
    }

    /// Members of `cluster` that are network-live.
    pub fn live_members(&self, cluster: ClusterId) -> Vec<NodeId> {
        self.membership
            .members(cluster)
            .iter()
            .copied()
            .filter(|n| self.net.is_up(*n))
            .collect()
    }

    /// The configured assignment's owners of block `(id, height)` within
    /// `cluster`, computed over the cluster's members (the set assignment
    /// decisions are made against; network-crashed nodes are still owners
    /// until reconfiguration removes them).
    pub fn owners_in_cluster(
        &self,
        cluster: ClusterId,
        id: &Digest,
        height: Height,
    ) -> Vec<NodeId> {
        self.dispatch_owners(id, height, self.membership.members(cluster))
    }

    /// The owners of the committed `height` within `cluster`, best
    /// first: [`IciNetwork::owners_in_cluster`] of its block, read from
    /// the table the commit wrote instead of ranked again. Empty past
    /// the tip or the clusters.
    pub fn owners_at(
        &self,
        cluster: ClusterId,
        height: Height,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.owners
            .column(height, cluster)
            .iter()
            .map_while(|slot| owner_of(*slot))
    }

    /// [`IciNetwork::owners_at`] with each owner's recorded rank
    /// prefix: the top 16 bits of its rendezvous rank of the height's
    /// block under rendezvous assignment, 0 under ring and round-robin.
    pub fn owner_prefixes_at(
        &self,
        cluster: ClusterId,
        height: Height,
    ) -> impl Iterator<Item = (NodeId, u16)> + '_ {
        self.owners_at(cluster, height)
            .zip(self.owners.prefixes(height, cluster).iter().copied())
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
        self.chain.iter().map(|b| b.header().stored_len()).sum()
    }

    /// Each network-live member of `cluster`, ascending, with the heights
    /// whose bodies it holds.
    pub(crate) fn live_holdings(&self, cluster: ClusterId) -> Vec<(NodeId, &HeightSet)> {
        self.membership
            .members(cluster)
            .iter()
            .copied()
            .filter(|m| self.net.is_up(*m))
            .map(|m| (m, self.holdings[m.index()].body_heights()))
            .collect()
    }

    /// Whether `node` is live and holds the body at `height`: a node
    /// that can serve it.
    pub(crate) fn serves(&self, node: NodeId, height: Height) -> bool {
        self.net.is_up(node) && self.holdings[node.index()].has_body(height)
    }

    /// Whether `node`, a member of `cluster`, keeps its body at `height`
    /// when storage is pruned to the owner table: it owns the height
    /// there, or no owner there serves it. A repair writes to live
    /// members the table does not name, so once the named owners have
    /// died such a copy may be the cluster's only live one.
    pub(crate) fn keeps_body(&self, height: Height, cluster: ClusterId, node: NodeId) -> bool {
        let column = self.owners.column(height, cluster);
        column.contains(&slot_of(node))
            || !column
                .iter()
                .filter_map(|&slot| owner_of(slot))
                .any(|owner| self.serves(owner, height))
    }

    /// Drops from `node`, a member of `cluster`, each body it does not
    /// keep ([`IciNetwork::keeps_body`]), walking the heights it holds
    /// rather than every height. An owner never drops its own copy, so
    /// the order nodes are pruned in cannot change what is kept.
    /// Returns how many bodies were dropped.
    pub(crate) fn prune_to_table(&mut self, cluster: ClusterId, node: NodeId) -> usize {
        let mut held = std::mem::take(&mut self.held);
        held.clear();
        held.extend(self.holdings[node.index()].body_heights().iter());
        let mut pruned = 0;
        for &height in &held {
            if !self.keeps_body(height, cluster, node) {
                let bytes = self.chain[height as usize].header().body_len as u64;
                pruned += usize::from(self.holdings[node.index()].drop_body(height, bytes));
            }
        }
        self.held = held;
        pruned
    }

    /// Ships the body at `height` from `source` to `destination` after
    /// its block committed (repair, re-clustering, a joiner's download)
    /// and writes the replica. Every caller ships to a live
    /// destination: a crashed node's disk takes no writes. The send is
    /// metered under the shipment's class unless the body is empty, and
    /// a delivered delay adds to `source`'s sequential total. The
    /// replica is written whether or not the send was delivered.
    /// Whatever a certificate concluded about the height predates this
    /// replica, so the next one covering it hashes it again.
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
            .map(|c| net.membership().members(c).len())
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
