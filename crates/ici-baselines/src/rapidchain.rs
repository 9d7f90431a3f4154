//! RapidChain-style sharding baseline — the paper's named comparator.
//!
//! The network is split into `k` committees of ~250 members (random
//! assignment, as RapidChain's Cuckoo-rule churn handling maintains).
//! Each committee owns one **shard chain** and every member fully
//! replicates that shard: per-node storage is `ledger / k` — the quantity
//! the abstract's "25 % of the storage needed by Rapidchain" compares
//! against. Blocks disseminate inside a committee with IDA-gossip
//! (Reed–Solomon shards) followed by two BFT vote rounds.
//!
//! Modelling notes (documented substitutions):
//! * every shard runs over the same genesis allocation — shards are
//!   independent ledgers, so account overlap across shards is harmless to
//!   the storage/communication/latency quantities compared;
//! * every transaction is shard-local: the runners feed each shard its
//!   own generator, and no cross-shard relay is charged. RapidChain's
//!   leader→leader relay and duplicate inclusion are left out, so the
//!   baseline's per-block communication is a lower bound — conservative
//!   for the comparison against ICI.

use ici_chain::block::{Block, BlockHeader, Height};
use ici_chain::builder::BlockBuilder;
use ici_chain::genesis::GenesisConfig;
use ici_chain::state::WorldState;
use ici_chain::transaction::Transaction;
use ici_cluster::kmeans::random_partition;
use ici_cluster::partition::{ClusterId, Partition};
use ici_consensus::ida::{run_ida_dissemination, IdaConfig};
use ici_consensus::leader::elect_live_leader;
use ici_consensus::pbft::{run_vote_rounds, VoteScratch};
use ici_consensus::quorum::quorum;
use ici_net::cost;
use ici_net::link::LinkModel;
use ici_net::metrics::MessageKind;
use ici_net::network::{Network, Stream};
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};
use ici_net::topology::{Placement, Topology};

use crate::record::BaselineCommitRecord;

/// Configuration of the RapidChain baseline.
#[derive(Clone, Debug)]
pub struct RapidChainConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Committee size (RapidChain evaluates 250).
    pub committee_size: usize,
    /// Link model.
    pub link: LinkModel,
    /// Genesis used by every shard chain.
    pub genesis: GenesisConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for RapidChainConfig {
    fn default() -> RapidChainConfig {
        RapidChainConfig {
            nodes: 1_000,
            committee_size: 250,
            link: LinkModel::default(),
            genesis: GenesisConfig::default(),
            seed: 42,
        }
    }
}

/// A RapidChain-style sharded deployment.
pub struct RapidChainNetwork {
    config: RapidChainConfig,
    net: Network,
    partition: Partition,
    shard_chains: Vec<Vec<Block>>,
    shard_states: Vec<WorldState>,
    /// Per-shard clocks: committees commit in parallel.
    shard_clocks: Vec<SimTime>,
    clock: SimTime,
    commit_log: Vec<BaselineCommitRecord>,
    /// Each committee's vote-round buffer, by shard: every committee
    /// proposes every round, and its kept pair-delay table is filled
    /// once, not once per shard commit.
    vote_scratch: Vec<VoteScratch>,
}

impl RapidChainNetwork {
    /// Builds the sharded network: random committees, one genesis per
    /// shard.
    pub fn new(config: RapidChainConfig) -> RapidChainNetwork {
        let topology = Topology::generate(config.nodes, &Placement::default(), config.seed);
        let k = config.nodes.div_ceil(config.committee_size).max(1);
        let partition = random_partition(config.nodes, k, config.seed);
        let net = Network::new(topology, config.link);
        let genesis = config.genesis.genesis_block();
        let state = config.genesis.initial_state();
        RapidChainNetwork {
            shard_chains: vec![vec![genesis]; k],
            shard_states: vec![state; k],
            shard_clocks: vec![SimTime::ZERO; k],
            config,
            net,
            partition,
            clock: SimTime::ZERO,
            commit_log: Vec::new(),
            vote_scratch: vec![VoteScratch::default(); k],
        }
    }

    /// Number of committees/shards.
    pub fn shard_count(&self) -> usize {
        self.shard_chains.len()
    }

    /// The configuration in force.
    pub fn config(&self) -> &RapidChainConfig {
        &self.config
    }

    /// The simulated network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Mutable network access.
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Members of committee `shard`.
    pub fn committee(&self, shard: usize) -> &[NodeId] {
        self.partition.members(ClusterId::new(shard as u32))
    }

    /// The committee a node serves in.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.partition.cluster_of(node).index()
    }

    /// Length of `shard`'s chain (including its genesis).
    pub fn shard_chain_len(&self, shard: usize) -> Height {
        self.shard_chains[shard].len() as Height
    }

    /// Block at `height` of `shard`.
    pub fn shard_block(&self, shard: usize, height: Height) -> Option<&Block> {
        self.shard_chains[shard].get(height as usize)
    }

    /// Commit records across all shards, in commit order.
    pub fn commit_log(&self) -> &[BaselineCommitRecord] {
        &self.commit_log
    }

    /// Commits one block of `pending` in `shard`: leader election,
    /// IDA-gossip dissemination, solo validation (RapidChain members all
    /// validate the full block), two vote rounds.
    ///
    /// Returns `None` if the committee has no live leader or no quorum.
    pub fn propose_block(
        &mut self,
        shard: usize,
        pending: Vec<Transaction>,
    ) -> Option<&BaselineCommitRecord> {
        match self.propose_round(vec![(shard, pending)]).first() {
            Some(Some(_)) => self.commit_log.last(),
            _ => None,
        }
    }

    /// Commits one block per entry of `batches` (shard id, pending txs) —
    /// committees are disjoint, so shards only meet at the meter.
    ///
    /// Each proposal runs on its own [`Network::stream`] (id = shard id),
    /// all taken before the round's first proposal runs; a record's
    /// traffic is what the meter gained during its proposal. Results are
    /// applied in `batches` order after the last proposal has run.
    ///
    /// Entries must name distinct shards: a duplicate builds on the parent
    /// as it stood before the round, fails the apply-time parent check, and
    /// reports `None`. Returns each entry's committed height.
    pub fn propose_round(
        &mut self,
        batches: Vec<(usize, Vec<Transaction>)>,
    ) -> Vec<Option<Height>> {
        let streams: Vec<Stream> = batches
            .iter()
            .map(|(shard, _)| self.net.stream(*shard as u64))
            .collect();
        self.net.advance_stream();
        let mut outcomes = Vec::with_capacity(batches.len());
        for ((shard, pending), mut stream) in batches.into_iter().zip(streams) {
            let parent = *self.shard_chains[shard].last().expect("genesis").header();
            let committee = self.partition.members(ClusterId::new(shard as u32));
            let result = self.net.on_stream(&mut stream, |net| {
                RapidChainNetwork::propose_in(
                    net,
                    committee,
                    parent,
                    &self.shard_states[shard],
                    self.shard_clocks[shard],
                    pending,
                    &mut self.vote_scratch[shard],
                )
            });
            outcomes.push((shard, result));
        }
        let mut heights = Vec::with_capacity(outcomes.len());
        for (shard, result) in outcomes {
            let applied = result.and_then(|(block, post, record)| {
                let tip = self.shard_chains[shard].last().expect("genesis").id();
                (block.header().parent == tip).then(|| {
                    let height = record.height;
                    self.shard_states[shard] = post;
                    self.shard_chains[shard].push(block);
                    self.shard_clocks[shard] = record.network_commit;
                    self.clock = self.clock.max(record.network_commit);
                    self.commit_log.push(record);
                    height
                })
            });
            heights.push(applied);
        }
        heights
    }

    /// One shard's proposal on `net`; what the meter gains meanwhile is
    /// the commit record's traffic. The leader executes the block once,
    /// as it builds it, and returns the post-state it sealed with it.
    /// `None` if the committee has no live leader or no quorum.
    fn propose_in(
        net: &mut Network,
        committee: &[NodeId],
        parent: BlockHeader,
        state: &WorldState,
        clock: SimTime,
        pending: Vec<Transaction>,
        scratch: &mut VoteScratch,
    ) -> Option<(Block, WorldState, BaselineCommitRecord)> {
        let meter_before = net.meter().total();
        let parent_id = parent.id();
        let height = parent.height + 1;
        let leader = elect_live_leader(&parent_id, height, committee, |n| net.is_up(n))?;

        let timestamp_ms = (parent.timestamp_ms + 1).max(clock.as_millis());
        let mut builder = BlockBuilder::new(&parent, state.clone(), leader.get(), timestamp_ms);
        builder.fill(pending);
        let (block, post) = builder.seal_with_state();
        let n_txs = block.transactions().len();
        let body_bytes = block.body_len() as u64;

        let build_cost = cost::apply_transactions(n_txs) + cost::hash(body_bytes);
        let start = clock + build_cost;

        // IDA-gossip dissemination, then full solo validation per member.
        let reconstruct = run_ida_dissemination(
            net,
            committee,
            leader,
            start,
            body_bytes,
            &IdaConfig::default(),
        );
        let validation = cost::solo_block_validation(n_txs, body_bytes);
        let ready: std::collections::BTreeMap<NodeId, SimTime> = reconstruct
            .into_iter()
            .map(|(n, t)| (n, t + validation))
            .collect();

        let q = quorum(committee.len());
        let committed = run_vote_rounds(net, committee, &ready, q, 2, scratch);
        if committed.len() < q {
            return None;
        }
        let network_commit = committed.values().max().copied()?;

        let meter_after = net.meter().total();
        let record = BaselineCommitRecord {
            height,
            proposer: leader,
            proposed_at: start,
            network_commit,
            reached: committed.len(),
            tx_count: n_txs as u32,
            body_bytes,
            messages: meter_after.messages - meter_before.messages,
            bytes: meter_after.bytes - meter_before.bytes,
        };
        Some((block, post, record))
    }

    /// Bytes of `shard`'s chain, headers and bodies: what each of its
    /// members stores.
    pub fn shard_ledger_bytes(&self, shard: usize) -> u64 {
        self.shard_chains[shard]
            .iter()
            .map(|b| b.header().stored_len())
            .sum()
    }

    /// Per-node storage in bytes: a member fully replicates its shard.
    pub fn storage_bytes(&self) -> Vec<u64> {
        let shard_bytes: Vec<u64> = (0..self.shard_count())
            .map(|shard| self.shard_ledger_bytes(shard))
            .collect();
        (0..self.config.nodes as u64)
            .map(|n| shard_bytes[self.shard_of(NodeId::new(n))])
            .collect()
    }

    /// Bootstrap cost of a joiner assigned to `shard`: the full shard
    /// chain. Returns `(bytes, duration)`.
    pub fn bootstrap_cost(&mut self, shard: usize) -> (u64, Duration) {
        let bytes = self.shard_ledger_bytes(shard);
        let server = self.committee(shard)[0];
        let coord = self.net.topology().coord(server);
        let joiner = self.net.join(coord);
        let delay = self
            .net
            .send(server, joiner, MessageKind::Bootstrap, bytes)
            .delay()
            .unwrap_or(Duration::ZERO);
        (bytes, delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_chain::transaction::Address;
    use ici_crypto::sig::Keypair;

    fn network(nodes: usize, committee: usize) -> RapidChainNetwork {
        RapidChainNetwork::new(RapidChainConfig {
            nodes,
            committee_size: committee,
            genesis: GenesisConfig::uniform(16, 1_000_000),
            seed: 4,
            ..RapidChainConfig::default()
        })
    }

    fn txs(n: u64, nonce: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::signed(
                    &Keypair::from_seed(i),
                    Address::from_seed(i + 1),
                    3,
                    1,
                    nonce,
                    vec![0u8; 100],
                )
            })
            .collect()
    }

    #[test]
    fn committees_partition_the_network() {
        let net = network(100, 25);
        assert_eq!(net.shard_count(), 4);
        let total: usize = (0..4).map(|s| net.committee(s).len()).sum();
        assert_eq!(total, 100);
        for n in 0..100u64 {
            let shard = net.shard_of(NodeId::new(n));
            assert!(net.committee(shard).contains(&NodeId::new(n)));
        }
    }

    #[test]
    fn shard_block_commits_with_quorum() {
        let mut net = network(60, 20);
        let record = net.propose_block(1, txs(5, 0)).expect("commits").clone();
        assert_eq!(record.height, 1);
        assert!(record.reached >= quorum(20));
        assert_eq!(net.shard_chain_len(1), 2);
        assert_eq!(net.shard_chain_len(0), 1, "other shards untouched");
    }

    #[test]
    fn storage_is_own_shard_only() {
        let mut net = network(60, 20);
        for round in 0..3 {
            net.propose_block(0, txs(4, round)).expect("commits");
        }
        net.propose_block(1, txs(4, 0)).expect("commits");

        let storage = net.storage_bytes();
        let shard0_member = net.committee(0)[0];
        let shard2_member = net.committee(2)[0];
        assert!(storage[shard0_member.index()] > storage[shard2_member.index()]);
        // Shard-2 members store only their genesis.
        assert_eq!(
            storage[shard2_member.index()],
            BlockHeader::ENCODED_LEN as u64
        );
    }

    #[test]
    fn shards_progress_independently() {
        let mut net = network(60, 20);
        net.propose_block(0, txs(3, 0)).expect("commits");
        net.propose_block(1, txs(3, 0)).expect("commits");
        net.propose_block(0, txs(3, 1)).expect("commits");
        assert_eq!(net.shard_chain_len(0), 3);
        assert_eq!(net.shard_chain_len(1), 2);
        assert_eq!(net.shard_chain_len(2), 1);
        assert_eq!(net.commit_log().len(), 3);
    }

    #[test]
    fn bootstrap_downloads_the_shard() {
        let mut net = network(60, 20);
        for round in 0..3 {
            net.propose_block(0, txs(4, round)).expect("commits");
        }
        let expected: u64 = (0..4)
            .map(|h| {
                (BlockHeader::ENCODED_LEN
                    + net.shard_block(0, h).expect("exists").header().body_len as usize)
                    as u64
            })
            .sum();
        let (bytes, duration) = net.bootstrap_cost(0);
        assert_eq!(bytes, expected);
        assert!(duration > Duration::ZERO);
    }

    #[test]
    fn ida_shard_traffic_dominates_commit_bytes() {
        let mut net = network(40, 40);
        let record = net.propose_block(0, txs(10, 0)).expect("commits").clone();
        let shard_bytes = net.net().meter().kind(MessageKind::BlockShard).bytes;
        assert!(shard_bytes > 0);
        assert!(record.bytes >= shard_bytes);
    }

    #[test]
    fn dead_committee_cannot_commit() {
        let mut net = network(40, 10);
        for &m in net.committee(0).to_vec().iter() {
            net.net_mut().crash(m);
        }
        assert!(net.propose_block(0, txs(2, 0)).is_none());
    }
}
