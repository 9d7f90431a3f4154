//! Full-replication baseline (Bitcoin-style).
//!
//! Every node stores every block; blocks are flood-gossiped and validated
//! solo by every node. This is the "blockchain is hard to scale" strawman
//! the abstract opens with: per-node storage equals the whole ledger and
//! every byte crosses every node's link.

use ici_chain::block::{Block, Height};
use ici_chain::builder::BlockBuilder;
use ici_chain::genesis::GenesisConfig;
use ici_chain::state::WorldState;
use ici_chain::transaction::Transaction;
use ici_consensus::gossip::{gossip_flood, GossipConfig};
use ici_consensus::leader::elect_live_leader;
use ici_net::cost;
use ici_net::link::LinkModel;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};
use ici_net::topology::{Placement, Topology};

use crate::record::BaselineCommitRecord;

/// Configuration of the full-replication baseline.
#[derive(Clone, Debug)]
pub struct FullConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Link model.
    pub link: LinkModel,
    /// Chain origin.
    pub genesis: GenesisConfig,
    /// Gossip fanout.
    pub fanout: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for FullConfig {
    fn default() -> FullConfig {
        FullConfig {
            nodes: 256,
            link: LinkModel::default(),
            genesis: GenesisConfig::default(),
            fanout: 8,
            seed: 42,
        }
    }
}

/// A full-replication deployment.
pub struct FullReplicationNetwork {
    config: FullConfig,
    net: Network,
    /// Every node id, the population a block floods.
    all: Vec<NodeId>,
    chain: Vec<Block>,
    state: WorldState,
    clock: SimTime,
    commit_log: Vec<BaselineCommitRecord>,
}

impl FullReplicationNetwork {
    /// Builds the network and installs genesis on every node.
    pub fn new(config: FullConfig) -> FullReplicationNetwork {
        let topology = Topology::generate(config.nodes, &Placement::default(), config.seed);
        let net = Network::new(topology, config.link);
        let chain = vec![config.genesis.genesis_block()];
        let state = config.genesis.initial_state();
        let all = (0..config.nodes as u64).map(NodeId::new).collect();
        FullReplicationNetwork {
            config,
            net,
            all,
            chain,
            state,
            clock: SimTime::ZERO,
            commit_log: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FullConfig {
        &self.config
    }

    /// The simulated network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Mutable network access (failure injection).
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Chain length including genesis.
    pub fn chain_len(&self) -> Height {
        self.chain.len() as Height
    }

    /// The block at `height`.
    pub fn block(&self, height: Height) -> Option<&Block> {
        self.chain.get(height as usize)
    }

    /// Commit records.
    pub fn commit_log(&self) -> &[BaselineCommitRecord] {
        &self.commit_log
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Proposes and flood-commits one block from `pending`. The leader
    /// executes the block once, as it builds it, and the chain takes the
    /// post-state it sealed.
    ///
    /// Returns `None` if no live proposer exists.
    pub fn propose_block(&mut self, pending: Vec<Transaction>) -> Option<&BaselineCommitRecord> {
        let parent = *self.chain.last().expect("genesis").header();
        let parent_id = parent.id();
        let height = parent.height + 1;
        let leader = {
            let net = &self.net;
            elect_live_leader(&parent_id, height, &self.all, |n| net.is_up(n))?
        };

        let timestamp_ms = (parent.timestamp_ms + 1).max(self.clock.as_millis());
        let mut builder =
            BlockBuilder::new(&parent, self.state.clone(), leader.get(), timestamp_ms);
        builder.fill(pending);
        let (block, post) = builder.seal_with_state();
        let n_txs = block.transactions().len();
        let body_bytes = block.body_len() as u64;
        let block_bytes = block.header().stored_len();

        let meter_before = self.net.meter().total();
        let build_cost = cost::apply_transactions(n_txs) + cost::hash(body_bytes);
        let start = self.clock + build_cost;

        // Flood the full block; every recipient validates solo.
        let receipts = gossip_flood(
            &mut self.net,
            &self.all,
            leader,
            start,
            MessageKind::BlockFull,
            block_bytes,
            &GossipConfig {
                fanout: self.config.fanout,
                seed: self.config.seed ^ height,
            },
        );
        let validation = cost::solo_block_validation(n_txs, body_bytes);
        let network_commit = receipts.values().max().copied().unwrap_or(start) + validation;

        self.state = post;
        self.chain.push(block);
        self.clock = network_commit;

        let meter_after = self.net.meter().total();
        self.commit_log.push(BaselineCommitRecord {
            height,
            proposer: leader,
            proposed_at: start,
            network_commit,
            reached: receipts.len(),
            tx_count: n_txs as u32,
            body_bytes,
            messages: meter_after.messages - meter_before.messages,
            bytes: meter_after.bytes - meter_before.bytes,
        });
        self.commit_log.last()
    }

    /// Per-node storage in bytes: every live node stores the whole chain.
    pub fn storage_bytes_per_node(&self) -> u64 {
        self.chain.iter().map(|b| b.header().stored_len()).sum()
    }

    /// Bootstrap cost: a joiner downloads the full chain. Returns
    /// `(bytes, duration)` and meters the traffic on the serving peer.
    pub fn bootstrap_cost(&mut self) -> (u64, Duration) {
        let bytes = self.storage_bytes_per_node();
        let server = NodeId::new(0);
        let joiner = self.net.join(
            self.net
                .topology()
                .coord(NodeId::new(self.config.nodes as u64 / 2)),
        );
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
    use ici_chain::block::BlockHeader;
    use ici_chain::transaction::Address;
    use ici_crypto::sig::Keypair;

    fn network(nodes: usize) -> FullReplicationNetwork {
        FullReplicationNetwork::new(FullConfig {
            nodes,
            genesis: GenesisConfig::uniform(16, 1_000_000),
            seed: 2,
            ..FullConfig::default()
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
    fn blocks_reach_every_node() {
        let mut net = network(64);
        let record = net.propose_block(txs(5, 0)).expect("commits").clone();
        assert_eq!(record.reached, 64);
        assert_eq!(record.height, 1);
        assert_eq!(net.chain_len(), 2);
    }

    #[test]
    fn per_node_storage_is_the_full_chain() {
        let mut net = network(32);
        for round in 0..4 {
            net.propose_block(txs(6, round)).expect("commits");
        }
        let expected: u64 = (0..5)
            .map(|h| {
                (BlockHeader::ENCODED_LEN
                    + net.block(h).expect("exists").header().body_len as usize)
                    as u64
            })
            .sum();
        assert_eq!(net.storage_bytes_per_node(), expected);
    }

    #[test]
    fn flood_traffic_scales_with_population() {
        let mut small = network(32);
        let mut large = network(128);
        small.propose_block(txs(4, 0)).expect("commits");
        large.propose_block(txs(4, 0)).expect("commits");
        let s = small.commit_log()[0].bytes;
        let l = large.commit_log()[0].bytes;
        assert!(l > s * 2, "large {l} not ≫ small {s}");
    }

    #[test]
    fn bootstrap_downloads_everything() {
        let mut net = network(16);
        for round in 0..3 {
            net.propose_block(txs(4, round)).expect("commits");
        }
        let (bytes, duration) = net.bootstrap_cost();
        assert_eq!(bytes, net.storage_bytes_per_node());
        assert!(duration > Duration::ZERO);
    }

    #[test]
    fn chain_state_is_consistent() {
        let mut net = network(16);
        net.propose_block(txs(3, 0)).expect("commits");
        assert_eq!(
            net.block(1).expect("exists").header().state_root,
            net.state.root()
        );
    }

    #[test]
    fn crashed_nodes_missed_by_flood() {
        let mut net = network(48);
        for i in 40..48 {
            net.net_mut().crash(NodeId::new(i));
        }
        let record = net.propose_block(txs(3, 0)).expect("commits");
        assert!(record.reached <= 40);
    }

    fn state_field_access(net: &FullReplicationNetwork) -> &WorldState {
        &net.state
    }

    #[test]
    fn commit_latency_positive() {
        let mut net = network(16);
        let record = net.propose_block(txs(2, 0)).expect("commits");
        assert!(record.commit_latency() > Duration::ZERO);
        let _ = state_field_access(&net);
    }
}
