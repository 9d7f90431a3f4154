//! IDA-gossip block dissemination (the RapidChain baseline's transport).
//!
//! RapidChain spreads a block inside a committee as Reed–Solomon shards:
//! the proposer splits the body into `k` data shards plus parity, sends a
//! distinct shard to each neighbour, and members reconstruct once any `k`
//! distinct shards arrive. The win is latency (many small parallel
//! transfers instead of one large one) and proposer fairness; every member
//! still receives ≈ one block's worth of bytes.
//!
//! The model here makes the byte accounting exact: each member receives
//! exactly `k` distinct shards of `⌈body/k⌉` bytes, delivered by the shard
//! holders after the proposer's initial scatter. Shard-level integrity
//! (each shard carries a Merkle proof against the header's root in real
//! RapidChain) is charged as a fixed per-shard overhead.

use std::collections::BTreeMap;

use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::SimTime;

/// Per-shard proof overhead bytes (Merkle path binding the shard to the
/// header commitment).
pub const SHARD_PROOF_BYTES: u64 = 200;

/// IDA parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdaConfig {
    /// Data shards `k`: any `k` distinct shards reconstruct the block.
    pub data_shards: usize,
    /// Parity shards (tolerated shard losses).
    pub parity_shards: usize,
}

impl Default for IdaConfig {
    /// `k = 16`, 8 parity — a third of shards may be lost.
    fn default() -> IdaConfig {
        IdaConfig {
            data_shards: 16,
            parity_shards: 8,
        }
    }
}

impl IdaConfig {
    /// Total shards `n = k + m`.
    pub fn total_shards(&self) -> usize {
        self.data_shards + self.parity_shards
    }

    /// Shard payload size for a body of `body_bytes` (plus proof overhead).
    pub fn shard_bytes(&self, body_bytes: u64) -> u64 {
        body_bytes.div_ceil(self.data_shards as u64) + SHARD_PROOF_BYTES
    }
}

/// Disseminates a block of `body_bytes` from `leader` to `members` via
/// IDA-gossip. Returns each member's reconstruction time (the arrival of
/// its `k`-th distinct shard). Crashed members are absent from the result.
///
/// Message pattern:
/// 1. *Scatter*: the leader sends shard `i mod n` to member `i` (one shard
///    per member; with `c > n` several members hold the same shard index).
/// 2. *Relay*: for each member `j` and each of the `k` shard indices it
///    still needs, the nearest-by-index holder forwards its shard to `j`
///    as soon as it has it.
pub fn run_ida_dissemination(
    net: &mut Network,
    members: &[NodeId],
    leader: NodeId,
    start: SimTime,
    body_bytes: u64,
    config: &IdaConfig,
) -> BTreeMap<NodeId, SimTime> {
    let _span = ici_telemetry::span!("consensus/ida_disseminate");
    ici_telemetry::observe(
        "consensus/ida_body_bytes",
        ici_telemetry::Label::Global,
        body_bytes,
    );
    let mut reconstructed = BTreeMap::new();
    if members.is_empty() || !net.is_up(leader) {
        return reconstructed;
    }
    let n_shards = config.total_shards();
    let k = config.data_shards;
    let shard_bytes = config.shard_bytes(body_bytes);

    // The leader holds every shard at `start` (encoding cost charged by the
    // caller's validation model).
    // Scatter: member i receives shard (i mod n_shards).
    let mut holder_time: Vec<Vec<(NodeId, SimTime)>> = vec![Vec::new(); n_shards];
    for (i, &m) in members.iter().enumerate() {
        let shard = i % n_shards;
        if m == leader {
            holder_time[shard].push((m, start));
            continue;
        }
        if let Some(delay) = net
            .send(leader, m, MessageKind::BlockShard, shard_bytes)
            .delay()
        {
            holder_time[shard].push((m, start + delay));
        }
    }

    // Relay: each member gathers k distinct shards. It already holds one
    // (its scatter shard); holders of the other indices forward theirs.
    // The leader encoded the block and needs nothing.
    for (i, &m) in members.iter().enumerate() {
        if m == leader || !net.is_up(m) {
            continue;
        }
        let own_shard = i % n_shards;
        let own_arrival = holder_time[own_shard]
            .iter()
            .find(|(node, _)| *node == m)
            .map(|(_, t)| *t);
        let mut arrivals: Vec<SimTime> = Vec::with_capacity(k);
        if let Some(t) = own_arrival {
            arrivals.push(t);
        }
        let mut needed = k.saturating_sub(arrivals.len());
        let mut shard = (own_shard + 1) % n_shards;
        while needed > 0 && shard != own_shard {
            // Nearest holder of this shard index (first in list order).
            if let Some((holder, held_at)) = holder_time[shard]
                .iter()
                .find(|(node, _)| *node != m && net.is_up(*node))
                .copied()
            {
                if let Some(delay) = net
                    .send(holder, m, MessageKind::BlockShard, shard_bytes)
                    .delay()
                {
                    arrivals.push(held_at.max(start) + delay);
                    needed -= 1;
                }
            } else if let Some(delay) = net
                .send(leader, m, MessageKind::BlockShard, shard_bytes)
                .delay()
            {
                // No member holds this shard (tiny committee): the leader
                // serves it directly.
                arrivals.push(start + delay);
                needed -= 1;
            }
            shard = (shard + 1) % n_shards;
        }
        if arrivals.len() >= k {
            arrivals.sort_unstable();
            reconstructed.insert(m, arrivals[k - 1]);
        }
    }
    // The leader trivially has the block.
    reconstructed.insert(leader, start);
    reconstructed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_net::link::LinkModel;
    use ici_net::topology::{Placement, Topology};

    fn network(n: usize) -> Network {
        let topo = Topology::generate(n, &Placement::Uniform { side: 20.0 }, 7);
        Network::new(topo, LinkModel::quiet())
    }

    fn members(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn every_member_reconstructs() {
        let mut net = network(40);
        let m = members(40);
        let times = run_ida_dissemination(
            &mut net,
            &m,
            NodeId::new(0),
            SimTime::ZERO,
            1_000_000,
            &IdaConfig::default(),
        );
        assert_eq!(times.len(), 40);
        assert_eq!(times[&NodeId::new(0)], SimTime::ZERO);
        for (node, t) in &times {
            if *node != NodeId::new(0) {
                assert!(*t > SimTime::ZERO, "{node}");
            }
        }
    }

    #[test]
    fn bytes_received_per_member_approximate_one_block() {
        let mut net = network(48);
        let m = members(48);
        let body = 1_000_000u64;
        let cfg = IdaConfig::default();
        let _ = run_ida_dissemination(&mut net, &m, NodeId::new(0), SimTime::ZERO, body, &cfg);
        let total = net.meter().total().bytes;
        // Each of ~48 members receives ~k shards ≈ one body (+ proof
        // overhead); allow 2× slack for rounding and scatter duplicates.
        let per_member = total as f64 / 47.0;
        assert!(
            per_member > body as f64 * 0.8 && per_member < body as f64 * 2.0,
            "per-member bytes {per_member}"
        );
    }

    #[test]
    fn ida_beats_whole_block_unicast_latency_for_large_blocks() {
        // With serialization-dominated transfers, shipping 1/k-sized shards
        // in parallel must beat one big transfer to the farthest member.
        let body = 4_000_000u64; // 4 MB ⇒ 1.6 s serialization at 20 Mbit/s
        let m = members(30);

        let mut net = network(30);
        let ida = run_ida_dissemination(
            &mut net,
            &m,
            NodeId::new(0),
            SimTime::ZERO,
            body,
            &IdaConfig::default(),
        );
        let ida_last = ida.values().max().copied().expect("non-empty");

        let mut net2 = network(30);
        let mut unicast_last = SimTime::ZERO;
        for &dest in &m[1..] {
            if let Some(d) = net2
                .send(NodeId::new(0), dest, MessageKind::BlockFull, body)
                .delay()
            {
                unicast_last = unicast_last.max(SimTime::ZERO + d);
            }
        }
        assert!(
            ida_last < unicast_last,
            "ida {ida_last} vs unicast {unicast_last}"
        );
    }

    #[test]
    fn crashed_members_are_skipped() {
        let mut net = network(20);
        net.crash(NodeId::new(5));
        let times = run_ida_dissemination(
            &mut net,
            &members(20),
            NodeId::new(0),
            SimTime::ZERO,
            100_000,
            &IdaConfig::default(),
        );
        assert!(!times.contains_key(&NodeId::new(5)));
        assert_eq!(times.len(), 19);
    }

    #[test]
    fn committee_smaller_than_shard_count_still_works() {
        let mut net = network(5);
        let times = run_ida_dissemination(
            &mut net,
            &members(5),
            NodeId::new(0),
            SimTime::ZERO,
            10_000,
            &IdaConfig::default(), // 24 shards over 5 members
        );
        assert_eq!(times.len(), 5);
    }

    #[test]
    fn dead_leader_disseminates_nothing() {
        let mut net = network(10);
        net.crash(NodeId::new(0));
        let times = run_ida_dissemination(
            &mut net,
            &members(10),
            NodeId::new(0),
            SimTime::ZERO,
            10_000,
            &IdaConfig::default(),
        );
        assert!(times.is_empty());
        assert_eq!(net.meter().total().messages, 0);
    }

    #[test]
    fn shard_bytes_include_proof_overhead() {
        let cfg = IdaConfig {
            data_shards: 10,
            parity_shards: 5,
        };
        assert_eq!(cfg.shard_bytes(1_000), 100 + SHARD_PROOF_BYTES);
        assert_eq!(cfg.total_shards(), 15);
    }
}
