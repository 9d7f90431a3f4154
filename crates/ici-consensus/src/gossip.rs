//! Epidemic push gossip.
//!
//! The full-replication baseline (Bitcoin-style) floods blocks: a node
//! forwards a payload to `fanout` random peers on first receipt. The run is
//! event-driven over the simulated network and returns every node's
//! first-receipt time; bytes/messages land in the network meter.

use std::collections::BTreeMap;

use ici_rng::Xoshiro256;

use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::queue::EventQueue;
use ici_net::time::SimTime;

/// Gossip parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GossipConfig {
    /// Peers each node forwards to on first receipt.
    pub fanout: usize,
    /// Seed for peer sampling.
    pub seed: u64,
}

impl Default for GossipConfig {
    /// Fanout 8 — enough for whp full coverage at Bitcoin-like scales.
    fn default() -> GossipConfig {
        GossipConfig { fanout: 8, seed: 0 }
    }
}

/// Counter of the deliveries a flood queued, added once per flood.
const SCHEDULED: &str = "consensus/gossip_scheduled";

/// Where a flood stands with one node.
#[derive(Clone, Copy)]
enum Slot {
    /// Nothing queued for it yet.
    Idle,
    /// The earliest delivery queued for it so far.
    Queued(SimTime),
    /// It has received (and relayed).
    Received,
}

/// Floods `bytes` of `kind` from `origin` (holding it at `start`) to the
/// population `peers` (origin included or not — it is added implicitly).
/// `peers` must hold distinct ids of `net`.
///
/// Returns first-receipt times; nodes that the epidemic missed (possible
/// with small fanout) are absent. Crashed nodes neither receive nor relay.
///
/// On first receipt a node draws `fanout` targets without replacement
/// from `peers` minus itself and sends to them in one broadcast. The
/// draw is a swap-remove over that candidate list, kept as a small
/// overlay on `peers` rather than a copy, so a relay costs O(fanout)
/// and a flood O(N · fanout). A delivery is queued only if it arrives
/// strictly before every one already queued for its target: any other
/// would pop after that one and find the target served.
pub fn gossip_flood(
    net: &mut Network,
    peers: &[NodeId],
    origin: NodeId,
    start: SimTime,
    kind: MessageKind,
    bytes: u64,
    config: &GossipConfig,
) -> BTreeMap<NodeId, SimTime> {
    if !net.is_up(origin) || peers.is_empty() {
        return BTreeMap::new();
    }
    // Each node's slot is its position in `peers`. An origin outside
    // them takes slot `peers.len()`, the default: only the origin and
    // `peers` ever relay or receive.
    let outside = peers.len();
    let mut slot_of = vec![outside; net.len()];
    for (slot, peer) in peers.iter().enumerate() {
        slot_of[peer.index()] = slot;
    }
    let mut state = vec![Slot::Idle; outside + 1];
    let origin_slot = slot_of[origin.index()];
    state[origin_slot] = Slot::Queued(start);
    let mut queue: EventQueue<usize> = EventQueue::new();
    queue.schedule(start, origin_slot);

    let mut receipts: Vec<(NodeId, SimTime)> = Vec::with_capacity(outside + 1);
    let mut picks: Vec<NodeId> = Vec::with_capacity(config.fanout.min(outside));
    let mut overlay: Vec<(usize, NodeId)> = Vec::with_capacity(config.fanout.min(outside));
    let mut scheduled = 0u64;
    while let Some((now, slot)) = queue.pop() {
        if matches!(state[slot], Slot::Received) {
            continue; // duplicate delivery
        }
        state[slot] = Slot::Received;
        let node = peers.get(slot).copied().unwrap_or(origin);
        receipts.push((node, now));

        // Forward to `fanout` peers sampled without replacement,
        // deterministically from (seed, node). The candidates are
        // `peers` without `node`; `overlay` holds the positions the
        // swap-removes have rewritten.
        let mut rng = Xoshiro256::seed_from_u64(
            config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(node.get()),
        );
        let mut len = outside - usize::from(slot < outside);
        picks.clear();
        overlay.clear();
        for _ in 0..config.fanout.min(len) {
            let idx = rng.gen_range(0..len);
            len -= 1;
            picks.push(candidate(&overlay, peers, slot, idx));
            if idx != len {
                let last = candidate(&overlay, peers, slot, len);
                match overlay.iter_mut().find(|(at, _)| *at == idx) {
                    Some(entry) => entry.1 = last,
                    None => overlay.push((idx, last)),
                }
            }
        }
        // Redundant pushes to served targets still cost bandwidth, as
        // in a real flood.
        net.broadcast(node, &picks, kind, bytes, |to, sent| {
            let Some(delay) = sent.delay() else { return };
            let target = slot_of[to.index()];
            let at = now + delay;
            let improves = match state[target] {
                Slot::Idle => true,
                Slot::Queued(queued) => at < queued,
                Slot::Received => false,
            };
            if improves {
                state[target] = Slot::Queued(at);
                queue.schedule(at, target);
                scheduled += 1;
            }
        });
    }
    ici_telemetry::counter_add(SCHEDULED, ici_telemetry::Label::Global, scheduled);
    receipts.into_iter().collect()
}

/// Position `k` of the candidate list `peers` without slot `skip`, as
/// rewritten by `overlay`.
fn candidate(overlay: &[(usize, NodeId)], peers: &[NodeId], skip: usize, k: usize) -> NodeId {
    match overlay.iter().find(|(at, _)| *at == k) {
        Some(&(_, id)) => id,
        None => peers[if k < skip { k } else { k + 1 }],
    }
}

/// Convenience: coverage fraction of a gossip result over `peers`.
pub fn coverage(receipts: &BTreeMap<NodeId, SimTime>, peers: &[NodeId]) -> f64 {
    if peers.is_empty() {
        return 1.0;
    }
    let covered = peers.iter().filter(|p| receipts.contains_key(p)).count();
    covered as f64 / peers.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_net::link::LinkModel;
    use ici_net::topology::{Placement, Topology};

    fn network(n: usize) -> Network {
        let topo = Topology::generate(n, &Placement::Uniform { side: 30.0 }, 5);
        Network::new(topo, LinkModel::quiet())
    }

    fn peers(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn flood_reaches_everyone_with_reasonable_fanout() {
        let mut net = network(100);
        let receipts = gossip_flood(
            &mut net,
            &peers(100),
            NodeId::new(0),
            SimTime::ZERO,
            MessageKind::BlockFull,
            50_000,
            &GossipConfig::default(),
        );
        assert_eq!(coverage(&receipts, &peers(100)), 1.0);
        assert_eq!(receipts[&NodeId::new(0)], SimTime::ZERO);
    }

    #[test]
    fn receipt_times_increase_with_hops() {
        let mut net = network(60);
        let receipts = gossip_flood(
            &mut net,
            &peers(60),
            NodeId::new(0),
            SimTime::from_millis(10),
            MessageKind::BlockFull,
            10_000,
            &GossipConfig::default(),
        );
        for (node, t) in &receipts {
            if *node != NodeId::new(0) {
                assert!(*t > SimTime::from_millis(10), "{node} at {t}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = network(50);
            gossip_flood(
                &mut net,
                &peers(50),
                NodeId::new(3),
                SimTime::ZERO,
                MessageKind::BlockFull,
                1_000,
                &GossipConfig { fanout: 6, seed },
            )
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn messages_scale_with_fanout_not_n_squared() {
        let mut net = network(100);
        let cfg = GossipConfig { fanout: 8, seed: 1 };
        let _ = gossip_flood(
            &mut net,
            &peers(100),
            NodeId::new(0),
            SimTime::ZERO,
            MessageKind::BlockFull,
            1_000,
            &cfg,
        );
        let msgs = net.meter().total().messages;
        assert!(msgs <= 100 * 8, "flood used {msgs} messages");
        assert!(msgs >= 99, "flood too sparse: {msgs}");
    }

    #[test]
    fn crashed_nodes_do_not_relay_or_receive() {
        let mut net = network(40);
        for i in 10..20 {
            net.crash(NodeId::new(i));
        }
        let receipts = gossip_flood(
            &mut net,
            &peers(40),
            NodeId::new(0),
            SimTime::ZERO,
            MessageKind::BlockFull,
            1_000,
            &GossipConfig::default(),
        );
        for i in 10..20 {
            assert!(!receipts.contains_key(&NodeId::new(i)));
        }
        // Live nodes still covered (fanout 8 over 30 live nodes).
        let live: Vec<NodeId> = (0..10).chain(20..40).map(NodeId::new).collect();
        assert!(coverage(&receipts, &live) > 0.9);
    }

    #[test]
    fn dead_origin_spreads_nothing() {
        let mut net = network(10);
        net.crash(NodeId::new(0));
        let receipts = gossip_flood(
            &mut net,
            &peers(10),
            NodeId::new(0),
            SimTime::ZERO,
            MessageKind::BlockFull,
            1_000,
            &GossipConfig::default(),
        );
        assert!(receipts.is_empty());
    }

    #[test]
    fn subset_gossip_stays_in_subset() {
        let mut net = network(30);
        let committee: Vec<NodeId> = (0..10).map(NodeId::new).collect();
        let receipts = gossip_flood(
            &mut net,
            &committee,
            NodeId::new(2),
            SimTime::ZERO,
            MessageKind::BlockShard,
            500,
            &GossipConfig::default(),
        );
        for node in receipts.keys() {
            assert!(committee.contains(node));
        }
    }
}
