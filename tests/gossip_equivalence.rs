//! `gossip_flood` against the flood it replaced.
//!
//! The flood samples each relay's fanout through a swap-remove overlay
//! on `peers`, sends the picks in one broadcast and queues a delivery
//! only when it improves on the earliest one already queued for its
//! target. The reference here is the flood as it stood before: a
//! population-sized candidate list rebuilt per relay, one `send` per
//! pick and every delivery to an unserved target queued, rebuilt from
//! the crates' public parts. On quiet or jittery links, with a random
//! [`FaultConfig`] or none, crashed nodes (the origin among them),
//! sends traced or not, and `peers` as `0..N`, as a shuffled subset
//! without the origin or as scattered ids, the two must agree on the
//! receipts, the whole meter, the `net/fault_*` counters, the traced
//! send events and the trace id of the next send.
//!
//! One test per process: telemetry and tracing are switched on
//! process-wide.

use std::collections::BTreeMap;

use ici_consensus::gossip::{gossip_flood, GossipConfig};
use ici_net::faults::{FaultConfig, MessageFaultSpec, PartitionSpec};
use ici_net::link::LinkModel;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::queue::EventQueue;
use ici_net::time::SimTime;
use ici_net::topology::{Placement, Topology};
use ici_prop::{check, Config, Shrink};
use ici_rng::Xoshiro256;

/// A generated network state plus one flood to run on it.
#[derive(Clone, Debug)]
struct Case {
    nodes: u64,
    jitter: bool,
    /// `None`: no fault model installed.
    lossy: Option<bool>,
    minority: Vec<u64>,
    fault_seed: u64,
    crashed: Vec<u64>,
    traced: bool,
    /// Sends made before the flood, to move the sequence stream.
    warm_up: u64,
    origin: u64,
    /// Distinct ids below `nodes`.
    peers: Vec<u64>,
    fanout: u64,
    seed: u64,
    start_ms: u64,
    bytes: u64,
}

impl Shrink for Case {
    fn shrink_candidates(&self) -> Vec<Case> {
        let mut out = Vec::new();
        // Single removals only: shrinking an id could repeat one.
        for i in 0..self.peers.len() {
            let mut peers = self.peers.clone();
            peers.remove(i);
            out.push(Case {
                peers,
                ..self.clone()
            });
        }
        for crashed in self.crashed.shrink_candidates() {
            out.push(Case {
                crashed,
                ..self.clone()
            });
        }
        for minority in self.minority.shrink_candidates() {
            out.push(Case {
                minority,
                ..self.clone()
            });
        }
        for lossy in self.lossy.shrink_candidates() {
            out.push(Case {
                lossy,
                ..self.clone()
            });
        }
        for (jitter, traced) in (self.jitter, self.traced).shrink_candidates() {
            out.push(Case {
                jitter,
                traced,
                ..self.clone()
            });
        }
        for fanout in self.fanout.shrink_candidates() {
            out.push(Case {
                fanout,
                ..self.clone()
            });
        }
        for warm_up in self.warm_up.shrink_candidates() {
            out.push(Case {
                warm_up,
                ..self.clone()
            });
        }
        out
    }
}

/// The flood before the overlay sampler, kept as the reference.
fn reference_flood(
    net: &mut Network,
    peers: &[NodeId],
    origin: NodeId,
    start: SimTime,
    kind: MessageKind,
    bytes: u64,
    config: &GossipConfig,
) -> BTreeMap<NodeId, SimTime> {
    let mut first_receipt: BTreeMap<NodeId, SimTime> = BTreeMap::new();
    if !net.is_up(origin) || peers.is_empty() {
        return first_receipt;
    }
    let mut queue: EventQueue<NodeId> = EventQueue::new();
    queue.schedule(start, origin);
    let mut candidates: Vec<NodeId> = Vec::with_capacity(peers.len());
    while let Some((now, node)) = queue.pop() {
        if first_receipt.contains_key(&node) {
            continue;
        }
        first_receipt.insert(node, now);
        let mut rng = Xoshiro256::seed_from_u64(
            config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(node.get()),
        );
        candidates.clear();
        candidates.extend(peers.iter().copied().filter(|p| *p != node));
        let picks = config.fanout.min(candidates.len());
        for _ in 0..picks {
            let idx = rng.gen_range(0..candidates.len());
            let target = candidates.swap_remove(idx);
            if first_receipt.contains_key(&target) {
                let _ = net.send(node, target, kind, bytes);
                continue;
            }
            if let Some(delay) = net.send(node, target, kind, bytes).delay() {
                queue.schedule(now + delay, target);
            }
        }
    }
    first_receipt
}

fn network(case: &Case) -> Network {
    let topology = Topology::generate(
        case.nodes as usize,
        &Placement::Uniform { side: 40.0 },
        case.fault_seed,
    );
    let link = LinkModel {
        max_jitter_ms: if case.jitter { 2.0 } else { 0.0 },
        ..LinkModel::default()
    };
    let mut net = Network::new(topology, link);
    for &n in &case.crashed {
        net.crash(NodeId::new(n % case.nodes));
    }
    if let Some(lossy) = case.lossy {
        let minority: Vec<NodeId> = case
            .minority
            .iter()
            .map(|&n| NodeId::new(n % case.nodes))
            .collect();
        net.set_faults(FaultConfig {
            seed: case.fault_seed,
            messages: MessageFaultSpec {
                drop_prob: if lossy { 0.2 } else { 0.0 },
                dup_prob: if lossy { 0.2 } else { 0.0 },
                delay_prob: if lossy { 0.3 } else { 0.0 },
                max_extra_delay_ms: 30.0,
            },
            partition: (!minority.is_empty())
                .then(|| PartitionSpec::split(case.nodes as usize, &minority)),
        });
    }
    net.set_trace_ctx(ici_trace::SendCtx {
        sends: case.traced,
        at_us: 40,
        height: 3,
        cluster: None,
        parent: 7,
    });
    for i in 0..case.warm_up {
        let from = NodeId::new(i % case.nodes);
        let to = NodeId::new((i * 3 + 1) % case.nodes);
        net.send(from, to, MessageKind::Control, 10);
    }
    net
}

/// Everything a flood leaves behind, in comparable form.
#[derive(Debug, PartialEq)]
struct Observed {
    receipts: Vec<(NodeId, SimTime)>,
    meter: String,
    fault_counters: Vec<(String, u64)>,
    sends: Vec<String>,
    next_trace_id: u64,
}

type Flood = fn(
    &mut Network,
    &[NodeId],
    NodeId,
    SimTime,
    MessageKind,
    u64,
    &GossipConfig,
) -> BTreeMap<NodeId, SimTime>;

/// Runs `flood` for `case` on clean thread-local registries.
fn observe(case: &Case, flood: Flood) -> Observed {
    ici_telemetry::reset();
    ici_trace::reset();
    let mut net = network(case);
    let peers: Vec<NodeId> = case.peers.iter().copied().map(NodeId::new).collect();
    let receipts = flood(
        &mut net,
        &peers,
        NodeId::new(case.origin),
        SimTime::from_millis(case.start_ms),
        MessageKind::BlockFull,
        case.bytes,
        &GossipConfig {
            fanout: case.fanout as usize,
            seed: case.seed,
        },
    );
    let meter = net.meter();
    let per_node: Vec<String> = (0..case.nodes)
        .map(NodeId::new)
        .map(|n| format!("{n}:{:?}/{:?}", meter.sent_by(n), meter.received_by(n)))
        .collect();
    let fault_counters = ici_telemetry::snapshot()
        .counters
        .iter()
        .filter(|c| c.name.starts_with("net/fault_"))
        .map(|c| (c.name.to_string(), c.value))
        .collect();
    let sends = ici_trace::snapshot()
        .events
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    Observed {
        receipts: receipts.into_iter().collect(),
        meter: format!(
            "{:?} {:?} max={} {per_node:?}",
            meter.total(),
            meter.by_kind(),
            meter.max_received_bytes()
        ),
        fault_counters,
        sends,
        next_trace_id: net.next_send_trace_id(),
    }
}

/// `peers` for a case: all ids, a shuffled subset without the origin,
/// or scattered ids in ascending order (the origin possibly among them).
fn draw_peers(rng: &mut Xoshiro256, nodes: u64, origin: u64) -> Vec<u64> {
    match rng.gen_range(0u64..3) {
        0 => (0..nodes).collect(),
        1 => {
            let mut others: Vec<u64> = (0..nodes).filter(|&n| n != origin).collect();
            for i in (1..others.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                others.swap(i, j);
            }
            let keep = rng.gen_range(0..others.len() + 1);
            others.truncate(keep);
            others
        }
        _ => {
            let stride = rng.gen_range(2u64..5);
            let offset = rng.gen_range(0..stride);
            (0..nodes).filter(|n| n % stride == offset).collect()
        }
    }
}

#[test]
fn the_flood_matches_the_population_sampler() {
    ici_telemetry::set_enabled(true);
    ici_trace::set_enabled(true);
    let result = check(
        "gossip_flood matches the pre-overlay flood",
        &Config {
            seed: 0x6055_1FED,
            cases: 300,
            ..Config::default()
        },
        |rng| {
            let nodes = if rng.gen_range(0u64..8) == 0 {
                rng.gen_range(64u64..160)
            } else {
                rng.gen_range(1u64..40)
            };
            let ids = |rng: &mut Xoshiro256, max: usize| -> Vec<u64> {
                let len = rng.gen_range(0usize..max);
                (0..len).map(|_| rng.gen_range(0u64..nodes)).collect()
            };
            let origin = rng.gen_range(0u64..nodes);
            let peers = draw_peers(rng, nodes, origin);
            let fanout = match rng.gen_range(0u64..4) {
                0 => 0,
                1 => 1,
                2 => nodes + rng.gen_range(0u64..3),
                _ => rng.gen_range(2u64..9),
            };
            Case {
                nodes,
                jitter: rng.gen_range(0u64..2) == 0,
                lossy: match rng.gen_range(0u64..3) {
                    0 => None,
                    1 => Some(false),
                    _ => Some(true),
                },
                minority: ids(rng, 5),
                fault_seed: rng.gen_range(0u64..1_000),
                crashed: if rng.gen_range(0u64..6) == 0 {
                    vec![origin]
                } else {
                    ids(rng, 8)
                },
                traced: rng.gen_range(0u64..2) == 0,
                warm_up: rng.gen_range(0u64..20),
                origin,
                peers,
                fanout,
                seed: rng.gen_range(0u64..1 << 20),
                start_ms: rng.gen_range(0u64..50),
                bytes: rng.gen_range(0u64..200_000),
            }
        },
        |case: &Case| {
            let reference = observe(case, reference_flood);
            let flood = observe(case, gossip_flood);
            if flood != reference {
                return Err(format!("reference {reference:?}\n  flood {flood:?}"));
            }
            Ok(())
        },
    );
    ici_telemetry::set_enabled(false);
    ici_trace::set_enabled(false);
    if let Err(failure) = result {
        panic!("{failure}");
    }
}
