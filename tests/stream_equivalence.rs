//! `Network::stream` + `Network::on_stream` against the `fork` + `absorb`
//! pair they replaced.
//!
//! Per-actor traffic (a height's clusters, a round's voters, a
//! RapidChain round's shards) used to run on a copy of the network taken
//! with `fork(id)`, whose meter `absorb` folded back; it now runs on the
//! one network, positioned at `stream(id)`. The benchmark still replays
//! PBFT rounds through the copies, so the two must stay one thing: on
//! jittery links with a random [`FaultConfig`] installed, crashed
//! endpoints and sends traced, a batch of broadcasts made both ways must
//! agree on every outcome, on the whole meter, on the `net/fault_*`
//! telemetry counters, on the traced send events (ids, order, delays)
//! and on the trace id the parent's next send would carry.
//!
//! One test per process: telemetry and tracing are switched on
//! process-wide.

use ici_net::faults::{FaultConfig, MessageFaultSpec, PartitionSpec};
use ici_net::link::LinkModel;
use ici_net::metrics::{MessageKind, TrafficMeter};
use ici_net::network::{Network, SendOutcome, Stream};
use ici_net::node::NodeId;
use ici_net::topology::{Placement, Topology};
use ici_prop::{check, Config, Shrink};

/// A generated network state plus one batch of actors to run on it.
#[derive(Clone, Debug)]
struct Case {
    nodes: u64,
    crashed: Vec<u64>,
    minority: Vec<u64>,
    lossy: bool,
    fault_seed: u64,
    /// Sends made before the batch, to move the sequence stream.
    warm_up: u64,
    /// One actor per entry: `((stream id, sender), receivers)`. Every
    /// actor broadcasts twice, in two passes over the batch, so the
    /// second pass draws from where the first left each stream.
    actors: Vec<((u64, u64), Vec<u64>)>,
    bytes: u64,
}

impl Shrink for Case {
    fn shrink_candidates(&self) -> Vec<Case> {
        let mut out = Vec::new();
        for actors in self.actors.shrink_candidates() {
            out.push(Case {
                actors,
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
        if self.lossy {
            out.push(Case {
                lossy: false,
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

fn network(case: &Case) -> Network {
    let node = |n: &u64| NodeId::new(n % case.nodes);
    let topology = Topology::generate(
        case.nodes as usize,
        &Placement::Uniform { side: 40.0 },
        case.fault_seed,
    );
    let mut net = Network::new(topology, LinkModel::default());
    for crashed in &case.crashed {
        net.crash(node(crashed));
    }
    let minority: Vec<NodeId> = case.minority.iter().map(node).collect();
    net.set_faults(FaultConfig {
        seed: case.fault_seed,
        messages: MessageFaultSpec {
            drop_prob: if case.lossy { 0.2 } else { 0.0 },
            dup_prob: if case.lossy { 0.2 } else { 0.0 },
            delay_prob: if case.lossy { 0.3 } else { 0.0 },
            max_extra_delay_ms: 30.0,
        },
        partition: (!minority.is_empty())
            .then(|| PartitionSpec::split(case.nodes as usize, &minority)),
    });
    net.set_trace_ctx(ici_trace::SendCtx {
        sends: true,
        at_us: 40,
        height: 2,
        cluster: Some(1),
        parent: 99,
    });
    for i in 0..case.warm_up {
        net.send(
            NodeId::new(i % case.nodes),
            NodeId::new((i * 3 + 1) % case.nodes),
            MessageKind::Control,
            10,
        );
    }
    net
}

/// One actor's broadcast, its outcomes appended to `outcomes`.
fn broadcast(
    net: &mut Network,
    case: &Case,
    actor: &((u64, u64), Vec<u64>),
    outcomes: &mut Vec<(NodeId, SendOutcome)>,
) {
    let ((_, from), receivers) = actor;
    let receivers: Vec<NodeId> = receivers
        .iter()
        .map(|&n| NodeId::new(n % case.nodes))
        .collect();
    net.broadcast(
        NodeId::new(from % case.nodes),
        &receivers,
        MessageKind::Vote,
        case.bytes,
        |to, sent| outcomes.push((to, sent)),
    );
}

/// Everything a run leaves behind, in comparable form.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<(NodeId, SendOutcome)>,
    meter: String,
    fault_counters: Vec<(String, u64)>,
    sends: Vec<String>,
    next_trace_id: u64,
}

/// Runs `run` (which returns the batch's outcomes and the network it
/// left) on clean thread-local registries.
fn observe(case: &Case, run: impl FnOnce() -> (Vec<(NodeId, SendOutcome)>, Network)) -> Observed {
    ici_telemetry::reset();
    ici_trace::reset();
    let (outcomes, net) = run();
    let meter: &TrafficMeter = net.meter();
    let per_node: Vec<String> = (0..case.nodes)
        .map(NodeId::new)
        .map(|n| format!("{n}:{:?}/{:?}", meter.sent_by(n), meter.received_by(n)))
        .collect();
    Observed {
        outcomes,
        meter: format!(
            "{:?} {:?} max={} {per_node:?}",
            meter.total(),
            meter.by_kind(),
            meter.max_received_bytes()
        ),
        fault_counters: ici_telemetry::snapshot()
            .counters
            .iter()
            .filter(|c| c.name.starts_with("net/fault_"))
            .map(|c| (c.name.to_string(), c.value))
            .collect(),
        sends: ici_trace::snapshot()
            .events
            .iter()
            .map(|e| format!("{e:?}"))
            .collect(),
        next_trace_id: net.next_send_trace_id(),
    }
}

#[test]
fn a_stream_is_a_fork() {
    ici_telemetry::set_enabled(true);
    ici_trace::set_enabled(true);
    let result = check(
        "on_stream matches fork + absorb",
        &Config {
            seed: 0x57EA_F0C5,
            cases: 200,
            ..Config::default()
        },
        |rng| {
            let nodes = rng.gen_range(2u64..24);
            let ids = |rng: &mut ici_rng::Xoshiro256, max: usize| -> Vec<u64> {
                let len = rng.gen_range(0usize..max);
                (0..len).map(|_| rng.gen_range(0u64..nodes)).collect()
            };
            let actors = rng.gen_range(0usize..6);
            Case {
                nodes,
                crashed: ids(rng, 6),
                minority: ids(rng, 5),
                lossy: rng.gen_range(0u64..4) != 0,
                fault_seed: rng.gen_range(0u64..1_000),
                warm_up: rng.gen_range(0u64..20),
                // Stream ids may repeat: two actors on one id draw alike.
                actors: (0..actors)
                    .map(|_| {
                        let id = rng.gen_range(0u64..4);
                        let from = rng.gen_range(0u64..nodes);
                        ((id, from), ids(rng, 12))
                    })
                    .collect(),
                bytes: rng.gen_range(0u64..200_000),
            }
        },
        |case: &Case| {
            let forked = observe(case, || {
                let mut net = network(case);
                let mut forks: Vec<Network> = case
                    .actors
                    .iter()
                    .map(|((id, _), _)| net.fork(*id))
                    .collect();
                net.advance_stream();
                let mut outcomes = Vec::new();
                for _ in 0..2 {
                    for (fork, actor) in forks.iter_mut().zip(&case.actors) {
                        broadcast(fork, case, actor, &mut outcomes);
                    }
                }
                for fork in forks {
                    net.absorb(fork);
                }
                (outcomes, net)
            });
            let streamed = observe(case, || {
                let mut net = network(case);
                let mut streams: Vec<Stream> = case
                    .actors
                    .iter()
                    .map(|((id, _), _)| net.stream(*id))
                    .collect();
                net.advance_stream();
                let mut outcomes = Vec::new();
                for _ in 0..2 {
                    for (stream, actor) in streams.iter_mut().zip(&case.actors) {
                        net.on_stream(stream, |net| broadcast(net, case, actor, &mut outcomes));
                    }
                }
                (outcomes, net)
            });
            if streamed != forked {
                return Err(format!(
                    "fork + absorb {forked:?}\n  on_stream {streamed:?}"
                ));
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
