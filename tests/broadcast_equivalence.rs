//! `Network::broadcast` against the `Network::send` loop it replaces.
//!
//! The broadcast primitive does once per sender what `send` used to do
//! once per message (liveness check, sender/class/total charge,
//! serialization delay), and `send` is now a broadcast to one receiver.
//! Nothing observable may move: on jittery links with a random
//! [`FaultConfig`] installed, crashed endpoints and sends traced, a
//! broadcast, a `send` per receiver and [`ModelNet`] — the per-message
//! send path as it stood before the primitive, rebuilt here from the
//! crate's public parts — must agree on every outcome, on the whole
//! meter, on the `net/fault_*` telemetry counters and on the traced
//! send events (ids, order, delays).
//!
//! One test per process: telemetry and tracing are switched on
//! process-wide.

use std::collections::HashSet;

use ici_net::faults::{FaultConfig, MessageFaultSpec, PartitionSpec, SendFault};
use ici_net::link::LinkModel;
use ici_net::metrics::{MessageKind, TrafficMeter};
use ici_net::network::{Network, SendOutcome};
use ici_net::node::NodeId;
use ici_net::time::Duration;
use ici_net::topology::{Placement, Topology};
use ici_prop::{check, Config, Shrink};

/// A generated network state plus one broadcast to make on it.
#[derive(Clone, Debug)]
struct Case {
    nodes: u64,
    crashed: Vec<u64>,
    minority: Vec<u64>,
    lossy: bool,
    fault_seed: u64,
    /// Sends made before the broadcast, to move the sequence stream.
    warm_up: u64,
    from: u64,
    receivers: Vec<u64>,
    bytes: u64,
}

impl Shrink for Case {
    fn shrink_candidates(&self) -> Vec<Case> {
        let mut out = Vec::new();
        for receivers in self.receivers.shrink_candidates() {
            out.push(Case {
                receivers,
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

/// The reference: one message at a time, a hash set of crashed nodes,
/// one full meter record per transmitted copy.
struct ModelNet {
    topology: Topology,
    link: LinkModel,
    faults: Option<FaultConfig>,
    down: HashSet<NodeId>,
    meter: TrafficMeter,
    seq: u64,
    ctx: ici_trace::SendCtx,
}

impl ModelNet {
    fn send(&mut self, from: NodeId, to: NodeId, kind: MessageKind, bytes: u64) -> SendOutcome {
        if self.down.contains(&from) {
            return SendOutcome::SenderDown;
        }
        let seq = self.seq;
        self.seq += 1;
        let outcome = if self.down.contains(&to) {
            self.meter.record(from, to, kind, bytes);
            SendOutcome::ReceiverDown
        } else {
            let fault = match &self.faults {
                Some(config) => config.decide(from, to, seq),
                None => SendFault::Deliver {
                    extra_delay: Duration::ZERO,
                    copies: 1,
                },
            };
            match fault {
                SendFault::Drop => {
                    self.meter.record(from, to, kind, bytes);
                    ici_telemetry::counter_add("net/fault_drops", ici_telemetry::Label::Global, 1);
                    SendOutcome::Dropped
                }
                SendFault::Deliver {
                    extra_delay,
                    copies,
                } => {
                    for _ in 0..copies.max(1) {
                        self.meter.record(from, to, kind, bytes);
                    }
                    if copies > 1 {
                        ici_telemetry::counter_add(
                            "net/fault_duplicates",
                            ici_telemetry::Label::Global,
                            u64::from(copies - 1),
                        );
                    }
                    if extra_delay > Duration::ZERO {
                        ici_telemetry::counter_add(
                            "net/fault_delays",
                            ici_telemetry::Label::Global,
                            1,
                        );
                    }
                    SendOutcome::Delivered(
                        self.link.transit(&self.topology, from, to, bytes, seq) + extra_delay,
                    )
                }
            }
        };
        if self.ctx.sends {
            ici_trace::record(ici_trace::TraceEvent {
                kind: ici_trace::TraceKind::Send,
                name: kind.name(),
                at_us: self.ctx.at_us,
                dur_us: outcome.delay().map_or(0, Duration::as_micros),
                height: self.ctx.height,
                cluster: self.ctx.cluster,
                node: Some(from.get()),
                peer: Some(to.get()),
                bytes,
                id: ici_trace::send_id(seq),
                parent: self.ctx.parent,
                ..ici_trace::TraceEvent::default()
            });
        }
        outcome
    }
}

const CTX: ici_trace::SendCtx = ici_trace::SendCtx {
    sends: true,
    at_us: 40,
    height: 2,
    cluster: Some(1),
    parent: 99,
};

fn topology(case: &Case) -> Topology {
    Topology::generate(
        case.nodes as usize,
        &Placement::Uniform { side: 40.0 },
        case.fault_seed,
    )
}

fn crashed(case: &Case) -> impl Iterator<Item = NodeId> + '_ {
    case.crashed.iter().map(|&n| NodeId::new(n % case.nodes))
}

fn faults(case: &Case) -> FaultConfig {
    let minority: Vec<NodeId> = case
        .minority
        .iter()
        .map(|&n| NodeId::new(n % case.nodes))
        .collect();
    FaultConfig {
        seed: case.fault_seed,
        messages: MessageFaultSpec {
            drop_prob: if case.lossy { 0.2 } else { 0.0 },
            dup_prob: if case.lossy { 0.2 } else { 0.0 },
            delay_prob: if case.lossy { 0.3 } else { 0.0 },
            max_extra_delay_ms: 30.0,
        },
        partition: (!minority.is_empty())
            .then(|| PartitionSpec::split(case.nodes as usize, &minority)),
    }
}

/// The warm-up sends: they move the sequence stream off zero.
fn warm_up(case: &Case) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    (0..case.warm_up).map(|i| {
        (
            NodeId::new(i % case.nodes),
            NodeId::new((i * 3 + 1) % case.nodes),
        )
    })
}

fn network(case: &Case) -> Network {
    let mut net = Network::new(topology(case), LinkModel::default());
    for node in crashed(case) {
        net.crash(node);
    }
    net.set_faults(faults(case));
    net.set_trace_ctx(CTX);
    for (from, to) in warm_up(case) {
        net.send(from, to, MessageKind::Control, 10);
    }
    net
}

fn model(case: &Case) -> ModelNet {
    let faults = faults(case);
    let mut net = ModelNet {
        topology: topology(case),
        link: LinkModel::default(),
        faults: (!faults.is_inert()).then_some(faults),
        down: crashed(case).collect(),
        meter: TrafficMeter::new(),
        seq: 0,
        ctx: CTX,
    };
    for (from, to) in warm_up(case) {
        net.send(from, to, MessageKind::Control, 10);
    }
    net
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

/// Runs `run` (which returns its outcomes, its meter and the trace id
/// its next send would carry) on clean thread-local registries.
fn observe(
    case: &Case,
    run: impl FnOnce() -> (Vec<(NodeId, SendOutcome)>, TrafficMeter, u64),
) -> Observed {
    ici_telemetry::reset();
    ici_trace::reset();
    let (outcomes, meter, next_trace_id) = run();
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
        outcomes,
        meter: format!(
            "{:?} {:?} max={} {per_node:?}",
            meter.total(),
            meter.by_kind(),
            meter.max_received_bytes()
        ),
        fault_counters,
        sends,
        next_trace_id,
    }
}

#[test]
fn broadcast_is_a_send_per_receiver() {
    ici_telemetry::set_enabled(true);
    ici_trace::set_enabled(true);
    let result = check(
        "broadcast matches the send loop",
        &Config {
            seed: 0xB0AD_CA57,
            cases: 200,
            ..Config::default()
        },
        |rng| {
            let nodes = rng.gen_range(2u64..24);
            let ids = |rng: &mut ici_rng::Xoshiro256, max: usize| -> Vec<u64> {
                let len = rng.gen_range(0usize..max);
                (0..len).map(|_| rng.gen_range(0u64..nodes)).collect()
            };
            Case {
                nodes,
                crashed: ids(rng, 6),
                minority: ids(rng, 5),
                lossy: rng.gen_range(0u64..4) != 0,
                fault_seed: rng.gen_range(0u64..1_000),
                warm_up: rng.gen_range(0u64..20),
                from: rng.gen_range(0u64..nodes),
                // Any list: repeats and the sender itself included.
                receivers: ids(rng, 30),
                bytes: rng.gen_range(0u64..200_000),
            }
        },
        |case: &Case| {
            let from = NodeId::new(case.from % case.nodes);
            let receivers: Vec<NodeId> = case
                .receivers
                .iter()
                .map(|&n| NodeId::new(n % case.nodes))
                .collect();
            let reference = observe(case, || {
                let mut net = model(case);
                let outcomes = receivers
                    .iter()
                    .map(|&to| (to, net.send(from, to, MessageKind::Vote, case.bytes)))
                    .collect();
                (outcomes, net.meter, ici_trace::send_id(net.seq))
            });
            let looped = observe(case, || {
                let mut net = network(case);
                let outcomes = receivers
                    .iter()
                    .map(|&to| (to, net.send(from, to, MessageKind::Vote, case.bytes)))
                    .collect();
                (outcomes, net.meter().clone(), net.next_send_trace_id())
            });
            let broadcast = observe(case, || {
                let mut net = network(case);
                let mut outcomes = Vec::new();
                net.broadcast(
                    from,
                    &receivers,
                    MessageKind::Vote,
                    case.bytes,
                    |to, sent| outcomes.push((to, sent)),
                );
                (outcomes, net.meter().clone(), net.next_send_trace_id())
            });
            if looped != reference {
                return Err(format!("reference {reference:?}\n  send loop {looped:?}"));
            }
            if broadcast != reference {
                return Err(format!(
                    "reference {reference:?}\n  broadcast {broadcast:?}"
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
