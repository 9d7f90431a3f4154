//! The network facade: topology + link model + liveness + metering.
//!
//! Protocols talk to [`Network`] exclusively: every simulated transmission
//! goes through [`Network::send`] — or [`Network::broadcast`], the same
//! thing for one sender and many receivers — which meters the bytes,
//! checks endpoint liveness, and returns the transit delay the caller
//! uses to schedule the delivery event.
//!
//! A run has one `Network`: one meter, one down-set, one fault plan.
//! Actors that act at the same simulated instant (the clusters of a
//! height, the voters of a round, the shards of a RapidChain round) each
//! draw their jitter and faults from their own sequence [`Stream`],
//! derived from the network's position and a caller-chosen id, and run
//! their sends on the one network through [`Network::on_stream`].

use crate::faults::{FaultConfig, SendFault};
use crate::link::LinkModel;
use crate::liveness::DownSet;
use crate::metrics::{MessageKind, TrafficMeter};
use crate::node::NodeId;
use crate::time::Duration;
use crate::topology::{Coord, Topology};

/// Outcome of a send attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// Message will arrive after the contained delay.
    Delivered(Duration),
    /// The sender is crashed; nothing was transmitted or metered.
    SenderDown,
    /// The receiver is crashed; the transmission is metered on the sender
    /// side (the bytes left the machine) but never arrives.
    ReceiverDown,
    /// Fault injection lost the message (random loss or a severed
    /// partition edge); metered on the sender side like
    /// [`SendOutcome::ReceiverDown`].
    Dropped,
}

impl SendOutcome {
    /// The delay if the message will be delivered.
    pub fn delay(self) -> Option<Duration> {
        match self {
            SendOutcome::Delivered(d) => Some(d),
            _ => None,
        }
    }
}

/// A position in the simulation randomness: the sequence number the
/// next send draws jitter and faults from, and the causal context
/// stamped onto traced sends. The network holds its own; an actor takes
/// one with [`Network::stream`] and sends on it with
/// [`Network::on_stream`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Stream {
    seq: u64,
    trace: ici_trace::SendCtx,
}

/// A simulated network over `n` nodes.
#[derive(Clone, Debug)]
pub struct Network {
    topology: Topology,
    link: LinkModel,
    meter: TrafficMeter,
    down: DownSet,
    faults: Option<FaultConfig>,
    at: Stream,
}

/// SplitMix64 finalizer: decorrelates derived sequence streams.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Network {
    /// Builds a network over `topology` with the given link model.
    pub fn new(topology: Topology, link: LinkModel) -> Network {
        Network {
            topology,
            link,
            meter: TrafficMeter::new(),
            down: DownSet::default(),
            faults: None,
            at: Stream::default(),
        }
    }

    /// Installs the causal context stamped onto traced sends. Protocol
    /// code sets this before a traced operation (and only when
    /// [`ici_trace::enabled`]); the context is plain data and never
    /// perturbs delivery, metering, or the sequence stream.
    pub fn set_trace_ctx(&mut self, ctx: ici_trace::SendCtx) {
        self.at.trace = ctx;
    }

    /// The causal context currently stamped onto traced sends.
    pub fn trace_ctx(&self) -> ici_trace::SendCtx {
        self.at.trace
    }

    /// Whether sends from this network currently emit trace events:
    /// tracing is on and the installed context opted sends in.
    pub fn sends_are_traced(&self) -> bool {
        ici_trace::enabled() && self.at.trace.sends
    }

    /// The trace id the next send from this network will carry: a pure
    /// function of the sequence counter, so the sender can compute it up
    /// front and hand it to the receiver's handler as a causal parent
    /// without any shared mutable state.
    pub fn next_send_trace_id(&self) -> u64 {
        ici_trace::send_id(self.at.seq)
    }

    /// Number of nodes (including crashed ones).
    pub fn len(&self) -> usize {
        self.topology.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.topology.is_empty()
    }

    /// The node placement.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The link model in force.
    pub fn link(&self) -> &LinkModel {
        &self.link
    }

    /// Accumulated traffic statistics.
    pub fn meter(&self) -> &TrafficMeter {
        &self.meter
    }

    /// The meter, for a protocol that has worked out a batch of sends
    /// itself (who transmits, to whom, how many bytes) and settles the
    /// charge in bulk through [`TrafficMeter::charge_sender`] and
    /// [`TrafficMeter::charge_receiver`] instead of one
    /// [`Network::send`] per message. Only sound where sends are
    /// deterministic without the network's help — see
    /// [`Network::sends_are_stream_independent`].
    pub fn meter_mut(&mut self) -> &mut TrafficMeter {
        &mut self.meter
    }

    /// Resets traffic counters (topology and liveness are kept).
    pub fn reset_meter(&mut self) {
        self.meter.reset();
    }

    /// Installs a message-fault configuration on the send path. Inert
    /// configs (all probabilities zero, no partition) are treated as
    /// [`Network::clear_faults`].
    pub fn set_faults(&mut self, faults: FaultConfig) {
        self.faults = (!faults.is_inert()).then_some(faults);
    }

    /// Removes any installed fault configuration.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// The fault configuration currently on the send path, if any.
    pub fn faults(&self) -> Option<&FaultConfig> {
        self.faults.as_ref()
    }

    /// Marks `node` crashed. Sends from/to it fail until recovery.
    pub fn crash(&mut self, node: NodeId) {
        self.down.insert(node);
    }

    /// Brings `node` back.
    pub fn recover(&mut self, node: NodeId) {
        self.down.remove(node);
    }

    /// Whether `node` is currently alive.
    pub fn is_up(&self, node: NodeId) -> bool {
        !self.down.contains(node)
    }

    /// Ids of all live nodes.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        (0..self.len() as u64)
            .map(NodeId::new)
            .filter(|n| self.is_up(*n))
            .collect()
    }

    /// Number of crashed nodes.
    pub fn down_count(&self) -> usize {
        self.down.len()
    }

    /// Whether [`Network::send`] outcomes are independent of the rng
    /// stream position: no fault config is installed (inert configs are
    /// normalized to `None`) and the link draws zero jitter, so `send`
    /// consumes a sequence number but never turns it into randomness.
    /// Every outcome is then a function of liveness and geometry, so a
    /// protocol may work a batch of sends out itself and charge the
    /// meter in bulk ([`Network::meter_mut`]) without changing any
    /// delivered byte; jittery or faulty networks must keep per-message
    /// sends on per-actor streams to preserve their committed traces.
    pub fn sends_are_stream_independent(&self) -> bool {
        self.faults.is_none() && self.link.max_jitter_ms <= 0.0
    }

    /// Attempts to transmit `bytes` of `kind` from `from` to `to`.
    ///
    /// Returns the transit delay on success; the caller schedules delivery
    /// at `now + delay`. Metering: delivered, receiver-down, and dropped
    /// sends charge the sender (the bytes left its uplink, and a duplicated
    /// message charges once per copy); sender-down sends charge nothing.
    ///
    /// When a [`FaultConfig`] is installed the send path consults it:
    /// partitioned or lossy edges return [`SendOutcome::Dropped`], delayed
    /// messages carry extra transit time (which reorders them past later
    /// traffic), and duplicates are metered as retransmissions.
    pub fn send(&mut self, from: NodeId, to: NodeId, kind: MessageKind, bytes: u64) -> SendOutcome {
        let mut outcome = SendOutcome::SenderDown;
        self.broadcast(from, &[to], kind, bytes, |_, sent| outcome = sent);
        outcome
    }

    /// Transmits `bytes` of `kind` from `from` to every entry of
    /// `receivers`, handing each receiver and its outcome to `each` in
    /// list order. Exactly [`Network::send`] called once per receiver —
    /// same sequence numbers, fault draws, trace ids and per-node
    /// metering — with everything that depends on the sender alone done
    /// once: the liveness check, the sender/class/total charge (summed
    /// over the copies that left the uplink) and the serialization
    /// delay.
    pub fn broadcast(
        &mut self,
        from: NodeId,
        receivers: &[NodeId],
        kind: MessageKind,
        bytes: u64,
        mut each: impl FnMut(NodeId, SendOutcome),
    ) {
        if !self.is_up(from) {
            for &to in receivers {
                each(to, SendOutcome::SenderDown);
            }
            return;
        }
        let serialization = self.link.serialization(bytes);
        let traced = self.sends_are_traced();
        let mut copies_sent = 0u64;
        for &to in receivers {
            let seq = self.at.seq;
            self.at.seq += 1;
            let (copies, outcome) = if !self.is_up(to) {
                // Bytes still leave the sender's uplink.
                (1, SendOutcome::ReceiverDown)
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
                        ici_telemetry::counter_add(
                            "net/fault_drops",
                            ici_telemetry::Label::Global,
                            1,
                        );
                        (1, SendOutcome::Dropped)
                    }
                    SendFault::Deliver {
                        extra_delay,
                        copies,
                    } => {
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
                        (
                            u64::from(copies.max(1)),
                            SendOutcome::Delivered(
                                self.link.flight(&self.topology, from, to, seq)
                                    + serialization
                                    + extra_delay,
                            ),
                        )
                    }
                }
            };
            self.meter.charge_receiver(to, copies, copies * bytes);
            copies_sent += copies;
            if traced {
                self.trace_send(seq, from, to, kind, bytes, outcome);
            }
            each(to, outcome);
        }
        if copies_sent > 0 {
            self.meter
                .charge_sender(from, kind, copies_sent, copies_sent * bytes);
        }
    }

    /// Records one traced transmission. Outlined so the untraced send
    /// path carries only the enabled check.
    #[cold]
    #[inline(never)]
    fn trace_send(
        &self,
        seq: u64,
        from: NodeId,
        to: NodeId,
        kind: MessageKind,
        bytes: u64,
        outcome: SendOutcome,
    ) {
        let ctx = self.at.trace;
        ici_trace::record(ici_trace::TraceEvent {
            kind: ici_trace::TraceKind::Send,
            name: kind.name(),
            at_us: ctx.at_us,
            dur_us: outcome.delay().map_or(0, Duration::as_micros),
            height: ctx.height,
            cluster: ctx.cluster,
            node: Some(from.get()),
            peer: Some(to.get()),
            bytes,
            id: ici_trace::send_id(seq),
            parent: ctx.parent,
            ..ici_trace::TraceEvent::default()
        });
    }

    /// Adds a node at `coord` (e.g. a bootstrapping joiner). Returns its id.
    pub fn join(&mut self, coord: Coord) -> NodeId {
        self.topology.push(coord)
    }

    /// The sequence stream of actor `id` at the network's current
    /// position: `mix(seq ^ mix(id + 1))`, carrying the causal context
    /// installed now. The derivation depends only on the position and
    /// `id`, so the actors of one batch (the clusters of a height, the
    /// voters of a round) draw independently of each other and of the
    /// order they are simulated in. Take the whole batch, then call
    /// [`Network::advance_stream`] once so later traffic draws fresh
    /// randomness.
    pub fn stream(&self, id: u64) -> Stream {
        Stream {
            seq: mix(self.at.seq ^ mix(id.wrapping_add(1))),
            trace: self.at.trace,
        }
    }

    /// Runs `f` on this network positioned at `stream`: every send `f`
    /// makes draws from the stream and carries its causal context, and
    /// lands on the one meter and the one liveness set. The advanced
    /// stream (and any context `f` installed) is written back, and the
    /// network's own position is restored.
    pub fn on_stream<R>(&mut self, stream: &mut Stream, f: impl FnOnce(&mut Network) -> R) -> R {
        std::mem::swap(&mut self.at, stream);
        let result = f(self);
        std::mem::swap(&mut self.at, stream);
        result
    }

    /// Advances the sequence stream past a batch of
    /// [`Network::stream`]s so traffic after the batch is decorrelated
    /// from traffic inside it.
    pub fn advance_stream(&mut self) {
        self.at.seq = mix(self.at.seq);
    }

    // Kept for the frozen benchmark only: `benchmark/src/surface.rs`
    // replays PBFT rounds on a copy of the network and folds its traffic
    // back. The copy sits at `stream(id)` with a fresh meter, so it
    // draws exactly what `on_stream` would; `tests/stream_equivalence.rs`
    // holds the two to the same outcomes, meter and trace. Nothing else
    // may call these.
    #[doc(hidden)]
    pub fn fork(&self, id: u64) -> Network {
        Network {
            topology: self.topology.clone(),
            link: self.link,
            meter: TrafficMeter::new(),
            down: self.down.clone(),
            faults: self.faults.clone(),
            at: self.stream(id),
        }
    }

    #[doc(hidden)]
    pub fn absorb(&mut self, child: Network) {
        self.meter.merge(&child.meter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Placement;

    fn net(n: usize) -> Network {
        let topo = Topology::generate(n, &Placement::Uniform { side: 50.0 }, 1);
        let link = LinkModel::quiet();
        Network::new(topo, link)
    }

    #[test]
    fn send_meters_and_returns_delay() {
        let mut net = net(4);
        let outcome = net.send(NodeId::new(0), NodeId::new(1), MessageKind::Vote, 100);
        assert!(outcome.delay().is_some());
        assert_eq!(net.meter().total().messages, 1);
        assert_eq!(net.meter().total().bytes, 100);
    }

    #[test]
    fn crashed_sender_transmits_nothing() {
        let mut net = net(4);
        net.crash(NodeId::new(0));
        let outcome = net.send(NodeId::new(0), NodeId::new(1), MessageKind::Vote, 100);
        assert_eq!(outcome, SendOutcome::SenderDown);
        assert_eq!(net.meter().total().messages, 0);
    }

    #[test]
    fn crashed_receiver_charges_sender_only() {
        let mut net = net(4);
        net.crash(NodeId::new(1));
        let outcome = net.send(NodeId::new(0), NodeId::new(1), MessageKind::Vote, 100);
        assert_eq!(outcome, SendOutcome::ReceiverDown);
        assert!(outcome.delay().is_none());
        assert_eq!(net.meter().total().messages, 1);
    }

    #[test]
    fn recovery_restores_delivery() {
        let mut net = net(4);
        net.crash(NodeId::new(1));
        net.recover(NodeId::new(1));
        assert!(net.is_up(NodeId::new(1)));
        assert!(net
            .send(NodeId::new(0), NodeId::new(1), MessageKind::Vote, 1)
            .delay()
            .is_some());
    }

    #[test]
    fn live_nodes_excludes_crashed() {
        let mut net = net(5);
        net.crash(NodeId::new(2));
        net.crash(NodeId::new(4));
        assert_eq!(
            net.live_nodes(),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]
        );
        assert_eq!(net.down_count(), 2);
    }

    #[test]
    fn join_grows_the_network() {
        let mut net = net(3);
        let id = net.join(Coord::new(1.0, 1.0));
        assert_eq!(id, NodeId::new(3));
        assert_eq!(net.len(), 4);
        assert!(net.is_up(id));
        assert!(net
            .send(id, NodeId::new(0), MessageKind::Bootstrap, 10)
            .delay()
            .is_some());
    }

    #[test]
    fn a_stream_reads_liveness_as_it_is_when_it_sends() {
        let mut net = net(6);
        let mut stream = net.stream(0);
        net.advance_stream();
        net.crash(NodeId::new(2));
        let outcome = net.on_stream(&mut stream, |net| {
            net.send(NodeId::new(0), NodeId::new(2), MessageKind::Vote, 8)
        });
        assert_eq!(outcome, SendOutcome::ReceiverDown);
        net.recover(NodeId::new(2));
        let outcome = net.on_stream(&mut stream, |net| {
            net.send(NodeId::new(0), NodeId::new(2), MessageKind::Vote, 8)
        });
        assert!(outcome.delay().is_some());
    }

    #[test]
    fn liveness_covers_ids_the_topology_does_not_hold_yet() {
        let mut net = net(3);
        let later = NodeId::new(70);
        assert!(net.is_up(later), "unknown ids are not crashed");
        net.crash(later);
        net.crash(later);
        assert!(!net.is_up(later) && net.is_up(NodeId::new(69)));
        assert_eq!(net.down_count(), 1);
        let joined = net.join(Coord::new(2.0, 2.0));
        assert_eq!(joined, NodeId::new(3));
        assert!(net.is_up(joined));
        net.crash(joined);
        assert_eq!(net.down_count(), 2);
        net.recover(later);
        net.recover(later);
        net.recover(joined);
        assert_eq!(net.down_count(), 0);
        assert_eq!(net.live_nodes().len(), 4);
    }

    #[test]
    fn streams_are_deterministic_and_independent() {
        let jittery = {
            let topo = Topology::generate(6, &Placement::Uniform { side: 50.0 }, 7);
            Network::new(topo, LinkModel::default())
        };
        let replay = |id: u64| {
            let mut net = jittery.clone();
            let mut outer = net.stream(id);
            net.on_stream(&mut outer, |net| {
                let mut delays = Vec::new();
                let mut streams: Vec<Stream> = (0..4).map(|s| net.stream(s)).collect();
                net.advance_stream();
                for stream in &mut streams {
                    net.on_stream(stream, |net| {
                        for dest in 1..6 {
                            let out =
                                net.send(NodeId::new(0), NodeId::new(dest), MessageKind::Vote, 8);
                            delays.push(out.delay());
                        }
                    });
                }
                delays
            })
        };
        assert_eq!(
            replay(99),
            replay(99),
            "same stream id must replay identically"
        );
        assert_ne!(
            replay(99),
            replay(100),
            "distinct streams should decorrelate jitter"
        );
    }

    #[test]
    fn on_stream_charges_the_one_meter_and_restores_the_position() {
        let mut net = net(4);
        net.send(NodeId::new(0), NodeId::new(1), MessageKind::Vote, 10);
        let mut stream = net.stream(0);
        net.advance_stream();
        let position = net.next_send_trace_id();
        let first = net.on_stream(&mut stream, |net| {
            let id = net.next_send_trace_id();
            net.send(NodeId::new(1), NodeId::new(2), MessageKind::Vote, 20);
            net.send(NodeId::new(2), NodeId::new(3), MessageKind::BlockFull, 30);
            id
        });
        assert_eq!(net.meter().total().messages, 3);
        assert_eq!(net.meter().total().bytes, 60);
        assert_eq!(
            net.next_send_trace_id(),
            position,
            "the network's own position"
        );
        let next = net.on_stream(&mut stream, |net| net.next_send_trace_id());
        assert_ne!(next, first, "the stream moved past its two sends");
    }

    #[test]
    fn installed_faults_drop_and_duplicate_deterministically() {
        use crate::faults::{FaultConfig, MessageFaultSpec};
        let run = || {
            let mut net = net(4);
            net.set_faults(FaultConfig {
                seed: 5,
                messages: MessageFaultSpec {
                    drop_prob: 0.4,
                    dup_prob: 0.3,
                    delay_prob: 0.2,
                    max_extra_delay_ms: 25.0,
                },
                partition: None,
            });
            let outcomes: Vec<SendOutcome> = (0..200)
                .map(|_| net.send(NodeId::new(0), NodeId::new(1), MessageKind::Vote, 64))
                .collect();
            (outcomes, net.meter().total().messages)
        };
        let (a, messages_a) = run();
        let (b, messages_b) = run();
        assert_eq!(a, b, "fault stream must be replayable");
        assert_eq!(messages_a, messages_b);
        let drops = a.iter().filter(|o| **o == SendOutcome::Dropped).count();
        assert!(drops > 0, "no drops at 40% loss");
        // Duplicates meter extra copies: more metered messages than sends
        // that charged the uplink.
        assert!(messages_a > 200 - drops as u64);
    }

    #[test]
    fn partition_blocks_cross_group_traffic_until_cleared() {
        use crate::faults::{FaultConfig, PartitionSpec};
        let mut net = net(4);
        net.set_faults(FaultConfig {
            partition: Some(PartitionSpec::split(4, &[NodeId::new(3)])),
            ..FaultConfig::default()
        });
        assert_eq!(
            net.send(NodeId::new(0), NodeId::new(3), MessageKind::Vote, 10),
            SendOutcome::Dropped
        );
        assert!(net
            .send(NodeId::new(0), NodeId::new(1), MessageKind::Vote, 10)
            .delay()
            .is_some());
        net.clear_faults();
        assert!(net.faults().is_none());
        assert!(net
            .send(NodeId::new(0), NodeId::new(3), MessageKind::Vote, 10)
            .delay()
            .is_some());
    }

    #[test]
    fn inert_fault_config_is_not_installed() {
        use crate::faults::FaultConfig;
        let mut net = net(2);
        net.set_faults(FaultConfig::default());
        assert!(net.faults().is_none());
        assert!(net
            .send(NodeId::new(0), NodeId::new(1), MessageKind::Vote, 10)
            .delay()
            .is_some());
    }

    #[test]
    fn traced_sends_emit_causal_events() {
        ici_trace::reset();
        ici_trace::set_enabled(true);
        let mut net = net(4);
        // Default context: tracing on, but sends not opted in.
        net.send(NodeId::new(0), NodeId::new(1), MessageKind::Vote, 8);
        assert!(ici_trace::snapshot().events.is_empty());
        net.set_trace_ctx(ici_trace::SendCtx {
            sends: true,
            at_us: 500,
            height: 3,
            cluster: Some(2),
            parent: 77,
        });
        let expected_id = net.next_send_trace_id();
        let outcome = net.send(NodeId::new(0), NodeId::new(1), MessageKind::BlockFull, 64);
        ici_trace::set_enabled(false);
        let snap = ici_trace::snapshot();
        ici_trace::reset();
        assert_eq!(snap.events.len(), 1);
        let event = &snap.events[0];
        assert_eq!(event.kind, ici_trace::TraceKind::Send);
        assert_eq!(event.name, MessageKind::BlockFull.name());
        assert_eq!(event.at_us, 500);
        assert_eq!(event.dur_us, outcome.delay().map_or(0, Duration::as_micros));
        assert_eq!((event.node, event.peer), (Some(0), Some(1)));
        assert_eq!((event.height, event.cluster), (3, Some(2)));
        assert_eq!(event.bytes, 64);
        assert_eq!(event.parent, 77);
        assert_eq!(event.id, expected_id, "id is precomputable by the sender");
    }

    #[test]
    fn streams_carry_the_trace_context() {
        let mut net = net(4);
        let ctx = ici_trace::SendCtx {
            sends: true,
            at_us: 9,
            height: 1,
            cluster: Some(0),
            parent: 5,
        };
        net.set_trace_ctx(ctx);
        let mut stream = net.stream(3);
        assert_eq!(net.on_stream(&mut stream, |net| net.trace_ctx()), ctx);
        let inner = ici_trace::SendCtx { parent: 6, ..ctx };
        net.on_stream(&mut stream, |net| net.set_trace_ctx(inner));
        assert_eq!(net.trace_ctx(), ctx, "the network keeps its own context");
        assert_eq!(net.on_stream(&mut stream, |net| net.trace_ctx()), inner);
    }

    #[test]
    fn bigger_payloads_take_longer() {
        let mut net = net(2);
        let small = net
            .send(
                NodeId::new(0),
                NodeId::new(1),
                MessageKind::BlockBody,
                1_000,
            )
            .delay()
            .expect("delivered");
        let big = net
            .send(
                NodeId::new(0),
                NodeId::new(1),
                MessageKind::BlockBody,
                1_000_000,
            )
            .delay()
            .expect("delivered");
        assert!(big > small);
    }
}
