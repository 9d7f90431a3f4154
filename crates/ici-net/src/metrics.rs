//! Byte- and message-level traffic metering.
//!
//! Every simulated send is charged here, classified by [`MessageKind`], so
//! the communication experiments (E3, E4) can report exactly where the bytes
//! went — full bodies vs headers vs votes vs repair traffic.

use std::fmt;

use crate::node::NodeId;

/// Classification of protocol traffic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MessageKind {
    /// Full block (header + body).
    BlockFull,
    /// Block body only (to responsible nodes).
    BlockBody,
    /// Block header only.
    BlockHeader,
    /// Erasure-coded shard of a block (IDA-gossip).
    BlockShard,
    /// Transaction gossip.
    Transaction,
    /// Consensus / verification vote.
    Vote,
    /// Query for a block, body, or proof.
    Query,
    /// Response carrying a body or Merkle proof.
    Response,
    /// Bootstrap download traffic.
    Bootstrap,
    /// Repair / re-replication traffic after failures.
    Repair,
    /// Membership and other control-plane messages.
    Control,
}

impl MessageKind {
    /// Stable lowercase name, as used in tables and telemetry labels.
    pub fn name(&self) -> &'static str {
        match self {
            MessageKind::BlockFull => "block-full",
            MessageKind::BlockBody => "block-body",
            MessageKind::BlockHeader => "block-header",
            MessageKind::BlockShard => "block-shard",
            MessageKind::Transaction => "transaction",
            MessageKind::Vote => "vote",
            MessageKind::Query => "query",
            MessageKind::Response => "response",
            MessageKind::Bootstrap => "bootstrap",
            MessageKind::Repair => "repair",
            MessageKind::Control => "control",
        }
    }

    /// All kinds, for table rendering.
    pub const ALL: [MessageKind; 11] = [
        MessageKind::BlockFull,
        MessageKind::BlockBody,
        MessageKind::BlockHeader,
        MessageKind::BlockShard,
        MessageKind::Transaction,
        MessageKind::Vote,
        MessageKind::Query,
        MessageKind::Response,
        MessageKind::Bootstrap,
        MessageKind::Repair,
        MessageKind::Control,
    ];
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` (not `write_str`) so `{:<12}`-style table alignment works.
        f.pad(self.name())
    }
}

/// Message/byte counters for one traffic class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    /// Messages counted.
    pub messages: u64,
    /// Payload bytes counted.
    pub bytes: u64,
}

impl Counter {
    fn add(&mut self, messages: u64, bytes: u64) {
        self.messages += messages;
        self.bytes += bytes;
    }
}

/// One node's uplink and downlink counters.
#[derive(Clone, Copy, Debug, Default)]
struct NodeCounters {
    sent: Counter,
    received: Counter,
}

/// Aggregated traffic statistics for a run.
///
/// Flat by construction: one counter per [`MessageKind`] in an array,
/// and the per-node counters in one vector indexed by node id, grown to
/// the highest id charged. A fresh meter allocates nothing; a charge is
/// one index.
#[derive(Clone, Debug, Default)]
pub struct TrafficMeter {
    by_kind: [Counter; MessageKind::ALL.len()],
    nodes: Vec<NodeCounters>,
    total: Counter,
}

impl TrafficMeter {
    /// A meter with all counters at zero.
    pub fn new() -> TrafficMeter {
        TrafficMeter::default()
    }

    /// `node`'s counters, the vector grown to hold them.
    fn node_mut(&mut self, node: NodeId) -> &mut NodeCounters {
        let at = node.index();
        if at >= self.nodes.len() {
            self.nodes.resize(at + 1, NodeCounters::default());
        }
        &mut self.nodes[at]
    }

    /// `node`'s counters, zero if it was never charged.
    fn node(&self, node: NodeId) -> NodeCounters {
        self.nodes.get(node.index()).copied().unwrap_or_default()
    }

    /// Charges one message of `bytes` payload from `from` to `to`.
    pub fn record(&mut self, from: NodeId, to: NodeId, kind: MessageKind, bytes: u64) {
        self.charge_sender(from, kind, 1, bytes);
        self.charge_receiver(to, 1, bytes);
    }

    /// The sender half of a charge: `messages` messages of `kind`
    /// totalling `bytes` left `from`'s uplink. Every message charged
    /// here must also be charged to its addressee with
    /// [`TrafficMeter::charge_receiver`]; callers that settle many
    /// same-sender messages at once use the pair to touch the sender,
    /// class and total counters once instead of once per message.
    pub fn charge_sender(&mut self, from: NodeId, kind: MessageKind, messages: u64, bytes: u64) {
        self.by_kind[kind as usize].add(messages, bytes);
        self.node_mut(from).sent.add(messages, bytes);
        self.total.add(messages, bytes);
    }

    /// The receiver half of a charge: `messages` messages totalling
    /// `bytes` were addressed to `to` (delivered or not — the meter
    /// counts what senders put on the wire).
    pub fn charge_receiver(&mut self, to: NodeId, messages: u64, bytes: u64) {
        self.node_mut(to).received.add(messages, bytes);
    }

    /// Mirrors the accumulated per-class totals into the workspace
    /// telemetry registry (`net/messages` and `net/bytes`, labelled by
    /// message class). Counters add, so call this exactly once per meter
    /// lifetime — the simulation runners do it at end of run, keeping
    /// [`TrafficMeter::record`] free of any per-send telemetry cost.
    pub fn publish_telemetry(&self) {
        if !ici_telemetry::enabled() {
            return;
        }
        for (kind, c) in self.by_kind() {
            let phase = ici_telemetry::Label::Phase(kind.name());
            ici_telemetry::counter_add("net/messages", phase, c.messages);
            ici_telemetry::counter_add("net/bytes", phase, c.bytes);
        }
    }

    /// Total over all classes.
    pub fn total(&self) -> Counter {
        self.total
    }

    /// Counter for one class.
    pub fn kind(&self, kind: MessageKind) -> Counter {
        self.by_kind[kind as usize]
    }

    /// Per-class table, ascending by kind; classes that never carried a
    /// message are absent.
    pub fn by_kind(&self) -> Vec<(MessageKind, Counter)> {
        MessageKind::ALL
            .into_iter()
            .map(|kind| (kind, self.kind(kind)))
            .filter(|(_, c)| c.messages > 0)
            .collect()
    }

    /// Bytes sent by `node`.
    pub fn sent_by(&self, node: NodeId) -> Counter {
        self.node(node).sent
    }

    /// Bytes received by `node`.
    pub fn received_by(&self, node: NodeId) -> Counter {
        self.node(node).received
    }

    /// The maximum bytes received by any single node (load hotspot).
    pub fn max_received_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|e| e.received.bytes)
            .max()
            .unwrap_or(0)
    }

    /// Resets every counter.
    pub fn reset(&mut self) {
        *self = TrafficMeter::default();
    }

    /// Folds another meter's counts into this one.
    pub fn merge(&mut self, other: &TrafficMeter) {
        for (mine, theirs) in self.by_kind.iter_mut().zip(&other.by_kind) {
            mine.add(theirs.messages, theirs.bytes);
        }
        if self.nodes.len() < other.nodes.len() {
            self.nodes
                .resize(other.nodes.len(), NodeCounters::default());
        }
        for (mine, theirs) in self.nodes.iter_mut().zip(&other.nodes) {
            mine.sent.add(theirs.sent.messages, theirs.sent.bytes);
            mine.received
                .add(theirs.received.messages, theirs.received.bytes);
        }
        self.total.add(other.total.messages, other.total.bytes);
    }
}

/// The meter this module shipped before it went flat — three ordered
/// maps, one entry call each per message — kept as the reference the
/// model tests below compare the flat layout against.
#[cfg(test)]
#[derive(Default)]
struct MapMeter {
    by_kind: std::collections::BTreeMap<MessageKind, Counter>,
    sent_by_node: std::collections::BTreeMap<NodeId, Counter>,
    received_by_node: std::collections::BTreeMap<NodeId, Counter>,
    total: Counter,
}

#[cfg(test)]
impl MapMeter {
    fn record(&mut self, from: NodeId, to: NodeId, kind: MessageKind, bytes: u64) {
        self.by_kind.entry(kind).or_default().add(1, bytes);
        self.sent_by_node.entry(from).or_default().add(1, bytes);
        self.received_by_node.entry(to).or_default().add(1, bytes);
        self.total.add(1, bytes);
    }

    fn max_received_bytes(&self) -> u64 {
        self.received_by_node
            .values()
            .map(|c| c.bytes)
            .max()
            .unwrap_or(0)
    }

    fn merge(&mut self, other: &MapMeter) {
        for (kind, c) in &other.by_kind {
            self.by_kind
                .entry(*kind)
                .or_default()
                .add(c.messages, c.bytes);
        }
        for (node, c) in &other.sent_by_node {
            self.sent_by_node
                .entry(*node)
                .or_default()
                .add(c.messages, c.bytes);
        }
        for (node, c) in &other.received_by_node {
            self.received_by_node
                .entry(*node)
                .or_default()
                .add(c.messages, c.bytes);
        }
        self.total.add(other.total.messages, other.total.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_prop::{check, Config, Shrink};

    /// One step of a model run over a parent meter and a child meter.
    #[derive(Clone, Debug)]
    enum Step {
        /// Charge one message to the child (`true`) or the parent.
        Record {
            child: bool,
            from: u64,
            to: u64,
            kind: usize,
            bytes: u64,
        },
        /// Fold the child into the parent and start a fresh child.
        Merge,
        /// Reset the parent.
        Reset,
    }

    impl Shrink for Step {
        fn shrink_candidates(&self) -> Vec<Step> {
            let Step::Record {
                child,
                from,
                to,
                kind,
                bytes,
            } = *self
            else {
                return Vec::new();
            };
            ((from, to), bytes)
                .shrink_candidates()
                .into_iter()
                .map(|((from, to), bytes)| Step::Record {
                    child,
                    from,
                    to,
                    kind,
                    bytes,
                })
                .collect()
        }
    }

    /// Every observable of the flat meter against the map meter.
    fn compare(flat: &TrafficMeter, model: &MapMeter, ids: u64) -> Result<(), String> {
        if flat.total() != model.total {
            return Err(format!("total {:?} vs {:?}", flat.total(), model.total));
        }
        for kind in MessageKind::ALL {
            let want = model.by_kind.get(&kind).copied().unwrap_or_default();
            if flat.kind(kind) != want {
                return Err(format!("{kind}: {:?} vs {want:?}", flat.kind(kind)));
            }
        }
        let table: Vec<(MessageKind, Counter)> =
            model.by_kind.iter().map(|(k, c)| (*k, *c)).collect();
        if flat.by_kind() != table {
            return Err(format!("table {:?} vs {table:?}", flat.by_kind()));
        }
        for node in (0..ids).map(NodeId::new) {
            let sent = model.sent_by_node.get(&node).copied().unwrap_or_default();
            let received = model
                .received_by_node
                .get(&node)
                .copied()
                .unwrap_or_default();
            if flat.sent_by(node) != sent || flat.received_by(node) != received {
                return Err(format!("{node}: sent/received differ"));
            }
        }
        if flat.max_received_bytes() != model.max_received_bytes() {
            return Err("max_received_bytes differs".to_string());
        }
        Ok(())
    }

    /// Random record/merge/reset sequences: the parent regularly holds
    /// ids its child never saw and the other way round, so merges go
    /// both ways across the vectors' lengths, and both meters are
    /// compared after every step.
    #[test]
    fn flat_meter_agrees_with_the_map_meter_model() {
        const IDS: u64 = 48;
        let result = check(
            "flat meter matches the map meter",
            &Config {
                seed: 0x0003_E7E2,
                cases: 96,
                ..Config::default()
            },
            |rng| {
                let len = rng.gen_range(0usize..120);
                (0..len)
                    .map(|_| match rng.gen_range(0u64..12) {
                        0 => Step::Reset,
                        1 | 2 => Step::Merge,
                        _ => Step::Record {
                            child: rng.gen_range(0u64..2) == 0,
                            from: rng.gen_range(0u64..IDS),
                            to: rng.gen_range(0u64..IDS),
                            kind: rng.gen_range(0usize..MessageKind::ALL.len()),
                            bytes: rng.gen_range(0u64..5_000),
                        },
                    })
                    .collect::<Vec<Step>>()
            },
            |steps: &Vec<Step>| {
                let (mut flat, mut model) = (TrafficMeter::new(), MapMeter::default());
                let (mut flat_child, mut model_child) = (TrafficMeter::new(), MapMeter::default());
                for step in steps {
                    match *step {
                        Step::Record {
                            child,
                            from,
                            to,
                            kind,
                            bytes,
                        } => {
                            let (from, to) = (NodeId::new(from), NodeId::new(to));
                            let kind = MessageKind::ALL[kind];
                            if child {
                                flat_child.record(from, to, kind, bytes);
                                model_child.record(from, to, kind, bytes);
                            } else {
                                flat.record(from, to, kind, bytes);
                                model.record(from, to, kind, bytes);
                            }
                        }
                        Step::Merge => {
                            flat.merge(&flat_child);
                            model.merge(&model_child);
                            flat_child = TrafficMeter::new();
                            model_child = MapMeter::default();
                        }
                        Step::Reset => {
                            flat.reset();
                            model = MapMeter::default();
                        }
                    }
                    compare(&flat, &model, IDS)?;
                    compare(&flat_child, &model_child, IDS)?;
                }
                Ok(())
            },
        );
        if let Err(failure) = result {
            panic!("{failure}");
        }
    }

    #[test]
    fn kinds_index_the_class_array_in_declaration_order() {
        for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
        }
    }

    #[test]
    fn split_charges_add_up_to_records() {
        let (a, b, c) = (NodeId::new(4), NodeId::new(9), NodeId::new(2));
        let mut recorded = TrafficMeter::new();
        for to in [b, c, c] {
            recorded.record(a, to, MessageKind::Vote, 112);
        }
        let mut charged = TrafficMeter::new();
        charged.charge_receiver(b, 1, 112);
        charged.charge_receiver(c, 2, 224);
        charged.charge_sender(a, MessageKind::Vote, 3, 336);
        assert_eq!(charged.total(), recorded.total());
        assert_eq!(charged.by_kind(), recorded.by_kind());
        for node in [a, b, c] {
            assert_eq!(charged.sent_by(node), recorded.sent_by(node));
            assert_eq!(charged.received_by(node), recorded.received_by(node));
        }
    }

    #[test]
    fn a_meter_grows_to_the_highest_id_it_charged() {
        let mut m = TrafficMeter::new();
        assert_eq!(m.nodes.capacity(), 0, "a fresh meter allocates nothing");
        m.record(NodeId::new(500), NodeId::new(7), MessageKind::Control, 1);
        assert_eq!(m.nodes.len(), 501);
        assert_eq!(m.received_by(NodeId::new(7)).bytes, 1);
        assert_eq!(m.sent_by(NodeId::new(900)), Counter::default());
    }

    #[test]
    fn record_accumulates_everywhere() {
        let mut m = TrafficMeter::new();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        m.record(a, b, MessageKind::BlockBody, 100);
        m.record(a, b, MessageKind::BlockBody, 50);
        m.record(b, a, MessageKind::Vote, 8);

        assert_eq!(
            m.total(),
            Counter {
                messages: 3,
                bytes: 158
            }
        );
        assert_eq!(
            m.kind(MessageKind::BlockBody),
            Counter {
                messages: 2,
                bytes: 150
            }
        );
        assert_eq!(
            m.kind(MessageKind::Vote),
            Counter {
                messages: 1,
                bytes: 8
            }
        );
        assert_eq!(m.kind(MessageKind::Query), Counter::default());
        assert_eq!(m.sent_by(a).bytes, 150);
        assert_eq!(m.received_by(a).bytes, 8);
        assert_eq!(m.max_received_bytes(), 150);
    }

    #[test]
    fn reset_zeroes() {
        let mut m = TrafficMeter::new();
        m.record(NodeId::new(0), NodeId::new(1), MessageKind::Control, 10);
        m.reset();
        assert_eq!(m.total(), Counter::default());
        assert!(m.by_kind().is_empty());
    }

    #[test]
    fn merge_sums_counters() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let mut m1 = TrafficMeter::new();
        m1.record(a, b, MessageKind::Query, 10);
        let mut m2 = TrafficMeter::new();
        m2.record(a, b, MessageKind::Query, 5);
        m2.record(b, a, MessageKind::Response, 100);
        m1.merge(&m2);
        assert_eq!(
            m1.kind(MessageKind::Query),
            Counter {
                messages: 2,
                bytes: 15
            }
        );
        assert_eq!(m1.total().bytes, 115);
    }

    #[test]
    fn kind_display_names_are_distinct() {
        let names: std::collections::HashSet<String> =
            MessageKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(names.len(), MessageKind::ALL.len());
    }

    #[test]
    fn kind_display_honors_width_and_alignment() {
        assert_eq!(format!("{:<12}|", MessageKind::Vote), "vote        |");
        assert_eq!(format!("{:>12}|", MessageKind::Vote), "        vote|");
        assert_eq!(format!("{:-<6}|", MessageKind::Query), "query-|");
        // Width shorter than the name must not truncate.
        assert_eq!(format!("{:2}", MessageKind::BlockHeader), "block-header");
    }

    #[test]
    fn merge_covers_all_kinds_and_node_tables() {
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let mut m1 = TrafficMeter::new();
        let mut m2 = TrafficMeter::new();
        for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
            m1.record(a, b, kind, i as u64 + 1);
            m2.record(b, c, kind, 10 * (i as u64 + 1));
        }
        m1.merge(&m2);
        for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
            assert_eq!(
                m1.kind(kind),
                Counter {
                    messages: 2,
                    bytes: 11 * (i as u64 + 1)
                },
                "kind {kind}"
            );
        }
        let n = MessageKind::ALL.len() as u64;
        assert_eq!(m1.total().messages, 2 * n);
        assert_eq!(m1.sent_by(a).messages, n);
        assert_eq!(m1.sent_by(b).messages, n);
        assert_eq!(m1.received_by(b).messages, n);
        assert_eq!(m1.received_by(c).messages, n);
        // Per-node totals agree with the grand total.
        let sent: u64 = [a, b, c].iter().map(|&x| m1.sent_by(x).bytes).sum();
        let received: u64 = [a, b, c].iter().map(|&x| m1.received_by(x).bytes).sum();
        assert_eq!(sent, m1.total().bytes);
        assert_eq!(received, m1.total().bytes);
    }

    #[test]
    fn merge_into_empty_meter_is_a_copy() {
        let (a, b) = (NodeId::new(3), NodeId::new(4));
        let mut src = TrafficMeter::new();
        src.record(a, b, MessageKind::Repair, 77);
        let mut dst = TrafficMeter::new();
        dst.merge(&src);
        assert_eq!(dst.kind(MessageKind::Repair), src.kind(MessageKind::Repair));
        assert_eq!(dst.total(), src.total());
        assert_eq!(dst.max_received_bytes(), 77);
    }

    #[test]
    fn publish_mirrors_totals_into_telemetry_registry() {
        ici_telemetry::set_enabled(true);
        ici_telemetry::reset();
        let mut m = TrafficMeter::new();
        m.record(NodeId::new(0), NodeId::new(1), MessageKind::Vote, 112);
        m.record(NodeId::new(1), NodeId::new(0), MessageKind::Vote, 112);
        m.publish_telemetry();
        let snap = ici_telemetry::snapshot();
        ici_telemetry::set_enabled(false);
        let msgs = snap
            .counters
            .iter()
            .find(|c| c.name == "net/messages" && c.label == "phase=vote")
            .expect("net/messages mirrored");
        assert_eq!(msgs.value, 2);
        let bytes = snap
            .counters
            .iter()
            .find(|c| c.name == "net/bytes" && c.label == "phase=vote")
            .expect("net/bytes mirrored");
        assert_eq!(bytes.value, 224);
    }
}
