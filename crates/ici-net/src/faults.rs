//! Deterministic message-fault injection on the send path.
//!
//! Real wide-area links lose, duplicate, delay, and reorder packets, and
//! real deployments partition. The simulator models all four with a
//! [`FaultConfig`] installed on the [`Network`](crate::network::Network):
//! every send consults [`FaultConfig::decide`], which derives its verdict
//! *only* from `(seed, from, to, seq)` through a SplitMix64 mix — the same
//! seed therefore produces the same fault pattern on every run, on every
//! platform. Reordering falls out of delay: an extra transit delay on one
//! message lets a later message overtake it in the event queue.
//!
//! The higher-level churn machinery (crash schedules, cluster-correlated
//! failures, partition windows) lives in the `ici-faults` crate; this
//! module is only the per-message hook it drives.

use ici_rng::SplitMix64;

use crate::node::NodeId;
use crate::time::Duration;

/// The per-message verdict of the injector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendFault {
    /// Deliver the message, possibly late and possibly more than once.
    Deliver {
        /// Extra transit delay on top of the link model (0 for on-time).
        extra_delay: Duration,
        /// Total transmitted copies (1 = no duplication). Every copy is
        /// metered on the sender's uplink.
        copies: u32,
    },
    /// The message is lost in flight (random loss or a severed partition
    /// edge). The sender's bytes are still metered — they left the uplink.
    Drop,
}

/// A network partition: nodes are assigned to groups and messages between
/// different groups are severed.
///
/// Nodes beyond the end of the group vector (e.g. late joiners) default to
/// group 0, so a partition installed before a join degrades gracefully.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PartitionSpec {
    groups: Vec<u8>,
}

impl PartitionSpec {
    /// Splits `nodes` into two groups: members of `minority` against the
    /// rest.
    pub fn split(nodes: usize, minority: &[NodeId]) -> PartitionSpec {
        let mut groups = vec![0u8; nodes];
        for node in minority {
            if let Some(slot) = groups.get_mut(node.index()) {
                *slot = 1;
            }
        }
        PartitionSpec { groups }
    }

    /// The group `node` belongs to.
    pub fn group_of(&self, node: NodeId) -> u8 {
        self.groups.get(node.index()).copied().unwrap_or(0)
    }

    /// Whether the partition severs the `a → b` edge.
    pub fn severs(&self, a: NodeId, b: NodeId) -> bool {
        self.group_of(a) != self.group_of(b)
    }
}

/// Message-fault probabilities, all in `[0, 1]`: the profile a fault
/// plan installs on the send path every round, under a fresh seed. The
/// [`Default`] faults nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MessageFaultSpec {
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is transmitted twice.
    pub dup_prob: f64,
    /// Probability a delivered message is delayed (and thereby reordered
    /// past later traffic).
    pub delay_prob: f64,
    /// Maximum extra delay in milliseconds (uniform in `[0, max)`).
    pub max_extra_delay_ms: f64,
}

impl MessageFaultSpec {
    /// Whether the spec can never fault a message.
    pub fn is_inert(&self) -> bool {
        self.drop_prob <= 0.0
            && self.dup_prob <= 0.0
            && (self.delay_prob <= 0.0 || self.max_extra_delay_ms <= 0.0)
    }
}

/// What the send path consults: a [`MessageFaultSpec`] under a seed, and
/// the partition open, if any.
///
/// A zeroed config (the [`Default`]) injects nothing; installing it is
/// equivalent to clearing faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Seed for the per-message fault stream.
    pub seed: u64,
    /// The loss, duplication and delay probabilities.
    pub messages: MessageFaultSpec,
    /// Active partition, if any; cross-group messages are dropped.
    pub partition: Option<PartitionSpec>,
}

/// Turns the top 53 bits of a word into a uniform `f64` in `[0, 1)` —
/// the same conversion `ici-rng` uses, duplicated here so a fault stream
/// never perturbs any other random stream.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultConfig {
    /// Whether this config can ever inject a fault.
    pub fn is_inert(&self) -> bool {
        self.messages.is_inert() && self.partition.is_none()
    }

    /// The injector's verdict for the `seq`-th message on `from → to`.
    ///
    /// Deterministic in `(seed, from, to, seq)`: the link and the position
    /// in the global send order fully decide the fault, so identical runs
    /// replay identical fault patterns.
    pub fn decide(&self, from: NodeId, to: NodeId, seq: u64) -> SendFault {
        if let Some(partition) = &self.partition {
            if partition.severs(from, to) {
                return SendFault::Drop;
            }
        }
        // One SplitMix64 stream per message, keyed by the message identity.
        let key = self
            .seed
            .wrapping_add(from.get().wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(to.get().wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seq.wrapping_mul(0x94D0_49BB_1331_11EB));
        let mut stream = SplitMix64::new(key);
        let spec = &self.messages;
        if spec.drop_prob > 0.0 && unit_f64(stream.next_u64()) < spec.drop_prob {
            return SendFault::Drop;
        }
        let copies = if spec.dup_prob > 0.0 && unit_f64(stream.next_u64()) < spec.dup_prob {
            2
        } else {
            1
        };
        let extra_delay = if spec.delay_prob > 0.0
            && spec.max_extra_delay_ms > 0.0
            && unit_f64(stream.next_u64()) < spec.delay_prob
        {
            Duration::from_millis_f64(unit_f64(stream.next_u64()) * spec.max_extra_delay_ms)
        } else {
            Duration::ZERO
        };
        SendFault::Deliver {
            extra_delay,
            copies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            messages: MessageFaultSpec {
                drop_prob: 0.3,
                dup_prob: 0.2,
                delay_prob: 0.25,
                max_extra_delay_ms: 40.0,
            },
            partition: None,
        }
    }

    #[test]
    fn default_config_is_inert_and_delivers_everything() {
        let config = FaultConfig::default();
        assert!(config.is_inert());
        for seq in 0..100 {
            assert_eq!(
                config.decide(NodeId::new(0), NodeId::new(1), seq),
                SendFault::Deliver {
                    extra_delay: Duration::ZERO,
                    copies: 1
                }
            );
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a: Vec<SendFault> = (0..200)
            .map(|seq| lossy(7).decide(NodeId::new(1), NodeId::new(2), seq))
            .collect();
        let b: Vec<SendFault> = (0..200)
            .map(|seq| lossy(7).decide(NodeId::new(1), NodeId::new(2), seq))
            .collect();
        let c: Vec<SendFault> = (0..200)
            .map(|seq| lossy(8).decide(NodeId::new(1), NodeId::new(2), seq))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn loss_rate_tracks_the_probability() {
        let config = lossy(3);
        let trials = 20_000;
        let drops = (0..trials)
            .filter(|seq| config.decide(NodeId::new(0), NodeId::new(9), *seq) == SendFault::Drop)
            .count();
        let rate = drops as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn duplicates_and_delays_appear() {
        let config = lossy(11);
        let mut dups = 0;
        let mut late = 0;
        for seq in 0..2_000 {
            if let SendFault::Deliver {
                extra_delay,
                copies,
            } = config.decide(NodeId::new(4), NodeId::new(5), seq)
            {
                if copies > 1 {
                    dups += 1;
                }
                if extra_delay > Duration::ZERO {
                    late += 1;
                    assert!(extra_delay < Duration::from_millis_f64(40.0));
                }
            }
        }
        assert!(dups > 0, "no duplicates in 2000 messages");
        assert!(late > 0, "no delays in 2000 messages");
    }

    #[test]
    fn partition_severs_cross_group_edges_only() {
        let partition = PartitionSpec::split(6, &[NodeId::new(4), NodeId::new(5)]);
        let config = FaultConfig {
            partition: Some(partition),
            ..FaultConfig::default()
        };
        assert!(!config.is_inert());
        // Within the majority: delivered.
        assert!(matches!(
            config.decide(NodeId::new(0), NodeId::new(1), 0),
            SendFault::Deliver { .. }
        ));
        // Within the minority: delivered.
        assert!(matches!(
            config.decide(NodeId::new(4), NodeId::new(5), 1),
            SendFault::Deliver { .. }
        ));
        // Across: dropped, both directions.
        assert_eq!(
            config.decide(NodeId::new(0), NodeId::new(4), 2),
            SendFault::Drop
        );
        assert_eq!(
            config.decide(NodeId::new(5), NodeId::new(1), 3),
            SendFault::Drop
        );
    }

    #[test]
    fn unknown_nodes_default_to_group_zero() {
        let partition = PartitionSpec::split(4, &[NodeId::new(3)]);
        // Node 9 is beyond the partition's knowledge: group 0.
        assert_eq!(partition.group_of(NodeId::new(9)), 0);
        assert!(partition.severs(NodeId::new(9), NodeId::new(3)));
        assert!(!partition.severs(NodeId::new(9), NodeId::new(0)));
    }
}
