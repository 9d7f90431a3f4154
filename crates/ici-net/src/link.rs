//! Point-to-point link model: propagation + serialization + jitter.
//!
//! Message transit time between `a` and `b` for a payload of `s` bytes is
//!
//! ```text
//! t = base + distance(a, b) + s / bandwidth + jitter
//! ```
//!
//! where `distance` comes from the latency-space [`Topology`], `bandwidth`
//! models the sender uplink, and `jitter` is deterministic pseudo-random
//! noise derived from `(from, to, sequence)` so that runs are exactly
//! reproducible.

use crate::node::NodeId;
use crate::time::Duration;
use crate::topology::Topology;

/// Parameters of the link model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Fixed per-message overhead in milliseconds (protocol stack, queuing).
    pub base_ms: f64,
    /// Sender uplink bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// Maximum jitter in milliseconds (uniform in `[0, max_jitter_ms)`).
    pub max_jitter_ms: f64,
}

impl Default for LinkModel {
    /// 1 ms overhead, 20 Mbit/s uplink, up to 2 ms jitter — a conservative
    /// WAN peer, in line with the RapidChain evaluation's bandwidth regime.
    fn default() -> LinkModel {
        LinkModel {
            base_ms: 1.0,
            bandwidth_mbps: 20.0,
            max_jitter_ms: 2.0,
        }
    }
}

impl LinkModel {
    /// The [`Default`] link without jitter: a transit is a pure function
    /// of the topology, the payload and nothing else, so experiment
    /// tables over it are exactly reproducible and a vote round on a
    /// network without faults or traced sends settles in closed form.
    pub fn quiet() -> LinkModel {
        LinkModel {
            max_jitter_ms: 0.0,
            ..LinkModel::default()
        }
    }

    /// Serialization delay for `bytes` at the configured bandwidth.
    pub fn serialization(&self, bytes: u64) -> Duration {
        let ms = (bytes as f64 * 8.0) / (self.bandwidth_mbps * 1_000.0);
        Duration::from_millis_f64(ms)
    }

    /// Deterministic jitter for the `seq`-th message on link `from → to`.
    pub fn jitter(&self, from: NodeId, to: NodeId, seq: u64) -> Duration {
        if self.max_jitter_ms <= 0.0 {
            return Duration::ZERO;
        }
        // SplitMix64 over the tuple for cheap, well-mixed noise.
        let mut z = from
            .get()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(to.get().wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seq.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_millis_f64(unit * self.max_jitter_ms)
    }

    /// Propagation plus jitter of the `seq`-th message `from → to` over
    /// `topology`: the part of [`LinkModel::transit`] that does not
    /// depend on the payload size.
    pub fn flight(&self, topology: &Topology, from: NodeId, to: NodeId, seq: u64) -> Duration {
        Duration::from_millis_f64(self.base_ms + topology.distance_ms(from, to))
            + self.jitter(from, to, seq)
    }

    /// Full transit time of the `seq`-th message `from → to` carrying
    /// `bytes`, over `topology`.
    pub fn transit(
        &self,
        topology: &Topology,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        seq: u64,
    ) -> Duration {
        self.flight(topology, from, to, seq) + self.serialization(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Coord, Placement};

    fn two_node_topology(distance: f64) -> Topology {
        Topology::from_coords(vec![Coord::new(0.0, 0.0), Coord::new(distance, 0.0)])
    }

    #[test]
    fn serialization_scales_with_bytes() {
        let model = LinkModel {
            bandwidth_mbps: 8.0, // 1 byte/µs
            ..LinkModel::default()
        };
        assert_eq!(model.serialization(1_000).as_micros(), 1_000);
        assert_eq!(model.serialization(0), Duration::ZERO);
    }

    #[test]
    fn transit_includes_all_terms() {
        let model = LinkModel {
            base_ms: 2.0,
            bandwidth_mbps: 8.0,
            max_jitter_ms: 0.0,
        };
        let topo = two_node_topology(10.0);
        let t = model.transit(&topo, NodeId::new(0), NodeId::new(1), 1_000, 0);
        // 2 ms base + 10 ms propagation + 1 ms serialization.
        assert_eq!(t.as_micros(), 13_000);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let model = LinkModel {
            max_jitter_ms: 3.0,
            ..LinkModel::default()
        };
        for seq in 0..200 {
            let j1 = model.jitter(NodeId::new(1), NodeId::new(2), seq);
            let j2 = model.jitter(NodeId::new(1), NodeId::new(2), seq);
            assert_eq!(j1, j2);
            assert!(j1.as_millis_f64() < 3.0, "seq {seq}: {j1}");
        }
    }

    #[test]
    fn jitter_varies_over_sequence() {
        let model = LinkModel {
            max_jitter_ms: 3.0,
            ..LinkModel::default()
        };
        let distinct: std::collections::HashSet<u64> = (0..50)
            .map(|seq| {
                model
                    .jitter(NodeId::new(0), NodeId::new(1), seq)
                    .as_micros()
            })
            .collect();
        assert!(
            distinct.len() > 20,
            "only {} distinct jitters",
            distinct.len()
        );
    }

    #[test]
    fn zero_jitter_configuration() {
        let model = LinkModel::quiet();
        assert_eq!(
            model.jitter(NodeId::new(0), NodeId::new(1), 9),
            Duration::ZERO
        );
    }

    #[test]
    fn self_send_costs_only_base_and_serialization() {
        let model = LinkModel {
            base_ms: 1.0,
            bandwidth_mbps: 8.0,
            max_jitter_ms: 0.0,
        };
        let topo = Topology::generate(4, &Placement::Uniform { side: 100.0 }, 0);
        let t = model.transit(&topo, NodeId::new(2), NodeId::new(2), 8_000, 0);
        assert_eq!(t.as_micros(), 1_000 + 8_000);
    }
}
