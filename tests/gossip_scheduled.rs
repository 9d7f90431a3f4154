//! How many deliveries a flood queues, read from the
//! `consensus/gossip_scheduled` counter.
//!
//! A relay sends to its whole fanout, but a delivery is queued only when
//! it arrives strictly before every one already queued for its target.
//! Every node past the origin needs one queued delivery to be reached,
//! so the count is at least the receipts less one. The pinned values are
//! what the rule leaves of the N · fanout sends at N = 512, fanout 8 on
//! quiet links: over the default regional placement, and with every
//! node at one point, where each link takes the same time and arrivals
//! tie hop by hop. One test, because the telemetry flag is
//! process-global.

use ici_consensus::gossip::{gossip_flood, GossipConfig};
use ici_net::link::LinkModel;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::SimTime;
use ici_net::topology::{Placement, Topology};

const NODES: usize = 512;

/// `(receipts, deliveries queued)` of one quiet flood from node 0 over
/// `placement`.
fn flood(placement: &Placement) -> (u64, u64) {
    let topology = Topology::generate(NODES, placement, 17);
    let mut net = Network::new(topology, LinkModel::quiet());
    let peers: Vec<NodeId> = (0..NODES as u64).map(NodeId::new).collect();
    ici_telemetry::reset();
    let receipts = gossip_flood(
        &mut net,
        &peers,
        NodeId::new(0),
        SimTime::ZERO,
        MessageKind::BlockFull,
        20_000,
        &GossipConfig::default(),
    );
    let scheduled = ici_telemetry::snapshot()
        .counters
        .iter()
        .filter(|c| c.name == "consensus/gossip_scheduled")
        .map(|c| c.value)
        .sum();
    (receipts.len() as u64, scheduled)
}

#[test]
fn a_quiet_flood_queues_only_improving_deliveries() {
    ici_telemetry::set_enabled(true);
    let floods = [
        ("regional", flood(&Placement::default())),
        ("one point", flood(&Placement::Uniform { side: 0.0 })),
    ];
    ici_telemetry::set_enabled(false);
    ici_telemetry::reset();
    for (placement, (receipts, scheduled)) in floods {
        assert!(
            scheduled + 1 >= receipts,
            "{placement}: consensus/gossip_scheduled {scheduled} < {receipts} receipts less one"
        );
    }
    let counted = floods.map(|(placement, (_, scheduled))| (placement, scheduled));
    assert_eq!(
        counted,
        [("regional", 818), ("one point", 510)],
        "consensus/gossip_scheduled: deliveries queued per flood"
    );
}
