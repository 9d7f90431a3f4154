//! Tracing sends switches a quiet network's vote rounds from the closed
//! form to the per-message exchange — and changes nothing else.
//!
//! One test per process: tracing is switched on process-wide.

use ici_consensus::pbft::{run_pbft_commit, PbftInputs, VOTE_BYTES};
use ici_net::link::LinkModel;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};
use ici_net::topology::{Placement, Topology};

fn commit(net: &mut Network, members: &[NodeId]) -> Vec<(NodeId, SimTime)> {
    run_pbft_commit(
        net,
        PbftInputs {
            members,
            leader: members[0],
            start: SimTime::from_millis(5),
            payload: |_| (MessageKind::BlockHeader, 145),
            validation: |_| Duration::from_millis(1),
        },
    )
    .commit_times
    .into_iter()
    .collect()
}

#[test]
fn traced_sends_keep_every_vote_on_the_wire() {
    // 20 members: the per-message exchange gives each voter its own
    // sequence stream.
    let members: Vec<NodeId> = (0..20).map(NodeId::new).collect();
    let quiet = || {
        let topo = Topology::generate(20, &Placement::Uniform { side: 20.0 }, 3);
        let mut net = Network::new(topo, LinkModel::quiet());
        net.crash(NodeId::new(7));
        net
    };

    let mut untraced = quiet();
    let closed = commit(&mut untraced, &members);

    ici_trace::reset();
    ici_trace::set_enabled(true);
    let mut traced = quiet();
    traced.set_trace_ctx(ici_trace::SendCtx {
        sends: true,
        ..ici_trace::SendCtx::default()
    });
    let by_message = commit(&mut traced, &members);
    ici_trace::set_enabled(false);
    let snapshot = ici_trace::snapshot();
    ici_trace::reset();

    assert_eq!(by_message, closed, "same commit instants on either path");
    assert_eq!(traced.meter().total(), untraced.meter().total());
    assert_eq!(traced.meter().by_kind(), untraced.meter().by_kind());
    for &m in &members {
        assert_eq!(traced.meter().sent_by(m), untraced.meter().sent_by(m));
        assert_eq!(
            traced.meter().received_by(m),
            untraced.meter().received_by(m)
        );
    }
    assert_eq!(
        traced.next_send_trace_id(),
        untraced.next_send_trace_id(),
        "the parent's sequence stream ends in the same place"
    );

    // 19 live voters × 19 peers × 2 rounds, one event each.
    let votes: Vec<_> = snapshot
        .events
        .iter()
        .filter(|e| e.kind == ici_trace::TraceKind::Send && e.name == MessageKind::Vote.name())
        .collect();
    assert_eq!(votes.len(), 19 * 19 * 2);
    assert!(votes.iter().all(|e| e.bytes == VOTE_BYTES));
    let mut ids: Vec<u64> = votes.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        votes.len(),
        "every vote carries its own trace id"
    );
}
