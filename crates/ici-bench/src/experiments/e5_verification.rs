//! **E5 / Fig. verification — collaborative vs solo block verification.**
//!
//! "Collaboratively storing and verifying blocks": a cluster of `c`
//! members splits signature checking `c` ways; each member verifies a
//! `1/c` slice and the quorum vote certifies the whole block. This
//! experiment reports (a) the per-member CPU cost curves from the cost
//! model and (b) the *measured* intra-cluster commit latency of a PBFT
//! round under solo vs collaborative validation, as transactions per
//! block grow.
//!
//! Run: `cargo run --release -p ici-bench -- e5 [--paper]`

use ici_bench::{cluster_size, quiet_link, Report, Scale};
use ici_consensus::pbft::{run_pbft_commit, PbftInputs};
use ici_net::cost;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::SimTime;
use ici_net::topology::{Placement, Topology};
use ici_sim::table::Table;

fn commit_latency_ms(c: usize, n_txs: usize, body_bytes: u64, collaborative: bool) -> f64 {
    let topo = Topology::generate(c, &Placement::default(), 5);
    let mut net = Network::new(topo, quiet_link());
    let members: Vec<NodeId> = (0..c as u64).map(NodeId::new).collect();
    let header = 136u64;
    let report = run_pbft_commit(
        &mut net,
        PbftInputs {
            members: &members,
            leader: NodeId::new(0),
            start: SimTime::ZERO,
            payload: |_| (MessageKind::BlockFull, header + body_bytes),
            validation: |_| {
                if collaborative {
                    cost::collaborative_member_validation(n_txs, body_bytes, c)
                } else {
                    cost::solo_block_validation(n_txs, body_bytes)
                }
            },
        },
    );
    report
        .quorum_commit()
        .map(|t| t.as_micros() as f64 / 1_000.0)
        .unwrap_or(f64::NAN)
}

pub fn run(scale: Scale) -> Report {
    let c = cluster_size(scale);
    let tx_bytes = 341u64; // standard workload transaction size

    let sweep: Vec<usize> = vec![100, 500, 1_000, 2_000, 4_000];

    let mut cpu = Table::new(
        format!("E5 (model): per-member verification CPU, cluster size c={c}"),
        ["txs/block", "solo (ms)", "collaborative (ms)", "speedup"],
    );
    let mut latency = Table::new(
        format!("E5 (measured): intra-cluster commit latency, c={c}"),
        [
            "txs/block",
            "solo commit (ms)",
            "collaborative commit (ms)",
            "saved (ms)",
        ],
    );

    for &n_txs in &sweep {
        let body = n_txs as u64 * tx_bytes;
        let solo_cpu = cost::solo_block_validation(n_txs, body).as_millis_f64();
        let collab_cpu = cost::collaborative_member_validation(n_txs, body, c).as_millis_f64();
        cpu.row([
            n_txs.to_string(),
            format!("{solo_cpu:.2}"),
            format!("{collab_cpu:.2}"),
            format!("{:.1}x", solo_cpu / collab_cpu.max(1e-9)),
        ]);

        let solo_commit = commit_latency_ms(c, n_txs, body, false);
        let collab_commit = commit_latency_ms(c, n_txs, body, true);
        latency.row([
            n_txs.to_string(),
            format!("{solo_commit:.2}"),
            format!("{collab_commit:.2}"),
            format!("{:.2}", solo_commit - collab_commit),
        ]);
    }

    Report {
        id: "E5",
        title: "Collaborative vs solo verification",
        params: format!("scale={scale:?}, c={c}, tx={tx_bytes}B, sig=80us, exec=2us"),
        tables: vec![cpu, latency],
        closing: None,
    }
}
