//! **E9 (ablation) — block→owner assignment strategies.**
//!
//! `DESIGN.md` calls out the assignment as a design choice: rendezvous
//! hashing (default) vs a consistent-hash ring vs round-robin striping.
//! This ablation quantifies the trade-off on three axes:
//!
//! * **balance** — how evenly a chain's bodies spread over members;
//! * **churn disruption** — the fraction of blocks whose owner set gains a
//!   new node when one member leaves (optimal is `r/c`);
//! * **migration cost** — bytes a live network moves when one node joins
//!   (measured end-to-end through the bootstrap protocol).
//!
//! Run: `cargo run --release -p ici-bench -- e9 [--paper]`

use ici_bench::{ici_builder, standard_workload, Report, Scale};
use ici_cluster::membership::JoinPolicy;
use ici_core::config::Assignment;
use ici_core::network::IciNetwork;
use ici_crypto::sha256::{Digest, Sha256};
use ici_net::node::NodeId;
use ici_net::topology::Coord;
use ici_sim::runner;
use ici_sim::table::Table;
use ici_storage::assignment::{churn_disruption, ownership_histogram};
use ici_storage::stats::format_bytes;

const STRATEGIES: [Assignment; 3] = [
    Assignment::Rendezvous,
    Assignment::Ring,
    Assignment::RoundRobin,
];

pub fn run(scale: Scale) -> Report {
    let c = match scale {
        Scale::Small => 16usize,
        Scale::Paper => 64,
    };
    let r = 2usize;
    let chain_blocks = 2_000u64;

    // Axis 1 & 2: pure assignment properties over a synthetic chain.
    let members: Vec<NodeId> = (0..c as u64).map(NodeId::new).collect();
    let block_ids: Vec<(Digest, u64)> = (0..chain_blocks)
        .map(|h| (Sha256::digest(&h.to_be_bytes()), h))
        .collect();

    let mut properties = Table::new(
        format!("E9: assignment properties, c={c}, r={r}, {chain_blocks} blocks"),
        [
            "strategy",
            "min owned",
            "max owned",
            "max/ideal",
            "churn disruption",
            "optimal disruption",
        ],
    );
    let ideal = chain_blocks as f64 * r as f64 / c as f64;
    for assignment in STRATEGIES {
        let hist = ownership_histogram(assignment, &block_ids, &members, r);
        let min = hist.values().min().copied().unwrap_or(0);
        let max = hist.values().max().copied().unwrap_or(0);
        let disruption = churn_disruption(
            assignment,
            &block_ids,
            &members,
            NodeId::new(c as u64 / 2),
            r,
        );
        properties.row([
            assignment.name().to_string(),
            min.to_string(),
            max.to_string(),
            format!("{:.2}", max as f64 / ideal),
            format!("{disruption:.3}"),
            format!("{:.3}", r as f64 / c as f64),
        ]);
    }

    // Axis 3: end-to-end join cost on a live network under each strategy.
    let mut migration = Table::new(
        "E9 (measured): one join on a live network (N=128, 30 blocks)",
        [
            "strategy",
            "joiner downloaded",
            "replicas pruned",
            "join duration (ms)",
        ],
    );
    for assignment in STRATEGIES {
        let (mut network, _) = runner::run::<IciNetwork>(
            ici_builder(128, c, r, 33)
                .assignment(assignment)
                .build()
                .expect("valid configuration"),
            30,
            30,
            standard_workload(33),
        );
        let report = network
            .bootstrap_node(Coord::new(50.0, 50.0), JoinPolicy::NearestCentroid)
            .expect("join succeeds");
        migration.row([
            assignment.name().to_string(),
            format_bytes(report.total_bytes()),
            report.pruned_bodies.to_string(),
            format!("{:.1}", report.duration.as_millis_f64()),
        ]);
    }

    Report {
        id: "E9",
        title: "Ablation: block-to-owner assignment strategies",
        params: format!("scale={scale:?}, c={c}, r={r}, chain={chain_blocks} synthetic blocks"),
        tables: vec![properties, migration],
        closing: None,
    }
}
