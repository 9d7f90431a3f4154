//! **E4 / Fig. bootstrap — joining-node download vs chain length.**
//!
//! "The ICIStrategy could greatly save the overhead of bootstrapping": a
//! joiner downloads all headers plus only its assigned `≈ r/c` share of
//! bodies, vs the full ledger (full replication) or the full shard
//! (RapidChain). The figure data sweeps chain length and reports bytes
//! downloaded and simulated transfer time for each strategy.
//!
//! Run: `cargo run --release -p ici-bench -- e4 [--paper]`

use ici_baselines::analytic::bootstrap as analytic_bootstrap;
use ici_baselines::analytic::LedgerShape;
use ici_bench::{
    cluster_size, committee_size, full_config, ici_config, rapidchain_config, standard_workload,
    Report, Scale,
};
use ici_cluster::membership::JoinPolicy;
use ici_net::topology::Coord;
use ici_sim::runner::{run_full, run_ici, run_rapidchain};
use ici_sim::table::Table;
use ici_storage::stats::format_bytes;

pub fn run(scale: Scale) -> Report {
    let n = match scale {
        Scale::Small => 256,
        Scale::Paper => 1_000,
    };
    let c = cluster_size(scale);
    let m = committee_size(scale);
    let txs = 40;
    let chain_lengths: Vec<usize> = match scale {
        Scale::Small => vec![10, 25, 50, 100],
        Scale::Paper => vec![50, 100, 200],
    };

    let mut measured = Table::new(
        format!("E4 (measured): bootstrap download vs chain length, N={n}, r=2"),
        [
            "chain blocks",
            "strategy",
            "bytes downloaded",
            "transfer time (ms)",
            "vs full (%)",
        ],
    );

    for &blocks in &chain_lengths {
        let workload = standard_workload(9);

        // Full replication joiner.
        let (mut full_net, _) = run_full(full_config(n, 9), blocks, txs, workload);
        let (full_bytes, full_time) = full_net.bootstrap_cost();

        // RapidChain joiner (assigned to shard 0).
        let shards = n.div_ceil(m);
        let (mut rapid_net, _) = run_rapidchain(
            rapidchain_config(n, m, 9),
            (blocks / shards).max(1),
            txs,
            workload,
        );
        let (rapid_bytes, rapid_time) = rapid_net.bootstrap_cost(0);

        // ICI joiner.
        let (mut ici_net, _) = run_ici(ici_config(n, c, 2, 9), blocks, txs, workload);
        let report = ici_net
            .bootstrap_node(Coord::new(40.0, 40.0), JoinPolicy::NearestCentroid)
            .expect("join succeeds");

        for (name, bytes, time_ms) in [
            ("FullReplication", full_bytes, full_time.as_millis_f64()),
            ("RapidChain", rapid_bytes, rapid_time.as_millis_f64()),
            (
                "ICIStrategy",
                report.total_bytes(),
                report.duration.as_millis_f64(),
            ),
        ] {
            measured.row([
                blocks.to_string(),
                name.to_string(),
                format_bytes(bytes),
                format!("{time_ms:.1}"),
                format!("{:.1}%", 100.0 * bytes as f64 / full_bytes as f64),
            ]);
        }
    }

    // Analytic extrapolation to a mature chain.
    let shape = LedgerShape {
        blocks: 100_000,
        mean_body_bytes: 1_000_000,
    };
    let mut analytic = Table::new(
        "E4 (analytic): bootstrap bytes for a 100 GB ledger (100k x 1 MB)",
        ["strategy", "download", "vs full (%)"],
    );
    let full_b = analytic_bootstrap::full(shape);
    for (name, bytes) in [
        ("FullReplication", full_b),
        (
            "RapidChain (N=4000, committees of 250)",
            analytic_bootstrap::rapidchain(shape, 4_000, 250),
        ),
        (
            "ICIStrategy (c=64, r=1)",
            analytic_bootstrap::ici(shape, 64, 1),
        ),
    ] {
        analytic.row([
            name.to_string(),
            format_bytes(bytes as u64),
            format!("{:.2}%", 100.0 * bytes / full_b),
        ]);
    }

    Report {
        id: "E4",
        title: "Bootstrap overhead vs chain length",
        params: format!("scale={scale:?}, N={n}, c={c}, committee={m}, r=2"),
        tables: vec![measured, analytic],
        closing: None,
    }
}
