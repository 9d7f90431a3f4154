//! Strategy shootout: the same workload through ICIStrategy, full
//! replication, and RapidChain, side by side.
//!
//! Prints the three quantities the paper's evaluation revolves around:
//! per-node storage, traffic per block, and commit latency/throughput —
//! a miniature of experiments E1/E3/E7.
//!
//! Run with: `cargo run --release --example strategy_shootout`

use icistrategy::net::link::LinkModel;
use icistrategy::prelude::*;
use icistrategy::sim::table::{fmt_f64, Table};
use icistrategy::storage::stats::format_bytes;

fn main() {
    let nodes = 128;
    let blocks = 10;
    let txs = 30;
    let workload = WorkloadConfig {
        accounts: 128,
        ..WorkloadConfig::default()
    };
    let link = LinkModel::quiet();

    let (_, full) = run_full(
        FullConfig {
            nodes,
            link,
            seed: 5,
            ..FullConfig::default()
        },
        blocks,
        txs,
        workload,
    );
    let (_, rapid) = run_rapidchain(
        RapidChainConfig {
            nodes,
            committee_size: 32, // 4 shards
            link,
            seed: 5,
            ..RapidChainConfig::default()
        },
        blocks / 4,
        txs,
        workload,
    );
    let (_, ici) = run_ici(
        IciConfig::builder()
            .nodes(nodes)
            .cluster_size(16)
            .replication(2)
            .link(link)
            .seed(5)
            .build()
            .expect("valid configuration"),
        blocks,
        txs,
        workload,
    );

    let mut table = Table::new(
        format!("Shootout: N={nodes}, {blocks} blocks x {txs} txs"),
        [
            "strategy",
            "storage/node (mean)",
            "% of own ledger",
            "bytes/block",
            "commit p50 (ms)",
            "tps",
        ],
    );
    for s in [&full, &rapid, &ici] {
        table.row([
            s.strategy.clone(),
            format_bytes(s.storage.mean as u64),
            format!("{:.1}%", 100.0 * s.storage_fraction()),
            format_bytes(s.mean_block_bytes as u64),
            fmt_f64(s.commit_latency.p50_ms),
            fmt_f64(s.throughput_tps),
        ]);
    }
    println!("{table}");

    println!(
        "ICI stores {:.1}x less than RapidChain per node and moves {:.1}x fewer bytes \
         per block than full replication.",
        rapid.storage.mean / ici.storage.mean,
        full.mean_block_bytes / ici.mean_block_bytes,
    );
}
