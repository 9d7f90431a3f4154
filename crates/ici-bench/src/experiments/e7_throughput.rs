//! **E7 / Table II — throughput and commit latency vs network size.**
//!
//! "Improve the blockchain performance": ICIStrategy commits with one
//! low-latency intra-cluster BFT round plus leader-relayed cluster
//! verification, against full-replication flood-and-validate-everywhere.
//! RapidChain trades per-shard latency for shard-parallel throughput, so
//! it leads on raw tps while losing on storage (E1) — the honest shape of
//! the comparison.
//!
//! Run: `cargo run --release -p ici-bench -- e7 [--paper]`

use ici_bench::{
    block_count, cluster_size, committee_size, compare_strategies, network_sizes, txs_per_block,
    Report, Scale,
};
use ici_sim::table::{fmt_f64, Table};

pub fn run(scale: Scale) -> Report {
    let blocks = block_count(scale);
    let txs = txs_per_block(scale);
    let c = cluster_size(scale);
    let m = committee_size(scale);

    let mut table = Table::new(
        format!("E7: throughput and commit latency, {blocks} blocks x {txs} txs"),
        [
            "N",
            "strategy",
            "tps",
            "commit p50 (ms)",
            "commit p95 (ms)",
            "commit max (ms)",
        ],
    );

    for n in network_sizes(scale) {
        let (_, summaries) = compare_strategies(scale, n, 2, 17);
        for summary in &summaries {
            table.row([
                n.to_string(),
                summary.strategy.to_string(),
                fmt_f64(summary.throughput_tps),
                fmt_f64(summary.commit_latency.p50_ms),
                fmt_f64(summary.commit_latency.p95_ms),
                fmt_f64(summary.commit_latency.max_ms),
            ]);
        }
    }

    Report {
        id: "E7",
        title: "Throughput and commit latency vs network size (Table II)",
        params: format!("scale={scale:?}, c={c}, committee={m}, blocks={blocks}, txs/block={txs}"),
        tables: vec![table],
        closing: None,
    }
}
