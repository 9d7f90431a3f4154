//! **E3 / Fig. communication — traffic per committed block vs network
//! size.**
//!
//! "Reduce communication overhead by collaboratively storing and verifying
//! blocks": under ICIStrategy only `r` members per cluster receive a body;
//! the rest receive headers and exchange small votes. The figure data
//! compares mean bytes and messages per committed block across strategies
//! and breaks ICI's traffic down by message class.
//!
//! Run: `cargo run --release -p ici-bench -- e3 [--paper]`

use ici_bench::{
    block_count, cluster_size, committee_size, compare_strategies, network_sizes, txs_per_block,
    Report, Scale,
};
use ici_net::metrics::MessageKind;
use ici_sim::table::{fmt_f64, Table};
use ici_storage::stats::format_bytes;

pub fn run(scale: Scale) -> Report {
    let blocks = block_count(scale);
    let txs = txs_per_block(scale);
    let c = cluster_size(scale);
    let m = committee_size(scale);

    let mut per_block = Table::new(
        format!("E3: communication per committed block, {txs} txs/block"),
        ["N", "strategy", "bytes/block", "msgs/block", "bytes/tx"],
    );
    let mut breakdown = Table::new(
        "E3 (breakdown): ICI traffic by message class (whole run)",
        ["N", "class", "messages", "bytes", "share"],
    );

    for n in network_sizes(scale) {
        let (ici_net, summaries) = compare_strategies(scale, n, 2, 3);

        for summary in &summaries {
            let per_tx = if summary.total_txs > 0 {
                summary.mean_block_bytes * summary.committed_blocks as f64
                    / summary.total_txs as f64
            } else {
                0.0
            };
            per_block.row([
                n.to_string(),
                summary.strategy.clone(),
                format_bytes(summary.mean_block_bytes as u64),
                fmt_f64(summary.mean_block_messages),
                format_bytes(per_tx as u64),
            ]);
        }

        let meter = ici_net.net().meter();
        let total = meter.total().bytes.max(1);
        for kind in MessageKind::ALL {
            let counter = meter.kind(kind);
            if counter.messages == 0 {
                continue;
            }
            breakdown.row([
                n.to_string(),
                kind.to_string(),
                counter.messages.to_string(),
                format_bytes(counter.bytes),
                format!("{:.1}%", 100.0 * counter.bytes as f64 / total as f64),
            ]);
        }
    }

    Report {
        id: "E3",
        title: "Communication overhead per block",
        params: format!("scale={scale:?}, c={c}, committee={m}, blocks={blocks}, txs/block={txs}"),
        tables: vec![per_block, breakdown],
        closing: None,
    }
}
