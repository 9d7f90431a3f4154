//! **E2 / Fig. storage-sweep — per-node storage vs cluster size and
//! replication.**
//!
//! "Reducing the amount data that each participate need to store": the
//! per-node footprint under ICIStrategy is `headers + (r/c)·bodies`. The
//! sweep varies cluster size `c` and replication `r` at fixed N and chain,
//! reporting measured mean/max per-node storage, the analytic prediction,
//! and the storage-balance ratio (max/mean — how evenly the assignment
//! spreads bodies).
//!
//! Run: `cargo run --release -p ici-bench -- e2 [--paper]`

use ici_baselines::analytic::{ici_per_node, LedgerShape};
use ici_bench::{block_count, ici_config, standard_workload, txs_per_block, Report, Scale};
use ici_chain::block::BlockHeader;
use ici_sim::runner::run_ici;
use ici_sim::table::Table;
use ici_storage::stats::format_bytes;

pub fn run(scale: Scale) -> Report {
    let n = match scale {
        Scale::Small => 256,
        Scale::Paper => 2_048,
    };
    let blocks = block_count(scale);
    let txs = txs_per_block(scale);

    let cluster_sizes: Vec<usize> = match scale {
        Scale::Small => vec![8, 16, 32, 64],
        Scale::Paper => vec![16, 32, 64, 128],
    };
    let replications = [1usize, 2, 3];

    let mut table = Table::new(
        format!("E2: ICI per-node storage sweep, N={n}, {blocks} blocks x {txs} txs"),
        [
            "c",
            "r",
            "mean/node",
            "max/node",
            "analytic mean",
            "fraction of ledger",
            "balance (max/mean)",
        ],
    );

    for &c in &cluster_sizes {
        for &r in &replications {
            if r > c {
                continue;
            }
            let (network, summary) =
                run_ici(ici_config(n, c, r, 11), blocks, txs, standard_workload(11));
            // Analytic prediction with the *actual* measured ledger shape.
            let chain_blocks = network.chain_len();
            let mean_body = if chain_blocks > 0 {
                (network.full_replica_bytes() - chain_blocks * BlockHeader::ENCODED_LEN as u64)
                    / chain_blocks
            } else {
                0
            };
            let predicted = ici_per_node(
                LedgerShape {
                    blocks: chain_blocks,
                    mean_body_bytes: mean_body,
                },
                c,
                r,
            );
            table.row([
                c.to_string(),
                r.to_string(),
                format_bytes(summary.storage.mean as u64),
                format_bytes(summary.storage.max),
                format_bytes(predicted as u64),
                format!("{:.4}", summary.storage_fraction()),
                format!("{:.2}", summary.storage.balance_ratio()),
            ]);
        }
    }

    Report {
        id: "E2",
        title: "ICI per-node storage vs cluster size and replication",
        params: format!("scale={scale:?}, N={n}, blocks={blocks}, txs/block={txs}"),
        tables: vec![table],
        closing: None,
    }
}
