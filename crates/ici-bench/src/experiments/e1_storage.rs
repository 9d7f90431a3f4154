//! **E1 / Table I — per-node storage vs network size.**
//!
//! Reproduces the abstract's headline: "our strategy just needs 25% of
//! storage space needed by Rapidchain". For each network size the three
//! strategies run the same workload; the table reports measured mean
//! per-node storage, its fraction of one full ledger replica, and the
//! ICI/RapidChain ratio. A second table evaluates the closed-form model at
//! the exact paper-scale parameters (N = 4000, committees of 250,
//! clusters of 64, r = 1, 10k blocks of 1 MB).
//!
//! Run: `cargo run --release -p ici-bench -- e1 [--paper]`

use ici_baselines::analytic::{
    full_replication_per_node, ici_per_node, ici_to_rapidchain_ratio, rapidchain_per_node,
    LedgerShape,
};
use ici_bench::{
    block_count, cluster_size, committee_size, compare_strategies, network_sizes, txs_per_block,
    Report, Scale,
};
use ici_sim::table::{fmt_f64, Table};
use ici_storage::stats::format_bytes;

pub fn run(scale: Scale) -> Report {
    let blocks = block_count(scale);
    let txs = txs_per_block(scale);
    let c = cluster_size(scale);
    let m = committee_size(scale);
    let r = 1usize;

    let mut measured = Table::new(
        format!("E1 (measured): per-node storage, {blocks} blocks x {txs} txs, r={r}"),
        [
            "N",
            "strategy",
            "mean/node",
            "max/node",
            "fraction of ledger",
            "ICI/Rapid",
        ],
    );

    for n in network_sizes(scale) {
        let (_, summaries) = compare_strategies(scale, n, r, 7);
        let [_, rapid, ici] = &summaries;
        let ratio = ici.storage_fraction() / rapid.storage_fraction();
        for summary in &summaries {
            let is_ici = summary.strategy == "ICIStrategy";
            measured.row([
                n.to_string(),
                summary.strategy.clone(),
                format_bytes(summary.storage.mean as u64),
                format_bytes(summary.storage.max),
                format!("{:.4}", summary.storage_fraction()),
                if is_ici {
                    format!("{:.3}", ratio)
                } else {
                    String::new()
                },
            ]);
        }
    }

    // Analytic table at the exact paper-scale parameters.
    let shape = LedgerShape {
        blocks: 10_000,
        mean_body_bytes: 1_000_000,
    };
    let mut analytic = Table::new(
        "E1 (analytic): paper-scale parameters, 10k blocks x 1 MB",
        ["config", "per-node storage", "fraction", "ICI/Rapid"],
    );
    let full_b = full_replication_per_node(shape);
    let rapid_b = rapidchain_per_node(shape, 4_000, 250);
    let ici_b = ici_per_node(shape, 64, 1);
    let ratio = ici_to_rapidchain_ratio(shape, 4_000, 250, 64, 1);
    analytic.row([
        "FullReplication (N=4000)".to_string(),
        format_bytes(full_b as u64),
        "1.0000".to_string(),
        String::new(),
    ]);
    analytic.row([
        "RapidChain (committees of 250 => 16 shards)".to_string(),
        format_bytes(rapid_b as u64),
        format!("{:.4}", rapid_b / full_b),
        String::new(),
    ]);
    analytic.row([
        "ICIStrategy (c=64, r=1)".to_string(),
        format_bytes(ici_b as u64),
        format!("{:.4}", ici_b / full_b),
        fmt_f64(ratio),
    ]);

    Report {
        id: "E1",
        title: "Per-node storage vs network size (Table I)",
        params: format!(
            "scale={scale:?}, c={c}, committee={m}, r={r}, blocks={blocks}, txs/block={txs}"
        ),
        tables: vec![measured, analytic],
        closing: Some(format!(
            "Headline check: ICI/RapidChain analytic ratio at paper parameters = {ratio:.3} (abstract claims 0.25)"
        )),
    }
}
