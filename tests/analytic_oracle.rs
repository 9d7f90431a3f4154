//! The closed-form storage model against measured runs.
//!
//! For a small grid of deployments (N nodes, clusters of c with r
//! owners, RapidChain committees, blocks), ICI, full replication and
//! RapidChain each run the same workload; each strategy's mean per-node
//! storage must equal `ici_baselines::analytic`'s prediction fed that
//! run's own ledger: its block count and its mean body size. The model
//! takes the mean body in whole bytes (`LedgerShape::mean_body_bytes`),
//! rounded down, so the measured mean exceeds the prediction by the
//! dropped fraction of a byte per block times the share of bodies a
//! node stores: under one byte a block for full replication, under
//! `r/c` for ICI and under `1/k` for RapidChain's `k` shards. Nothing
//! else may separate them.

use icistrategy::baselines::analytic::{
    full_replication_per_node, ici_per_node, rapidchain_per_node,
};
use icistrategy::net::link::LinkModel;
use icistrategy::prelude::*;
use icistrategy::workload::PayloadSize;

fn workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        accounts: 96,
        payload: PayloadSize::Fixed(150),
        seed,
        ..WorkloadConfig::default()
    }
}

/// The ledger shape of `blocks`, genesis included, in the model's
/// terms, with the body bytes the rounded mean drops.
fn shape<'b>(blocks: impl Iterator<Item = &'b Block>) -> (LedgerShape, u64) {
    let (mut count, mut bodies) = (0u64, 0u64);
    for block in blocks {
        count += 1;
        bodies += u64::from(block.header().body_len);
    }
    let shape = LedgerShape {
        blocks: count,
        mean_body_bytes: bodies / count,
    };
    (shape, bodies % count)
}

fn mean(bytes: &[u64]) -> f64 {
    bytes.iter().sum::<u64>() as f64 / bytes.len() as f64
}

/// `measured` is `predicted` plus `dropped` body bytes at `share`, to
/// floating-point rounding.
fn assert_matches(what: &str, measured: f64, predicted: f64, dropped: u64, share: f64) {
    let expected = predicted + dropped as f64 * share;
    assert!(
        (measured - expected).abs() <= 1e-6 * expected,
        "{what}: measured {measured} B a node, model {predicted} B + {dropped} dropped body \
         bytes x {share} = {expected} B"
    );
}

#[test]
fn measured_per_node_storage_is_the_analytic_model() {
    // (N, c, r, committee, blocks): clusters and committees that divide
    // N, so every member stores its strategy's exact share.
    let grid = [
        (48, 8, 1, 16, 6),
        (64, 16, 2, 16, 8),
        (96, 16, 3, 32, 9),
        (128, 32, 2, 64, 4),
    ];
    for (seed, &(nodes, c, r, committee, blocks)) in grid.iter().enumerate() {
        let case = format!("N={nodes} c={c} r={r} committee={committee} blocks={blocks}");
        let seed = seed as u64 + 3;
        let txs = 12;

        let config = IciConfig::builder()
            .nodes(nodes)
            .cluster_size(c)
            .replication(r)
            .link(LinkModel::quiet())
            .seed(seed)
            .build()
            .expect("a valid deployment");
        let (ici, _) = run::<IciNetwork>(config, blocks, txs, workload(seed));
        let (ledger, dropped) = shape((0..ici.chain_len()).filter_map(|h| ici.block(h)));
        assert_matches(
            &format!("ICI ici_per_node, {case}"),
            mean(&ici.storage_bytes()),
            ici_per_node(ledger, c, r),
            dropped,
            r as f64 / c as f64,
        );

        let full_config = FullConfig {
            nodes,
            link: LinkModel::quiet(),
            seed,
            ..FullConfig::default()
        };
        let (full, _) = run::<FullReplicationNetwork>(full_config, blocks, txs, workload(seed));
        let (ledger, dropped) = shape((0..full.chain_len()).filter_map(|h| full.block(h)));
        assert_matches(
            &format!("full_replication_per_node, {case}"),
            full.storage_bytes_per_node() as f64,
            full_replication_per_node(ledger),
            dropped,
            1.0,
        );

        let rapid_config = RapidChainConfig {
            nodes,
            committee_size: committee,
            link: LinkModel::quiet(),
            seed,
            ..RapidChainConfig::default()
        };
        let k = nodes / committee;
        let (rapid, _) =
            run::<RapidChainNetwork>(rapid_config, blocks / k + 1, txs, workload(seed));
        assert_eq!(rapid.shard_count(), k, "shards, {case}");
        let rapid = &rapid;
        let shard_blocks = (0..k).flat_map(|shard| {
            (0..rapid.shard_chain_len(shard)).filter_map(move |h| rapid.shard_block(shard, h))
        });
        let (ledger, dropped) = shape(shard_blocks);
        assert_matches(
            &format!("rapidchain_per_node, {case}"),
            mean(&rapid.storage_bytes()),
            rapidchain_per_node(ledger, nodes, committee),
            dropped,
            1.0 / k as f64,
        );
    }
}
