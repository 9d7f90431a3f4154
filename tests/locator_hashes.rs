//! What the read side hands the sixteen-lane kernel, read from the
//! `crypto/sha256_*` counters.
//!
//! A transaction locator catching up hashes every id of the new blocks
//! as one run, sixteen at a time across block boundaries: over 20
//! blocks of 40 transactions every id goes through a full group, where
//! hashing block by block leaves eight stragglers a block to the
//! one-message kernel. A join under rendezvous ranks its joiner at
//! sixteen heights per batch call. Batching changes which kernel call
//! folds a block, never how many blocks are folded. One test, because
//! the telemetry flag is process-global.

use icistrategy::chain::locator::TxLocator;
use icistrategy::prelude::*;

const TOTAL: &str = "crypto/sha256_compressions";
const BATCHED: &str = "crypto/sha256_batched_compressions";
const RANKS: &str = "crypto/rendezvous_ranks";

/// `[total, batched, ranks]` counted while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 3]) {
    icistrategy::telemetry::set_enabled(true);
    icistrategy::telemetry::reset();
    let out = f();
    let snapshot = icistrategy::telemetry::snapshot();
    let counts = [TOTAL, BATCHED, RANKS].map(|name| {
        snapshot
            .counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    });
    icistrategy::telemetry::set_enabled(false);
    icistrategy::telemetry::reset();
    (out, counts)
}

/// `blocks` blocks of `txs` transactions with 200-byte payloads
/// (linkage is irrelevant to the locator).
fn chain(blocks: u64, txs: u64) -> Vec<Block> {
    let header = BlockHeader {
        height: 0,
        parent: Digest::ZERO,
        tx_root: Digest::ZERO,
        state_root: Digest::ZERO,
        timestamp_ms: 0,
        proposer: 0,
        pow_nonce: 0,
        tx_count: 0,
        body_len: 0,
    };
    (0..blocks)
        .map(|height| {
            let batch = (0..txs)
                .map(|i| {
                    let to = Address::from_seed(i + 1);
                    Transaction::signed(&Keypair::from_seed(i), to, 5, 1, height, vec![7; 200])
                })
                .collect();
            Block::new(BlockHeader { height, ..header }, batch)
        })
        .collect()
}

#[test]
fn catch_up_and_a_join_hash_sixteen_wide_across_heights() {
    let blocks = chain(20, 40);
    let (locator, [total, batched, _]) = counted(|| {
        let mut locator = TxLocator::new();
        locator.catch_up(&blocks);
        locator
    });
    assert_eq!(locator.indexed_blocks(), 20);
    // 800 ids of a 345-byte encoding: six blocks, then the second pass.
    assert_eq!(
        total,
        800 * 7,
        "{TOTAL} moved: batching must not change what is hashed"
    );
    // 50 full groups; block by block it would be 2 of 40 a block, 4 480.
    assert_eq!(batched, 800 * 7, "{BATCHED}: ids grouped across blocks");
    for block in &blocks {
        for (i, tx) in block.transactions().iter().enumerate() {
            let found = locator.locate(&blocks, &tx.id());
            assert_eq!(found, Some((block.height(), i as u64)));
        }
    }

    // A join ranks the joiner once a height, sixteen heights a call.
    let config = IciConfig::builder()
        .nodes(64)
        .cluster_size(16)
        .replication(2)
        .seed(5)
        .build()
        .expect("valid configuration");
    let mut net = IciNetwork::new(config).expect("constructs");
    let mut workload = WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        seed: 5,
        ..WorkloadConfig::default()
    });
    for _ in 0..36 {
        net.propose_block(workload.batch(6)).expect("block commits");
    }
    let cluster = ClusterId::new(0);
    let at = net
        .membership()
        .centroid(cluster, net.net().topology())
        .expect("cluster 0 has members");
    let heights = net.chain_len();
    let (report, [_, batched, ranks]) =
        counted(|| net.bootstrap_node(at, JoinPolicy::NearestCentroid));
    assert_eq!(report.expect("joins").cluster, cluster.get());
    assert_eq!(ranks, heights, "{RANKS}: one weight a height");
    assert_eq!(
        batched,
        16 * (heights / 16),
        "{BATCHED}: {heights} heights ranked sixteen a call"
    );
}
