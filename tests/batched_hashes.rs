//! What the batched hashes hand the sixteen-lane kernel, read from the
//! `crypto/sha256_*` counters.
//!
//! One `ici_bigblock`-shaped block (1 000 transactions with 200-byte
//! payloads over 4 096 accounts) is sealed, then decoded and validated
//! the way a member that did not build it checks it. Batching changes
//! which kernel call folds a block, never how many blocks are folded:
//! the total compressions equal the per-message count, and
//! `crypto/sha256_batched_compressions` counts the ones that went
//! through full sixteen-lane groups (the same number on every host,
//! whichever kernel ran them). Then one cluster's leader lottery and
//! owner ranking, at sixteen members and at fifteen. One test, because
//! the telemetry flag is process-global.

use icistrategy::chain::builder::BlockBuilder;
use icistrategy::chain::codec::{Decode, Encode};
use icistrategy::chain::validation::validate_block;
use icistrategy::crypto::lottery::{lottery_winner, rendezvous_top};
use icistrategy::prelude::*;
use icistrategy::workload::{PayloadSize, SenderDistribution};

const TOTAL: &str = "crypto/sha256_compressions";
const BATCHED: &str = "crypto/sha256_batched_compressions";

/// `(total, batched)` compressions counted while `f` runs.
fn compressions<T>(f: impl FnOnce() -> T) -> (T, [u64; 2]) {
    icistrategy::telemetry::set_enabled(true);
    icistrategy::telemetry::reset();
    let out = f();
    let snapshot = icistrategy::telemetry::snapshot();
    let counted = [TOTAL, BATCHED].map(|name| {
        snapshot
            .counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    });
    icistrategy::telemetry::set_enabled(false);
    icistrategy::telemetry::reset();
    (out, counted)
}

#[test]
fn a_big_block_hashes_its_signatures_leaves_and_nodes_sixteen_wide() {
    let genesis_cfg = GenesisConfig::uniform(4_096, 1_000_000);
    let genesis = genesis_cfg.genesis_block();
    let state = genesis_cfg.initial_state();
    let batch = WorkloadGenerator::new(WorkloadConfig {
        accounts: 4_096,
        senders: SenderDistribution::Zipf { exponent: 1.0 },
        payload: PayloadSize::Fixed(200),
        seed: 17,
        ..WorkloadConfig::default()
    })
    .batch(1_000);

    let (block, [sealed, sealed_batched]) = compressions(|| {
        let mut builder = BlockBuilder::new(genesis.header(), state.clone(), 0, 1);
        assert_eq!(builder.fill(batch), 1_000);
        builder.seal()
    });
    let bytes = block.to_bytes();
    let (_, [checked, checked_batched]) = compressions(|| {
        let copy = Block::from_bytes(&bytes).expect("a sealed block decodes");
        validate_block(&copy, genesis.header(), &state).expect("valid block");
    });

    // What hashing message by message counts, both ways: 16 000 for the
    // signatures, 7 000 for the leaves (a 346-byte encoding after the
    // prefix, then the second pass), 2 997 for the 999 interior nodes,
    // 1 000 sender addresses and 2 311 for the flat state root.
    assert_eq!(
        [sealed, checked],
        [29_308, 29_308],
        "{TOTAL} moved: batching must not change what is hashed"
    );
    // Full groups: 62 of 16 signatures (16 each), 62 of 16 leaves (7
    // each), and per level 31 + 15 + 7 + 3 + 1 + 1 groups of 16 nodes
    // (3 each); the rest goes one message at a time.
    let batched = 62 * 16 * 16 + 62 * 16 * 7 + (31 + 15 + 7 + 3 + 1 + 1) * 16 * 3;
    assert_eq!(
        [sealed_batched, checked_batched],
        [batched, batched],
        "{BATCHED} moved: something that hashed sixteen wide now hashes one at a time"
    );

    // A lottery message takes two blocks and a ranking message one. A
    // sixteen-member cluster is one full group; fifteen members hash
    // one at a time.
    let seed = genesis.id();
    for (members, lottery, ranking) in [(16, 32, 16), (15, 0, 0)] {
        let (_, counted) = compressions(|| lottery_winner(&seed, 3, 0..members));
        assert_eq!(
            counted,
            [2 * members, lottery],
            "[{TOTAL}, {BATCHED}] of a {members}-member lottery"
        );
        let (_, counted) = compressions(|| rendezvous_top(&seed, 0..members, 2));
        assert_eq!(
            counted,
            [members, ranking],
            "[{TOTAL}, {BATCHED}] of a {members}-member ranking"
        );
    }
}
