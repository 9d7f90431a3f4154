//! What a transaction proof hashes, read from the
//! `crypto/sha256_compressions` counter.
//!
//! A block keeps the roots of its Merkle tree's aligned 8-leaf
//! subtrees. A light query re-hashes only the leaves of the subtree
//! holding the transaction, the nodes of that subtree off its path, and
//! the nodes above the kept roots; the requester then checks the proof
//! against its header. Nothing re-derives the whole tree. One test,
//! because the telemetry flag is process-global.

use icistrategy::crypto::merkle::hash_node;
use icistrategy::prelude::*;

const COUNTER: &str = "crypto/sha256_compressions";
const TXS: usize = 40;

/// Compressions counted while `f` runs.
fn compressions<T>(f: impl FnOnce() -> T) -> (T, u64) {
    icistrategy::telemetry::set_enabled(true);
    icistrategy::telemetry::reset();
    let out = f();
    let counted = icistrategy::telemetry::snapshot()
        .counters
        .iter()
        .filter(|c| c.name == COUNTER)
        .map(|c| c.value)
        .sum();
    icistrategy::telemetry::set_enabled(false);
    icistrategy::telemetry::reset();
    (out, counted)
}

#[test]
fn a_proof_hashes_one_subtree_and_the_levels_above_it() {
    let config = IciConfig::builder()
        .nodes(32)
        .cluster_size(8)
        .replication(2)
        .genesis(GenesisConfig::uniform(TXS as u64, 1_000_000))
        .seed(31)
        .build()
        .expect("valid configuration");
    let mut net = IciNetwork::new(config).expect("constructs");
    for nonce in 0..2 {
        let batch = (0..TXS as u64)
            .map(|i| {
                let to = Address::from_seed(i + 1);
                Transaction::signed(&Keypair::from_seed(i), to, 5, 1, nonce, vec![7; 120])
            })
            .collect();
        net.propose_block(batch).expect("block commits");
    }
    let block = net.block(1).expect("committed").clone();
    assert_eq!(block.transactions().len(), TXS);
    // The first proof brings the transaction locator up to the tip,
    // hashing every id on chain; the one counted below finds its
    // transaction by confirming one id.
    let other = net.block(2).expect("committed").transactions()[0].id();
    net.query_transaction(NodeId::new(0), &other)
        .expect("proven");

    let tx = &block.transactions()[0];
    let (digest, id) = compressions(|| tx.id());
    let (_, node) = compressions(|| hash_node(&digest, &digest));
    let (_, leaves) = compressions(|| {
        for tx in &block.transactions()[..8] {
            tx.leaf_hash();
        }
    });
    let (_, leaf) = compressions(|| tx.leaf_hash());
    assert!(
        id > 0 && node > 0,
        "{COUNTER} counted nothing: is telemetry on?"
    );

    let (report, proved) = compressions(|| net.query_transaction(NodeId::new(0), &digest));
    let report = report.expect("proven");
    assert_eq!((report.height, report.index), (1, 0));
    // Leaf 0 of 40: its subtree's 8 leaves, that subtree's nodes off
    // the path (1 at level 1, 3 at level 2), one node above the 5 kept
    // roots (roots 2 and 3; root 4 rises unpaired), then the
    // requester's leaf hash and one node a level of the 6-step path.
    let path = report.proof.siblings().len() as u64;
    assert_eq!(path, 6);
    let expected = id + leaves + (4 + 1) * node + leaf + path * node;
    assert_eq!(
        proved,
        expected,
        "{COUNTER}: one proof of leaf 0 of {TXS} must cost one id, one 8-leaf subtree, \
         5 nodes and the check ({expected}), not {proved}; re-deriving the whole tree \
         costs {TXS} leaves and {} nodes",
        TXS - 1
    );
}
