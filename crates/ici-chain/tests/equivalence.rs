//! Equivalence suite for the zero-copy block pipeline.
//!
//! Every optimization in the pipeline — streaming digests, cached header
//! ids, `Arc`-shared bodies, `encoded_len` size hints, proofs from the
//! kept subtree roots — is pinned here
//! against the plain two-pass reference it replaced: materialize the
//! canonical encoding, then hash or measure it. A divergence anywhere in
//! these tests means the fast path changed wire bytes or identities.

use ici_chain::block::{Block, BlockHeader};
use ici_chain::codec::Encode;
use ici_chain::hashing;
use ici_chain::transaction::{Address, Transaction};
use ici_crypto::merkle;
use ici_crypto::sha256::{double_sha256, Digest, Sha256};
use ici_crypto::sig::Keypair;
use ici_rng::Xoshiro256;

fn arb_tx(rng: &mut Xoshiro256) -> Transaction {
    Transaction::signed(
        &Keypair::from_seed(rng.gen_range(0u64..64)),
        Address::from_seed(rng.gen_range(0u64..64)),
        rng.next_u64(),
        rng.gen_range(0u64..1_000),
        rng.gen_range(0u64..10),
        rng.gen_bytes_in(0usize..200),
    )
}

fn arb_block(rng: &mut Xoshiro256, height: u64) -> Block {
    let txs: Vec<Transaction> = (0..rng.gen_range(1usize..12))
        .map(|_| arb_tx(rng))
        .collect();
    let template = BlockHeader {
        height,
        parent: hashing::digest_encodable(&height),
        tx_root: ici_crypto::sha256::Digest::ZERO,
        state_root: hashing::digest_encodable(&rng.next_u64()),
        timestamp_ms: rng.gen_range(1u64..1 << 40),
        proposer: rng.gen_range(0u64..512),
        pow_nonce: 0,
        tx_count: 0,
        body_len: 0,
    };
    Block::new(template, txs)
}

/// Streaming digests equal hashing the materialized encoding, for real
/// protocol values (not just synthetic byte strings).
#[test]
fn streaming_digests_match_two_pass_reference() {
    let mut rng = Xoshiro256::seed_from_u64(0xE1);
    for i in 0..64u64 {
        let tx = arb_tx(&mut rng);
        let block = arb_block(&mut rng, i);
        let header = *block.header();
        assert_eq!(
            hashing::digest_encodable(&tx),
            Sha256::digest(&tx.to_bytes())
        );
        assert_eq!(
            hashing::digest_encodable(&header),
            Sha256::digest(&header.to_bytes())
        );
        assert_eq!(
            hashing::double_sha256_encodable(&tx),
            double_sha256(&tx.to_bytes())
        );
        assert_eq!(
            hashing::double_sha256_encodable(&header),
            double_sha256(&header.to_bytes())
        );
        assert_eq!(tx.leaf_hash(), merkle::hash_leaf(&tx.to_bytes()));
        assert_eq!(hashing::double_sha256_of_bytes(&tx), tx.id());
    }
}

/// `encoded_len` is byte-exact against the materialized encoding for
/// every wire type the pipeline pre-sizes buffers with.
#[test]
fn encoded_len_is_exact() {
    let mut rng = Xoshiro256::seed_from_u64(0xE2);
    for i in 0..32u64 {
        let tx = arb_tx(&mut rng);
        assert_eq!(tx.to_bytes().len(), tx.encoded_len(), "tx {i}");
        let block = arb_block(&mut rng, i + 1);
        assert_eq!(
            block.header().to_bytes().len(),
            block.header().encoded_len(),
            "header {i}"
        );
        assert_eq!(block.to_bytes().len(), block.encoded_len(), "block {i}");
        let body: Vec<Transaction> = block.transactions().to_vec();
        assert_eq!(body.to_bytes().len(), body.encoded_len(), "body {i}");
    }
}

/// The cached block id equals a fresh double-SHA-256 of the header
/// encoding, across every construction path a block can take.
#[test]
fn cached_block_id_matches_fresh_header_hash() {
    let mut rng = Xoshiro256::seed_from_u64(0xE3);
    for i in 0..32u64 {
        let block = arb_block(&mut rng, i);
        let fresh = double_sha256(&block.header().to_bytes());
        assert_eq!(block.id(), fresh, "first (caching) read");
        assert_eq!(block.id(), fresh, "cached re-read");
        assert_eq!(block.header().id(), fresh, "header-direct hash");

        // Checked reconstruction from parts preserves the identity.
        let checked = Block::from_parts(*block.header(), block.transactions().to_vec())
            .expect("intact parts");
        assert_eq!(checked.id(), fresh);
        let (header, body) = block.into_parts();
        assert_eq!(Block::new(header, body).id(), fresh, "rebuilt block");
    }
}

/// A transaction proof from the block's kept 8-leaf subtree roots is
/// the proof of the tree re-derived from the body, for every body size
/// through 75 (one to ten subtrees, every odd promotion above and below
/// the kept level) and every index, on a block assembled by `new` and
/// on the same block reassembled by `from_parts`; past the body there
/// is none.
#[test]
fn subtree_proofs_match_the_full_tree() {
    let mut rng = Xoshiro256::seed_from_u64(0x5B7);
    let all: Vec<Transaction> = (0..75).map(|_| arb_tx(&mut rng)).collect();
    for n in 0..=75 {
        let template = BlockHeader {
            height: n as u64,
            parent: Digest::ZERO,
            tx_root: Digest::ZERO,
            state_root: Digest::ZERO,
            timestamp_ms: 1,
            proposer: 0,
            pow_nonce: 0,
            tx_count: 0,
            body_len: 0,
        };
        let built = Block::new(template, all[..n].to_vec());
        let (header, body) = built.clone().into_parts();
        let rebuilt = Block::from_parts(header, body).expect("consistent parts");
        for block in [&built, &rebuilt] {
            let tree = block.tx_tree();
            assert_eq!(tree.root(), block.header().tx_root, "n={n}");
            for i in 0..=n {
                assert_eq!(block.prove_tx(i), tree.prove(i), "n={n} i={i}");
            }
        }
    }
}
