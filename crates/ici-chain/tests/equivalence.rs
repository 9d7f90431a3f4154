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

/// A transfer from `seed` whose payload is `len` bytes: lengths through
/// 600 give encodings from one padded block to past a hash message's
/// inline capacity.
fn tx_with_payload(seed: u64, len: usize) -> Transaction {
    Transaction::signed(
        &Keypair::from_seed(seed),
        Address::from_seed(seed + 1),
        seed,
        1,
        seed % 5,
        vec![seed as u8; len],
    )
}

/// Batches of every length 0..=40 (and one of 1 000), each either one
/// payload length (so full sixteen-wide groups form) or mixed lengths
/// 0..=600 with the padding edges pinned in.
fn batches() -> Vec<Vec<Transaction>> {
    let mut rng = Xoshiro256::seed_from_u64(0xBA7);
    let edges = [0usize, 55, 56, 63, 64, 119, 120, 600];
    let mut batches: Vec<Vec<Transaction>> = (0..=40usize)
        .map(|n| {
            let uniform = rng.gen_range(0usize..=600);
            (0..n)
                .map(|i| {
                    let len = match n % 3 {
                        0 => uniform,
                        1 => edges[i % edges.len()],
                        _ => rng.gen_range(0usize..=600),
                    };
                    tx_with_payload(rng.gen_range(0u64..1_000), len)
                })
                .collect()
        })
        .collect();
    batches.push((0..1_000).map(|i| tx_with_payload(i, 200)).collect());
    batches
}

/// Batched ids and leaves are the per-transaction ones.
#[test]
fn batched_ids_and_leaves_match_one_at_a_time() {
    for batch in batches() {
        let n = batch.len();
        let mut ids = Vec::with_capacity(n);
        let mut leaves = vec![Digest::ZERO; n];
        Transaction::for_each_id(&batch, |id| ids.push(id));
        Transaction::leaf_hashes(&batch, &mut leaves);
        assert_eq!(ids.len(), n);
        for (i, tx) in batch.iter().enumerate() {
            assert_eq!(ids[i], double_sha256(&tx.to_bytes()), "n={n} i={i}");
            assert_eq!(leaves[i], tx.leaf_hash(), "n={n} i={i}");
            assert_eq!(leaves[i], merkle::hash_leaf(&tx.to_bytes()), "n={n} i={i}");
        }
    }
}

/// The node-by-node tree over `leaves`: every level, each node from
/// [`merkle::hash_node`], an unpaired node promoted.
fn levels_node_by_node(leaves: Vec<Digest>) -> Vec<Vec<Digest>> {
    let mut levels = vec![leaves];
    while let Some(level) = levels.last().filter(|l| l.len() > 1) {
        let mut next: Vec<Digest> = level
            .chunks_exact(2)
            .map(|pair| merkle::hash_node(&pair[0], &pair[1]))
            .collect();
        next.extend(level.chunks_exact(2).remainder());
        levels.push(next);
    }
    levels
}

/// A block's root, its audit tree and every proof (full tree and kept
/// subtrees) equal the node-by-node tree over per-transaction leaves,
/// for every body size 0..=40 and 1 000, built and decoded.
#[test]
fn batched_roots_and_proofs_match_the_node_by_node_tree() {
    for batch in batches() {
        let n = batch.len();
        let leaves: Vec<Digest> = batch.iter().map(Transaction::leaf_hash).collect();
        let levels = levels_node_by_node(leaves);
        let root = levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or(Digest::ZERO);
        assert_eq!(Block::compute_tx_root(&batch), root, "n={n}");
        let template = BlockHeader {
            height: 1,
            parent: Digest::ZERO,
            tx_root: Digest::ZERO,
            state_root: Digest::ZERO,
            timestamp_ms: 1,
            proposer: 0,
            pow_nonce: 0,
            tx_count: 0,
            body_len: 0,
        };
        let built = Block::new(template, batch.clone());
        assert_eq!(built.header().tx_root, root, "n={n}");
        let (header, body) = built.clone().into_parts();
        let rebuilt = Block::from_parts(header, body).expect("consistent parts");
        for block in [&built, &rebuilt] {
            let tree = block.tx_tree();
            assert_eq!(tree.root(), root, "n={n}");
            for (i, tx) in batch.iter().enumerate() {
                let proof = tree.prove(i).expect("in range");
                let (mut pos, mut level) = (i, 0);
                for step in proof.siblings() {
                    // Levels where the path node rose unpaired add no step.
                    while pos ^ 1 >= levels[level].len() {
                        pos /= 2;
                        level += 1;
                    }
                    assert_eq!(step.digest, levels[level][pos ^ 1], "n={n} i={i}");
                    pos /= 2;
                    level += 1;
                }
                assert_eq!(block.prove_tx(i).as_ref(), Some(&proof), "n={n} i={i}");
                assert!(proof.verify(&tx.to_bytes(), root), "n={n} i={i}");
            }
        }
    }
}

/// Batch signature checks remember the verdicts one-by-one checks
/// would: a forged signature at every position of a batch (inside a
/// full sixteen-wide group and among the stragglers) is rejected there
/// and nowhere else, on fresh transactions and on decoded copies, and
/// remembered verdicts are kept.
#[test]
fn batched_signature_checks_match_one_at_a_time() {
    use ici_chain::codec::Decode;
    let honest: Vec<Transaction> = (0..37).map(|i| tx_with_payload(i, 200)).collect();
    for forged in 0..=honest.len() {
        let batch: Vec<Transaction> = honest
            .iter()
            .enumerate()
            .map(|(i, tx)| {
                let mut bytes = tx.to_bytes();
                if i == forged {
                    // The signature is the encoding's last 64 bytes.
                    let at = bytes.len() - 1 - i % 64;
                    bytes[at] ^= 1;
                }
                Transaction::from_bytes(&bytes).expect("decodes")
            })
            .collect();
        // A remembered (valid) verdict in the first group stays as it is.
        assert_eq!(batch[3].verify_signature(), forged != 3);
        Transaction::verify_signatures(&batch);
        for (i, tx) in batch.iter().enumerate() {
            let fresh = Transaction::from_bytes(&tx.to_bytes()).expect("decodes");
            assert_eq!(tx.verify_signature(), i != forged, "forged {forged}, i={i}");
            assert_eq!(
                fresh.verify_signature(),
                i != forged,
                "forged {forged}, i={i}"
            );
        }
    }
    // Mixed lengths: lanes fall back one by one, same verdicts.
    for batch in batches() {
        Transaction::verify_signatures(&batch);
        assert!(batch.iter().all(Transaction::verify_signature));
    }
}

/// Payload lengths of one group after another, chosen around a
/// `Message`'s 503-byte inline capacity for each encoding (145 bytes
/// plus the payload for an id, one more for a leaf, 91 plus the payload
/// for the signing fields), so the reused messages go spilled → inline
/// → spilled, grow and shrink, and sit on both sides of each edge. The
/// `None` group mixes lengths, so its lanes are hashed one by one.
const REUSE_GROUPS: [Option<usize>; 11] = [
    Some(500),
    Some(300),
    Some(420),
    Some(358),
    Some(359),
    None,
    Some(412),
    Some(413),
    Some(0),
    Some(600),
    Some(357),
];

/// The transactions of [`REUSE_GROUPS`], sixteen a group, then a short
/// group of five that spills.
fn reuse_batch() -> Vec<Transaction> {
    let mut seeds = 0u64..;
    let mut batch = Vec::new();
    for (group, len) in REUSE_GROUPS.iter().enumerate() {
        for lane in 0..16 {
            let len = len.unwrap_or(340 + 11 * lane + group);
            batch.push(tx_with_payload(seeds.next().unwrap_or(0), len));
        }
    }
    batch.extend((0..5).map(|i| tx_with_payload(1_000 + i, 501)));
    batch
}

/// A batch rewrites one set of hash messages group after group. Each
/// message is cut back to its prefix before the next encoding goes in,
/// so ids, leaves and signature verdicts over encodings that shrink and
/// grow across the inline capacity equal the per-transaction ones, and
/// a forged signature or key in every lane position is caught exactly
/// where it is.
#[test]
fn reused_messages_hash_like_fresh_ones_across_the_inline_edge() {
    use ici_chain::codec::Decode;
    let batch = reuse_batch();
    let n = batch.len();
    let mut ids = Vec::with_capacity(n);
    let mut leaves = vec![Digest::ZERO; n];
    Transaction::for_each_id(&batch, |id| ids.push(id));
    Transaction::leaf_hashes(&batch, &mut leaves);
    assert_eq!(ids.len(), n);
    for (i, tx) in batch.iter().enumerate() {
        let len = tx.payload().len();
        assert_eq!(ids[i], tx.id(), "id, i={i} payload {len}");
        assert_eq!(ids[i], double_sha256(&tx.to_bytes()), "id, i={i}");
        assert_eq!(leaves[i], tx.leaf_hash(), "leaf, i={i} payload {len}");
        assert_eq!(leaves[i], merkle::hash_leaf(&tx.to_bytes()), "leaf, i={i}");
    }

    // Every fifth transaction a flipped signature byte, every fifth from
    // the next a sender key swapped for another's, so each of the
    // sixteen lane positions sees both forgeries over the groups.
    let other = *Keypair::from_seed(9_999).public().as_bytes();
    let forged = |i: usize, tx: &Transaction| {
        let mut bytes = tx.to_bytes();
        match i % 5 {
            0 => {
                let at = bytes.len() - 1 - i % 64;
                bytes[at] ^= 1;
            }
            1 => bytes[..other.len()].copy_from_slice(&other),
            _ => {}
        }
        Transaction::from_bytes(&bytes).expect("decodes")
    };
    let checked: Vec<Transaction> = batch
        .iter()
        .enumerate()
        .map(|(i, tx)| forged(i, tx))
        .collect();
    Transaction::verify_signatures(&checked);
    for (i, tx) in checked.iter().enumerate() {
        let fresh = Transaction::from_bytes(&tx.to_bytes()).expect("decodes");
        let expected = fresh.verify_signature();
        assert_eq!(expected, i % 5 > 1, "i={i}");
        assert_eq!(tx.verify_signature(), expected, "verdict, i={i}");
    }
}
