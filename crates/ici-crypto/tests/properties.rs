//! Randomized property tests over the cryptographic substrate.
//!
//! Ported from `proptest` to seeded, deterministic case loops over
//! [`ici_rng`] so the suite runs with zero external dependencies. Every
//! test draws `CASES` random inputs from a fixed seed.

use ici_crypto::gf256::Gf256;
use ici_crypto::lottery::{
    for_each_lottery_score, for_each_rendezvous_rank, lottery_score, lottery_winner,
    rendezvous_rank, rendezvous_top,
};
use ici_crypto::merkle::MerkleTree;
use ici_crypto::rs::ReedSolomon;
use ici_crypto::sha256::{Digest, Sha256};
use ici_crypto::sig::Keypair;
use ici_rng::Xoshiro256;

const CASES: usize = 96;

/// Streaming and one-shot hashing agree for arbitrary data and splits.
#[test]
fn sha256_streaming_equals_oneshot() {
    let mut rng = Xoshiro256::seed_from_u64(0xC1);
    for _ in 0..CASES {
        let data = rng.gen_bytes_in(0usize..2048);
        let cut = if data.is_empty() {
            0
        } else {
            rng.gen_range(0usize..=data.len())
        };
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }
}

/// Hex encoding of a digest always round-trips.
#[test]
fn digest_hex_round_trip() {
    let mut rng = Xoshiro256::seed_from_u64(0xC2);
    for _ in 0..CASES {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        let d = Digest::from_bytes(bytes);
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }
}

/// GF(256): field axioms on random triples.
#[test]
fn gf256_field_axioms() {
    let mut rng = Xoshiro256::seed_from_u64(0xC3);
    for _ in 0..CASES.max(512) {
        let (a, b, c) = (
            Gf256(rng.gen_range(0u32..256) as u8),
            Gf256(rng.gen_range(0u32..256) as u8),
            Gf256(rng.gen_range(0u32..256) as u8),
        );
        assert_eq!(a.mul(b), b.mul(a));
        assert_eq!(a.mul(b.mul(c)), a.mul(b).mul(c));
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        if b != Gf256::ZERO {
            assert_eq!(a.div(b).mul(b), a);
        }
    }
}

/// Merkle proofs verify for every leaf of a random tree, and a proof for
/// one leaf never verifies a different payload.
#[test]
fn merkle_proofs_sound_and_complete() {
    let mut rng = Xoshiro256::seed_from_u64(0xC4);
    for _ in 0..CASES {
        let leaf_count = rng.gen_range(1usize..40);
        let leaves: Vec<Vec<u8>> = (0..leaf_count)
            .map(|_| rng.gen_bytes_in(0usize..64))
            .collect();
        let tree = MerkleTree::from_leaves(leaves.iter().map(|v| v.as_slice()));
        let idx = rng.gen_range(0usize..leaves.len());
        let proof = tree.prove(idx).expect("index in range");
        assert!(proof.verify(&leaves[idx], tree.root()));

        let mut other = leaves[idx].clone();
        other.push(0xAB);
        assert!(!proof.verify(&other, tree.root()));
    }
}

/// Reed–Solomon: data survives any random erasure pattern of at most
/// `parity` shards.
#[test]
fn rs_recovers_from_random_erasures() {
    let mut rng = Xoshiro256::seed_from_u64(0xC5);
    for _ in 0..CASES {
        let payload = rng.gen_bytes_in(1usize..512);
        let k = rng.gen_range(1usize..10);
        let m = rng.gen_range(1usize..6);
        let rs = ReedSolomon::new(k, m).expect("valid geometry");
        let mut shards: Vec<Option<Vec<u8>>> =
            rs.encode_payload(&payload).into_iter().map(Some).collect();

        // Erase up to `m` distinct shards.
        let mut erased = 0;
        while erased < m {
            let idx = rng.gen_range(0usize..shards.len());
            if shards[idx].is_some() {
                shards[idx] = None;
                erased += 1;
            }
        }

        rs.reconstruct(&mut shards).expect("within erasure budget");
        assert_eq!(
            rs.join_payload(&shards, payload.len()).expect("join"),
            payload
        );
    }
}

/// SimSig: honest verification succeeds; any bit flip in the message is
/// rejected.
#[test]
fn simsig_rejects_flipped_bits() {
    let mut rng = Xoshiro256::seed_from_u64(0xC6);
    for _ in 0..CASES {
        let pair = Keypair::from_seed(rng.next_u64());
        let msg = rng.gen_bytes_in(1usize..128);
        let sig = pair.sign(&msg);
        assert!(pair.public().verify(&msg, &sig));

        let mut bad = msg.clone();
        let i = rng.gen_range(0usize..bad.len());
        bad[i] ^= 0x01;
        assert!(!pair.public().verify(&bad, &sig));
    }
}

/// Rendezvous hashing: removing a non-owner never changes the owner set.
#[test]
fn hrw_minimal_disruption() {
    let mut rng = Xoshiro256::seed_from_u64(0xC7);
    for _ in 0..CASES {
        let key = Sha256::digest(&rng.next_u64().to_be_bytes());
        let n = rng.gen_range(4u64..40);
        let r = rng.gen_range(1usize..4);
        let owners = rendezvous_top(&key, 0..n, r);
        let non_owner = (0..n).find(|id| !owners.contains(id));
        if let Some(gone) = non_owner {
            let after = rendezvous_top(&key, (0..n).filter(|id| *id != gone), r);
            assert_eq!(owners, after);
        }
    }
}

/// Lottery: the winner is always a member of the candidate set.
#[test]
fn lottery_winner_is_member() {
    let mut rng = Xoshiro256::seed_from_u64(0xC8);
    for _ in 0..CASES {
        let seed = Sha256::digest(&[rng.gen_range(0u32..256) as u8]);
        let round = rng.next_u64();
        let n = rng.gen_range(1u64..100);
        let winner = lottery_winner(&seed, round, 0..n).expect("non-empty");
        assert!(winner < n);
    }
}

/// The batched lottery and ranking are the per-id functions, at every
/// candidate count 0..=49 (none, short groups, and up to three full
/// groups of sixteen plus a short one), over seeded ids that repeat.
#[test]
fn batched_lotteries_and_rankings_match_per_id() {
    let mut rng = Xoshiro256::seed_from_u64(0xC9);
    for len in 0..=49usize {
        let seed = Sha256::digest(&rng.next_u64().to_be_bytes());
        let round = rng.next_u64();
        // Half the ids from a pool of four, so repeats are common.
        let pool: [u64; 4] = std::array::from_fn(|_| rng.next_u64());
        let ids: Vec<u64> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    pool[rng.gen_range(0usize..4)]
                } else {
                    rng.next_u64()
                }
            })
            .collect();

        let mut scores = Vec::new();
        for_each_lottery_score(&seed, round, ids.iter().copied(), |id, score| {
            scores.push((id, score));
        });
        let expected: Vec<(u64, u64)> = ids
            .iter()
            .map(|&id| (id, lottery_score(&seed, round, id)))
            .collect();
        assert_eq!(scores, expected, "lottery, {len} ids");

        let mut ranks = Vec::new();
        for_each_rendezvous_rank(&seed, ids.iter().copied(), |id, rank| {
            ranks.push((id, rank))
        });
        let expected: Vec<(u64, u64)> = ids
            .iter()
            .map(|&id| (id, rendezvous_rank(&seed, id)))
            .collect();
        assert_eq!(ranks, expected, "ranking, {len} ids");
    }
}
