//! The block path's hashes allocate nothing for a message within a
//! `Message`'s inline capacity, and exactly once past it; a batch that
//! reuses its messages allocates once per message that spills, however
//! often it spills again.
//!
//! Counted by the process-wide allocator `ici-bench` installs, so this
//! binary holds one test: no other test thread allocates while it
//! measures.

use ici_bench::alloc::stats;
use ici_chain::block::{Block, BlockHeader};
use ici_chain::codec::{Decode, Encode};
use ici_chain::locator::TxLocator;
use ici_chain::transaction::{Address, Transaction};
use ici_crypto::hmac::hmac_sha256;
use ici_crypto::lottery::{for_each_rendezvous_key, for_each_rendezvous_rank, lottery_winner};
use ici_crypto::merkle::{hash_leaf, hash_node};
use ici_crypto::sha256::{digest_messages, WIDE};
use ici_crypto::sig::{Keypair, PublicKey, Signature};
use ici_crypto::{Digest, Message, Sha256};

/// Heap allocations `f` makes (its result is dropped after counting).
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = stats().count;
    let out = std::hint::black_box(f());
    let n = stats().count - before;
    drop(out);
    n
}

#[test]
fn inline_messages_hash_without_allocating() {
    let data: Vec<u8> = (0..1_200u32).map(|i| (i * 31 % 251) as u8).collect();
    let pair = Keypair::from_seed(5);
    let (left, right) = (Sha256::digest(b"l"), Sha256::digest(b"r"));

    for len in 0..=Message::INLINE_LEN {
        let message = &data[..len];
        let signature = pair.sign(message);
        let n = allocations(|| {
            Sha256::digest(message);
            Message::from(message).digest();
            hmac_sha256(b"key", message);
            pair.sign(message);
            assert!(pair.public().verify(message, &signature));
        });
        assert_eq!(n, 0, "len {len}");
    }
    // The leaf prefix takes one inline byte.
    for len in 0..Message::INLINE_LEN {
        assert_eq!(allocations(|| hash_leaf(&data[..len])), 0, "leaf len {len}");
    }
    assert_eq!(allocations(|| hash_node(&left, &right)), 0);
    // A slice digest pads only its tail, at any length.
    assert_eq!(allocations(|| Sha256::digest(&data)), 0);

    // Past the inline capacity, one spill.
    for len in [Message::INLINE_LEN + 1, 1_000, 1_200] {
        let n = allocations(|| Message::from(&data[..len]).digest());
        assert_eq!(n, 1, "len {len}");
    }

    // A transaction's signature check, id and leaf, and a header id:
    // its encodings are written into messages, never into a buffer.
    let tx = Transaction::signed(&pair, Address::from_seed(9), 10, 1, 0, vec![0xAB; 200]);
    let fresh = Transaction::from_bytes(&tx.to_bytes()).expect("round trip");
    let header = *Block::new(template(), vec![tx.clone()]).header();
    let n = allocations(|| {
        assert!(fresh.verify_signature());
        tx.id();
        tx.leaf_hash();
        header.id();
    });
    assert_eq!(n, 0);

    // The batch entry, sixteen wide and one by one: messages padded in
    // place, digests written to the caller's slice.
    let mut out = [Digest::ZERO; WIDE + 1];
    for len in 0..=Message::INLINE_LEN {
        let mut uniform: [Message; WIDE] = std::array::from_fn(|_| Message::from(&data[..len]));
        let mut mixed: [Message; WIDE + 1] =
            std::array::from_fn(|i| Message::from(&data[..(len + 31 * i) % Message::INLINE_LEN]));
        let n = allocations(|| {
            digest_messages(&mut uniform, false, &mut out);
            digest_messages(&mut uniform, true, &mut out);
            digest_messages(&mut mixed, true, &mut out);
        });
        assert_eq!(n, 0, "batch len {len}");
    }
    let signatures: [Signature; WIDE] = std::array::from_fn(|i| pair.sign(&data[..200 + i]));
    let keys = [pair.public(); WIDE];
    let mut messages: [Message; WIDE] = std::array::from_fn(|i| Message::from(&data[..200 + i]));
    let n =
        allocations(|| PublicKey::verify16(keys.each_ref(), &mut messages, signatures.each_ref()));
    assert_eq!(n, 0);
    let n = allocations(|| Keypair::sign16([&pair; WIDE], &mut messages));
    assert_eq!(n, 0);
    // Keys and addresses from seeds: one, a full group, and two full
    // groups and a straggler.
    for seeds in [1u64, 16, 33] {
        let n = allocations(|| {
            let keys = Keypair::from_seeds(0..seeds).count();
            let addresses = Address::from_seeds(0..seeds).fold(0u8, |acc, a| acc ^ a.0[0]);
            (keys, addresses)
        });
        assert_eq!(n, 0, "{seeds} seeds");
    }

    // A block's worth of decoded transactions: signatures, ids and
    // leaves in batches.
    let batch: Vec<Transaction> = (0..40u64)
        .map(|i| Transaction::signed(&pair, Address::from_seed(i), 10, 1, i, vec![0xAB; 200]))
        .map(|tx| Transaction::from_bytes(&tx.to_bytes()).expect("round trip"))
        .collect();
    let mut digests = vec![Digest::ZERO; batch.len()];
    let n = allocations(|| {
        Transaction::verify_signatures(&batch);
        Transaction::for_each_id(&batch, |id| digests[0] = id);
        Transaction::leaf_hashes(&batch, &mut digests);
    });
    assert_eq!(n, 0);

    // One set of messages reused group after group: encodings that go
    // spilled → inline → spilled allocate the sixteen spills of the
    // first group and nothing after them, ids, leaves and signing
    // fields alike; an all-inline batch allocates nothing.
    let spilling: Vec<Transaction> = [600usize, 200, 600, 700]
        .into_iter()
        .enumerate()
        .flat_map(|(group, len)| {
            (0..WIDE as u64).map(move |i| {
                let tx = Transaction::signed(
                    &pair,
                    Address::from_seed(i),
                    10,
                    1,
                    i,
                    vec![group as u8; len],
                );
                Transaction::from_bytes(&tx.to_bytes()).expect("round trip")
            })
        })
        .collect();
    let mut digests = vec![Digest::ZERO; spilling.len()];
    assert_eq!(
        allocations(|| Transaction::for_each_id(&spilling, |id| digests[0] = id)),
        WIDE as u64
    );
    assert_eq!(
        allocations(|| Transaction::leaf_hashes(&spilling, &mut digests)),
        WIDE as u64
    );
    assert_eq!(
        allocations(|| Transaction::verify_signatures(&spilling)),
        WIDE as u64
    );
    let inline = &spilling[WIDE..2 * WIDE];
    assert_eq!(
        allocations(|| Transaction::for_each_id(inline, |id| digests[0] = id)),
        0
    );

    // A transaction locator's catch-up over 20 blocks of 40: the entry
    // and first-ordinal reservations, and no other allocation (ids are
    // hashed in reused messages, the keys sorted in place).
    let chain: Vec<Block> = (0..20u64)
        .map(|height| {
            let txs = (0..40u64)
                .map(|i| {
                    Transaction::signed(&pair, Address::from_seed(i), 10, 1, height, vec![7; 200])
                })
                .collect();
            Block::new(
                BlockHeader {
                    height,
                    ..template()
                },
                txs,
            )
        })
        .collect();
    let mut locator = TxLocator::new();
    assert_eq!(allocations(|| locator.catch_up(&chain)), 2);
    assert_eq!(locator.indexed_blocks(), chain.len());

    // A leader lottery and an owner ranking: one id, one full group,
    // and two full groups and a straggler; a joiner ranked at as many
    // heights.
    let keys: Vec<Digest> = (0..33u8).map(|i| Sha256::digest(&[i])).collect();
    for members in [1u64, 16, 33] {
        let n = allocations(|| {
            lottery_winner(&left, 7, 0..members);
            let mut sum = 0u64;
            for_each_rendezvous_rank(&right, 0..members, |_, rank| sum = sum.wrapping_add(rank));
            let heights = keys.iter().copied().take(members as usize);
            for_each_rendezvous_key(9, heights, |_, rank| sum = sum.wrapping_add(rank));
            sum
        });
        assert_eq!(n, 0, "{members} members");
    }
}

fn template() -> BlockHeader {
    BlockHeader {
        height: 1,
        parent: Digest::ZERO,
        tx_root: Digest::ZERO,
        state_root: Digest::ZERO,
        timestamp_ms: 1,
        proposer: 0,
        pow_nonce: 0,
        tx_count: 0,
        body_len: 0,
    }
}
