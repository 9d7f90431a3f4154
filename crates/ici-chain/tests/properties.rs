//! Randomized property tests over the ledger substrate.
//!
//! Ported from `proptest` to seeded, deterministic case loops over
//! [`ici_rng`].

use ici_chain::block::{Block, BlockHeader};
use ici_chain::codec::{CodecError, Decode, Encode, Reader, Writer};
use ici_chain::mempool::Mempool;
use ici_chain::state::WorldState;
use ici_chain::transaction::{Address, Transaction};
use ici_crypto::sha256::Digest;
use ici_crypto::sig::Keypair;
use ici_rng::Xoshiro256;

const CASES: usize = 64;

fn arb_tx(rng: &mut Xoshiro256) -> Transaction {
    let sender = rng.gen_range(0u64..64);
    let recipient = rng.gen_range(0u64..64);
    let amount = rng.next_u64();
    let fee = rng.gen_range(0u64..1_000);
    let nonce = rng.gen_range(0u64..10);
    let payload = rng.gen_bytes_in(0usize..200);
    Transaction::signed(
        &Keypair::from_seed(sender),
        Address::from_seed(recipient),
        amount,
        fee,
        nonce,
        payload,
    )
}

/// Every transaction round-trips through the codec and keeps its id
/// and signature validity.
#[test]
fn tx_codec_round_trip() {
    let mut rng = Xoshiro256::seed_from_u64(0xB1);
    for _ in 0..CASES {
        let tx = arb_tx(&mut rng);
        let bytes = tx.to_bytes();
        assert_eq!(bytes.len(), tx.encoded_len());
        let decoded = Transaction::from_bytes(&bytes).expect("round trip");
        assert_eq!(decoded.id(), tx.id());
        assert!(decoded.verify_signature());
        assert_eq!(decoded, tx);
    }
}

/// Truncating an encoding anywhere fails cleanly, never panics.
#[test]
fn tx_truncation_fails_cleanly() {
    let mut rng = Xoshiro256::seed_from_u64(0xB2);
    for _ in 0..CASES {
        let tx = arb_tx(&mut rng);
        let bytes = tx.to_bytes();
        let cut = rng.gen_range(0usize..bytes.len());
        assert!(Transaction::from_bytes(&bytes[..cut]).is_err());
    }
}

/// Flipping any single byte of an encoded transaction either fails to
/// decode or fails signature verification or changes the id — it never
/// yields a different-but-valid transaction with the same id.
#[test]
fn tx_bitflip_never_silently_accepted() {
    let mut rng = Xoshiro256::seed_from_u64(0xB3);
    for _ in 0..CASES {
        let tx = arb_tx(&mut rng);
        let bytes = tx.to_bytes();
        let mut mutated = bytes.clone();
        let i = rng.gen_range(0usize..mutated.len());
        mutated[i] ^= 0x01;
        match Transaction::from_bytes(&mutated) {
            Err(_) => {}
            Ok(m) => {
                assert_ne!(m.id(), tx.id(), "same id after mutation at byte {i}");
            }
        }
    }
}

/// Blocks round-trip and re-validate their commitments on decode.
#[test]
fn block_codec_round_trip() {
    let mut rng = Xoshiro256::seed_from_u64(0xB4);
    for _ in 0..CASES / 2 {
        let tx_count = rng.gen_range(0usize..12);
        let txs: Vec<Transaction> = (0..tx_count).map(|_| arb_tx(&mut rng)).collect();
        let height = rng.gen_range(1u64..1000);
        let block = Block::new(
            BlockHeader {
                height,
                parent: Digest::ZERO,
                tx_root: Digest::ZERO,
                state_root: Digest::ZERO,
                timestamp_ms: height,
                proposer: 1,
                pow_nonce: 0,
                tx_count: 0,
                body_len: 0,
            },
            txs,
        );
        let bytes = block.to_bytes();
        assert_eq!(bytes.len(), block.encoded_len());
        let decoded = Block::from_bytes(&bytes).expect("round trip");
        assert_eq!(decoded.id(), block.id());
        assert_eq!(decoded, block);
    }
}

/// State execution conserves total supply for any applied transaction.
#[test]
fn supply_conservation() {
    let mut rng = Xoshiro256::seed_from_u64(0xB5);
    for _ in 0..CASES {
        let seed = rng.gen_range(0u64..32);
        let amount = rng.gen_range(0u64..1_000);
        let fee = rng.gen_range(0u64..100);
        let mut state = WorldState::with_balances([(Address::from_seed(seed), 10_000)]);
        let supply = state.total_supply();
        let tx = Transaction::signed(
            &Keypair::from_seed(seed),
            Address::from_seed(seed + 1),
            amount,
            fee,
            0,
            Vec::new(),
        );
        let _ = state.apply(&tx, Address::from_seed(99));
        assert_eq!(state.total_supply(), supply);
    }
}

/// Mempool `take_for_block` always yields sender chains in nonce order
/// and never returns more than requested.
#[test]
fn mempool_serves_executable_batches() {
    let mut rng = Xoshiro256::seed_from_u64(0xB6);
    for _ in 0..CASES {
        let entry_count = rng.gen_range(1usize..40);
        let max = rng.gen_range(1usize..30);
        let mut pool = Mempool::new(1_000);
        for _ in 0..entry_count {
            let sender = rng.gen_range(0u64..8);
            let nonce = rng.gen_range(0u64..4);
            let fee = rng.gen_range(1u64..50);
            let _ = pool.insert(Transaction::signed(
                &Keypair::from_seed(sender),
                Address::from_seed(sender + 100),
                1,
                fee,
                nonce,
                Vec::new(),
            ));
        }
        let picked = pool.take_for_block(max);
        assert!(picked.len() <= max);
        // Per-sender nonces must be non-decreasing in pick order.
        let mut last: std::collections::HashMap<Address, u64> = std::collections::HashMap::new();
        for tx in &picked {
            if let Some(prev) = last.get(&tx.sender_address()) {
                assert!(tx.nonce() > *prev, "nonce order violated");
            }
            last.insert(tx.sender_address(), tx.nonce());
        }
    }
}

/// The primitive codec round-trips arbitrary sequences of fields.
#[test]
fn codec_field_round_trip() {
    let mut rng = Xoshiro256::seed_from_u64(0xB7);
    for _ in 0..CASES {
        let a = rng.gen_range(0u32..256) as u8;
        let b = rng.next_u32();
        let c = rng.next_u64();
        let blob = rng.gen_bytes_in(0usize..300);
        let mut w = Writer::new();
        a.encode(&mut w);
        b.encode(&mut w);
        c.encode(&mut w);
        w.put_len_prefixed(&blob);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(u8::decode(&mut r).expect("u8"), a);
        assert_eq!(u32::decode(&mut r).expect("u32"), b);
        assert_eq!(u64::decode(&mut r).expect("u64"), c);
        assert_eq!(r.take_len_prefixed().expect("blob"), &blob[..]);
        assert_eq!(r.finish(), Ok(()));
    }
}

/// Arbitrary garbage never panics the decoder.
#[test]
fn decoder_tolerates_garbage() {
    let mut rng = Xoshiro256::seed_from_u64(0xB8);
    for _ in 0..CASES * 4 {
        let bytes = rng.gen_bytes_in(0usize..400);
        let _ = Transaction::from_bytes(&bytes);
        let _ = Block::from_bytes(&bytes);
        let _ = BlockHeader::from_bytes(&bytes);
        let mut r = Reader::new(&bytes);
        let _: Result<Vec<u64>, CodecError> = Vec::<u64>::decode(&mut r);
    }
}
