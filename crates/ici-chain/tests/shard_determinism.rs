//! Determinism suite for the sharded world state and mempool.
//!
//! The scale tier's contract is byte-identity: any physical shard count
//! must produce exactly the results of the single-shard reference — v1
//! flat roots, v2 bucket roots, block apply
//! outcomes (including the failure index and the partially-applied
//! state a mid-block error leaves behind), and mempool admission /
//! selection order. [`ReferenceMempool`] below is a verbatim copy of
//! the pre-index full-scan algorithm, kept as the oracle the
//! fee-ordered indexes are differentially pinned against.

use std::collections::BTreeMap;

use ici_chain::block::{Block, BlockHeader};
use ici_chain::codec::{Decode, Encode};
use ici_chain::mempool::{Mempool, MempoolError};
use ici_chain::state::{StateError, WorldState};
use ici_chain::transaction::{Address, Transaction, TxId};
use ici_crypto::sha256::Digest;
use ici_crypto::sig::Keypair;
use ici_rng::Xoshiro256;

/// Shard counts exercised everywhere: the sequential reference, the
/// e_scale CI matrix point, and the one-bucket-per-shard extreme.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 64];

const ACCOUNTS: u64 = 400;
const FUNDS: u64 = 1_000_000;

fn funded() -> Vec<(Address, u64)> {
    (0..ACCOUNTS)
        .map(|s| (Address::from_seed(s), FUNDS))
        .collect()
}

/// Deterministic nonce-correct transaction stream over the funded
/// universe. Nonces are tracked per sender so every tx is applicable in
/// emission order.
struct TxGen {
    rng: Xoshiro256,
    nonces: BTreeMap<u64, u64>,
}

impl TxGen {
    fn new(seed: u64) -> TxGen {
        TxGen {
            rng: Xoshiro256::seed_from_u64(seed),
            nonces: BTreeMap::new(),
        }
    }

    fn next(&mut self) -> Transaction {
        let sender = self.rng.gen_range(0u64..ACCOUNTS);
        let recipient = self.rng.gen_range(0u64..ACCOUNTS);
        let nonce = self.nonces.entry(sender).or_insert(0);
        let tx = Transaction::signed(
            &Keypair::from_seed(sender),
            Address::from_seed(recipient),
            self.rng.gen_range(1u64..50),
            self.rng.gen_range(1u64..20),
            *nonce,
            self.rng.gen_bytes_in(0usize..64),
        );
        *nonce += 1;
        tx
    }
}

fn block_at(height: u64, txs: Vec<Transaction>) -> Block {
    Block::new(
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
    )
}

/// Re-encodes `tx` with one payload byte flipped: still decodes, but
/// signature verification fails — the mid-block failure injector.
fn corrupt_payload(tx: &Transaction) -> Transaction {
    let mut bytes = tx.to_bytes();
    let i = bytes.len() - 1; // payload is encoded last
    bytes[i] ^= 0x01;
    let mutated = Transaction::from_bytes(&bytes).expect("still decodes");
    assert!(!mutated.verify_signature(), "corruption must break the sig");
    mutated
}

/// Sharded states at every shard count replay the same blocks to
/// identical v1 roots, v2 roots, and account contents.
#[test]
fn sharded_replay_is_byte_identical_across_matrix() {
    let mut gen = TxGen::new(0x5D01);
    let blocks: Vec<Block> = (1..=6u64)
        .map(|h| block_at(h, (0..96).map(|_| gen.next()).collect()))
        .collect();

    let mut reference = WorldState::with_balances_sharded(funded(), 1);
    for block in &blocks {
        reference.apply_block(block).expect("reference applies");
    }
    let v1 = reference.root();
    let v2 = reference.sharded_root();

    for shards in SHARD_COUNTS {
        let mut state = WorldState::with_balances_sharded(funded(), shards);
        assert_eq!(state.shard_count(), shards);
        for block in &blocks {
            state
                .apply_block(block)
                .unwrap_or_else(|(i, e)| panic!("s={shards} tx {i}: {e}"));
        }
        assert_eq!(state.root(), v1, "v1 root s={shards}");
        assert_eq!(state.sharded_root(), v2, "v2 root s={shards}");
        assert_eq!(state, reference, "contents s={shards}");
    }
}

/// A mid-block signature failure reports the same index and leaves the
/// same partially-applied state at every shard count.
#[test]
fn mid_block_failure_is_deterministic_across_matrix() {
    let mut gen = TxGen::new(0x5D02);
    let mut txs: Vec<Transaction> = (0..96).map(|_| gen.next()).collect();
    let bad_index = 70;
    txs[bad_index] = corrupt_payload(&txs[bad_index]);
    let block = block_at(1, txs);

    let mut reference = WorldState::with_balances_sharded(funded(), 1);
    let err = reference.apply_block(&block).expect_err("must fail");
    assert_eq!(err, (bad_index, StateError::BadSignature));

    for shards in SHARD_COUNTS {
        let mut state = WorldState::with_balances_sharded(funded(), shards);
        let got = state.apply_block(&block).expect_err("must fail");
        assert_eq!(got, err, "failure index s={shards}");
        assert_eq!(state, reference, "partial state s={shards}");
        assert_eq!(state.root(), reference.root());
    }
}

// ---------------------------------------------------------------------------
// Mempool differential: indexed pool vs the pre-index full-scan oracle.
// ---------------------------------------------------------------------------

struct RefEntry {
    tx: Transaction,
    id: TxId,
}

/// Verbatim port of the pre-index mempool: every admission decision and
/// pick comes from a full scan over `by_sender`. Slow, but the exact
/// behaviour the indexed pool must reproduce byte-for-byte.
struct ReferenceMempool {
    by_sender: BTreeMap<Address, BTreeMap<u64, RefEntry>>,
    ids: std::collections::HashSet<TxId>,
    capacity: usize,
    len: usize,
}

impl ReferenceMempool {
    fn new(capacity: usize) -> ReferenceMempool {
        ReferenceMempool {
            by_sender: BTreeMap::new(),
            ids: std::collections::HashSet::new(),
            capacity,
            len: 0,
        }
    }

    fn cheapest(&self) -> Option<(u64, Address, u64)> {
        self.by_sender
            .iter()
            .flat_map(|(sender, chain)| {
                chain
                    .iter()
                    .map(move |(nonce, e)| (e.tx.fee(), *sender, *nonce))
            })
            .min()
    }

    fn insert(&mut self, tx: Transaction) -> Result<(), MempoolError> {
        if !tx.verify_signature() {
            return Err(MempoolError::BadSignature);
        }
        let id = tx.id();
        if self.ids.contains(&id) {
            return Err(MempoolError::Duplicate(id));
        }
        let sender = tx.sender_address();
        if let Some(existing) = self
            .by_sender
            .get(&sender)
            .and_then(|chain| chain.get(&tx.nonce()))
        {
            if existing.tx.fee() >= tx.fee() {
                return Err(MempoolError::Underpriced {
                    incumbent_fee: existing.tx.fee(),
                });
            }
            if let Some(old) = self
                .by_sender
                .get_mut(&sender)
                .and_then(|chain| chain.remove(&tx.nonce()))
            {
                self.ids.remove(&old.id);
                self.len -= 1;
            }
        }
        if self.len >= self.capacity {
            match self.cheapest() {
                Some((fee, victim_sender, victim_nonce)) if tx.fee() > fee => {
                    if let Some(old) = self
                        .by_sender
                        .get_mut(&victim_sender)
                        .and_then(|chain| chain.remove(&victim_nonce))
                    {
                        self.ids.remove(&old.id);
                        self.len -= 1;
                    }
                    if self
                        .by_sender
                        .get(&victim_sender)
                        .is_some_and(|chain| chain.is_empty())
                    {
                        self.by_sender.remove(&victim_sender);
                    }
                }
                _ => return Err(MempoolError::PoolFull),
            }
        }
        self.ids.insert(id);
        self.by_sender
            .entry(sender)
            .or_default()
            .insert(tx.nonce(), RefEntry { tx, id });
        self.len += 1;
        Ok(())
    }

    fn take_for_block(&mut self, max: usize) -> Vec<Transaction> {
        let mut picked = Vec::with_capacity(max.min(self.len));
        while picked.len() < max {
            let best = self
                .by_sender
                .iter()
                .filter_map(|(sender, chain)| {
                    chain
                        .iter()
                        .next()
                        .map(|(nonce, e)| (e.tx.fee(), *sender, *nonce))
                })
                .max();
            let Some((_, sender, nonce)) = best else {
                break;
            };
            let Some(entry) = self
                .by_sender
                .get_mut(&sender)
                .and_then(|chain| chain.remove(&nonce))
            else {
                break;
            };
            self.ids.remove(&entry.id);
            self.len -= 1;
            if self
                .by_sender
                .get(&sender)
                .is_some_and(|chain| chain.is_empty())
            {
                self.by_sender.remove(&sender);
            }
            picked.push(entry.tx);
        }
        picked
    }

    fn prune_below(&mut self, sender: &Address, next_nonce: u64) -> usize {
        let Some(chain) = self.by_sender.get_mut(sender) else {
            return 0;
        };
        let stale: Vec<u64> = chain.range(..next_nonce).map(|(n, _)| *n).collect();
        for nonce in &stale {
            if let Some(e) = chain.remove(nonce) {
                self.ids.remove(&e.id);
                self.len -= 1;
            }
        }
        if chain.is_empty() {
            self.by_sender.remove(sender);
        }
        stale.len()
    }

    fn contents(&self) -> Vec<Transaction> {
        self.by_sender
            .values()
            .flat_map(|chain| chain.values().map(|e| e.tx.clone()))
            .collect()
    }
}

/// The indexed pool (at every shard count) is operation-for-operation
/// identical to the full-scan oracle under random churn: same admission
/// verdicts, same eviction victims, same pick order, same survivors.
#[test]
fn indexed_pool_matches_full_scan_oracle_under_churn() {
    for shards in SHARD_COUNTS {
        let mut rng = Xoshiro256::seed_from_u64(0x5D03);
        let mut oracle = ReferenceMempool::new(48);
        let mut pool = Mempool::with_shards(48, shards);
        assert_eq!(pool.shard_count(), shards);

        for step in 0..600 {
            match rng.gen_range(0u32..10) {
                // Mostly inserts: duplicate fees + nonce collisions make
                // replace-by-fee, ties, and eviction all fire.
                0..=6 => {
                    let sender = rng.gen_range(0u64..24);
                    let nonce = rng.gen_range(0u64..6);
                    let fee = rng.gen_range(1u64..12);
                    let tx = Transaction::signed(
                        &Keypair::from_seed(sender),
                        Address::from_seed(sender + 500),
                        1,
                        fee,
                        nonce,
                        Vec::new(),
                    );
                    let want = oracle.insert(tx.clone());
                    let got = pool.insert(tx);
                    assert_eq!(got, want, "shards={shards} step={step} insert");
                }
                7..=8 => {
                    let max = rng.gen_range(1usize..16);
                    let want = oracle.take_for_block(max);
                    let got = pool.take_for_block(max);
                    assert_eq!(got, want, "shards={shards} step={step} take");
                }
                _ => {
                    let sender = Address::from_seed(rng.gen_range(0u64..24));
                    let next = rng.gen_range(0u64..7);
                    let want = oracle.prune_below(&sender, next);
                    let got = pool.prune_below(&sender, next);
                    assert_eq!(got, want, "shards={shards} step={step} prune");
                }
            }
            assert_eq!(pool.len(), oracle.len, "shards={shards} step={step} len");
        }
        let drained: Vec<Transaction> = pool.iter().cloned().collect();
        assert_eq!(drained, oracle.contents(), "shards={shards} survivors");
    }
}

/// `fee_floor` always equals the oracle's full-scan cheapest fee.
#[test]
fn fee_floor_matches_full_scan_minimum() {
    let mut rng = Xoshiro256::seed_from_u64(0x5D04);
    let mut oracle = ReferenceMempool::new(64);
    let mut pool = Mempool::with_shards(64, 4);
    for _ in 0..200 {
        let sender = rng.gen_range(0u64..16);
        let nonce = rng.gen_range(0u64..8);
        let fee = rng.gen_range(1u64..30);
        let tx = Transaction::signed(
            &Keypair::from_seed(sender),
            Address::from_seed(sender + 500),
            1,
            fee,
            nonce,
            Vec::new(),
        );
        let _ = oracle.insert(tx.clone());
        let _ = pool.insert(tx);
        assert_eq!(pool.fee_floor(), oracle.cheapest().map(|(fee, _, _)| fee));
    }
}
