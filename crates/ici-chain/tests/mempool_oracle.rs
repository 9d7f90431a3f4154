//! Mempool differential: the indexed pool against the pre-index
//! full-scan oracle.
//!
//! [`ReferenceMempool`] below is a verbatim copy of the pre-index
//! full-scan algorithm, kept as the oracle the fee-ordered indexes are
//! differentially pinned against: same admission verdicts, same eviction
//! victims, same pick order, same survivors.
//!
//! The drivers compare the survivors (`iter()`) and `fee_floor()` after
//! every step, not only at the end.

use std::collections::BTreeMap;

use ici_chain::mempool::{Mempool, MempoolError};
use ici_chain::transaction::{Address, Transaction, TxId};
use ici_crypto::sig::Keypair;
use ici_rng::Xoshiro256;

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

/// Asserts that `pool` and `oracle` hold the same survivors in the same
/// (sender, nonce) order, the same count and the same fee floor.
fn assert_agree(pool: &Mempool, oracle: &ReferenceMempool, step: usize) {
    assert_eq!(pool.len(), oracle.len, "step={step} len");
    let want = oracle.contents();
    assert!(pool.iter().eq(want.iter()), "step={step} survivors");
    assert_eq!(
        pool.fee_floor(),
        oracle.cheapest().map(|(fee, _, _)| fee),
        "step={step} fee floor"
    );
}

/// The indexed pool is operation-for-operation identical to the
/// full-scan oracle under random churn: same admission verdicts, same
/// eviction victims, same pick order, same survivors.
#[test]
fn indexed_pool_matches_full_scan_oracle_under_churn() {
    let mut rng = Xoshiro256::seed_from_u64(0x5D03);
    let mut oracle = ReferenceMempool::new(48);
    let mut pool = Mempool::new(48);

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
                assert_eq!(got, want, "step={step} insert");
            }
            7..=8 => {
                let max = rng.gen_range(1usize..16);
                let want = oracle.take_for_block(max);
                let got = pool.take_for_block(max);
                assert_eq!(got, want, "step={step} take");
            }
            _ => {
                let sender = Address::from_seed(rng.gen_range(0u64..24));
                let next = rng.gen_range(0u64..7);
                let want = oracle.prune_below(&sender, next);
                let got = pool.prune_below(&sender, next);
                assert_eq!(got, want, "step={step} prune");
            }
        }
        assert_agree(&pool, &oracle, step);
    }
}

/// `fee_floor` always equals the oracle's full-scan cheapest fee.
#[test]
fn fee_floor_matches_full_scan_minimum() {
    let mut rng = Xoshiro256::seed_from_u64(0x5D04);
    let mut oracle = ReferenceMempool::new(64);
    let mut pool = Mempool::new(64);
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

/// Sender 0 of [`heavy_sender_variants_and_reoffers_match_the_oracle`]:
/// its chain is the one that grows long.
const HEAVY: u64 = 0;

/// A signed transfer from `sender` whose payload is `variant`'s byte (or
/// empty for variant 0), so equal `(sender, nonce, fee)` offers can
/// differ in their bytes.
fn offer(sender: u64, nonce: u64, fee: u64, variant: u64) -> Transaction {
    let payload = if variant == 0 {
        Vec::new()
    } else {
        variant.to_le_bytes()[..1].to_vec()
    };
    Transaction::signed(
        &Keypair::from_seed(sender),
        Address::from_seed(sender + 500),
        1,
        fee,
        nonce,
        payload,
    )
}

/// Offers `tx` to both pools, asserts they agree, and returns the
/// verdict.
fn offer_both(
    pool: &mut Mempool,
    oracle: &mut ReferenceMempool,
    tx: &Transaction,
    step: usize,
) -> Result<(), MempoolError> {
    let want = oracle.insert(tx.clone());
    assert_eq!(pool.insert(tx.clone()), want, "step={step} insert");
    want
}

/// The driver the fee-key and duplicate-slot rewrites are held to:
/// - one heavy sender whose chain grows past 64 pending nonces, so picks
///   pop a long chain's front and replace-by-fee lands mid-chain;
/// - payload variants, so an equal `(sender, nonce, fee)` with other
///   bytes is `Underpriced`, while an equal transaction is `Duplicate`;
/// - re-offers of transactions after they were taken, evicted or pruned,
///   which both pools admit again.
#[test]
fn heavy_sender_variants_and_reoffers_match_the_oracle() {
    let mut rng = Xoshiro256::seed_from_u64(0x5D05);
    let mut oracle = ReferenceMempool::new(200);
    let mut pool = Mempool::new(200);
    // Every transaction the pools dropped (taken, evicted, pruned or
    // replaced) and not yet re-admitted.
    let mut gone: Vec<Transaction> = Vec::new();
    let mut longest = 0;
    let (mut readmitted, mut duplicates, mut variants_underpriced) = (0, 0, 0);

    for step in 0..1_500 {
        let before = oracle.contents();
        match rng.gen_range(0u32..20) {
            // Fresh offers, the heavy sender's at any nonce below 96, so
            // its chain fills from the middle as well as the ends.
            0..=12 => {
                let (sender, nonces) = if rng.gen_bool(0.7) {
                    (HEAVY, 96)
                } else {
                    (rng.gen_range(1u64..20), 4)
                };
                let tx = offer(
                    sender,
                    rng.gen_range(0u64..nonces),
                    rng.gen_range(1u64..6),
                    rng.gen_range(0u64..3),
                );
                let verdict = offer_both(&mut pool, &mut oracle, &tx, step);
                if let Err(MempoolError::Underpriced { incumbent_fee }) = verdict {
                    variants_underpriced += usize::from(incumbent_fee == tx.fee());
                }
            }
            // A re-offer: something dropped, or something pending.
            13..=15 => {
                if gone.is_empty() || rng.gen_bool(0.3) {
                    let Some(tx) = rng.choose(&before) else {
                        continue;
                    };
                    let verdict = offer_both(&mut pool, &mut oracle, tx, step);
                    assert!(matches!(verdict, Err(MempoolError::Duplicate(_))));
                    duplicates += 1;
                } else {
                    let tx = gone.swap_remove(rng.gen_range(0..gone.len()));
                    match offer_both(&mut pool, &mut oracle, &tx, step) {
                        Ok(()) => readmitted += 1,
                        Err(_) => gone.push(tx),
                    }
                }
            }
            16..=17 => {
                let max = rng.gen_range(1usize..8);
                let want = oracle.take_for_block(max);
                assert_eq!(pool.take_for_block(max), want, "step={step} take");
            }
            _ => {
                let address = Address::from_seed(rng.gen_range(0u64..20));
                let next = rng.gen_range(0u64..8);
                let want = oracle.prune_below(&address, next);
                assert_eq!(pool.prune_below(&address, next), want, "step={step} prune");
            }
        }
        assert_agree(&pool, &oracle, step);
        let after = oracle.contents();
        gone.extend(before.into_iter().filter(|tx| !after.contains(tx)));
        let heavy = oracle.by_sender.get(&Address::from_seed(HEAVY));
        longest = longest.max(heavy.map_or(0, BTreeMap::len));
    }
    assert!(longest > 64, "the heavy chain peaked at {longest}");
    assert!(
        readmitted > 50,
        "{readmitted} dropped transactions re-admitted"
    );
    assert!(duplicates > 20, "{duplicates} duplicates");
    assert!(
        variants_underpriced > 20,
        "{variants_underpriced} equal-fee variants underpriced"
    );
}
