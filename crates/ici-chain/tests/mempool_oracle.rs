//! Mempool differential: the indexed pool against the pre-index
//! full-scan oracle.
//!
//! [`ReferenceMempool`] below is a verbatim copy of the pre-index
//! full-scan algorithm, kept as the oracle the fee-ordered indexes are
//! differentially pinned against: same admission verdicts, same eviction
//! victims, same pick order, same survivors.

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
        assert_eq!(pool.len(), oracle.len, "step={step} len");
    }
    let drained: Vec<Transaction> = pool.iter().cloned().collect();
    assert_eq!(drained, oracle.contents(), "survivors");
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
