//! The transaction memory pool.
//!
//! Proposers draw block contents from a mempool that admits transactions
//! on signature validity, keeps at most one pending chain per sender
//! (ordered by nonce, no gaps served out of order), prioritises by fee,
//! and evicts the cheapest transactions under memory pressure — the
//! standard behaviour of deployed nodes, which the lifecycle's
//! "signatures are checked on admission" assumption rests on.
//!
//! # Fee indexes
//!
//! Two maintained `BTreeSet` fee indexes replace the historical full
//! scans:
//!
//! * `all_fees` — every pending `(fee, sender, nonce)`; its minimum is
//!   the fee-market eviction victim (what `cheapest()` used to scan for).
//! * `heads` — one tuple per sender: the lowest-nonce (serveable) entry
//!   of that sender's chain; its maximum is the next block pick.
//!
//! Eviction and selection are O(log n) per operation while the pop order
//! stays byte-identical to the old scans (the tuples compared are exactly
//! the ones the scans compared, with the same tie-breaks).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

use crate::transaction::{Address, Transaction, TxId};

/// Why a transaction was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MempoolError {
    /// Signature verification failed.
    BadSignature,
    /// The pool already holds this transaction.
    Duplicate(TxId),
    /// A different transaction with the same `(sender, nonce)` and an
    /// equal-or-higher fee is already pending (replace-by-fee applies).
    Underpriced {
        /// Fee of the incumbent transaction.
        incumbent_fee: u64,
    },
    /// The pool is full and this transaction's fee does not beat the
    /// cheapest pending one.
    PoolFull,
}

impl fmt::Display for MempoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MempoolError::BadSignature => f.write_str("invalid signature"),
            MempoolError::Duplicate(id) => write!(f, "duplicate transaction {id}"),
            MempoolError::Underpriced { incumbent_fee } => {
                write!(f, "underpriced: pending fee is {incumbent_fee}")
            }
            MempoolError::PoolFull => f.write_str("pool full and fee too low"),
        }
    }
}

impl std::error::Error for MempoolError {}

#[derive(Clone, Debug)]
struct Entry {
    tx: Transaction,
    id: TxId,
}

/// A fee-prioritised, nonce-ordered transaction pool.
///
/// # Examples
///
/// ```
/// use ici_chain::mempool::Mempool;
/// use ici_chain::transaction::{Address, Transaction};
/// use ici_crypto::sig::Keypair;
///
/// let mut pool = Mempool::new(100);
/// let tx = Transaction::signed(
///     &Keypair::from_seed(0), Address::from_seed(1), 5, 2, 0, Vec::new(),
/// );
/// pool.insert(tx)?;
/// assert_eq!(pool.len(), 1);
/// let block_txs = pool.take_for_block(10);
/// assert_eq!(block_txs.len(), 1);
/// assert!(pool.is_empty());
/// # Ok::<(), ici_chain::mempool::MempoolError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Mempool {
    /// Per sender: nonce → entry. Both maps are BTreeMaps so iteration
    /// (`iter`, head lookups) visits (sender, nonce) in a defined order —
    /// a HashMap here would make tie-breaks and `iter()` output depend
    /// on hasher state across runs.
    by_sender: BTreeMap<Address, BTreeMap<u64, Entry>>,
    /// Every pending `(fee, sender, nonce)`; min = eviction victim.
    all_fees: BTreeSet<(u64, Address, u64)>,
    /// Lowest-nonce entry per sender as `(fee, sender, nonce)`;
    /// max = next block pick.
    heads: BTreeSet<(u64, Address, u64)>,
    /// Membership check only — never iterated.
    ids: HashSet<TxId>,
    capacity: usize,
    len: usize,
    evicted: u64,
}

impl Mempool {
    /// Creates a pool bounded to `capacity` transactions. A pool of
    /// capacity zero admits nothing: every insert is
    /// [`MempoolError::PoolFull`].
    pub fn new(capacity: usize) -> Mempool {
        Mempool {
            by_sender: BTreeMap::new(),
            all_fees: BTreeSet::new(),
            heads: BTreeSet::new(),
            ids: HashSet::new(),
            capacity,
            len: 0,
            evicted: 0,
        }
    }

    /// Pending transactions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Transactions evicted by the fee market since construction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The lowest pending fee — what a new transaction must beat to get
    /// in once the pool is full.
    pub fn fee_floor(&self) -> Option<u64> {
        self.cheapest().map(|(fee, _, _)| fee)
    }

    /// Whether `id` is pending.
    pub fn contains(&self, id: &TxId) -> bool {
        self.ids.contains(id)
    }

    /// The serveable head of `sender`'s chain, as an index tuple.
    fn head_of(&self, sender: &Address) -> Option<(u64, Address, u64)> {
        self.by_sender
            .get(sender)
            .and_then(|chain| chain.iter().next())
            .map(|(nonce, e)| (e.tx.fee(), *sender, *nonce))
    }

    /// Fee of the pending entry at `(sender, nonce)`, if any.
    fn fee_at(&self, sender: &Address, nonce: u64) -> Option<u64> {
        self.by_sender
            .get(sender)
            .and_then(|chain| chain.get(&nonce))
            .map(|e| e.tx.fee())
    }

    /// Re-points the `heads` index after `sender`'s chain changed.
    fn refresh_head(
        &mut self,
        old_head: Option<(u64, Address, u64)>,
        new_head: Option<(u64, Address, u64)>,
    ) {
        if old_head == new_head {
            return;
        }
        if let Some(h) = old_head {
            self.heads.remove(&h);
        }
        if let Some(h) = new_head {
            self.heads.insert(h);
        }
    }

    /// Adds an entry (the caller guarantees `(sender, nonce)` is vacant)
    /// and maintains both indexes, the id set and the count.
    fn insert_entry(&mut self, sender: Address, nonce: u64, entry: Entry) {
        let old_head = self.head_of(&sender);
        self.all_fees.insert((entry.tx.fee(), sender, nonce));
        self.ids.insert(entry.id);
        self.by_sender
            .entry(sender)
            .or_default()
            .insert(nonce, entry);
        self.len += 1;
        let new_head = self.head_of(&sender);
        self.refresh_head(old_head, new_head);
    }

    /// Removes the entry at `(sender, nonce)` — if present — dropping
    /// empty chains and maintaining both indexes, the id set and the
    /// count.
    fn remove_entry(&mut self, sender: &Address, nonce: u64) -> Option<Entry> {
        let old_head = self.head_of(sender);
        let chain = self.by_sender.get_mut(sender)?;
        let entry = chain.remove(&nonce)?;
        if chain.is_empty() {
            self.by_sender.remove(sender);
        }
        self.all_fees.remove(&(entry.tx.fee(), *sender, nonce));
        self.ids.remove(&entry.id);
        self.len -= 1;
        let new_head = self.head_of(sender);
        self.refresh_head(old_head, new_head);
        Some(entry)
    }

    /// Admits `tx`, verifying its signature and applying replace-by-fee
    /// for `(sender, nonce)` collisions.
    ///
    /// # Errors
    ///
    /// See [`MempoolError`].
    pub fn insert(&mut self, tx: Transaction) -> Result<(), MempoolError> {
        if !tx.verify_signature() {
            return Err(MempoolError::BadSignature);
        }
        let id = tx.id();
        if self.ids.contains(&id) {
            return Err(MempoolError::Duplicate(id));
        }
        let sender = tx.sender_address();
        if let Some(incumbent_fee) = self.fee_at(&sender, tx.nonce()) {
            if incumbent_fee >= tx.fee() {
                return Err(MempoolError::Underpriced { incumbent_fee });
            }
            // Replace-by-fee: drop the incumbent.
            self.remove_entry(&sender, tx.nonce());
        }

        if self.len >= self.capacity {
            // Evict the cheapest pending transaction if this one pays
            // more; otherwise reject.
            match self.cheapest() {
                Some((fee, victim_sender, victim_nonce)) if tx.fee() > fee => {
                    if self.remove_entry(&victim_sender, victim_nonce).is_some() {
                        self.evicted += 1;
                    }
                }
                _ => return Err(MempoolError::PoolFull),
            }
        }

        self.insert_entry(sender, tx.nonce(), Entry { tx, id });
        Ok(())
    }

    /// The cheapest pending `(fee, sender, nonce)` — the same tuple (and
    /// the same tie-breaks) the historical full scan produced.
    fn cheapest(&self) -> Option<(u64, Address, u64)> {
        self.all_fees.first().copied()
    }

    /// Selects up to `max` transactions for a block: senders' chains are
    /// consumed in nonce order, highest head-fee first, so the result is
    /// executable as-is against a state that matches the pool's nonces.
    pub fn take_for_block(&mut self, max: usize) -> Vec<Transaction> {
        let mut picked = Vec::with_capacity(max.min(self.len));
        while picked.len() < max {
            let Some(&(_, sender, nonce)) = self.heads.last() else {
                break;
            };
            let Some(entry) = self.remove_entry(&sender, nonce) else {
                break;
            };
            picked.push(entry.tx);
        }
        picked
    }

    /// Drops every pending transaction from `sender` with nonce below
    /// `next_nonce` — called after a block commits to clear included or
    /// stale entries. Returns how many were removed.
    pub fn prune_below(&mut self, sender: &Address, next_nonce: u64) -> usize {
        let Some(chain) = self.by_sender.get(sender) else {
            return 0;
        };
        let stale: Vec<u64> = chain.range(..next_nonce).map(|(n, _)| *n).collect();
        for nonce in &stale {
            self.remove_entry(sender, *nonce);
        }
        stale.len()
    }

    /// Iterates pending transactions in (sender, nonce) order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.by_sender
            .values()
            .flat_map(|chain| chain.values().map(|e| &e.tx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_crypto::sig::Keypair;

    fn tx(seed: u64, nonce: u64, fee: u64) -> Transaction {
        Transaction::signed(
            &Keypair::from_seed(seed),
            Address::from_seed(seed + 100),
            1,
            fee,
            nonce,
            Vec::new(),
        )
    }

    #[test]
    fn insert_and_take_round_trip() {
        let mut pool = Mempool::new(10);
        pool.insert(tx(1, 0, 5)).expect("admits");
        pool.insert(tx(2, 0, 7)).expect("admits");
        assert_eq!(pool.len(), 2);
        let picked = pool.take_for_block(10);
        assert_eq!(picked.len(), 2);
        // Highest fee first.
        assert_eq!(picked[0].fee(), 7);
        assert!(pool.is_empty());
    }

    #[test]
    fn duplicates_are_rejected() {
        let mut pool = Mempool::new(10);
        let t = tx(1, 0, 5);
        pool.insert(t.clone()).expect("admits");
        assert!(matches!(pool.insert(t), Err(MempoolError::Duplicate(_))));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut pool = Mempool::new(10);
        let t = tx(1, 0, 5);
        let mut bytes = crate::codec::Encode::to_bytes(&t);
        bytes[60] ^= 1;
        let forged = <Transaction as crate::codec::Decode>::from_bytes(&bytes).expect("decodes");
        assert_eq!(pool.insert(forged), Err(MempoolError::BadSignature));
    }

    /// Same (sender, nonce) but a distinct payload, so ids differ and the
    /// replace-by-fee path (not the duplicate path) is exercised.
    fn tx_variant(seed: u64, nonce: u64, fee: u64, tag: u8) -> Transaction {
        Transaction::signed(
            &Keypair::from_seed(seed),
            Address::from_seed(seed + 100),
            1,
            fee,
            nonce,
            vec![tag],
        )
    }

    #[test]
    fn replace_by_fee() {
        let mut pool = Mempool::new(10);
        pool.insert(tx(1, 0, 5)).expect("admits");
        // Same (sender, nonce), equal/lower fee → rejected.
        assert!(matches!(
            pool.insert(tx_variant(1, 0, 5, 0xAA)),
            Err(MempoolError::Underpriced { incumbent_fee: 5 })
        ));
        assert!(matches!(
            pool.insert(tx_variant(1, 0, 4, 0xAB)),
            Err(MempoolError::Underpriced { .. })
        ));
        // Higher fee replaces.
        pool.insert(tx_variant(1, 0, 9, 0xAC)).expect("replaces");
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.take_for_block(1)[0].fee(), 9);
    }

    #[test]
    fn nonce_order_is_preserved_per_sender() {
        let mut pool = Mempool::new(10);
        pool.insert(tx(1, 2, 50)).expect("admits");
        pool.insert(tx(1, 0, 1)).expect("admits");
        pool.insert(tx(1, 1, 10)).expect("admits");
        let picked = pool.take_for_block(10);
        let nonces: Vec<u64> = picked.iter().map(|t| t.nonce()).collect();
        assert_eq!(
            nonces,
            vec![0, 1, 2],
            "sender chain must serve in nonce order"
        );
    }

    #[test]
    fn eviction_prefers_cheapest() {
        let mut pool = Mempool::new(2);
        pool.insert(tx(1, 0, 1)).expect("admits");
        pool.insert(tx(2, 0, 5)).expect("admits");
        // Fee 3 beats the cheapest (1) → evicts it.
        pool.insert(tx(3, 0, 3)).expect("evicts cheapest");
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.evicted(), 1);
        let fees: Vec<u64> = pool.iter().map(|t| t.fee()).collect();
        assert!(!fees.contains(&1));
        // Fee 2 does not beat the new cheapest (3) → rejected.
        assert_eq!(pool.insert(tx(4, 0, 2)), Err(MempoolError::PoolFull));
        assert_eq!(pool.fee_floor(), Some(3));
    }

    #[test]
    fn prune_below_clears_committed_nonces() {
        let mut pool = Mempool::new(10);
        for nonce in 0..5 {
            pool.insert(tx(1, nonce, 2)).expect("admits");
        }
        let sender = Address::from_seed(1);
        assert_eq!(pool.prune_below(&sender, 3), 3);
        assert_eq!(pool.len(), 2);
        let nonces: Vec<u64> = pool.iter().map(|t| t.nonce()).collect();
        assert!(nonces.contains(&3) && nonces.contains(&4));
        // Pruning an unknown sender is a no-op.
        assert_eq!(pool.prune_below(&Address::from_seed(9), 10), 0);
    }

    #[test]
    fn take_respects_max() {
        let mut pool = Mempool::new(10);
        for seed in 0..6 {
            pool.insert(tx(seed, 0, seed + 1)).expect("admits");
        }
        let picked = pool.take_for_block(4);
        assert_eq!(picked.len(), 4);
        assert_eq!(pool.len(), 2);
        // Fees picked are the 4 highest.
        let fees: Vec<u64> = picked.iter().map(|t| t.fee()).collect();
        assert_eq!(fees, vec![6, 5, 4, 3]);
    }

    #[test]
    fn zero_capacity_pool_refuses_with_pool_full() {
        let mut pool = Mempool::new(0);
        assert_eq!(pool.insert(tx(1, 0, 5)), Err(MempoolError::PoolFull));
        assert_eq!(pool.len(), 0);
        assert!(pool.take_for_block(1).is_empty());
    }

    #[test]
    fn contains_tracks_ids() {
        let mut pool = Mempool::new(4);
        let t = tx(1, 0, 2);
        let id = t.id();
        assert!(!pool.contains(&id));
        pool.insert(t).expect("admits");
        assert!(pool.contains(&id));
        pool.take_for_block(1);
        assert!(!pool.contains(&id));
    }

    #[test]
    fn index_invariants_hold_under_churn() {
        let mut pool = Mempool::new(8);
        for seed in 0..12 {
            let _ = pool.insert(tx(seed, 0, (seed % 5) + 1));
            let _ = pool.insert(tx(seed, 1, (seed % 3) + 1));
        }
        let _ = pool.take_for_block(5);
        let _ = pool.prune_below(&Address::from_seed(3), 2);
        let entries: usize = pool.by_sender.values().map(|c| c.len()).sum();
        assert_eq!(entries, pool.len());
        assert_eq!(pool.all_fees.len(), pool.len());
        assert_eq!(pool.heads.len(), pool.by_sender.len());
        assert_eq!(pool.ids.len(), pool.len());
    }
}
