//! The transaction memory pool.
//!
//! Proposers draw block contents from a mempool that admits transactions
//! on signature validity, keeps at most one pending chain per sender
//! (ordered by nonce, no gaps served out of order), prioritises by fee,
//! and evicts the cheapest transactions under memory pressure — the
//! standard behaviour of deployed nodes, which the lifecycle's
//! "signatures are checked on admission" assumption rests on.
//!
//! # Indexes
//!
//! * `by_sender` — each sender's pending chain, ascending by nonce, in
//!   a hash table keyed by address: finding a sender is one probe, and
//!   `take_for_block` / `prune_below` pop from the chain's front. The
//!   table is never iterated; every ordered read goes through `heads`.
//! * `all_fees` — every pending `(fee, sender, nonce)`; its minimum is
//!   the fee-market eviction victim.
//! * `heads` — one key per sender: the lowest-nonce (serveable) entry
//!   of that sender's chain; its maximum is the next block pick.
//!
//! The two fee indexes hold `FeeKey`s, which spell the address as
//! big-endian integer words, so they sort exactly like `(fee, Address,
//! nonce)` tuples (the tie-breaks of the historical full scans) while a
//! comparison is integer compares.
//!
//! A duplicate is found at its slot: equal ids mean equal encodings, and
//! the pool keeps one entry per `(sender, nonce)`, so an offer repeats a
//! pending transaction exactly when it equals the entry at its own
//! `(sender, nonce)`. Admission therefore hashes the signature and the
//! sender address, and the id only to name a duplicate.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

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

/// An index key spelling `(fee, sender, nonce)`: the address as two
/// big-endian `u64` words and a big-endian `u32`, so the derived order is
/// exactly `(fee, Address, nonce)` order.
type FeeKey = (u64, u64, u64, u32, u64);

fn fee_key(tx: &Transaction, sender: &Address) -> FeeKey {
    let b = sender.as_bytes();
    let mut hi = [0u8; 8];
    let mut mid = [0u8; 8];
    let mut lo = [0u8; 4];
    hi.copy_from_slice(&b[..8]);
    mid.copy_from_slice(&b[8..16]);
    lo.copy_from_slice(&b[16..]);
    (
        tx.fee(),
        u64::from_be_bytes(hi),
        u64::from_be_bytes(mid),
        u32::from_be_bytes(lo),
        tx.nonce(),
    )
}

/// The sender a [`FeeKey`] spells.
fn key_sender(key: &FeeKey) -> Address {
    let mut b = [0u8; 20];
    b[..8].copy_from_slice(&key.1.to_be_bytes());
    b[8..16].copy_from_slice(&key.2.to_be_bytes());
    b[16..].copy_from_slice(&key.3.to_be_bytes());
    Address(b)
}

/// A fixed, seedless hasher for addresses: each write's leading eight
/// bytes, big-endian, mixed in with a multiply. Addresses are SHA-256
/// output, so their leading bytes are uniform; the multiply spreads
/// hand-built ones as well.
#[derive(Clone, Copy, Default)]
struct AddressHasher(u64);

impl Hasher for AddressHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut word = [0u8; 8];
        let n = bytes.len().min(8);
        word[..n].copy_from_slice(&bytes[..n]);
        self.0 = (self.0 ^ u64::from_be_bytes(word)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Pending chains by sender, each ascending by nonce. Looked up, never
/// iterated: its order is the hasher's, not the protocol's.
type Chains = HashMap<Address, VecDeque<Transaction>, BuildHasherDefault<AddressHasher>>;

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
#[derive(Clone)]
pub struct Mempool {
    by_sender: Chains,
    /// Every pending `(fee, sender, nonce)`; min = eviction victim.
    all_fees: BTreeSet<FeeKey>,
    /// Lowest-nonce entry per sender; max = next block pick.
    heads: BTreeSet<FeeKey>,
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
            by_sender: Chains::default(),
            all_fees: BTreeSet::new(),
            heads: BTreeSet::new(),
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
        self.all_fees.first().map(|key| key.0)
    }

    /// The pending entry at `(sender, nonce)`, if any.
    fn entry_at(&self, sender: &Address, nonce: u64) -> Option<&Transaction> {
        let chain = self.by_sender.get(sender)?;
        let pos = chain
            .binary_search_by_key(&nonce, Transaction::nonce)
            .ok()?;
        chain.get(pos)
    }

    /// Adds `tx` (the caller guarantees its `(sender, nonce)` is vacant)
    /// and maintains both indexes and the count.
    fn insert_entry(&mut self, sender: Address, tx: Transaction) {
        let key = fee_key(&tx, &sender);
        let chain = self.by_sender.entry(sender).or_default();
        let pos = chain.partition_point(|t| t.nonce() < tx.nonce());
        if pos == 0 {
            if let Some(old) = chain.front() {
                self.heads.remove(&fee_key(old, &sender));
            }
            self.heads.insert(key);
        }
        chain.insert(pos, tx);
        self.all_fees.insert(key);
        self.len += 1;
    }

    /// Removes the entry at `(sender, nonce)` — if present — dropping an
    /// emptied chain and maintaining both indexes and the count.
    fn remove_entry(&mut self, sender: &Address, nonce: u64) -> Option<Transaction> {
        let chain = self.by_sender.get_mut(sender)?;
        let pos = chain
            .binary_search_by_key(&nonce, Transaction::nonce)
            .ok()?;
        let tx = chain.remove(pos)?;
        let key = fee_key(&tx, sender);
        self.all_fees.remove(&key);
        if pos == 0 {
            self.heads.remove(&key);
            self.promote_next(sender);
        }
        self.len -= 1;
        Some(tx)
    }

    /// After `sender`'s head left the chain: indexes the new head, or
    /// drops the emptied chain.
    fn promote_next(&mut self, sender: &Address) {
        match self.by_sender.get(sender).and_then(VecDeque::front) {
            Some(head) => {
                self.heads.insert(fee_key(head, sender));
            }
            None => {
                self.by_sender.remove(sender);
            }
        }
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
        let sender = tx.sender_address();
        if let Some(incumbent) = self.entry_at(&sender, tx.nonce()) {
            // Equal to the entry at its own slot is the one way to equal
            // any pending transaction.
            if *incumbent == tx {
                return Err(MempoolError::Duplicate(tx.id()));
            }
            let incumbent_fee = incumbent.fee();
            if incumbent_fee >= tx.fee() {
                return Err(MempoolError::Underpriced { incumbent_fee });
            }
            // Replace-by-fee: drop the incumbent.
            self.remove_entry(&sender, tx.nonce());
        }

        if self.len >= self.capacity {
            // Evict the cheapest pending transaction if this one pays
            // more; otherwise reject.
            match self.all_fees.first().copied() {
                Some(victim) if tx.fee() > victim.0 => {
                    if self.remove_entry(&key_sender(&victim), victim.4).is_some() {
                        self.evicted += 1;
                    }
                }
                _ => return Err(MempoolError::PoolFull),
            }
        }

        self.insert_entry(sender, tx);
        Ok(())
    }

    /// Selects up to `max` transactions for a block: senders' chains are
    /// consumed in nonce order, highest head-fee first, so the result is
    /// executable as-is against a state that matches the pool's nonces.
    pub fn take_for_block(&mut self, max: usize) -> Vec<Transaction> {
        let mut picked = Vec::with_capacity(max.min(self.len));
        while picked.len() < max {
            let Some(key) = self.heads.pop_last() else {
                break;
            };
            let sender = key_sender(&key);
            let Some(chain) = self.by_sender.get_mut(&sender) else {
                break;
            };
            let Some(tx) = chain.pop_front() else {
                break;
            };
            self.all_fees.remove(&key);
            self.promote_next(&sender);
            self.len -= 1;
            picked.push(tx);
        }
        picked
    }

    /// Drops every pending transaction from `sender` with nonce below
    /// `next_nonce` — called after a block commits to clear included or
    /// stale entries. Returns how many were removed.
    pub fn prune_below(&mut self, sender: &Address, next_nonce: u64) -> usize {
        let Some(chain) = self.by_sender.get_mut(sender) else {
            return 0;
        };
        let stale = chain.partition_point(|t| t.nonce() < next_nonce);
        if stale == 0 {
            return 0;
        }
        if let Some(head) = chain.front() {
            self.heads.remove(&fee_key(head, sender));
        }
        for tx in chain.drain(..stale) {
            self.all_fees.remove(&fee_key(&tx, sender));
        }
        self.promote_next(sender);
        self.len -= stale;
        stale
    }

    /// Iterates pending transactions in (sender, nonce) order. The
    /// senders come from `heads`, one key each, sorted by address.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        let mut senders: Vec<Address> = self.heads.iter().map(key_sender).collect();
        senders.sort_unstable();
        senders
            .into_iter()
            .flat_map(move |sender| self.by_sender.get(&sender).into_iter().flatten())
    }
}

impl fmt::Debug for Mempool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mempool")
            .field("capacity", &self.capacity)
            .field("evicted", &self.evicted)
            .field("pending", &self.iter().collect::<Vec<_>>())
            .finish()
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
    fn index_invariants_hold_under_churn() {
        let mut pool = Mempool::new(8);
        for seed in 0..12 {
            let _ = pool.insert(tx(seed, 0, (seed % 5) + 1));
            let _ = pool.insert(tx(seed, 1, (seed % 3) + 1));
        }
        let _ = pool.take_for_block(5);
        let _ = pool.prune_below(&Address::from_seed(3), 2);
        let entries: usize = pool.by_sender.values().map(VecDeque::len).sum();
        assert_eq!(entries, pool.len());
        assert_eq!(pool.iter().count(), pool.len());
        assert_eq!(pool.all_fees.len(), pool.len());
        assert_eq!(pool.heads.len(), pool.by_sender.len());
    }
}
