//! A compact, lazily built transaction locator.
//!
//! Answering "where on chain is transaction `id`?" by scanning from
//! genesis re-hashes every committed transaction per lookup. The
//! [`TxLocator`] replaces the scan over the blocks it has indexed with a
//! binary search, at 8 bytes per transaction:
//!
//! * one packed `fingerprint << 32 | ordinal` key per indexed
//!   transaction, sorted — the fingerprint is the leading four bytes of
//!   the [`TxId`], the ordinal counts transactions chain-wide from
//!   genesis, so a fingerprint's keys sort in chain order;
//! * one first-ordinal per indexed block, which turns an ordinal back
//!   into `(height, index)`.
//!
//! A fingerprint is only a hint: every candidate in the matching run is
//! confirmed by recomputing the transaction's id, so a lookup returns
//! exactly what the genesis-first scan would. The index is never touched
//! by block commit — hashing every id there would tax the write path for
//! readers that may never come. [`TxLocator::catch_up`] extends it to the
//! tip on demand, and [`TxLocator::locate`] scans whatever suffix is
//! still unindexed.

use crate::block::{Block, Height};
use crate::transaction::{Transaction, TxId};

/// Transaction index over a prefix of an append-only chain.
///
/// Every call must be handed the same chain, genesis first, grown only
/// by appending: the locator stores positions, not transactions.
#[derive(Clone, Debug, Default)]
pub struct TxLocator {
    /// `fingerprint << 32 | ordinal` per indexed transaction, sorted,
    /// so the candidates of one fingerprint are visited in chain order.
    entries: Vec<u64>,
    /// Chain-wide ordinal of each indexed block's first transaction;
    /// its length is the number of blocks indexed.
    first_ordinal: Vec<u32>,
}

/// The leading four bytes of `id`.
fn fingerprint(id: &TxId) -> u32 {
    let b = id.as_bytes();
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// The index key of the transaction `id` at `ordinal`: sorting keys
/// sorts by fingerprint, then chain order.
fn key(fingerprint: u32, ordinal: u32) -> u64 {
    (u64::from(fingerprint) << 32) | u64::from(ordinal)
}

impl TxLocator {
    /// An empty locator: nothing indexed, every lookup scans.
    pub fn new() -> TxLocator {
        TxLocator::default()
    }

    /// Number of leading blocks of the chain the index covers.
    pub fn indexed_blocks(&self) -> usize {
        self.first_ordinal.len()
    }

    /// Extends the index from its indexed length to the tip of `chain`.
    ///
    /// Reserves exactly the new first ordinals and entries once, from
    /// the headers' `tx_count`, hashes the ids of the new blocks'
    /// transactions as one run, [`WIDE`](ici_crypto::sha256::WIDE) at a time across block
    /// boundaries ([`Transaction::for_each_id`]), and sorts the packed
    /// keys in place. Ordinals are 32-bit; blocks past the 2^32nd
    /// transaction stay unindexed and are served by the scan in
    /// [`TxLocator::locate`].
    pub fn catch_up(&mut self, chain: &[Block]) {
        let from = self.indexed_blocks();
        let Some(new_blocks) = chain.get(from..) else {
            return;
        };
        // Every entry holds a distinct 32-bit ordinal, so the count fits.
        let Ok(first) = u32::try_from(self.entries.len()) else {
            return;
        };
        // First ordinals from the headers alone (a block's `tx_count`
        // always equals its body length), then one reservation.
        self.first_ordinal.reserve_exact(new_blocks.len());
        let mut next = first;
        for block in new_blocks {
            let Some(after) = next.checked_add(block.header().tx_count) else {
                break;
            };
            self.first_ordinal.push(next);
            next = after;
        }
        let indexed = &new_blocks[..self.first_ordinal.len() - from];
        if indexed.is_empty() {
            return;
        }
        self.entries.reserve_exact((next - first) as usize);
        let entries = &mut self.entries;
        let mut ordinals = first..next;
        let transactions = indexed.iter().flat_map(Block::transactions);
        Transaction::for_each_id(transactions, |id| {
            if let Some(ordinal) = ordinals.next() {
                entries.push(key(fingerprint(&id), ordinal));
            }
        });
        self.entries.sort_unstable();
    }

    /// Locates `id` in `chain`: the indexed prefix through the index, the
    /// unindexed suffix by scanning. Returns the first occurrence in
    /// chain order as `(height, index within the block)`.
    pub fn locate(&self, chain: &[Block], id: &TxId) -> Option<(Height, u64)> {
        let wanted = fingerprint(id);
        let run_start = self.entries.partition_point(|k| *k < key(wanted, 0));
        let indexed_hit = self.entries[run_start..]
            .iter()
            .take_while(|k| *k >> 32 == u64::from(wanted))
            .find_map(|k| {
                // The low 32 bits are the ordinal.
                let (at, index) = self.position(*k as u32)?;
                let block = chain.get(at)?;
                let tx = block.transactions().get(index)?;
                (tx.id() == *id).then_some((block.height(), index as u64))
            });
        indexed_hit.or_else(|| {
            let suffix = chain.get(self.indexed_blocks()..)?;
            suffix.iter().find_map(|block| {
                let index = block.transactions().iter().position(|tx| tx.id() == *id)?;
                Some((block.height(), index as u64))
            })
        })
    }

    /// Turns a chain-wide ordinal back into `(position of the block in
    /// the chain, index within the block)`.
    fn position(&self, ordinal: u32) -> Option<(usize, usize)> {
        // The last block starting at or before the ordinal holds it:
        // empty blocks share their successor's first ordinal and sort
        // ahead of it.
        let at = self
            .first_ordinal
            .partition_point(|first| *first <= ordinal)
            .checked_sub(1)?;
        let index = ordinal - self.first_ordinal[at];
        Some((at, usize::try_from(index).ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockHeader;
    use crate::transaction::{Address, Transaction};
    use ici_crypto::sha256::Digest;
    use ici_crypto::sig::Keypair;

    fn tx(seed: u64, nonce: u64) -> Transaction {
        Transaction::signed(
            &Keypair::from_seed(seed),
            Address::from_seed(seed + 1),
            1,
            1,
            nonce,
            vec![seed as u8; 8],
        )
    }

    /// A chain of blocks with the given transaction counts (linkage is
    /// irrelevant to the locator).
    fn chain(tx_counts: &[u64]) -> Vec<Block> {
        let header = BlockHeader {
            height: 0,
            parent: Digest::ZERO,
            tx_root: Digest::ZERO,
            state_root: Digest::ZERO,
            timestamp_ms: 0,
            proposer: 0,
            pow_nonce: 0,
            tx_count: 0,
            body_len: 0,
        };
        tx_counts
            .iter()
            .enumerate()
            .map(|(height, count)| {
                let height = height as u64;
                let txs = (0..*count).map(|i| tx(i, height)).collect();
                Block::new(BlockHeader { height, ..header }, txs)
            })
            .collect()
    }

    /// The scan the locator replaces.
    fn scan(chain: &[Block], id: &TxId) -> Option<(Height, u64)> {
        for block in chain {
            for (i, tx) in block.transactions().iter().enumerate() {
                if tx.id() == *id {
                    return Some((block.height(), i as u64));
                }
            }
        }
        None
    }

    fn all_ids(chain: &[Block]) -> Vec<TxId> {
        chain
            .iter()
            .flat_map(|b| b.transactions().iter().map(Transaction::id))
            .collect()
    }

    /// The test-only constructor: an index whose entries are given, not
    /// derived, so two transactions can be made to share a fingerprint.
    fn forged(entries: &[(u32, u32)], chain: &[Block]) -> TxLocator {
        let mut entries: Vec<u64> = entries.iter().map(|&(fp, o)| key(fp, o)).collect();
        entries.sort_unstable();
        let mut first_ordinal = Vec::new();
        let mut next = 0u32;
        for block in chain {
            first_ordinal.push(next);
            next += block.header().tx_count;
        }
        TxLocator {
            entries,
            first_ordinal,
        }
    }

    #[test]
    fn empty_locator_scans_the_whole_chain() {
        let chain = chain(&[0, 3, 2]);
        let locator = TxLocator::new();
        assert_eq!(locator.indexed_blocks(), 0);
        for id in all_ids(&chain) {
            assert_eq!(locator.locate(&chain, &id), scan(&chain, &id));
        }
    }

    #[test]
    fn indexed_lookups_match_the_scan_across_empty_blocks() {
        let chain = chain(&[0, 3, 0, 0, 2, 1, 0]);
        let mut locator = TxLocator::new();
        locator.catch_up(&chain);
        assert_eq!(locator.indexed_blocks(), 7);
        assert_eq!(locator.entries.len(), 6);
        for id in all_ids(&chain) {
            let found = locator.locate(&chain, &id);
            assert!(found.is_some());
            assert_eq!(found, scan(&chain, &id));
        }
        assert_eq!(locator.locate(&chain, &Digest::ZERO), None);
    }

    /// Blocks of 0..=40 transactions (some with full sixteen-wide id
    /// groups, some with stragglers only): every id on chain is a hit at
    /// the scan's position, the entries are the per-transaction
    /// fingerprints, and ids off chain miss.
    #[test]
    fn batched_ids_index_every_hit_and_no_miss() {
        let counts: Vec<u64> = (0..=40).collect();
        let chain = chain(&counts);
        let mut locator = TxLocator::new();
        locator.catch_up(&chain);
        let ids = all_ids(&chain);
        let mut expected: Vec<u64> = ids
            .iter()
            .zip(0u32..)
            .map(|(id, o)| key(fingerprint(id), o))
            .collect();
        expected.sort_unstable();
        assert_eq!(locator.entries, expected);
        // Every transaction here is distinct, so its own position is the
        // scan's answer.
        let positions = chain
            .iter()
            .flat_map(|block| (0..block.transactions().len() as u64).map(|i| (block.height(), i)));
        for (id, position) in ids.iter().zip(positions) {
            assert_eq!(locator.locate(&chain, id), Some(position));
        }
        for seed in 0..40 {
            let off_chain = tx(seed, 1_000).id();
            assert_eq!(locator.locate(&chain, &off_chain), None, "seed {seed}");
        }
    }

    #[test]
    fn catch_up_is_incremental_and_the_suffix_is_scanned() {
        let chain = chain(&[0, 2, 3, 1, 4]);
        let mut locator = TxLocator::new();
        locator.catch_up(&chain[..2]);
        assert_eq!(locator.indexed_blocks(), 2);
        // Behind the tip: prefix by index, suffix by scan.
        for id in all_ids(&chain) {
            assert_eq!(locator.locate(&chain, &id), scan(&chain, &id));
        }
        locator.catch_up(&chain);
        assert_eq!(locator.indexed_blocks(), 5);
        assert_eq!(locator.entries.len(), 10);
        for id in all_ids(&chain) {
            assert_eq!(locator.locate(&chain, &id), scan(&chain, &id));
        }
        // Nothing new: a no-op.
        let before = locator.entries.clone();
        locator.catch_up(&chain);
        assert_eq!(locator.entries, before);
    }

    #[test]
    fn index_costs_eight_bytes_per_transaction_reserved_exactly() {
        assert_eq!(std::mem::size_of_val(&key(u32::MAX, u32::MAX)), 8);
        let chain = chain(&[0, 5, 7]);
        let mut locator = TxLocator::new();
        locator.catch_up(&chain);
        assert_eq!(locator.entries.capacity(), 12);
        assert_eq!(locator.first_ordinal.capacity(), 3);
    }

    #[test]
    fn duplicate_transaction_resolves_to_its_first_occurrence() {
        let mut blocks = chain(&[0, 2, 2]);
        // Height 2 repeats height 1's transactions.
        let repeat = blocks[1].transactions().to_vec();
        blocks[2] = Block::new(*blocks[2].header(), repeat);
        let mut locator = TxLocator::new();
        locator.catch_up(&blocks);
        let id = blocks[2].transactions()[1].id();
        assert_eq!(locator.locate(&blocks, &id), Some((1, 1)));
        assert_eq!(scan(&blocks, &id), Some((1, 1)));
    }

    #[test]
    fn colliding_fingerprints_resolve_to_the_exact_id() {
        let chain = chain(&[0, 2, 2]);
        let x = chain[1].transactions()[1].id(); // ordinal 1
        let y = chain[2].transactions()[0].id(); // ordinal 2
        let (fx, fy) = (fingerprint(&x), fingerprint(&y));
        assert_ne!(fx, fy);
        // Both transactions are filed under both fingerprints, so each
        // lookup walks a run of two candidates sharing one fingerprint.
        let locator = forged(&[(fx, 1), (fx, 2), (fy, 1), (fy, 2)], &chain);
        assert_eq!(locator.locate(&chain, &x), Some((1, 1)));
        assert_eq!(locator.locate(&chain, &y), Some((2, 0)));

        // An id that is not on chain but shares x's fingerprint.
        let mut bytes = *x.as_bytes();
        bytes[31] ^= 1;
        let unknown = Digest::from_bytes(bytes);
        assert_eq!(fingerprint(&unknown), fx);
        assert_eq!(locator.locate(&chain, &unknown), None);
    }
}
