//! The replicated world state: account balances and nonces.
//!
//! Applying a block is deterministic, so every node that executes the same
//! chain prefix reaches the same state and the same [`WorldState::root`]
//! commitment — the property the collaborative verification protocol relies
//! on when cluster members cross-check a proposed block's `state_root`.
//!
//! # Layout
//!
//! Accounts live in one flat table. An account is created in the next
//! free *slot* and keeps it for good: addresses and [`AccountState`]s are
//! two parallel arrays indexed by slot. Beside the addresses sit an
//! open-addressing index (an address's first eight bytes pick where its
//! probe starts; every probe compares all twenty) and the slots in
//! address order, which [`WorldState::root`], [`WorldState::accounts`]
//! and `==` walk.
//!
//! The two halves are shared separately. A clone is two `Arc` bumps. Its
//! first balance or nonce write copies the account array — one memcpy,
//! 16 bytes an account; its first account creation also copies the
//! addresses, the index and the order. A lookup is one probe, and
//! [`WorldState::apply`] finds the sender's slot once for both the check
//! and the debit. [`WorldState::with_balances`] builds a table in bulk:
//! one push per entry, one sort for the address order (which also
//! settles repeated addresses) and one pass to fill the index, with no
//! per-account probe.
//!
//! # Commitments
//!
//! Two commitments are available behind versioned domain tags:
//!
//! * [`WorldState::root`] — the flat v1 commitment, a single SHA-256 over
//!   every account in address order. What every committed experiment
//!   record carries. O(total accounts).
//! * [`WorldState::sharded_root`] — the v2 commitment: 64 fixed logical
//!   buckets (see [`crate::shard`]), each summarised by an
//!   incrementally-maintained lattice accumulator (order-independent
//!   wrapping sums of per-account hashes, updated O(1) per touched
//!   account), combined as a hash over the 64 cached bucket roots in
//!   bucket order. Only buckets dirtied since the last call are
//!   re-derived, so per-block commitment cost is proportional to touched
//!   accounts, not total accounts.
//!
//! The lattice is materialised lazily: a state carries none until its
//! first [`WorldState::sharded_root`], which builds it in one pass over
//! the accounts, their leaf hashes sixteen at a time; from then on it is
//! maintained per mutation, one leaf hash at a time, and travels
//! with every clone. A state that only ever seals under the flat v1 root
//! never hashes an account leaf.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use ici_crypto::sha256::{digest_each, Digest, Message, Sha256};

use crate::block::Block;
use crate::shard::{self, STATE_BUCKETS};
use crate::transaction::{Address, Transaction};

/// Balance and sequence number of one account.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccountState {
    /// Spendable balance.
    pub balance: u64,
    /// Next expected transaction nonce.
    pub nonce: u64,
}

/// Reasons a transaction is rejected by state execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// Sender balance below `amount + fee`.
    InsufficientBalance {
        /// Sender address.
        sender: Address,
        /// Balance available.
        available: u64,
        /// Amount plus fee required.
        required: u64,
    },
    /// Transaction nonce is not the sender's next nonce.
    BadNonce {
        /// Sender address.
        sender: Address,
        /// Nonce expected by the state.
        expected: u64,
        /// Nonce carried by the transaction.
        actual: u64,
    },
    /// Signature verification failed.
    BadSignature,
    /// `amount + fee` overflowed.
    AmountOverflow,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::InsufficientBalance {
                sender,
                available,
                required,
            } => write!(
                f,
                "insufficient balance for {sender}: have {available}, need {required}"
            ),
            StateError::BadNonce {
                sender,
                expected,
                actual,
            } => write!(
                f,
                "bad nonce for {sender}: expected {expected}, got {actual}"
            ),
            StateError::BadSignature => f.write_str("invalid transaction signature"),
            StateError::AmountOverflow => f.write_str("amount + fee overflows"),
        }
    }
}

impl Error for StateError {}

/// Which state commitment a block header carries.
///
/// v1 is the default everywhere so existing committed records stay
/// byte-identical; the scale tier opts into v2 explicitly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StateCommitment {
    /// Flat SHA-256 over all accounts (domain tag `ici-state-v1:`).
    #[default]
    FlatV1,
    /// Bucketed lattice commitment (domain tag `ici-state-v2:`).
    ShardedV2,
}

/// Domain tag for per-account leaf hashes of the v2 commitment.
const ACCT_TAG: &[u8] = b"ici-state-v2-acct:";
/// Domain tag for per-bucket roots of the v2 commitment.
const BUCKET_TAG: &[u8] = b"ici-state-v2-bucket:";
/// Domain tag for the combined v2 root.
const COMBINED_TAG: &[u8] = b"ici-state-v2:";

/// Hash contributed by one account to its bucket accumulator: the
/// SHA-256 of [`write_acct`]'s 54 bytes.
fn acct_hash(address: &Address, acct: &AccountState) -> Digest {
    let mut h = Sha256::new();
    h.update(ACCT_TAG);
    h.update(address.as_bytes());
    h.update(&acct.balance.to_be_bytes());
    h.update(&acct.nonce.to_be_bytes());
    h.finalize()
}

/// Writes the message [`acct_hash`] hashes, for the batched build.
fn write_acct((address, acct): (&Address, &AccountState), message: &mut Message) {
    message.put(ACCT_TAG);
    message.put(address.as_bytes());
    message.put(&acct.balance.to_be_bytes());
    message.put(&acct.nonce.to_be_bytes());
}

/// Order-independent lattice accumulator over the account hashes of one
/// logical bucket: four wrapping u64 lanes plus a live-account count.
/// `add` and `sub` are exact inverses, so updating an account is
/// sub(old) + add(new) — O(1) regardless of bucket size. An account
/// contributes iff it has a slot, which keeps the accumulator in
/// lockstep with the table (accounts are created, never deleted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct BucketAcc {
    sum: [u64; 4],
    count: u64,
}

impl BucketAcc {
    fn lanes(digest: &Digest) -> [u64; 4] {
        let bytes = digest.as_bytes();
        let mut lanes = [0u64; 4];
        for (i, lane) in lanes.iter_mut().enumerate() {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            *lane = u64::from_le_bytes(word);
        }
        lanes
    }

    fn add(&mut self, digest: &Digest) {
        for (lane, d) in self.sum.iter_mut().zip(Self::lanes(digest)) {
            *lane = lane.wrapping_add(d);
        }
    }

    fn sub(&mut self, digest: &Digest) {
        for (lane, d) in self.sum.iter_mut().zip(Self::lanes(digest)) {
            *lane = lane.wrapping_sub(d);
        }
    }

    fn root(&self, bucket: u32) -> Digest {
        let mut h = Sha256::new();
        h.update(BUCKET_TAG);
        h.update(&bucket.to_be_bytes());
        h.update(&self.count.to_be_bytes());
        for lane in &self.sum {
            h.update(&lane.to_be_bytes());
        }
        h.finalize()
    }
}

/// The v2 commitment's bookkeeping, held only by states that have been
/// asked for [`WorldState::sharded_root`].
#[derive(Clone, Debug)]
struct Lattice {
    /// Accumulator per logical bucket (always [`STATE_BUCKETS`]).
    acc: Vec<BucketAcc>,
    /// Cached bucket roots; `None` marks a bucket dirtied since the last
    /// [`WorldState::sharded_root`] call.
    cached: Vec<Option<Digest>>,
}

impl Lattice {
    /// Accumulates every account of the table — one leaf hash each, in
    /// slot order (the sums do not depend on it), hashed sixteen
    /// accounts at a time ([`digest_each`]).
    fn build(keys: &[Address], values: &[AccountState]) -> Lattice {
        ici_telemetry::counter_add("state/lattice_builds", ici_telemetry::Label::Global, 1);
        let mut lattice = Lattice {
            acc: vec![BucketAcc::default(); STATE_BUCKETS],
            cached: vec![None; STATE_BUCKETS],
        };
        let leaves = digest_each(keys.iter().zip(values), write_acct);
        for (address, leaf) in keys.iter().zip(leaves) {
            lattice.add(address, &leaf);
        }
        lattice
    }

    /// Counts a new account holding `acct` into its bucket.
    fn insert(&mut self, address: &Address, acct: &AccountState) {
        self.add(address, &acct_hash(address, acct));
    }

    /// Counts a new account whose leaf hash is `leaf` into its bucket.
    fn add(&mut self, address: &Address, leaf: &Digest) {
        let bucket = shard::bucket_of(address);
        self.acc[bucket].add(leaf);
        self.acc[bucket].count += 1;
        self.cached[bucket] = None;
    }
}

/// Runs `f` on `acct`, the account of `address`. With a lattice this
/// also moves the account's leaf hash in its bucket accumulator (sub
/// old, add new) and marks the bucket dirty.
fn update_in<F: FnOnce(&mut AccountState)>(
    lattice: &mut Option<Lattice>,
    address: &Address,
    acct: &mut AccountState,
    f: F,
) {
    let Some(lattice) = lattice else {
        f(acct);
        return;
    };
    let bucket = shard::bucket_of(address);
    lattice.acc[bucket].sub(&acct_hash(address, acct));
    f(acct);
    lattice.acc[bucket].add(&acct_hash(address, acct));
    lattice.cached[bucket] = None;
}

/// An empty [`Directory::index`] entry.
const EMPTY: u32 = u32::MAX;

/// Smallest index a non-empty directory allocates.
const MIN_INDEX: usize = 8;

/// Index length for `accounts` accounts: a power of two at least twice
/// as large, so linear probes stay short and always reach an `EMPTY`.
fn index_len_for(accounts: usize) -> usize {
    accounts
        .saturating_mul(2)
        .next_power_of_two()
        .max(MIN_INDEX)
}

/// An address's first eight bytes, big-endian: ordered like the address
/// itself, and uniform because addresses are SHA-256 output.
fn prefix(address: &Address) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&address.as_bytes()[..8]);
    u64::from_be_bytes(word)
}

/// Where the probe for `address` starts in an index of `mask + 1`
/// entries. The multiply spreads addresses that are not hash output
/// (hand-built test addresses) as well.
fn home(address: &Address, mask: usize) -> usize {
    (prefix(address).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// The key side of the account table: who owns each slot, how to find a
/// slot by address, and the slots in address order. Only account
/// creation changes it.
#[derive(Debug, Default)]
struct Directory {
    /// Address of each slot, in creation order.
    keys: Vec<Address>,
    /// Open-addressing index with linear probing, empty or a power of two
    /// at least twice `keys.len()`: an address's slot sits in the first
    /// entry from its [`home`] whose slot holds it, before any `EMPTY`.
    index: Vec<u32>,
    /// Every slot once, in ascending address order.
    order: Vec<u32>,
}

impl Clone for Directory {
    /// Only `Arc::make_mut` copies a directory, right before it creates
    /// an account, so the copy is made with room for that account.
    fn clone(&self) -> Directory {
        let room = self.keys.len() + 1;
        let mut keys = Vec::with_capacity(room);
        keys.extend_from_slice(&self.keys);
        let mut order = Vec::with_capacity(room);
        order.extend_from_slice(&self.order);
        let index = if index_len_for(room) > self.index.len() {
            Directory::index_of(&keys, index_len_for(room))
        } else {
            self.index.clone()
        };
        Directory { keys, index, order }
    }
}

impl Directory {
    /// The slot holding `address`, if any.
    fn find(&self, address: &Address) -> Option<usize> {
        let mask = self.index.len().checked_sub(1)?;
        let mut at = home(address, mask);
        loop {
            let slot = self.index[at];
            if slot == EMPTY {
                return None;
            }
            if self.keys[slot as usize] == *address {
                return Some(slot as usize);
            }
            at = (at + 1) & mask;
        }
    }

    /// Records `slot` (already in `keys`) in `index`.
    fn index_slot(index: &mut [u32], keys: &[Address], slot: u32) {
        let mask = index.len() - 1;
        let mut at = home(&keys[slot as usize], mask);
        while index[at] != EMPTY {
            at = (at + 1) & mask;
        }
        index[at] = slot;
    }

    /// An index of `len` entries over every slot of `keys`.
    fn index_of(keys: &[Address], len: usize) -> Vec<u32> {
        let mut index = vec![EMPTY; len];
        for slot in 0..keys.len() {
            Directory::index_slot(&mut index, keys, slot as u32);
        }
        index
    }

    /// Gives `address` (absent) the next slot, leaving `order` alone.
    fn push(&mut self, address: Address) -> usize {
        let slot = self.keys.len();
        self.keys.push(address);
        if index_len_for(self.keys.len()) > self.index.len() {
            self.index = Directory::index_of(&self.keys, index_len_for(self.keys.len()));
        } else {
            Directory::index_slot(&mut self.index, &self.keys, slot as u32);
        }
        slot
    }

    /// Gives `address` (absent) the next slot and its place in `order`.
    fn insert(&mut self, address: Address) -> usize {
        let keys = &self.keys;
        let at = self
            .order
            .partition_point(|&slot| keys[slot as usize] < address);
        let slot = self.push(address);
        self.order.insert(at, slot as u32);
        slot
    }

    /// Every address of `keys` once, in ascending order, as the slot of
    /// its first entry: a sort of (prefix, slot) pairs, so the
    /// comparisons read one contiguous array instead of chasing slots
    /// through `keys`, with the full address breaking prefix ties and
    /// the slot breaking address ties. Each later entry of a repeated
    /// address is handed to `repeat` as `(first, later)`, in slot order,
    /// and left out.
    fn sorted_slots(keys: &[Address], mut repeat: impl FnMut(u32, u32)) -> Vec<u32> {
        let mut pairs: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(slot, address)| (prefix(address), slot as u32))
            .collect();
        pairs.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| keys[a.1 as usize].cmp(&keys[b.1 as usize]))
                .then(a.1.cmp(&b.1))
        });
        // Only entries with equal prefixes can be one address.
        pairs.dedup_by(|later, first| {
            let same = later.0 == first.0 && keys[later.1 as usize] == keys[first.1 as usize];
            if same {
                repeat(first.1, later.1);
            }
            same
        });
        pairs.into_iter().map(|(_, slot)| slot).collect()
    }

    /// Removes the `dropped` slots (none in `order`) from `keys` and
    /// `values`, moving every later slot down to close the gaps, and
    /// renumbers `order` to match.
    fn drop_slots(
        keys: &mut Vec<Address>,
        values: &mut Vec<AccountState>,
        order: &mut [u32],
        dropped: &[u32],
    ) {
        // `moved[slot]`: the slot's number once the gaps are closed.
        let mut moved = vec![0u32; keys.len()];
        for &slot in dropped {
            moved[slot as usize] = EMPTY;
        }
        for (slot, kept) in moved.iter_mut().filter(|slot| **slot != EMPTY).zip(0..) {
            *slot = kept;
        }
        let mut slots = moved.iter();
        keys.retain(|_| slots.next() != Some(&EMPTY));
        let mut slots = moved.iter();
        values.retain(|_| slots.next() != Some(&EMPTY));
        for slot in order {
            *slot = moved[*slot as usize];
        }
    }
}

/// The full account state, keyed by address: one flat table (see the
/// module docs for its layout).
///
/// A slot number is never reused or moved, and there are fewer than
/// 2³² − 1 of them.
#[derive(Clone, Debug, Default)]
pub struct WorldState {
    /// Addresses, index and address order: shared between clones until
    /// one of them creates an account.
    dir: Arc<Directory>,
    /// Balances and nonces, by slot: shared between clones until one of
    /// them writes.
    values: Arc<Vec<AccountState>>,
    /// `None` until the first [`WorldState::sharded_root`]; maintained
    /// per mutation from then on, and carried by clones.
    lattice: Option<Lattice>,
}

impl PartialEq for WorldState {
    /// Content equality: two states are equal when they hold the same
    /// accounts, whether or not either carries a lattice and whatever
    /// slots the accounts sit in.
    fn eq(&self, other: &WorldState) -> bool {
        if Arc::ptr_eq(&self.dir, &other.dir) {
            return self.values == other.values;
        }
        self.len() == other.len() && self.accounts().eq(other.accounts())
    }
}

impl Eq for WorldState {}

/// Bytes one account contributes to the v1 root.
const V1_LEAF: usize = 36;

/// Accounts [`WorldState::root`] hands the hasher per call.
const V1_CHUNK: usize = 64;

impl WorldState {
    /// An empty state.
    pub fn new() -> WorldState {
        WorldState::default()
    }

    /// Creates a state with the given initial balances (nonces zero); a
    /// repeated address keeps the slot of its first entry and the balance
    /// of its last, as crediting the entries one by one into an empty
    /// state would leave them.
    ///
    /// Built without a per-account probe: every entry is pushed (sized
    /// once from the iterator's lower size bound), one sort of (prefix,
    /// slot) pairs gives the address order, repeated addresses are
    /// settled in that sorted pass, and the index is filled in one pass
    /// at the end.
    pub fn with_balances<I>(balances: I) -> WorldState
    where
        I: IntoIterator<Item = (Address, u64)>,
    {
        let balances = balances.into_iter();
        let hint = balances.size_hint().0;
        let mut keys = Vec::with_capacity(hint);
        let mut values = Vec::with_capacity(hint);
        for (address, balance) in balances {
            keys.push(address);
            values.push(AccountState { balance, nonce: 0 });
        }
        // A repeated address's first slot keeps its place and takes the
        // last entry's balance.
        let mut repeated = Vec::new();
        let mut order = Directory::sorted_slots(&keys, |first, later| {
            values[first as usize] = values[later as usize];
            repeated.push(later);
        });
        if !repeated.is_empty() {
            Directory::drop_slots(&mut keys, &mut values, &mut order, &repeated);
        }
        keys.shrink_to_fit();
        values.shrink_to_fit();
        let index = if keys.is_empty() {
            Vec::new()
        } else {
            Directory::index_of(&keys, index_len_for(keys.len()))
        };
        WorldState {
            dir: Arc::new(Directory { keys, index, order }),
            values: Arc::new(values),
            lattice: None,
        }
    }

    // Kept for the frozen benchmark only: `benchmark/src/surface.rs`
    // still passes a shard count, which is ignored — the state is one
    // table. The next `benchmark` PR calls `with_balances` and removes
    // this shim with the `ici-par` ones; nothing in this repository may
    // call it.
    #[doc(hidden)]
    pub fn with_balances_sharded<I>(balances: I, _shard_count: usize) -> WorldState
    where
        I: IntoIterator<Item = (Address, u64)>,
    {
        WorldState::with_balances(balances)
    }

    /// Iterates all accounts in address order.
    pub fn accounts(&self) -> impl Iterator<Item = (&Address, &AccountState)> {
        let (keys, values) = (&self.dir.keys, &self.values);
        self.dir
            .order
            .iter()
            .map(move |&slot| (&keys[slot as usize], &values[slot as usize]))
    }

    /// The slot of `address`, created (zero balance and nonce) if absent.
    fn slot_or_create(&mut self, address: Address) -> usize {
        if let Some(slot) = self.dir.find(&address) {
            return slot;
        }
        let slot = Arc::make_mut(&mut self.dir).insert(address);
        let acct = AccountState::default();
        Arc::make_mut(&mut self.values).push(acct);
        if let Some(lattice) = &mut self.lattice {
            lattice.insert(&address, &acct);
        }
        slot
    }

    /// Read-modify-write on one account; absent accounts start from the
    /// default (zero) state.
    fn update_account<F: FnOnce(&mut AccountState)>(&mut self, address: Address, f: F) {
        let slot = self.slot_or_create(address);
        let values = Arc::make_mut(&mut self.values);
        update_in(&mut self.lattice, &address, &mut values[slot], f);
    }

    /// Looks up an account, returning the default (zero) state if absent.
    pub fn account(&self, address: &Address) -> AccountState {
        self.dir
            .find(address)
            .map_or_else(AccountState::default, |slot| self.values[slot])
    }

    /// Balance shortcut.
    pub fn balance(&self, address: &Address) -> u64 {
        self.account(address).balance
    }

    /// Next-nonce shortcut.
    pub fn nonce(&self, address: &Address) -> u64 {
        self.account(address).nonce
    }

    /// Number of accounts with recorded state.
    pub fn len(&self) -> usize {
        self.dir.keys.len()
    }

    /// Whether no account has recorded state.
    pub fn is_empty(&self) -> bool {
        self.dir.keys.is_empty()
    }

    /// Credits `amount` to `address` (used for genesis allocations and fee
    /// payouts).
    pub fn credit(&mut self, address: Address, amount: u64) {
        self.update_account(address, |acct| {
            acct.balance = acct.balance.saturating_add(amount);
        });
    }

    /// Validates `tx` against the current state without mutating it.
    ///
    /// # Errors
    ///
    /// Any [`StateError`] the transaction would trigger.
    pub fn check(&self, tx: &Transaction) -> Result<(), StateError> {
        if !tx.verify_signature() {
            return Err(StateError::BadSignature);
        }
        self.check_presigned(tx).map(|_sender| ())
    }

    /// [`WorldState::check`] minus signature verification. Returns the
    /// sender address it derived and the sender's slot (`None` for a
    /// sender without one, which only a zero-value transfer passes), for
    /// the mutation that follows.
    fn check_presigned(&self, tx: &Transaction) -> Result<(Address, Option<usize>), StateError> {
        let sender = tx.sender_address();
        let slot = self.dir.find(&sender);
        let account = slot.map_or_else(AccountState::default, |slot| self.values[slot]);
        if tx.nonce() != account.nonce {
            return Err(StateError::BadNonce {
                sender,
                expected: account.nonce,
                actual: tx.nonce(),
            });
        }
        let required = tx
            .amount()
            .checked_add(tx.fee())
            .ok_or(StateError::AmountOverflow)?;
        if account.balance < required {
            return Err(StateError::InsufficientBalance {
                sender,
                available: account.balance,
                required,
            });
        }
        Ok((sender, slot))
    }

    /// Moves the checked transaction's funds (debit the sender
    /// [`WorldState::check_presigned`] found; credit recipient and fee
    /// collector). Every account involved gets its slot first, so the
    /// three writes share one copy-on-write check.
    fn apply_mutations(
        &mut self,
        tx: &Transaction,
        (sender, slot): (Address, Option<usize>),
        fee_collector: Address,
    ) {
        let sender_slot = match slot {
            Some(slot) => slot,
            None => self.slot_or_create(sender),
        };
        let recipient = tx.recipient();
        let recipient_slot = self.slot_or_create(recipient);
        let collector_slot = (tx.fee() > 0).then(|| self.slot_or_create(fee_collector));
        let values = Arc::make_mut(&mut self.values);
        let lattice = &mut self.lattice;
        update_in(lattice, &sender, &mut values[sender_slot], |acct| {
            acct.balance -= tx.amount() + tx.fee();
            acct.nonce += 1;
        });
        update_in(lattice, &recipient, &mut values[recipient_slot], |acct| {
            acct.balance = acct.balance.saturating_add(tx.amount());
        });
        if let Some(slot) = collector_slot {
            update_in(lattice, &fee_collector, &mut values[slot], |acct| {
                acct.balance = acct.balance.saturating_add(tx.fee());
            });
        }
    }

    /// Applies `tx`, transferring `amount` to the recipient and `fee` to
    /// `fee_collector`.
    ///
    /// # Errors
    ///
    /// Fails (leaving the state untouched) under the same conditions as
    /// [`WorldState::check`].
    pub fn apply(&mut self, tx: &Transaction, fee_collector: Address) -> Result<(), StateError> {
        if !tx.verify_signature() {
            return Err(StateError::BadSignature);
        }
        let sender = self.check_presigned(tx)?;
        self.apply_mutations(tx, sender, fee_collector);
        Ok(())
    }

    /// Applies every transaction of `block` in order, paying fees to the
    /// proposer's derived address.
    ///
    /// # Errors
    ///
    /// Stops at the first failing transaction, returning its index and
    /// error; earlier transactions remain applied (callers validate on a
    /// clone first — see [`crate::validation`]).
    pub fn apply_block(&mut self, block: &Block) -> Result<(), (usize, StateError)> {
        let collector = Address::from_seed(block.header().proposer);
        for (i, tx) in block.transactions().iter().enumerate() {
            self.apply(tx, collector).map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// A canonical commitment to the full state: the SHA-256 over all
    /// `(address, balance, nonce)` triples in address order.
    ///
    /// This is the flat v1 commitment — O(total accounts). The triples
    /// reach the hasher `V1_CHUNK` at a time, laid out in one buffer.
    pub fn root(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"ici-state-v1:");
        let mut buf = [0u8; V1_LEAF * V1_CHUNK];
        for chunk in self.dir.order.chunks(V1_CHUNK) {
            for (leaf, &slot) in buf.chunks_exact_mut(V1_LEAF).zip(chunk) {
                let acct = &self.values[slot as usize];
                leaf[..20].copy_from_slice(self.dir.keys[slot as usize].as_bytes());
                leaf[20..28].copy_from_slice(&acct.balance.to_be_bytes());
                leaf[28..].copy_from_slice(&acct.nonce.to_be_bytes());
            }
            h.update(&buf[..chunk.len() * V1_LEAF]);
        }
        h.finalize()
    }

    /// Number of logical buckets whose cached v2 root is stale — the
    /// work the next [`WorldState::sharded_root`] call will do.
    pub fn dirty_buckets(&self) -> usize {
        self.lattice.as_ref().map_or(STATE_BUCKETS, |lattice| {
            lattice.cached.iter().filter(|c| c.is_none()).count()
        })
    }

    /// The incremental v2 commitment: re-derives only the bucket roots
    /// dirtied since the last call (cost proportional to touched
    /// buckets, never total accounts) and hashes the 64 bucket roots in
    /// bucket order under the `ici-state-v2:` domain tag.
    ///
    /// The first call on a state (or on a clone of a state that never
    /// had one) builds the lattice: one leaf hash per account, once.
    pub fn sharded_root(&mut self) -> Digest {
        let Lattice { acc, cached } = self
            .lattice
            .get_or_insert_with(|| Lattice::build(&self.dir.keys, &self.values));
        let mut recomputed = 0u64;
        for (bucket, slot) in cached.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(acc[bucket].root(bucket as u32));
                recomputed += 1;
            }
        }
        ici_telemetry::counter_add(
            "state/bucket_roots_recomputed",
            ici_telemetry::Label::Global,
            recomputed,
        );
        let mut h = Sha256::new();
        h.update(COMBINED_TAG);
        h.update(&(STATE_BUCKETS as u32).to_be_bytes());
        for slot in cached.iter() {
            if let Some(digest) = slot {
                h.update(digest.as_bytes());
            }
        }
        h.finalize()
    }

    /// The commitment selected by `mode` (v1 flat or v2 sharded).
    pub fn root_for(&mut self, mode: StateCommitment) -> Digest {
        match mode {
            StateCommitment::FlatV1 => self.root(),
            StateCommitment::ShardedV2 => self.sharded_root(),
        }
    }

    /// Total supply across all accounts (conserved by [`WorldState::apply`]).
    pub fn total_supply(&self) -> u64 {
        self.values.iter().map(|a| a.balance).sum()
    }
}

/// The bookkeeping this module shipped before the flat table and the
/// lazy lattice — accounts in a `BTreeMap`, accumulators from
/// construction on, two leaf hashes moved by every mutation whether or
/// not anyone asks for the v2 root — kept as the reference the
/// differential test below compares [`WorldState`] against.
#[cfg(test)]
#[derive(Clone)]
struct EagerState {
    accounts: std::collections::BTreeMap<Address, AccountState>,
    acc: Vec<BucketAcc>,
    cached: Vec<Option<Digest>>,
}

#[cfg(test)]
impl EagerState {
    fn with_balances(balances: &[(Address, u64)]) -> EagerState {
        let mut state = EagerState {
            accounts: std::collections::BTreeMap::new(),
            acc: vec![BucketAcc::default(); STATE_BUCKETS],
            cached: vec![None; STATE_BUCKETS],
        };
        for &(addr, balance) in balances {
            state.update_account(addr, |acct| *acct = AccountState { balance, nonce: 0 });
        }
        state
    }

    fn update_account<F: FnOnce(&mut AccountState)>(&mut self, address: Address, f: F) {
        let bucket = shard::bucket_of(&address);
        match self.accounts.entry(address) {
            std::collections::btree_map::Entry::Occupied(mut occupied) => {
                let old = acct_hash(&address, occupied.get());
                f(occupied.get_mut());
                let new = acct_hash(&address, occupied.get());
                self.acc[bucket].sub(&old);
                self.acc[bucket].add(&new);
            }
            std::collections::btree_map::Entry::Vacant(vacant) => {
                let mut acct = AccountState::default();
                f(&mut acct);
                let new = acct_hash(&address, vacant.insert(acct));
                self.acc[bucket].add(&new);
                self.acc[bucket].count += 1;
            }
        }
        self.cached[bucket] = None;
    }

    fn credit(&mut self, address: Address, amount: u64) {
        self.update_account(address, |acct| {
            acct.balance = acct.balance.saturating_add(amount);
        });
    }

    fn apply(&mut self, tx: &Transaction, fee_collector: Address) -> Result<(), StateError> {
        if !tx.sender().verify(&tx.signing_bytes(), tx.signature()) {
            return Err(StateError::BadSignature);
        }
        let sender = tx.sender_address();
        let account = self.accounts.get(&sender).copied().unwrap_or_default();
        if tx.nonce() != account.nonce {
            return Err(StateError::BadNonce {
                sender,
                expected: account.nonce,
                actual: tx.nonce(),
            });
        }
        let required = tx
            .amount()
            .checked_add(tx.fee())
            .ok_or(StateError::AmountOverflow)?;
        if account.balance < required {
            return Err(StateError::InsufficientBalance {
                sender,
                available: account.balance,
                required,
            });
        }
        self.update_account(sender, |acct| {
            acct.balance -= required;
            acct.nonce += 1;
        });
        self.credit(tx.recipient(), tx.amount());
        if tx.fee() > 0 {
            self.credit(fee_collector, tx.fee());
        }
        Ok(())
    }

    fn root(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"ici-state-v1:");
        for (addr, acct) in &self.accounts {
            h.update(addr.as_bytes());
            h.update(&acct.balance.to_be_bytes());
            h.update(&acct.nonce.to_be_bytes());
        }
        h.finalize()
    }

    fn dirty_buckets(&self) -> usize {
        self.cached.iter().filter(|c| c.is_none()).count()
    }

    fn total_supply(&self) -> u64 {
        self.accounts.values().map(|a| a.balance).sum()
    }

    fn sharded_root(&mut self) -> Digest {
        for (bucket, slot) in self.cached.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(self.acc[bucket].root(bucket as u32));
            }
        }
        let mut h = Sha256::new();
        h.update(COMBINED_TAG);
        h.update(&(STATE_BUCKETS as u32).to_be_bytes());
        for digest in self.cached.iter().flatten() {
            h.update(digest.as_bytes());
        }
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_crypto::sig::Keypair;

    fn funded(seed: u64, balance: u64) -> (Keypair, WorldState) {
        let pair = Keypair::from_seed(seed);
        let state = WorldState::with_balances([(Address::from_seed(seed), balance)]);
        (pair, state)
    }

    fn transfer(from: &Keypair, to: Address, amount: u64, fee: u64, nonce: u64) -> Transaction {
        Transaction::signed(from, to, amount, fee, nonce, Vec::new())
    }

    #[test]
    fn simple_transfer_moves_funds_and_bumps_nonce() {
        let (alice, mut state) = funded(1, 100);
        let bob = Address::from_seed(2);
        let collector = Address::from_seed(99);
        state
            .apply(&transfer(&alice, bob, 30, 5, 0), collector)
            .expect("valid transfer");
        assert_eq!(state.balance(&Address::from_seed(1)), 65);
        assert_eq!(state.balance(&bob), 30);
        assert_eq!(state.balance(&collector), 5);
        assert_eq!(state.nonce(&Address::from_seed(1)), 1);
    }

    #[test]
    fn insufficient_balance_is_rejected_without_mutation() {
        let (alice, mut state) = funded(1, 10);
        let before = state.clone();
        let err = state
            .apply(
                &transfer(&alice, Address::from_seed(2), 30, 5, 0),
                Address::from_seed(99),
            )
            .expect_err("should fail");
        assert!(matches!(
            err,
            StateError::InsufficientBalance { required: 35, .. }
        ));
        assert_eq!(state, before);
    }

    #[test]
    fn wrong_nonce_is_rejected() {
        let (alice, mut state) = funded(1, 100);
        let err = state
            .apply(
                &transfer(&alice, Address::from_seed(2), 1, 0, 5),
                Address::from_seed(99),
            )
            .expect_err("should fail");
        assert!(matches!(
            err,
            StateError::BadNonce {
                expected: 0,
                actual: 5,
                ..
            }
        ));
    }

    #[test]
    fn replay_is_rejected_by_nonce() {
        let (alice, mut state) = funded(1, 100);
        let tx = transfer(&alice, Address::from_seed(2), 10, 0, 0);
        let collector = Address::from_seed(99);
        state.apply(&tx, collector).expect("first apply");
        let err = state.apply(&tx, collector).expect_err("replay");
        assert!(matches!(err, StateError::BadNonce { .. }));
    }

    #[test]
    fn bad_signature_is_rejected() {
        let (_, mut state) = funded(1, 100);
        // Sign with a key that does not match the claimed sender by
        // constructing with a different pair then swapping: easiest is to
        // decode-modify, but the public API path is to check a tx whose
        // payload was altered after signing.
        let alice = Keypair::from_seed(1);
        let tx = transfer(&alice, Address::from_seed(2), 10, 0, 0);
        let mut bytes = crate::codec::Encode::to_bytes(&tx);
        // Flip a byte in the amount field (offset: 33 pk + 20 addr = 53).
        bytes[53 + 7] ^= 0x01;
        let forged = <Transaction as crate::codec::Decode>::from_bytes(&bytes).expect("decodes");
        assert_eq!(
            state.apply(&forged, Address::from_seed(99)),
            Err(StateError::BadSignature)
        );
    }

    #[test]
    fn amount_overflow_is_rejected() {
        let (alice, state) = funded(1, u64::MAX);
        let tx = transfer(&alice, Address::from_seed(2), u64::MAX, 1, 0);
        assert_eq!(state.check(&tx), Err(StateError::AmountOverflow));
    }

    #[test]
    fn total_supply_is_conserved() {
        let (alice, mut state) = funded(1, 1000);
        let supply = state.total_supply();
        state
            .apply(
                &transfer(&alice, Address::from_seed(2), 100, 7, 0),
                Address::from_seed(3),
            )
            .expect("valid");
        assert_eq!(state.total_supply(), supply);
    }

    #[test]
    fn root_is_order_independent_but_content_sensitive() {
        let a =
            WorldState::with_balances([(Address::from_seed(1), 10), (Address::from_seed(2), 20)]);
        let b =
            WorldState::with_balances([(Address::from_seed(2), 20), (Address::from_seed(1), 10)]);
        assert_eq!(a.root(), b.root());

        let c =
            WorldState::with_balances([(Address::from_seed(1), 11), (Address::from_seed(2), 20)]);
        assert_ne!(a.root(), c.root());
    }

    #[test]
    fn empty_state_has_stable_root() {
        assert_eq!(WorldState::new().root(), WorldState::default().root());
        assert!(WorldState::new().is_empty());
    }

    #[test]
    fn self_transfer_keeps_balance_minus_fee() {
        let (alice, mut state) = funded(1, 100);
        let me = Address::from_seed(1);
        state
            .apply(&transfer(&alice, me, 40, 3, 0), Address::from_seed(99))
            .expect("valid");
        assert_eq!(state.balance(&me), 97);
        assert_eq!(state.nonce(&me), 1);
    }

    #[test]
    fn fee_to_self_collector() {
        // A proposer including its own fee payout must still conserve supply.
        let (alice, mut state) = funded(1, 100);
        let collector = Address::from_seed(1);
        state
            .apply(
                &transfer(&alice, Address::from_seed(2), 10, 5, 0),
                collector,
            )
            .expect("valid");
        assert_eq!(state.balance(&Address::from_seed(1)), 90);
        assert_eq!(state.total_supply(), 100);
    }

    /// Both roots of a 200-account state, recorded at `4572569` where 1,
    /// 4 and 64 physical shards agreed on them.
    #[test]
    fn fixture_roots_are_pinned_and_domain_separated() {
        let mut state =
            WorldState::with_balances((0..200).map(|s| (Address::from_seed(s), 50 + s)));
        let (v1, v2) = (state.root(), state.sharded_root());
        assert_eq!(
            v1.to_hex(),
            "50442fb039687f0c21c7ca4ce664a07e0fe2513ccb11cdb0e2d61f7f898d34dd"
        );
        assert_eq!(
            v2.to_hex(),
            "41a84b0706150fe358faa4200bf602a0787bd33e127119865228ea4507858f00"
        );
        assert_ne!(v1, v2, "domain tags must separate v1 and v2");
    }

    #[test]
    fn sharded_root_tracks_mutations_incrementally() {
        let mut state = WorldState::with_balances((0..100).map(|s| (Address::from_seed(s), 1000)));
        let before = state.sharded_root();
        assert_eq!(state.dirty_buckets(), 0, "roots cached after computing");

        let alice = Keypair::from_seed(1);
        state
            .apply(
                &transfer(&alice, Address::from_seed(2), 10, 1, 0),
                Address::from_seed(99),
            )
            .expect("valid");
        let touched = state.dirty_buckets();
        assert!(
            (1..=3).contains(&touched),
            "a transfer touches at most sender+recipient+collector buckets, got {touched}"
        );
        let after = state.sharded_root();
        assert_ne!(before, after, "v2 root must react to mutation");

        // A from-scratch rebuild of the same contents agrees — the
        // incremental accumulators match a full recompute.
        let mut rebuilt = WorldState::with_balances(
            state
                .accounts()
                .map(|(a, st)| (*a, st.balance))
                .collect::<Vec<_>>(),
        );
        // Replay the nonce bump the transfer made.
        let replayed = state.nonce(&Address::from_seed(1));
        assert_eq!(replayed, 1);
        rebuilt.update_account(Address::from_seed(1), |acct| acct.nonce = 1);
        assert_eq!(rebuilt.sharded_root(), after);
    }

    /// Both roots of the empty state, recorded at `4572569`.
    #[test]
    fn v2_root_is_empty_state_stable() {
        let mut empty = WorldState::new();
        assert_eq!(
            empty.root().to_hex(),
            "7ecdc243ddec35ed4e18b557e0644b0dbfa80abcbb846a6b9bb1193735040a72"
        );
        assert_eq!(
            empty.sharded_root().to_hex(),
            "ad77fac35f713c019f08ea06f38be1bfb5c0159a7bd3bd8f488d5ccaf832f56c"
        );
    }

    /// `eager`'s contents rebuilt through `with_balances` in reverse
    /// address order, so every account sits in a different slot than in
    /// a state that grew them one by one.
    fn rebuilt(eager: &EagerState) -> WorldState {
        let mut state =
            WorldState::with_balances(eager.accounts.iter().rev().map(|(a, s)| (*a, s.balance)));
        for (address, acct) in &eager.accounts {
            if acct.nonce > 0 {
                state.update_account(*address, |a| a.nonce = acct.nonce);
            }
        }
        state
    }

    /// Hand-built address `member` of prefix group `group`: the members
    /// of a group share their first eight bytes, so their probes start
    /// at the same index entry and only the last twelve bytes tell them
    /// apart.
    fn twin(group: u8, member: u8) -> Address {
        let mut bytes = [0x5Au8; 20];
        bytes[0] = group.wrapping_mul(0x47);
        bytes[8..12].copy_from_slice(&u32::from(member).to_be_bytes());
        bytes[19] = member;
        Address(bytes)
    }

    /// `with_balances` against the loop it replaced, one probe an entry:
    /// a repeated address overwrites its slot's balance, a new one is
    /// pushed and inserted into the order. Slots, values, order and
    /// lookups agree, over seeded addresses and prefix-sharing twins,
    /// each repeated up to three times.
    #[test]
    fn bulk_balances_match_the_per_insert_loop() {
        use ici_rng::Xoshiro256;

        let mut rng = Xoshiro256::seed_from_u64(0xB01C);
        for n in [0u64, 1, 2, 7, 40, 300] {
            let entries: Vec<(Address, u64)> = (0..n)
                .map(|i| {
                    let pick = rng.gen_range(0..n.max(1) + 12);
                    let address = match pick.checked_sub(n.max(1)) {
                        Some(t) => twin((t % 3) as u8, (t / 3) as u8),
                        None => Address::from_seed(pick % (n / 3 + 1)),
                    };
                    (address, 1_000 + i)
                })
                .collect();
            let bulk = WorldState::with_balances(entries.iter().copied());
            let mut dir = Directory::default();
            let mut values = Vec::new();
            for &(address, balance) in &entries {
                let acct = AccountState { balance, nonce: 0 };
                match dir.find(&address) {
                    Some(slot) => values[slot] = acct,
                    None => {
                        dir.insert(address);
                        values.push(acct);
                    }
                }
            }
            assert_eq!(bulk.dir.keys, dir.keys, "n = {n}: keys by slot");
            assert_eq!(*bulk.values, values, "n = {n}: values by slot");
            assert_eq!(bulk.dir.order, dir.order, "n = {n}: order");
            for (slot, address) in dir.keys.iter().enumerate() {
                assert_eq!(bulk.dir.find(address), Some(slot), "n = {n}: index");
            }
            assert_eq!(bulk.dir.find(&twin(0, 200)), None, "n = {n}: a miss");
        }
    }

    /// Random interleavings of apply / credit / clone / account creation
    /// against the `BTreeMap` reference: a state rooted at construction,
    /// one rooted only at the end and the clones taken along the way
    /// agree with it after every step on both roots, the accounts in
    /// address order, `==` (against the same contents in other slots),
    /// total supply and dirty buckets. The universe mixes signing
    /// accounts with hand-built addresses that share their first eight
    /// bytes; the initial balances repeat addresses (the last one wins);
    /// accounts are created mid-stream, on clones too, while the
    /// original keeps its keys.
    #[test]
    fn lazy_lattice_matches_the_eager_reference() {
        use ici_rng::Xoshiro256;

        let universe = 24u64;
        let twins: Vec<Address> = (0..3u8)
            .flat_map(|group| (0..4u8).map(move |member| twin(group, member)))
            .collect();
        // Half the twins funded, three addresses funded twice.
        let mut funded: Vec<(Address, u64)> = (0..universe)
            .map(|s| (Address::from_seed(s), 500))
            .chain(twins.iter().step_by(2).map(|&a| (a, 300)))
            .collect();
        funded.push((Address::from_seed(3), 900));
        funded.push((twins[0], 40));
        funded.push((Address::from_seed(0), 700));
        // Recipients, collectors and credit targets: funded, unfunded
        // (created on first touch) and twins.
        let target = |rng: &mut Xoshiro256| {
            let pick = rng.gen_range(0..universe + 8 + twins.len() as u64);
            match pick.checked_sub(universe + 8) {
                Some(t) => twins[t as usize],
                None => Address::from_seed(pick),
            }
        };
        // Never created anywhere: a lookup must miss it, though its probe
        // starts where the group-0 twins' do.
        let ghost = twin(0, 200);

        let agree = |what: &str, lazy: &WorldState, eager: &EagerState| {
            assert_eq!(lazy.root(), eager.root(), "{what}: v1 root");
            assert!(
                lazy.accounts()
                    .map(|(a, s)| (*a, *s))
                    .eq(eager.accounts.iter().map(|(a, s)| (*a, *s))),
                "{what}: accounts in address order"
            );
            assert_eq!(lazy.len(), eager.accounts.len(), "{what}: len");
            assert_eq!(lazy.total_supply(), eager.total_supply(), "{what}: supply");
            for (address, acct) in &eager.accounts {
                assert_eq!(lazy.account(address), *acct, "{what}: lookup");
            }
            assert_eq!(lazy.account(&ghost), AccountState::default(), "{what}");
            let other = rebuilt(eager);
            assert!(*lazy == other, "{what}: == across slots");
            let mut richer = other.clone();
            richer.credit(*eager.accounts.keys().next().expect("funded"), 1);
            assert!(*lazy != richer, "{what}: != on a balance");
            let mut wider = other;
            wider.credit(ghost, 0);
            assert!(*lazy != wider, "{what}: != on an extra account");
            // On clones, so the states' own dirty sets carry on.
            let (mut lazy, mut eager) = (lazy.clone(), eager.clone());
            assert_eq!(lazy.sharded_root(), eager.sharded_root(), "{what}: v2 root");
        };
        for seed in 0..6u64 {
            let mut rng = Xoshiro256::seed_from_u64(seed * 31 + 1);
            let mut eager = EagerState::with_balances(&funded);
            // `early` builds its lattice before the first mutation,
            // `late` after the last one.
            let mut early = WorldState::with_balances(funded.iter().copied());
            let mut late = early.clone();
            agree("fresh", &early, &eager);
            assert_eq!(early.sharded_root(), eager.sharded_root());
            for step in 0..160u64 {
                let what = format!("seed {seed} step {step}");
                match rng.gen_range(0u32..10) {
                    0..=3 => {
                        let sender = rng.gen_range(0..universe);
                        let from = Address::from_seed(sender);
                        // Mostly the right nonce and an affordable
                        // amount; sometimes neither.
                        let nonce = early.nonce(&from) + u64::from(rng.gen_bool(0.1));
                        let tx = Transaction::signed(
                            &Keypair::from_seed(sender),
                            target(&mut rng),
                            rng.gen_range(0u64..400),
                            rng.gen_range(0u64..3),
                            nonce,
                            Vec::new(),
                        );
                        let collector = target(&mut rng);
                        let expected = eager.apply(&tx, collector);
                        assert_eq!(early.apply(&tx, collector), expected, "{what}");
                        assert_eq!(late.apply(&tx, collector), expected, "{what}");
                    }
                    4 | 5 => {
                        let to = target(&mut rng);
                        let amount = rng.gen_range(0u64..50);
                        eager.credit(to, amount);
                        early.credit(to, amount);
                        late.credit(to, amount);
                    }
                    6 | 7 => {
                        // A clone carries the lattice (or its absence)
                        // and diverges — by a new account or a write —
                        // without touching the original.
                        let (mut fork, mut late_fork, mut eager_fork) =
                            (early.clone(), late.clone(), eager.clone());
                        let to = match rng.gen_range(0u32..3) {
                            0 => Address::from_seed(1_000 + step),
                            1 => twin(rng.gen_range(0u32..3) as u8, 100 + (step % 96) as u8),
                            _ => Address::from_seed(rng.gen_range(0..universe)),
                        };
                        eager_fork.credit(to, 7);
                        fork.credit(to, 7);
                        late_fork.credit(to, 7);
                        agree(&what, &fork, &eager_fork);
                        agree(&what, &late_fork, &eager_fork);
                        assert_eq!(fork.dirty_buckets(), eager_fork.dirty_buckets(), "{what}");
                        assert_eq!(late_fork.dirty_buckets(), STATE_BUCKETS, "{what}");
                        assert!(fork != early, "{what}: the fork diverged");
                        if rng.gen_bool(0.5) {
                            early = early.clone();
                        }
                    }
                    8 => {
                        assert_eq!(early.sharded_root(), eager.sharded_root(), "{what}");
                        assert_eq!(early.dirty_buckets(), 0, "{what}: cache warm");
                    }
                    _ => {}
                }
                agree(&what, &early, &eager);
                agree(&what, &late, &eager);
                assert_eq!(early.dirty_buckets(), eager.dirty_buckets(), "{what}");
                assert_eq!(late.dirty_buckets(), STATE_BUCKETS, "{what}: never rooted");
                assert!(early == late, "{what}: lattice timing must not affect ==");
            }
            assert_eq!(early.sharded_root(), eager.sharded_root(), "end");
            assert_eq!(late.sharded_root(), early.sharded_root());
            assert_eq!(late.dirty_buckets(), 0);
        }
    }
}
