//! Block assembly.
//!
//! A proposer collects pending transactions, validates each against a
//! scratch copy of the state (so an invalid transaction never poisons a
//! proposal), and seals a block whose `state_root` commits to the
//! post-execution state.

use ici_crypto::sha256::WIDE;

use crate::block::{Block, BlockHeader, BlockId, Height};
use crate::codec::Encode;
use crate::state::{StateError, WorldState};
use crate::transaction::{Address, Transaction};

/// Incrementally assembles the next block.
///
/// # Examples
///
/// ```
/// use ici_chain::builder::BlockBuilder;
/// use ici_chain::genesis::GenesisConfig;
/// use ici_chain::transaction::{Address, Transaction};
/// use ici_crypto::sig::Keypair;
///
/// let genesis_cfg = GenesisConfig::uniform(4, 1_000);
/// let genesis = genesis_cfg.genesis_block();
/// let state = genesis_cfg.initial_state();
///
/// let mut builder = BlockBuilder::new(genesis.header(), state, 7, 1_000);
/// let tx = Transaction::signed(
///     &Keypair::from_seed(0), Address::from_seed(1), 10, 1, 0, Vec::new(),
/// );
/// builder.push(tx).expect("valid transaction");
/// let block = builder.seal();
/// assert_eq!(block.height(), 1);
/// assert_eq!(block.transactions().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct BlockBuilder {
    height: Height,
    parent: BlockId,
    proposer: u64,
    timestamp_ms: u64,
    state: WorldState,
    fee_collector: Address,
    transactions: Vec<Transaction>,
    body_len: usize,
    max_txs: usize,
    max_body_bytes: usize,
}

/// Why a transaction was not added to the block under construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The block already holds `max_txs` transactions.
    TxLimitReached(usize),
    /// Adding the transaction would exceed `max_body_bytes`.
    SizeLimitReached {
        /// Configured byte budget.
        limit: usize,
        /// Bytes already committed plus the candidate.
        would_be: usize,
    },
    /// The transaction fails state validation at this point in the block.
    Invalid(StateError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::TxLimitReached(n) => write!(f, "block already holds {n} transactions"),
            BuildError::SizeLimitReached { limit, would_be } => {
                write!(f, "body would be {would_be} bytes, limit {limit}")
            }
            BuildError::Invalid(e) => write!(f, "invalid transaction: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl BlockBuilder {
    /// Default per-block transaction cap.
    pub const DEFAULT_MAX_TXS: usize = 4_096;
    /// Default per-block body byte budget (1 MiB, Bitcoin-like).
    pub const DEFAULT_MAX_BODY_BYTES: usize = 1 << 20;

    /// Starts a block extending `parent`, executing against `state` (the
    /// post-state of `parent`), proposed by node `proposer` at
    /// `timestamp_ms`.
    pub fn new(
        parent: &BlockHeader,
        state: WorldState,
        proposer: u64,
        timestamp_ms: u64,
    ) -> BlockBuilder {
        BlockBuilder {
            height: parent.height + 1,
            parent: parent.id(),
            proposer,
            timestamp_ms,
            fee_collector: Address::from_seed(proposer),
            state,
            transactions: Vec::new(),
            body_len: 0,
            max_txs: BlockBuilder::DEFAULT_MAX_TXS,
            max_body_bytes: BlockBuilder::DEFAULT_MAX_BODY_BYTES,
        }
    }

    /// Overrides the transaction-count cap.
    pub fn max_txs(&mut self, max: usize) -> &mut BlockBuilder {
        self.max_txs = max;
        self
    }

    /// Overrides the body byte budget.
    pub fn max_body_bytes(&mut self, max: usize) -> &mut BlockBuilder {
        self.max_body_bytes = max;
        self
    }

    /// Transactions accepted so far.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether no transaction has been accepted.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Validates and appends `tx`.
    ///
    /// # Errors
    ///
    /// [`BuildError`] if a cap is hit or the transaction is invalid against
    /// the in-progress state; the builder is unchanged on error.
    pub fn push(&mut self, tx: Transaction) -> Result<(), BuildError> {
        if self.transactions.len() >= self.max_txs {
            return Err(BuildError::TxLimitReached(self.transactions.len()));
        }
        let tx_len = tx.encoded_len();
        let would_be = self.body_len + tx_len;
        if would_be > self.max_body_bytes {
            return Err(BuildError::SizeLimitReached {
                limit: self.max_body_bytes,
                would_be,
            });
        }
        self.state
            .apply(&tx, self.fee_collector)
            .map_err(BuildError::Invalid)?;
        self.body_len = would_be;
        self.transactions.push(tx);
        Ok(())
    }

    /// Fills the block greedily from `pending`, skipping transactions that
    /// fail, until a cap is reached. Returns how many were accepted.
    ///
    /// Room for `pending`'s lower size bound (at most what the
    /// transaction cap leaves) is reserved up front, so a full batch
    /// lands in one allocation.
    ///
    /// The result is [`BlockBuilder::push`] on each in turn, but the
    /// signatures are checked [`WIDE`] at a time
    /// ([`Transaction::verify_signatures`]): up to [`WIDE`] candidates
    /// that both caps can still take even if every one is accepted go
    /// into the body's reserved room, are checked together, and are
    /// applied in order, the rejected ones dropped. So no signature is
    /// checked that one-by-one pushing would not check. A candidate
    /// that might not fit, or one that finds no reserved room, is pushed
    /// on its own.
    pub fn fill<I>(&mut self, pending: I) -> usize
    where
        I: IntoIterator<Item = Transaction>,
    {
        let mut pending = pending.into_iter();
        let room = self.max_txs.saturating_sub(self.transactions.len());
        self.transactions.reserve(pending.size_hint().0.min(room));
        let mut accepted = 0;
        loop {
            let start = self.transactions.len();
            let slots = WIDE
                .min(self.max_txs.saturating_sub(start))
                .min(self.transactions.capacity() - start);
            let mut body_len = self.body_len;
            let mut unsure = None;
            while self.transactions.len() - start < slots {
                let Some(tx) = pending.next() else { break };
                let tx_len = tx.encoded_len();
                if body_len + tx_len > self.max_body_bytes {
                    unsure = Some(tx);
                    break;
                }
                body_len += tx_len;
                self.transactions.push(tx);
            }
            let candidates = self.transactions.len() - start;
            Transaction::verify_signatures(&self.transactions[start..]);
            let mut kept = start;
            for i in start..self.transactions.len() {
                let tx = &self.transactions[i];
                if self.state.apply(tx, self.fee_collector).is_ok() {
                    self.body_len += tx.encoded_len();
                    self.transactions.swap(kept, i);
                    kept += 1;
                }
            }
            self.transactions.truncate(kept);
            accepted += kept - start;

            let next = match unsure {
                Some(tx) => tx,
                None if candidates > 0 => continue,
                None => match pending.next() {
                    Some(tx) => tx,
                    None => break,
                },
            };
            match self.push(next) {
                Ok(()) => accepted += 1,
                Err(BuildError::Invalid(_)) => continue,
                Err(_) => break, // caps reached
            }
        }
        accepted
    }

    /// Seals the block, consuming the builder and dropping the
    /// post-state ([`BlockBuilder::seal_with_state`] keeps it).
    pub fn seal(self) -> Block {
        self.seal_with_state().0
    }

    /// Seals and also returns the post-state: the one the flat v1 root
    /// in the header was just computed on, moved out. Every proposer
    /// seals this way and commits that state, so the node that built a
    /// block never executes it a second time.
    pub fn seal_with_state(self) -> (Block, WorldState) {
        let _span = ici_telemetry::span!("chain/block_build");
        ici_telemetry::observe(
            "chain/block_txs",
            ici_telemetry::Label::Global,
            self.transactions.len() as u64,
        );
        let state_root = self.state.root();
        let block = Block::new(
            BlockHeader {
                height: self.height,
                parent: self.parent,
                tx_root: ici_crypto::sha256::Digest::ZERO, // filled by Block::new
                state_root,
                timestamp_ms: self.timestamp_ms,
                proposer: self.proposer,
                pow_nonce: 0,
                tx_count: 0,
                body_len: 0,
            },
            self.transactions,
        );
        (block, self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genesis::GenesisConfig;
    use ici_crypto::sig::Keypair;

    fn setup() -> (Block, WorldState) {
        let cfg = GenesisConfig::uniform(8, 10_000);
        (cfg.genesis_block(), cfg.initial_state())
    }

    fn transfer(seed: u64, nonce: u64, amount: u64) -> Transaction {
        Transaction::signed(
            &Keypair::from_seed(seed),
            Address::from_seed(seed + 1),
            amount,
            1,
            nonce,
            Vec::new(),
        )
    }

    #[test]
    fn sealed_block_links_to_parent() {
        let (genesis, state) = setup();
        let mut b = BlockBuilder::new(genesis.header(), state, 3, 500);
        b.push(transfer(0, 0, 10)).expect("valid");
        let block = b.seal();
        assert_eq!(block.height(), 1);
        assert_eq!(block.header().parent, genesis.id());
        assert_eq!(block.header().proposer, 3);
        assert_eq!(block.header().timestamp_ms, 500);
    }

    #[test]
    fn state_root_commits_to_execution() {
        let (genesis, state) = setup();
        let mut b = BlockBuilder::new(genesis.header(), state.clone(), 3, 500);
        b.push(transfer(0, 0, 10)).expect("valid");
        let (block, post) = b.seal_with_state();
        assert_eq!(block.header().state_root, post.root());
        assert_ne!(block.header().state_root, state.root());

        // Independent re-execution reaches the same root.
        let mut replay = state;
        replay.apply_block(&block).expect("replays");
        assert_eq!(replay.root(), block.header().state_root);
    }

    #[test]
    fn invalid_transactions_are_rejected_not_included() {
        let (genesis, state) = setup();
        let mut b = BlockBuilder::new(genesis.header(), state, 1, 0);
        // Overspend.
        let err = b.push(transfer(0, 0, 1_000_000)).expect_err("overspend");
        assert!(matches!(
            err,
            BuildError::Invalid(StateError::InsufficientBalance { .. })
        ));
        assert!(b.is_empty());
        // A valid one still goes through afterwards.
        b.push(transfer(0, 0, 10)).expect("valid");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn sequential_nonces_within_one_block() {
        let (genesis, state) = setup();
        let mut b = BlockBuilder::new(genesis.header(), state, 1, 0);
        b.push(transfer(0, 0, 10)).expect("nonce 0");
        b.push(transfer(0, 1, 10)).expect("nonce 1");
        let err = b.push(transfer(0, 1, 10)).expect_err("nonce reuse");
        assert!(matches!(
            err,
            BuildError::Invalid(StateError::BadNonce { .. })
        ));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn tx_cap_is_enforced() {
        let (genesis, state) = setup();
        let mut b = BlockBuilder::new(genesis.header(), state, 1, 0);
        b.max_txs(2);
        b.push(transfer(0, 0, 1)).expect("1st");
        b.push(transfer(1, 0, 1)).expect("2nd");
        assert_eq!(
            b.push(transfer(2, 0, 1)),
            Err(BuildError::TxLimitReached(2))
        );
    }

    #[test]
    fn byte_cap_is_enforced() {
        let (genesis, state) = setup();
        let mut b = BlockBuilder::new(genesis.header(), state, 1, 0);
        b.max_body_bytes(200);
        b.push(transfer(0, 0, 1)).expect("fits");
        let err = b.push(transfer(1, 0, 1)).expect_err("exceeds 200 bytes");
        assert!(matches!(err, BuildError::SizeLimitReached { .. }));
    }

    #[test]
    fn fill_skips_invalid_and_stops_at_caps() {
        let (genesis, state) = setup();
        let mut b = BlockBuilder::new(genesis.header(), state, 1, 0);
        b.max_txs(3);
        let pending = vec![
            transfer(0, 0, 10),
            transfer(0, 5, 10), // bad nonce — skipped
            transfer(1, 0, 10),
            transfer(2, 0, 10),
            transfer(3, 0, 10), // over the cap — fill stops
        ];
        let accepted = b.fill(pending);
        assert_eq!(accepted, 3);
        assert_eq!(b.len(), 3);
    }

    /// `fill` with its signatures checked sixteen wide is `push` one by
    /// one: over seeded streams mixing valid transfers, bad nonces,
    /// overspends, forged signatures and payloads up to 600 bytes (one
    /// length for a whole stream, or a length each), under
    /// transaction and byte caps that stop the fill early or never, fed
    /// by an iterator that sizes itself and by one that does not, the
    /// accepted count, the sealed block and the signature hashing
    /// (`crypto/sha256_compressions`) are the same.
    #[test]
    fn fill_matches_pushing_one_by_one() {
        use crate::codec::{Decode, Encode};
        use ici_rng::Xoshiro256;
        // Left on: nothing in this binary turns it off.
        ici_telemetry::set_enabled(true);
        let compressions = |f: &mut dyn FnMut() -> (usize, Block)| {
            ici_telemetry::reset();
            let out = f();
            let counted = ici_telemetry::snapshot()
                .counters
                .iter()
                .filter(|c| c.name == "crypto/sha256_compressions")
                .map(|c| c.value)
                .sum::<u64>();
            (out, counted)
        };
        let (genesis, state) = setup();
        let mut rng = Xoshiro256::seed_from_u64(0xF111);
        for round in 0..24 {
            let mut nonces = [0u64; 8];
            // Every third stream one payload length, so full sixteen-wide
            // groups form.
            let fixed = (round % 3 == 0).then(|| rng.gen_range(0usize..=600));
            let stream: Vec<Transaction> = (0..rng.gen_range(0usize..80))
                .map(|_| {
                    let seed = rng.gen_range(0u64..8);
                    let kind = rng.gen_range(0u32..10);
                    let nonce = nonces[seed as usize] + u64::from(kind == 0);
                    let amount = if kind == 1 { 1_000_000 } else { 3 };
                    let payload = vec![7; fixed.unwrap_or_else(|| rng.gen_range(0usize..=600))];
                    let to = Address::from_seed(seed + 1);
                    let tx = Transaction::signed(
                        &Keypair::from_seed(seed),
                        to,
                        amount,
                        1,
                        nonce,
                        payload,
                    );
                    nonces[seed as usize] += u64::from(kind > 1);
                    let mut bytes = tx.to_bytes();
                    if kind == 2 {
                        let last = bytes.len() - 1;
                        bytes[last] ^= 1;
                    }
                    Transaction::from_bytes(&bytes).expect("decodes")
                })
                .collect();
            let max_txs = [usize::MAX, rng.gen_range(0usize..40)][round % 2];
            let max_bytes = [usize::MAX, rng.gen_range(0usize..20_000)][round / 2 % 2];
            let builder = || {
                let mut b = BlockBuilder::new(genesis.header(), state.clone(), 1, 0);
                b.max_txs(max_txs).max_body_bytes(max_bytes);
                b
            };
            let reference = compressions(&mut || {
                let mut b = builder();
                let mut accepted = 0;
                for tx in stream.clone() {
                    match b.push(tx) {
                        Ok(()) => accepted += 1,
                        Err(BuildError::Invalid(_)) => continue,
                        Err(_) => break,
                    }
                }
                (accepted, b.seal())
            });
            let sized = compressions(&mut || {
                let mut b = builder();
                (b.fill(stream.clone()), b.seal())
            });
            let unsized_ = compressions(&mut || {
                let mut b = builder();
                (
                    b.fill(stream.clone().into_iter().filter(|_| true)),
                    b.seal(),
                )
            });
            assert_eq!(sized, reference, "round {round}");
            assert_eq!(unsized_, reference, "round {round}");
        }
    }

    #[test]
    fn empty_block_seals() {
        let (genesis, state) = setup();
        let block = BlockBuilder::new(genesis.header(), state.clone(), 1, 9).seal();
        assert_eq!(block.transactions().len(), 0);
        assert_eq!(block.header().state_root, state.root());
    }
}
