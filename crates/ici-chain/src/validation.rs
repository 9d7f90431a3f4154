//! Full block validation.
//!
//! [`validate_block`] is the single source of truth for whether a block
//! extends a chain correctly: linkage, header/body consistency, signatures,
//! state execution, and the `state_root` commitment. Both the ICIStrategy
//! collaborative verifier and the baselines call into it (the collaborative
//! verifier additionally lets different cluster members run
//! [`verify_tx_range`] on disjoint slices).

use std::error::Error;
use std::fmt;

use ici_crypto::sha256::WIDE;

use crate::block::{Block, BlockHeader};
use crate::state::{StateCommitment, StateError, WorldState};
use crate::transaction::{Address, Transaction};

/// Why a block failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// Height is not `parent.height + 1`.
    WrongHeight {
        /// Height expected.
        expected: u64,
        /// Height carried by the block.
        actual: u64,
    },
    /// `parent` field does not match the parent header's id.
    WrongParent,
    /// Timestamp not strictly after the parent's.
    NonMonotonicTimestamp,
    /// A transaction failed state validation.
    BadTransaction {
        /// Index of the offending transaction.
        index: usize,
        /// The underlying state error.
        error: StateError,
    },
    /// Declared `state_root` does not match the executed post-state.
    StateRootMismatch,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::WrongHeight { expected, actual } => {
                write!(f, "expected height {expected}, got {actual}")
            }
            ValidationError::WrongParent => f.write_str("parent id mismatch"),
            ValidationError::NonMonotonicTimestamp => f.write_str("timestamp not after parent's"),
            ValidationError::BadTransaction { index, error } => {
                write!(f, "transaction {index} invalid: {error}")
            }
            ValidationError::StateRootMismatch => {
                f.write_str("state root does not match execution")
            }
        }
    }
}

impl Error for ValidationError {}

/// Validates `block` as the child of `parent`, executing it on a copy of
/// `pre_state`. Returns the post-state on success.
///
/// Assumes `block` is internally consistent (guaranteed by construction via
/// [`Block::new`] / [`Block::from_parts`] / decoding).
///
/// # Errors
///
/// The first [`ValidationError`] encountered, checked in the order: linkage,
/// timestamp, per-transaction execution, state root.
pub fn validate_block(
    block: &Block,
    parent: &BlockHeader,
    pre_state: &WorldState,
) -> Result<WorldState, ValidationError> {
    let mut state = pre_state.clone();
    validate_block_in_place(block, parent, &mut state, StateCommitment::FlatV1)?;
    Ok(state)
}

/// [`validate_block`] executing directly on `state` instead of cloning
/// it, against the header commitment `commitment` names: blocks sealed
/// under the v2 sharded commitment are checked against
/// [`WorldState::sharded_root`] instead of the flat v1 root. This is the
/// scale path, where a validator advances one long-lived state per chain
/// and a per-block O(accounts) copy would dominate.
///
/// On success `state` is the post-state. On a linkage/timestamp error
/// `state` is untouched; on an execution or root-mismatch error it is
/// left mid-block (transactions before the failure applied), exactly
/// like [`WorldState::apply_block`] — callers that need rollback
/// should use the cloning variant.
///
/// # Errors
///
/// Same as [`validate_block`].
pub fn validate_block_in_place(
    block: &Block,
    parent: &BlockHeader,
    state: &mut WorldState,
    commitment: StateCommitment,
) -> Result<(), ValidationError> {
    let _span = ici_telemetry::span!("chain/block_validate");
    let header = block.header();
    if header.height != parent.height + 1 {
        return Err(ValidationError::WrongHeight {
            expected: parent.height + 1,
            actual: header.height,
        });
    }
    if header.parent != parent.id() {
        return Err(ValidationError::WrongParent);
    }
    if header.timestamp_ms <= parent.timestamp_ms {
        return Err(ValidationError::NonMonotonicTimestamp);
    }

    // Signatures a decoded copy has not checked yet are checked as one
    // batch; a built block's are remembered, and this is a scan.
    Transaction::verify_signatures(block.transactions());
    state
        .apply_block(block)
        .map_err(|(index, error)| ValidationError::BadTransaction { index, error })?;

    if state.root_for(commitment) != header.state_root {
        return Err(ValidationError::StateRootMismatch);
    }
    Ok(())
}

/// Verifies a contiguous transaction range `[start, end)` of `block`
/// *stamp-only*: signature and well-formedness checks that need no state.
///
/// This is the unit of work the ICIStrategy collaborative verifier hands to
/// each cluster member: node `i` of `c` members checks roughly `1/c` of the
/// block's signatures; state execution (which is inherently sequential) is
/// done once by the leader and cross-checked through `state_root`.
///
/// Returns the index of the first transaction with an invalid signature, or
/// `Ok(checked)` with the number checked.
///
/// # Errors
///
/// The index of the first failing transaction.
pub fn verify_tx_range(block: &Block, start: usize, end: usize) -> Result<usize, usize> {
    let _span = ici_telemetry::span!("chain/verify_tx_range");
    let txs = block.transactions();
    let end = end.min(txs.len());
    let start = start.min(end);
    // A decoded copy knows no verdict yet: check [`WIDE`] at a time,
    // stopping after the group that holds the first bad one.
    for (group_start, group) in (start..end).step_by(WIDE).zip(txs[start..end].chunks(WIDE)) {
        Transaction::verify_signatures(group);
        if let Some(offset) = group.iter().position(|tx| !tx.verify_signature()) {
            return Err(group_start + offset);
        }
    }
    Ok(end - start)
}

/// Splits `tx_count` transactions into `parts` contiguous ranges of
/// near-equal size, for distributing verification work across a cluster.
/// Returns `(start, end)` pairs; some may be empty if `parts > tx_count`.
pub fn split_ranges(tx_count: usize, parts: usize) -> Vec<(usize, usize)> {
    if parts == 0 {
        return Vec::new();
    }
    let base = tx_count / parts;
    let extra = tx_count % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push((start, start + len));
        start += len;
    }
    ranges
}

/// The address credited with a block's fees.
pub fn fee_collector(header: &BlockHeader) -> Address {
    Address::from_seed(header.proposer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BlockBuilder;
    use crate::genesis::GenesisConfig;
    use crate::transaction::Transaction;
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

    fn child_of(genesis: &Block, state: &WorldState, n_txs: u64) -> Block {
        let mut b = BlockBuilder::new(genesis.header(), state.clone(), 2, 1_000);
        for i in 0..n_txs {
            b.push(transfer(i, 0, 10)).expect("valid");
        }
        b.seal()
    }

    #[test]
    fn valid_block_passes_and_returns_post_state() {
        let (genesis, state) = setup();
        let block = child_of(&genesis, &state, 3);
        let post = validate_block(&block, genesis.header(), &state).expect("valid block");
        assert_eq!(post.root(), block.header().state_root);
        assert_eq!(post.nonce(&Address::from_seed(0)), 1);
    }

    #[test]
    fn wrong_height_rejected() {
        let (genesis, state) = setup();
        let block = child_of(&genesis, &state, 1);
        let (mut header, body) = block.into_parts();
        header.height = 5;
        let forged = Block::new(header, body);
        assert!(matches!(
            validate_block(&forged, genesis.header(), &state),
            Err(ValidationError::WrongHeight {
                expected: 1,
                actual: 5
            })
        ));
    }

    #[test]
    fn wrong_parent_rejected() {
        let (genesis, state) = setup();
        let block = child_of(&genesis, &state, 1);
        let (mut header, body) = block.into_parts();
        header.parent = ici_crypto::sha256::Digest::ZERO;
        let forged = Block::new(header, body);
        assert_eq!(
            validate_block(&forged, genesis.header(), &state),
            Err(ValidationError::WrongParent)
        );
    }

    #[test]
    fn stale_timestamp_rejected() {
        let (genesis, state) = setup();
        let block = {
            let b = BlockBuilder::new(genesis.header(), state.clone(), 2, 0);
            b.seal() // timestamp 0 == genesis timestamp
        };
        assert_eq!(
            validate_block(&block, genesis.header(), &state),
            Err(ValidationError::NonMonotonicTimestamp)
        );
    }

    #[test]
    fn bad_state_root_rejected() {
        let (genesis, state) = setup();
        let block = child_of(&genesis, &state, 1);
        let (mut header, body) = block.into_parts();
        header.state_root = ici_crypto::sha256::Digest::ZERO;
        let forged = Block::new(header, body);
        assert_eq!(
            validate_block(&forged, genesis.header(), &state),
            Err(ValidationError::StateRootMismatch)
        );
    }

    #[test]
    fn invalid_transaction_rejected_with_index() {
        let (genesis, state) = setup();
        // Build a block with a transaction the pre-state cannot afford by
        // sealing against a richer scratch state.
        let rich = WorldState::with_balances([(Address::from_seed(0), 1_000_000)]);
        let mut b = BlockBuilder::new(genesis.header(), rich, 2, 1_000);
        b.push(transfer(0, 0, 500_000))
            .expect("valid against rich state");
        let block = b.seal();
        assert!(matches!(
            validate_block(&block, genesis.header(), &state),
            Err(ValidationError::BadTransaction { index: 0, .. })
        ));
    }

    #[test]
    fn tx_range_verification_covers_block_in_parts() {
        let (genesis, state) = setup();
        let block = child_of(&genesis, &state, 7);
        let ranges = split_ranges(block.transactions().len(), 3);
        let mut total = 0;
        for (start, end) in ranges {
            total += verify_tx_range(&block, start, end).expect("all signatures valid");
        }
        assert_eq!(total, 7);
    }

    #[test]
    fn tx_range_reports_first_bad_signature() {
        let (genesis, state) = setup();
        let block = child_of(&genesis, &state, 3);
        let (header, mut body) = block.into_parts();
        // Corrupt the signature of tx 1 by re-signing a different payload.
        body[1] = {
            let mut bytes = crate::codec::Encode::to_bytes(&body[1]);
            let last = bytes.len() - 1;
            bytes[last] ^= 1; // inside the signature field
            <Transaction as crate::codec::Decode>::from_bytes(&bytes).expect("decodes")
        };
        let tampered = Block::new(header, body);
        assert_eq!(verify_tx_range(&tampered, 0, 3), Err(1));
        // A range that excludes the bad index passes.
        assert_eq!(verify_tx_range(&tampered, 2, 3), Ok(1));
    }

    #[test]
    fn split_ranges_partitions_exactly() {
        for (count, parts) in [(10, 3), (3, 10), (0, 4), (16, 4), (7, 1)] {
            let ranges = split_ranges(count, parts);
            assert_eq!(ranges.len(), parts);
            let mut covered = 0;
            let mut cursor = 0;
            for (s, e) in ranges {
                assert_eq!(s, cursor);
                assert!(e >= s);
                covered += e - s;
                cursor = e;
            }
            assert_eq!(covered, count, "count={count} parts={parts}");
        }
        assert!(split_ranges(5, 0).is_empty());
    }

    #[test]
    fn v2_commitment_round_trip() {
        let (genesis, state) = setup();
        // Seal a v2 header the way `e_scale` does: the builder's block
        // with the post-state's sharded root in place of the flat one.
        let mut b = BlockBuilder::new(genesis.header(), state.clone(), 2, 1_000);
        for i in 0..3 {
            b.push(transfer(i, 0, 10)).expect("valid");
        }
        let (v1_block, mut expected) = b.seal_with_state();
        let (mut header, body) = v1_block.into_parts();
        header.state_root = expected.sharded_root();
        let block = Block::new(header, body);
        // The v1 path must reject a v2 header (domain separation)…
        assert_eq!(
            validate_block(&block, genesis.header(), &state),
            Err(ValidationError::StateRootMismatch)
        );
        // …while the v2 path accepts it and lands on the post-state.
        let mut in_place = state.clone();
        validate_block_in_place(
            &block,
            genesis.header(),
            &mut in_place,
            StateCommitment::ShardedV2,
        )
        .expect("valid under v2");
        assert_eq!(in_place, expected);
        assert_eq!(in_place.nonce(&Address::from_seed(0)), 1);
    }

    #[test]
    fn fees_accrue_to_proposer() {
        let (genesis, state) = setup();
        let block = child_of(&genesis, &state, 4);
        assert_eq!(fee_collector(block.header()), Address::from_seed(2));
        let post = validate_block(&block, genesis.header(), &state).expect("valid");
        assert_eq!(
            post.balance(&Address::from_seed(2)),
            10_000 - 10 - 1 + 4 + 10
        );
        // seed 2 started with 10_000, sent 10+1 as a sender (tx i=2), earned
        // 4 in fees, and received 10 from tx i=1 (seed 1 -> seed 2).
    }
}
