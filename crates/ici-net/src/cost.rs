//! Compute-cost model.
//!
//! The simulator charges CPU time for the operations that dominate block
//! handling: signature checks, transaction execution, and hashing. The
//! constants approximate a mid-range 2020 server core (the hardware class of
//! the paper's era): ~80 µs per ECDSA verify, ~2 µs to apply a transfer,
//! ~1 GB/s hashing.
//!
//! Collaborative verification's benefit (experiment E5) is precisely that a
//! cluster of `c` nodes splits the signature-verification term `c` ways.

use crate::time::Duration;

/// Microseconds per signature verification.
pub const SIG_VERIFY_US: f64 = 80.0;
/// Microseconds to apply one transaction to the state.
pub const TX_APPLY_US: f64 = 2.0;
/// Hashing throughput in bytes per microsecond (≈ MB/ms).
pub const HASH_BYTES_PER_US: f64 = 1_000.0;
/// Fixed per-block bookkeeping in microseconds.
pub const BLOCK_OVERHEAD_US: f64 = 50.0;

/// Cost of verifying `n` signatures.
pub fn verify_signatures(n: usize) -> Duration {
    Duration::from_micros((SIG_VERIFY_US * n as f64).round() as u64)
}

/// Cost of executing `n` transactions against the state.
pub fn apply_transactions(n: usize) -> Duration {
    Duration::from_micros((TX_APPLY_US * n as f64).round() as u64)
}

/// Cost of hashing `bytes` (Merkle building, id computation).
pub fn hash(bytes: u64) -> Duration {
    Duration::from_micros((bytes as f64 / HASH_BYTES_PER_US).round() as u64)
}

/// Full solo validation of a block: hash the body, verify every
/// signature, execute every transaction, plus fixed overhead.
pub fn solo_block_validation(n_txs: usize, body_bytes: u64) -> Duration {
    hash(body_bytes)
        + verify_signatures(n_txs)
        + apply_transactions(n_txs)
        + Duration::from_micros(BLOCK_OVERHEAD_US.round() as u64)
}

/// The per-member compute when signature verification is split across
/// `members` nodes: each hashes its slice and verifies `n/members`
/// signatures; execution is still sequential at the leader and checked
/// through the state root.
pub fn collaborative_member_validation(n_txs: usize, body_bytes: u64, members: usize) -> Duration {
    let members = members.max(1);
    let share = n_txs.div_ceil(members);
    let byte_share = body_bytes.div_ceil(members as u64);
    hash(byte_share)
        + verify_signatures(share)
        + Duration::from_micros(BLOCK_OVERHEAD_US.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_linearly() {
        assert_eq!(verify_signatures(10).as_micros(), 800);
        assert_eq!(apply_transactions(100).as_micros(), 200);
        assert_eq!(hash(1_000_000).as_micros(), 1_000);
        assert_eq!(verify_signatures(0), Duration::ZERO);
    }

    #[test]
    fn solo_validation_sums_terms() {
        let d = solo_block_validation(100, 50_000);
        let expected = hash(50_000)
            + verify_signatures(100)
            + apply_transactions(100)
            + Duration::from_micros(50);
        assert_eq!(d, expected);
    }

    #[test]
    fn collaboration_divides_signature_work() {
        let solo = solo_block_validation(1_000, 500_000);
        let shared = collaborative_member_validation(1_000, 500_000, 10);
        // 10-way split: the dominant signature term shrinks ~10×.
        assert!(
            shared.as_micros() * 5 < solo.as_micros(),
            "shared {shared} vs solo {solo}"
        );
    }

    #[test]
    fn collaborative_with_one_member_close_to_solo_minus_execution() {
        let one = collaborative_member_validation(100, 10_000, 1);
        let solo = solo_block_validation(100, 10_000);
        assert_eq!(one + apply_transactions(100), solo);
    }

    #[test]
    fn zero_members_treated_as_one() {
        assert_eq!(
            collaborative_member_validation(10, 100, 0),
            collaborative_member_validation(10, 100, 1)
        );
    }
}
