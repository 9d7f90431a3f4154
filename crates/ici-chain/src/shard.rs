//! Shard geometry for the sharded world state and mempool.
//!
//! The commitment geometry is **fixed**: accounts always hash into
//! [`STATE_BUCKETS`] = 64 logical buckets keyed by the top six bits of
//! the first address byte. Because [`crate::transaction::Address`]
//! orders lexicographically, bucket index is monotone in address order:
//! concatenating buckets 0..64 visits accounts in exactly the global
//! sorted order, which is what keeps the flat v1 root byte-identical on
//! top of the sharded layout.
//!
//! The **physical** shard count is a runtime knob (`ICI_STATE_SHARDS`,
//! default 1 = the sequential reference path): a power of two in
//! `[1, 64]`, so every logical bucket lies wholly inside one physical
//! shard and both the v1 and v2 commitments are independent of the
//! shard count. The knob is layout only — committed artifacts are
//! byte-identical at every setting.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::transaction::Address;

/// Environment variable selecting the physical shard count at first
/// use; `0` or unset means 1 (the sequential reference path).
pub const ENV_VAR: &str = "ICI_STATE_SHARDS";

/// Number of logical commitment buckets. Fixed: the v2 state root is
/// defined over this many buckets regardless of the physical layout.
pub const STATE_BUCKETS: usize = 64;

/// Upper bound on physical shards (= one shard per logical bucket).
pub const MAX_STATE_SHARDS: usize = STATE_BUCKETS;

/// Configured shard count; `0` means "not yet resolved".
static SHARDS: AtomicUsize = AtomicUsize::new(0);

/// Rounds `n` down to a power of two and clamps it into
/// `[1, MAX_STATE_SHARDS]`.
pub fn normalize_shards(n: usize) -> usize {
    let n = n.clamp(1, MAX_STATE_SHARDS);
    // Largest power of two <= n (n >= 1, so leading_zeros < BITS).
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// The effective physical shard count, resolving `ICI_STATE_SHARDS`
/// on first call. Always a power of two in `[1, MAX_STATE_SHARDS]`.
pub fn state_shards() -> usize {
    let configured = SHARDS.load(Ordering::Relaxed);
    if configured != 0 {
        return configured;
    }
    let from_env = std::env::var(ENV_VAR)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    let resolved = normalize_shards(from_env.unwrap_or(1));
    // A concurrent first call resolves the same value; the race is benign.
    SHARDS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the physical shard count (normalized like the env var).
/// Layout-only: states and pools constructed afterwards use the new
/// count, and their outputs are byte-identical at every setting.
pub fn set_state_shards(n: usize) {
    SHARDS.store(normalize_shards(n.max(1)), Ordering::Relaxed);
}

/// Logical commitment bucket of `address`: the top six bits of its
/// first byte, so buckets partition the address space into 64
/// contiguous, lexicographically ordered ranges.
pub fn bucket_of(address: &Address) -> usize {
    usize::from(address.as_bytes()[0] >> 2)
}

/// Physical shard holding logical bucket `bucket` when the state is
/// split into `shard_count` shards (`shard_count` must be a normalized
/// power of two; each shard owns a contiguous run of buckets).
pub fn shard_of_bucket(bucket: usize, shard_count: usize) -> usize {
    let shift = STATE_BUCKETS.trailing_zeros() - shard_count.trailing_zeros();
    bucket >> shift
}

/// Physical shard holding `address` under `shard_count` shards.
pub fn shard_of(address: &Address, shard_count: usize) -> usize {
    shard_of_bucket(bucket_of(address), shard_count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_rounds_down_to_power_of_two() {
        assert_eq!(normalize_shards(1), 1);
        assert_eq!(normalize_shards(2), 2);
        assert_eq!(normalize_shards(3), 2);
        assert_eq!(normalize_shards(4), 4);
        assert_eq!(normalize_shards(63), 32);
        assert_eq!(normalize_shards(64), 64);
        assert_eq!(normalize_shards(1000), 64);
        assert_eq!(normalize_shards(0), 1);
    }

    #[test]
    fn buckets_are_monotone_in_address_order() {
        let mut addrs: Vec<Address> = (0..512).map(Address::from_seed).collect();
        addrs.sort();
        let buckets: Vec<usize> = addrs.iter().map(bucket_of).collect();
        let mut sorted = buckets.clone();
        sorted.sort_unstable();
        assert_eq!(buckets, sorted, "bucket index must be monotone");
    }

    #[test]
    fn every_bucket_maps_into_range_for_all_shard_counts() {
        for &s in &[1usize, 2, 4, 8, 16, 32, 64] {
            for b in 0..STATE_BUCKETS {
                let shard = shard_of_bucket(b, s);
                assert!(shard < s, "bucket {b} → shard {shard} out of {s}");
            }
            // Contiguous, non-decreasing assignment.
            let shards: Vec<usize> = (0..STATE_BUCKETS).map(|b| shard_of_bucket(b, s)).collect();
            let mut sorted = shards.clone();
            sorted.sort_unstable();
            assert_eq!(shards, sorted);
            assert_eq!(shards[STATE_BUCKETS - 1], s - 1);
        }
    }

    #[test]
    fn shard_of_matches_bucket_mapping() {
        for seed in 0..64 {
            let addr = Address::from_seed(seed);
            assert_eq!(shard_of(&addr, 4), shard_of_bucket(bucket_of(&addr), 4));
        }
    }
}
