//! What building a state's bulk inputs hashes, read from the
//! `crypto/sha256_*` counters, and that each batched build equals its
//! one-at-a-time definition.
//!
//! A genesis universe of `n` seeds costs `2n` compressions (a 26-byte
//! key hash and a 33-byte address hash per seed), every full group of
//! sixteen through the batch layer; a v2 lattice build over `n`
//! accounts costs `n` leaf digests (one 54-byte message each); a
//! workload batch hashes exactly what per-transaction signing hashes.
//! Batching moves `crypto/sha256_batched_compressions`, never the
//! totals. Every test turns telemetry on and none turns it off: the
//! flag is process-global, the collectors per thread.

use std::collections::BTreeMap;

use icistrategy::chain::codec::Encode;
use icistrategy::chain::state::AccountState;
use icistrategy::prelude::*;
use icistrategy::workload::{PayloadSize, SenderDistribution};

const COUNTERS: [&str; 4] = [
    "crypto/sha256_bytes",
    "crypto/sha256_compressions",
    "crypto/sha256_digests",
    "crypto/sha256_batched_compressions",
];

/// `f`'s result and the [`COUNTERS`] it moved, in that order.
fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
    icistrategy::telemetry::set_enabled(true);
    icistrategy::telemetry::reset();
    let out = f();
    let snapshot = icistrategy::telemetry::snapshot();
    let counts = COUNTERS.map(|name| {
        snapshot
            .counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    });
    (out, counts)
}

/// The one counter named `name` of `counts`.
fn of(counts: [u64; 4], name: &str) -> u64 {
    let at = COUNTERS.iter().position(|c| *c == name);
    counts[at.expect("a counted name")]
}

#[test]
fn a_uniform_genesis_costs_two_compressions_a_seed() {
    for n in [0u64, 1, 15, 16, 17, 1_000] {
        let (genesis, counts) = counted(|| GenesisConfig::uniform(n, 7));
        let (per_seed, single) = counted(|| {
            (0..n)
                .map(|seed| (Address::from_seed(seed), 7))
                .collect::<Vec<_>>()
        });
        assert_eq!(
            genesis.allocations(),
            &per_seed[..],
            "allocations of uniform({n}) vs Address::from_seed"
        );
        let compressions = of(counts, "crypto/sha256_compressions");
        assert_eq!(compressions, 2 * n, "crypto/sha256_compressions, n = {n}");
        assert_eq!(
            counts[..3],
            single[..3],
            "crypto/sha256_{{bytes, compressions, digests}}, n = {n}: batching moved the totals"
        );
        // Keys, then addresses: every full group of sixteen of each.
        assert_eq!(
            of(counts, "crypto/sha256_batched_compressions"),
            2 * 16 * (n / 16),
            "crypto/sha256_batched_compressions, n = {n}"
        );
    }
}

/// `n` distinct accounts with varied balances.
fn allocations(n: u64) -> Vec<(Address, u64)> {
    (0..n)
        .map(|seed| (Address::from_seed(seed), 1_000 + seed * 37))
        .collect()
}

#[test]
fn a_lattice_build_costs_one_leaf_digest_an_account() {
    // The 64 bucket roots and the combined root cost the same at every
    // size: an empty state's first v2 root is the baseline.
    let (_, empty) = counted(|| WorldState::new().sharded_root());
    for n in [1u64, 15, 16, 17, 1_000] {
        let allocations = allocations(n);
        let mut state = WorldState::with_balances(allocations.iter().copied());
        let (root, counts) = counted(|| state.sharded_root());
        for (i, name) in COUNTERS.iter().enumerate().skip(1) {
            let expected = match *name {
                "crypto/sha256_batched_compressions" => 16 * (n / 16),
                _ => n,
            };
            assert_eq!(
                counts[i] - empty[i],
                expected,
                "{name} of a lattice build over {n} accounts"
            );
        }
        assert_eq!(
            counts[0] - empty[0],
            54 * n,
            "crypto/sha256_bytes of a lattice build over {n} accounts"
        );
        // The reference accumulates per-account leaf hashes: each
        // account is created on a state that already has its lattice,
        // then credited (its leaf moved by `acct_hash` one at a time).
        let mut reference = WorldState::new();
        reference.sharded_root();
        for &(address, balance) in &allocations {
            reference.credit(address, balance);
        }
        assert_eq!(
            root,
            reference.sharded_root(),
            "bucket sums (the v2 root) of the batched build vs per-account leaf hashes, n = {n}"
        );
    }
}

#[test]
fn bulk_balances_settle_repeated_addresses_like_one_insert_at_a_time() {
    let seeds = [5u64, 3, 5, 9, 3, 3, 1, 9, 0, 5, 12, 12];
    let entries: Vec<(Address, u64)> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| (Address::from_seed(seed), 100 + i as u64))
        .collect();
    // One insert at a time: the last balance of an address wins.
    let mut expected: BTreeMap<Address, u64> = BTreeMap::new();
    for &(address, balance) in &entries {
        expected.insert(address, balance);
    }
    let state = WorldState::with_balances(entries.iter().copied());
    assert_eq!(state.len(), expected.len(), "len: one slot an address");
    let got: Vec<(Address, AccountState)> = state.accounts().map(|(a, s)| (*a, *s)).collect();
    let want: Vec<(Address, AccountState)> = expected
        .iter()
        .map(|(&a, &balance)| (a, AccountState { balance, nonce: 0 }))
        .collect();
    assert_eq!(got, want, "accounts: address order, last balance");
    for (address, balance) in &expected {
        assert_eq!(state.balance(address), *balance, "balance lookup {address}");
    }
    let mut credited = WorldState::new();
    for (&address, &balance) in &expected {
        credited.credit(address, balance);
    }
    assert_eq!(state, credited, "contents vs one credit per address");
    assert_eq!(state.root(), credited.root(), "v1 root");
    let (mut a, mut b) = (state.clone(), credited.clone());
    assert_eq!(a.sharded_root(), b.sharded_root(), "v2 root");
}

fn generator(payload: usize, fee_jitter: u64) -> WorkloadGenerator {
    WorkloadGenerator::new(WorkloadConfig {
        accounts: 500,
        senders: SenderDistribution::Zipf { exponent: 1.1 },
        payload: PayloadSize::Fixed(payload),
        fee_jitter,
        seed: 29,
        ..WorkloadConfig::default()
    })
}

#[test]
fn a_workload_batch_is_repeated_next_tx_and_hashes_the_same() {
    // Payloads of 64 bytes (signing fields in 3 blocks after the key
    // block), 128 and 300 (4 and 7 blocks), at batch sizes on both
    // sides of a group of sixteen.
    for (payload, fee_jitter) in [(64, 9), (128, 0), (300, 3)] {
        for n in [0usize, 1, 15, 16, 17, 100] {
            let mut batched = generator(payload, fee_jitter);
            let mut single = generator(payload, fee_jitter);
            let (batch, counts) = counted(|| batched.batch(n));
            let (one_by_one, single_counts) =
                counted(|| (0..n).map(|_| single.next_tx()).collect::<Vec<_>>());
            let case = format!("payload {payload}, n = {n}");
            assert_eq!(batch.len(), n, "len, {case}");
            for (i, (tx, reference)) in batch.iter().zip(&one_by_one).enumerate() {
                assert_eq!(
                    tx.signature(),
                    reference.signature(),
                    "signature {i}, {case}"
                );
                assert_eq!(tx.to_bytes(), reference.to_bytes(), "encoding {i}, {case}");
            }
            assert_eq!(batched.emitted(), single.emitted(), "emitted, {case}");
            assert_eq!(
                counts[..3],
                single_counts[..3],
                "crypto/sha256_{{bytes, compressions, digests}}, {case}"
            );
            // Senders' keys, recipients' keys and addresses, signatures.
            let groups = (n / 16) as u64;
            let signing_blocks = (10 + 33 + 20 + 24 + 4 + payload + 9).div_ceil(64) as u64;
            assert_eq!(
                of(counts, "crypto/sha256_batched_compressions"),
                groups * 16 * (3 + 2 * (signing_blocks + 3)),
                "crypto/sha256_batched_compressions, {case}"
            );
            // Verdicts are left unknown: the first check hashes every
            // signature, as it does for per-transaction signing.
            let (_, verify) = counted(|| Transaction::verify_signatures(&batch));
            let (_, verify_single) = counted(|| Transaction::verify_signatures(&one_by_one));
            assert_eq!(
                of(verify, "crypto/sha256_compressions"),
                of(verify_single, "crypto/sha256_compressions"),
                "crypto/sha256_compressions of the first signature check, {case}"
            );
            assert_eq!(
                of(verify, "crypto/sha256_compressions"),
                n as u64 * 2 * (signing_blocks + 3),
                "crypto/sha256_compressions of the first signature check, {case}"
            );
            assert!(batch.iter().all(Transaction::verify_signature), "{case}");
        }
    }
}
