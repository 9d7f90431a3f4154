//! What a mempool admission hashes, read from the
//! `crypto/sha256_compressions` counter.
//!
//! Admitting a transaction checks its signature and derives its sender
//! address, and nothing else: no transaction id is hashed to catch
//! duplicates. Offering a duplicate hashes one id, to name it in the
//! error. Selection and pruning hash nothing. One test, because the
//! telemetry flag is process-global.

use icistrategy::chain::codec::{Decode, Encode};
use icistrategy::chain::mempool::{Mempool, MempoolError};
use icistrategy::prelude::*;

const COUNTER: &str = "crypto/sha256_compressions";

/// Compressions counted while `f` runs.
fn compressions<T>(f: impl FnOnce() -> T) -> (T, u64) {
    icistrategy::telemetry::set_enabled(true);
    icistrategy::telemetry::reset();
    let out = f();
    let counted = icistrategy::telemetry::snapshot()
        .counters
        .iter()
        .filter(|c| c.name == COUNTER)
        .map(|c| c.value)
        .sum();
    icistrategy::telemetry::set_enabled(false);
    icistrategy::telemetry::reset();
    (out, counted)
}

#[test]
fn admission_hashes_the_signature_and_sender_only() {
    let batch = WorkloadGenerator::new(WorkloadConfig {
        accounts: 4_096,
        seed: 23,
        ..WorkloadConfig::default()
    })
    .batch(200);
    // Decoded copies, as a node receives them: no verdict remembered.
    let encoded: Vec<Vec<u8>> = batch.iter().map(Encode::to_bytes).collect();
    let fresh = || -> Vec<Transaction> {
        encoded
            .iter()
            .map(|bytes| Transaction::from_bytes(bytes).expect("decodes"))
            .collect()
    };

    let (_, checked) = compressions(|| {
        for tx in fresh() {
            assert!(tx.verify_signature());
            tx.sender_address();
        }
    });
    assert!(checked > 0, "{COUNTER} counted nothing: is telemetry on?");

    let mut pool = Mempool::new(batch.len());
    let (verdicts, admitted) = compressions(|| {
        fresh()
            .into_iter()
            .map(|tx| pool.insert(tx))
            .collect::<Vec<_>>()
    });
    assert!(verdicts.iter().all(Result::is_ok), "{verdicts:?}");
    assert_eq!(
        admitted,
        checked,
        "{COUNTER}: admitting {} fresh transactions must cost their \
         signatures and sender addresses ({checked}), not {admitted}",
        batch.len()
    );

    // A duplicate: the verdict is remembered, the address is not, and the
    // id names the duplicate.
    let pending = pool.iter().next().cloned().expect("the pool holds some");
    let (_, address) = compressions(|| pending.sender_address());
    let (_, id) = compressions(|| pending.id());
    let (verdict, duplicate) = compressions(|| pool.insert(pending.clone()));
    assert_eq!(verdict, Err(MempoolError::Duplicate(pending.id())));
    assert_eq!(
        duplicate,
        address + id,
        "{COUNTER}: a duplicate must cost its sender address ({address}) and \
         one id ({id}), not {duplicate}"
    );

    let senders: Vec<(Address, u64)> = batch
        .iter()
        .map(|tx| (tx.sender_address(), tx.nonce() + 1))
        .collect();
    let (picked, taken) = compressions(|| pool.take_for_block(batch.len() / 2));
    assert_eq!(picked.len(), batch.len() / 2);
    assert_eq!(taken, 0, "{COUNTER}: take_for_block hashed {taken}");
    let (pruned, pruning) = compressions(|| {
        senders
            .iter()
            .map(|(sender, next)| pool.prune_below(sender, *next))
            .sum::<usize>()
    });
    assert_eq!(pruned, batch.len() - picked.len());
    assert!(pool.is_empty());
    assert_eq!(pruning, 0, "{COUNTER}: prune_below hashed {pruning}");
}
