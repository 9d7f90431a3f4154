//! The shrinker is part of the deterministic surface: the same seed
//! must find the same failure and descend to the same minimal
//! counterexample, byte for byte, on every run and at every thread
//! count. These tests pin that contract against the known-falsifiable
//! liveness property ("a churned run never skips a round" — crashing a
//! cluster below its BFT quorum must stall proposals) and against the
//! committed reproducer file that `tests/reproducers.rs` replays.

mod prop_support;

use ici_prop::{check, Failure};
use prop_support::{
    gen_fault_scenario, liveness_loss_config, no_skipped_rounds, FaultScenario, LIVENESS_PROPERTY,
};

/// Runs the canonical liveness-loss check. The property is known to be
/// false over the scenario lattice, so this must return a failure.
fn find_failure() -> Failure<FaultScenario> {
    check(
        LIVENESS_PROPERTY,
        &liveness_loss_config(),
        gen_fault_scenario,
        no_skipped_rounds,
    )
    .expect_err("quorum loss under churn must falsify the liveness property")
}

/// Same seed, same failure, same reproducer bytes — twice in-process;
/// `committed_reproducer_matches_the_canonical_check` below extends the
/// guarantee across processes.
#[test]
fn shrinker_is_deterministic() {
    let a = find_failure();
    let b = find_failure();
    assert_eq!(a, b, "same seed must find and shrink the same failure");
    assert_eq!(a.reproducer().to_text(), b.reproducer().to_text());
}

/// The shrunk counterexample is genuinely small: the witness for
/// quorum-loss-stalls-liveness needs at most 10 rounds and 8 nodes.
#[test]
fn minimal_counterexample_is_small() {
    let failure = find_failure();
    assert!(
        failure.minimal.rounds <= 10,
        "minimal witness needs {} rounds",
        failure.minimal.rounds
    );
    assert!(
        failure.minimal.nodes() <= 8,
        "minimal witness needs {} nodes",
        failure.minimal.nodes()
    );
    // And it is a local minimum: every candidate of the minimum passes.
    for candidate in ici_prop::Shrink::shrink_candidates(&failure.minimal) {
        assert!(
            no_skipped_rounds(&candidate).is_ok(),
            "shrinker stopped above a smaller failing case: {candidate:?}"
        );
    }
}

/// The committed reproducer is exactly what the canonical check
/// produces today. If the generator, shrinker, or fault scheduler
/// changes behaviour, this fails and the panic message carries the new
/// bytes to commit (after confirming the drift is intentional).
#[test]
fn committed_reproducer_matches_the_canonical_check() {
    let text = find_failure().reproducer().to_text();
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/reproducers/liveness_loss.repro"
    ))
    .expect("tests/reproducers/liveness_loss.repro is committed");
    assert_eq!(
        committed, text,
        "canonical check drifted from the committed reproducer; \
         if intentional, update the file to the right-hand bytes above"
    );
}
