//! What one and four pool threads agreed on, pinned.
//!
//! These four cases used to run a whole experiment under a serial and
//! a 4-wide `ici-par` pool and compare the two. The pool is gone, so
//! there is one schedule left to run; each case now checks that run
//! against the value both widths produced at the last commit that had
//! a pool (`801014f`). File and test names are unchanged so the tier-1
//! test list is. The fan-out primitives themselves (Reed–Solomon,
//! Merkle, k-means, signature checks, RapidChain rounds) are pinned in
//! `tests/fanout_golden.rs`.
//!
//! Two of the four pin something no other tier-1 test reads: the
//! canonical / Chrome trace exports (`results/TRACE_e1.json` is only
//! regenerated by `scripts/ci.sh`) and the per-round series, which
//! rides the telemetry gate and so appears in no committed record.

use ici_faults::plan::ChurnConfig;
use ici_sim::fault_run::StageChurn;
use ici_sim::{ExperimentRecord, Table};
use icistrategy::prelude::*;

/// The deployment the whole-run cases share. Jittery default link:
/// arrival times go through the per-actor sequence streams, so the full
/// lifecycle determinism story is on the line.
fn config(seed: u64) -> IciConfig {
    IciConfig::builder()
        .nodes(24)
        .cluster_size(8)
        .replication(2)
        .seed(seed)
        .build()
        .expect("valid")
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        accounts: 32,
        ..WorkloadConfig::default()
    }
}

fn digest(text: &str) -> String {
    Sha256::digest(text.as_bytes()).to_hex()
}

#[test]
fn trace_exports_are_identical_across_thread_counts() {
    ici_trace::set_enabled(true);
    ici_trace::reset();
    let _ = run::<IciNetwork>(config(5), 3, 5, workload());
    let snap = ici_trace::snapshot();
    ici_trace::set_enabled(false);
    ici_trace::reset();
    let canonical = ici_trace::export::canonical_json("EPAR", &snap);
    let chrome = ici_trace::export::chrome_json(&snap);
    assert!(
        canonical.contains("\"kind\": \"stage\""),
        "trace captured no lifecycle stages"
    );
    assert!(
        chrome.contains("\"traceEvents\": ["),
        "chrome export shape changed"
    );
    assert_eq!(
        (snap.events.len(), snap.dropped),
        (36, 0),
        "event count moved"
    );
    assert_eq!(
        digest(&canonical),
        "b30a9054a131b42b6aa66e911076e30c28bec7cbff0312ec4f68c7182511b7ab",
        "canonical event log"
    );
    assert_eq!(
        digest(&chrome),
        "2aa84db6a3dfe7f30186a6d31a9df68cee5b26d6f779fd16746c2d01d30a7724",
        "chrome trace"
    );
}

#[test]
fn experiment_record_json_is_identical_across_thread_counts() {
    let (_, summary) = run::<IciNetwork>(config(5), 3, 5, workload());
    let mut table = Table::new("determinism probe", ["metric", "value"]);
    table.row([
        "mean storage bytes".to_string(),
        format!("{:.3}", summary.storage.mean),
    ]);
    table.row([
        "mean block bytes".to_string(),
        format!("{:.3}", summary.mean_block_bytes),
    ]);
    table.row([
        "final clock ms".to_string(),
        format!("{:.6}", summary.final_clock_ms),
    ]);
    let json = ExperimentRecord::new(
        "EPAR",
        "thread-count determinism",
        "N=24 c=8 r=2",
        &[&table],
    )
    .to_json();
    assert_eq!(
        digest(&json),
        "e6f653222898eff04e8c906b479adac24b96fc3bebb75dea11ac6078a605f7fc",
        "{json}"
    );
}

#[test]
fn round_series_json_is_identical_across_thread_counts() {
    ici_telemetry::set_enabled(true);
    let _ = ici_trace::series::drain();
    let _ = run::<IciNetwork>(config(5), 3, 5, workload());
    let series = ici_trace::series::drain();
    ici_telemetry::set_enabled(false);
    ici_telemetry::reset();
    let json = ici_trace::series::render_json(&series, "");
    assert!(
        json.contains("\"samples\""),
        "run registered no per-round series"
    );
    assert_eq!(
        digest(&json),
        "e79397b81731e389fb1947b942c7e86310e2db8ea91a57a3d39642473363ae9d",
        "{json}"
    );
}

/// The fault-run fields of `s`, each by name. A line of named fields
/// moves only when a value does, not when the type gains a field.
fn fault_fields(s: &RunSummary) -> String {
    format!(
        "strategy={:?} nodes={} clusters={} rounds={} committed_blocks={} \
         skipped_rounds={} crash_events={} restart_events={} \
         stage_crash_events={} stage_crash_commits={} cycles_per_cluster={:?} \
         recovery_attempts={} recovery_successes={} repair_transfers={} \
         repair_bytes={} cross_cluster_fetches={} unrecoverable_heights={:?} \
         min_live_nodes={} min_availability={:?} final_audit_clean={} \
         merkle_shards_verified={} commit_latency={:?} equivocation_attempts={} \
         equivocations_detected={} safety_breaches={} verdict_flips={} \
         verdict_withholds={} liars_detected={} byz_skipped_rounds={} \
         byz_missed_cluster_verdicts={} wasted_bytes={} total_bytes={} \
         plan_fingerprint={} plan_render={:?}",
        s.strategy,
        s.nodes,
        s.clusters,
        s.rounds,
        s.committed_blocks,
        s.skipped_rounds,
        s.crash_events,
        s.restart_events,
        s.stage_crash_events,
        s.stage_crash_commits,
        s.cycles_per_cluster,
        s.recovery_attempts,
        s.recovery_successes,
        s.repair_transfers,
        s.repair_bytes,
        s.cross_cluster_fetches,
        s.unrecoverable_heights,
        s.min_live_nodes,
        s.min_availability,
        s.final_audit_clean,
        s.merkle_shards_verified,
        s.commit_latency,
        s.equivocation_attempts,
        s.equivocations_detected,
        s.safety_breaches,
        s.verdict_flips,
        s.verdict_withholds,
        s.liars_detected,
        s.byz_skipped_rounds,
        s.byz_missed_cluster_verdicts,
        s.wasted_bytes,
        s.total_bytes,
        s.plan_fingerprint,
        s.plan_render,
    )
}

#[test]
fn stage_boundary_fault_plan_replays_identically_across_thread_counts() {
    // A crash landing *between* lifecycle stages must replay exactly:
    // every stage reads liveness from the one network the boundary
    // callback changed.
    let profile = FaultProfile {
        seed: 11,
        rounds: 10,
        churn: ChurnConfig {
            crash_prob: 0.08,
            restart_prob: 0.4,
            min_live_per_cluster: 3,
            ..ChurnConfig::default()
        },
        stage_churn: StageChurn { interval: 2 },
        ..FaultProfile::default()
    };
    let (_, summary) =
        run_under_faults::<IciNetwork>(config(7), 4, workload(), profile).expect("plan builds");
    assert!(
        summary.stage_crash_events > 0,
        "stage churn never fired: {}",
        summary.plan_render
    );
    let line = format!(
        "blocks={} stage={}/{} bytes={} plan={:016x} summary={}",
        summary.committed_blocks,
        summary.stage_crash_commits,
        summary.stage_crash_events,
        summary.total_bytes,
        summary.plan_fingerprint,
        &digest(&fault_fields(&summary))[..16],
    );
    assert_eq!(
        line,
        "blocks=5 stage=3/5 bytes=254276 plan=9d6e21a0cb7e3a10 summary=889fe5e339a5867e"
    );
}
