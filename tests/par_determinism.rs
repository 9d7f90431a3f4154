//! Thread-count invariance: every quantity the experiments report must be
//! byte-identical whether the `ici-par` pool runs strictly serial
//! (`ICI_PAR_THREADS=1`) or wide (`=4`).
//!
//! These are the end-to-end guarantees behind the CI thread matrix: the
//! parallel decomposition (byte stripes in Reed–Solomon, leaf chunks in
//! Merkle hashing, point chunks in k-means, per-voter network forks in
//! PBFT) is a function of the data alone, never of the schedule.

use ici_cluster::kmeans::{balanced_kmeans, kmeans, KMeansConfig};
use ici_crypto::merkle::MerkleTree;
use ici_crypto::rs::ReedSolomon;
use ici_faults::plan::ChurnConfig;
use ici_net::node::NodeId;
use ici_net::topology::{Placement, Topology};
use ici_sim::fault_run::{run_ici_under_faults, FaultProfile, StageChurn};
use ici_sim::{run_ici, ExperimentRecord, Table};
use icistrategy::prelude::*;

/// Runs `f` under a serial pool, then under a 4-wide pool, and returns
/// both results for comparison.
fn under_both_pools<T>(f: impl Fn() -> T) -> (T, T) {
    ici_par::set_threads(1);
    let serial = f();
    ici_par::set_threads(4);
    let parallel = f();
    (serial, parallel)
}

/// The deployment the whole-run cases share. Jittery default link:
/// arrival times go through the forked sequence streams, so the full
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

#[test]
fn rs_shards_are_identical_across_thread_counts() {
    // Payload large enough that the wide pool takes the byte-stripe path
    // (shard_len past the stripe threshold) with room for several stripes.
    let payload: Vec<u8> = (0..200_000u32).map(|i| (i * 31 + 7) as u8).collect();
    let (serial, parallel) = under_both_pools(|| {
        let rs = ReedSolomon::new(8, 2).expect("valid geometry");
        let shards = rs.encode_payload(&payload);
        let mut holed: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        holed[1] = None;
        holed[6] = None;
        rs.reconstruct(&mut holed).expect("recoverable");
        (shards, holed)
    });
    assert_eq!(serial, parallel);
}

#[test]
fn merkle_roots_are_identical_across_thread_counts() {
    let leaves: Vec<Vec<u8>> = (0..5000u32).map(|i| i.to_le_bytes().repeat(9)).collect();
    let (serial, parallel) = under_both_pools(|| {
        let tree = MerkleTree::from_owned_leaves(leaves.clone());
        (
            tree.root(),
            tree.prove(4321)
                .map(|p| p.verify(&leaves[4321], tree.root())),
        )
    });
    assert_eq!(serial, parallel);
    assert_eq!(parallel.1, Some(true));
}

#[test]
fn kmeans_assignments_are_identical_across_thread_counts() {
    let topology = Topology::generate(3000, &Placement::Uniform { side: 400.0 }, 23);
    let config = KMeansConfig::with_k(8, 23);
    let assignments = |partition: &ici_cluster::partition::Partition| -> Vec<u32> {
        (0..3000)
            .map(|n| partition.cluster_of(NodeId::new(n)).get())
            .collect()
    };
    let (serial, parallel) = under_both_pools(|| {
        (
            assignments(&kmeans(&topology, &config)),
            assignments(&balanced_kmeans(&topology, &config)),
        )
    });
    assert_eq!(serial, parallel);
}

#[test]
fn trace_exports_are_identical_across_thread_counts() {
    // Golden-path check for ici-trace: the same pinned-seed experiment
    // must produce byte-identical canonical and Chrome trace exports
    // from the serial and the 4-wide pool (worker-local event buffers
    // merge in task-index order, send ids are schedule-independent).
    let (serial, parallel) = under_both_pools(|| {
        ici_trace::set_enabled(true);
        ici_trace::reset();
        let _ = run_ici(config(5), 3, 5, workload());
        let snap = ici_trace::snapshot();
        ici_trace::set_enabled(false);
        ici_trace::reset();
        (
            ici_trace::export::canonical_json("EPAR", &snap),
            ici_trace::export::chrome_json(&snap),
        )
    });
    assert!(
        serial.0.contains("\"kind\": \"stage\""),
        "trace captured no lifecycle stages"
    );
    assert!(
        serial.1.contains("\"traceEvents\": ["),
        "chrome export shape changed"
    );
    assert_eq!(serial.0, parallel.0, "canonical event log diverged");
    assert_eq!(serial.1, parallel.1, "chrome trace diverged");
}

#[test]
fn experiment_record_json_is_identical_across_thread_counts() {
    let (serial, parallel) = under_both_pools(|| {
        let (_, summary) = run_ici(config(5), 3, 5, workload());
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
        ExperimentRecord::new(
            "EPAR",
            "thread-count determinism",
            "N=24 c=8 r=2",
            &[&table],
        )
        .to_json()
    });
    assert_eq!(serial, parallel);
}

#[test]
fn round_series_json_is_identical_across_thread_counts() {
    // The per-round series rides the telemetry gate, so no committed
    // record carries it; this is the check that it too is a function of
    // the run alone.
    let (serial, parallel) = under_both_pools(|| {
        ici_telemetry::set_enabled(true);
        let _ = ici_trace::series::drain();
        let _ = run_ici(config(5), 3, 5, workload());
        let series = ici_trace::series::drain();
        ici_telemetry::set_enabled(false);
        let _ = ici_telemetry::drain_delta();
        ici_trace::series::render_json(&series, "")
    });
    assert!(
        serial.contains("\"samples\""),
        "run registered no per-round series"
    );
    assert_eq!(serial, parallel, "round series diverged");
}

#[test]
fn stage_boundary_fault_plan_replays_identically_across_thread_counts() {
    // A crash landing *between* lifecycle stages must replay exactly:
    // the staged lifecycle re-syncs every fork's liveness at each
    // boundary from one authoritative network.
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
    let (serial, parallel) = under_both_pools(|| {
        let (_, summary) =
            run_ici_under_faults(config(7), 4, workload(), profile).expect("plan builds");
        summary
    });
    assert!(
        serial.stage_crash_events > 0,
        "stage churn never fired: {}",
        serial.plan_render
    );
    assert_eq!(serial, parallel, "fault replay diverged");
}
