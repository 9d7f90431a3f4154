//! Golden values for `ici-sim`'s six run entry points.
//!
//! Every committed `results/e*.json` goes through these runners, so a
//! change to the round loop that moves one send, one draw or one clock
//! tick shows up here — in tier-1, in seconds — before it shows up as a
//! drifted record. Each case reduces a small pinned-seed run to one
//! line of exact values (integers verbatim, floats in shortest
//! round-trip form) and compares it with a literal. All links are the
//! jittery default, so arrival times go through the per-actor sequence
//! streams too.
//!
//! The lines read only what every strategy's network and summary
//! expose under the same name, so the same text checks all three.

use ici_baselines::full::FullConfig;
use ici_baselines::rapidchain::RapidChainConfig;
use ici_core::config::IciConfig;
use ici_faults::plan::{ByzantineConfig, ChurnConfig, MessageFaultSpec, PartitionPolicy};
use ici_sim::fault_run::{FaultProfile, StageChurn};
use ici_sim::{
    run_full, run_full_under_faults, run_ici, run_ici_under_faults, run_rapidchain,
    run_rapidchain_under_faults,
};
use ici_workload::WorkloadConfig;

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        accounts: 32,
        seed: 11,
        ..WorkloadConfig::default()
    }
}

fn ici_config() -> IciConfig {
    IciConfig::builder()
        .nodes(24)
        .cluster_size(8)
        .replication(2)
        .seed(7)
        .build()
        .expect("valid")
}

fn full_config() -> FullConfig {
    FullConfig {
        nodes: 24,
        fanout: 4,
        seed: 7,
        ..FullConfig::default()
    }
}

fn rapidchain_config() -> RapidChainConfig {
    RapidChainConfig {
        nodes: 24,
        committee_size: 8,
        seed: 7,
        ..RapidChainConfig::default()
    }
}

fn crash_only() -> FaultProfile {
    FaultProfile {
        seed: 3,
        rounds: 12,
        churn: ChurnConfig {
            crash_prob: 0.08,
            restart_prob: 0.4,
            cluster_churn_prob: 0.0,
            min_live_per_cluster: 3,
            ..ChurnConfig::default()
        },
        ..FaultProfile::default()
    }
}

fn byzantine() -> FaultProfile {
    FaultProfile {
        seed: 23,
        byzantine: ByzantineConfig {
            equivocation_prob: 0.3,
            false_verdict_fraction: 0.4,
            flip_prob: 0.8,
            withhold_prob: 0.15,
        },
        ..crash_only()
    }
}

/// Stage-boundary crashes on top of partitions and lossy links: the
/// `e_fault` shape.
fn stage_churn() -> FaultProfile {
    FaultProfile {
        seed: 5,
        partitions: PartitionPolicy {
            prob: 0.2,
            max_duration_rounds: 2,
        },
        messages: MessageFaultSpec {
            drop_prob: 0.05,
            dup_prob: 0.02,
            delay_prob: 0.05,
            max_extra_delay_ms: 20.0,
        },
        stage_churn: StageChurn { interval: 2 },
        ..crash_only()
    }
}

/// One fault run as a line of exact values.
macro_rules! fault_line {
    ($run:expr) => {{
        let (network, s) = $run.expect("plan builds");
        let txs: u64 = network.commit_log().iter().map(|r| r.tx_count as u64).sum();
        let meter = network.net().meter().total();
        format!(
            "blocks={} txs={txs} skipped={} byz_skipped={} crashes={} restarts={} min_live={} \
             equiv={}/{} breaches={} flips={} withholds={} liars={} wasted={} bytes={} msgs={} \
             clock_us={} plan={:016x}",
            s.committed_blocks,
            s.skipped_rounds,
            s.byz_skipped_rounds,
            s.crash_events,
            s.restart_events,
            s.min_live_nodes,
            s.equivocations_detected,
            s.equivocation_attempts,
            s.safety_breaches,
            s.verdict_flips,
            s.verdict_withholds,
            s.liars_detected,
            s.wasted_bytes,
            meter.bytes,
            meter.messages,
            network.now().as_micros(),
            s.plan_fingerprint,
        )
    }};
}

/// The ICI-only half of a fault run: repair, audit and stage churn.
fn ici_fault_line(profile: FaultProfile) -> String {
    let run = run_ici_under_faults(ici_config(), 5, workload(), profile);
    let (_, s) = run.as_ref().expect("plan builds");
    let ici_only = format!(
        " repair_bytes={} transfers={} recoveries={}/{} cross={} lost={} missed_verdicts={} \
         stage={}/{} min_avail={:?} audit_clean={} shards={} latency_mean_ms={:?}",
        s.repair_bytes,
        s.repair_transfers,
        s.recovery_successes,
        s.recovery_attempts,
        s.cross_cluster_fetches,
        s.unrecoverable_heights.len(),
        s.byz_missed_cluster_verdicts,
        s.stage_crash_commits,
        s.stage_crash_events,
        s.min_availability,
        s.final_audit_clean,
        s.merkle_shards_verified,
        s.commit_latency.mean_ms,
    );
    fault_line!(run) + &ici_only
}

fn full_fault_line(profile: FaultProfile) -> String {
    fault_line!(run_full_under_faults(full_config(), 5, workload(), profile))
}

fn rapidchain_fault_line(profile: FaultProfile) -> String {
    fault_line!(run_rapidchain_under_faults(
        rapidchain_config(),
        5,
        workload(),
        profile
    ))
}

/// One fault-free run as a line of exact values.
macro_rules! run_line {
    ($run:expr) => {{
        let (network, s) = $run;
        let meter = network.net().meter().total();
        format!(
            "{} n={} blocks={} txs={} ledger={} stored={}/{}..{} block_msgs={:?} \
             block_bytes={:?} latency_ms={:?}/{:?}/{:?} tps={:?} clock_ms={:?} bytes={} msgs={} \
             clock_us={}",
            s.strategy,
            s.nodes,
            s.committed_blocks,
            s.total_txs,
            s.ledger_bytes,
            s.storage.total,
            s.storage.min,
            s.storage.max,
            s.mean_block_messages,
            s.mean_block_bytes,
            s.commit_latency.mean_ms,
            s.commit_latency.p50_ms,
            s.commit_latency.max_ms,
            s.throughput_tps,
            s.final_clock_ms,
            meter.bytes,
            meter.messages,
            network.now().as_micros(),
        )
    }};
}

#[test]
fn ici_fault_run_crash_only() {
    assert_eq!(ici_fault_line(crash_only()), "blocks=11 txs=55 skipped=1 byz_skipped=0 crashes=22 restarts=20 min_live=16 equiv=0/0 breaches=0 flips=0 withholds=0 liars=0 wasted=0 bytes=524648 msgs=3094 clock_us=4957083 plan=46ca88d2cadba460 repair_bytes=55965 transfers=31 recoveries=23/23 cross=8 lost=0 missed_verdicts=0 stage=0/0 min_avail=0.8333333333333334 audit_clean=true shards=93 latency_mean_ms=351.10927272727264");
}

#[test]
fn ici_fault_run_byzantine() {
    assert_eq!(ici_fault_line(byzantine()), "blocks=5 txs=25 skipped=7 byz_skipped=7 crashes=19 restarts=17 min_live=18 equiv=3/3 breaches=0 flips=51 withholds=10 liars=51 wasted=63476 bytes=290907 msgs=1665 clock_us=2956643 plan=69dace50644d73d1 repair_bytes=24570 transfers=11 recoveries=20/20 cross=4 lost=0 missed_verdicts=6 stage=0/0 min_avail=0.8 audit_clean=true shards=42 latency_mean_ms=457.2389999999999");
}

#[test]
fn ici_fault_run_stage_churn() {
    assert_eq!(ici_fault_line(stage_churn()), "blocks=5 txs=25 skipped=7 byz_skipped=0 crashes=20 restarts=17 min_live=18 equiv=0/0 breaches=0 flips=0 withholds=0 liars=0 wasted=0 bytes=320289 msgs=1956 clock_us=2975909 plan=972e0eb924bf7974 repair_bytes=31395 transfers=16 recoveries=27/27 cross=5 lost=0 missed_verdicts=0 stage=3/6 min_avail=0.6666666666666667 audit_clean=true shards=45 latency_mean_ms=413.9334");
}

#[test]
fn full_fault_run_crash_only() {
    assert_eq!(full_fault_line(crash_only()), "blocks=12 txs=60 skipped=0 byz_skipped=0 crashes=20 restarts=16 min_live=15 equiv=0/0 breaches=0 flips=0 withholds=0 liars=0 wasted=0 bytes=1356904 msgs=904 clock_us=3787780 plan=b0c540bb6856b6d0");
}

#[test]
fn full_fault_run_byzantine() {
    assert_eq!(full_fault_line(byzantine()), "blocks=8 txs=40 skipped=4 byz_skipped=4 crashes=15 restarts=13 min_live=18 equiv=4/4 breaches=0 flips=0 withholds=0 liars=0 wasted=129323 bytes=1113979 msgs=814 clock_us=2319086 plan=2a392b963b6c198d");
}

#[test]
fn full_fault_run_stage_churn() {
    assert_eq!(full_fault_line(stage_churn()), "blocks=12 txs=60 skipped=0 byz_skipped=0 crashes=18 restarts=15 min_live=18 equiv=0/0 breaches=0 flips=0 withholds=0 liars=0 wasted=0 bytes=1490493 msgs=993 clock_us=3811828 plan=f551f047c6008968");
}

#[test]
fn rapidchain_fault_run_crash_only() {
    assert_eq!(rapidchain_fault_line(crash_only()), "blocks=9 txs=45 skipped=3 byz_skipped=0 crashes=19 restarts=14 min_live=16 equiv=0/0 breaches=0 flips=0 withholds=0 liars=0 wasted=0 bytes=405992 msgs=2003 clock_us=1437582 plan=12481ab0d09f71d1");
}

#[test]
fn rapidchain_fault_run_byzantine() {
    assert_eq!(rapidchain_fault_line(byzantine()), "blocks=6 txs=30 skipped=6 byz_skipped=5 crashes=17 restarts=16 min_live=18 equiv=3/3 breaches=0 flips=15 withholds=3 liars=15 wasted=70880 bytes=314554 msgs=1450 clock_us=1363328 plan=3ff9c533872eec2b");
}

#[test]
fn rapidchain_fault_run_stage_churn() {
    assert_eq!(rapidchain_fault_line(stage_churn()), "blocks=7 txs=35 skipped=5 byz_skipped=0 crashes=20 restarts=16 min_live=17 equiv=0/0 breaches=0 flips=0 withholds=0 liars=0 wasted=0 bytes=467692 msgs=2296 clock_us=1420828 plan=d3d84c4517427cd9");
}

#[test]
fn ici_fault_free_run() {
    assert_eq!(run_line!(run_ici(ici_config(), 5, 6, workload())), "ICIStrategy n=24 blocks=5 txs=30 ledger=9006 stored=68724/816..5730 block_msgs=359.0 block_bytes=54033.2 latency_ms=282.20300000000003/277.927/322.317 tps=21.26023591775123 clock_ms=1411.085 bytes=270166 msgs=1795 clock_us=1411085");
}

#[test]
fn full_fault_free_run() {
    assert_eq!(run_line!(run_full(full_config(), 5, 6, workload())), "FullReplication n=24 blocks=5 txs=30 ledger=9006 stored=216144/9006..9006 block_msgs=95.2 block_bytes=168884.8 latency_ms=284.62/255.944/369.256 tps=21.07970235460275 clock_ms=1423.17 bytes=844424 msgs=476 clock_us=1423170");
}

#[test]
fn rapidchain_fault_free_run() {
    assert_eq!(run_line!(run_rapidchain(rapidchain_config(), 3, 6, workload())), "RapidChain n=24 blocks=9 txs=54 ledger=16374 stored=130992/5458..5458 block_msgs=224.0 block_bytes=46480.0 latency_ms=400.97355555555555/403.577/418.256 tps=43.14680861434024 clock_ms=1251.541 bytes=418320 msgs=2016 clock_us=1251541");
}
