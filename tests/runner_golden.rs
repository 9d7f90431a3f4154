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
use ici_cluster::membership::JoinPolicy;
use ici_core::config::IciConfig;
use ici_core::network::IciNetwork;
use ici_faults::plan::{ByzantineConfig, ChurnConfig, MessageFaultSpec, PartitionPolicy};
use ici_net::metrics::MessageKind;
use ici_net::node::NodeId;
use ici_net::topology::Coord;
use ici_sim::fault_run::{FaultProfile, StageChurn};
use ici_sim::strategy::Strategy;
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

/// Transactions offered to every block of a fault run.
const TXS_PER_BLOCK: usize = 5;

/// Every block `network` committed holds its whole batch. The fault
/// driver prices a block nobody commits (an equivocator's twin, a
/// stalled proposal) by its header and encoded batch without building
/// it, which is the built size only while no batch loses a transaction.
fn assert_whole_batches<S: Strategy>(network: &S) {
    for commit in network.commits() {
        assert_eq!(
            commit.tx_count as usize,
            TXS_PER_BLOCK,
            "{} height {}: a committed block dropped part of its batch",
            S::LABEL,
            commit.height
        );
    }
}

/// One fault run as a line of exact values, after checking that every
/// committed block holds its whole batch.
macro_rules! fault_line {
    ($run:expr) => {{
        let (network, s) = $run.expect("plan builds");
        assert_whole_batches(&network);
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
    let run = run_ici_under_faults(ici_config(), TXS_PER_BLOCK, workload(), profile);
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
    fault_line!(run_full_under_faults(
        full_config(),
        TXS_PER_BLOCK,
        workload(),
        profile
    ))
}

fn rapidchain_fault_line(profile: FaultProfile) -> String {
    fault_line!(run_rapidchain_under_faults(
        rapidchain_config(),
        TXS_PER_BLOCK,
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
    assert_eq!(rapidchain_fault_line(crash_only()), "blocks=28 txs=140 skipped=8 byz_skipped=0 crashes=19 restarts=14 min_live=16 equiv=0/0 breaches=0 flips=0 withholds=0 liars=0 wasted=0 bytes=1257828 msgs=6225 clock_us=3943943 plan=12481ab0d09f71d1");
}

#[test]
fn rapidchain_fault_run_byzantine() {
    assert_eq!(rapidchain_fault_line(byzantine()), "blocks=20 txs=100 skipped=16 byz_skipped=12 crashes=17 restarts=16 min_live=18 equiv=3/3 breaches=0 flips=55 withholds=12 liars=55 wasted=185264 bytes=1005088 msgs=4738 clock_us=3584678 plan=3ff9c533872eec2b");
}

#[test]
fn rapidchain_fault_run_stage_churn() {
    assert_eq!(rapidchain_fault_line(stage_churn()), "blocks=17 txs=85 skipped=19 byz_skipped=0 crashes=20 restarts=16 min_live=17 equiv=0/0 breaches=0 flips=0 withholds=0 liars=0 wasted=0 bytes=1358742 msgs=6618 clock_us=3110351 plan=d3d84c4517427cd9");
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

/// A profile whose plan schedules nothing: no churn, no guaranteed
/// cycles, no partitions, message faults, Byzantine action or stage
/// churn.
fn zero(rounds: usize) -> FaultProfile {
    FaultProfile {
        seed: 3,
        rounds,
        churn: ChurnConfig {
            crash_prob: 0.0,
            restart_prob: 0.0,
            cluster_churn_prob: 0.0,
            ensure_cycle_per_cluster: false,
            ..ChurnConfig::default()
        },
        partitions: PartitionPolicy::default(),
        messages: MessageFaultSpec::default(),
        byzantine: ByzantineConfig::default(),
        stage_churn: StageChurn { interval: 0 },
    }
}

/// What a run leaves behind: every lane's tip, the meter's totals, the
/// clock and each node's stored bytes.
fn end_state<S: Strategy>(strategy: &S) -> String {
    let tips: Vec<String> = (0..strategy.lanes())
        .map(|lane| match strategy.next_proposal(lane) {
            Some((_, tip)) => format!("{}@{}", tip.id().to_hex(), tip.height),
            None => "no proposer".into(),
        })
        .collect();
    let meter = strategy.net().meter().total();
    format!(
        "tips={} bytes={} msgs={} clock_us={} stored={:?}",
        tips.join(","),
        meter.bytes,
        meter.messages,
        strategy.now().as_micros(),
        strategy.stored_bytes(),
    )
}

#[test]
fn a_quiet_run_is_a_fault_run_whose_plan_schedules_nothing() {
    let (rounds, txs) = (5, 6);
    let (quiet, _) = run_ici(ici_config(), rounds, txs, workload());
    let (faulted, _) =
        run_ici_under_faults(ici_config(), txs, workload(), zero(rounds)).expect("plan builds");
    assert_eq!(end_state(&faulted), end_state(&quiet), "ICIStrategy");

    let (quiet, _) = run_full(full_config(), rounds, txs, workload());
    let (faulted, _) =
        run_full_under_faults(full_config(), txs, workload(), zero(rounds)).expect("plan builds");
    assert_eq!(end_state(&faulted), end_state(&quiet), "FullReplication");

    let (quiet, _) = run_rapidchain(rapidchain_config(), rounds, txs, workload());
    let (faulted, _) =
        run_rapidchain_under_faults(rapidchain_config(), txs, workload(), zero(rounds))
            .expect("plan builds");
    assert_eq!(end_state(&faulted), end_state(&quiet), "RapidChain");
}

/// The post-commit body traffic a network has metered, and its clock.
fn post_commit_line(network: &IciNetwork) -> String {
    let meter = network.net().meter();
    let repair = meter.kind(MessageKind::Repair);
    let bootstrap = meter.kind(MessageKind::Bootstrap);
    format!(
        " repair={}/{} bootstrap={}/{} clock_us={}",
        repair.bytes,
        repair.messages,
        bootstrap.bytes,
        bootstrap.messages,
        network.now().as_micros(),
    )
}

#[test]
fn ici_join_after_run() {
    let (mut network, _) = run_ici(ici_config(), 16, 6, workload());
    network.crash_node(NodeId::new(3)).expect("known node");
    let r = network
        .bootstrap_node(Coord::new(40.0, 40.0), JoinPolicy::NearestCentroid)
        .expect("joins");
    let line = format!(
        "node={} cluster={} header_bytes={} body_bytes={} bodies={} pruned={} duration_us={}",
        r.node,
        r.cluster,
        r.header_bytes,
        r.body_bytes,
        r.bodies,
        r.pruned_bodies,
        r.duration.as_micros(),
    ) + &post_commit_line(&network);
    assert_eq!(line, "node=n24 cluster=0 header_bytes=2312 body_bytes=4914 bodies=3 pruned=3 duration_us=52398 repair=0/0 bootstrap=7226/4 clock_us=4584200");
}

#[test]
fn ici_reconfigure_after_joins() {
    let (mut network, _) = run_ici(ici_config(), 5, 6, workload());
    for i in 0..4 {
        network
            .bootstrap_node(
                Coord::new(30.0 * i as f64, 90.0),
                JoinPolicy::SmallestCluster,
            )
            .expect("joins");
    }
    network.crash_node(NodeId::new(5)).expect("known node");
    let r = network.reconfigure_clusters();
    let line = format!(
        "clusters={}->{} moved={} fetched={} pruned={} bytes={} duration_us={}",
        r.clusters_before,
        r.clusters_after,
        r.moved_nodes,
        r.bodies_fetched,
        r.bodies_pruned,
        r.bytes_moved,
        r.duration.as_micros(),
    ) + &post_commit_line(&network);
    assert_eq!(line, "clusters=3->4 moved=26 fetched=16 pruned=4 bytes=21294 duration_us=440246 repair=21294/13 bootstrap=8178/7 clock_us=1851331");
}
