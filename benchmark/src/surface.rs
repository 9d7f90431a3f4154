//! The measured API surface: every function of the repo that the
//! benchmark calls is called from this file and from nowhere else.
//!
//! `benchmark/` is frozen to changes that claim a gain, so a refactor
//! of the crates has to keep the signatures used here (or keep them as
//! thin wrappers). The rest of the benchmark sees only the aliases and
//! functions below; it decides what to time, this file decides what a
//! call is. Functions are grouped by the layer they enter.

use std::collections::BTreeSet;

use ici_baselines::full::{FullConfig, FullReplicationNetwork};
use ici_baselines::rapidchain::{RapidChainConfig, RapidChainNetwork};
use ici_chain::block::{Block, BlockHeader};
use ici_chain::builder::BlockBuilder;
use ici_chain::codec::{Decode, Encode};
use ici_chain::genesis::GenesisConfig;
use ici_chain::mempool::{Mempool, MempoolError};
use ici_chain::state::{StateCommitment, WorldState};
use ici_chain::transaction::{Address, Transaction};
use ici_chain::validation::{validate_block, validate_block_in_place};
use ici_cluster::kmeans::{balanced_kmeans, KMeansConfig};
use ici_cluster::membership::{JoinPolicy, Membership};
use ici_cluster::partition::ClusterId;
use ici_consensus::gossip::{gossip_flood, GossipConfig};
use ici_consensus::ida::{run_ida_dissemination, IdaConfig};
use ici_consensus::leader::elect_leader;
use ici_consensus::pbft::{run_pbft_commit, PbftInputs};
use ici_core::config::IciConfig;
use ici_core::network::IciNetwork;
use ici_core::{QueryTier, StageBoundary};
use ici_crypto::merkle::MerkleTree;
use ici_crypto::rs::ReedSolomon;
use ici_crypto::sha256::{Digest, Sha256};
use ici_crypto::sig::{Keypair, Signature};
use ici_faults::plan::{
    ByzantineConfig, ChurnConfig, FaultPlanConfig, MessageFaultSpec, PartitionPolicy,
};
use ici_net::link::LinkModel;
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};
use ici_net::topology::{Coord, Placement, Topology};
use ici_rng::Xoshiro256;
use ici_sim::fault_run::{run_ici_under_faults, FaultProfile, StageChurn};
use ici_storage::assignment::{AssignmentStrategy, RendezvousAssignment};
use ici_storage::audit::Holdings;
use ici_storage::recovery::{plan_recovery, BlockRef};
use ici_workload::{
    PayloadSize, SenderDistribution, TrafficConfig, TrafficStream, WorkloadConfig,
    WorkloadGenerator,
};

pub type IciNet = IciNetwork;
pub type FullNet = FullReplicationNetwork;
pub type RapidNet = RapidChainNetwork;
pub type Tx = Transaction;
pub type Batch = Vec<Transaction>;
pub type SimNet = Network;
pub type Node = NodeId;
pub type Rng = Xoshiro256;
pub type State = WorldState;
pub type Pool = Mempool;
pub type Header = BlockHeader;
pub type Hash = Digest;

/// Seed of everything that is part of the simulated deployment and not
/// of the workload: node placement, clustering, committee draw. Only
/// transactions, schedules and fault plans follow `--seed`.
pub const DEPLOYMENT_SEED: u64 = 17;

/// Genesis balance per account, as the repo's runners fund them: no
/// sender runs dry.
const GENESIS_BALANCE: u64 = u64::MAX / 1_000_000;

// ---- host ---------------------------------------------------------------

/// Allocation counters of the process (the counting allocator comes
/// with linking `ici-bench`).
#[derive(Clone, Copy, Debug)]
pub struct AllocCounters {
    pub count: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

pub fn alloc_counters() -> AllocCounters {
    let s = ici_bench::alloc::stats();
    AllocCounters {
        count: s.count,
        bytes: s.bytes,
        peak_live_bytes: s.peak_live_bytes,
    }
}

pub fn par_threads() -> usize {
    ici_par::threads()
}

pub fn pipeline_depth() -> usize {
    ici_par::pipeline_depth()
}

pub fn state_shards() -> usize {
    ici_chain::shard::state_shards()
}

/// One worker, sequential lifecycle (`true`), or back to `threads`
/// workers with the pipeline depth following them (`false`).
pub fn set_serial(serial: bool, threads: usize) {
    ici_par::set_threads(if serial { 1 } else { threads });
    ici_par::set_pipeline_depth(if serial { 1 } else { 0 });
}

pub fn set_telemetry(on: bool) {
    ici_telemetry::set_enabled(on);
    ici_telemetry::reset();
}

pub fn set_trace(on: bool) {
    ici_trace::set_enabled(on);
    ici_trace::reset();
}

/// The injected message delay, as the experiment binaries use it.
pub fn quiet_link() -> LinkModel {
    ici_bench::quiet_link()
}

/// `base_ms`, `bandwidth_mbps`, `max_jitter_ms` of [`quiet_link`].
pub fn link_parameters() -> (f64, f64, f64) {
    let l = quiet_link();
    (l.base_ms, l.bandwidth_mbps, l.max_jitter_ms)
}

pub fn rng(seed: u64) -> Rng {
    Xoshiro256::seed_from_u64(seed)
}

pub fn rng_below(rng: &mut Rng, bound: u64) -> u64 {
    rng.bounded_u64(bound)
}

pub fn rng_shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    rng.shuffle(items);
}

// ---- workload -----------------------------------------------------------

/// Parameters of a transaction stream.
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    pub accounts: u64,
    pub zipf: f64,
    pub payload: usize,
    pub fee_jitter: u64,
}

fn workload_config(spec: StreamSpec, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        accounts: spec.accounts,
        senders: SenderDistribution::Zipf {
            exponent: spec.zipf,
        },
        payload: PayloadSize::Fixed(spec.payload),
        amount: 1,
        fee: 1,
        fee_jitter: spec.fee_jitter,
        seed,
    }
}

pub fn tx_generator(spec: StreamSpec, seed: u64) -> WorkloadGenerator {
    WorkloadGenerator::new(workload_config(spec, seed))
}

pub fn next_tx(generator: &mut WorkloadGenerator) -> Tx {
    generator.next_tx()
}

/// `blocks` batches of `txs` transactions each.
pub fn tx_batches(spec: StreamSpec, seed: u64, blocks: usize, txs: usize) -> Vec<Batch> {
    let mut generator = tx_generator(spec, seed);
    (0..blocks).map(|_| generator.batch(txs)).collect()
}

/// Per-shard batches for RapidChain, one generator per shard so nonces
/// stay sequential inside each shard's ledger (as `run_rapidchain`).
pub fn shard_batches(
    spec: StreamSpec,
    seed: u64,
    shards: usize,
    rounds: usize,
    txs: usize,
) -> Vec<Vec<(usize, Batch)>> {
    let mut generators: Vec<WorkloadGenerator> = (0..shards)
        .map(|s| tx_generator(spec, seed ^ (s as u64).wrapping_mul(0x9E37_79B9)))
        .collect();
    (0..rounds)
        .map(|_| {
            generators
                .iter_mut()
                .enumerate()
                .map(|(shard, g)| (shard, g.batch(txs)))
                .collect()
        })
        .collect()
}

/// Rounds of burst traffic: `base` transactions a round, `multiplier`
/// times that every `burst_every`-th round.
pub fn traffic_rounds(
    spec: StreamSpec,
    seed: u64,
    rounds: usize,
    base: usize,
    burst_every: u64,
    multiplier: usize,
) -> Vec<Batch> {
    let mut stream = TrafficStream::new(
        tx_generator(spec, seed),
        TrafficConfig {
            base_txs_per_round: base,
            burst_every,
            burst_multiplier: multiplier,
        },
    );
    (0..rounds).map(|_| stream.next_round()).collect()
}

// ---- core: the ICI deployment -------------------------------------------

/// Shape of an ICI deployment.
#[derive(Clone, Copy, Debug)]
pub struct Deployment {
    pub nodes: usize,
    pub cluster_size: usize,
    pub replication: usize,
    pub accounts: u64,
}

pub fn ici_config(d: Deployment) -> IciConfig {
    IciConfig::builder()
        .nodes(d.nodes)
        .cluster_size(d.cluster_size)
        .replication(d.replication)
        .link(quiet_link())
        .genesis(GenesisConfig::uniform(d.accounts, GENESIS_BALANCE))
        .seed(DEPLOYMENT_SEED)
        .build()
        .expect("benchmark deployments are valid configurations")
}

pub fn ici_new(d: Deployment) -> IciNet {
    IciNetwork::new(ici_config(d)).expect("valid configuration")
}

/// Commits one block per batch through the pipelined lifecycle at the
/// shipped depth; `on_commit` runs after each in-order commit.
pub fn propose_pipelined(
    net: &mut IciNet,
    batches: Vec<Batch>,
    mut on_commit: impl FnMut(),
) -> Result<(), String> {
    net.propose_blocks_pipelined(batches, pipeline_depth(), |_, _| on_commit())
        .map_err(|e| e.to_string())
}

/// The lifecycle stage that just finished, in order; commit follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Built,
    Distributed,
    Verified,
}

/// Commits one block, calling `after` at each stage boundary.
pub fn propose_staged(
    net: &mut IciNet,
    batch: Batch,
    mut after: impl FnMut(Stage),
) -> Result<(), String> {
    net.propose_block_staged(batch, |boundary, _| {
        after(match boundary {
            StageBoundary::AfterBuild => Stage::Built,
            StageBoundary::AfterDistribute => Stage::Distributed,
            StageBoundary::AfterVerify => Stage::Verified,
        })
    })
    .map(|_| ())
    .map_err(|e| e.to_string())
}

pub fn propose_block(net: &mut IciNet, batch: Batch) -> Result<(), String> {
    net.propose_block(batch)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// What a finished ICI run reads out, all on the virtual clock or in
/// simulated bytes: pure functions of the inputs.
#[derive(Clone, Debug)]
pub struct IciReadout {
    pub blocks: u64,
    pub txs: u64,
    /// Commit latency of each block, microseconds of virtual time.
    pub commit_latency_us: Vec<u64>,
    pub final_clock_us: u64,
    pub messages: u64,
    pub bytes: u64,
    pub storage_mean_bytes: f64,
    pub full_replica_bytes: u64,
    pub tip: String,
}

pub fn ici_readout(net: &IciNet) -> IciReadout {
    let log = net.commit_log();
    let total = net.net().meter().total();
    IciReadout {
        blocks: log.len() as u64,
        txs: log.iter().map(|r| u64::from(r.tx_count)).sum(),
        commit_latency_us: log.iter().map(|r| r.commit_latency().as_micros()).collect(),
        final_clock_us: net.now().as_micros(),
        messages: total.messages,
        bytes: total.bytes,
        storage_mean_bytes: net.storage_stats().mean,
        full_replica_bytes: net.full_replica_bytes(),
        tip: net.tip().id().to_hex(),
    }
}

/// Messages and bytes per message class.
pub fn traffic_by_kind(net: &SimNet) -> Vec<(&'static str, u64, u64)> {
    net.meter()
        .by_kind()
        .iter()
        .map(|(kind, c)| (kind.name(), c.messages, c.bytes))
        .collect()
}

pub fn ici_sim_net(net: &IciNet) -> &SimNet {
    net.net()
}

pub fn chain_len(net: &IciNet) -> u64 {
    net.chain_len()
}

pub fn block_at(net: &IciNet, height: u64) -> &Block {
    net.block(height).expect("height below the chain length")
}

pub fn block_tx_count(block: &Block) -> usize {
    block.transactions().len()
}

pub fn block_tx(block: &Block, index: usize) -> &Tx {
    &block.transactions()[index]
}

pub fn block_body_len(block: &Block) -> u64 {
    u64::from(block.header().body_len)
}

/// Members of every cluster that are up, by cluster.
pub fn live_clusters(net: &IciNet) -> Vec<Vec<Node>> {
    net.clusters()
        .into_iter()
        .map(|c| net.live_members(c))
        .collect()
}

pub fn all_nodes(net: &IciNet) -> Vec<Node> {
    ici_net::node::all_nodes(net.config().nodes).collect()
}

/// Replays the committed chain from genesis through `validate_block`
/// and compares the result with the committed tip state.
pub fn check_chain_replays(net: &IciNet) -> Result<(), String> {
    let genesis = &net.config().genesis;
    let mut state = genesis.initial_state();
    let mut parent = *block_at(net, 0).header();
    if parent.id() != genesis.genesis_block().id() {
        return Err("height 0 is not the configured genesis".into());
    }
    for height in 1..net.chain_len() {
        let block = block_at(net, height);
        state = validate_block(block, &parent, &state)
            .map_err(|e| format!("height {height} does not validate on replay: {e}"))?;
        parent = *block.header();
    }
    if state.root() != net.tip().state_root || &state != net.state() {
        return Err("replayed state differs from the committed tip state".into());
    }
    Ok(())
}

/// Every cluster still holds every block.
pub fn check_clusters_intact(net: &IciNet) -> Result<(), String> {
    match net.audit_all().iter().position(|r| !r.is_intact()) {
        None => Ok(()),
        Some(c) => Err(format!("cluster {c} no longer holds the whole chain")),
    }
}

/// Rebuilds the deployment and checks that every cluster accepts every
/// block of `committed` as the candidate for its height, and that the
/// rebuilt chain commits the same blocks. (`network_verify` judges a
/// candidate against the tip, so it is asked before each commit.)
pub fn check_network_verifies(
    d: Deployment,
    batches: Vec<Batch>,
    committed: &IciNet,
) -> Result<(), String> {
    let mut net = ici_new(d);
    for (i, batch) in batches.into_iter().enumerate() {
        let height = i as u64 + 1;
        let block = block_at(committed, height);
        net.network_verify(block)
            .map_err(|(c, v)| format!("cluster {} rejects height {height}: {v:?}", c.get()))?;
        propose_block(&mut net, batch)?;
        if net.tip().id() != block.id() {
            return Err(format!("rebuilt chain diverges at height {height}"));
        }
    }
    Ok(())
}

/// One cluster's collaborative verdict on a candidate for the next height.
pub fn collaborative_verify(net: &IciNet, cluster: usize, candidate: &Block) -> bool {
    net.collaborative_verify(ClusterId::new(cluster as u32), candidate)
        .is_accept()
}

// ---- core: reads and joins ----------------------------------------------

/// Crashes `node` without repairing its cluster.
pub fn crash(net: &mut IciNet, node: Node) {
    net.crash_node(node).expect("node of this deployment");
}

/// Brings a crashed node back with its disk intact.
pub fn recover(net: &mut IciNet, node: Node) {
    net.recover_node(node).expect("node of this deployment");
}

pub fn is_up(net: &IciNet, node: Node) -> bool {
    net.net().is_up(node)
}

/// Clusters that still hold every block on members that are up.
pub fn intact_clusters(net: &IciNet) -> Vec<usize> {
    net.audit_all()
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_intact())
        .map(|(c, _)| c)
        .collect()
}

/// Where a joiner must stand to be nearest to `cluster`: the centroid
/// of its active members.
pub fn cluster_centroid(net: &IciNet, cluster: usize) -> (f64, f64) {
    let members = net
        .membership()
        .active_members(ClusterId::new(cluster as u32));
    let topology = net.net().topology();
    let (x, y) = members.iter().fold((0.0, 0.0), |(x, y), m| {
        let c = topology.coord(*m);
        (x + c.x, y + c.y)
    });
    (x / members.len() as f64, y / members.len() as f64)
}

/// Which tier answered a body query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Local,
    IntraCluster,
    CrossCluster,
}

/// A served read or join: simulated latency, bytes moved, and the
/// transactions handed to the reader.
#[derive(Clone, Debug)]
pub struct Served {
    pub latency_us: u64,
    pub bytes: u64,
    pub txs: u64,
    pub tier: Option<Tier>,
}

/// Fetches the body at `height`; checks the bytes against the header.
pub fn query_body(net: &mut IciNet, requester: Node, height: u64) -> Result<Served, String> {
    let report = net
        .query_body(requester, height)
        .map_err(|e| e.to_string())?;
    let header = block_at(net, height).header();
    let tier = match report.tier {
        QueryTier::Local => Tier::Local,
        QueryTier::IntraCluster => Tier::IntraCluster,
        QueryTier::CrossCluster => Tier::CrossCluster,
    };
    let expected = if tier == Tier::Local {
        0
    } else {
        u64::from(header.body_len)
    };
    if report.bytes != expected {
        return Err(format!(
            "body query at height {height} moved {} bytes, header says {expected}",
            report.bytes
        ));
    }
    Ok(Served {
        latency_us: report.latency.as_micros(),
        bytes: report.bytes,
        txs: u64::from(header.tx_count),
        tier: Some(tier),
    })
}

/// A transaction with its inclusion proof, kept to be checked against
/// the header chain outside the timed region.
pub struct ProvenTx {
    served: Served,
    height: u64,
    tx: Tx,
    proof: ici_crypto::merkle::MerkleProof,
}

impl ProvenTx {
    pub fn served(&self) -> &Served {
        &self.served
    }
}

pub fn tx_id(tx: &Tx) -> Hash {
    tx.id()
}

pub fn query_transaction(net: &mut IciNet, requester: Node, id: &Hash) -> Result<ProvenTx, String> {
    let report = net
        .query_transaction(requester, id)
        .map_err(|e| e.to_string())?;
    Ok(ProvenTx {
        served: Served {
            latency_us: report.latency.as_micros(),
            bytes: report.bytes,
            txs: 1,
            tier: None,
        },
        height: report.height,
        tx: report.transaction,
        proof: report.proof,
    })
}

/// The proof verifies against the header the chain holds at its height.
pub fn check_proof(net: &IciNet, proven: &ProvenTx) -> Result<(), String> {
    let root = block_at(net, proven.height).header().tx_root;
    if proven.proof.verify(&proven.tx.to_bytes(), root) {
        Ok(())
    } else {
        Err(format!(
            "proof for a transaction at height {} does not verify",
            proven.height
        ))
    }
}

/// Admits a node standing at `at` into the nearest cluster.
pub fn bootstrap_node(net: &mut IciNet, at: (f64, f64)) -> Result<Served, String> {
    let report = net
        .bootstrap_node(Coord::new(at.0, at.1), JoinPolicy::NearestCentroid)
        .map_err(|e| e.to_string())?;
    Ok(Served {
        latency_us: report.duration.as_micros(),
        bytes: report.total_bytes(),
        txs: 0,
        tier: None,
    })
}

// ---- sim / faults -------------------------------------------------------

/// The `e_fault` profile over `rounds` rounds, fault schedule from `seed`.
pub fn churn_profile(seed: u64, rounds: usize) -> FaultProfile {
    FaultProfile {
        seed,
        rounds,
        churn: ChurnConfig {
            crash_prob: 0.04,
            restart_prob: 0.45,
            cluster_churn_prob: 0.08,
            cluster_churn_fraction: 0.25,
            min_live_per_cluster: 6,
            ensure_cycle_per_cluster: true,
        },
        partitions: PartitionPolicy {
            prob: 0.1,
            max_duration_rounds: 2,
        },
        messages: MessageFaultSpec {
            drop_prob: 0.05,
            dup_prob: 0.02,
            delay_prob: 0.05,
            max_extra_delay_ms: 25.0,
        },
        byzantine: ByzantineConfig::default(),
        stage_churn: StageChurn { interval: 3 },
    }
}

/// What the fault run reports about itself.
#[derive(Clone, Debug)]
pub struct ChurnOutcome {
    pub rounds: u64,
    /// Rounds whose proposal was refused (no quorum, partitioned leader);
    /// the batch is retried next round.
    pub skipped_rounds: u64,
    pub crash_events: u64,
    pub recovery_attempts: u64,
    pub recovery_successes: u64,
    pub repair_bytes: u64,
    pub unrecoverable_heights: usize,
    pub safety_breaches: usize,
    pub final_audit_clean: bool,
    pub plan_fingerprint: u64,
}

/// The whole fault run, a black box: it builds its own network.
pub fn run_under_faults(
    d: Deployment,
    stream: StreamSpec,
    tx_seed: u64,
    fault_seed: u64,
    rounds: usize,
    txs: usize,
) -> Result<(IciNet, ChurnOutcome), String> {
    let (net, summary) = run_ici_under_faults(
        ici_config(d),
        txs,
        workload_config(stream, tx_seed),
        churn_profile(fault_seed, rounds),
    )
    .map_err(|e| e.to_string())?;
    let outcome = ChurnOutcome {
        rounds: summary.rounds as u64,
        skipped_rounds: summary.skipped_rounds as u64,
        crash_events: (summary.crash_events + summary.stage_crash_events) as u64,
        recovery_attempts: summary.recovery_attempts as u64,
        recovery_successes: summary.recovery_successes as u64,
        repair_bytes: summary.repair_bytes,
        unrecoverable_heights: summary.unrecoverable_heights.len(),
        safety_breaches: summary.safety_breaches,
        final_audit_clean: summary.final_audit_clean,
        plan_fingerprint: summary.plan_fingerprint,
    };
    Ok((net, outcome))
}

/// Builds the fault plan `run_under_faults` will build over `net`'s
/// clusters. Returns the scheduled crash count.
pub fn fault_plan_build(net: &IciNet, seed: u64, rounds: usize) -> Result<usize, String> {
    let clusters = net
        .clusters()
        .into_iter()
        .map(|c| net.membership().active_members(c))
        .collect();
    let profile = churn_profile(seed, rounds);
    FaultPlanConfig::new(seed, rounds, clusters)
        .churn(profile.churn)
        .partitions(profile.partitions)
        .messages(profile.messages)
        .byzantine(profile.byzantine)
        .build()
        .map(|plan| plan.total_crashes())
        .map_err(|e| e.to_string())
}

/// Re-replicates every cluster; returns repair bytes.
pub fn repair_all(net: &mut IciNet) -> u64 {
    net.repair_all().iter().map(|r| r.bytes).sum()
}

/// Shard-level Merkle audit of every cluster; `true` when all clean.
pub fn merkle_audit_all(net: &IciNet) -> bool {
    net.merkle_audit_all().iter().all(|r| r.is_clean())
}

/// Holdings audit of every cluster; `true` when all intact.
pub fn audit_all(net: &IciNet) -> bool {
    net.audit_all().iter().all(|r| r.is_intact())
}

/// Plans the recovery of `cluster` after `crashed` (one of its members)
/// went down, over the first `heights` heights.
pub fn plan_cluster_recovery(net: &IciNet, cluster: usize, crashed: Node, heights: u64) -> usize {
    let members = net
        .membership()
        .active_members(ClusterId::new(cluster as u32));
    let holdings: Holdings = members
        .iter()
        .map(|m| {
            let held = net.holdings(*m).map(|h| h.body_heights().clone());
            (*m, held.unwrap_or_default())
        })
        .collect();
    let live: BTreeSet<Node> = members.iter().copied().filter(|m| *m != crashed).collect();
    let blocks: Vec<BlockRef> = (0..heights.min(net.chain_len()))
        .map(|h| {
            let block = block_at(net, h);
            BlockRef {
                id: block.id(),
                height: h,
                body_bytes: block_body_len(block),
            }
        })
        .collect();
    let plan = plan_recovery(
        &blocks,
        &holdings,
        &live,
        &RendezvousAssignment,
        net.config().replication,
    );
    plan.transfers.len()
}

// ---- baselines ----------------------------------------------------------

pub fn full_new(nodes: usize, accounts: u64) -> FullNet {
    FullReplicationNetwork::new(FullConfig {
        nodes,
        link: quiet_link(),
        genesis: GenesisConfig::uniform(accounts, GENESIS_BALANCE),
        seed: DEPLOYMENT_SEED,
        ..FullConfig::default()
    })
}

pub fn full_propose(net: &mut FullNet, batch: Batch) -> Result<(), String> {
    net.propose_block(batch)
        .map(|_| ())
        .ok_or_else(|| "full replication found no live proposer".to_string())
}

pub fn rapid_new(nodes: usize, committee: usize, accounts: u64) -> RapidNet {
    RapidChainNetwork::new(RapidChainConfig {
        nodes,
        committee_size: committee,
        link: quiet_link(),
        genesis: GenesisConfig::uniform(accounts, GENESIS_BALANCE),
        seed: DEPLOYMENT_SEED,
        ..RapidChainConfig::default()
    })
}

pub fn rapid_shards(net: &RapidNet) -> usize {
    net.shard_count()
}

/// One block per shard, committees in parallel.
pub fn rapid_propose_round(net: &mut RapidNet, batches: Vec<(usize, Batch)>) -> Result<(), String> {
    if net.propose_round(batches).iter().all(Option::is_some) {
        Ok(())
    } else {
        Err("a RapidChain shard failed to commit".to_string())
    }
}

/// What a finished baseline run reads out.
#[derive(Clone, Debug)]
pub struct BaselineReadout {
    pub blocks: u64,
    pub txs: u64,
    pub storage_mean_bytes: f64,
    /// One replica of the whole ledger (all shards for RapidChain).
    pub ledger_bytes: u64,
    pub tip: String,
}

pub fn full_readout(net: &FullNet) -> BaselineReadout {
    let log = net.commit_log();
    let per_node = net.storage_bytes_per_node();
    BaselineReadout {
        blocks: log.len() as u64,
        txs: log.iter().map(|r| u64::from(r.tx_count)).sum(),
        storage_mean_bytes: per_node as f64,
        ledger_bytes: per_node,
        tip: net
            .block(net.chain_len() - 1)
            .expect("tip exists")
            .id()
            .to_hex(),
    }
}

pub fn rapid_readout(net: &RapidNet) -> BaselineReadout {
    let log = net.commit_log();
    let per_node = net.storage_bytes();
    let mut tips = String::new();
    let mut ledger_bytes = 0u64;
    for shard in 0..net.shard_count() {
        let len = net.shard_chain_len(shard);
        for h in 0..len {
            let header = *net
                .shard_block(shard, h)
                .expect("below shard length")
                .header();
            ledger_bytes += BlockHeader::ENCODED_LEN as u64 + u64::from(header.body_len);
        }
        let tip = net.shard_block(shard, len - 1).expect("shard tip exists");
        tips.push_str(&tip.id().to_hex()[..16]);
    }
    BaselineReadout {
        blocks: log.len() as u64,
        txs: log.iter().map(|r| u64::from(r.tx_count)).sum(),
        storage_mean_bytes: per_node.iter().sum::<u64>() as f64 / per_node.len() as f64,
        ledger_bytes,
        tip: tips,
    }
}

/// Every block of a full-replication chain validates from genesis.
pub fn check_full_replays(net: &FullNet) -> Result<(), String> {
    let genesis = &net.config().genesis;
    let mut state = genesis.initial_state();
    let mut parent = *net.block(0).expect("genesis").header();
    for height in 1..net.chain_len() {
        let block = net.block(height).expect("below chain length");
        state = validate_block(block, &parent, &state)
            .map_err(|e| format!("full replication height {height}: {e}"))?;
        parent = *block.header();
    }
    Ok(())
}

/// Every shard chain of a RapidChain run validates from genesis.
pub fn check_rapid_replays(net: &RapidNet) -> Result<(), String> {
    let genesis = &net.config().genesis;
    for shard in 0..net.shard_count() {
        let mut state = genesis.initial_state();
        let mut parent = *net.shard_block(shard, 0).expect("genesis").header();
        for height in 1..net.shard_chain_len(shard) {
            let block = net.shard_block(shard, height).expect("below shard length");
            state = validate_block(block, &parent, &state)
                .map_err(|e| format!("RapidChain shard {shard} height {height}: {e}"))?;
            parent = *block.header();
        }
    }
    Ok(())
}

/// Encoded body of the block at `height` (what IDA would disperse).
pub fn encoded_body(net: &IciNet, height: u64) -> Vec<u8> {
    let block = block_at(net, height);
    let mut body = Vec::with_capacity(block.body_len());
    for tx in block.transactions() {
        body.extend_from_slice(&tx.to_bytes());
    }
    body
}

// ---- chain: the scale loop ----------------------------------------------

/// The fixed proposing node of the scale loop (`e_scale`).
const SCALE_PROPOSER: u64 = 7;

/// Funded universe of the scale loop.
pub struct ScaleGenesis {
    config: GenesisConfig,
    balance: u64,
}

pub fn scale_genesis(accounts: u64) -> ScaleGenesis {
    let balance = 1_000_000;
    ScaleGenesis {
        config: GenesisConfig::uniform(accounts, balance),
        balance,
    }
}

impl ScaleGenesis {
    /// Header of height 0 committing to `state` under the v2 root the
    /// loop seals with. (`GenesisConfig::genesis_block` would build a
    /// third state and hash a million accounts into a flat v1 root the
    /// loop never reads.) Also fills `state`'s bucket-root cache.
    pub fn genesis_header(&self, state: &mut State) -> Header {
        let template = BlockHeader {
            height: 0,
            parent: Digest::ZERO,
            tx_root: Digest::ZERO,
            state_root: state.sharded_root(),
            timestamp_ms: self.config.timestamp_ms(),
            proposer: 0,
            pow_nonce: 0,
            tx_count: 0,
            body_len: 0,
        };
        *Block::new(template, Vec::new()).header()
    }

    /// A freshly built (unshared) sharded state.
    pub fn state(&self) -> State {
        self.config.initial_state()
    }

    pub fn supply(&self) -> u64 {
        self.config.allocations().len() as u64 * self.balance
    }

    /// Replays `blocks` on a single-shard state: contents, v1 root and
    /// v2 root must equal the incrementally maintained sharded run.
    pub fn check_flat_replay(&self, blocks: &[Block], run: &mut State) -> Result<(), String> {
        let mut reference =
            WorldState::with_balances_sharded(self.config.allocations().iter().copied(), 1);
        for block in blocks {
            reference
                .apply_block(block)
                .map_err(|(i, e)| format!("flat replay failed at tx {i}: {e}"))?;
        }
        if &reference != run {
            return Err("flat replay contents diverge".into());
        }
        if reference.root() != run.root() {
            return Err("flat replay v1 root diverges".into());
        }
        let sealed = blocks.last().map(|b| b.header().state_root);
        if Some(reference.sharded_root()) != sealed || Some(run.sharded_root()) != sealed {
            return Err("v2 root diverges from the sealed header".into());
        }
        Ok(())
    }
}

pub fn pool_new(capacity: usize) -> Pool {
    Mempool::new(capacity)
}

/// Outcome of offering a transaction to the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    Admitted,
    Underpriced,
    PoolFull,
}

pub fn pool_insert(pool: &mut Pool, tx: Tx) -> Admission {
    match pool.insert(tx) {
        Ok(()) => Admission::Admitted,
        Err(MempoolError::Underpriced { .. }) => Admission::Underpriced,
        Err(MempoolError::PoolFull) => Admission::PoolFull,
        Err(e) => panic!("generator emitted a rejected transaction: {e}"),
    }
}

pub fn pool_take(pool: &mut Pool, max: usize) -> Batch {
    pool.take_for_block(max)
}

pub fn pool_evicted(pool: &Pool) -> u64 {
    pool.evicted()
}

/// Drops the sender's pooled transactions at or below `tx`'s nonce.
pub fn pool_prune(pool: &mut Pool, tx: &Tx) {
    pool.prune_below(&tx.sender_address(), tx.nonce() + 1);
}

pub fn scale_collector() -> Address {
    Address::from_seed(SCALE_PROPOSER)
}

pub fn state_apply(state: &mut State, tx: &Tx, collector: Address) -> bool {
    state.apply(tx, collector).is_ok()
}

pub fn state_dirty_buckets(state: &State) -> usize {
    state.dirty_buckets()
}

pub fn state_root_v2(state: &mut State) -> Hash {
    state.sharded_root()
}

pub fn state_root_v1(state: &State) -> Hash {
    state.root()
}

pub fn state_supply(state: &State) -> u64 {
    state.total_supply()
}

/// Seals `txs` as the child of `parent` under the v2 commitment.
pub fn block_new(parent: &Header, state_root: Hash, txs: Batch) -> Block {
    let height = parent.height + 1;
    Block::new(
        BlockHeader {
            height,
            parent: parent.id(),
            tx_root: Digest::ZERO,
            state_root,
            timestamp_ms: height * 1_000,
            proposer: SCALE_PROPOSER,
            pow_nonce: 0,
            tx_count: 0,
            body_len: 0,
        },
        txs,
    )
}

pub fn block_header(block: &Block) -> Header {
    *block.header()
}

pub fn validate_in_place_v2(
    block: &Block,
    parent: &Header,
    state: &mut State,
) -> Result<(), String> {
    validate_block_in_place(block, parent, state, StateCommitment::ShardedV2)
        .map_err(|e| e.to_string())
}

// ---- chain: blocks, state, codec ----------------------------------------

/// The state a candidate for the next height executes on, and its parent.
pub fn tip_and_state(net: &IciNet) -> (Header, State) {
    (*net.tip(), net.state().clone())
}

/// Fills and seals a block from `batch` on `state`, as a leader does.
pub fn block_seal(parent: &Header, state: State, batch: Batch) -> Block {
    let mut builder = BlockBuilder::new(parent, state, 0, parent.timestamp_ms + 1);
    builder.fill(batch);
    builder.seal()
}

pub fn block_validate(block: &Block, parent: &Header, state: &State) -> bool {
    validate_block(block, parent, state).is_ok()
}

pub fn state_with_accounts(accounts: u64) -> State {
    GenesisConfig::uniform(accounts, GENESIS_BALANCE).initial_state()
}

pub fn state_clone(state: &State) -> State {
    state.clone()
}

pub fn tx_encode(tx: &Tx) -> Vec<u8> {
    tx.to_bytes()
}

pub fn tx_decode(bytes: &[u8]) -> Tx {
    Transaction::from_bytes(bytes).expect("bytes of an encoded transaction")
}

// ---- crypto -------------------------------------------------------------

pub fn hash_hex(hash: &Hash) -> String {
    hash.to_hex()
}

pub fn sha256(data: &[u8]) -> Hash {
    Sha256::digest(data)
}

/// A signer and a message to time `sign`/`verify` on.
pub struct SigCase {
    pair: Keypair,
    message: Vec<u8>,
    signature: Signature,
}

/// The signing case of a workload transaction.
pub fn sig_case(tx: &Tx, signer_seed: u64) -> SigCase {
    let pair = Keypair::from_seed(signer_seed);
    let message = tx.signing_bytes();
    SigCase {
        signature: pair.sign(&message),
        pair,
        message,
    }
}

pub fn sig_sign(case: &SigCase) -> Signature {
    case.pair.sign(&case.message)
}

pub fn sig_verify(case: &SigCase) -> bool {
    case.pair.public().verify(&case.message, &case.signature)
}

pub fn merkle_tree(leaves: Vec<Vec<u8>>) -> MerkleTree {
    MerkleTree::from_owned_leaves(leaves)
}

/// Proves leaf `index` and verifies the proof against the root.
pub fn merkle_prove_verify(tree: &MerkleTree, index: usize, leaf: &[u8]) -> bool {
    tree.prove(index)
        .is_some_and(|proof| proof.verify(leaf, tree.root()))
}

/// Reed–Solomon coder with the IDA geometry the baselines use.
pub fn ida_coder() -> ReedSolomon {
    let ida = IdaConfig::default();
    ReedSolomon::new(ida.data_shards, ida.parity_shards).expect("the default IDA geometry is valid")
}

pub fn rs_encode(coder: &ReedSolomon, payload: &[u8]) -> Vec<Vec<u8>> {
    coder.encode_payload(payload)
}

/// Drops as many shards as there are parity shards, then reconstructs.
pub fn rs_reconstruct(coder: &ReedSolomon, shards: &[Vec<u8>]) -> bool {
    let mut damaged: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
    let step = coder.total_shards() / coder.parity_shards().max(1);
    for lost in 0..coder.parity_shards() {
        damaged[lost * step] = None;
    }
    coder.reconstruct(&mut damaged).is_ok()
}

// ---- net / cluster / consensus / storage --------------------------------

pub fn topology_generate(nodes: usize) -> Topology {
    Topology::generate(nodes, &Placement::default(), DEPLOYMENT_SEED)
}

pub fn sim_net(topology: Topology) -> SimNet {
    Network::new(topology, quiet_link())
}

/// One vote-sized message.
pub fn net_send(net: &mut SimNet, from: Node, to: Node) -> bool {
    net.send(from, to, MessageKind::Vote, ici_consensus::pbft::VOTE_BYTES)
        .delay()
        .is_some()
}

pub fn net_fork(net: &mut SimNet, stream: u64) -> SimNet {
    net.fork(stream)
}

pub fn net_absorb(net: &mut SimNet, child: SimNet) {
    net.absorb(child);
}

pub fn node(id: u64) -> Node {
    NodeId::new(id)
}

/// Balanced k-means; returns the Lloyd iterations it took, read from
/// the `cluster/kmeans_iters` telemetry counter.
pub fn balanced_kmeans_iters(topology: &Topology, k: usize) -> u64 {
    set_telemetry(true);
    let _ = balanced_kmeans(topology, &KMeansConfig::with_k(k, DEPLOYMENT_SEED));
    let iters = ici_telemetry::snapshot()
        .counters
        .iter()
        .filter(|c| c.name == "cluster/kmeans_iters")
        .map(|c| c.value)
        .sum();
    set_telemetry(false);
    iters
}

pub fn balanced_kmeans_run(topology: &Topology, k: usize) -> usize {
    balanced_kmeans(topology, &KMeansConfig::with_k(k, DEPLOYMENT_SEED)).cluster_count()
}

/// A membership view to time joins on: the deployment's clusters.
pub fn membership_of(net: &IciNet) -> (Membership, Topology) {
    (net.membership().clone(), net.net().topology().clone())
}

/// `Membership::join` of the next dense node id at `at`.
pub fn membership_join(
    membership: &mut Membership,
    topology: &mut Topology,
    at: (f64, f64),
) -> u32 {
    let coord = Coord::new(at.0, at.1);
    let node = topology.push(coord);
    membership
        .join(node, coord, topology, JoinPolicy::NearestCentroid)
        .get()
}

pub fn block_id(block: &Block) -> Hash {
    block.id()
}

pub fn leader_of(parent: &Hash, height: u64, members: &[Node]) -> Option<Node> {
    elect_leader(parent, height, members)
}

pub fn rendezvous_owners(id: &Hash, height: u64, members: &[Node], r: usize) -> Vec<Node> {
    RendezvousAssignment.owners(id, height, members, r)
}

/// One PBFT commit of `members` shipping `body_bytes` to `owners`
/// members and a header to the rest; `true` when the quorum committed.
pub fn pbft_commit(net: &mut SimNet, members: &[Node], leader: Node, body_bytes: u64) -> bool {
    let header = BlockHeader::ENCODED_LEN as u64;
    let owners: BTreeSet<Node> = members.iter().copied().take(2).collect();
    run_pbft_commit(
        net,
        PbftInputs {
            members,
            leader,
            start: SimTime::ZERO,
            payload: |m| {
                if owners.contains(&m) {
                    (MessageKind::BlockBody, header + body_bytes)
                } else {
                    (MessageKind::BlockHeader, header)
                }
            },
            validation: |_| Duration::from_millis(1),
        },
    )
    .is_committed()
}

/// Floods a full block over `peers`; returns how many it reached.
pub fn gossip(net: &mut SimNet, peers: &[Node], bytes: u64) -> usize {
    gossip_flood(
        net,
        peers,
        peers[0],
        SimTime::ZERO,
        MessageKind::BlockFull,
        bytes,
        &GossipConfig::default(),
    )
    .len()
}

/// IDA-disperses a body over `committee`; returns how many rebuilt it.
pub fn ida_disseminate(net: &mut SimNet, committee: &[Node], body_bytes: u64) -> usize {
    run_ida_dissemination(
        net,
        committee,
        committee[0],
        SimTime::ZERO,
        body_bytes,
        &IdaConfig::default(),
    )
    .len()
}

// ---- par ----------------------------------------------------------------

/// `par_map` over `n` trivial items.
pub fn par_map_trivial(n: usize) -> usize {
    ici_par::par_map((0..n as u64).collect(), |i, x| x.wrapping_add(i as u64)).len()
}

/// The same trivial map as a plain loop.
pub fn plain_map_trivial(n: usize) -> usize {
    (0..n as u64)
        .enumerate()
        .map(|(i, x)| x.wrapping_add(i as u64))
        .collect::<Vec<u64>>()
        .len()
}
