//! The one interface the run driver is written against.
//!
//! [`Strategy`] is what a storage strategy exposes so that
//! [`crate::fault_run::run_under_faults`] can drive it; the fault-free
//! [`crate::runner::run`] is that driver under a plan that schedules
//! nothing. It is implemented for the three networks themselves, with
//! static dispatch; the driver holds everything that is per-run. The
//! paper's comparison is only meaningful if every column went through
//! the same loop, so what *differs* per strategy is confined to this
//! file:
//!
//! | | ICIStrategy | full replication | RapidChain |
//! |---|---|---|---|
//! | plan groups | formed clusters | the whole network | committees |
//! | lanes (ledgers) | 1 | 1 | one per shard; every shard proposes every round |
//! | dissemination | body to the first `r` members, header to the rest | full block to everyone | full block to the committee |
//! | a block nobody commits is priced by | header + encoded transactions | header + encoded transactions | header + encoded transactions |
//! | vote round ([`VerdictScope`]) | every cluster (a home stall burns the round) | none: solo validation | each proposing committee, on its own block |
//! | an equivocator's twins meet in | the all-pairs vote round | the gossip relay ring | the all-pairs vote round |
//! | stage-boundary crashes | yes | no stages | no stages |
//! | after each fault round | repair + Merkle audit of churned clusters | nothing | nothing |
//! | after the plan ends | final repair, whole-network audit | nothing | nothing |
//!
//! A block nobody commits (an equivocator's twin, a stalled proposal)
//! is priced by its header and encoded transactions rather than built
//! against the strategy's ledger state. The two agree because every
//! batch the driver prices is fully valid: the run's genesis funds
//! every sender for the whole run (for any workload whose transfers fit
//! that balance, as every experiment's do), nonces are sequential, and
//! a lane whose block was refused retries the same batch. So every
//! committed block holds its whole batch, and a built twin would too;
//! `tests/runner_golden.rs` asserts the first under every fault
//! profile it pins.

use ici_baselines::full::{FullConfig, FullReplicationNetwork};
use ici_baselines::rapidchain::{RapidChainConfig, RapidChainNetwork};
use ici_baselines::record::BaselineCommitRecord;
use ici_chain::block::BlockHeader;
use ici_chain::genesis::GenesisConfig;
use ici_chain::transaction::Transaction;
use ici_core::config::IciConfig;
use ici_core::network::IciNetwork;
use ici_core::{RepairReport, StageBoundary};
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_net::time::{Duration, SimTime};

use crate::fault_run::RunSummary;

/// What every strategy records about one committed block.
#[derive(Clone, Copy, Debug)]
pub struct Commit {
    /// Height within its ledger (the shard chain for RapidChain).
    pub height: u64,
    /// Transactions included.
    pub tx_count: u32,
    /// Messages the block's lifecycle sent.
    pub messages: u64,
    /// Bytes the block's lifecycle sent.
    pub bytes: u64,
    /// Proposal start to network-wide commit.
    pub latency: Duration,
}

/// Which groups hold a vote round on each block. Scheduled verdict
/// faults corrupt it, and it is where an equivocating proposer's
/// twins meet: a strategy with no vote round only ever compares
/// headers along its gossip relay ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictScope {
    /// Every group votes on every block; only the proposing group's
    /// failure stalls the round.
    AllGroups,
    /// Each proposing group votes on its own lane's block.
    HomeGroup,
    /// Every node validates solo: there is no verdict round.
    Solo,
}

/// A storage strategy the run driver can drive. See the module docs for
/// the per-strategy table.
pub trait Strategy: Sized {
    /// The strategy's own configuration type.
    type Config;
    /// Label in tables, series names and summaries.
    const LABEL: &'static str;
    /// Root telemetry span of a quiet run ([`crate::runner::run`]).
    const RUN_SPAN: &'static str;
    /// Root telemetry span of a fault run
    /// ([`crate::fault_run::run_under_faults`]).
    const FAULT_RUN_SPAN: &'static str;
    /// Where verdict faults bite.
    const VERDICTS: VerdictScope;
    /// Whether proposals have stage boundaries a crash can land on.
    const STAGED: bool = false;

    /// Builds the network with `genesis` in place of the config's own;
    /// panics if `config` is invalid — misconfiguration, not a fault.
    fn build(config: Self::Config, genesis: GenesisConfig) -> Self;

    /// The simulated network.
    fn net(&self) -> &Network;

    /// Mutable network access (churn, message faults, metered sends).
    fn net_mut(&mut self) -> &mut Network;

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// The member sets a fault plan draws over, one per group.
    fn groups(&self) -> Vec<Vec<NodeId>>;

    /// Independent ledgers; each proposes every round from its own
    /// workload stream.
    fn lanes(&self) -> usize {
        1
    }

    /// The group (by index) that proposes next on `lane` and the header
    /// it builds on; `None` if no group can propose.
    fn next_proposal(&self, lane: usize) -> Option<(usize, BlockHeader)>;

    /// What the leader sends the `rank`-th recipient of a block: by
    /// default the full block, whoever it is.
    fn payload(&self, _rank: usize, header: u64, body: u64) -> (MessageKind, u64) {
        (MessageKind::BlockFull, header + body)
    }

    /// Proposes one round's blocks. `proposals` holds one `(lane,
    /// batch)` per proposing lane, lanes ascending, and is left empty;
    /// the result yields each entry's `(lane, committed)` in the same
    /// order. A `stage_crash` (only ever passed when
    /// [`Strategy::STAGED`]) takes that node down at that boundary and
    /// restarts it, disk intact, once the proposal resolves either way.
    fn propose(
        &mut self,
        proposals: &mut Vec<(usize, Vec<Transaction>)>,
        stage_crash: Option<(NodeId, StageBoundary)>,
    ) -> impl Iterator<Item = (usize, bool)> + use<Self>;

    /// Every committed block, in commit order.
    fn commits(&self) -> impl Iterator<Item = Commit> + '_;

    /// Bytes each node stores.
    fn stored_bytes(&self) -> Vec<u64>;

    /// Bytes of one replica of the whole ledger.
    fn ledger_bytes(&self) -> u64;

    /// Runs after each round's proposals, unless the plan schedules
    /// nothing; `touched` are the nodes whose liveness changed this
    /// round.
    fn after_fault_round(&mut self, _touched: &[NodeId], _summary: &mut RunSummary) {}

    /// Runs once the plan is exhausted and message faults are lifted,
    /// unless the plan scheduled nothing.
    fn finish_fault_run(&mut self, _summary: &mut RunSummary) {}
}

/// The network and clock accessors: all three networks already have
/// them as inherent methods under the trait's names.
macro_rules! forward_accessors {
    ($network:ty) => {
        fn net(&self) -> &Network {
            <$network>::net(self)
        }

        fn net_mut(&mut self) -> &mut Network {
            <$network>::net_mut(self)
        }

        fn now(&self) -> SimTime {
            <$network>::now(self)
        }
    };
}

/// Adds one cluster repair's transfers, traffic and losses to the run's.
fn absorb_repair(summary: &mut RunSummary, report: &RepairReport) {
    summary.repair_transfers += report.transfers;
    summary.repair_bytes += report.bytes;
    summary.cross_cluster_fetches += report.cross_cluster_fetches.len();
    let lost = report.unrecoverable.iter().copied();
    summary.unrecoverable_heights.extend(lost);
}

impl Strategy for IciNetwork {
    type Config = IciConfig;
    const LABEL: &'static str = "ICIStrategy";
    const RUN_SPAN: &'static str = "sim/run_ici";
    const FAULT_RUN_SPAN: &'static str = "sim/run_ici_faults";
    const VERDICTS: VerdictScope = VerdictScope::AllGroups;
    const STAGED: bool = true;

    fn build(mut config: IciConfig, genesis: GenesisConfig) -> IciNetwork {
        config.genesis = genesis;
        IciNetwork::new(config).expect("valid configuration")
    }

    forward_accessors!(IciNetwork);

    fn groups(&self) -> Vec<Vec<NodeId>> {
        self.clusters()
            .into_iter()
            .map(|c| self.membership().members(c).to_vec())
            .collect()
    }

    fn next_proposal(&self, _lane: usize) -> Option<(usize, BlockHeader)> {
        let tip = *self.tip();
        let home = self.proposer_cluster(tip.height + 1)?;
        Some((home.index(), tip))
    }

    fn payload(&self, rank: usize, header: u64, body: u64) -> (MessageKind, u64) {
        if rank < self.config().replication {
            (MessageKind::BlockBody, header + body)
        } else {
            (MessageKind::BlockHeader, header)
        }
    }

    /// Takes its one lane's entry.
    fn propose(
        &mut self,
        proposals: &mut Vec<(usize, Vec<Transaction>)>,
        stage_crash: Option<(NodeId, StageBoundary)>,
    ) -> impl Iterator<Item = (usize, bool)> + use<> {
        let outcome = proposals.pop().map(|(lane, batch)| {
            let committed = self
                .propose_block_staged(batch, |stage, sim| {
                    if let Some((victim, boundary)) = stage_crash {
                        if stage == boundary {
                            sim.crash(victim);
                        }
                    }
                })
                .is_ok();
            if let Some((victim, _)) = stage_crash {
                self.net_mut().recover(victim);
            }
            (lane, committed)
        });
        outcome.into_iter()
    }

    fn commits(&self) -> impl Iterator<Item = Commit> + '_ {
        self.commit_log().iter().map(|r| Commit {
            height: r.height,
            tx_count: r.tx_count,
            messages: r.messages,
            bytes: r.bytes,
            latency: r.commit_latency(),
        })
    }

    fn stored_bytes(&self) -> Vec<u64> {
        self.storage_bytes()
    }

    fn ledger_bytes(&self) -> u64 {
        self.full_replica_bytes()
    }

    /// Survivors re-replicate every cluster touched by churn, and the
    /// shard-level Merkle audit certifies each repair by hashing what
    /// it wrote (and the round's new height).
    fn after_fault_round(&mut self, touched: &[NodeId], summary: &mut RunSummary) {
        let mut affected: Vec<_> = touched
            .iter()
            .map(|n| self.membership().cluster_of(*n))
            .collect();
        affected.sort_unstable_by_key(|c| c.get());
        affected.dedup();
        for cluster in affected {
            summary.recovery_attempts += 1;
            let (report, audit) = self.repair_and_certify(cluster);
            absorb_repair(summary, &report);
            if report.unrecoverable.is_empty() && audit.is_clean() {
                summary.recovery_successes += 1;
            }
        }
        for audit in self.audit_all() {
            summary.min_availability = summary.min_availability.min(audit.availability());
        }
    }

    /// A final repair pass heals anything the last round left degraded,
    /// then the audit rules on the whole run.
    fn finish_fault_run(&mut self, summary: &mut RunSummary) {
        for report in self.repair_all() {
            absorb_repair(summary, &report);
        }
        summary.unrecoverable_heights.sort_unstable();
        summary.unrecoverable_heights.dedup();

        let final_audits = self.merkle_audit_all();
        summary.final_audit_clean = final_audits.iter().all(|a| a.is_clean());
        summary.merkle_shards_verified = final_audits.iter().map(|a| a.shards_verified).sum();
    }
}

impl Strategy for FullReplicationNetwork {
    type Config = FullConfig;
    const LABEL: &'static str = "FullReplication";
    const RUN_SPAN: &'static str = "sim/run_full";
    const FAULT_RUN_SPAN: &'static str = "sim/run_full_faults";
    const VERDICTS: VerdictScope = VerdictScope::Solo;

    fn build(mut config: FullConfig, genesis: GenesisConfig) -> FullReplicationNetwork {
        config.genesis = genesis;
        FullReplicationNetwork::new(config)
    }

    forward_accessors!(FullReplicationNetwork);

    fn groups(&self) -> Vec<Vec<NodeId>> {
        vec![(0..self.config().nodes as u64).map(NodeId::new).collect()]
    }

    fn next_proposal(&self, _lane: usize) -> Option<(usize, BlockHeader)> {
        let tip = self.block(self.chain_len() - 1);
        Some((0, *tip.expect("a chain always holds its genesis").header()))
    }

    /// Takes its one lane's entry.
    fn propose(
        &mut self,
        proposals: &mut Vec<(usize, Vec<Transaction>)>,
        _stage_crash: Option<(NodeId, StageBoundary)>,
    ) -> impl Iterator<Item = (usize, bool)> + use<> {
        let outcome = proposals.pop();
        outcome
            .map(|(lane, batch)| (lane, self.propose_block(batch).is_some()))
            .into_iter()
    }

    fn commits(&self) -> impl Iterator<Item = Commit> + '_ {
        self.commit_log().iter().map(baseline_commit)
    }

    fn stored_bytes(&self) -> Vec<u64> {
        vec![self.storage_bytes_per_node(); self.config().nodes]
    }

    fn ledger_bytes(&self) -> u64 {
        self.storage_bytes_per_node()
    }
}

impl Strategy for RapidChainNetwork {
    type Config = RapidChainConfig;
    const LABEL: &'static str = "RapidChain";
    const RUN_SPAN: &'static str = "sim/run_rapidchain";
    const FAULT_RUN_SPAN: &'static str = "sim/run_rapidchain_faults";
    const VERDICTS: VerdictScope = VerdictScope::HomeGroup;

    fn build(mut config: RapidChainConfig, genesis: GenesisConfig) -> RapidChainNetwork {
        config.genesis = genesis;
        RapidChainNetwork::new(config)
    }

    forward_accessors!(RapidChainNetwork);

    fn groups(&self) -> Vec<Vec<NodeId>> {
        (0..self.shard_count())
            .map(|s| self.committee(s).to_vec())
            .collect()
    }

    fn lanes(&self) -> usize {
        self.shard_count()
    }

    fn next_proposal(&self, lane: usize) -> Option<(usize, BlockHeader)> {
        let tip = self.shard_block(lane, self.shard_chain_len(lane) - 1);
        Some((
            lane,
            *tip.expect("a shard chain always holds its genesis")
                .header(),
        ))
    }

    /// One round of [`RapidChainNetwork::propose_round`]: in simulated
    /// time every proposing committee runs its proposal at once.
    fn propose(
        &mut self,
        proposals: &mut Vec<(usize, Vec<Transaction>)>,
        _stage_crash: Option<(NodeId, StageBoundary)>,
    ) -> impl Iterator<Item = (usize, bool)> + use<> {
        let lanes: Vec<usize> = proposals.iter().map(|(lane, _)| *lane).collect();
        let heights = self.propose_round(std::mem::take(proposals));
        lanes
            .into_iter()
            .zip(heights.into_iter().map(|h| h.is_some()))
    }

    fn commits(&self) -> impl Iterator<Item = Commit> + '_ {
        self.commit_log().iter().map(baseline_commit)
    }

    fn stored_bytes(&self) -> Vec<u64> {
        self.storage_bytes()
    }

    fn ledger_bytes(&self) -> u64 {
        (0..self.shard_count())
            .map(|shard| self.shard_ledger_bytes(shard))
            .sum()
    }
}

fn baseline_commit(record: &BaselineCommitRecord) -> Commit {
    Commit {
        height: record.height,
        tx_count: record.tx_count,
        messages: record.messages,
        bytes: record.bytes,
        latency: record.commit_latency(),
    }
}
