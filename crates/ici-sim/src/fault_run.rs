//! The run driver: one round loop for every run.
//!
//! [`run_under_faults`] takes any [`Strategy`] through a deterministic
//! [`ici_faults::plan::FaultPlan`] of churn, partitions, message faults
//! and Byzantine action, and reduces the run to a [`RunSummary`]. The
//! caller names the strategy once (`run_under_faults::<IciNetwork>`),
//! so the adversary never changes between the columns of a comparison:
//! same seed, same churn draws, same Byzantine designations, one loop.
//! The fault-free [`crate::runner::run`] is the same loop under a plan
//! whose every round is quiet, reduced into the same [`RunSummary`].
//! What each system *experiences* differently is the table in
//! [`crate::strategy`].
//!
//! All draws come from the plan: same seed ⇒ same plan ⇒ same commits,
//! same repair traffic, same summary, byte for byte — which is what
//! lets CI assert on survivability numbers and diff two runs of
//! `e_fault` or `e_byz` directly.

use ici_chain::block::BlockHeader;
use ici_chain::codec::Encode;
use ici_chain::transaction::Transaction;
use ici_consensus::leader::elect_live_leader;
use ici_consensus::pbft::VOTE_BYTES;
use ici_consensus::quorum::has_quorum;
use ici_core::config::IciConfig;
use ici_core::network::IciNetwork;
use ici_core::StageBoundary;
use ici_faults::plan::{
    ByzantineConfig, ChurnConfig, FaultError, FaultPlan, FaultPlanConfig, MessageFaultSpec,
    PartitionPolicy, VerdictFault,
};
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_storage::stats::StorageStats;
use ici_telemetry::Label;
use ici_trace::{TraceEvent, TraceKind};
use ici_workload::{WorkloadConfig, WorkloadGenerator};

use crate::latency::LatencyStats;
use crate::runner::{genesis_for, ratio};
use crate::strategy::{Strategy, VerdictScope};

/// Salt separating fault-mark trace ids from lifecycle stage ids.
const FAULT_MARK_SALT: u64 = 0xFA17_0000_0000_0001;

/// Salt seeding the stage-churn draw stream (independent of the plan's
/// streams, so enabling stage churn never perturbs the other faults).
const STAGE_CHURN_SALT: u64 = 0x57A6_EC4A_5400_0003;

/// Stage-boundary churn: on every `interval`-th round, crash one live
/// non-leader member of the proposing group at a seed-derived
/// lifecycle stage boundary ([`StageBoundary`]), then restart it (disk
/// intact) as soon as the proposal resolves — success or failure.
///
/// This exercises the staged lifecycle's boundaries: a crash landing
/// *between* stages must be seen by every later stage. The draw depends only
/// on `(seed, round)`, so runs replay byte-identically. Inert by
/// default (`interval == 0`), which keeps existing
/// crash-only profiles byte-stable, and inert for strategies whose
/// proposals have no stages ([`Strategy::STAGED`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageChurn {
    /// Inject on rounds where `(round + 1) % interval == 0`;
    /// `0` disables stage churn entirely.
    pub interval: usize,
}

impl StageChurn {
    /// Whether this round draws a stage-boundary crash.
    fn fires(&self, round: usize) -> bool {
        self.interval > 0 && (round + 1) % self.interval == 0
    }
}

/// The fault schedule's knobs, bundled so experiment binaries can cite
/// one profile per run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Seed of the fault schedule (independent of the network seed).
    pub seed: u64,
    /// Rounds to run; each round proposes one block per lane.
    pub rounds: usize,
    /// Node churn parameters.
    pub churn: ChurnConfig,
    /// Partition-window parameters.
    pub partitions: PartitionPolicy,
    /// Message-level fault profile.
    pub messages: MessageFaultSpec,
    /// Byzantine-actor parameters (equivocating proposers, false-verdict
    /// verifiers). Inert by default and drawn from a dedicated stream, so
    /// crash-only profiles replay byte-identically.
    pub byzantine: ByzantineConfig,
    /// Stage-boundary churn (crashes landing *inside* a proposal, between
    /// lifecycle stages). Inert by default and drawn from a dedicated
    /// salt, so profiles without it replay byte-identically.
    pub stage_churn: StageChurn,
}

impl Default for FaultProfile {
    /// Default churn over 12 rounds with no partitions or message faults.
    fn default() -> FaultProfile {
        FaultProfile {
            seed: 1,
            rounds: 12,
            churn: ChurnConfig::default(),
            partitions: PartitionPolicy::default(),
            messages: MessageFaultSpec::default(),
            byzantine: ByzantineConfig::default(),
            stage_churn: StageChurn::default(),
        }
    }
}

/// One run, reduced once by the round loop: the quantities the paper's
/// tables report (per-node storage, per-block communication, commit
/// latency, throughput) and the survivability quantities the `e_fault`
/// and `e_byz` tables report. One flat shape for every strategy and
/// every run: the fault fields stay at their empty values in a quiet
/// run, and the repair and audit fields are ICIStrategy's, empty for
/// the baselines, which have no such step.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Which strategy ran ([`Strategy::LABEL`]).
    pub strategy: &'static str,
    /// Nodes simulated.
    pub nodes: usize,
    /// Plan groups: clusters formed for ICIStrategy, 1 for full
    /// replication, committees for RapidChain.
    pub clusters: usize,
    /// Rounds executed (== the plan's length).
    pub rounds: usize,
    /// Blocks committed (excluding genesis; RapidChain counts all
    /// shards).
    pub committed_blocks: u64,
    /// Transactions committed.
    pub total_txs: u64,
    /// Per-node storage statistics.
    pub storage: StorageStats,
    /// Bytes of one full ledger replica (denominator for ratios).
    pub ledger_bytes: u64,
    /// Mean messages per committed block.
    pub mean_block_messages: f64,
    /// Mean bytes per committed block.
    pub mean_block_bytes: f64,
    /// Commit latency over the committed blocks.
    pub commit_latency: LatencyStats,
    /// Committed transactions per simulated second.
    pub throughput_tps: f64,
    /// Final simulated clock in milliseconds.
    pub final_clock_ms: f64,
    /// Lane rounds (one per lane a round) whose proposal failed (no
    /// quorum / partitioned leader) or was burned by Byzantine action;
    /// the batch is retried next round, so these measure liveness loss
    /// only. With `committed_blocks` it sums to `rounds × lanes`.
    pub skipped_rounds: usize,
    /// Crash events applied.
    pub crash_events: usize,
    /// Restart events applied.
    pub restart_events: usize,
    /// Crashes injected *between* lifecycle stages of a proposal
    /// (see [`StageChurn`]); each is restarted once the proposal
    /// resolves and its cluster repaired the same round.
    pub stage_crash_events: usize,
    /// Stage-crash rounds whose proposal still committed (the quorum
    /// margin absorbed the mid-round loss).
    pub stage_crash_commits: usize,
    /// Completed crash-and-recover cycles per cluster (from the plan).
    pub cycles_per_cluster: Vec<usize>,
    /// Cluster repairs attempted after churn rounds.
    pub recovery_attempts: usize,
    /// Repairs that restored the cluster *and* passed the shard-level
    /// Merkle audit afterwards.
    pub recovery_successes: usize,
    /// Intra- and cross-cluster repair transfers executed.
    pub repair_transfers: usize,
    /// Re-replication traffic in bytes (metered as repair).
    pub repair_bytes: u64,
    /// Heights restored by fetching from a foreign cluster.
    pub cross_cluster_fetches: usize,
    /// Heights no live node anywhere still held (permanent loss).
    pub unrecoverable_heights: Vec<u64>,
    /// Fewest live nodes observed at any round start.
    pub min_live_nodes: usize,
    /// Worst per-cluster availability observed after any round's repairs.
    pub min_availability: f64,
    /// Whether every cluster's final shard-level Merkle audit was clean
    /// (`false` when no audit ran: a quiet run, or a baseline).
    pub final_audit_clean: bool,
    /// Live body replicas the final audit's verdicts cover (one per
    /// live holder per height; each height's tree is derived once, from
    /// the canonical block).
    pub merkle_shards_verified: usize,
    /// Rounds in which the elected proposer equivocated (two conflicting
    /// blocks for the height, shown to disjoint audience halves).
    pub equivocation_attempts: usize,
    /// Equivocations exposed by the cross-audience vote exchange (both
    /// halves held at least one honest live witness).
    pub equivocations_detected: usize,
    /// Equivocations that went *undetected* — one audience had no honest
    /// witness, so a conflicting branch could have survived. The run
    /// still refuses to commit either twin; this counts the hazard.
    pub safety_breaches: usize,
    /// Verdicts flipped by live Byzantine verifiers in the groups that
    /// voted (always 0 for full replication — solo validation has no
    /// verdicts).
    pub verdict_flips: usize,
    /// Verdicts withheld by live Byzantine verifiers in the groups that
    /// voted.
    pub verdict_withholds: usize,
    /// Lying verifiers exposed by honest slice re-verification (a false
    /// reject about a clean slice always names its author).
    pub liars_detected: usize,
    /// Lane rounds lost to Byzantine action (equivocation or a stalled
    /// home group); a subset of `skipped_rounds`.
    pub byz_skipped_rounds: usize,
    /// Remote clusters whose verdict quorum failed under lying/withheld
    /// verdicts in otherwise-committed rounds.
    pub byz_missed_cluster_verdicts: usize,
    /// Bytes spent disseminating blocks that Byzantine action then killed
    /// (equivocating twins, stalled home-cluster distributions).
    pub wasted_bytes: u64,
    /// Total bytes the run put on the wire (wasted and repair included).
    pub total_bytes: u64,
    /// FNV-1a fingerprint of the plan's canonical rendering.
    pub plan_fingerprint: u64,
    /// The plan's canonical rendering (for replay diffing).
    pub plan_render: String,
}

impl RunSummary {
    /// Per-node mean storage over the full-replica size, in `[0, 1]`.
    pub fn storage_fraction(&self) -> f64 {
        ratio(self.storage.mean, self.ledger_bytes as f64, 0.0)
    }

    /// Fraction of repair attempts that fully recovered, in `[0, 1]`
    /// (1.0 when nothing needed repair).
    pub fn recovery_success_rate(&self) -> f64 {
        let attempts = self.recovery_attempts as f64;
        ratio(self.recovery_successes as f64, attempts, 1.0)
    }

    /// Fraction of equivocation attempts exposed, in `[0, 1]` (1.0 when
    /// none were attempted).
    pub fn equivocation_detection_rate(&self) -> f64 {
        let attempts = self.equivocation_attempts as f64;
        ratio(self.equivocations_detected as f64, attempts, 1.0)
    }

    /// Fraction of flipped verdicts whose author was exposed, in `[0, 1]`
    /// (1.0 when nobody flipped).
    pub fn liar_detection_rate(&self) -> f64 {
        ratio(self.liars_detected as f64, self.verdict_flips as f64, 1.0)
    }

    /// Fraction of all wire bytes Byzantine action wasted, in `[0, 1]`.
    pub fn wasted_fraction(&self) -> f64 {
        ratio(self.wasted_bytes as f64, self.total_bytes as f64, 0.0)
    }

    /// Reads what the finished run left behind: its commit log, stores,
    /// meter and clock.
    fn reduce<S: Strategy>(&mut self, strategy: &S) {
        let (mut txs, mut messages, mut bytes) = (0u64, 0u64, 0u64);
        for commit in strategy.commits() {
            txs += u64::from(commit.tx_count);
            messages += commit.messages;
            bytes += commit.bytes;
        }
        let blocks = self.committed_blocks as f64;
        let final_clock_ms = strategy.now().as_micros() as f64 / 1_000.0;
        self.total_txs = txs;
        self.storage = StorageStats::from_bytes(strategy.stored_bytes());
        self.ledger_bytes = strategy.ledger_bytes();
        self.mean_block_messages = ratio(messages as f64, blocks, 0.0);
        self.mean_block_bytes = ratio(bytes as f64, blocks, 0.0);
        self.commit_latency = LatencyStats::from_durations(strategy.commits().map(|c| c.latency));
        self.throughput_tps = ratio(txs as f64, final_clock_ms / 1_000.0, 0.0);
        self.final_clock_ms = final_clock_ms;
        self.total_bytes = strategy.net().meter().total().bytes;
    }
}

/// Collects one run's per-round time series (see `ici_trace::series`).
/// The loop samples only under `ICI_TELEMETRY=1`, like every other
/// exported-but-not-committed section.
#[derive(Default)]
struct RoundSeries {
    samples: Vec<ici_trace::series::RoundSample>,
    tracker: ici_trace::series::TrafficTracker,
}

impl RoundSeries {
    /// Appends the sample for `round`, taken from `strategy` as it
    /// stands.
    fn sample<S: Strategy>(&mut self, strategy: &S, round: usize, generated_txs: u64) {
        let (mut height, mut committed_txs) = (0, 0u64);
        for commit in strategy.commits() {
            height = commit.height;
            committed_txs += u64::from(commit.tx_count);
        }
        let traffic = self.tracker.delta(
            strategy
                .net()
                .meter()
                .by_kind()
                .iter()
                .map(|(kind, c)| (kind.name(), c.messages, c.bytes)),
        );
        self.samples.push(ici_trace::series::RoundSample {
            round: round as u64,
            height,
            at_us: strategy.now().as_micros(),
            committed_txs,
            mempool_depth: generated_txs.saturating_sub(committed_txs),
            live_nodes: strategy.net().live_nodes().len() as u64,
            stored_bytes: strategy.stored_bytes(),
            traffic,
        });
    }

    /// Registers the finished run's samples under
    /// `label<suffix>/n=<nodes>`.
    fn finish(self, label: &str, suffix: &str, nodes: usize) {
        if !self.samples.is_empty() {
            ici_trace::series::push(ici_trace::series::RunSeries {
                run: format!("{label}{suffix}/n={nodes}"),
                samples: self.samples,
            });
        }
    }
}

/// Who proposes next on a lane.
struct Proposer {
    /// Index of the proposing group.
    home: usize,
    /// Height being proposed.
    height: u64,
    /// The proposing group's live members, leader included.
    live: Vec<NodeId>,
    /// The live leader the group elects against the lane's tip.
    leader: NodeId,
}

impl Proposer {
    /// The live members the leader sends to.
    fn followers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.live.iter().copied().filter(|m| *m != self.leader)
    }
}

/// `(header, body)` bytes of a block holding all of `batch`: the price
/// of a block nobody commits. Every batch the driver prices is fully
/// valid (see [`crate::strategy`]), so this is the size the block would
/// have if it were built.
fn block_bytes(batch: &[Transaction]) -> (u64, u64) {
    let body = batch.iter().map(|tx| tx.encoded_len() as u64).sum();
    (BlockHeader::ENCODED_LEN as u64, body)
}

/// One all-pairs vote round among `members`.
fn all_pairs_votes(net: &mut Network, members: &[NodeId]) {
    for from in members {
        for to in members {
            if from != to {
                let _ = net.send(*from, *to, MessageKind::Vote, VOTE_BYTES);
            }
        }
    }
}

/// Tallies one group's verdict round for an honest block under the
/// round's flips and withholds, updating the summary's lie accounting.
/// This is the workspace's one Byzantine verdict rule: honest members
/// vote `Accept` (the workload's blocks are valid), and every false
/// reject in a group with at least one honest member is exposed by
/// re-verification. Returns whether the group still reaches its accept
/// quorum, `has_quorum(honest, live)`: a flipped reject or a withheld
/// verdict never counts toward it, so ties and silent majorities stall.
fn tally_group(
    live: &[NodeId],
    faults: &[(NodeId, VerdictFault)],
    summary: &mut RunSummary,
) -> bool {
    let count = |kind: VerdictFault| {
        let hit = |(n, k): &&(NodeId, VerdictFault)| *k == kind && live.contains(n);
        faults.iter().filter(hit).count()
    };
    let (flips, withholds) = (count(VerdictFault::Flip), count(VerdictFault::Withhold));
    if flips == 0 && withholds == 0 {
        return true;
    }
    let honest = live.len() - flips - withholds;
    summary.verdict_flips += flips;
    summary.verdict_withholds += withholds;
    if honest > 0 {
        // Disputed rejects are re-verified and their authors named.
        summary.liars_detected += flips;
    }
    has_quorum(honest, live.len())
}

/// One fault run in flight: the strategy under test, the plan groups
/// it formed, and the summary so far.
struct FaultRun<S> {
    strategy: S,
    groups: Vec<Vec<NodeId>>,
    summary: RunSummary,
}

impl<S: Strategy> FaultRun<S> {
    /// Group `group`'s members still up, order preserved.
    fn live(&self, group: usize) -> Vec<NodeId> {
        let net = self.strategy.net();
        let up = |n: &NodeId| net.is_up(*n);
        self.groups[group].iter().copied().filter(up).collect()
    }

    /// Live nodes over every group. With `gauges`, also sets the global
    /// and per-group `faults/live_nodes` gauges to the counts.
    fn count_live(&self, gauges: bool) -> usize {
        let net = self.strategy.net();
        let mut total = 0;
        for (group, members) in self.groups.iter().enumerate() {
            let live = members.iter().filter(|m| net.is_up(**m)).count();
            total += live;
            if gauges {
                let label = Label::Cluster(group as u64); // group index widens losslessly
                ici_telemetry::gauge_set("faults/live_nodes", label, live as f64);
            }
        }
        if gauges {
            ici_telemetry::gauge_set("faults/live_nodes", Label::Global, total as f64);
        }
        total
    }

    /// Elects the next proposer on `lane`: `None` when no group can
    /// propose or the proposing group has no live member.
    fn elect(&self, lane: usize) -> Option<Proposer> {
        let (home, tip) = self.strategy.next_proposal(lane)?;
        let live = self.live(home);
        let (net, height) = (self.strategy.net(), tip.height + 1);
        let leader = elect_live_leader(&tip.id(), height, &live, |n| net.is_up(n))?;
        Some(Proposer {
            home,
            height,
            live,
            leader,
        })
    }

    /// Chooses a stage-crash victim and the boundary it goes down at:
    /// a live non-leader member of the proposing group, both indexed by
    /// the seed-derived mix. `None` when nobody can propose or the
    /// leader is the only live member.
    fn stage_victim(&self, lane: usize, mix: u64) -> Option<(NodeId, StageBoundary)> {
        let candidates: Vec<NodeId> = self.elect(lane)?.followers().collect();
        if candidates.is_empty() {
            return None;
        }
        let victim = candidates[(mix % candidates.len() as u64) as usize];
        let boundary = match (mix >> 32) % 3 {
            0 => StageBoundary::AfterBuild,
            1 => StageBoundary::AfterDistribute,
            _ => StageBoundary::AfterVerify,
        };
        Some((victim, boundary))
    }

    /// Emits one `faults/<what>` instant per churn event so a trace
    /// viewer shows crashes and restarts on the timeline of the node
    /// they hit.
    fn mark_churn(&self, name: &'static str, nodes: &[NodeId], round: usize) {
        if !ici_trace::enabled() {
            return;
        }
        let at_us = self.strategy.now().as_micros();
        for node in nodes {
            let group = self.groups.iter().position(|g| g.contains(node));
            ici_trace::record(TraceEvent {
                kind: TraceKind::Mark,
                name,
                at_us,
                cluster: group.map(|g| g as u64),
                node: Some(node.get()),
                id: ici_trace::derive_id(FAULT_MARK_SALT ^ round as u64, node.get()),
                ..TraceEvent::default()
            });
        }
    }

    /// The leader's dissemination of one block: each recipient gets
    /// what the strategy sends a member of that rank.
    fn disseminate(
        &mut self,
        leader: NodeId,
        recipients: impl Iterator<Item = NodeId>,
        (header, body): (u64, u64),
    ) {
        for (rank, member) in recipients.enumerate() {
            let (kind, bytes) = self.strategy.payload(rank, header, body);
            let _ = self.strategy.net_mut().send(leader, member, kind, bytes);
        }
    }

    /// Bytes metered so far.
    fn metered(&self) -> u64 {
        self.strategy.net().meter().total().bytes
    }

    /// Models one equivocating proposal: the elected leader builds two
    /// conflicting blocks for the next height (same parent, different
    /// timestamp ⇒ different id; one twin is enough to size both) and
    /// shows each to a disjoint half of its live group. The
    /// dissemination and the cross-check exchange — the group's
    /// all-pairs vote round, or the gossip relay ring where nodes
    /// validate solo ([`VerdictScope`]) — are real metered sends.
    /// Either exchange crosses the halves, so
    /// detection happens exactly when both halves hold a witness: a
    /// lone audience sees only one twin and the fraud survives.
    /// Returns `(detected, wasted_bytes)`.
    fn equivocate(&mut self, lane: usize, batch: &[Transaction], round: usize) -> (bool, u64) {
        let Some(proposer) = self.elect(lane) else {
            // No live proposer: nothing was disseminated, nothing conflicts.
            return (true, 0);
        };
        let leader = proposer.leader;
        if ici_trace::enabled() {
            ici_trace::record(TraceEvent {
                kind: TraceKind::Mark,
                name: "byz/equivocation",
                at_us: self.strategy.now().as_micros(),
                height: proposer.height,
                cluster: Some(proposer.home as u64),
                node: Some(leader.get()),
                id: ici_trace::derive_id(FAULT_MARK_SALT ^ 0xE9, round as u64 ^ leader.get()),
                ..TraceEvent::default()
            });
        }
        let sizes = block_bytes(batch);
        let audience: Vec<NodeId> = proposer.followers().collect();
        let (half_a, half_b) = audience.split_at(audience.len() / 2);

        let before = self.metered();
        for half in [half_a, half_b] {
            self.disseminate(leader, half.iter().copied(), sizes);
        }
        let net = self.strategy.net_mut();
        if S::VERDICTS == VerdictScope::Solo {
            for (i, from) in audience.iter().enumerate() {
                let to = audience[(i + 1) % audience.len()];
                if *from != to {
                    let _ = net.send(*from, to, MessageKind::BlockHeader, sizes.0);
                }
            }
        } else {
            all_pairs_votes(net, &audience);
        }
        let detected = !half_a.is_empty() && !half_b.is_empty();
        (detected, self.metered() - before)
    }

    /// Runs the round's scheduled verdict faults through every group in
    /// the strategy's [`VerdictScope`] of `lane`'s block, with the real
    /// quorum arithmetic over each group's live membership. Returns
    /// whether the lane's proposing group cannot reach an accept quorum
    /// — the lane's round stalls before the commit. Other groups' failed
    /// quorums are counted only when the lane goes on to its proposal
    /// (their dissemination was wasted on a stalled verdict; the commit
    /// proceeds).
    fn verdict_round_stalls(&mut self, lane: usize, faults: &[(NodeId, VerdictFault)]) -> bool {
        if faults.is_empty() {
            return false;
        }
        let home = self.strategy.next_proposal(lane).map(|(home, _)| home);
        let scope = match (S::VERDICTS, home) {
            (VerdictScope::AllGroups, _) => 0..self.groups.len(),
            (VerdictScope::HomeGroup, Some(home)) => home..home + 1,
            (VerdictScope::HomeGroup, None) | (VerdictScope::Solo, _) => 0..0,
        };
        let (mut home_stalled, mut missed_remote) = (false, 0);
        for group in scope {
            let live = self.live(group);
            if live.is_empty() || tally_group(&live, faults, &mut self.summary) {
                continue;
            }
            if Some(group) == home {
                home_stalled = true;
            } else {
                missed_remote += 1;
            }
        }
        if !home_stalled {
            self.summary.byz_missed_cluster_verdicts += missed_remote;
        }
        home_stalled
    }

    /// Meters the traffic a stalled verdict round wasted: the leader
    /// had already distributed the block, and the group spent one
    /// all-pairs vote round failing to reach quorum.
    fn charge_stalled(&mut self, lane: usize, batch: &[Transaction]) -> u64 {
        let Some(proposer) = self.elect(lane) else {
            return 0;
        };
        let sizes = block_bytes(batch);
        let before = self.metered();
        self.disseminate(proposer.leader, proposer.followers(), sizes);
        all_pairs_votes(self.strategy.net_mut(), &proposer.live);
        self.metered() - before
    }
}

/// Runs `S` under the given fault profile, under the root span
/// [`Strategy::FAULT_RUN_SPAN`] (`sim/run_ici_faults`, …).
///
/// The network is built from `config` (its genesis is replaced by one
/// derived from the workload) and the fault plan over the groups the
/// strategy actually formed, then driven through the one round loop:
/// round `i` applies the scheduled restarts and crashes,
/// installs the round's message faults on the send path, and every lane
/// proposes one `txs_per_block` block — unless Byzantine action burns
/// it first. The round's equivocation targets lane `i % lanes`; each
/// proposing lane meets the verdict faults of its own groups
/// ([`VerdictScope`]). A lane whose block does not commit retries the
/// same batch next round, so account nonces stay sequential per ledger.
/// The strategy's own recovery step closes the round; for ICIStrategy
/// that is content-level: every repaired cluster must pass the
/// shard-level Merkle audit ([`ici_core::merkle_audit`]), not merely
/// report replicas present.
///
/// # Errors
///
/// [`FaultError`] if the profile cannot produce a valid plan for the
/// strategy's groups (e.g. the live floor exceeds a group).
///
/// # Panics
///
/// Panics if `config` itself is invalid — misconfiguration, not a fault.
pub fn run_under_faults<S: Strategy>(
    config: S::Config,
    txs_per_block: usize,
    workload: WorkloadConfig,
    profile: FaultProfile,
) -> Result<(S, RunSummary), FaultError> {
    let _span = ici_telemetry::span!(S::FAULT_RUN_SPAN);
    let strategy = S::build(config, genesis_for(&workload));
    let plan = FaultPlanConfig::new(profile.seed, profile.rounds, strategy.groups())
        .churn(profile.churn)
        .partitions(profile.partitions)
        .messages(profile.messages)
        .byzantine(profile.byzantine)
        .build()?;
    Ok(drive(
        strategy,
        plan,
        profile.stage_churn,
        txs_per_block,
        workload,
    ))
}

/// The one round loop every run goes through, quiet or faulted (see
/// [`run_under_faults`]). Lane `l` draws its batches from the workload
/// seeded `seed ^ l·0x9E37_79B9`, so nonces stay sequential within each
/// lane's ledger and a single-lane strategy draws the workload's own
/// stream. The plan's rounds go straight onto the strategy's network,
/// the run's one live set: each round's live count is read back from it
/// with [`Network::is_up`]. A plan that schedules nothing, with no stage
/// churn, leaves nothing to recover: the strategy's recovery steps, the
/// fault counters, the `faults/live_nodes` gauges and the send-path
/// faults are skipped, and the per-round series takes the strategy's
/// bare label.
pub(crate) fn drive<S: Strategy>(
    strategy: S,
    plan: FaultPlan,
    stage_churn: StageChurn,
    txs_per_block: usize,
    workload: WorkloadConfig,
) -> (S, RunSummary) {
    let quiet = plan.is_quiet() && !(S::STAGED && stage_churn.interval > 0);
    let (seed, groups) = (plan.seed(), plan.clusters().to_vec());
    let nodes = strategy.net().len();
    let plan_render = plan.render();
    let summary = RunSummary {
        strategy: S::LABEL,
        nodes,
        clusters: groups.len(),
        rounds: plan.rounds().len(),
        cycles_per_cluster: plan.cycles_per_cluster(),
        min_live_nodes: nodes,
        min_availability: 1.0,
        plan_fingerprint: FaultPlan::fingerprint_of(&plan_render),
        plan_render,
        ..RunSummary::default()
    };
    let mut run = FaultRun {
        strategy,
        groups,
        summary,
    };

    let lanes = run.strategy.lanes();
    let mut generators: Vec<WorkloadGenerator> = (0..lanes)
        .map(|lane| {
            WorkloadGenerator::new(WorkloadConfig {
                seed: workload.seed ^ (lane as u64).wrapping_mul(0x9E37_79B9),
                ..workload
            })
        })
        .collect();
    let mut pending: Vec<Option<Vec<Transaction>>> = vec![None; lanes];
    let mut proposals = Vec::with_capacity(lanes);
    let mut touched = Vec::new();
    let sampling = ici_telemetry::enabled();
    let mut series = RoundSeries::default();
    let mut generated_txs = 0u64;

    for ((index, round), send_faults) in plan.rounds().iter().enumerate().zip(plan.send_faults()) {
        let target = index % lanes;

        // 1. Apply the scheduled churn (restarts come back disk-intact),
        //    then count who is up: the network is the one live set.
        run.mark_churn("faults/restart", &round.restarts, index);
        for node in &round.restarts {
            run.strategy.net_mut().recover(*node);
        }
        run.mark_churn("faults/crash", &round.crashes, index);
        for node in &round.crashes {
            run.strategy.net_mut().crash(*node);
        }
        run.summary.restart_events += round.restarts.len();
        run.summary.crash_events += round.crashes.len();
        let live_nodes = run.count_live(!quiet);
        run.summary.min_live_nodes = run.summary.min_live_nodes.min(live_nodes);
        touched.clear();
        touched.extend_from_slice(&round.crashes);
        touched.extend_from_slice(&round.restarts);

        // 2. Install this round's message faults on the send path.
        if !quiet {
            run.strategy.net_mut().set_faults(send_faults);
        }

        // 3. Every lane proposes a block; a lane that does not commit
        //    retries the same batch. Byzantine action degrades this
        //    step: an equivocating proposer burns its lane's round (and
        //    real dissemination bandwidth) outright, and lying or
        //    withholding verifiers can stall a lane's verdict quorum
        //    before its commit is attempted.
        let mut stage_crash = None;
        for (lane, slot) in pending.iter_mut().enumerate() {
            let batch = slot.get_or_insert_with(|| {
                let fresh = generators[lane].batch(txs_per_block);
                generated_txs += fresh.len() as u64;
                fresh
            });
            if round.equivocation && lane == target {
                let (detected, wasted) = run.equivocate(lane, batch, index);
                run.summary.equivocation_attempts += 1;
                run.summary.wasted_bytes += wasted;
                // Neither twin ever commits: a detected equivocation is
                // discarded, an undetected one is counted as a breach.
                run.summary.equivocations_detected += usize::from(detected);
                run.summary.safety_breaches += usize::from(!detected);
            } else if run.verdict_round_stalls(lane, &round.verdict_faults) {
                // That dissemination is the liars' bandwidth bill.
                run.summary.wasted_bytes += run.charge_stalled(lane, batch);
            } else {
                // A stage-churn round crashes its victim mid-proposal at
                // the drawn boundary and restarts it right after the
                // proposal resolves, so the crash is visible to exactly
                // the stages past the boundary.
                if lane == target && S::STAGED && stage_churn.fires(index) {
                    let mix = ici_trace::derive_id(seed ^ STAGE_CHURN_SALT, index as u64);
                    stage_crash = run.stage_victim(lane, mix);
                    if let Some((victim, _)) = stage_crash {
                        run.summary.stage_crash_events += 1;
                        touched.push(victim);
                        run.mark_churn("faults/stage_crash", &[victim], index);
                    }
                }
                proposals.push((lane, batch.clone()));
                continue;
            }
            run.summary.byz_skipped_rounds += 1;
            run.summary.skipped_rounds += 1;
        }
        if !proposals.is_empty() {
            for (lane, committed) in run.strategy.propose(&mut proposals, stage_crash) {
                if committed {
                    pending[lane] = None;
                    run.summary.committed_blocks += 1;
                } else {
                    run.summary.skipped_rounds += 1;
                }
                if stage_crash.is_some() && lane == target {
                    run.summary.stage_crash_commits += usize::from(committed);
                }
            }
        }
        if let Some((victim, _)) = stage_crash {
            run.mark_churn("faults/stage_restart", &[victim], index);
        }

        // 4. The strategy's own recovery step, then a per-round
        //    survivability sample taken after it so the stored-bytes
        //    snapshot reflects the round's healed state.
        if !quiet {
            run.strategy.after_fault_round(&touched, &mut run.summary);
        }
        if sampling {
            series.sample(&run.strategy, index, generated_txs);
        }
    }
    series.finish(S::LABEL, if quiet { "" } else { "+faults" }, nodes);

    // Faults end with the plan.
    let (mut strategy, mut summary) = (run.strategy, run.summary);
    strategy.net_mut().clear_faults();
    if !quiet {
        strategy.finish_fault_run(&mut summary);
        for (name, value) in [
            ("sim/fault_repair_bytes", summary.repair_bytes),
            ("faults/equivocations", summary.equivocation_attempts as u64),
            (
                "faults/equivocations_detected",
                summary.equivocations_detected as u64,
            ),
            ("faults/verdict_flips", summary.verdict_flips as u64),
            ("faults/liars_detected", summary.liars_detected as u64),
            ("sim/byz_wasted_bytes", summary.wasted_bytes),
        ] {
            ici_telemetry::counter_add(name, Label::Global, value);
        }
    }
    summary.reduce(&strategy);
    strategy.net().meter().publish_telemetry();
    (strategy, summary)
}

// Kept for the frozen benchmark only: `benchmark/src/surface.rs` calls
// it by name. The next `benchmark` PR calls
// `run_under_faults::<IciNetwork>` and removes it; nothing else may call
// it.
#[doc(hidden)]
pub fn run_ici_under_faults(
    config: IciConfig,
    txs_per_block: usize,
    workload: WorkloadConfig,
    profile: FaultProfile,
) -> Result<(IciNetwork, RunSummary), FaultError> {
    run_under_faults(config, txs_per_block, workload, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_baselines::full::{FullConfig, FullReplicationNetwork};
    use ici_baselines::rapidchain::{RapidChainConfig, RapidChainNetwork};
    use ici_faults::plan::RoundFaults;
    use ici_net::link::LinkModel;

    fn workload() -> WorkloadConfig {
        WorkloadConfig {
            accounts: 32,
            ..WorkloadConfig::default()
        }
    }

    fn config() -> IciConfig {
        IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .link(LinkModel::quiet())
            .seed(7)
            .build()
            .expect("valid")
    }

    fn profile(seed: u64) -> FaultProfile {
        FaultProfile {
            seed,
            rounds: 10,
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

    #[test]
    fn faulted_run_commits_and_recovers() {
        let (network, summary) =
            run_under_faults::<IciNetwork>(config(), 5, workload(), profile(3))
                .expect("plan builds");
        assert_eq!(summary.rounds, 10);
        assert!(summary.crash_events > 0, "{}", summary.plan_render);
        assert!(summary.committed_blocks + summary.skipped_rounds as u64 == 10);
        assert!(summary.recovery_attempts > 0);
        assert_eq!(summary.recovery_success_rate(), 1.0, "{summary:?}");
        assert!(summary.final_audit_clean);
        assert!(summary.unrecoverable_heights.is_empty());
        assert!(summary.min_live_nodes < 24);
        assert!(network.chain_len() > 1);
    }

    /// The summary's fingerprint is the one of the render it carries,
    /// rendered once.
    #[test]
    fn summary_fingerprint_is_its_renders() {
        for seed in [3, 11] {
            let (_, summary) =
                run_under_faults::<IciNetwork>(config(), 4, workload(), profile(seed))
                    .expect("plan");
            assert!(summary.plan_render.starts_with("plan seed="));
            assert_eq!(
                FaultPlan::fingerprint_of(&summary.plan_render),
                summary.plan_fingerprint,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn same_seed_same_fault_summary() {
        let (_, a) =
            run_under_faults::<IciNetwork>(config(), 4, workload(), profile(11)).expect("plan");
        let (_, b) =
            run_under_faults::<IciNetwork>(config(), 4, workload(), profile(11)).expect("plan");
        assert_eq!(a, b);
        let (_, c) =
            run_under_faults::<IciNetwork>(config(), 4, workload(), profile(12)).expect("plan");
        assert_ne!(a.plan_render, c.plan_render);
    }

    #[test]
    fn guaranteed_cycles_cover_every_cluster() {
        let (_, summary) =
            run_under_faults::<IciNetwork>(config(), 4, workload(), profile(5)).expect("plan");
        assert_eq!(summary.cycles_per_cluster.len(), summary.clusters);
        assert!(summary.cycles_per_cluster.iter().all(|c| *c >= 1));
    }

    #[test]
    fn churn_events_become_trace_marks() {
        ici_trace::set_enabled(true);
        ici_trace::reset();
        let (_, summary) = run_under_faults::<IciNetwork>(config(), 4, workload(), profile(3))
            .expect("plan builds");
        let snap = ici_trace::snapshot();
        ici_trace::set_enabled(false);
        ici_trace::reset();
        let crashes: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "faults/crash")
            .collect();
        assert_eq!(crashes.len(), summary.crash_events, "one mark per crash");
        for mark in crashes {
            assert_eq!(mark.kind, ici_trace::TraceKind::Mark);
            assert!(mark.node.is_some() && mark.cluster.is_some());
            assert_ne!(mark.id, 0);
        }
        assert_eq!(
            snap.events
                .iter()
                .filter(|e| e.name == "faults/restart")
                .count(),
            summary.restart_events
        );
    }

    fn byz_profile(seed: u64) -> FaultProfile {
        FaultProfile {
            byzantine: ByzantineConfig {
                equivocation_prob: 0.3,
                false_verdict_fraction: 0.25,
                flip_prob: 0.35,
                withhold_prob: 0.15,
            },
            ..profile(seed)
        }
    }

    #[test]
    fn crash_only_profiles_report_no_byzantine_activity() {
        let (_, summary) =
            run_under_faults::<IciNetwork>(config(), 4, workload(), profile(3)).expect("plan");
        assert_eq!(summary.equivocation_attempts, 0);
        assert_eq!(summary.verdict_flips + summary.verdict_withholds, 0);
        assert_eq!(summary.wasted_bytes, 0);
        assert_eq!(summary.equivocation_detection_rate(), 1.0);
        assert_eq!(summary.liar_detection_rate(), 1.0);
    }

    #[test]
    fn byzantine_run_detects_every_equivocation_and_stays_clean() {
        let (network, summary) =
            run_under_faults::<IciNetwork>(config(), 5, workload(), byz_profile(23)).expect("plan");
        assert!(summary.equivocation_attempts > 0, "{}", summary.plan_render);
        // 8-member clusters with a floor of 3 live: both audience halves
        // always hold an honest witness, so detection is total and no
        // forged branch survives.
        assert_eq!(summary.equivocation_detection_rate(), 1.0, "{summary:?}");
        assert_eq!(summary.safety_breaches, 0);
        assert!(summary.wasted_bytes > 0, "equivocation burns bandwidth");
        assert_eq!(
            summary.committed_blocks + summary.skipped_rounds as u64,
            summary.rounds as u64
        );
        assert!(summary.byz_skipped_rounds >= summary.equivocation_attempts);
        assert!(summary.final_audit_clean, "{summary:?}");
        assert!(network.chain_len() > 1, "liveness survives the liars");
    }

    #[test]
    fn byzantine_run_is_deterministic() {
        let (_, a) =
            run_under_faults::<IciNetwork>(config(), 4, workload(), byz_profile(29)).expect("plan");
        let (_, b) =
            run_under_faults::<IciNetwork>(config(), 4, workload(), byz_profile(29)).expect("plan");
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_flipping_stalls_rounds_but_liars_are_named() {
        let flood = FaultProfile {
            byzantine: ByzantineConfig {
                equivocation_prob: 0.0,
                false_verdict_fraction: 0.4,
                flip_prob: 1.0,
                withhold_prob: 0.0,
            },
            ..profile(13)
        };
        let (_, summary) =
            run_under_faults::<IciNetwork>(config(), 4, workload(), flood).expect("plan");
        assert!(summary.verdict_flips > 0);
        assert!(
            summary.byz_skipped_rounds > 0,
            "3-of-8 flipping must stall some home verdicts: {summary:?}"
        );
        // Every false reject lands in a cluster with honest members, so
        // every liar is exposed.
        assert_eq!(summary.liar_detection_rate(), 1.0, "{summary:?}");
        assert!(summary.wasted_bytes > 0);
        assert!(summary.final_audit_clean);
    }

    fn stage_profile(seed: u64) -> FaultProfile {
        FaultProfile {
            stage_churn: StageChurn { interval: 2 },
            ..profile(seed)
        }
    }

    #[test]
    fn stage_churn_rounds_recover_and_stay_auditable() {
        let (network, summary) =
            run_under_faults::<IciNetwork>(config(), 4, workload(), stage_profile(3))
                .expect("plan");
        assert!(summary.stage_crash_events > 0, "{}", summary.plan_render);
        assert!(summary.stage_crash_commits <= summary.stage_crash_events);
        // Every mid-proposal crash is restarted and its cluster repaired
        // the same round, so nothing stays degraded or lost.
        assert_eq!(summary.recovery_success_rate(), 1.0, "{summary:?}");
        assert!(summary.final_audit_clean, "{summary:?}");
        assert!(summary.unrecoverable_heights.is_empty());
        assert_eq!(
            summary.committed_blocks + summary.skipped_rounds as u64,
            summary.rounds as u64
        );
        assert!(network.chain_len() > 1, "liveness survives stage churn");
    }

    #[test]
    fn inert_stage_churn_leaves_crash_only_runs_byte_stable() {
        let (_, plain) =
            run_under_faults::<IciNetwork>(config(), 4, workload(), profile(11)).expect("plan");
        let explicit = FaultProfile {
            stage_churn: StageChurn { interval: 0 },
            ..profile(11)
        };
        let (_, zeroed) =
            run_under_faults::<IciNetwork>(config(), 4, workload(), explicit).expect("plan");
        assert_eq!(plain, zeroed);
        assert_eq!(plain.stage_crash_events, 0);
    }

    #[test]
    fn a_verifier_crashed_before_its_flip_adds_no_flip() {
        // Round 0 crashes `liar` or leaves it up; round 1 schedules its flip.
        let flipped = |crash_first: bool| {
            let strategy = IciNetwork::build(config(), genesis_for(&workload()));
            let liar = strategy.groups()[0][1];
            let mut rounds = vec![RoundFaults::default(); 2];
            if crash_first {
                rounds[0].crashes.push(liar);
            }
            rounds[1].verdict_faults.push((liar, VerdictFault::Flip));
            let plan = FaultPlan::from_rounds(strategy.groups(), rounds).expect("known nodes");
            let (_, summary) = drive(strategy, plan, StageChurn::default(), 4, workload());
            (summary.crash_events, summary.verdict_flips)
        };
        assert_eq!(flipped(false), (0, 1), "a live liar flips");
        assert_eq!(flipped(true), (1, 0), "a crashed liar reports nothing");
    }

    #[test]
    fn impossible_floor_is_a_typed_error() {
        let bad = FaultProfile {
            churn: ChurnConfig {
                min_live_per_cluster: 100,
                ..ChurnConfig::default()
            },
            ..FaultProfile::default()
        };
        assert!(matches!(
            run_under_faults::<IciNetwork>(config(), 4, workload(), bad),
            Err(FaultError::MinLiveTooHigh { .. })
        ));
    }

    #[test]
    fn message_faults_still_converge() {
        let lossy = FaultProfile {
            messages: MessageFaultSpec {
                drop_prob: 0.1,
                dup_prob: 0.05,
                delay_prob: 0.1,
                max_extra_delay_ms: 20.0,
            },
            ..profile(9)
        };
        let (_, summary) =
            run_under_faults::<IciNetwork>(config(), 4, workload(), lossy).expect("plan");
        assert!(summary.final_audit_clean, "{summary:?}");
        assert_eq!(summary.recovery_success_rate(), 1.0);
    }

    fn full_config() -> FullConfig {
        FullConfig {
            nodes: 24,
            fanout: 4,
            link: LinkModel::quiet(),
            seed: 2,
            ..FullConfig::default()
        }
    }

    fn rc_config() -> RapidChainConfig {
        RapidChainConfig {
            nodes: 24,
            committee_size: 8,
            link: LinkModel::quiet(),
            seed: 2,
            ..RapidChainConfig::default()
        }
    }

    #[test]
    fn full_baseline_survives_crash_churn() {
        let (network, summary) =
            run_under_faults::<FullReplicationNetwork>(full_config(), 4, workload(), profile(3))
                .expect("plan");
        assert_eq!(summary.strategy, "FullReplication");
        assert_eq!(summary.clusters, 1);
        assert!(summary.crash_events > 0, "{}", summary.plan_render);
        assert_eq!(
            summary.committed_blocks + summary.skipped_rounds as u64,
            summary.rounds as u64
        );
        assert!(summary.min_live_nodes < 24);
        assert_eq!(summary.verdict_flips, 0, "solo validation has no verdicts");
        assert!(network.chain_len() > 1);
        assert!(summary.total_bytes > 0);
    }

    #[test]
    fn rapidchain_baseline_survives_crash_churn() {
        let (network, summary) =
            run_under_faults::<RapidChainNetwork>(rc_config(), 4, workload(), profile(3))
                .expect("plan");
        assert_eq!(summary.strategy, "RapidChain");
        assert_eq!(summary.clusters, 3);
        assert!(summary.crash_events > 0, "{}", summary.plan_render);
        // Every shard proposes every round.
        assert_eq!(
            summary.committed_blocks + summary.skipped_rounds as u64,
            (summary.rounds * network.shard_count()) as u64
        );
        let total_height: u64 = (0..network.shard_count())
            .map(|s| network.shard_chain_len(s) - 1)
            .sum();
        assert_eq!(total_height, summary.committed_blocks);
    }

    #[test]
    fn full_baseline_detects_equivocation() {
        let (_, summary) = run_under_faults::<FullReplicationNetwork>(
            full_config(),
            4,
            workload(),
            byz_profile(23),
        )
        .expect("plan");
        assert!(summary.equivocation_attempts > 0, "{}", summary.plan_render);
        // A live floor of 3 over one 24-node cluster keeps an honest
        // witness in both audience halves: detection is total.
        assert_eq!(summary.equivocation_detection_rate(), 1.0, "{summary:?}");
        assert_eq!(summary.safety_breaches, 0);
        assert!(summary.wasted_bytes > 0, "twins burn bandwidth");
        assert!(summary.wasted_fraction() > 0.0 && summary.wasted_fraction() < 1.0);
        assert_eq!(summary.verdict_flips + summary.verdict_withholds, 0);
    }

    #[test]
    fn rapidchain_baseline_detects_equivocation_and_names_liars() {
        let (_, summary) =
            run_under_faults::<RapidChainNetwork>(rc_config(), 4, workload(), byz_profile(23))
                .expect("plan");
        assert!(summary.equivocation_attempts > 0, "{}", summary.plan_render);
        assert_eq!(summary.equivocation_detection_rate(), 1.0, "{summary:?}");
        assert_eq!(summary.safety_breaches, 0);
        assert_eq!(summary.liar_detection_rate(), 1.0, "{summary:?}");
        assert!(summary.wasted_bytes > 0);
    }

    #[test]
    fn rapidchain_heavy_flipping_stalls_the_active_committee() {
        let flood = FaultProfile {
            byzantine: ByzantineConfig {
                equivocation_prob: 0.0,
                false_verdict_fraction: 0.4,
                flip_prob: 1.0,
                withhold_prob: 0.0,
            },
            ..profile(13)
        };
        let (_, summary) =
            run_under_faults::<RapidChainNetwork>(rc_config(), 4, workload(), flood).expect("plan");
        assert!(summary.verdict_flips > 0, "{}", summary.plan_render);
        // 3 liars in an 8-member committee leave 5 accepts < quorum 6.
        assert!(summary.byz_skipped_rounds > 0, "{summary:?}");
        assert_eq!(summary.liar_detection_rate(), 1.0, "{summary:?}");
        assert!(summary.wasted_bytes > 0);
    }

    #[test]
    fn baseline_fault_runs_are_deterministic() {
        let (_, a) = run_under_faults::<FullReplicationNetwork>(
            full_config(),
            4,
            workload(),
            byz_profile(29),
        )
        .expect("plan");
        let (_, b) = run_under_faults::<FullReplicationNetwork>(
            full_config(),
            4,
            workload(),
            byz_profile(29),
        )
        .expect("plan");
        assert_eq!(a, b);
        let (_, c) =
            run_under_faults::<RapidChainNetwork>(rc_config(), 4, workload(), byz_profile(29))
                .expect("plan");
        let (_, d) =
            run_under_faults::<RapidChainNetwork>(rc_config(), 4, workload(), byz_profile(29))
                .expect("plan");
        assert_eq!(c, d);
        assert_ne!(a.plan_render, c.plan_render, "different cluster maps");
    }

    // The helpers below used to exist once per runner; each test drives
    // the single copy through all three `Strategy` impls.

    fn fault_run<S: Strategy>(config: S::Config) -> FaultRun<S> {
        let strategy = S::build(config, genesis_for(&workload()));
        FaultRun {
            groups: strategy.groups(),
            strategy,
            summary: RunSummary::default(),
        }
    }

    /// Crashes every live member of `lane`'s proposing group except the
    /// leader and `keep` followers.
    fn thin_home_group<S: Strategy>(run: &mut FaultRun<S>, lane: usize, keep: usize) {
        let proposer = run.elect(lane).expect("everyone is live");
        for member in proposer.followers().skip(keep) {
            run.strategy.net_mut().crash(member);
        }
    }

    /// What the strategy's dissemination shape charges for `recipients`
    /// followers.
    fn dissemination_bytes<S: Strategy>(strategy: &S, recipients: usize, sizes: (u64, u64)) -> u64 {
        (0..recipients)
            .map(|rank| strategy.payload(rank, sizes.0, sizes.1).1)
            .sum()
    }

    fn check_equivocation_charge<S: Strategy>(config: impl Fn() -> S::Config, ring: bool) {
        let batch = WorkloadGenerator::new(workload()).batch(4);

        // Everyone live: 7 followers split 3 + 4, both halves witness.
        let mut run = fault_run::<S>(config());
        let sizes = block_bytes(&batch);
        let (detected, wasted) = run.equivocate(0, &batch, 0);
        assert!(detected, "{}: both halves hold a witness", S::LABEL);
        let meter = run.strategy.net().meter();
        let twins = dissemination_bytes(&run.strategy, 3, sizes)
            + dissemination_bytes(&run.strategy, 4, sizes);
        if ring {
            assert_eq!(meter.kind(MessageKind::Vote).messages, 0, "{}", S::LABEL);
            assert_eq!(meter.kind(MessageKind::BlockHeader).messages, 7);
            assert_eq!(wasted, twins + 7 * sizes.0, "{}", S::LABEL);
        } else {
            assert_eq!(
                meter.kind(MessageKind::Vote).messages,
                7 * 6,
                "{}",
                S::LABEL
            );
            assert_eq!(wasted, twins + 7 * 6 * VOTE_BYTES, "{}", S::LABEL);
        }
        assert_eq!(wasted, meter.total().bytes, "only the twins were sent");

        // One follower left: its half is the whole audience, the other
        // is empty, and the fraud goes unseen.
        let mut run = fault_run::<S>(config());
        thin_home_group(&mut run, 0, 1);
        let (detected, wasted) = run.equivocate(0, &batch, 0);
        assert!(!detected, "{}: an empty half cannot witness", S::LABEL);
        assert_eq!(wasted, dissemination_bytes(&run.strategy, 1, sizes));

        // Nobody left to propose: nothing sent, nothing to conflict.
        let mut run = fault_run::<S>(config());
        for node in run.groups.concat() {
            run.strategy.net_mut().crash(node);
        }
        assert_eq!(run.equivocate(0, &batch, 0), (true, 0), "{}", S::LABEL);
    }

    fn eight_node_ici() -> IciConfig {
        IciConfig::builder()
            .nodes(8)
            .cluster_size(8)
            .replication(2)
            .link(LinkModel::quiet())
            .seed(7)
            .build()
            .expect("valid")
    }

    fn eight_node_full() -> FullConfig {
        FullConfig {
            nodes: 8,
            ..full_config()
        }
    }

    fn eight_node_rapidchain() -> RapidChainConfig {
        RapidChainConfig {
            nodes: 8,
            ..rc_config()
        }
    }

    #[test]
    fn equivocation_charge_follows_the_strategys_exchange() {
        check_equivocation_charge::<IciNetwork>(eight_node_ici, false);
        check_equivocation_charge::<FullReplicationNetwork>(eight_node_full, true);
        check_equivocation_charge::<RapidChainNetwork>(eight_node_rapidchain, false);
    }

    fn check_stalled_charge<S: Strategy>(config: impl Fn() -> S::Config) {
        let batch = WorkloadGenerator::new(workload()).batch(4);
        let mut run = fault_run::<S>(config());
        thin_home_group(&mut run, 0, 4);
        let sizes = block_bytes(&batch);
        // The leader reaches its 4 live followers, then all 5 vote.
        let expected = dissemination_bytes(&run.strategy, 4, sizes) + 5 * 4 * VOTE_BYTES;
        assert_eq!(run.charge_stalled(0, &batch), expected, "{}", S::LABEL);
        assert_eq!(run.metered(), expected, "{}", S::LABEL);

        let mut run = fault_run::<S>(config());
        for node in run.groups.concat() {
            run.strategy.net_mut().crash(node);
        }
        assert_eq!(run.charge_stalled(0, &batch), 0, "{}: no leader", S::LABEL);
    }

    #[test]
    fn stalled_round_charges_distribution_plus_one_vote_round() {
        check_stalled_charge::<IciNetwork>(eight_node_ici);
        check_stalled_charge::<FullReplicationNetwork>(eight_node_full);
        check_stalled_charge::<RapidChainNetwork>(eight_node_rapidchain);
    }

    #[test]
    fn tally_names_liars_only_when_someone_honest_is_left() {
        let live: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let flips = |n: u64| -> Vec<(NodeId, VerdictFault)> {
            (0..n)
                .map(|i| (NodeId::new(i), VerdictFault::Flip))
                .collect()
        };
        // quorum(8) = 6: two liars leave exactly a quorum of accepts,
        // a third breaks it.
        let mut summary = RunSummary::default();
        assert!(tally_group(&live, &flips(2), &mut summary));
        assert!(!tally_group(&live, &flips(3), &mut summary));
        assert_eq!((summary.verdict_flips, summary.liars_detected), (5, 5));

        // Nobody honest is left to re-verify: the flips are counted,
        // no liar is named.
        let mut summary = RunSummary::default();
        assert!(!tally_group(&live, &flips(8), &mut summary));
        assert_eq!((summary.verdict_flips, summary.liars_detected), (8, 0));

        // Faults of nodes outside the live set (crashed, other groups)
        // never vote.
        let mut summary = RunSummary::default();
        let strangers = vec![(NodeId::new(40), VerdictFault::Withhold)];
        assert!(tally_group(&live, &strangers, &mut summary));
        assert_eq!(summary, RunSummary::default());

        // A singleton is its own quorum: it accepts alone, and stalls
        // when its one verdict is a lie.
        let solo = [NodeId::new(0)];
        assert!(tally_group(&solo, &strangers, &mut summary));
        assert!(!tally_group(&solo, &flips(1), &mut summary));

        // quorum(10) = 7: seven honest accepts commit, six stall, whether
        // the rest lie or go silent.
        assert!(accepts(10, 3, 0) && accepts(10, 0, 3));
        assert!(!accepts(10, 4, 0) && !accepts(10, 0, 4) && !accepts(10, 2, 2));
        // An exact split never commits.
        for n in [2, 4, 6, 8, 10, 12] {
            assert!(!accepts(n, n / 2, 0), "n={n}");
        }
        // A silent majority is not consent.
        assert!(!accepts(10, 0, 7) && !accepts(10, 3, 7) && !accepts(10, 0, 10));
    }

    /// Whether `members` live nodes reach the accept quorum when the
    /// first `flips` lie and the next `withholds` go silent.
    fn accepts(members: u64, flips: u64, withholds: u64) -> bool {
        let live: Vec<NodeId> = (0..members).map(NodeId::new).collect();
        let flipped = (0..flips).map(|i| (NodeId::new(i), VerdictFault::Flip));
        let silent = (flips..flips + withholds).map(|i| (NodeId::new(i), VerdictFault::Withhold));
        let faults: Vec<_> = flipped.chain(silent).collect();
        tally_group(&live, &faults, &mut RunSummary::default())
    }

    /// A round's verdict faults: flips by `liars`.
    fn flips_by(liars: &[NodeId]) -> Vec<(NodeId, VerdictFault)> {
        liars.iter().map(|n| (*n, VerdictFault::Flip)).collect()
    }

    /// Three flips in the proposing group, then three in another group:
    /// returns `(home stalled, flips counted, remote stalled, flips
    /// counted, remote verdicts missed)`.
    fn verdict_scope_probe<S: Strategy>(config: S::Config) -> (bool, usize, bool, usize, usize) {
        let mut run = fault_run::<S>(config);
        let home = run.elect(0).expect("live").home;
        let remote = (home + 1) % run.groups.len();
        let liars = |group: usize| run.groups[group][..3].to_vec();
        let (at_home, elsewhere) = (liars(home), liars(remote));

        let home_stalled = run.verdict_round_stalls(0, &flips_by(&at_home));
        let home_flips = run.summary.verdict_flips;
        let remote_stalled = run.verdict_round_stalls(0, &flips_by(&elsewhere));
        (
            home_stalled,
            home_flips,
            remote_stalled,
            run.summary.verdict_flips - home_flips,
            run.summary.byz_missed_cluster_verdicts,
        )
    }

    #[test]
    fn verdict_faults_bite_only_inside_the_strategys_scope() {
        // ICI: every cluster votes; only the home cluster's stall burns
        // the round, a remote one is a missed verdict.
        assert_eq!(
            verdict_scope_probe::<IciNetwork>(config()),
            (true, 3, false, 3, 1)
        );
        // RapidChain: only the active committee votes.
        assert_eq!(
            verdict_scope_probe::<RapidChainNetwork>(rc_config()),
            (true, 3, false, 0, 0)
        );
        // Full replication has one group and no verdict round at all.
        let mut run = fault_run::<FullReplicationNetwork>(full_config());
        let liars = run.groups[0][..12].to_vec();
        assert!(!run.verdict_round_stalls(0, &flips_by(&liars)));
        assert_eq!(run.summary, RunSummary::default());
    }
}
