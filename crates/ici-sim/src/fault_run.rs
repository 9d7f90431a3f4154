//! The failure-aware run driver.
//!
//! [`run_under_faults`] takes any [`Strategy`] through a deterministic
//! [`ici_faults::plan::FaultPlan`] of churn, partitions, message faults
//! and Byzantine action, and reduces the run to a [`FaultRunSummary`].
//! [`run_ici_under_faults`], [`run_full_under_faults`] and
//! [`run_rapidchain_under_faults`] instantiate it, so the adversary
//! never changes between the columns of a comparison: same seed, same
//! churn draws, same Byzantine designations, one loop. What each system
//! *experiences* differently is the table in [`crate::strategy`].
//!
//! All draws come from the plan: same seed ⇒ same plan ⇒ same commits,
//! same repair traffic, same summary, byte for byte — which is what
//! lets CI assert on survivability numbers and diff two runs of
//! `e_fault` or `e_byz` directly.

use ici_baselines::full::{FullConfig, FullReplicationNetwork};
use ici_baselines::rapidchain::{RapidChainConfig, RapidChainNetwork};
use ici_chain::transaction::Transaction;
use ici_consensus::leader::elect_live_leader;
use ici_consensus::pbft::VOTE_BYTES;
use ici_consensus::verdicts::{tally_votes, VerdictOutcome, VerifierVote};
use ici_core::config::IciConfig;
use ici_core::network::IciNetwork;
use ici_core::StageBoundary;
use ici_faults::plan::{
    ByzantineConfig, ChurnConfig, FaultError, FaultPlanConfig, MessageFaultSpec, PartitionPolicy,
    VerdictFault,
};
use ici_faults::scheduler::{FaultScheduler, ScheduledRound};
use ici_net::metrics::MessageKind;
use ici_net::network::Network;
use ici_net::node::NodeId;
use ici_workload::{WorkloadConfig, WorkloadGenerator};

use crate::latency::LatencyStats;
use crate::runner::{genesis_for, ratio, RoundSeries};
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
    /// Rounds to run; each round proposes one block.
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

/// One fault run, reduced to the survivability quantities the
/// `e_fault` and `e_byz` tables report. One flat shape for every
/// strategy: the repair and audit fields are ICIStrategy's and stay at
/// their empty values for the baselines, which have no such step.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultRunSummary {
    /// Which strategy ran ([`Strategy::LABEL`]).
    pub strategy: &'static str,
    /// Nodes simulated.
    pub nodes: usize,
    /// Plan groups: clusters formed for ICIStrategy, 1 for full
    /// replication, committees for RapidChain.
    pub clusters: usize,
    /// Rounds executed (== the plan's length).
    pub rounds: usize,
    /// Blocks committed despite the faults (excluding genesis).
    pub committed_blocks: u64,
    /// Rounds whose proposal failed (no quorum / partitioned leader) or
    /// was burned by Byzantine action; the batch is retried on the
    /// lane's next visit, so these measure liveness loss only.
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
    /// Whether every cluster's final shard-level Merkle audit was clean.
    pub final_audit_clean: bool,
    /// Body replicas re-hashed by the final audit.
    pub merkle_shards_verified: usize,
    /// Commit latency over the committed blocks.
    pub commit_latency: LatencyStats,
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
    /// Rounds lost to Byzantine action (equivocation or a stalled home
    /// cluster); a subset of `skipped_rounds`.
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

impl FaultRunSummary {
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
/// quorum.
fn tally_group(
    live: &[NodeId],
    faults: &[(NodeId, VerdictFault)],
    summary: &mut FaultRunSummary,
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
    let votes = std::iter::repeat_n(VerifierVote::Accept, honest)
        .chain(std::iter::repeat_n(VerifierVote::Reject, flips))
        .chain(std::iter::repeat_n(VerifierVote::Withhold, withholds));
    tally_votes(votes, live.len()).outcome() == VerdictOutcome::Accepted
}

/// One fault run in flight: the strategy under test, the plan groups
/// it formed, and the summary so far.
struct FaultRun<S> {
    strategy: S,
    groups: Vec<Vec<NodeId>>,
    summary: FaultRunSummary,
}

impl<S: Strategy> FaultRun<S> {
    /// Group `group`'s members still up, order preserved.
    fn live(&self, group: usize) -> Vec<NodeId> {
        let net = self.strategy.net();
        let up = |n: &NodeId| net.is_up(*n);
        self.groups[group].iter().copied().filter(up).collect()
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
            ici_trace::mark(
                name,
                at_us,
                0,
                group.map(|g| g as u64),
                Some(node.get()),
                ici_trace::derive_id(FAULT_MARK_SALT ^ round as u64, node.get()),
                0,
            );
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
            ici_trace::mark(
                "byz/equivocation",
                self.strategy.now().as_micros(),
                proposer.height,
                Some(proposer.home as u64),
                Some(leader.get()),
                ici_trace::derive_id(FAULT_MARK_SALT ^ 0xE9, round as u64 ^ leader.get()),
                0,
            );
        }
        let sizes = self.strategy.block_bytes(lane, leader, batch);
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
    /// the strategy's [`VerdictScope`], with the real quorum arithmetic
    /// over each group's live membership. Returns whether the proposing
    /// group cannot reach an accept quorum — the round stalls before
    /// the commit. Other groups' failed quorums are counted only when
    /// the round goes on to its proposal (their dissemination was
    /// wasted on a stalled verdict; the commit proceeds).
    fn verdict_round_stalls(&mut self, lane: usize, round: &ScheduledRound) -> bool {
        if round.verdict_faults.is_empty() {
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
            if live.is_empty() || tally_group(&live, &round.verdict_faults, &mut self.summary) {
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
        let sizes = self.strategy.block_bytes(lane, proposer.leader, batch);
        let before = self.metered();
        self.disseminate(proposer.leader, proposer.followers(), sizes);
        all_pairs_votes(self.strategy.net_mut(), &proposer.live);
        self.metered() - before
    }
}

/// Runs `S` under the given fault profile.
///
/// The network is built from `config` (its genesis is replaced by one
/// derived from the workload) and the fault plan over the groups the
/// strategy actually formed. Round `i` applies the scheduled restarts
/// and crashes, installs the round's message faults on the send path,
/// and proposes one `txs_per_block` block on lane `i % lanes` (as
/// RapidChain interleaves shard blocks) — unless Byzantine action burns
/// the round first. A round that does not commit retries the same
/// batch on the lane's next visit, so account nonces stay sequential
/// per ledger. The strategy's own recovery step closes the round; for
/// ICIStrategy that is content-level: every repaired cluster must pass
/// the shard-level Merkle audit ([`ici_core::merkle_audit`]), not
/// merely report replicas present.
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
) -> Result<(S, FaultRunSummary), FaultError> {
    let strategy = S::build(config, genesis_for(&workload));
    let groups = strategy.groups();
    let plan = FaultPlanConfig::new(profile.seed, profile.rounds, groups.clone())
        .churn(profile.churn)
        .partitions(profile.partitions)
        .messages(profile.messages)
        .byzantine(profile.byzantine)
        .build()?;
    let nodes = strategy.net().len();
    let summary = FaultRunSummary {
        strategy: S::LABEL,
        nodes,
        clusters: groups.len(),
        rounds: profile.rounds,
        cycles_per_cluster: plan.cycles_per_cluster(),
        min_live_nodes: nodes,
        min_availability: 1.0,
        plan_fingerprint: plan.fingerprint(),
        plan_render: plan.render(),
        ..FaultRunSummary::default()
    };
    let mut scheduler = FaultScheduler::new(plan);
    let mut run = FaultRun {
        strategy,
        groups,
        summary,
    };

    // Every lane draws the workload's own seed (the fault-free driver
    // salts the seed per lane instead; both are pinned by committed
    // records, see `runner::run`).
    let lanes = run.strategy.lanes();
    let mut generators = vec![WorkloadGenerator::new(workload); lanes];
    let mut pending: Vec<Option<Vec<Transaction>>> = vec![None; lanes];
    let sampling = ici_telemetry::enabled();
    let mut series = RoundSeries::default();
    let mut generated_txs = 0u64;

    while let Some(round) = scheduler.step() {
        let (index, lane) = (round.round, round.round % lanes);

        // 1. Apply the scheduled churn (restarts come back disk-intact).
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
        run.summary.min_live_nodes = run.summary.min_live_nodes.min(round.live_nodes);
        let mut touched = [&round.crashes[..], &round.restarts[..]].concat();

        // 2. Install this round's message faults on the send path.
        run.strategy
            .net_mut()
            .set_faults(round.message_faults.clone());

        // 3. One block proposal; a round that does not commit retries
        //    the same batch. Byzantine action degrades this step: an
        //    equivocating proposer burns the round (and real
        //    dissemination bandwidth) outright, and lying/withholding
        //    verifiers can stall the proposing group's verdict quorum
        //    before the commit is attempted.
        let batch = pending[lane].take().unwrap_or_else(|| {
            let fresh = generators[lane].batch(txs_per_block);
            generated_txs += fresh.len() as u64;
            fresh
        });
        let committed = if round.equivocation {
            let (detected, wasted) = run.equivocate(lane, &batch, index);
            run.summary.equivocation_attempts += 1;
            run.summary.wasted_bytes += wasted;
            // Neither twin ever commits: a detected equivocation is
            // discarded, an undetected one is counted as a breach.
            run.summary.equivocations_detected += usize::from(detected);
            run.summary.safety_breaches += usize::from(!detected);
            run.summary.byz_skipped_rounds += 1;
            false
        } else if run.verdict_round_stalls(lane, &round) {
            // That dissemination is the liars' bandwidth bill.
            run.summary.wasted_bytes += run.charge_stalled(lane, &batch);
            run.summary.byz_skipped_rounds += 1;
            false
        } else {
            // A stage-churn round crashes its victim mid-proposal at
            // the drawn boundary and restarts it right after the
            // proposal resolves, so the crash is visible to exactly
            // the stages past the boundary.
            let stage_crash = if S::STAGED && profile.stage_churn.fires(index) {
                let mix = ici_trace::derive_id(profile.seed ^ STAGE_CHURN_SALT, index as u64);
                run.stage_victim(lane, mix)
            } else {
                None
            };
            if let Some((victim, _)) = stage_crash {
                run.summary.stage_crash_events += 1;
                touched.push(victim);
                run.mark_churn("faults/stage_crash", &[victim], index);
            }
            let committed = run.strategy.propose(lane, batch.clone(), stage_crash);
            if let Some((victim, _)) = stage_crash {
                run.mark_churn("faults/stage_restart", &[victim], index);
                run.summary.stage_crash_commits += usize::from(committed);
            }
            committed
        };
        if committed {
            run.summary.committed_blocks += 1;
        } else {
            run.summary.skipped_rounds += 1;
            pending[lane] = Some(batch);
        }

        // 4. The strategy's own recovery step, then a per-round
        //    survivability sample taken after it so the stored-bytes
        //    snapshot reflects the round's healed state.
        run.strategy.after_fault_round(&touched, &mut run.summary);
        if sampling {
            series.sample(&run.strategy, index, generated_txs);
        }
    }
    series.finish(&format!("{}+faults", S::LABEL), nodes);

    // Faults end with the plan.
    let (mut strategy, mut summary) = (run.strategy, run.summary);
    strategy.net_mut().clear_faults();
    strategy.finish_fault_run(&mut summary);
    summary.commit_latency = LatencyStats::from_durations(strategy.commits().map(|c| c.latency));
    summary.total_bytes = strategy.net().meter().total().bytes;

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
        ici_telemetry::counter_add(name, ici_telemetry::Label::Global, value);
    }
    strategy.net().meter().publish_telemetry();
    Ok((strategy, summary))
}

/// [`run_under_faults`] for ICIStrategy: the formed clusters are the
/// plan's groups, churned clusters are repaired and Merkle-audited
/// every round.
pub fn run_ici_under_faults(
    config: IciConfig,
    txs_per_block: usize,
    workload: WorkloadConfig,
    profile: FaultProfile,
) -> Result<(IciNetwork, FaultRunSummary), FaultError> {
    let _span = ici_telemetry::span!("sim/run_ici_faults");
    run_under_faults(config, txs_per_block, workload, profile)
}

/// [`run_under_faults`] for full replication: the whole network is one
/// plan group, so the churn floor, partition windows and Byzantine
/// designations draw over the entire population.
pub fn run_full_under_faults(
    config: FullConfig,
    txs_per_block: usize,
    workload: WorkloadConfig,
    profile: FaultProfile,
) -> Result<(FullReplicationNetwork, FaultRunSummary), FaultError> {
    let _span = ici_telemetry::span!("sim/run_full_faults");
    run_under_faults(config, txs_per_block, workload, profile)
}

/// [`run_under_faults`] for RapidChain: committees are the plan's
/// groups and rounds visit them round-robin; liars scheduled in idle
/// committees do nothing that round, exactly as a lying verifier with
/// no block to vote on.
pub fn run_rapidchain_under_faults(
    config: RapidChainConfig,
    txs_per_block: usize,
    workload: WorkloadConfig,
    profile: FaultProfile,
) -> Result<(RapidChainNetwork, FaultRunSummary), FaultError> {
    let _span = ici_telemetry::span!("sim/run_rapidchain_faults");
    run_under_faults(config, txs_per_block, workload, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_net::link::LinkModel;

    fn workload() -> WorkloadConfig {
        WorkloadConfig {
            accounts: 32,
            ..WorkloadConfig::default()
        }
    }

    fn quiet_link() -> LinkModel {
        LinkModel {
            max_jitter_ms: 0.0,
            ..LinkModel::default()
        }
    }

    fn config() -> IciConfig {
        IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .link(quiet_link())
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
            run_ici_under_faults(config(), 5, workload(), profile(3)).expect("plan builds");
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

    #[test]
    fn same_seed_same_fault_summary() {
        let (_, a) = run_ici_under_faults(config(), 4, workload(), profile(11)).expect("plan");
        let (_, b) = run_ici_under_faults(config(), 4, workload(), profile(11)).expect("plan");
        assert_eq!(a, b);
        let (_, c) = run_ici_under_faults(config(), 4, workload(), profile(12)).expect("plan");
        assert_ne!(a.plan_render, c.plan_render);
    }

    #[test]
    fn guaranteed_cycles_cover_every_cluster() {
        let (_, summary) = run_ici_under_faults(config(), 4, workload(), profile(5)).expect("plan");
        assert_eq!(summary.cycles_per_cluster.len(), summary.clusters);
        assert!(summary.cycles_per_cluster.iter().all(|c| *c >= 1));
    }

    #[test]
    fn churn_events_become_trace_marks() {
        ici_trace::set_enabled(true);
        ici_trace::reset();
        let (_, summary) =
            run_ici_under_faults(config(), 4, workload(), profile(3)).expect("plan builds");
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
        let (_, summary) = run_ici_under_faults(config(), 4, workload(), profile(3)).expect("plan");
        assert_eq!(summary.equivocation_attempts, 0);
        assert_eq!(summary.verdict_flips + summary.verdict_withholds, 0);
        assert_eq!(summary.wasted_bytes, 0);
        assert_eq!(summary.equivocation_detection_rate(), 1.0);
        assert_eq!(summary.liar_detection_rate(), 1.0);
    }

    #[test]
    fn byzantine_run_detects_every_equivocation_and_stays_clean() {
        let (network, summary) =
            run_ici_under_faults(config(), 5, workload(), byz_profile(23)).expect("plan");
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
        let (_, a) = run_ici_under_faults(config(), 4, workload(), byz_profile(29)).expect("plan");
        let (_, b) = run_ici_under_faults(config(), 4, workload(), byz_profile(29)).expect("plan");
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
        let (_, summary) = run_ici_under_faults(config(), 4, workload(), flood).expect("plan");
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
            run_ici_under_faults(config(), 4, workload(), stage_profile(3)).expect("plan");
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
        let (_, plain) = run_ici_under_faults(config(), 4, workload(), profile(11)).expect("plan");
        let explicit = FaultProfile {
            stage_churn: StageChurn { interval: 0 },
            ..profile(11)
        };
        let (_, zeroed) = run_ici_under_faults(config(), 4, workload(), explicit).expect("plan");
        assert_eq!(plain, zeroed);
        assert_eq!(plain.stage_crash_events, 0);
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
            run_ici_under_faults(config(), 4, workload(), bad),
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
        let (_, summary) = run_ici_under_faults(config(), 4, workload(), lossy).expect("plan");
        assert!(summary.final_audit_clean, "{summary:?}");
        assert_eq!(summary.recovery_success_rate(), 1.0);
    }

    fn full_config() -> FullConfig {
        FullConfig {
            nodes: 24,
            fanout: 4,
            link: quiet_link(),
            seed: 2,
            ..FullConfig::default()
        }
    }

    fn rc_config() -> RapidChainConfig {
        RapidChainConfig {
            nodes: 24,
            committee_size: 8,
            link: quiet_link(),
            seed: 2,
            ..RapidChainConfig::default()
        }
    }

    #[test]
    fn full_baseline_survives_crash_churn() {
        let (network, summary) =
            run_full_under_faults(full_config(), 4, workload(), profile(3)).expect("plan");
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
            run_rapidchain_under_faults(rc_config(), 4, workload(), profile(3)).expect("plan");
        assert_eq!(summary.strategy, "RapidChain");
        assert_eq!(summary.clusters, 3);
        assert!(summary.crash_events > 0, "{}", summary.plan_render);
        assert_eq!(
            summary.committed_blocks + summary.skipped_rounds as u64,
            summary.rounds as u64
        );
        let total_height: u64 = (0..network.shard_count())
            .map(|s| network.shard_chain_len(s) - 1)
            .sum();
        assert_eq!(total_height, summary.committed_blocks);
    }

    #[test]
    fn full_baseline_detects_equivocation() {
        let (_, summary) =
            run_full_under_faults(full_config(), 4, workload(), byz_profile(23)).expect("plan");
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
            run_rapidchain_under_faults(rc_config(), 4, workload(), byz_profile(23)).expect("plan");
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
            run_rapidchain_under_faults(rc_config(), 4, workload(), flood).expect("plan");
        assert!(summary.verdict_flips > 0, "{}", summary.plan_render);
        // 3 liars in an 8-member committee leave 5 accepts < quorum 6.
        assert!(summary.byz_skipped_rounds > 0, "{summary:?}");
        assert_eq!(summary.liar_detection_rate(), 1.0, "{summary:?}");
        assert!(summary.wasted_bytes > 0);
    }

    #[test]
    fn baseline_fault_runs_are_deterministic() {
        let (_, a) =
            run_full_under_faults(full_config(), 4, workload(), byz_profile(29)).expect("plan");
        let (_, b) =
            run_full_under_faults(full_config(), 4, workload(), byz_profile(29)).expect("plan");
        assert_eq!(a, b);
        let (_, c) =
            run_rapidchain_under_faults(rc_config(), 4, workload(), byz_profile(29)).expect("plan");
        let (_, d) =
            run_rapidchain_under_faults(rc_config(), 4, workload(), byz_profile(29)).expect("plan");
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
            summary: FaultRunSummary::default(),
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
        let sizes = {
            let leader = run.elect(0).expect("live").leader;
            run.strategy.block_bytes(0, leader, &batch)
        };
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
            .link(quiet_link())
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
        let leader = run.elect(0).expect("live").leader;
        let sizes = run.strategy.block_bytes(0, leader, &batch);
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
        let mut summary = FaultRunSummary::default();
        assert!(tally_group(&live, &flips(2), &mut summary));
        assert!(!tally_group(&live, &flips(3), &mut summary));
        assert_eq!((summary.verdict_flips, summary.liars_detected), (5, 5));

        // Nobody honest is left to re-verify: the flips are counted,
        // no liar is named.
        let mut summary = FaultRunSummary::default();
        assert!(!tally_group(&live, &flips(8), &mut summary));
        assert_eq!((summary.verdict_flips, summary.liars_detected), (8, 0));

        // Faults of nodes outside the live set (crashed, other groups)
        // never vote.
        let mut summary = FaultRunSummary::default();
        let strangers = vec![(NodeId::new(40), VerdictFault::Withhold)];
        assert!(tally_group(&live, &strangers, &mut summary));
        assert_eq!(summary, FaultRunSummary::default());
    }

    /// A round whose only scheduled faults are flips by `liars`.
    fn flipping_round(liars: &[NodeId]) -> ScheduledRound {
        ScheduledRound {
            round: 0,
            crashes: Vec::new(),
            restarts: Vec::new(),
            live_nodes: 24,
            live_per_cluster: Vec::new(),
            partition: None,
            message_faults: Default::default(),
            equivocation: false,
            verdict_faults: liars.iter().map(|n| (*n, VerdictFault::Flip)).collect(),
        }
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

        let home_stalled = run.verdict_round_stalls(0, &flipping_round(&at_home));
        let home_flips = run.summary.verdict_flips;
        let remote_stalled = run.verdict_round_stalls(0, &flipping_round(&elsewhere));
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
        assert!(!run.verdict_round_stalls(0, &flipping_round(&liars)));
        assert_eq!(run.summary, FaultRunSummary::default());
    }
}
