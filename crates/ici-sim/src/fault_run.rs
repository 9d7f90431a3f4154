//! Failure-aware experiment runner.
//!
//! [`run_ici_under_faults`] drives an ICIStrategy deployment through a
//! deterministic [`FaultPlan`]: each round it applies the scheduled
//! restarts and crashes, installs the round's message-fault profile on
//! the send path, attempts to commit one block, and lets the surviving
//! cluster members re-replicate. With [`StageChurn`] enabled, selected
//! rounds additionally crash a verifier *between* lifecycle stages of
//! the proposal itself (see [`ici_core::StageBoundary`]), restarting it
//! once the proposal resolves. Recovery is verified at the content
//! level — every repaired cluster must pass the shard-level Merkle audit
//! ([`ici_core::merkle_audit`]), not merely report replicas present.
//!
//! Same seed ⇒ same plan ⇒ same commits, same repair traffic, same
//! summary, byte for byte — which is what lets CI assert on survivability
//! numbers and diff two runs of `e_fault` directly.

use ici_chain::block::BlockHeader;
use ici_chain::builder::BlockBuilder;
use ici_chain::genesis::GenesisConfig;
use ici_chain::transaction::Transaction;
use ici_consensus::leader::elect_live_leader;
use ici_consensus::pbft::VOTE_BYTES;
use ici_consensus::verdicts::{tally_votes, VerdictOutcome, VerifierVote};
use ici_core::config::IciConfig;
use ici_core::network::IciNetwork;
use ici_core::{MerkleAuditPass, StageBoundary};
use ici_faults::plan::{
    ByzantineConfig, ChurnConfig, FaultError, FaultPlanConfig, MessageFaultSpec, PartitionPolicy,
    VerdictFault,
};
use ici_faults::scheduler::{FaultScheduler, ScheduledRound};
use ici_net::metrics::MessageKind;
use ici_net::node::NodeId;
use ici_workload::{WorkloadConfig, WorkloadGenerator};

use crate::latency::LatencyStats;
use crate::runner::{finish_series, sample_round};

/// Initial balance granted to each workload account at genesis.
const GENESIS_BALANCE: u64 = u64::MAX / 1_000_000;

/// Salt separating fault-mark trace ids from lifecycle stage ids.
const FAULT_MARK_SALT: u64 = 0xFA17_0000_0000_0001;

/// Salt seeding the stage-churn draw stream (independent of the plan's
/// streams, so enabling stage churn never perturbs the other faults).
const STAGE_CHURN_SALT: u64 = 0x57A6_EC4A_5400_0003;

/// Stage-boundary churn: on every `interval`-th round, crash one live
/// non-leader member of the proposing cluster at a seed-derived
/// lifecycle stage boundary ([`StageBoundary`]), then restart it (disk
/// intact) as soon as the proposal resolves — success or failure.
///
/// This exercises the staged lifecycle's liveness re-sync: forks
/// snapshot liveness at build time, and a crash landing *between*
/// stages must be adopted by every later stage. The draw depends only
/// on `(seed, round)`, so runs replay byte-identically at any thread
/// count. Inert by default (`interval == 0`), which keeps existing
/// crash-only profiles byte-stable.
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

/// Picks the boundary a stage crash lands on from a seed-derived mix.
fn pick_boundary(mix: u64) -> StageBoundary {
    match mix % 3 {
        0 => StageBoundary::AfterBuild,
        1 => StageBoundary::AfterDistribute,
        _ => StageBoundary::AfterVerify,
    }
}

/// Chooses this round's stage-crash victim: a live non-leader member of
/// the proposing cluster, indexed by the seed-derived mix. `None` when
/// no cluster can propose or the leader is the only live member.
fn stage_churn_victim(network: &IciNetwork, mix: u64) -> Option<(NodeId, StageBoundary)> {
    let height = network.tip().height + 1;
    let home = network.proposer_cluster(height)?;
    let members = network.live_members(home);
    let parent_id = network.tip().id();
    let up = |n: NodeId| network.net().is_up(n);
    let leader = elect_live_leader(&parent_id, height, &members, up)?;
    let candidates: Vec<NodeId> = members.into_iter().filter(|m| *m != leader).collect();
    if candidates.is_empty() {
        return None;
    }
    let victim = candidates[(mix % candidates.len() as u64) as usize];
    Some((victim, pick_boundary(mix >> 32)))
}

/// Emits one `faults/<what>` instant per churn event so a trace viewer
/// shows crashes and restarts on the timeline of the node they hit.
fn mark_churn(network: &IciNetwork, name: &'static str, nodes: &[NodeId], round: usize) {
    if !ici_trace::enabled() {
        return;
    }
    let at_us = network.now().as_micros();
    for node in nodes {
        let cluster = network.membership().cluster_of(*node);
        ici_trace::mark(
            name,
            at_us,
            0,
            Some(u64::from(cluster.get())),
            Some(node.get()),
            ici_trace::derive_id(FAULT_MARK_SALT ^ round as u64, node.get()),
            0,
        );
    }
}

/// What one equivocation round produced.
struct EquivOutcome {
    /// Both audience halves held an honest live witness, so the
    /// conflicting headers met in the vote exchange.
    detected: bool,
    /// Dissemination plus cross-check traffic the twins burned.
    wasted_bytes: u64,
}

/// Models one equivocating proposal: the elected leader builds two
/// conflicting blocks for the next height (same parent, different
/// timestamp ⇒ different id) and shows each twin to a disjoint half of
/// its live cluster. The dissemination and the all-pairs vote exchange
/// are real metered sends; detection happens exactly when both halves
/// hold a witness, because the vote exchange crosses the halves and any
/// two members comparing headers see the conflict.
fn run_equivocation_round(
    network: &mut IciNetwork,
    batch: &[Transaction],
    round: usize,
) -> EquivOutcome {
    let height = network.tip().height + 1;
    let Some(home) = network.proposer_cluster(height) else {
        // No live proposer anywhere: nothing was disseminated, nothing
        // can conflict.
        return EquivOutcome {
            detected: true,
            wasted_bytes: 0,
        };
    };
    let members = network.live_members(home);
    let parent_id = network.tip().id();
    let leader = {
        let up = |n: NodeId| network.net().is_up(n);
        match elect_live_leader(&parent_id, height, &members, up) {
            Some(l) => l,
            None => {
                return EquivOutcome {
                    detected: true,
                    wasted_bytes: 0,
                }
            }
        }
    };
    if ici_trace::enabled() {
        let at_us = network.now().as_micros();
        ici_trace::mark(
            "byz/equivocation",
            at_us,
            height,
            Some(u64::from(home.get())),
            Some(leader.get()),
            ici_trace::derive_id(FAULT_MARK_SALT ^ 0xE9, round as u64 ^ leader.get()),
            0,
        );
    }

    // One twin is enough to size both: the bodies are identical, the
    // headers differ only in timestamp.
    let parent = *network.tip();
    let timestamp_ms = (parent.timestamp_ms + 1).max(network.now().as_millis());
    let mut builder =
        BlockBuilder::new(&parent, network.state().clone(), leader.get(), timestamp_ms);
    builder.fill(batch.to_vec());
    let twin = builder.seal();
    let body_bytes = twin.body_len() as u64;
    let header_bytes = BlockHeader::ENCODED_LEN as u64;
    let replication = network.config().replication;

    let audience: Vec<NodeId> = members.iter().copied().filter(|m| *m != leader).collect();
    let half_a = &audience[..audience.len() / 2];
    let half_b = &audience[audience.len() / 2..];

    let before = network.net().meter().total().bytes;
    for half in [half_a, half_b] {
        for (i, member) in half.iter().enumerate() {
            let (kind, bytes) = if i < replication {
                (MessageKind::BlockBody, header_bytes + body_bytes)
            } else {
                (MessageKind::BlockHeader, header_bytes)
            };
            let _ = network.net_mut().send(leader, *member, kind, bytes);
        }
    }
    // The vote exchange crosses the audience halves — this is where two
    // conflicting headers for one height meet and the fraud surfaces.
    for from in &audience {
        for to in &audience {
            if from != to {
                let _ = network
                    .net_mut()
                    .send(*from, *to, MessageKind::Vote, VOTE_BYTES);
            }
        }
    }
    let wasted_bytes = network.net().meter().total().bytes - before;

    EquivOutcome {
        detected: !half_a.is_empty() && !half_b.is_empty(),
        wasted_bytes,
    }
}

/// Per-round effect of scheduled verdict faults, computed with the real
/// quorum arithmetic over each cluster's live membership.
struct VerdictRoundEffect {
    /// The proposer cluster cannot reach an accept quorum: the round
    /// stalls before the commit.
    home_stalled: bool,
    /// Remote clusters whose verdict quorum failed (the commit proceeds;
    /// those clusters' dissemination was wasted on a stalled verdict).
    missed_remote: usize,
}

/// Tallies each cluster's verdict round for an honest block under the
/// scheduled flips and withholds, updating the summary's lie accounting.
/// Honest members vote `Accept` (the workload's blocks are valid); every
/// false reject in a cluster with at least one honest member is exposed
/// by slice re-verification (see
/// `IciNetwork::collaborative_verify_with_faults`, which implements the
/// same rule at the block level).
fn apply_verdict_faults(
    network: &IciNetwork,
    round: &ScheduledRound,
    summary: &mut FaultRunSummary,
) -> VerdictRoundEffect {
    let mut effect = VerdictRoundEffect {
        home_stalled: false,
        missed_remote: 0,
    };
    if round.verdict_faults.is_empty() {
        return effect;
    }
    let height = network.tip().height + 1;
    let home = network.proposer_cluster(height);
    for cluster in network.clusters() {
        let members = network.live_members(cluster);
        if members.is_empty() {
            continue;
        }
        let flips = round
            .verdict_faults
            .iter()
            .filter(|(n, k)| *k == VerdictFault::Flip && members.contains(n))
            .count();
        let withholds = round
            .verdict_faults
            .iter()
            .filter(|(n, k)| *k == VerdictFault::Withhold && members.contains(n))
            .count();
        if flips == 0 && withholds == 0 {
            continue;
        }
        let honest = members.len() - flips - withholds;
        summary.verdict_flips += flips;
        summary.verdict_withholds += withholds;
        if honest > 0 {
            // Disputed rejects are re-verified and their authors named.
            summary.liars_detected += flips;
        }
        let votes = std::iter::repeat(VerifierVote::Accept)
            .take(honest)
            .chain(std::iter::repeat(VerifierVote::Reject).take(flips))
            .chain(std::iter::repeat(VerifierVote::Withhold).take(withholds));
        let outcome = tally_votes(votes, members.len()).outcome();
        if outcome != VerdictOutcome::Accepted {
            if Some(cluster) == home {
                effect.home_stalled = true;
            } else {
                effect.missed_remote += 1;
            }
        }
    }
    effect
}

/// Meters the traffic a stalled home-cluster verdict round wasted: the
/// leader's body/header distribution plus one all-pairs vote round that
/// failed to reach quorum.
fn charge_stalled_distribution(network: &mut IciNetwork, batch: &[Transaction]) -> u64 {
    let height = network.tip().height + 1;
    let Some(home) = network.proposer_cluster(height) else {
        return 0;
    };
    let members = network.live_members(home);
    let parent_id = network.tip().id();
    let leader = {
        let up = |n: NodeId| network.net().is_up(n);
        match elect_live_leader(&parent_id, height, &members, up) {
            Some(l) => l,
            None => return 0,
        }
    };
    let parent = *network.tip();
    let timestamp_ms = (parent.timestamp_ms + 1).max(network.now().as_millis());
    let mut builder =
        BlockBuilder::new(&parent, network.state().clone(), leader.get(), timestamp_ms);
    builder.fill(batch.to_vec());
    let block = builder.seal();
    let body_bytes = block.body_len() as u64;
    let header_bytes = BlockHeader::ENCODED_LEN as u64;
    let replication = network.config().replication;

    let before = network.net().meter().total().bytes;
    let mut owners = 0usize;
    for member in members.iter().filter(|m| **m != leader) {
        let (kind, bytes) = if owners < replication {
            owners += 1;
            (MessageKind::BlockBody, header_bytes + body_bytes)
        } else {
            (MessageKind::BlockHeader, header_bytes)
        };
        let _ = network.net_mut().send(leader, *member, kind, bytes);
    }
    for from in &members {
        for to in &members {
            if from != to {
                let _ = network
                    .net_mut()
                    .send(*from, *to, MessageKind::Vote, VOTE_BYTES);
            }
        }
    }
    network.net().meter().total().bytes - before
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

/// One fault run, reduced to the survivability quantities `e_fault`
/// tables report.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRunSummary {
    /// Nodes simulated.
    pub nodes: usize,
    /// Clusters formed.
    pub clusters: usize,
    /// Rounds executed (== the plan's length).
    pub rounds: usize,
    /// Blocks committed despite the faults (excluding genesis).
    pub committed_blocks: u64,
    /// Rounds whose proposal failed (no quorum / partitioned leader); the
    /// batch is retried next round, so these measure liveness loss only.
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
    /// Verdicts flipped by live Byzantine verifiers across all clusters.
    pub verdict_flips: usize,
    /// Verdicts withheld by live Byzantine verifiers across all clusters.
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
    /// FNV-1a fingerprint of the plan's canonical rendering.
    pub plan_fingerprint: u64,
    /// The plan's canonical rendering (for replay diffing).
    pub plan_render: String,
}

impl FaultRunSummary {
    /// Fraction of repair attempts that fully recovered, in `[0, 1]`
    /// (1.0 when nothing needed repair).
    pub fn recovery_success_rate(&self) -> f64 {
        if self.recovery_attempts == 0 {
            1.0
        } else {
            self.recovery_successes as f64 / self.recovery_attempts as f64
        }
    }

    /// Fraction of equivocation attempts exposed, in `[0, 1]` (1.0 when
    /// none were attempted).
    pub fn equivocation_detection_rate(&self) -> f64 {
        if self.equivocation_attempts == 0 {
            1.0
        } else {
            self.equivocations_detected as f64 / self.equivocation_attempts as f64
        }
    }

    /// Fraction of flipped verdicts whose author was exposed, in `[0, 1]`
    /// (1.0 when nobody flipped).
    pub fn liar_detection_rate(&self) -> f64 {
        if self.verdict_flips == 0 {
            1.0
        } else {
            self.liars_detected as f64 / self.verdict_flips as f64
        }
    }
}

/// Runs ICIStrategy under the given fault profile.
///
/// The network is built from `config` (its genesis is replaced by one
/// derived from the workload), the fault plan is built over the actual
/// cluster map, and each round proposes one `txs_per_block` block. A
/// failed proposal (partitioned leader, no quorum) retries the same
/// batch next round, so account nonces stay sequential.
///
/// # Errors
///
/// [`FaultError`] if the profile cannot produce a valid plan for the
/// network's cluster map (e.g. the live floor exceeds a cluster).
///
/// # Panics
///
/// Panics if `config` itself is invalid — misconfiguration, not a fault.
pub fn run_ici_under_faults(
    mut config: IciConfig,
    txs_per_block: usize,
    workload: WorkloadConfig,
    profile: FaultProfile,
) -> Result<(IciNetwork, FaultRunSummary), FaultError> {
    let _span = ici_telemetry::span!("sim/run_ici_faults");
    config.genesis = GenesisConfig::uniform(workload.accounts, GENESIS_BALANCE);
    let mut network = IciNetwork::new(config).expect("valid configuration");

    // The plan is built over the clusters the network actually formed.
    let cluster_map: Vec<Vec<NodeId>> = network
        .clusters()
        .into_iter()
        .map(|c| network.membership().active_members(c))
        .collect();
    let plan = FaultPlanConfig::new(profile.seed, profile.rounds, cluster_map)
        .churn(profile.churn)
        .partitions(profile.partitions)
        .messages(profile.messages)
        .byzantine(profile.byzantine)
        .build()?;
    let plan_render = plan.render();
    let plan_fingerprint = plan.fingerprint();
    let cycles_per_cluster = plan.cycles_per_cluster();
    let mut scheduler = FaultScheduler::new(plan);

    let mut generator = WorkloadGenerator::new(workload);
    let mut pending: Option<Vec<ici_chain::Transaction>> = None;
    let sampling = ici_telemetry::enabled();
    let mut samples = Vec::new();
    let mut tracker = ici_trace::series::TrafficTracker::new();
    let mut generated_txs = 0u64;
    let mut committed_txs = 0u64;
    let mut summary = FaultRunSummary {
        nodes: network.config().nodes,
        clusters: network.clusters().len(),
        rounds: profile.rounds,
        committed_blocks: 0,
        skipped_rounds: 0,
        crash_events: 0,
        restart_events: 0,
        stage_crash_events: 0,
        stage_crash_commits: 0,
        cycles_per_cluster,
        recovery_attempts: 0,
        recovery_successes: 0,
        repair_transfers: 0,
        repair_bytes: 0,
        cross_cluster_fetches: 0,
        unrecoverable_heights: Vec::new(),
        min_live_nodes: network.config().nodes,
        min_availability: 1.0,
        final_audit_clean: false,
        merkle_shards_verified: 0,
        commit_latency: LatencyStats::from_durations(std::iter::empty()),
        equivocation_attempts: 0,
        equivocations_detected: 0,
        safety_breaches: 0,
        verdict_flips: 0,
        verdict_withholds: 0,
        liars_detected: 0,
        byz_skipped_rounds: 0,
        byz_missed_cluster_verdicts: 0,
        wasted_bytes: 0,
        plan_fingerprint,
        plan_render,
    };

    while let Some(round) = scheduler.step() {
        // 1. Apply the scheduled churn (restarts come back disk-intact).
        mark_churn(&network, "faults/restart", &round.restarts, round.round);
        for node in &round.restarts {
            let _ = network.recover_node(*node);
        }
        mark_churn(&network, "faults/crash", &round.crashes, round.round);
        for node in &round.crashes {
            let _ = network.crash_node(*node);
        }
        summary.restart_events += round.restarts.len();
        summary.crash_events += round.crashes.len();
        summary.min_live_nodes = summary.min_live_nodes.min(round.live_nodes);

        // 2. Install this round's message faults on the send path.
        network.net_mut().set_faults(round.message_faults.clone());

        // 3. One block proposal; a failed commit retries the same batch.
        //    Byzantine action degrades this step: an equivocating
        //    proposer burns the round (and real dissemination bandwidth)
        //    outright, and lying/withholding verifiers can stall the home
        //    cluster's verdict quorum before the commit is attempted.
        let batch = pending.take().unwrap_or_else(|| {
            let fresh = generator.batch(txs_per_block);
            generated_txs += fresh.len() as u64;
            fresh
        });
        let mut stage_victims: Vec<NodeId> = Vec::new();
        if round.equivocation {
            let outcome = run_equivocation_round(&mut network, &batch, round.round);
            summary.equivocation_attempts += 1;
            summary.wasted_bytes += outcome.wasted_bytes;
            if outcome.detected {
                summary.equivocations_detected += 1;
            } else {
                summary.safety_breaches += 1;
            }
            // Neither twin ever commits: a detected equivocation is
            // discarded, an undetected one is counted as a breach above.
            summary.skipped_rounds += 1;
            summary.byz_skipped_rounds += 1;
            pending = Some(batch);
        } else {
            let verdicts = apply_verdict_faults(&network, &round, &mut summary);
            if verdicts.home_stalled {
                // The leader had already distributed the block before the
                // cluster's verdict round stalled — that traffic is the
                // liars' bandwidth cost.
                summary.wasted_bytes += charge_stalled_distribution(&mut network, &batch);
                summary.skipped_rounds += 1;
                summary.byz_skipped_rounds += 1;
                pending = Some(batch);
            } else {
                summary.byz_missed_cluster_verdicts += verdicts.missed_remote;
                // A stage-churn round crashes its victim mid-proposal at
                // the drawn boundary and restarts it right after the
                // proposal resolves — success or failure — so the crash
                // is visible to exactly the stages past the boundary.
                let stage_hit = if profile.stage_churn.fires(round.round) {
                    let mix =
                        ici_trace::derive_id(profile.seed ^ STAGE_CHURN_SALT, round.round as u64);
                    stage_churn_victim(&network, mix)
                } else {
                    None
                };
                let proposed = match stage_hit {
                    Some((victim, boundary)) => {
                        summary.stage_crash_events += 1;
                        stage_victims.push(victim);
                        mark_churn(&network, "faults/stage_crash", &[victim], round.round);
                        let outcome = network
                            .propose_block_staged(batch.clone(), |stage, sim| {
                                if stage == boundary {
                                    sim.crash(victim);
                                }
                            })
                            .map(|record| record.height);
                        let _ = network.recover_node(victim);
                        mark_churn(&network, "faults/stage_restart", &[victim], round.round);
                        if outcome.is_ok() {
                            summary.stage_crash_commits += 1;
                        }
                        outcome
                    }
                    None => network
                        .propose_block(batch.clone())
                        .map(|record| record.height),
                };
                match proposed {
                    Ok(_) => {
                        summary.committed_blocks += 1;
                        committed_txs += batch.len() as u64;
                    }
                    Err(_) => {
                        summary.skipped_rounds += 1;
                        pending = Some(batch);
                    }
                }
            }
        }

        // 4. Survivors re-replicate every cluster touched by churn, and
        //    the shard-level Merkle audit certifies each repair. The
        //    round's certificates share one audit pass: a height is
        //    re-derived once per round, not once per repaired cluster.
        let mut affected: Vec<_> = round
            .crashes
            .iter()
            .chain(&round.restarts)
            .chain(&stage_victims)
            .map(|n| network.membership().cluster_of(*n))
            .collect();
        affected.sort_unstable_by_key(|c| c.get());
        affected.dedup();
        let mut audit_pass = MerkleAuditPass::new();
        for cluster in affected {
            summary.recovery_attempts += 1;
            let report = network.repair_cluster(cluster);
            summary.repair_transfers += report.transfers;
            summary.repair_bytes += report.bytes;
            summary.cross_cluster_fetches += report.cross_cluster_fetches.len();
            let audit = network.merkle_audit_in(&mut audit_pass, cluster);
            if report.unrecoverable.is_empty() && audit.is_clean() {
                summary.recovery_successes += 1;
            } else {
                summary
                    .unrecoverable_heights
                    .extend(report.unrecoverable.iter().copied());
            }
        }

        // 5. Track the worst availability the network sank to.
        for audit in network.audit_all() {
            summary.min_availability = summary.min_availability.min(audit.availability());
        }

        // 6. Per-round survivability sample, taken after repairs so the
        //    stored-bytes snapshot reflects the round's healed state.
        if sampling {
            sample_round(
                &mut samples,
                &mut tracker,
                round.round as u64,
                network.commit_log().last().map_or(0, |r| r.height),
                network.now().as_micros(),
                committed_txs,
                generated_txs,
                round.live_nodes as u64,
                network.storage_bytes(),
                network.net().meter(),
            );
        }
    }
    finish_series("ICIStrategy+faults", summary.nodes, samples);

    // Faults end with the plan; a final repair pass heals anything the
    // last round left degraded, then the audit rules on the whole run.
    network.net_mut().clear_faults();
    for report in network.repair_all() {
        summary.repair_transfers += report.transfers;
        summary.repair_bytes += report.bytes;
        summary.cross_cluster_fetches += report.cross_cluster_fetches.len();
        summary
            .unrecoverable_heights
            .extend(report.unrecoverable.iter().copied());
    }
    summary.unrecoverable_heights.sort_unstable();
    summary.unrecoverable_heights.dedup();

    let final_audits = network.merkle_audit_all();
    summary.final_audit_clean = final_audits.iter().all(|a| a.is_clean());
    summary.merkle_shards_verified = final_audits.iter().map(|a| a.shards_verified).sum();
    summary.commit_latency =
        LatencyStats::from_durations(network.commit_log().iter().map(|r| r.commit_latency()));

    ici_telemetry::counter_add(
        "sim/fault_repair_bytes",
        ici_telemetry::Label::Global,
        summary.repair_bytes,
    );
    ici_telemetry::counter_add(
        "faults/equivocations",
        ici_telemetry::Label::Global,
        summary.equivocation_attempts as u64,
    );
    ici_telemetry::counter_add(
        "faults/equivocations_detected",
        ici_telemetry::Label::Global,
        summary.equivocations_detected as u64,
    );
    ici_telemetry::counter_add(
        "faults/verdict_flips",
        ici_telemetry::Label::Global,
        summary.verdict_flips as u64,
    );
    ici_telemetry::counter_add(
        "faults/liars_detected",
        ici_telemetry::Label::Global,
        summary.liars_detected as u64,
    );
    ici_telemetry::counter_add(
        "sim/byz_wasted_bytes",
        ici_telemetry::Label::Global,
        summary.wasted_bytes,
    );
    network.net().meter().publish_telemetry();
    Ok((network, summary))
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
    fn fault_summary_is_thread_count_invariant_under_jitter() {
        let jittery = IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .seed(7)
            .build()
            .expect("valid");
        ici_par::set_threads(1);
        let (_, serial) =
            run_ici_under_faults(jittery.clone(), 4, workload(), profile(11)).expect("plan");
        ici_par::set_threads(4);
        let (_, parallel) =
            run_ici_under_faults(jittery, 4, workload(), profile(11)).expect("plan");
        assert_eq!(serial, parallel, "fault run must not depend on threads");
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
    fn byzantine_summary_is_thread_count_invariant() {
        let jittery = IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .seed(7)
            .build()
            .expect("valid");
        ici_par::set_threads(1);
        let (_, serial) =
            run_ici_under_faults(jittery.clone(), 4, workload(), byz_profile(29)).expect("plan");
        ici_par::set_threads(4);
        let (_, parallel) =
            run_ici_under_faults(jittery, 4, workload(), byz_profile(29)).expect("plan");
        assert_eq!(serial, parallel, "byz run must not depend on threads");
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
    fn stage_churn_is_deterministic_and_thread_invariant() {
        let jittery = IciConfig::builder()
            .nodes(24)
            .cluster_size(8)
            .replication(2)
            .seed(7)
            .build()
            .expect("valid");
        ici_par::set_threads(1);
        let (_, serial) =
            run_ici_under_faults(jittery.clone(), 4, workload(), stage_profile(11)).expect("plan");
        ici_par::set_threads(4);
        let (_, parallel) =
            run_ici_under_faults(jittery, 4, workload(), stage_profile(11)).expect("plan");
        assert_eq!(serial, parallel, "stage churn must not depend on threads");
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
}
