//! Seed-deterministic fault schedules.
//!
//! A [`FaultPlan`] is built once, up front, from a [`FaultPlanConfig`]:
//! the full sequence of crashes, restarts, and partition windows for every
//! round is decided at construction time by walking an [`ici_rng`] stream
//! in a canonical order. Nothing during execution draws randomness, so a
//! plan can be rendered, fingerprinted, diffed, and replayed exactly.
//!
//! The generator never schedules a crash that would leave a cluster with
//! fewer than [`ChurnConfig::min_live_per_cluster`] live members — the
//! analogue of keeping at least the decode threshold of shards alive in
//! coded-storage churn experiments (Dynamic Distributed Storage,
//! LightChain).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

use ici_net::faults::{FaultConfig, PartitionSpec};
use ici_net::node::NodeId;
use ici_rng::{SplitMix64, Xoshiro256};

/// Message-fault profile installed on the send path each round; the
/// send path's own type, re-exported where plans are configured.
pub use ici_net::faults::MessageFaultSpec;

/// Node-churn parameters, all probabilities per round in `[0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnConfig {
    /// Probability each live node crashes this round (fail-stop).
    pub crash_prob: f64,
    /// Probability each crashed node restarts this round.
    pub restart_prob: f64,
    /// Probability a cluster-correlated churn event hits this round (one
    /// cluster loses a whole fraction of its members at once — a rack or
    /// region going dark).
    pub cluster_churn_prob: f64,
    /// Fraction of the chosen cluster's live members a correlated event
    /// takes down.
    pub cluster_churn_fraction: f64,
    /// Hard floor: no crash is ever scheduled that would leave a cluster
    /// with fewer live members than this.
    pub min_live_per_cluster: usize,
    /// Guarantee at least one crash-and-recover cycle per cluster by
    /// seeding one deterministic victim per cluster into the schedule.
    pub ensure_cycle_per_cluster: bool,
}

impl Default for ChurnConfig {
    /// Gentle churn: 2 % crash, 30 % restart, rare correlated events,
    /// floor of 2 live members, guaranteed per-cluster cycles.
    fn default() -> ChurnConfig {
        ChurnConfig {
            crash_prob: 0.02,
            restart_prob: 0.3,
            cluster_churn_prob: 0.05,
            cluster_churn_fraction: 0.25,
            min_live_per_cluster: 2,
            ensure_cycle_per_cluster: true,
        }
    }
}

/// Partition-window parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionPolicy {
    /// Probability a partition opens on a round with none active.
    pub prob: f64,
    /// Maximum window length in rounds (uniform in `1..=max`).
    pub max_duration_rounds: usize,
}

impl Default for PartitionPolicy {
    /// No partitions.
    fn default() -> PartitionPolicy {
        PartitionPolicy {
            prob: 0.0,
            max_duration_rounds: 2,
        }
    }
}

/// Byzantine-actor parameters: equivocating proposers and false-verdict
/// verifiers (ContribChain's malicious-verdict actors, LightChain's
/// equivocation-as-common-case adversary).
///
/// All knobs default to zero, which keeps the Byzantine stream inert:
/// a plan built with the default config is byte-identical (schedule,
/// render, fingerprint) to one built before Byzantine faults existed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ByzantineConfig {
    /// Probability the round's proposer equivocates: it builds two
    /// conflicting blocks for the same height and shows each to a
    /// disjoint audience.
    pub equivocation_prob: f64,
    /// Fraction of each cluster designated as Byzantine verifiers
    /// (`floor(fraction * members)` per cluster, chosen at build time).
    pub false_verdict_fraction: f64,
    /// Per-round probability a designated verifier flips its verdict
    /// (reports the opposite of what it verified).
    pub flip_prob: f64,
    /// Per-round probability a designated verifier withholds its verdict
    /// entirely. `flip_prob + withhold_prob` must not exceed 1.
    pub withhold_prob: f64,
}

impl Default for ByzantineConfig {
    /// No Byzantine actors.
    fn default() -> ByzantineConfig {
        ByzantineConfig {
            equivocation_prob: 0.0,
            false_verdict_fraction: 0.0,
            flip_prob: 0.0,
            withhold_prob: 0.0,
        }
    }
}

impl ByzantineConfig {
    /// Whether the config can never schedule a Byzantine action.
    pub fn is_inert(&self) -> bool {
        self.equivocation_prob == 0.0
            && (self.false_verdict_fraction == 0.0
                || (self.flip_prob == 0.0 && self.withhold_prob == 0.0))
    }
}

/// How a Byzantine verifier misbehaves in one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum VerdictFault {
    /// Report the opposite of the locally-verified verdict.
    Flip,
    /// Report nothing at all.
    Withhold,
}

/// Why a plan could not be built.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultError {
    /// The cluster map is empty or contains an empty cluster.
    EmptyClusters,
    /// `rounds` is zero.
    ZeroRounds,
    /// A probability or fraction is outside `[0, 1]` (or not finite).
    BadProbability {
        /// Which knob was out of range.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `min_live_per_cluster` exceeds the smallest cluster, so no crash
    /// could ever be scheduled — almost certainly a misconfiguration.
    MinLiveTooHigh {
        /// The configured floor.
        min_live: usize,
        /// The smallest cluster's size.
        smallest_cluster: usize,
    },
    /// Too few rounds to fit the guaranteed per-cluster crash-and-recover
    /// cycles.
    TooFewRounds {
        /// Rounds requested.
        rounds: usize,
        /// Minimum required for the guaranteed cycles.
        needed: usize,
    },
    /// An explicit round names a node the cluster map does not hold.
    UnknownNode {
        /// The round that names it.
        round: usize,
        /// The node outside the map.
        node: NodeId,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::EmptyClusters => write!(f, "cluster map is empty or has an empty cluster"),
            FaultError::ZeroRounds => write!(f, "a fault plan needs at least one round"),
            FaultError::BadProbability { what, value } => {
                write!(f, "{what} = {value} is not a probability in [0, 1]")
            }
            FaultError::MinLiveTooHigh {
                min_live,
                smallest_cluster,
            } => write!(
                f,
                "min_live_per_cluster {min_live} exceeds the smallest cluster ({smallest_cluster} members)"
            ),
            FaultError::TooFewRounds { rounds, needed } => write!(
                f,
                "{rounds} rounds cannot fit the guaranteed per-cluster cycles (need >= {needed})"
            ),
            FaultError::UnknownNode { round, node } => {
                write!(f, "round {round} names node {node}, which no cluster holds")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// The faults scheduled for one round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundFaults {
    /// Nodes that crash at the start of this round.
    pub crashes: Vec<NodeId>,
    /// Nodes that restart at the start of this round (disk intact).
    pub restarts: Vec<NodeId>,
    /// A partition opens this round, severing the listed minority from
    /// the rest of the network.
    pub partition_starts: Option<Vec<NodeId>>,
    /// The active partition (if any) heals at the start of this round.
    pub partition_ends: bool,
    /// The round's proposer equivocates (two conflicting blocks for the
    /// same height, shown to disjoint audiences).
    pub equivocation: bool,
    /// Designated Byzantine verifiers misbehaving this round, in
    /// ascending node order.
    pub verdict_faults: Vec<(NodeId, VerdictFault)>,
}

impl RoundFaults {
    /// Whether the round schedules nothing.
    pub fn is_quiet(&self) -> bool {
        self.crashes.is_empty()
            && self.restarts.is_empty()
            && self.partition_starts.is_none()
            && !self.partition_ends
            && !self.equivocation
            && self.verdict_faults.is_empty()
    }

    /// Every node the round names, in field order.
    fn named_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let minority = self.partition_starts.iter().flatten();
        let verifiers = self.verdict_faults.iter().map(|(n, _)| n);
        self.crashes
            .iter()
            .chain(&self.restarts)
            .chain(minority)
            .chain(verifiers)
            .copied()
    }
}

/// Builder for a [`FaultPlan`].
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlanConfig {
    /// Master seed; the entire schedule is a pure function of it (plus
    /// the other fields).
    pub seed: u64,
    /// Rounds the plan covers (one round ≈ one proposed block).
    pub rounds: usize,
    /// Cluster map: `clusters[i]` lists cluster `i`'s members.
    pub clusters: Vec<Vec<NodeId>>,
    /// Node-churn parameters.
    pub churn: ChurnConfig,
    /// Partition-window parameters.
    pub partitions: PartitionPolicy,
    /// Message-fault profile (constant across rounds; the per-round seed
    /// varies the concrete loss pattern).
    pub messages: MessageFaultSpec,
    /// Byzantine-actor parameters (inert by default; drawn from a
    /// dedicated rng stream so enabling them never perturbs the
    /// crash/partition schedule).
    pub byzantine: ByzantineConfig,
}

impl FaultPlanConfig {
    /// Starts a config with default churn, no partitions, and no message
    /// faults.
    pub fn new(seed: u64, rounds: usize, clusters: Vec<Vec<NodeId>>) -> FaultPlanConfig {
        FaultPlanConfig {
            seed,
            rounds,
            clusters,
            churn: ChurnConfig::default(),
            partitions: PartitionPolicy::default(),
            messages: MessageFaultSpec::default(),
            byzantine: ByzantineConfig::default(),
        }
    }

    /// Sets the churn parameters.
    pub fn churn(mut self, churn: ChurnConfig) -> FaultPlanConfig {
        self.churn = churn;
        self
    }

    /// Sets the partition policy.
    pub fn partitions(mut self, partitions: PartitionPolicy) -> FaultPlanConfig {
        self.partitions = partitions;
        self
    }

    /// Sets the message-fault profile.
    pub fn messages(mut self, messages: MessageFaultSpec) -> FaultPlanConfig {
        self.messages = messages;
        self
    }

    /// Sets the Byzantine-actor parameters.
    pub fn byzantine(mut self, byzantine: ByzantineConfig) -> FaultPlanConfig {
        self.byzantine = byzantine;
        self
    }

    fn validate(&self) -> Result<(), FaultError> {
        if self.rounds == 0 {
            return Err(FaultError::ZeroRounds);
        }
        if self.clusters.is_empty() || self.clusters.iter().any(Vec::is_empty) {
            return Err(FaultError::EmptyClusters);
        }
        let probabilities = [
            ("crash_prob", self.churn.crash_prob),
            ("restart_prob", self.churn.restart_prob),
            ("cluster_churn_prob", self.churn.cluster_churn_prob),
            ("cluster_churn_fraction", self.churn.cluster_churn_fraction),
            ("partition_prob", self.partitions.prob),
            ("drop_prob", self.messages.drop_prob),
            ("dup_prob", self.messages.dup_prob),
            ("delay_prob", self.messages.delay_prob),
            ("equivocation_prob", self.byzantine.equivocation_prob),
            (
                "false_verdict_fraction",
                self.byzantine.false_verdict_fraction,
            ),
            ("flip_prob", self.byzantine.flip_prob),
            ("withhold_prob", self.byzantine.withhold_prob),
        ];
        for (what, value) in probabilities {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(FaultError::BadProbability { what, value });
            }
        }
        let verdict_budget = self.byzantine.flip_prob + self.byzantine.withhold_prob;
        if verdict_budget > 1.0 {
            return Err(FaultError::BadProbability {
                what: "flip_prob + withhold_prob",
                value: verdict_budget,
            });
        }
        let smallest = self.clusters.iter().map(Vec::len).min().unwrap_or(0);
        if self.churn.min_live_per_cluster >= smallest
            && (self.churn.crash_prob > 0.0
                || self.churn.cluster_churn_prob > 0.0
                || self.churn.ensure_cycle_per_cluster)
        {
            return Err(FaultError::MinLiveTooHigh {
                min_live: self.churn.min_live_per_cluster,
                smallest_cluster: smallest,
            });
        }
        if self.churn.ensure_cycle_per_cluster && self.rounds < 4 {
            return Err(FaultError::TooFewRounds {
                rounds: self.rounds,
                needed: 4,
            });
        }
        Ok(())
    }

    /// Builds the full schedule.
    ///
    /// # Errors
    ///
    /// See [`FaultError`]; nothing here panics.
    pub fn build(self) -> Result<FaultPlan, FaultError> {
        self.validate()?;
        let _span = ici_telemetry::span!("faults/build_plan");
        let mut rng = Xoshiro256::seed_from_u64(self.seed ^ 0x6661_756C_7470_6C61); // "faultpla"

        // Byzantine draws come from a dedicated stream, touched only when
        // the config is active. The crash/partition schedule therefore
        // never moves when Byzantine faults are switched on, and plans
        // built before this knob existed replay byte-identically.
        let byz_active = !self.byzantine.is_inert();
        let mut byz_rng = Xoshiro256::seed_from_u64(self.seed ^ 0x6279_7A61_6374_6F72); // "byzactor"
        let mut byzantine_verifiers: Vec<NodeId> = Vec::new();
        if byz_active && self.byzantine.false_verdict_fraction > 0.0 {
            for members in &self.clusters {
                let picks = (members.len() as f64 * self.byzantine.false_verdict_fraction) as usize;
                let mut pool = members.clone();
                byz_rng.shuffle(&mut pool);
                byzantine_verifiers.extend(pool.into_iter().take(picks));
            }
            byzantine_verifiers.sort_unstable();
        }
        let cluster_of: BTreeMap<NodeId, usize> = self
            .clusters
            .iter()
            .enumerate()
            .flat_map(|(c, members)| members.iter().map(move |m| (*m, c)))
            .collect();
        let all_nodes: BTreeSet<NodeId> = cluster_of.keys().copied().collect();

        // Guaranteed per-cluster cycles: one victim per cluster, crash
        // rounds spread over the schedule's first half, restart two rounds
        // later. Chosen before the main walk so the per-round stream stays
        // independent of the cluster count.
        let mut forced_crashes: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        let mut forced_restarts: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        if self.churn.ensure_cycle_per_cluster {
            let span = (self.rounds - 3).max(1);
            for (c, members) in self.clusters.iter().enumerate() {
                let victim = match rng.choose(members) {
                    Some(v) => *v,
                    None => continue, // unreachable: clusters validated non-empty
                };
                let crash_round = 1 + (c * span) / self.clusters.len().max(1);
                let restart_round = (crash_round + 2).min(self.rounds - 1);
                forced_crashes.entry(crash_round).or_default().push(victim);
                forced_restarts
                    .entry(restart_round)
                    .or_default()
                    .push(victim);
            }
        }

        let mut down: BTreeSet<NodeId> = BTreeSet::new();
        let mut live_per_cluster: Vec<usize> = self.clusters.iter().map(Vec::len).collect();
        let mut partition_left = 0usize;
        let mut rounds: Vec<RoundFaults> = Vec::with_capacity(self.rounds);

        for round in 0..self.rounds {
            let mut faults = RoundFaults::default();

            // 1. Restarts first, so a node never crashes and restarts in
            //    the same round. Forced restarts, then random ones in
            //    ascending node order.
            let mut restarts: Vec<NodeId> = forced_restarts.remove(&round).unwrap_or_default();
            for node in down.iter().copied() {
                if restarts.contains(&node) {
                    continue;
                }
                if self.churn.restart_prob > 0.0 && rng.gen_bool(self.churn.restart_prob) {
                    restarts.push(node);
                }
            }
            restarts.sort_unstable();
            restarts.dedup();
            for node in &restarts {
                if down.remove(node) {
                    if let Some(c) = cluster_of.get(node) {
                        if let Some(count) = live_per_cluster.get_mut(*c) {
                            *count += 1;
                        }
                    }
                    faults.restarts.push(*node);
                }
            }

            // 2. Crashes: forced cycle victims, then independent churn in
            //    ascending node order, then a correlated cluster event.
            //    Every crash respects the per-cluster live floor.
            let restarted_now = faults.restarts.clone();
            let crash = |node: NodeId,
                         down: &mut BTreeSet<NodeId>,
                         live_per_cluster: &mut [usize],
                         out: &mut Vec<NodeId>| {
                // A node never crashes in the round it just restarted —
                // give it one round to resync before it can churn again.
                if down.contains(&node) || restarted_now.contains(&node) {
                    return;
                }
                let Some(&c) = cluster_of.get(&node) else {
                    return;
                };
                let Some(count) = live_per_cluster.get_mut(c) else {
                    return;
                };
                if *count <= self.churn.min_live_per_cluster {
                    return;
                }
                *count -= 1;
                down.insert(node);
                out.push(node);
            };
            for node in forced_crashes.remove(&round).unwrap_or_default() {
                crash(node, &mut down, &mut live_per_cluster, &mut faults.crashes);
            }
            if self.churn.crash_prob > 0.0 {
                for node in all_nodes.iter().copied() {
                    if !down.contains(&node) && rng.gen_bool(self.churn.crash_prob) {
                        crash(node, &mut down, &mut live_per_cluster, &mut faults.crashes);
                    }
                }
            }
            if self.churn.cluster_churn_prob > 0.0 && rng.gen_bool(self.churn.cluster_churn_prob) {
                let c = rng.gen_range(0..self.clusters.len());
                if let Some(members) = self.clusters.get(c) {
                    let live: Vec<NodeId> = members
                        .iter()
                        .copied()
                        .filter(|m| !down.contains(m))
                        .collect();
                    let hit = ((live.len() as f64 * self.churn.cluster_churn_fraction).ceil()
                        as usize)
                        .min(live.len());
                    let mut pool = live;
                    rng.shuffle(&mut pool);
                    for node in pool.into_iter().take(hit) {
                        crash(node, &mut down, &mut live_per_cluster, &mut faults.crashes);
                    }
                }
            }
            faults.crashes.sort_unstable();

            // 3. Partition window bookkeeping.
            if partition_left > 0 {
                partition_left -= 1;
                if partition_left == 0 {
                    faults.partition_ends = true;
                }
            } else if self.partitions.prob > 0.0 && rng.gen_bool(self.partitions.prob) {
                let c = rng.gen_range(0..self.clusters.len());
                if let Some(members) = self.clusters.get(c) {
                    let mut minority = members.clone();
                    minority.sort_unstable();
                    faults.partition_starts = Some(minority);
                    partition_left = rng.gen_range(1..=self.partitions.max_duration_rounds.max(1));
                }
            }

            // 4. Byzantine actions, from the dedicated stream. The draw
            //    order is canonical: one equivocation draw, then one draw
            //    per designated verifier in ascending node order.
            if byz_active {
                if self.byzantine.equivocation_prob > 0.0
                    && byz_rng.gen_bool(self.byzantine.equivocation_prob)
                {
                    faults.equivocation = true;
                }
                for node in byzantine_verifiers.iter().copied() {
                    let draw = byz_rng.gen_f64();
                    if draw < self.byzantine.flip_prob {
                        faults.verdict_faults.push((node, VerdictFault::Flip));
                    } else if draw < self.byzantine.flip_prob + self.byzantine.withhold_prob {
                        faults.verdict_faults.push((node, VerdictFault::Withhold));
                    }
                }
            }

            rounds.push(faults);
        }

        Ok(FaultPlan {
            seed: self.seed,
            clusters: self.clusters,
            messages: self.messages,
            byzantine: self.byzantine,
            byzantine_verifiers,
            rounds,
        })
    }
}

/// A fully materialised, replayable fault schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    clusters: Vec<Vec<NodeId>>,
    messages: MessageFaultSpec,
    byzantine: ByzantineConfig,
    byzantine_verifiers: Vec<NodeId>,
    rounds: Vec<RoundFaults>,
}

impl FaultPlan {
    /// An explicit plan: `rounds` as given over `clusters`, nothing
    /// drawn. It has seed 0, no message faults and no designated
    /// Byzantine verifiers, so it equals the seeded plan of seed 0 with
    /// the same cluster map and rounds, render and fingerprint included.
    /// An empty `rounds` is a plan that runs no round.
    ///
    /// # Errors
    ///
    /// [`FaultError::UnknownNode`] for the first round that names a node
    /// outside `clusters`.
    pub fn from_rounds(
        clusters: Vec<Vec<NodeId>>,
        rounds: Vec<RoundFaults>,
    ) -> Result<FaultPlan, FaultError> {
        let known = |node: &NodeId| clusters.iter().any(|c| c.contains(node));
        for (round, faults) in rounds.iter().enumerate() {
            if let Some(node) = faults.named_nodes().find(|n| !known(n)) {
                return Err(FaultError::UnknownNode { round, node });
            }
        }
        Ok(FaultPlan {
            seed: 0,
            clusters,
            messages: MessageFaultSpec::default(),
            byzantine: ByzantineConfig::default(),
            byzantine_verifiers: Vec::new(),
            rounds,
        })
    }

    /// Whether the plan schedules nothing: every round is quiet, no
    /// message is ever faulted and no Byzantine action can be drawn.
    pub fn is_quiet(&self) -> bool {
        self.rounds.iter().all(RoundFaults::is_quiet)
            && self.messages.is_inert()
            && self.byzantine.is_inert()
    }

    /// The seed the schedule was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The cluster map the plan was built against.
    pub fn clusters(&self) -> &[Vec<NodeId>] {
        &self.clusters
    }

    /// Total nodes covered by the cluster map.
    pub fn nodes(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }

    /// The per-round schedule.
    pub fn rounds(&self) -> &[RoundFaults] {
        &self.rounds
    }

    /// The send-path fault config of every round, in round order: the
    /// plan's message profile under the round's own sub-seed (so a
    /// message retried next round meets a fresh fate), and the partition
    /// open that round — a heal closes the window, then a start opens
    /// one, split over [`FaultPlan::nodes`]. A config may be inert;
    /// [`ici_net::Network::set_faults`] treats that as no faults.
    pub fn send_faults(&self) -> impl Iterator<Item = FaultConfig> + '_ {
        let nodes = self.nodes();
        let mut open: Option<&[NodeId]> = None;
        self.rounds.iter().enumerate().map(move |(round, faults)| {
            if faults.partition_ends {
                open = None;
            }
            if let Some(minority) = &faults.partition_starts {
                open = Some(minority);
            }
            FaultConfig {
                seed: round_seed(self.seed, round),
                messages: self.messages,
                partition: open.map(|minority| PartitionSpec::split(nodes, minority)),
            }
        })
    }

    /// The Byzantine-actor parameters the plan was built with.
    pub fn byzantine(&self) -> &ByzantineConfig {
        &self.byzantine
    }

    /// Nodes designated as Byzantine verifiers, ascending.
    pub fn byzantine_verifiers(&self) -> &[NodeId] {
        &self.byzantine_verifiers
    }

    /// Total scheduled crash events.
    pub fn total_crashes(&self) -> usize {
        self.rounds.iter().map(|r| r.crashes.len()).sum()
    }

    /// Total scheduled restart events.
    pub fn total_restarts(&self) -> usize {
        self.rounds.iter().map(|r| r.restarts.len()).sum()
    }

    /// Total rounds with a scheduled equivocation.
    pub fn total_equivocations(&self) -> usize {
        self.rounds.iter().filter(|r| r.equivocation).count()
    }

    /// Total scheduled verdict faults (flips plus withholds).
    pub fn total_verdict_faults(&self) -> usize {
        self.rounds.iter().map(|r| r.verdict_faults.len()).sum()
    }

    /// Crash-and-recover cycles per cluster: the number of crash events
    /// in each cluster whose node restarts in a later round.
    pub fn cycles_per_cluster(&self) -> Vec<usize> {
        let cluster_of: BTreeMap<NodeId, usize> = self
            .clusters
            .iter()
            .enumerate()
            .flat_map(|(c, members)| members.iter().map(move |m| (*m, c)))
            .collect();
        let mut cycles = vec![0usize; self.clusters.len()];
        for (i, round) in self.rounds.iter().enumerate() {
            for node in &round.crashes {
                let recovered = self.rounds[i + 1..]
                    .iter()
                    .any(|later| later.restarts.contains(node));
                if recovered {
                    if let Some(&c) = cluster_of.get(node) {
                        if let Some(slot) = cycles.get_mut(c) {
                            *slot += 1;
                        }
                    }
                }
            }
        }
        cycles
    }

    /// Canonical text rendering of the schedule, one line per non-quiet
    /// round. Two plans are identical iff their renderings are — this is
    /// the string the CI smoke test compares byte-for-byte across runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan seed={} nodes={} clusters={} rounds={}",
            self.seed,
            self.nodes(),
            self.clusters.len(),
            self.rounds.len()
        );
        if !self.byzantine_verifiers.is_empty() {
            // Appended as its own line so pre-Byzantine renders (and their
            // fingerprints) are unchanged when no verifiers are designated.
            let _ = writeln!(out, "byz={}", render_nodes(&self.byzantine_verifiers));
        }
        for (i, round) in self.rounds.iter().enumerate() {
            if round.is_quiet() {
                continue;
            }
            let _ = write!(out, "r{i}:");
            if !round.crashes.is_empty() {
                let _ = write!(out, " crash={}", render_nodes(&round.crashes));
            }
            if !round.restarts.is_empty() {
                let _ = write!(out, " restart={}", render_nodes(&round.restarts));
            }
            if let Some(minority) = &round.partition_starts {
                let _ = write!(out, " partition={}", render_nodes(minority));
            }
            if round.partition_ends {
                let _ = write!(out, " heal");
            }
            if round.equivocation {
                let _ = write!(out, " equiv");
            }
            let flips: Vec<NodeId> = round
                .verdict_faults
                .iter()
                .filter(|(_, k)| *k == VerdictFault::Flip)
                .map(|(n, _)| *n)
                .collect();
            let withholds: Vec<NodeId> = round
                .verdict_faults
                .iter()
                .filter(|(_, k)| *k == VerdictFault::Withhold)
                .map(|(n, _)| *n)
                .collect();
            if !flips.is_empty() {
                let _ = write!(out, " flip={}", render_nodes(&flips));
            }
            if !withholds.is_empty() {
                let _ = write!(out, " withhold={}", render_nodes(&withholds));
            }
            out.push('\n');
        }
        out
    }

    /// FNV-1a 64 fingerprint of [`FaultPlan::render`] — a compact stable
    /// identity for tables and CI assertions.
    pub fn fingerprint(&self) -> u64 {
        FaultPlan::fingerprint_of(&self.render())
    }

    /// The fingerprint of a plan whose [`FaultPlan::render`] is
    /// `render`, for a caller that already rendered it (so it renders
    /// once, not twice).
    pub fn fingerprint_of(render: &str) -> u64 {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for byte in render.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

/// A round's message-fault sub-seed: SplitMix64 over the plan seed
/// offset by the round index, so distinct rounds land in distinct
/// streams and a replay reproduces every drop.
fn round_seed(plan_seed: u64, round: usize) -> u64 {
    let mut sm = SplitMix64::new(
        plan_seed ^ (round as u64).wrapping_mul(0xA076_1D64_78BD_642F), // usize round widens losslessly
    );
    sm.next_u64()
}

fn render_nodes(nodes: &[NodeId]) -> String {
    let mut out = String::new();
    for (i, node) in nodes.iter().enumerate() {
        if i > 0 {
            out.push('+');
        }
        let _ = write!(out, "{}", node.get());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters(k: usize, size: usize) -> Vec<Vec<NodeId>> {
        (0..k)
            .map(|c| {
                (0..size)
                    .map(|i| NodeId::new((c * size + i) as u64))
                    .collect()
            })
            .collect()
    }

    fn config(seed: u64) -> FaultPlanConfig {
        FaultPlanConfig::new(seed, 20, clusters(3, 8)).churn(ChurnConfig {
            crash_prob: 0.05,
            restart_prob: 0.4,
            cluster_churn_prob: 0.1,
            cluster_churn_fraction: 0.3,
            min_live_per_cluster: 2,
            ensure_cycle_per_cluster: true,
        })
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = config(11).build().expect("valid");
        let b = config(11).build().expect("valid");
        let c = config(12).build().expect("valid");
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.render(), c.render(), "different seeds must diverge");
    }

    #[test]
    fn every_cluster_gets_a_cycle() {
        for seed in [1u64, 7, 99, 1234] {
            let plan = config(seed).build().expect("valid");
            let cycles = plan.cycles_per_cluster();
            assert_eq!(cycles.len(), 3);
            assert!(
                cycles.iter().all(|c| *c >= 1),
                "seed {seed}: cycles {cycles:?}\n{}",
                plan.render()
            );
        }
    }

    #[test]
    fn live_floor_is_never_violated() {
        // Aggressive churn with almost no restarts: the floor must hold.
        let plan = FaultPlanConfig::new(3, 40, clusters(4, 6))
            .churn(ChurnConfig {
                crash_prob: 0.5,
                restart_prob: 0.05,
                cluster_churn_prob: 0.3,
                cluster_churn_fraction: 0.9,
                min_live_per_cluster: 2,
                ensure_cycle_per_cluster: false,
            })
            .build()
            .expect("valid");
        let mut down: BTreeSet<NodeId> = BTreeSet::new();
        for round in plan.rounds() {
            for r in &round.restarts {
                down.remove(r);
            }
            for c in &round.crashes {
                assert!(down.insert(*c), "node {c} crashed while already down");
            }
            for members in plan.clusters() {
                let live = members.iter().filter(|m| !down.contains(m)).count();
                assert!(live >= 2, "cluster dropped below the floor: {round:?}");
            }
        }
        assert!(plan.total_crashes() > 0);
    }

    #[test]
    fn nodes_never_restart_while_up() {
        let plan = config(21).build().expect("valid");
        let mut down: BTreeSet<NodeId> = BTreeSet::new();
        for round in plan.rounds() {
            for r in &round.restarts {
                assert!(down.remove(r), "restart of a live node: {r}");
            }
            for c in &round.crashes {
                down.insert(*c);
            }
        }
    }

    #[test]
    fn partition_windows_open_and_close() {
        let plan = FaultPlanConfig::new(5, 30, clusters(3, 6))
            .churn(ChurnConfig {
                crash_prob: 0.0,
                cluster_churn_prob: 0.0,
                ensure_cycle_per_cluster: false,
                ..ChurnConfig::default()
            })
            .partitions(PartitionPolicy {
                prob: 0.3,
                max_duration_rounds: 3,
            })
            .build()
            .expect("valid");
        let mut active = false;
        let mut opened = 0;
        for round in plan.rounds() {
            if round.partition_ends {
                assert!(active, "heal without an open partition");
                active = false;
            }
            if let Some(minority) = &round.partition_starts {
                assert!(!active, "nested partitions are not allowed");
                assert!(!minority.is_empty());
                active = true;
                opened += 1;
            }
        }
        assert!(opened > 0, "no partitions at 30% per round over 30 rounds");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert_eq!(
            FaultPlanConfig::new(0, 0, clusters(2, 4)).build(),
            Err(FaultError::ZeroRounds)
        );
        assert_eq!(
            FaultPlanConfig::new(0, 5, Vec::new()).build(),
            Err(FaultError::EmptyClusters)
        );
        assert_eq!(
            FaultPlanConfig::new(0, 5, vec![vec![NodeId::new(0)], Vec::new()]).build(),
            Err(FaultError::EmptyClusters)
        );
        let bad_prob = FaultPlanConfig::new(0, 5, clusters(2, 4)).churn(ChurnConfig {
            crash_prob: 1.5,
            ..ChurnConfig::default()
        });
        assert!(matches!(
            bad_prob.build(),
            Err(FaultError::BadProbability {
                what: "crash_prob",
                ..
            })
        ));
        let floor = FaultPlanConfig::new(0, 8, clusters(2, 3)).churn(ChurnConfig {
            min_live_per_cluster: 3,
            ..ChurnConfig::default()
        });
        assert!(matches!(
            floor.build(),
            Err(FaultError::MinLiveTooHigh { .. })
        ));
        let short = FaultPlanConfig::new(0, 2, clusters(2, 4));
        assert!(matches!(
            short.build(),
            Err(FaultError::TooFewRounds { .. })
        ));
        // Errors render as text.
        assert!(FaultError::ZeroRounds.to_string().contains("round"));
    }

    fn byz() -> ByzantineConfig {
        ByzantineConfig {
            equivocation_prob: 0.3,
            false_verdict_fraction: 0.25,
            flip_prob: 0.2,
            withhold_prob: 0.1,
        }
    }

    #[test]
    fn byzantine_stream_leaves_base_schedule_unchanged() {
        // Switching Byzantine faults on must not move a single crash,
        // restart, or partition window: the draws come from a separate
        // stream. This is what keeps committed e_fault.json stable.
        for seed in [1u64, 11, 99, 4242] {
            let base = config(seed).build().expect("valid");
            let with_byz = config(seed).byzantine(byz()).build().expect("valid");
            assert_eq!(base.rounds().len(), with_byz.rounds().len());
            for (a, b) in base.rounds().iter().zip(with_byz.rounds()) {
                assert_eq!(a.crashes, b.crashes);
                assert_eq!(a.restarts, b.restarts);
                assert_eq!(a.partition_starts, b.partition_starts);
                assert_eq!(a.partition_ends, b.partition_ends);
            }
            assert!(base.byzantine_verifiers().is_empty());
            assert!(base.byzantine().is_inert());
        }
    }

    /// A fingerprint from a render in hand is the plan's fingerprint,
    /// for quiet, churned and Byzantine plans alike.
    #[test]
    fn fingerprint_of_the_render_is_the_fingerprint() {
        for seed in [1, 17, 99] {
            for plan in [
                config(seed).build().expect("valid"),
                config(seed).byzantine(byz()).build().expect("valid"),
            ] {
                let render = plan.render();
                assert_eq!(FaultPlan::fingerprint_of(&render), plan.fingerprint());
            }
        }
        assert_ne!(
            FaultPlan::fingerprint_of("plan seed=1"),
            FaultPlan::fingerprint_of("plan seed=2")
        );
    }

    #[test]
    fn byzantine_schedule_is_deterministic_and_active() {
        let a = config(17).byzantine(byz()).build().expect("valid");
        let b = config(17).byzantine(byz()).build().expect("valid");
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.fingerprint(), b.fingerprint());
        // fraction 0.25 of 8-member clusters -> 2 designated per cluster.
        assert_eq!(a.byzantine_verifiers().len(), 6);
        assert!(
            a.total_equivocations() > 0,
            "30% over 20 rounds should equivocate:\n{}",
            a.render()
        );
        assert!(a.total_verdict_faults() > 0);
        // Every verdict fault names a designated verifier.
        for round in a.rounds() {
            for (node, _) in &round.verdict_faults {
                assert!(a.byzantine_verifiers().contains(node));
            }
        }
        // The render carries the Byzantine tokens.
        assert!(a.render().contains("byz="));
        assert!(a.render().contains(" equiv") || a.total_equivocations() == 0);
    }

    #[test]
    fn byzantine_validation_rejects_bad_probabilities() {
        let bad = config(0).byzantine(ByzantineConfig {
            equivocation_prob: 1.2,
            ..ByzantineConfig::default()
        });
        assert!(matches!(
            bad.build(),
            Err(FaultError::BadProbability {
                what: "equivocation_prob",
                ..
            })
        ));
        let over_budget = config(0).byzantine(ByzantineConfig {
            false_verdict_fraction: 0.5,
            flip_prob: 0.7,
            withhold_prob: 0.7,
            ..ByzantineConfig::default()
        });
        assert!(matches!(
            over_budget.build(),
            Err(FaultError::BadProbability {
                what: "flip_prob + withhold_prob",
                ..
            })
        ));
    }

    #[test]
    fn an_explicit_plan_replays_a_seeded_one() {
        let seeded = FaultPlanConfig::new(0, 24, clusters(3, 6))
            .churn(ChurnConfig {
                crash_prob: 0.1,
                restart_prob: 0.4,
                ..ChurnConfig::default()
            })
            .partitions(PartitionPolicy {
                prob: 0.2,
                max_duration_rounds: 2,
            })
            .build()
            .expect("valid");
        assert!(seeded.total_crashes() > 0 && !seeded.is_quiet());
        let explicit = FaultPlan::from_rounds(seeded.clusters().to_vec(), seeded.rounds().to_vec())
            .expect("every named node is in the map");
        assert_eq!(explicit.render(), seeded.render());
        assert_eq!(explicit.fingerprint(), seeded.fingerprint());
        assert_eq!(explicit, seeded);

        let quiet = FaultPlan::from_rounds(clusters(2, 4), vec![RoundFaults::default(); 5]);
        assert!(quiet.expect("names no node").is_quiet());
    }

    #[test]
    fn an_explicit_round_naming_a_stranger_is_a_typed_error() {
        let mut rounds = vec![RoundFaults::default(); 3];
        rounds[2].crashes.push(NodeId::new(8));
        assert_eq!(
            FaultPlan::from_rounds(clusters(2, 4), rounds),
            Err(FaultError::UnknownNode {
                round: 2,
                node: NodeId::new(8)
            })
        );
        let mut rounds = vec![RoundFaults::default(); 2];
        rounds[1]
            .verdict_faults
            .push((NodeId::new(40), VerdictFault::Flip));
        let err = FaultPlan::from_rounds(clusters(2, 4), rounds).expect_err("stranger");
        assert!(err.to_string().contains("round 1"), "{err}");
    }

    #[test]
    fn quiet_plan_renders_header_only() {
        let plan = FaultPlanConfig::new(9, 6, clusters(2, 4))
            .churn(ChurnConfig {
                crash_prob: 0.0,
                cluster_churn_prob: 0.0,
                ensure_cycle_per_cluster: false,
                ..ChurnConfig::default()
            })
            .build()
            .expect("valid");
        assert_eq!(plan.total_crashes(), 0);
        assert_eq!(plan.render().lines().count(), 1);
        assert!(plan.rounds().iter().all(RoundFaults::is_quiet));
        assert!(plan.is_quiet());
    }
}
