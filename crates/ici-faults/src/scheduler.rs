//! Round-by-round plan execution.
//!
//! [`FaultScheduler`] walks a [`FaultPlan`] one round at a time. It owns
//! the bookkeeping a consumer would otherwise duplicate: the live set,
//! the currently-open partition window, and the per-round
//! [`FaultConfig`] derivation. Each [`FaultScheduler::step`] also
//! refreshes the `faults/live_nodes` gauges (global and per cluster)
//! through `ici-telemetry`, so a failure experiment's snapshot shows the
//! survivor counts the moment each round began.
//!
//! The scheduler is deliberately ignorant of chains and storage: the
//! consumer (the `ici-sim` failure runner) applies `crashes`/`restarts`
//! to its network and installs `message_faults` on the send path.

use std::collections::BTreeSet;

use ici_net::faults::{FaultConfig, PartitionSpec};
use ici_net::node::NodeId;
use ici_telemetry::Label;

use crate::injector::round_fault_config;
use crate::plan::{FaultPlan, VerdictFault};

/// Everything a consumer must apply at the start of one round.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduledRound {
    /// Round index, `0..plan.rounds().len()`.
    pub round: usize,
    /// Nodes to crash now.
    pub crashes: Vec<NodeId>,
    /// Nodes to restart now (state intact, holdings stale).
    pub restarts: Vec<NodeId>,
    /// Nodes live *after* the crashes and restarts above.
    pub live_nodes: usize,
    /// Live members per cluster, same order as [`FaultPlan::clusters`].
    pub live_per_cluster: Vec<usize>,
    /// Minority side of the partition open during this round, if any.
    pub partition: Option<Vec<NodeId>>,
    /// The message-fault config to install on the network for this round
    /// (inert when the plan has no message faults and no open partition).
    pub message_faults: FaultConfig,
    /// The round's proposer equivocates.
    pub equivocation: bool,
    /// Verdict faults limited to verifiers still live after this round's
    /// churn — a crashed liar reports nothing, same as a withholder.
    pub verdict_faults: Vec<(NodeId, VerdictFault)>,
}

/// Walks a [`FaultPlan`], tracking liveness and partition windows.
#[derive(Clone, Debug)]
pub struct FaultScheduler {
    plan: FaultPlan,
    next_round: usize,
    down: BTreeSet<NodeId>,
    open_partition: Option<Vec<NodeId>>,
}

impl FaultScheduler {
    /// Starts at round 0 with every node live.
    pub fn new(plan: FaultPlan) -> FaultScheduler {
        FaultScheduler {
            plan,
            next_round: 0,
            down: BTreeSet::new(),
            open_partition: None,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Nodes currently down (after the last [`FaultScheduler::step`]).
    pub fn down(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.down.iter().copied()
    }

    /// Whether `node` is live per the schedule walked so far.
    pub fn is_live(&self, node: NodeId) -> bool {
        !self.down.contains(&node)
    }

    /// Advances one round; `None` once the plan is exhausted.
    pub fn step(&mut self) -> Option<ScheduledRound> {
        let round = self.next_round;
        let faults = self.plan.rounds().get(round)?.clone();
        self.next_round += 1;
        let _span = ici_telemetry::span!("faults/round");

        for node in &faults.restarts {
            self.down.remove(node);
        }
        for node in &faults.crashes {
            self.down.insert(*node);
        }
        if faults.partition_ends {
            self.open_partition = None;
        }
        if let Some(minority) = &faults.partition_starts {
            self.open_partition = Some(minority.clone());
        }

        let live_per_cluster: Vec<usize> = self
            .plan
            .clusters()
            .iter()
            .map(|members| members.iter().filter(|m| !self.down.contains(m)).count())
            .collect();
        let live_nodes: usize = live_per_cluster.iter().sum();
        ici_telemetry::gauge_set("faults/live_nodes", Label::Global, live_nodes as f64);
        for (c, live) in live_per_cluster.iter().enumerate() {
            ici_telemetry::gauge_set(
                "faults/live_nodes",
                Label::Cluster(c as u64), // cluster index widens losslessly
                *live as f64,
            );
        }

        let partition_spec = self
            .open_partition
            .as_ref()
            .map(|minority| PartitionSpec::split(self.plan.nodes(), minority));
        let message_faults = round_fault_config(
            self.plan.seed(),
            round,
            self.plan.messages(),
            partition_spec,
        );

        let verdict_faults: Vec<(NodeId, VerdictFault)> = faults
            .verdict_faults
            .iter()
            .copied()
            .filter(|(node, _)| !self.down.contains(node))
            .collect();

        Some(ScheduledRound {
            round,
            crashes: faults.crashes,
            restarts: faults.restarts,
            live_nodes,
            live_per_cluster,
            partition: self.open_partition.clone(),
            message_faults,
            equivocation: faults.equivocation,
            verdict_faults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ChurnConfig, FaultPlanConfig, MessageFaultSpec, PartitionPolicy};

    fn clusters(k: usize, size: usize) -> Vec<Vec<NodeId>> {
        (0..k)
            .map(|c| {
                (0..size)
                    .map(|i| NodeId::new((c * size + i) as u64))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn scheduler_replays_the_whole_plan() {
        let plan = FaultPlanConfig::new(13, 16, clusters(3, 6))
            .churn(ChurnConfig {
                crash_prob: 0.1,
                restart_prob: 0.3,
                ..ChurnConfig::default()
            })
            .build()
            .expect("valid");
        let total_rounds = plan.rounds().len();
        let mut scheduler = FaultScheduler::new(plan);
        let mut seen = 0;
        while let Some(round) = scheduler.step() {
            assert_eq!(round.round, seen);
            seen += 1;
            assert_eq!(
                round.live_nodes,
                round.live_per_cluster.iter().sum::<usize>()
            );
            assert_eq!(round.live_nodes, 18 - scheduler.down().count());
        }
        assert_eq!(seen, total_rounds);
        assert!(scheduler.step().is_none(), "exhausted plans stay exhausted");
    }

    #[test]
    fn live_tracking_matches_the_schedule() {
        let plan = FaultPlanConfig::new(4, 12, clusters(2, 5))
            .churn(ChurnConfig {
                crash_prob: 0.15,
                restart_prob: 0.5,
                min_live_per_cluster: 2,
                ..ChurnConfig::default()
            })
            .build()
            .expect("valid");
        let mut scheduler = FaultScheduler::new(plan);
        while let Some(round) = scheduler.step() {
            for c in &round.crashes {
                assert!(!scheduler.is_live(*c));
            }
            for r in &round.restarts {
                assert!(scheduler.is_live(*r));
            }
            for (c, live) in round.live_per_cluster.iter().enumerate() {
                let members = &scheduler.plan().clusters()[c];
                let tracked = members.iter().filter(|m| scheduler.is_live(**m)).count();
                assert_eq!(tracked, *live);
                assert!(*live >= 2, "floor violated in round {}", round.round);
            }
        }
    }

    #[test]
    fn partition_windows_produce_split_configs() {
        let plan = FaultPlanConfig::new(6, 30, clusters(3, 5))
            .churn(ChurnConfig {
                crash_prob: 0.0,
                cluster_churn_prob: 0.0,
                ensure_cycle_per_cluster: false,
                ..ChurnConfig::default()
            })
            .partitions(PartitionPolicy {
                prob: 0.25,
                max_duration_rounds: 3,
            })
            .build()
            .expect("valid");
        let mut scheduler = FaultScheduler::new(plan);
        let mut partitioned_rounds = 0;
        while let Some(round) = scheduler.step() {
            match &round.partition {
                Some(minority) => {
                    partitioned_rounds += 1;
                    let spec = round
                        .message_faults
                        .partition
                        .as_ref()
                        .expect("open window must install a partition");
                    assert_eq!(spec.minority_size(), minority.len());
                }
                None => assert!(round.message_faults.partition.is_none()),
            }
        }
        assert!(partitioned_rounds > 0, "no partition windows observed");
    }

    #[test]
    fn message_faults_vary_by_round_but_replay_identically() {
        let build = || {
            FaultPlanConfig::new(8, 8, clusters(2, 4))
                .churn(ChurnConfig {
                    crash_prob: 0.0,
                    cluster_churn_prob: 0.0,
                    ensure_cycle_per_cluster: false,
                    ..ChurnConfig::default()
                })
                .messages(MessageFaultSpec {
                    drop_prob: 0.2,
                    dup_prob: 0.1,
                    delay_prob: 0.1,
                    max_extra_delay_ms: 30.0,
                })
                .build()
                .expect("valid")
        };
        let mut a = FaultScheduler::new(build());
        let mut b = FaultScheduler::new(build());
        let mut seeds = BTreeSet::new();
        while let (Some(ra), Some(rb)) = (a.step(), b.step()) {
            assert_eq!(ra, rb, "replay must be exact");
            assert!(!ra.message_faults.is_inert());
            seeds.insert(ra.message_faults.seed);
        }
        assert_eq!(seeds.len(), 8, "each round needs its own fault stream");
    }

    #[test]
    fn byzantine_rounds_reach_the_consumer_filtered_to_live_liars() {
        use crate::plan::ByzantineConfig;
        let plan = FaultPlanConfig::new(31, 24, clusters(3, 6))
            .churn(ChurnConfig {
                crash_prob: 0.2,
                restart_prob: 0.2,
                min_live_per_cluster: 2,
                ..ChurnConfig::default()
            })
            .byzantine(ByzantineConfig {
                equivocation_prob: 0.4,
                false_verdict_fraction: 0.34,
                flip_prob: 0.4,
                withhold_prob: 0.2,
            })
            .build()
            .expect("valid");
        let scheduled_faults = plan.total_verdict_faults();
        let scheduled_equiv = plan.total_equivocations();
        assert!(scheduled_faults > 0 && scheduled_equiv > 0);
        let mut scheduler = FaultScheduler::new(plan);
        let mut seen_equiv = 0;
        let mut seen_faults = 0;
        while let Some(round) = scheduler.step() {
            if round.equivocation {
                seen_equiv += 1;
            }
            seen_faults += round.verdict_faults.len();
            for (node, _) in &round.verdict_faults {
                assert!(
                    scheduler.is_live(*node),
                    "crashed verifier {node} still lying in round {}",
                    round.round
                );
            }
        }
        assert_eq!(seen_equiv, scheduled_equiv, "equivocations pass through");
        assert!(
            seen_faults <= scheduled_faults,
            "filtering can only remove faults"
        );
    }

    #[test]
    fn quiet_plans_install_inert_configs() {
        let plan = FaultPlanConfig::new(2, 6, clusters(2, 4))
            .churn(ChurnConfig {
                crash_prob: 0.0,
                cluster_churn_prob: 0.0,
                ensure_cycle_per_cluster: false,
                ..ChurnConfig::default()
            })
            .build()
            .expect("valid");
        let mut scheduler = FaultScheduler::new(plan);
        while let Some(round) = scheduler.step() {
            assert!(round.message_faults.is_inert());
            assert!(round.crashes.is_empty() && round.restarts.is_empty());
            assert_eq!(round.live_nodes, 8);
        }
    }
}
