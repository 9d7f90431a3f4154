//! Shared scenario types for the `ici-prop` property suite.
//!
//! [`FaultScenario`] is the workhorse: a small, fully discrete
//! description of an ICIStrategy deployment plus a fault schedule, with
//! an [`ici_prop::Shrink`] implementation that walks every knob toward
//! its floor. The same generator/property pair is used three ways:
//!
//! * `tests/properties.rs` checks the *true* properties over it;
//! * `tests/shrink_determinism.rs` checks the deliberately *false*
//!   property [`no_skipped_rounds`] and pins its byte-exact minimal
//!   reproducer;
//! * `tests/reproducers.rs` replays every committed
//!   `tests/reproducers/*.repro` file against the registry in
//!   [`replay_by_property`].
//!
//! Probabilities are stored as integer percent so scenarios `Debug`-render
//! exactly and shrink over a discrete lattice.
//!
//! The integration runs (`tests/integration_ici.rs`,
//! `tests/integration_baselines.rs`) share [`replay_from_genesis`], the
//! workload and the fault profile it is run over from here.

#![allow(dead_code)] // each test binary uses a different subset

use ici_prop::{Failure, Pass, Shrink};
use ici_rng::Xoshiro256;
use icistrategy::chain::validation::validate_block;
use icistrategy::faults::plan::{ByzantineConfig, ChurnConfig};
use icistrategy::prelude::*;

/// A deployment-plus-fault-schedule scenario, discrete in every knob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultScenario {
    /// Clusters to form; `nodes = clusters * cluster_size`.
    pub clusters: usize,
    /// Members per cluster.
    pub cluster_size: usize,
    /// Body replicas per height (`r`).
    pub replication: usize,
    /// Fault-plan rounds; each proposes one block.
    pub rounds: usize,
    /// Transactions per proposed block.
    pub txs_per_block: usize,
    /// Crash probability per node per round, in percent.
    pub crash_pct: u64,
    /// Restart probability per down node per round, in percent.
    pub restart_pct: u64,
    /// Churn floor: live members the plan must keep per cluster.
    pub min_live: usize,
    /// Network / workload seed.
    pub net_seed: u64,
    /// Fault-plan seed.
    pub plan_seed: u64,
}

impl FaultScenario {
    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.clusters * self.cluster_size
    }

    /// Whether the knobs describe a buildable configuration. Properties
    /// treat invalid scenarios as vacuously true, so shrinking stays
    /// inside the valid lattice without constraint-aware candidates.
    pub fn is_valid(&self) -> bool {
        self.clusters >= 1
            && self.cluster_size >= 2
            && self.replication >= 1
            && self.replication <= self.cluster_size
            && self.min_live >= 1
            && self.min_live <= self.cluster_size
            && self.rounds >= 1
            && self.txs_per_block >= 1
            && self.crash_pct <= 100
            && self.restart_pct <= 100
    }

    /// The scenario's fault profile (crash churn only, no partitions,
    /// no message faults, no Byzantine actors).
    pub fn profile(&self) -> FaultProfile {
        FaultProfile {
            seed: self.plan_seed,
            rounds: self.rounds,
            churn: ChurnConfig {
                crash_prob: self.crash_pct as f64 / 100.0,
                restart_prob: self.restart_pct as f64 / 100.0,
                cluster_churn_prob: 0.0,
                cluster_churn_fraction: 0.0,
                min_live_per_cluster: self.min_live,
                ensure_cycle_per_cluster: false,
            },
            byzantine: ByzantineConfig::default(),
            ..FaultProfile::default()
        }
    }

    /// The deployment configuration, or `None` when the lattice point
    /// is invalid.
    pub fn config(&self) -> Option<IciConfig> {
        if !self.is_valid() {
            return None;
        }
        IciConfig::builder()
            .nodes(self.nodes())
            .cluster_size(self.cluster_size)
            .replication(self.replication)
            .seed(self.net_seed)
            .build()
            .ok()
    }

    /// Runs the scenario; `None` when it is invalid or the plan cannot
    /// be built over the formed clusters.
    pub fn run(&self) -> Option<(IciNetwork, RunSummary)> {
        let config = self.config()?;
        let workload = WorkloadConfig {
            accounts: 32,
            seed: self.net_seed,
            ..WorkloadConfig::default()
        };
        run_under_faults::<IciNetwork>(config, self.txs_per_block, workload, self.profile()).ok()
    }
}

/// Panics with the shrunk counterexample *and* its reproducer text, so
/// a failure in CI is one copy-paste away from a committed regression
/// test.
pub fn require_pass<T: std::fmt::Debug>(result: Result<Pass, Failure<T>>) {
    if let Err(failure) = result {
        panic!(
            "{failure}\n--- reproducer (commit under tests/reproducers/) ---\n{}",
            failure.reproducer().to_text()
        );
    }
}

/// Candidates from `v` toward `floor`: the floor itself, the midpoint,
/// and the decrement — strictly decreasing, deduplicated, floor first.
pub fn shrink_toward(v: usize, floor: usize) -> Vec<usize> {
    if v <= floor {
        return Vec::new();
    }
    let mut out = vec![floor];
    let mid = floor + (v - floor) / 2;
    if mid != floor && mid != v {
        out.push(mid);
    }
    if v - 1 != mid && v - 1 != floor {
        out.push(v - 1);
    }
    out
}

/// [`shrink_toward`] over `u64`.
pub fn shrink_toward_u64(v: u64, floor: u64) -> Vec<u64> {
    shrink_toward(v as usize, floor as usize)
        .into_iter()
        .map(|x| x as u64)
        .collect()
}

impl Shrink for FaultScenario {
    /// Field-at-a-time descent, structure before probabilities before
    /// seeds: fewer rounds and smaller networks first, so the minimal
    /// reproducer is small before it is quiet.
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for v in shrink_toward(self.rounds, 1) {
            out.push(FaultScenario {
                rounds: v,
                ..self.clone()
            });
        }
        for v in shrink_toward(self.clusters, 1) {
            out.push(FaultScenario {
                clusters: v,
                ..self.clone()
            });
        }
        for v in shrink_toward(self.cluster_size, 2) {
            out.push(FaultScenario {
                cluster_size: v,
                ..self.clone()
            });
        }
        for v in shrink_toward(self.txs_per_block, 1) {
            out.push(FaultScenario {
                txs_per_block: v,
                ..self.clone()
            });
        }
        for v in shrink_toward(self.replication, 1) {
            out.push(FaultScenario {
                replication: v,
                ..self.clone()
            });
        }
        for v in shrink_toward(self.min_live, 1) {
            out.push(FaultScenario {
                min_live: v,
                ..self.clone()
            });
        }
        for v in shrink_toward_u64(self.crash_pct, 0) {
            out.push(FaultScenario {
                crash_pct: v,
                ..self.clone()
            });
        }
        for v in shrink_toward_u64(self.restart_pct, 0) {
            out.push(FaultScenario {
                restart_pct: v,
                ..self.clone()
            });
        }
        for v in shrink_toward_u64(self.net_seed, 0) {
            out.push(FaultScenario {
                net_seed: v,
                ..self.clone()
            });
        }
        for v in shrink_toward_u64(self.plan_seed, 0) {
            out.push(FaultScenario {
                plan_seed: v,
                ..self.clone()
            });
        }
        out
    }
}

/// Draws a scenario from the full lattice the suite explores.
pub fn gen_fault_scenario(rng: &mut Xoshiro256) -> FaultScenario {
    FaultScenario {
        clusters: rng.gen_range(1usize..4),
        cluster_size: rng.gen_range(4usize..9),
        replication: rng.gen_range(1usize..3),
        rounds: rng.gen_range(2usize..11),
        txs_per_block: rng.gen_range(2usize..6),
        crash_pct: rng.gen_range(5u64..45),
        restart_pct: rng.gen_range(10u64..60),
        min_live: rng.gen_range(1usize..4),
        net_seed: rng.gen_range(0u64..1_000),
        plan_seed: rng.gen_range(0u64..1_000),
    }
}

/// Name under which the liveness-loss property is checked and its
/// reproducer registered.
pub const LIVENESS_PROPERTY: &str = "a churned run never skips a round";

/// The deliberately false property behind the committed reproducer:
/// "a churned run never skips a round". Crashing a cluster below its
/// BFT quorum *must* stall proposals — the harness exists to shrink
/// that counterexample to its smallest witness.
pub fn no_skipped_rounds(s: &FaultScenario) -> Result<(), String> {
    let Some((_, summary)) = s.run() else {
        return Ok(());
    };
    if summary.skipped_rounds == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} of {} rounds skipped (min live {})",
            summary.skipped_rounds, summary.rounds, summary.min_live_nodes
        ))
    }
}

/// The canonical check configuration for the liveness-loss reproducer.
/// `tests/shrink_determinism.rs` pins the resulting reproducer bytes;
/// changing this constant invalidates the committed file on purpose.
pub fn liveness_loss_config() -> ici_prop::Config {
    ici_prop::Config {
        seed: 0x11FE_1055, // "live loss"
        cases: 24,
        max_shrink_steps: 256,
    }
}

/// Replays a parsed reproducer against the named property's
/// generator/property pair. Returns `Err` for unknown properties so a
/// stray file fails loudly instead of silently passing.
pub fn replay_by_property(
    repro: &ici_prop::Reproducer,
) -> Result<ici_prop::Replay<FaultScenario>, String> {
    match repro.property.as_str() {
        name if name == LIVENESS_PROPERTY => repro
            .replay(gen_fault_scenario, no_skipped_rounds)
            .map_err(|e| e.to_string()),
        other => Err(format!("no registered generator for property `{other}`")),
    }
}

/// Replays `chain` (genesis first) from `genesis`'s allocation through
/// `validate_block`, each block on its parent's post-state, and returns
/// the tip's post-state.
///
/// A proposer commits the state its builder sealed and never executes
/// its block again, so this is where a builder that disagrees with
/// `apply_block`, or an `apply` that is not all-or-nothing, shows. The
/// panic names `label` (the strategy, run and shard) and the first
/// height that does not replay. Every block was built from a batch of
/// `offered` transactions, and the chain must hold some but not all of
/// them, so that the replay covers both what a builder accepts and what
/// it rejects.
pub fn replay_from_genesis(
    label: &str,
    genesis: &GenesisConfig,
    chain: &[&Block],
    offered: usize,
) -> WorldState {
    let (first, blocks) = chain.split_first().expect("a chain starts at its genesis");
    assert_eq!(
        first.id(),
        genesis.genesis_block().id(),
        "{label}: the chain does not start at the genesis given"
    );
    let committed: usize = blocks.iter().map(|b| b.transactions().len()).sum();
    assert!(
        0 < committed && committed < blocks.len() * offered,
        "{label}: {committed} transactions committed of {offered} offered to each of {} blocks; \
         the run must accept some and reject some",
        blocks.len()
    );
    let mut parent = *first.header();
    let mut state = genesis.initial_state();
    for block in blocks {
        state = validate_block(block, &parent, &state).unwrap_or_else(|e| {
            panic!(
                "{label}: height {} does not replay from genesis: {e}",
                block.height()
            )
        });
        parent = *block.header();
    }
    assert_eq!(state.root(), parent.state_root, "{label}: tip state root");
    state
}

/// A workload whose every transfer moves more than half of the balance
/// a run funds each account with (`ici_sim` gives each
/// `u64::MAX / 1_000_000`). A sender not paid since its last transfer
/// overspends, and every later transaction of it carries a nonce its
/// ledger never reached, so blocks mix accepted and rejected
/// transactions.
pub fn overspending_workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        accounts: 32,
        amount: u64::MAX / 1_000_000 / 2 + 1,
        seed,
        ..WorkloadConfig::default()
    }
}

/// Crashes and restarts every round, under equivocating proposers and
/// lying, flipped and withheld verdicts.
pub fn crash_and_byzantine() -> FaultProfile {
    FaultProfile {
        seed: 23,
        rounds: 12,
        churn: ChurnConfig {
            crash_prob: 0.08,
            restart_prob: 0.4,
            cluster_churn_prob: 0.0,
            min_live_per_cluster: 3,
            ..ChurnConfig::default()
        },
        byzantine: ByzantineConfig {
            equivocation_prob: 0.3,
            false_verdict_fraction: 0.4,
            flip_prob: 0.8,
            withhold_prob: 0.15,
        },
        ..FaultProfile::default()
    }
}
