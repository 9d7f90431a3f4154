//! The owner table against the ranking it records.
//!
//! The commit writes every cluster's owners of its height into one
//! table, and reads and joins take them from there instead of ranking
//! again. The table is right only if every write that changes the chain
//! or the membership keeps it right, so this runs seeded interleavings
//! of all of them — commits, joins that succeed and joins that fail,
//! crashes, recoveries, repairs and re-clusterings — under each
//! assignment rule, and after every step compares
//! [`IciNetwork::owners_at`] with [`IciNetwork::owners_in_cluster`], a
//! fresh ranking over the cluster's members, at every cluster and
//! committed height, and each owner's recorded rank prefix with its
//! rendezvous rank. One deployment shape has a cluster smaller than
//! `r`, so joins grow it past `r`.

use ici_prop::{check, Config, Shrink};
use ici_rng::Xoshiro256;
use icistrategy::crypto::lottery::rendezvous_rank;
use icistrategy::prelude::*;
use icistrategy::storage::assignment::AssignmentStrategy;

const ASSIGNMENTS: [Assignment; 3] = [
    Assignment::Rendezvous,
    Assignment::Ring,
    Assignment::RoundRobin,
];

/// One move of an interleaving. A `pick` selects a cluster or a node by
/// index modulo what exists when the step runs.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Step {
    /// Commit a block of this many transactions; a height that loses
    /// its quorum commits nothing.
    Commit(usize),
    /// A node joins at a cluster's centroid; it may fail.
    Join(u64),
    /// A node joins the smallest cluster; it may fail.
    JoinSmallest,
    /// A join that must fail: the live holders of a height the joiner
    /// would own crash first, and recover after.
    FailedJoin(u64),
    Crash(u64),
    Recover(u64),
    Repair,
    Reconfigure,
}

impl Shrink for Step {
    fn shrink_candidates(&self) -> Vec<Step> {
        match self {
            Step::Commit(n) => n
                .shrink_candidates()
                .into_iter()
                .map(Step::Commit)
                .collect(),
            Step::Join(p) => p.shrink_candidates().into_iter().map(Step::Join).collect(),
            Step::FailedJoin(p) => p
                .shrink_candidates()
                .into_iter()
                .map(Step::FailedJoin)
                .collect(),
            Step::Crash(p) => p.shrink_candidates().into_iter().map(Step::Crash).collect(),
            Step::Recover(p) => p
                .shrink_candidates()
                .into_iter()
                .map(Step::Recover)
                .collect(),
            Step::JoinSmallest | Step::Repair | Step::Reconfigure => Vec::new(),
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Interleaving {
    seed: u64,
    /// 24 nodes in clusters of 8 at `r = 2`, or 10 nodes in clusters
    /// of 4, 3 and 3 at `r = 4`.
    small_clusters: bool,
    steps: Vec<Step>,
}

impl Shrink for Interleaving {
    fn shrink_candidates(&self) -> Vec<Interleaving> {
        self.steps
            .shrink_candidates()
            .into_iter()
            .map(|steps| Interleaving {
                steps,
                ..self.clone()
            })
            .collect()
    }
}

fn gen_interleaving(rng: &mut Xoshiro256) -> Interleaving {
    let seed = rng.gen_range(0u64..1000);
    let small_clusters = rng.gen_bool(0.5);
    let mut steps = vec![Step::Commit(3), Step::Commit(3)];
    steps.extend(
        (0..rng.gen_range(4usize..20)).map(|_| match rng.gen_range(0u64..16) {
            0..=4 => Step::Commit(rng.gen_range(0usize..6)),
            5..=7 => Step::Join(rng.gen_range(0u64..100)),
            8 => Step::JoinSmallest,
            9 | 10 => Step::FailedJoin(rng.gen_range(0u64..100)),
            11 => Step::Crash(rng.gen_range(0u64..100)),
            12 => Step::Recover(rng.gen_range(0u64..100)),
            13 | 14 => Step::Repair,
            _ => Step::Reconfigure,
        }),
    );
    Interleaving {
        seed,
        small_clusters,
        steps,
    }
}

fn network(case: &Interleaving, assignment: Assignment) -> Result<IciNetwork, String> {
    let (nodes, cluster_size, r) = if case.small_clusters {
        (10, 4, 4)
    } else {
        (24, 8, 2)
    };
    let config = IciConfig::builder()
        .nodes(nodes)
        .cluster_size(cluster_size)
        .replication(r)
        .assignment(assignment)
        .seed(case.seed)
        .build()
        .map_err(|e| format!("{nodes}/{cluster_size}/{r} must validate: {e}"))?;
    IciNetwork::new(config).map_err(|e| format!("{nodes}/{cluster_size}/{r} must build: {e}"))
}

/// The first cluster, height by height, where the recorded owners
/// differ from a fresh ranking, or an owner's recorded rank prefix from
/// the top 16 bits of its rendezvous rank (0 under ring and
/// round-robin).
fn table_matches_ranking(net: &IciNetwork) -> Result<(), String> {
    let rendezvous = net.config().assignment == Assignment::Rendezvous;
    for cluster in net.clusters() {
        for height in 0..net.chain_len() {
            let id = net.block(height).ok_or("a committed height")?.id();
            let recorded: Vec<NodeId> = net.owners_at(cluster, height).collect();
            let ranked = net.owners_in_cluster(cluster, &id, height);
            if recorded != ranked {
                return Err(format!(
                    "cluster {cluster}, height {height}: the table holds {recorded:?}, \
                     a fresh ranking gives {ranked:?}"
                ));
            }
            for (owner, prefix) in net.owner_prefixes_at(cluster, height) {
                let want = if rendezvous {
                    (rendezvous_rank(&id, owner.get()) >> 48) as u16
                } else {
                    0
                };
                if prefix != want {
                    return Err(format!(
                        "cluster {cluster}, height {height}: owner {owner} has rank prefix \
                         {prefix:#06x}, its rank gives {want:#06x}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Crashes the live holders, in the cluster a node joining at `coord`
/// would join, of the first height that node would own, and returns
/// them. `None` when it would own nothing.
fn crash_a_joiners_sources(net: &mut IciNetwork, coord: Coord) -> Option<Vec<NodeId>> {
    let joiner = NodeId::new(net.net().topology().len() as u64);
    let cluster =
        net.membership()
            .choose_cluster(coord, net.net().topology(), JoinPolicy::NearestCentroid);
    let mut members = net.membership().members(cluster).to_vec();
    members.push(joiner);
    let config = net.config();
    let height = (0..net.chain_len()).find(|&height| {
        net.block(height).is_some_and(|block| {
            config
                .assignment
                .owners(&block.id(), height, &members, config.replication)
                .contains(&joiner)
        })
    })?;
    let holders: Vec<NodeId> = members[..members.len() - 1]
        .iter()
        .copied()
        .filter(|m| net.net().is_up(*m))
        .filter(|m| net.holdings(*m).is_some_and(|h| h.has_body(height)))
        .collect();
    for holder in &holders {
        net.crash_node(*holder).ok()?;
    }
    Some(holders)
}

fn run(case: &Interleaving, assignment: Assignment) -> Result<(), String> {
    let mut net = network(case, assignment)?;
    let mut workload = WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        seed: case.seed,
        ..WorkloadConfig::default()
    });
    table_matches_ranking(&net).map_err(|e| format!("genesis: {e}"))?;
    for (at, step) in case.steps.iter().enumerate() {
        let clusters = net.membership().cluster_count() as u64;
        let nodes = net.net().topology().len() as u64;
        let centroid = |net: &IciNetwork, pick: u64| {
            let cluster = ClusterId::new((pick % clusters) as u32);
            net.membership()
                .centroid(cluster, net.net().topology())
                .unwrap_or(Coord::new(50.0, 50.0))
        };
        match step {
            Step::Commit(n) => {
                let _ = net.propose_block(workload.batch(*n));
            }
            Step::Join(pick) => {
                let coord = centroid(&net, *pick);
                let _ = net.bootstrap_node(coord, JoinPolicy::NearestCentroid);
            }
            Step::JoinSmallest => {
                let _ = net.bootstrap_node(Coord::new(50.0, 50.0), JoinPolicy::SmallestCluster);
            }
            Step::FailedJoin(pick) => {
                let coord = centroid(&net, *pick);
                if let Some(crashed) = crash_a_joiners_sources(&mut net, coord) {
                    let joined = net.bootstrap_node(coord, JoinPolicy::NearestCentroid);
                    if !matches!(joined, Err(IciError::BodyUnavailable(_))) {
                        return Err(format!(
                            "{assignment:?} step {at}: a join without sources answered {joined:?}"
                        ));
                    }
                    for node in crashed {
                        net.recover_node(node).map_err(|e| e.to_string())?;
                    }
                }
            }
            Step::Crash(pick) => {
                net.crash_node(NodeId::new(pick % nodes))
                    .map_err(|e| e.to_string())?;
            }
            Step::Recover(pick) => {
                net.recover_node(NodeId::new(pick % nodes))
                    .map_err(|e| e.to_string())?;
            }
            Step::Repair => {
                net.repair_all();
            }
            Step::Reconfigure => {
                net.reconfigure_clusters();
            }
        }
        table_matches_ranking(&net)
            .map_err(|e| format!("{assignment:?} after step {at} ({step:?}): {e}"))?;
    }
    Ok(())
}

#[test]
fn the_owner_table_matches_a_fresh_ranking_under_every_assignment() {
    let config = Config {
        seed: 0x0A7E_7AB1,
        cases: 24,
        ..Config::default()
    };
    let result = check(
        "the owner table equals owners_in_cluster after every step",
        &config,
        gen_interleaving,
        |case| ASSIGNMENTS.iter().try_for_each(|a| run(case, *a)),
    );
    if let Err(failure) = result {
        panic!(
            "{failure}\n--- reproducer ---\n{}",
            failure.reproducer().to_text()
        );
    }
}
