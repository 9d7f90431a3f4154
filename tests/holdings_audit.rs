//! Differential properties for the holdings representation and the
//! audits built on it.
//!
//! A node's held heights are a bit set ([`HeightSet`]), and the three
//! things that ask how many live members hold a height — the integrity
//! audit, the recovery planner, the Merkle certificate — read one
//! word-parallel [`ReplicaCount`]. Each is checked here against what it
//! replaced: `BTreeSet<Height>`, a per-height loop, and the planner and
//! audit bodies as they stood over `BTreeSet` holdings, kept below as
//! reference models. The last property drives whole fault schedules and
//! holds every round's repair certificate to the from-scratch audit.
//!
//! All four run on the `ici-prop` harness, so a falsified property
//! shrinks to a minimal case and prints its reproducer.

mod prop_support;

use std::collections::{BTreeMap, BTreeSet};

use ici_prop::{check, Config, Shrink};
use ici_rng::Xoshiro256;
use icistrategy::chain::block::Height;
use icistrategy::prelude::*;
use icistrategy::storage::assignment::AssignmentStrategy;
use icistrategy::storage::audit::{
    audit_cluster, HeightSet, Holdings, IntegrityReport, ReplicaCount,
};
use icistrategy::storage::recovery::{
    plan_chain_recovery, plan_recovery, BlockRef, RecoveryPlan, Transfer,
};
use prop_support::{gen_fault_scenario, require_pass, shrink_toward, FaultScenario};

const CASES: usize = 48;

fn cfg(seed: u64, cases: usize) -> Config {
    Config {
        seed,
        cases,
        ..Config::default()
    }
}

// ---- reference models ----------------------------------------------------

/// Holdings as they were before the bit sets.
type RefHoldings = BTreeMap<NodeId, BTreeSet<Height>>;

/// `ici_storage::audit::audit_cluster` as it stood over `BTreeSet`
/// holdings: one map entry per height of the chain, one probe per held
/// height.
fn reference_audit_cluster(
    holdings: &RefHoldings,
    live: &BTreeSet<NodeId>,
    chain_len: Height,
) -> IntegrityReport {
    let mut replicas: BTreeMap<Height, usize> = (0..chain_len).map(|h| (h, 0)).collect();
    for (node, heights) in holdings {
        if !live.contains(node) {
            continue;
        }
        for h in heights {
            if *h < chain_len {
                if let Some(count) = replicas.get_mut(h) {
                    *count += 1;
                }
            }
        }
    }
    let mut missing = Vec::new();
    let mut singly_held = Vec::new();
    let mut histogram: BTreeMap<usize, u64> = BTreeMap::new();
    for (height, count) in &replicas {
        *histogram.entry(*count).or_insert(0) += 1;
        match count {
            0 => missing.push(*height),
            1 => singly_held.push(*height),
            _ => {}
        }
    }
    IntegrityReport {
        chain_len,
        missing,
        singly_held,
        replication_histogram: histogram,
    }
}

/// `ici_storage::recovery::plan_recovery` as it stood over `BTreeSet`
/// holdings: every block visited, one probe per live member per block.
fn reference_plan_recovery<S: AssignmentStrategy + ?Sized>(
    blocks: &[BlockRef],
    holdings: &RefHoldings,
    live: &BTreeSet<NodeId>,
    strategy: &S,
    r: usize,
) -> RecoveryPlan {
    let live_members: Vec<NodeId> = live.iter().copied().collect();
    let mut plan = RecoveryPlan::default();

    for block in blocks {
        let holders: Vec<NodeId> = live_members
            .iter()
            .copied()
            .filter(|n| {
                holdings
                    .get(n)
                    .map_or(false, |heights| heights.contains(&block.height))
            })
            .collect();

        if holders.is_empty() {
            plan.unrecoverable.push(block.height);
            continue;
        }
        let deficit = r.min(live_members.len()).saturating_sub(holders.len());
        if deficit == 0 {
            continue;
        }

        let preferred = strategy.owners(&block.id, block.height, &live_members, live_members.len());
        let mut added = 0;
        let mut source_cursor = 0;
        for candidate in preferred {
            if added == deficit {
                break;
            }
            if holders.contains(&candidate) {
                continue;
            }
            let source = holders[source_cursor % holders.len()];
            source_cursor += 1;
            plan.transfers.push(Transfer {
                height: block.height,
                source,
                destination: candidate,
                bytes: block.body_bytes,
            });
            added += 1;
        }
    }
    plan.transfers.sort_by_key(|t| (t.height, t.destination));
    plan.unrecoverable.sort_unstable();
    plan
}

// ---- (a) HeightSet vs BTreeSet --------------------------------------------

/// One step of the set model run: `(op, height)`; see [`run_set_steps`].
type SetStep = (u8, u64);

fn gen_set_steps(rng: &mut Xoshiro256) -> Vec<SetStep> {
    // Sparse and out of order: heights jump between a dense low range
    // and far words, so words are skipped, grown into and emptied again.
    let len = rng.gen_range(0usize..120);
    (0..len)
        .map(|_| {
            let height = match rng.gen_range(0u32..4) {
                0 => rng.gen_range(0u64..5_000),
                1 => rng.gen_range(0u64..700),
                _ => rng.gen_range(0u64..70),
            };
            (rng.gen_range(0u32..10) as u8, height)
        })
        .collect()
}

/// Runs `steps` on a [`HeightSet`] and on the `BTreeSet` it replaced.
/// Ops 0–4 insert, 5–7 remove, 8 compares a clone, 9 clears (rarely:
/// only on heights divisible by 16).
fn run_set_steps(steps: &Vec<SetStep>) -> Result<(), String> {
    let mut bits = HeightSet::default();
    let mut model: BTreeSet<Height> = BTreeSet::new();
    for &(op, height) in steps {
        let agreed = match op {
            0..=4 => bits.insert(height) == model.insert(height),
            5..=7 => bits.remove(&height) == model.remove(&height),
            8 => {
                let copy = bits.clone();
                copy == bits && copy.iter().eq(model.iter().copied())
            }
            _ => {
                if height % 16 == 0 {
                    bits.clear();
                    model.clear();
                }
                true
            }
        };
        if !agreed {
            return Err(format!("op {op} on {height} disagrees with the model"));
        }
        if bits.contains(&height) != model.contains(&height) {
            return Err(format!("membership of {height} differs after op {op}"));
        }
        if bits.len() != model.len() || bits.is_empty() != model.is_empty() {
            return Err(format!("len {} vs model {}", bits.len(), model.len()));
        }
    }
    if !bits.iter().eq(model.iter().copied()) {
        return Err(format!(
            "iteration {:?} vs model {model:?}",
            bits.iter().collect::<Vec<_>>()
        ));
    }
    let top = model.last().map_or(0, |h| h + 130);
    if let Some(h) = (0..top).find(|h| bits.contains(h) != model.contains(h)) {
        return Err(format!("membership of {h} differs"));
    }
    // Equality is by contents: a set rebuilt from the survivors has no
    // trailing empty words, the stepped one may have many.
    let rebuilt: HeightSet = model.iter().copied().collect();
    if rebuilt != bits {
        return Err("equal contents compare unequal".into());
    }
    let mut grown = rebuilt.clone();
    grown.insert(top + 1);
    if grown == bits {
        return Err("different contents compare equal".into());
    }
    grown.remove(&(top + 1));
    if grown != bits {
        return Err("an emptied trailing word breaks equality".into());
    }
    Ok(())
}

#[test]
fn height_set_agrees_with_a_btree_set_model() {
    require_pass(check(
        "height bit set matches BTreeSet<Height>",
        &cfg(0xB175, CASES * 4),
        gen_set_steps,
        run_set_steps,
    ));
}

// ---- (b), (c) one cluster's holdings ---------------------------------------

/// One cluster's holdings, liveness and replication target.
#[derive(Clone, Debug)]
struct ClusterCase {
    /// `(member, height)` body replicas. Members at or past `members`
    /// have departed: they hold bodies but are never live.
    replicas: Vec<(u64, u64)>,
    /// Members `0..members` that are down.
    down: Vec<u64>,
    /// Active members are ids `0..members`.
    members: u64,
    /// Heights `0..chain_len` are audited and planned for.
    chain_len: u64,
    /// Replication target.
    r: usize,
    /// Salts block ids (and so every assignment's preference order).
    id_seed: u64,
}

impl Shrink for ClusterCase {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for replicas in self.replicas.shrink_candidates() {
            out.push(ClusterCase {
                replicas,
                ..self.clone()
            });
        }
        for down in self.down.shrink_candidates() {
            out.push(ClusterCase {
                down,
                ..self.clone()
            });
        }
        for members in shrink_toward(self.members as usize, 1) {
            out.push(ClusterCase {
                members: members as u64,
                ..self.clone()
            });
        }
        for chain_len in self.chain_len.shrink_candidates() {
            out.push(ClusterCase {
                chain_len,
                ..self.clone()
            });
        }
        for r in shrink_toward(self.r, 1) {
            out.push(ClusterCase { r, ..self.clone() });
        }
        out
    }
}

fn gen_cluster_case(rng: &mut Xoshiro256) -> ClusterCase {
    // Cluster sizes on both sides of one machine word of members, so a
    // height's count needs up to seven planes.
    let members = match rng.gen_range(0u32..4) {
        0 => rng.gen_range(1u64..5),
        1 => rng.gen_range(60u64..100),
        _ => rng.gen_range(5u64..20),
    };
    // Chain lengths on both sides of a word boundary, and none at all.
    let chain_len = match rng.gen_range(0u32..8) {
        0 => 0,
        1 => 1,
        2 => 63,
        3 => 64,
        4 => 65,
        5 => 128,
        _ => rng.gen_range(2u64..300),
    };
    let r = rng.gen_range(1usize..5);
    let mut replicas = Vec::new();
    // Scattered replicas: heights held by nobody, by one member, past
    // the target (a restarted member's surplus), past the chain, and
    // on members that departed.
    let scattered = (chain_len as usize * r * rng.gen_range(1usize..5)) / 3;
    for _ in 0..scattered {
        replicas.push((
            rng.gen_range(0u64..members + 2),
            rng.gen_range(0u64..chain_len + 8),
        ));
    }
    // A few heights everybody holds: counts past 64 in a wide cluster.
    for _ in 0..rng.gen_range(0usize..3) {
        let height = rng.gen_range(0u64..chain_len + 1);
        replicas.extend((0..members).map(|m| (m, height)));
    }
    // Liveness from everyone up to nobody up (`live < r` on the way).
    let down_pct = [0u64, 0, 20, 60, 100][rng.gen_range(0usize..5)];
    let down = (0..members)
        .filter(|_| rng.gen_range(0u64..100) < down_pct)
        .collect();
    ClusterCase {
        replicas,
        down,
        members,
        chain_len,
        r,
        id_seed: rng.next_u64(),
    }
}

impl ClusterCase {
    fn live(&self) -> BTreeSet<NodeId> {
        (0..self.members)
            .filter(|m| !self.down.contains(m))
            .map(NodeId::new)
            .collect()
    }

    /// The same holdings in both representations. A member with no
    /// replica has no entry in either.
    fn holdings(&self) -> (Holdings, RefHoldings) {
        let mut bits = Holdings::new();
        let mut sets = RefHoldings::new();
        for &(member, height) in &self.replicas {
            bits.entry(NodeId::new(member)).or_default().insert(height);
            sets.entry(NodeId::new(member)).or_default().insert(height);
        }
        (bits, sets)
    }

    fn block(&self, height: Height) -> BlockRef {
        BlockRef {
            id: Sha256::digest(&(height ^ self.id_seed).to_be_bytes()),
            height,
            body_bytes: 100 + height % 7,
        }
    }
}

fn heights_where(counts: &[usize], keep: impl Fn(usize) -> bool) -> Vec<Height> {
    (0..)
        .zip(counts)
        .filter(|(_, n)| keep(**n))
        .map(|(h, _)| h)
        .collect()
}

fn count_matches_a_per_height_loop(case: &ClusterCase) -> Result<(), String> {
    let (holdings, _) = case.holdings();
    let live = case.live();
    let live_sets: Vec<&HeightSet> = live.iter().filter_map(|n| holdings.get(n)).collect();
    let count = ReplicaCount::of(live_sets.iter().copied(), case.chain_len);
    let expected: Vec<usize> = (0..case.chain_len)
        .map(|h| live_sets.iter().filter(|s| s.contains(&h)).count())
        .collect();

    for h in 0..case.chain_len + 130 {
        let want = expected.get(h as usize).copied().unwrap_or(0);
        if count.count(h) != want {
            return Err(format!("count({h}) = {} vs {want}", count.count(h)));
        }
    }
    if count.replicas() != expected.iter().sum::<usize>() {
        return Err(format!("replicas() = {}", count.replicas()));
    }
    // Every count that occurs, one past it, and values no plane can
    // represent.
    let top = expected.iter().copied().max().unwrap_or(0);
    for n in (0..=top + 1).chain([case.r, 127, 128, 1_000]) {
        let exactly = count.with_count(n);
        if !exactly.iter().eq(heights_where(&expected, |c| c == n)) {
            return Err(format!("with_count({n}) = {exactly:?}"));
        }
        let below = count.below(n);
        let want = heights_where(&expected, |c| c < n);
        if !below.iter().eq(want.iter().copied()) || below.len() != want.len() {
            return Err(format!("below({n}) = {below:?}"));
        }
    }
    let mut histogram = BTreeMap::new();
    for n in &expected {
        *histogram.entry(*n).or_insert(0u64) += 1;
    }
    let want = IntegrityReport {
        chain_len: case.chain_len,
        missing: heights_where(&expected, |c| c == 0),
        singly_held: heights_where(&expected, |c| c == 1),
        replication_histogram: histogram,
    };
    if count.report() != want {
        return Err(format!("report {:?} vs {want:?}", count.report()));
    }
    Ok(())
}

#[test]
fn word_parallel_count_agrees_with_a_per_height_loop() {
    require_pass(check(
        "replica count matches a per-height loop",
        &cfg(0xC0_0017, CASES),
        gen_cluster_case,
        count_matches_a_per_height_loop,
    ));
}

fn audit_and_planner_match_their_references(case: &ClusterCase) -> Result<(), String> {
    let (holdings, reference) = case.holdings();
    let live = case.live();

    let report = audit_cluster(&holdings, &live, case.chain_len);
    let want = reference_audit_cluster(&reference, &live, case.chain_len);
    if report != want {
        return Err(format!("audit {report:?} vs reference {want:?}"));
    }

    // The slice planner is handed whatever blocks the caller picked:
    // here the chain with a seeded tenth of it left out.
    let chain: Vec<BlockRef> = (0..case.chain_len).map(|h| case.block(h)).collect();
    let picked: Vec<BlockRef> = chain
        .iter()
        .filter(|b| (b.height ^ case.id_seed) % 10 != 0)
        .copied()
        .collect();
    // One assignment per case; the seed rotates through all three.
    let strategies = [
        Assignment::Rendezvous,
        Assignment::Ring,
        Assignment::RoundRobin,
    ];
    let strategy = &strategies[(case.id_seed % 3) as usize];
    let nothing = HeightSet::new();
    let live_sets: Vec<(NodeId, &HeightSet)> = live
        .iter()
        .map(|n| (*n, holdings.get(n).unwrap_or(&nothing)))
        .collect();
    let want = reference_plan_recovery(&chain, &reference, &live, strategy, case.r);
    let plans = [
        (
            "the chain",
            plan_recovery(&chain, &holdings, &live, strategy, case.r),
            &want,
        ),
        // The whole-chain planner over borrowed holdings, as the core
        // calls it.
        (
            "the borrowed chain",
            plan_chain_recovery(
                case.chain_len,
                |h| case.block(h),
                &live_sets,
                strategy,
                case.r,
            ),
            &want,
        ),
        (
            "picked blocks",
            plan_recovery(&picked, &holdings, &live, strategy, case.r),
            &reference_plan_recovery(&picked, &reference, &live, strategy, case.r),
        ),
    ];
    for (what, plan, want) in plans {
        if plan != *want {
            return Err(format!(
                "{} over {what}: plan {plan:?} vs reference {want:?}",
                strategy.name()
            ));
        }
    }
    Ok(())
}

#[test]
fn audit_and_planner_agree_with_their_btree_references() {
    require_pass(check(
        "audit_cluster and plan_recovery match their BTreeSet references",
        &cfg(0xA0D17, CASES),
        gen_cluster_case,
        audit_and_planner_match_their_references,
    ));
}

// ---- (d) certificates over whole fault schedules ---------------------------

/// Every `(member, height)` body replica the active members of
/// `cluster` hold.
fn replicas_of(net: &IciNetwork, cluster: ClusterId) -> BTreeSet<(NodeId, Height)> {
    net.membership()
        .members(cluster)
        .iter()
        .copied()
        .flat_map(|m| {
            let held = net.holdings(m).expect("member of the network");
            held.body_heights().iter().map(move |h| (m, h))
        })
        .collect()
}

/// Sum of the `core/merkle_audit_trees` counter recorded by `f` on this
/// thread.
fn trees_derived_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    icistrategy::telemetry::reset();
    let out = f();
    let trees = icistrategy::telemetry::snapshot()
        .counters
        .iter()
        .filter(|c| c.name == "core/merkle_audit_trees")
        .map(|c| c.value)
        .sum();
    (out, trees)
}

fn body_len(net: &IciNetwork, height: Height) -> u64 {
    u64::from(net.block(height).expect("committed").header().body_len)
}

/// Drives the scenario's churn schedule round by round, as the fault
/// runner does — crash, restart, propose, then repair and certify every
/// cluster the churn touched — and after each certificate checks it,
/// the repair before it and the trees it hashed.
fn certificates_match_the_references(s: &FaultScenario) -> Result<(), String> {
    let Some(config) = s.config() else {
        return Ok(()); // invalid lattice point — vacuous
    };
    let Ok(mut net) = IciNetwork::new(config) else {
        return Ok(());
    };
    let groups: Vec<Vec<NodeId>> = net
        .clusters()
        .into_iter()
        .map(|c| net.membership().members(c).to_vec())
        .collect();
    let Ok(plan) = FaultPlanConfig::new(s.plan_seed, s.rounds, groups)
        .churn(s.profile().churn)
        .build()
    else {
        return Ok(()); // floor impossible over these clusters
    };
    let mut workload = WorkloadGenerator::new(WorkloadConfig {
        accounts: 32,
        seed: s.net_seed,
        ..WorkloadConfig::default()
    });
    // Left on: nothing else in this binary reads the flag, and the
    // collectors are per thread.
    icistrategy::telemetry::set_enabled(true);

    // Heights no certificate has hashed since their last write.
    let mut unverified: BTreeSet<Height> = BTreeSet::new();
    unverified.insert(0);
    for (round_index, round) in plan.rounds().iter().enumerate() {
        for node in &round.restarts {
            net.recover_node(*node).map_err(|e| format!("{e:?}"))?;
        }
        for node in &round.crashes {
            net.crash_node(*node).map_err(|e| format!("{e:?}"))?;
        }
        // A cluster below quorum refuses the round; the batch is lost,
        // which this property does not care about.
        if net.propose_block(workload.batch(s.txs_per_block)).is_ok() {
            unverified.insert(net.chain_len() - 1);
        }
        let affected: BTreeSet<ClusterId> = round
            .crashes
            .iter()
            .chain(&round.restarts)
            .map(|n| net.membership().cluster_of(*n))
            .collect();

        for cluster in affected {
            let at = format!("round {round_index} {cluster}");
            // What the reference planner makes of the cluster as it
            // stands, over BTreeSet copies of the holdings.
            let live: BTreeSet<NodeId> = net.live_members(cluster).into_iter().collect();
            let mut reference = RefHoldings::new();
            for (member, height) in replicas_of(&net, cluster) {
                reference.entry(member).or_default().insert(height);
            }
            let chain: Vec<BlockRef> = (0..net.chain_len())
                .map(|h| BlockRef {
                    id: net.block(h).expect("committed").id(),
                    height: h,
                    body_bytes: body_len(&net, h),
                })
                .collect();
            let want = reference_plan_recovery(
                &chain,
                &reference,
                &live,
                &Assignment::Rendezvous,
                s.replication,
            );

            let before = replicas_of(&net, cluster);
            let ((repair, certificate), trees) =
                trees_derived_by(|| net.repair_and_certify(cluster));
            let after = replicas_of(&net, cluster);
            if !before.is_subset(&after) {
                return Err(format!("{at}: a repair dropped a replica"));
            }
            let written: BTreeSet<(NodeId, Height)> = after.difference(&before).copied().collect();

            // The repair report, rebuilt from the reference plan.
            let planned: BTreeSet<(NodeId, Height)> = want
                .transfers
                .iter()
                .map(|t| (t.destination, t.height))
                .collect();
            let fetched: BTreeSet<Height> = repair.cross_cluster_fetches.iter().copied().collect();
            let mut not_local = repair.cross_cluster_fetches.clone();
            not_local.extend(&repair.unrecoverable);
            not_local.sort_unstable();
            let local_writes: BTreeSet<(NodeId, Height)> = written
                .iter()
                .filter(|(_, h)| !fetched.contains(h))
                .copied()
                .collect();
            if repair.cluster != cluster.get()
                || repair.transfers != want.transfers.len()
                || local_writes != planned
                || not_local != want.unrecoverable
                || repair.bytes != written.iter().map(|(_, h)| body_len(&net, *h)).sum::<u64>()
                || fetched
                    .iter()
                    .any(|h| !written.iter().any(|(n, w)| w == h && live.contains(n)))
            {
                return Err(format!(
                    "{at}: repair {repair:?} wrote {written:?}; reference plan {want:?}"
                ));
            }

            // The certificate is the stand-alone audit, field for field.
            let oracle = net.merkle_audit(cluster);
            if certificate != oracle {
                return Err(format!(
                    "{at}: certificate {certificate:?} vs audit {oracle:?}"
                ));
            }

            // It hashed what was written since the last certificate
            // that could see it — this repair's writes, the new height —
            // and nothing else.
            unverified.extend(written.iter().map(|(_, h)| *h));
            let hashed: Vec<Height> = unverified
                .iter()
                .copied()
                .filter(|h| !certificate.missing.contains(h))
                .collect();
            if trees != hashed.len() as u64 {
                return Err(format!(
                    "{at}: {trees} trees derived, owed {hashed:?} (repair wrote {written:?})"
                ));
            }
            for h in hashed {
                unverified.remove(&h);
            }
        }
    }

    // The final ruling is from scratch: every held height, whatever the
    // certificates remembered.
    let (audits, trees) = trees_derived_by(|| net.merkle_audit_all());
    let held = (0..net.chain_len())
        .filter(|h| audits.iter().any(|a| !a.missing.contains(h)))
        .count();
    if trees != held as u64 {
        return Err(format!("final audit derived {trees} trees of {held} held"));
    }
    Ok(())
}

#[test]
fn every_round_certificate_equals_the_stand_alone_audit() {
    require_pass(check(
        "certificates and repairs match their references after every round",
        &cfg(0xCE27, CASES / 2),
        gen_fault_scenario,
        certificates_match_the_references,
    ));
}
