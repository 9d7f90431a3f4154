//! `ici_churn`: the lifecycle under the `e_fault` fault profile.
//!
//! It uses the same lifecycle differently from the other workloads:
//! sequential staged proposals, per-voter forks under message faults,
//! and repair plus a Merkle audit every round. It carries the refusal
//! share (rounds skipped under injected faults), and it exposes that
//! the cost of a round grows with the length of the chain.
//!
//! The timed region is one call, `run_ici_under_faults`, which builds
//! its own network; set-up is therefore measured on an identical
//! network and fault plan built beforehand. A skipped round is an
//! operation refused under an injected fault (its batch is retried
//! next round), not a failed one.

use std::time::Instant;

use super::{lifecycle, sized, timed, Checks, Ledger, Rep};
use crate::recorder::{Phase, Recorder};
use crate::surface::{self, ChurnOutcome, Deployment, IciNet, StreamSpec};

const DEPLOYMENT: Deployment = Deployment {
    nodes: 128,
    cluster_size: 16,
    replication: 2,
    accounts: 256,
};

const STREAM: StreamSpec = StreamSpec {
    accounts: 256,
    zipf: 1.0,
    payload: 200,
    fee_jitter: 0,
};

const TXS_PER_ROUND: usize = 40;

/// The campaign is one fixed scenario: fault plan and transaction
/// stream are seeded like the deployment, not by `--seed`. Which
/// rounds are refused, which nodes crash and how much is repaired all
/// follow from the schedule and from leader elections over block ids,
/// so any variation of either moved every per-operation count by 6 to
/// 14 % between seeds (measured), several times the regression bound
/// on allocations. `--seed` therefore only picks the nodes the traced
/// pass crashes for its end-state probes.
const CAMPAIGN_SEED: u64 = surface::DEPLOYMENT_SEED;

fn rounds(smoke: bool) -> usize {
    sized(60, 8, smoke)
}

/// One repetition over `rounds` rounds.
fn rep_of(rounds: usize, checks: Checks) -> Result<(Rep, IciNet, ChurnOutcome), String> {
    let mut rep = Rep::default();
    let start = Instant::now();
    let preview = surface::ici_new(DEPLOYMENT);
    surface::fault_plan_build(&preview, CAMPAIGN_SEED, rounds)?;
    rep.setup_s = start.elapsed().as_secs_f64();
    drop(preview);

    let (net, outcome) = timed(&mut rep, || {
        surface::run_under_faults(
            DEPLOYMENT,
            STREAM,
            CAMPAIGN_SEED,
            CAMPAIGN_SEED,
            rounds,
            TXS_PER_ROUND,
        )
    })?;
    rep.ops = outcome.rounds;
    rep.refused = outcome.skipped_rounds;
    rep.simulated = lifecycle::simulated(&net, rep.ops);
    rep.simulated.witness = format!(
        "{} plan={:016x}",
        rep.simulated.witness, outcome.plan_fingerprint
    );
    rep.txs = surface::ici_readout(&net).txs;

    if outcome.unrecoverable_heights != 0 {
        return Err(format!(
            "{} heights were lost for good",
            outcome.unrecoverable_heights
        ));
    }
    if outcome.safety_breaches != 0 {
        return Err(format!("{} safety breaches", outcome.safety_breaches));
    }
    if !outcome.final_audit_clean {
        return Err("final Merkle audit failed".into());
    }
    if checks == Checks::Full {
        if !surface::merkle_audit_all(&net) {
            return Err("Merkle audit of the end state is not clean".into());
        }
        surface::check_chain_replays(&net)?;
    }
    Ok((rep, net, outcome))
}

pub fn rep(smoke: bool, checks: Checks) -> Result<Rep, String> {
    rep_of(rounds(smoke), checks).map(|(rep, _, _)| rep)
}

/// Crashes one live member of every cluster, chosen by `salt`.
fn crash_one_per_cluster(net: &mut IciNet, salt: u64) -> Vec<(usize, surface::Node)> {
    let victims: Vec<_> = surface::live_clusters(net)
        .into_iter()
        .enumerate()
        .filter(|(_, members)| members.len() > 1)
        .map(|(c, members)| (c, members[(salt as usize + c) % members.len()]))
        .collect();
    for (_, victim) in &victims {
        surface::crash(net, *victim);
    }
    victims
}

/// The traced pass. The fault run is a black box, so its span is one
/// `sim` interval; the layers under it are measured on its end state,
/// after crashing a seeded node set.
pub fn traced(
    seed: u64,
    smoke: bool,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<Rep, String> {
    let rounds = rounds(smoke);
    // Per-round cost at a quarter of the rounds against the full run:
    // 1.0 would mean a round costs the same however long the chain is.
    // The first run also warms the process; it is thrown away.
    let quarter = (rounds / 4).max(4);
    rep_of(quarter, Checks::Light)?;
    let (short, _, _) = rep_of(quarter, Checks::Light)?;
    let (untraced, _, _) = rep_of(rounds, Checks::Light)?;
    ledger.set(
        "sim.fault_round_growth",
        (untraced.wall_s / rounds as f64) / (short.wall_s / quarter as f64),
    );

    rec.set_phase(Phase::Op);
    rec.set_op(1);
    let span = rec.enter("sim.fault_run");
    let (rep, mut net, outcome) = rep_of(rounds, Checks::Full)?;
    rec.exit(span);
    ledger.set(
        "bench.trace_overhead_share",
        rep.wall_s / untraced.wall_s - 1.0,
    );
    ledger.set(
        "faults.recovery_success_share",
        if outcome.recovery_attempts == 0 {
            1.0
        } else {
            outcome.recovery_successes as f64 / outcome.recovery_attempts as f64
        },
    );
    ledger.set(
        "faults.repair_kib_per_crash",
        outcome.repair_bytes as f64 / 1024.0 / outcome.crash_events.max(1) as f64,
    );
    lifecycle::traffic_rows(&net, rep.ops, ledger);

    rec.set_phase(Phase::Probe);
    rec.set_op(0);
    let preview = surface::ici_new(DEPLOYMENT);
    for _ in 0..5 {
        rec.time("faults.plan_build_ms", || {
            surface::fault_plan_build(&preview, CAMPAIGN_SEED, rounds)
        })?;
    }
    let heights = surface::chain_len(&net);
    for salt in 0..5 {
        let victims = crash_one_per_cluster(&mut net, seed.wrapping_add(salt));
        for _ in 0..4 {
            rec.time("storage.audit_all_us", || surface::audit_all(&net));
        }
        for (cluster, victim) in &victims {
            rec.time("storage.plan_recovery_us", || {
                surface::plan_cluster_recovery(&net, *cluster, *victim, heights)
            });
        }
        rec.time("core.repair_all_ms", || surface::repair_all(&mut net));
        if !rec.time("core.merkle_audit_all_ms", || {
            surface::merkle_audit_all(&net)
        }) {
            return Err("Merkle audit after repair is not clean".into());
        }
        for (_, victim) in victims {
            surface::recover(&mut net, victim);
        }
    }
    Ok(rep)
}
