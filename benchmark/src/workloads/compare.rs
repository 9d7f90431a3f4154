//! `strategy_compare`: the paper's comparison. ICI, full replication
//! and RapidChain commit the same number of blocks of the same
//! transaction stream at the E1/E7 parameter ratio
//! (`shards · r / c = 0.25`), which is where the abstract's "25 % of
//! RapidChain's storage" is read. It is the only workload that runs
//! `baselines`, IDA with Reed–Solomon, and the gossip flood.

use std::time::Instant;

use super::{lifecycle, sized, timed, Checks, Ledger, OpClock, Rep};
use crate::recorder::{Phase, Recorder};
use crate::surface::{self, Deployment, FullNet, IciNet, RapidNet, StreamSpec};

const DEPLOYMENT: Deployment = Deployment {
    nodes: 512,
    cluster_size: 16,
    replication: 1,
    accounts: 256,
};

/// RapidChain committee size: 512 / 128 = 4 shards, and 4 · 1 / 16 = 0.25.
const COMMITTEE: usize = 128;

const STREAM: StreamSpec = StreamSpec {
    accounts: 256,
    zipf: 1.0,
    payload: 200,
    fee_jitter: 0,
};

const TXS_PER_BLOCK: usize = 40;

/// The abstract's 0.25, with room for header overhead at small blocks.
const STORAGE_RATIO_RANGE: std::ops::RangeInclusive<f64> = 0.20..=0.35;

/// Blocks each strategy commits (RapidChain: a quarter as many rounds
/// on each of its four shards).
fn blocks(smoke: bool) -> usize {
    sized(120, 8, smoke)
}

/// The three finished deployments.
pub struct Nets {
    ici: IciNet,
    full: FullNet,
    rapid: RapidNet,
}

/// One repetition. With `rec` enabled ICI runs through the staged
/// entry point and every baseline block is a span.
pub fn run(
    seed: u64,
    smoke: bool,
    checks: Checks,
    rec: &mut Recorder,
) -> Result<(Rep, Nets), String> {
    let blocks = blocks(smoke);
    let mut rep = Rep::default();
    let start = Instant::now();
    let mut ici = surface::ici_new(DEPLOYMENT);
    let mut full = surface::full_new(DEPLOYMENT.nodes, DEPLOYMENT.accounts);
    let mut rapid = surface::rapid_new(DEPLOYMENT.nodes, COMMITTEE, DEPLOYMENT.accounts);
    let shards = surface::rapid_shards(&rapid);
    let batches = surface::tx_batches(STREAM, seed, blocks, TXS_PER_BLOCK);
    let full_batches = batches.clone();
    let rounds = surface::shard_batches(STREAM, seed, shards, blocks / shards, TXS_PER_BLOCK);
    rep.setup_s = start.elapsed().as_secs_f64();

    let mut staged = Rep::default();
    rec.set_phase(Phase::Op);
    // One group of per-block times per strategy.
    rep.op_ns = timed(&mut rep, || {
        let mut ici_clock = OpClock::start(blocks);
        if rec.enabled() {
            lifecycle::staged_run(&mut ici, batches, rec, &mut staged)?;
        } else {
            surface::propose_pipelined(&mut ici, batches, || ici_clock.lap())?;
        }
        let mut op = blocks as u64;
        let mut full_clock = OpClock::start(blocks);
        for batch in full_batches {
            op += 1;
            rec.set_op(op);
            rec.time("baselines.full_block_us", || {
                surface::full_propose(&mut full, batch)
            })?;
            full_clock.lap();
        }
        let mut rapid_clock = OpClock::start(blocks / shards);
        for round in rounds {
            op += 1;
            rec.set_op(op);
            rec.time("baselines.rapidchain_round_us", || {
                surface::rapid_propose_round(&mut rapid, round)
            })?;
            rapid_clock.lap();
        }
        // A RapidChain round commits one block on every shard.
        let per_block = |round_ns: f64| round_ns / shards as f64;
        Ok::<_, String>(vec![
            ici_clock.op_ns,
            full_clock.op_ns,
            rapid_clock.op_ns.into_iter().map(per_block).collect(),
        ])
    })?;

    let (ici_out, full_out, rapid_out) = (
        surface::ici_readout(&ici),
        surface::full_readout(&full),
        surface::rapid_readout(&rapid),
    );
    let expected = blocks as u64;
    if (ici_out.blocks, full_out.blocks, rapid_out.blocks) != (expected, expected, expected) {
        return Err(format!(
            "committed blocks ICI {} full {} RapidChain {}, expected {expected} each",
            ici_out.blocks, full_out.blocks, rapid_out.blocks
        ));
    }
    if ici_out.txs != full_out.txs || ici_out.txs != rapid_out.txs {
        return Err("the three strategies committed different transaction counts".into());
    }
    rep.ops = 3 * expected;
    rep.txs = ici_out.txs + full_out.txs + rapid_out.txs;

    // The simulated metrics are those of the strategy under test, ICI.
    rep.simulated = lifecycle::simulated(&ici, expected);
    let ratio = ici_out.storage_mean_bytes / rapid_out.storage_mean_bytes;
    if !STORAGE_RATIO_RANGE.contains(&ratio) {
        return Err(format!(
            "storage_vs_rapidchain = {ratio:.4}, outside {STORAGE_RATIO_RANGE:?}"
        ));
    }
    rep.simulated.storage_vs_rapidchain = Some(ratio);
    rep.simulated.witness = format!("{} {} {}", ici_out.tip, full_out.tip, rapid_out.tip);

    if checks == Checks::Full {
        surface::check_chain_replays(&ici)?;
        surface::check_clusters_intact(&ici)?;
        surface::check_full_replays(&full)?;
        surface::check_rapid_replays(&rapid)?;
    }
    Ok((rep, Nets { ici, full, rapid }))
}

pub fn rep(seed: u64, smoke: bool, checks: Checks) -> Result<(Rep, Nets), String> {
    run(seed, smoke, checks, &mut Recorder::new(false))
}

pub fn traced(
    seed: u64,
    smoke: bool,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<Rep, String> {
    let threads = surface::par_threads();
    surface::set_serial(true, threads);
    let (untraced, _) = rep(seed, smoke, Checks::Light)?;
    let (rep, nets) = run(seed, smoke, Checks::Full, rec)?;
    ledger.set(
        "bench.trace_overhead_share",
        rep.wall_s / untraced.wall_s - 1.0,
    );

    let (full_out, rapid_out) = (
        surface::full_readout(&nets.full),
        surface::rapid_readout(&nets.rapid),
    );
    ledger.set(
        "baselines.full_storage_fraction",
        full_out.storage_mean_bytes / full_out.ledger_bytes as f64,
    );
    ledger.set(
        "baselines.rapidchain_storage_fraction",
        rapid_out.storage_mean_bytes / rapid_out.ledger_bytes as f64,
    );
    let blocks = blocks(smoke);
    lifecycle::traffic_rows(&nets.ici, blocks as u64, ledger);
    let batches = surface::tx_batches(STREAM, seed, blocks, TXS_PER_BLOCK);
    lifecycle::replay_layers(
        DEPLOYMENT,
        &batches,
        &nets.ici,
        sized(30, 4, smoke),
        false,
        rec,
        ledger,
    )?;

    // What only the baselines run, at this workload's block size and
    // population: the gossip flood, IDA, and the erasure code under it.
    rec.set_phase(Phase::Probe);
    rec.set_op(0);
    let everyone = surface::all_nodes(&nets.ici);
    let body = surface::encoded_body(&nets.ici, 1);
    let coder = surface::ida_coder();
    for height in 1..=blocks.min(40) as u64 {
        let body = surface::encoded_body(&nets.ici, height);
        let shards = rec.time("crypto.rs_encode_us_per_block", || {
            surface::rs_encode(&coder, &body)
        });
        if !rec.time("crypto.rs_reconstruct_us_per_block", || {
            surface::rs_reconstruct(&coder, &shards)
        }) {
            return Err("Reed-Solomon reconstruction failed within the parity budget".into());
        }
    }
    for _ in 0..10 {
        let mut sim = surface::sim_net(surface::topology_generate(DEPLOYMENT.nodes));
        let reached = rec.time("consensus.gossip_flood_ms_n512", || {
            surface::gossip(&mut sim, &everyone, body.len() as u64)
        });
        if reached < everyone.len() * 9 / 10 {
            return Err(format!(
                "gossip reached only {reached} of {} nodes",
                everyone.len()
            ));
        }
        let mut sim = surface::sim_net(surface::topology_generate(DEPLOYMENT.nodes));
        rec.time("consensus.ida_ms_c128", || {
            surface::ida_disseminate(&mut sim, &everyone[..COMMITTEE], body.len() as u64)
        });
    }
    surface::set_serial(false, threads);
    Ok(rep)
}
