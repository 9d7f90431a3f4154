//! `ici_read`: reads beside writes on the same `core` and `storage`
//! structures.
//!
//! Set-up commits a chain, then crashes one node in eight without
//! repairing: three members in every even cluster, one in every odd
//! one. With two replicas a body, the odd clusters keep every body on
//! a live member; the even ones lose some, so reads there fall through
//! to another cluster and all three query tiers are hit. Joins go to
//! the clusters that are still whole, because a join into a cluster
//! that lost a body cannot complete and the workloads are chosen so
//! that no operation fails.

use std::time::Instant;

use super::{sized, timed, Ledger, OpClock, Rep, Simulated};
use crate::recorder::{Phase, Recorder};
use crate::stats;
use crate::surface::{self, Deployment, Hash, IciNet, Node, ProvenTx, StreamSpec, Tier};

const DEPLOYMENT: Deployment = Deployment {
    nodes: 256,
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

const TXS_PER_BLOCK: usize = 40;

/// Of a hundred operations: transaction proofs and joins; the other
/// 85 are body queries.
const TX_SHARE: usize = 10;
const JOIN_SHARE: usize = 5;

struct Sizes {
    chain_blocks: usize,
    ops: usize,
}

fn sizes(smoke: bool) -> Sizes {
    Sizes {
        chain_blocks: sized(300, 15, smoke),
        ops: sized(800, 40, smoke),
    }
}

enum Op {
    Body { requester: Node, height: u64 },
    Tx { requester: Node, id: Hash },
    Join { at: (f64, f64) },
}

/// Crashes `3, 1, 3, 1, ...` members per cluster, drawn by `rng`.
/// Returns the nodes still up.
fn crash_one_in_eight(net: &mut IciNet, rng: &mut surface::Rng) -> Vec<Node> {
    for (c, mut members) in surface::live_clusters(net).into_iter().enumerate() {
        let quota = if c % 2 == 0 { 3 } else { 1 };
        for _ in 0..quota.min(members.len().saturating_sub(1)) {
            let pick = surface::rng_below(rng, members.len() as u64) as usize;
            surface::crash(net, members.swap_remove(pick));
        }
    }
    surface::all_nodes(net)
        .into_iter()
        .filter(|n| surface::is_up(net, *n))
        .collect()
}

/// The operation schedule: exact shares of each kind, in seeded order.
/// The seed draws who asks and for what, but not how much work the
/// schedule is: locating a transaction scans the chain from genesis,
/// so a proof costs its height, and one proof is drawn from each of
/// as many equal strata of the chain as there are proofs; joins go
/// round the whole clusters in turn.
fn schedule(
    net: &IciNet,
    live: &[Node],
    sizes: &Sizes,
    rng: &mut surface::Rng,
) -> Result<Vec<Op>, String> {
    let whole: Vec<usize> = surface::intact_clusters(net)
        .into_iter()
        .filter(|c| c % 2 == 1)
        .collect();
    if whole.len() != DEPLOYMENT.nodes / DEPLOYMENT.cluster_size / 2 {
        return Err(format!(
            "only clusters {whole:?} are whole after the crashes"
        ));
    }
    let proofs = sizes.ops * TX_SHARE / 100;
    let joins = sizes.ops * JOIN_SHARE / 100;
    let bodies = sizes.ops - proofs - joins;
    let below = |rng: &mut surface::Rng, n: usize| surface::rng_below(rng, n as u64) as usize;

    let mut ops = Vec::with_capacity(sizes.ops);
    for _ in 0..bodies {
        ops.push(Op::Body {
            requester: live[below(rng, live.len())],
            height: 1 + below(rng, sizes.chain_blocks) as u64,
        });
    }
    for stratum in 0..proofs {
        let low = stratum * sizes.chain_blocks / proofs;
        let high = ((stratum + 1) * sizes.chain_blocks / proofs).max(low + 1);
        let block = surface::block_at(net, 1 + (low + below(rng, high - low)) as u64);
        let index = below(rng, surface::block_tx_count(block));
        ops.push(Op::Tx {
            requester: live[below(rng, live.len())],
            id: surface::tx_id(surface::block_tx(block, index)),
        });
    }
    for join in 0..joins {
        ops.push(Op::Join {
            at: surface::cluster_centroid(net, whole[join % whole.len()]),
        });
    }
    surface::rng_shuffle(rng, &mut ops);
    Ok(ops)
}

/// Counts by query tier and join bytes, for the ledger.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    body_queries: u64,
    local: u64,
    cross: u64,
    join_bytes: u64,
}

pub fn rep(seed: u64, smoke: bool, rec: &mut Recorder) -> Result<(Rep, Tally), String> {
    let sizes = sizes(smoke);
    let mut rep = Rep::default();
    let start = Instant::now();
    let mut net = surface::ici_new(DEPLOYMENT);
    let batches = surface::tx_batches(STREAM, seed, sizes.chain_blocks, TXS_PER_BLOCK);
    surface::propose_pipelined(&mut net, batches, || {})?;
    let mut rng = surface::rng(seed);
    let live = crash_one_in_eight(&mut net, &mut rng);
    let ops = schedule(&net, &live, &sizes, &mut rng)?;
    rep.setup_s = start.elapsed().as_secs_f64();

    let before = surface::ici_readout(&net);
    let mut latencies_us = Vec::with_capacity(ops.len());
    let mut proven: Vec<ProvenTx> = Vec::new();
    let mut tally = Tally::default();
    let mut txs = 0u64;
    rec.set_phase(Phase::Op);
    // The workload is chosen so that no operation fails: the first
    // error ends the run.
    rep.op_ns = timed(&mut rep, || {
        let mut clock = OpClock::start(ops.len());
        for (i, op) in ops.iter().enumerate() {
            rec.set_op(i as u64 + 1);
            let served = match op {
                Op::Body { requester, height } => rec
                    .time("core.query_body_us", || {
                        surface::query_body(&mut net, *requester, *height)
                    })
                    .inspect(|served| {
                        tally.body_queries += 1;
                        tally.local += u64::from(served.tier == Some(Tier::Local));
                        tally.cross += u64::from(served.tier == Some(Tier::CrossCluster));
                    }),
                Op::Tx { requester, id } => rec
                    .time("core.query_tx_ms", || {
                        surface::query_transaction(&mut net, *requester, id)
                    })
                    .map(|p| {
                        let served = p.served().clone();
                        proven.push(p);
                        served
                    }),
                Op::Join { at } => rec
                    .time("core.bootstrap_ms", || {
                        surface::bootstrap_node(&mut net, *at)
                    })
                    .inspect(|served| tally.join_bytes += served.bytes),
            }
            .map_err(|e| format!("operation {} of {} failed: {e}", i + 1, ops.len()))?;
            latencies_us.push(served.latency_us);
            txs += served.txs;
            clock.lap();
        }
        Ok::<_, String>(vec![clock.op_ns])
    })?;
    rep.txs = txs;
    rep.ops = ops.len() as u64;
    for p in &proven {
        surface::check_proof(&net, p)?;
    }

    let after = surface::ici_readout(&net);
    let mut sim = Simulated {
        witness: format!("{} {tally:?}", after.tip),
        ..Simulated::default()
    };
    sim.set_latencies(&latencies_us);
    sim.set_traffic(
        after.messages - before.messages,
        after.bytes - before.bytes,
        rep.ops,
    );
    rep.simulated = sim;
    Ok((rep, tally))
}

pub fn traced(
    seed: u64,
    smoke: bool,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<Rep, String> {
    let mut walls = Vec::new();
    for _ in 0..2 {
        let (untraced, _) = rep(seed, smoke, &mut Recorder::new(false))?;
        walls.push(untraced.wall_s);
    }
    let (rep, tally) = rep(seed, smoke, rec)?;
    ledger.set(
        "bench.trace_overhead_share",
        rep.wall_s / stats::median(&walls) - 1.0,
    );
    for (name, n) in [
        ("core.body_queries", tally.body_queries),
        ("core.body_queries_local", tally.local),
        ("core.body_queries_cross_cluster", tally.cross),
        ("net.join_bytes", tally.join_bytes),
    ] {
        rec.count(name, n);
    }
    let queries = tally.body_queries.max(1) as f64;
    ledger.set("core.query_local_share", tally.local as f64 / queries);
    ledger.set("core.query_cross_share", tally.cross as f64 / queries);
    ledger.set(
        "net.bootstrap_kib_per_op",
        tally.join_bytes as f64 / 1024.0 / rep.ops as f64,
    );

    // `Membership::join` alone, on the deployment's cluster map: the
    // part of a join that is not the download.
    rec.set_phase(Phase::Probe);
    rec.set_op(0);
    let net = surface::ici_new(DEPLOYMENT);
    let (mut membership, mut topology) = surface::membership_of(&net);
    let clusters = DEPLOYMENT.nodes / DEPLOYMENT.cluster_size;
    for i in 0..200 {
        let at = surface::cluster_centroid(&net, i % clusters);
        rec.time("cluster.join_us", || {
            surface::membership_join(&mut membership, &mut topology, at)
        });
    }
    Ok(rep)
}
