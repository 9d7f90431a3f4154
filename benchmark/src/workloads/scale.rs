//! `state_scale`: the `e_scale --paper` loop with its inputs generated
//! beforehand. No network and no consensus at all: it isolates the
//! sharded world state, the lattice commitment and the indexed
//! mempool, and it is the only workload whose working set (about
//! 216 MiB live at a million accounts) dwarfs every cache, so it
//! carries the memory number.

use std::time::Instant;

use super::{sized, timed, Checks, Ledger, Rep, Simulated};
use crate::recorder::{Phase, Recorder};
use crate::surface::{self, Admission, StreamSpec};

struct Sizes {
    accounts: u64,
    rounds: usize,
    /// Transactions offered per round outside bursts; also the block size.
    base: usize,
    /// Mempool capacity: twice a block, so bursts overrun it and the
    /// fee market (replace, evict, reject) is exercised.
    pool: usize,
}

/// Every `BURST_EVERY`-th round offers `BURST_MULTIPLIER` blocks' worth.
const BURST_EVERY: u64 = 8;
const BURST_MULTIPLIER: usize = 3;

fn sizes(smoke: bool) -> Sizes {
    let base = sized(1_000, 50, smoke);
    Sizes {
        accounts: sized(1_000_000, 50_000, smoke) as u64,
        rounds: sized(32, 8, smoke),
        base,
        pool: base * 2,
    }
}

fn stream(accounts: u64) -> StreamSpec {
    StreamSpec {
        accounts,
        zipf: 1.1,
        payload: 64,
        fee_jitter: 9,
    }
}

/// Counts taken at the loop's boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    offered: u64,
    admitted: u64,
    skipped: u64,
    evicted: u64,
    dirty_buckets: u64,
    rounds: u64,
}

/// One repetition of the loop; spans go to `rec` when it is enabled.
pub fn rep(
    seed: u64,
    smoke: bool,
    checks: Checks,
    rec: &mut Recorder,
) -> Result<(Rep, Counts), String> {
    let sizes = sizes(smoke);
    let mut rep = Rep::default();
    let start = Instant::now();
    let genesis = surface::scale_genesis(sizes.accounts);
    // Two independently built states (proposer, validator): a clone
    // would share its shards and pay for the copy inside the loop.
    let mut proposer = genesis.state();
    let mut validator = genesis.state();
    let rounds = surface::traffic_rounds(
        stream(sizes.accounts),
        seed,
        sizes.rounds,
        sizes.base,
        BURST_EVERY,
        BURST_MULTIPLIER,
    );
    let mut pool = surface::pool_new(sizes.pool);
    let collector = surface::scale_collector();
    // Both states start with their bucket roots computed, as after
    // any earlier block.
    let mut parent = genesis.genesis_header(&mut proposer);
    surface::state_root_v2(&mut validator);
    let mut blocks = Vec::with_capacity(sizes.rounds);
    rep.setup_s = start.elapsed().as_secs_f64();

    let mut counts = Counts::default();
    let mut op_ns = Vec::with_capacity(sizes.rounds);
    let mut txs = 0u64;
    rec.set_phase(Phase::Op);
    timed(&mut rep, || {
        for (round, offered) in rounds.into_iter().enumerate() {
            rec.set_op(round as u64 + 1);
            let op = rec.enter("bench.scale_round");

            let n = offered.len() as u64;
            let span = rec.enter("chain.mempool_insert_ns");
            for tx in offered {
                if surface::pool_insert(&mut pool, tx) == Admission::Admitted {
                    counts.admitted += 1;
                }
            }
            rec.exit_calls(span, n);
            counts.offered += n;

            // `apply` is atomic per transaction, so one invalidated by
            // the eviction of its predecessor (a nonce gap) is skipped.
            let pending = rec.time("chain.mempool_take_us", || {
                surface::pool_take(&mut pool, sizes.base)
            });
            let n = pending.len() as u64;
            let mut included = Vec::with_capacity(pending.len());
            let span = rec.enter("chain.state_apply_ns");
            for tx in pending {
                if surface::state_apply(&mut proposer, &tx, collector) {
                    included.push(tx);
                } else {
                    counts.skipped += 1;
                }
            }
            rec.exit_calls(span, n);
            counts.dirty_buckets += surface::state_dirty_buckets(&proposer) as u64;

            let root = rec.time("chain.state_root_v2_us", || {
                surface::state_root_v2(&mut proposer)
            });
            let block = rec.time("chain.block_new", || {
                surface::block_new(&parent, root, included)
            });

            // The per-block cost a deployed verifier pays: the operation.
            let begin = Instant::now();
            rec.time("chain.validate_in_place_us", || {
                surface::validate_in_place_v2(&block, &parent, &mut validator)
            })
            .map_err(|e| format!("round {round}: own block failed validation: {e}"))?;
            op_ns.push(begin.elapsed().as_nanos() as f64);

            let n = surface::block_tx_count(&block);
            let span = rec.enter("chain.mempool_prune_ns");
            for i in 0..n {
                surface::pool_prune(&mut pool, surface::block_tx(&block, i));
            }
            rec.exit_calls(span, n as u64);
            txs += n as u64;
            parent = surface::block_header(&block);
            blocks.push(block);
            rec.exit(op);
        }
        Ok::<(), String>(())
    })?;
    counts.rounds = sizes.rounds as u64;
    counts.evicted = surface::pool_evicted(&pool);
    rep.ops = counts.rounds;
    rep.txs = txs;
    rep.op_ns = vec![op_ns];

    if proposer != validator {
        return Err("proposer and validator states diverged".into());
    }
    if surface::state_supply(&proposer) != genesis.supply() {
        return Err("supply not conserved".into());
    }
    if checks == Checks::Full {
        genesis.check_flat_replay(&blocks, &mut proposer)?;
    }
    rep.simulated = Simulated {
        witness: format!(
            "{} {counts:?}",
            surface::hash_hex(&surface::state_root_v2(&mut proposer))
        ),
        ..Simulated::default()
    };
    Ok((rep, counts))
}

/// The traced pass: the same loop with the recorder on, an untraced
/// repetition to price the tracing, and the generator probe.
pub fn traced(
    seed: u64,
    smoke: bool,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<Rep, String> {
    let (untraced, _) = rep(seed, smoke, Checks::Light, &mut Recorder::new(false))?;
    let (rep, counts) = rep(seed, smoke, Checks::Full, rec)?;
    ledger.set(
        "bench.trace_overhead_share",
        rep.wall_s / untraced.wall_s - 1.0,
    );
    let rounds = counts.rounds as f64;
    ledger.set(
        "chain.dirty_buckets_per_op",
        counts.dirty_buckets as f64 / rounds,
    );
    ledger.set(
        "chain.mempool_admit_share",
        counts.admitted as f64 / counts.offered as f64,
    );
    ledger.set(
        "chain.mempool_evictions_per_op",
        counts.evicted as f64 / rounds,
    );
    for (name, n) in [
        ("chain.mempool_offered", counts.offered),
        ("chain.mempool_admitted", counts.admitted),
        ("chain.mempool_evicted", counts.evicted),
        ("chain.nonce_gap_skips", counts.skipped),
        ("chain.dirty_buckets", counts.dirty_buckets),
    ] {
        rec.count(name, n);
    }

    rec.set_phase(Phase::Probe);
    rec.set_op(0);
    let mut generator = surface::tx_generator(stream(sizes(smoke).accounts), seed ^ 0x7E57);
    const BATCH: u64 = 100;
    for _ in 0..100 {
        rec.time_calls("workload.tx_gen_ns_1m", BATCH, || {
            for _ in 0..BATCH {
                std::hint::black_box(surface::next_tx(&mut generator));
            }
        });
    }
    Ok(rep)
}
