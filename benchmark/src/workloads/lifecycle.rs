//! `ici_wide` and `ici_bigblock`: the block lifecycle at two shapes
//! that mirror each other.
//!
//! `ici_wide` has many clusters and tiny blocks, so per block the
//! consensus vote rounds, owner assignment, leader election and
//! network fork/absorb dominate; `ici_bigblock` has few clusters and
//! heavy blocks, so block validation and building, the flat state
//! root, signature checks and Merkle hashing dominate. A consensus
//! optimisation should move the first and leave the second alone; a
//! crypto or codec optimisation the reverse.

use std::time::Instant;

use super::{sized, timed, Checks, Ledger, OpClock, Rep, Simulated};
use crate::recorder::{Phase, Recorder};
use crate::stats;
use crate::surface::{self, Batch, Deployment, IciNet, Stage, StreamSpec};

/// One lifecycle workload's shape.
pub struct Spec {
    pub deployment: Deployment,
    pub stream: StreamSpec,
    pub blocks: usize,
    pub txs: usize,
    /// Heights the traced pass replays layer by layer.
    replay_blocks: usize,
    /// Home of the consensus/net/cluster probes (`true`) or of the
    /// chain/crypto probes (`false`).
    wide: bool,
}

pub fn wide(smoke: bool) -> Spec {
    Spec {
        deployment: Deployment {
            nodes: 512,
            cluster_size: 16,
            replication: 2,
            accounts: 256,
        },
        stream: StreamSpec {
            accounts: 256,
            zipf: 1.0,
            payload: 200,
            fee_jitter: 0,
        },
        blocks: sized(300, 8, smoke),
        txs: 20,
        replay_blocks: sized(100, 4, smoke),
        wide: true,
    }
}

pub fn bigblock(smoke: bool) -> Spec {
    Spec {
        deployment: Deployment {
            nodes: 64,
            cluster_size: 16,
            replication: 2,
            accounts: 4_096,
        },
        stream: StreamSpec {
            accounts: 4_096,
            zipf: 1.0,
            payload: 200,
            fee_jitter: 0,
        },
        blocks: sized(48, 3, smoke),
        txs: 1_000,
        replay_blocks: sized(48, 3, smoke),
        wide: false,
    }
}

/// The simulated quantities of a finished ICI run over `ops` operations.
pub fn simulated(net: &IciNet, ops: u64) -> Simulated {
    let out = surface::ici_readout(net);
    let mut sim = Simulated {
        virt_tps: Some(out.txs as f64 / (out.final_clock_us as f64 / 1e6)),
        storage_fraction: Some(out.storage_mean_bytes / out.full_replica_bytes as f64),
        witness: out.tip,
        ..Simulated::default()
    };
    sim.set_latencies(&out.commit_latency_us);
    sim.set_traffic(out.messages, out.bytes, ops);
    sim
}

fn setup(spec: &Spec, seed: u64) -> (IciNet, Vec<Batch>) {
    let net = surface::ici_new(spec.deployment);
    let batches = surface::tx_batches(spec.stream, seed, spec.blocks, spec.txs);
    (net, batches)
}

/// One untraced repetition: the pipelined lifecycle at shipped defaults.
pub fn rep(spec: &Spec, seed: u64, checks: Checks) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let start = Instant::now();
    let (mut net, batches) = setup(spec, seed);
    rep.setup_s = start.elapsed().as_secs_f64();
    let kept = (checks == Checks::Full).then(|| batches.clone());

    rep.op_ns = timed(&mut rep, || {
        let mut clock = OpClock::start(spec.blocks);
        surface::propose_pipelined(&mut net, batches, || clock.lap())?;
        Ok::<_, String>(vec![clock.op_ns])
    })?;
    finish(spec, &net, &mut rep)?;
    if let Some(batches) = kept {
        surface::check_chain_replays(&net)?;
        surface::check_clusters_intact(&net)?;
        surface::check_network_verifies(spec.deployment, batches, &net)?;
    }
    Ok(rep)
}

/// Reads the run out into `rep` and checks every block committed.
fn finish(spec: &Spec, net: &IciNet, rep: &mut Rep) -> Result<(), String> {
    let out = surface::ici_readout(net);
    if out.blocks != spec.blocks as u64 {
        return Err(format!(
            "{} of {} blocks committed",
            out.blocks, spec.blocks
        ));
    }
    rep.ops = out.blocks;
    rep.txs = out.txs;
    rep.simulated = simulated(net, rep.ops);
    Ok(())
}

/// Drives the lifecycle one height at a time through the staged entry
/// point, stamping every stage boundary.
pub fn staged_run(
    net: &mut IciNet,
    batches: Vec<Batch>,
    rec: &mut Recorder,
    rep: &mut Rep,
) -> Result<(), String> {
    rec.set_phase(Phase::Op);
    timed(rep, || {
        for (i, batch) in batches.into_iter().enumerate() {
            rec.set_op(i as u64 + 1);
            let op = rec.enter("core.op_us");
            let begin = Instant::now();
            let mut stamps = [begin; 3];
            surface::propose_staged(net, batch, |finished| {
                stamps[match finished {
                    Stage::Built => 0,
                    Stage::Distributed => 1,
                    Stage::Verified => 2,
                }] = Instant::now();
            })?;
            let end = Instant::now();
            rec.push("core.build_us", begin, stamps[0]);
            rec.push("core.distribute_us", stamps[0], stamps[1]);
            rec.push("core.verify_us", stamps[1], stamps[2]);
            rec.push("core.commit_us", stamps[2], end);
            rec.exit(op);
        }
        Ok::<(), String>(())
    })
}

/// Replays the first `heights` committed blocks of `committed` through
/// the layer calls one block's lifecycle is made of, with the
/// lifecycle's multiplicities: per block one seal and one validation,
/// per cluster one leader election, two owner assignments, one network
/// fork, one PBFT commit and one absorb.
pub fn replay_layers(
    d: Deployment,
    batches: &[Batch],
    committed: &IciNet,
    heights: usize,
    collab_verify: bool,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<(), String> {
    rec.set_phase(Phase::Replay);
    let mut net = surface::ici_new(d);
    let mut sim = surface::sim_net(surface::topology_generate(d.nodes));
    let clusters = surface::live_clusters(&net);
    for (i, batch) in batches.iter().take(heights).enumerate() {
        let height = i as u64 + 1;
        rec.set_op(height);
        let candidate = surface::block_at(committed, height);
        let (parent, state) = surface::tip_and_state(&net);
        let parent_id = surface::block_id(surface::block_at(&net, height - 1));
        let id = surface::block_id(candidate);
        let body = surface::block_body_len(candidate);

        let block_span = rec.enter("bench.replay_block");
        let (build_state, build_batch) = (surface::state_clone(&state), batch.clone());
        let sealed = rec.time("chain.block_seal_us", || {
            surface::block_seal(&parent, build_state, build_batch)
        });
        if surface::block_tx_count(&sealed) != surface::block_tx_count(candidate) {
            return Err(format!(
                "height {height}: resealed block differs from the committed one"
            ));
        }
        if !rec.time("chain.block_validate_us", || {
            surface::block_validate(candidate, &parent, &state)
        }) {
            return Err(format!(
                "height {height}: committed block does not validate"
            ));
        }
        if collab_verify
            && !rec.time("core.collab_verify_us", || {
                surface::collaborative_verify(&net, 0, candidate)
            })
        {
            return Err(format!(
                "height {height}: cluster 0 rejects the committed block"
            ));
        }
        for (c, members) in clusters.iter().enumerate() {
            let leader = rec
                .time("consensus.elect_leader_ns", || {
                    surface::leader_of(&parent_id, height, members)
                })
                .ok_or("a cluster without members")?;
            rec.time_calls("storage.owners_ns_c16", 2, || {
                let home = surface::rendezvous_owners(&id, height, members, d.replication);
                let again = surface::rendezvous_owners(&id, height, members, d.replication);
                (home, again)
            });
            let mut fork = rec.time("net.fork", || surface::net_fork(&mut sim, c as u64));
            if !rec.time("consensus.pbft_commit_us_c16", || {
                surface::pbft_commit(&mut fork, members, leader, body)
            }) {
                return Err(format!(
                    "height {height}: cluster {c} reached no quorum on replay"
                ));
            }
            rec.time("net.absorb", || surface::net_absorb(&mut sim, fork));
        }
        rec.exit(block_span);
        surface::propose_block(&mut net, batch.clone())?;
    }
    if d.nodes == 512 {
        let pairs: Vec<f64> = rec
            .samples_ns("net.fork")
            .iter()
            .zip(rec.samples_ns("net.absorb"))
            .map(|(fork, absorb)| fork + absorb)
            .collect();
        ledger.set_timing("net.fork_absorb_us_n512", &pairs, 1e3);
    }
    Ok(())
}

/// Per-operation traffic by message class, from the run's meter.
pub fn traffic_rows(net: &IciNet, ops: u64, ledger: &mut Ledger) {
    let (mut votes, mut block_bytes, mut bootstrap_bytes) = (0u64, 0u64, 0u64);
    for (kind, messages, bytes) in surface::traffic_by_kind(surface::ici_sim_net(net)) {
        match kind {
            "vote" => votes += messages,
            "block-full" | "block-body" | "block-header" | "block-shard" => block_bytes += bytes,
            "bootstrap" => bootstrap_bytes += bytes,
            _ => {}
        }
    }
    ledger.set("net.vote_msgs_per_op", votes as f64 / ops as f64);
    ledger.set(
        "net.block_kib_per_op",
        block_bytes as f64 / 1024.0 / ops as f64,
    );
    ledger.set(
        "net.bootstrap_kib_per_op",
        bootstrap_bytes as f64 / 1024.0 / ops as f64,
    );
}

/// Median operations per second over `reps` untraced repetitions.
fn median_ops_per_s(spec: &Spec, seed: u64, reps: usize) -> Result<(f64, f64), String> {
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    for _ in 0..reps {
        let rep = rep(spec, seed, Checks::Light)?;
        rates.push(rep.ops as f64 / rep.wall_s);
        walls.push(rep.wall_s);
    }
    Ok((stats::median(&rates), stats::median(&walls)))
}

/// Repetitions behind each side of `par.speedup`.
const SPEEDUP_REPS: usize = 3;

/// The traced pass: `par.speedup` and the observability overheads from
/// untraced repetitions, then one staged run with spans, the layer
/// replay, and this workload's fixed-size probes.
pub fn traced(
    spec: &Spec,
    seed: u64,
    rec: &mut Recorder,
    ledger: &mut Ledger,
) -> Result<Rep, String> {
    let threads = surface::par_threads();
    let (parallel_rate, _) = median_ops_per_s(spec, seed, SPEEDUP_REPS)?;
    surface::set_serial(true, threads);
    let (serial_rate, serial_wall) = median_ops_per_s(spec, seed, SPEEDUP_REPS)?;
    ledger.set("par.speedup", parallel_rate / serial_rate);
    if spec.wide {
        for (name, switch) in [
            (
                "telemetry.enabled_overhead_share",
                surface::set_telemetry as fn(bool),
            ),
            (
                "trace.enabled_overhead_share",
                surface::set_trace as fn(bool),
            ),
        ] {
            switch(true);
            let observed = rep(spec, seed, Checks::Light);
            switch(false);
            ledger.set(name, observed?.wall_s / serial_wall - 1.0);
        }
    }

    // Still serial: the staged entry point is sequential by construction.
    let mut rep = Rep::default();
    let start = Instant::now();
    let (mut net, batches) = setup(spec, seed);
    rep.setup_s = start.elapsed().as_secs_f64();
    staged_run(&mut net, batches.clone(), rec, &mut rep)?;
    finish(spec, &net, &mut rep)?;
    ledger.set("bench.trace_overhead_share", rep.wall_s / serial_wall - 1.0);
    traffic_rows(&net, rep.ops, ledger);

    replay_layers(
        spec.deployment,
        &batches,
        &net,
        spec.replay_blocks,
        !spec.wide,
        rec,
        ledger,
    )?;
    rec.set_phase(Phase::Probe);
    rec.set_op(0);
    if spec.wide {
        probes_wide(spec, threads, rec, ledger);
    } else {
        probes_bigblock(&net, rec);
    }
    surface::set_serial(false, threads);
    Ok(rep)
}

/// Fixed-size probes of the layers `ici_wide` leans on.
fn probes_wide(spec: &Spec, threads: usize, rec: &mut Recorder, ledger: &mut Ledger) {
    let nodes = spec.deployment.nodes;
    let clusters = nodes / spec.deployment.cluster_size;
    for _ in 0..5 {
        rec.time("core.network_new_ms", || surface::ici_new(spec.deployment));
        let topology = rec.time("net.topology_generate_ms", || {
            surface::topology_generate(nodes)
        });
        rec.time("cluster.balanced_kmeans_ms_n512_k32", || {
            surface::balanced_kmeans_run(&topology, clusters)
        });
    }
    let topology = surface::topology_generate(nodes);
    ledger.set(
        "cluster.kmeans_iters",
        surface::balanced_kmeans_iters(&topology, clusters) as f64,
    );

    let mut sim = surface::sim_net(topology);
    const SENDS: u64 = 64;
    for round in 0..400u64 {
        rec.time_calls("net.send_ns", SENDS, || {
            for i in 0..SENDS {
                let from = surface::node((round + i) % nodes as u64);
                let to = surface::node((round + i * 7 + 1) % nodes as u64);
                std::hint::black_box(surface::net_send(&mut sim, from, to));
            }
        });
    }

    // The pool's cost over a plain loop on items too small to pay for it.
    const ITEMS: usize = 64;
    let mut pooled = Vec::new();
    let mut plain = Vec::new();
    surface::set_serial(false, threads);
    for _ in 0..200 {
        let t = Instant::now();
        std::hint::black_box(surface::par_map_trivial(ITEMS));
        pooled.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        std::hint::black_box(surface::plain_map_trivial(ITEMS));
        plain.push(t.elapsed().as_nanos() as f64);
    }
    ledger.set(
        "par.par_map_overhead_us",
        (stats::median(&pooled) - stats::median(&plain)) / 1e3,
    );
}

/// Fixed-size probes of the layers `ici_bigblock` leans on, on its own
/// transactions and state size.
fn probes_bigblock(net: &IciNet, rec: &mut Recorder) {
    let block = surface::block_at(net, 1);
    let txs: Vec<_> = (0..surface::block_tx_count(block))
        .map(|i| surface::block_tx(block, i).clone())
        .collect();
    let encoded: Vec<Vec<u8>> = txs.iter().map(surface::tx_encode).collect();

    let state = surface::state_with_accounts(4_096);
    for _ in 0..40 {
        rec.time("chain.state_root_v1_us_4096", || {
            surface::state_root_v1(&state)
        });
        rec.time("chain.state_clone_us_4096", || surface::state_clone(&state));
    }
    const BATCH: usize = 50;
    for (chunk, bytes) in txs.chunks(BATCH).zip(encoded.chunks(BATCH)) {
        rec.time_calls("chain.tx_encode_ns", chunk.len() as u64, || {
            for tx in chunk {
                std::hint::black_box(surface::tx_encode(tx));
            }
        });
        rec.time_calls("chain.tx_decode_ns", bytes.len() as u64, || {
            for b in bytes {
                std::hint::black_box(surface::tx_decode(b));
            }
        });
    }
    let case = surface::sig_case(&txs[0], 1);
    for _ in 0..200 {
        rec.time_calls("crypto.sig_verify_ns", BATCH as u64, || {
            for _ in 0..BATCH {
                std::hint::black_box(surface::sig_verify(&case));
            }
        });
        rec.time_calls("crypto.sig_sign_ns", BATCH as u64, || {
            for _ in 0..BATCH {
                std::hint::black_box(surface::sig_sign(&case));
            }
        });
    }
    let kib64 = vec![0xA5u8; 64 << 10];
    for _ in 0..200 {
        rec.time_calls("crypto.sha256_ns_per_kib", 64, || surface::sha256(&kib64));
    }
    let leaves: Vec<Vec<u8>> = encoded.iter().take(1_000).cloned().collect();
    for _ in 0..40 {
        let owned = leaves.clone();
        rec.time("crypto.merkle_root_us_1000", || surface::merkle_tree(owned));
    }
    let tree = surface::merkle_tree(leaves.clone());
    for (i, leaf) in leaves.iter().enumerate().take(400) {
        rec.time("crypto.merkle_prove_verify_us", || {
            surface::merkle_prove_verify(&tree, i, leaf)
        });
    }
}
