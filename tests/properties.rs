//! Randomized integration tests: random configurations and random
//! operation sequences must never violate the core invariants.
//!
//! Checked through the `ici-prop` harness: every case draws from a
//! seeded [`ici_rng::Xoshiro256`], and a falsified property shrinks to
//! a minimal counterexample whose replayable reproducer is printed in
//! the panic message — commit it under `tests/reproducers/` to pin the
//! regression.

mod prop_support;

use ici_prop::{check, Config, Shrink};
use ici_rng::Xoshiro256;
use icistrategy::prelude::*;
use prop_support::{
    gen_fault_scenario, require_pass, shrink_toward, shrink_toward_u64, FaultScenario,
};

const CASES: usize = 12;

fn cfg(seed: u64) -> Config {
    Config {
        seed,
        cases: CASES,
        ..Config::default()
    }
}

fn build(nodes: usize, c: usize, r: usize, seed: u64) -> Option<IciNetwork> {
    let config = IciConfig::builder()
        .nodes(nodes)
        .cluster_size(c)
        .replication(r)
        .seed(seed)
        .build()
        .ok()?;
    IciNetwork::new(config).ok()
}

fn workload(seed: u64) -> WorkloadGenerator {
    WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        seed,
        ..WorkloadConfig::default()
    })
}

/// A deployment shape plus a block count, discrete in every knob.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ShapeScenario {
    nodes: usize,
    cluster: usize,
    replication: usize,
    blocks: usize,
    seed: u64,
}

impl Shrink for ShapeScenario {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for v in shrink_toward(self.blocks, 1) {
            out.push(ShapeScenario {
                blocks: v,
                ..self.clone()
            });
        }
        for v in shrink_toward(self.nodes, 8) {
            out.push(ShapeScenario {
                nodes: v,
                ..self.clone()
            });
        }
        for v in shrink_toward(self.cluster, 4) {
            out.push(ShapeScenario {
                cluster: v,
                ..self.clone()
            });
        }
        for v in shrink_toward(self.replication, 1) {
            out.push(ShapeScenario {
                replication: v,
                ..self.clone()
            });
        }
        for v in shrink_toward_u64(self.seed, 0) {
            out.push(ShapeScenario {
                seed: v,
                ..self.clone()
            });
        }
        out
    }
}

fn gen_shape(rng: &mut Xoshiro256) -> ShapeScenario {
    ShapeScenario {
        nodes: rng.gen_range(12usize..48),
        cluster: rng.gen_range(4usize..16),
        replication: rng.gen_range(1usize..4),
        blocks: rng.gen_range(1usize..6),
        seed: rng.gen_range(0u64..1_000),
    }
}

/// Integrity, linkage, and header completeness hold for arbitrary
/// (small) shapes.
#[test]
fn invariants_hold_for_random_shapes() {
    require_pass(check(
        "invariants hold for random shapes",
        &cfg(0xF1),
        gen_shape,
        |s: &ShapeScenario| {
            let r = s.replication.min(s.cluster);
            let Some(mut net) = build(s.nodes, s.cluster, r, s.seed) else {
                return Ok(()); // invalid lattice point — vacuous
            };
            let mut workload = workload(s.seed);
            for _ in 0..s.blocks {
                net.propose_block(workload.batch(6))
                    .map_err(|e| format!("commit failed on a healthy network: {e:?}"))?;
            }
            if !net.audit_all().iter().all(|rep| rep.is_intact()) {
                return Err("integrity audit failed".into());
            }
            if net.chain_len() != s.blocks as u64 + 1 {
                return Err(format!(
                    "chain length {} != {}",
                    net.chain_len(),
                    s.blocks + 1
                ));
            }
            if net.tip().state_root != net.state().root() {
                return Err("tip state root diverged from world state".into());
            }
            Ok(())
        },
    ));
}

/// A crash set within the fault budget, shrinkable victim by victim.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CrashScenario {
    seed: u64,
    victims: Vec<u64>,
}

impl Shrink for CrashScenario {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out: Vec<CrashScenario> = self
            .victims
            .shrink_candidates()
            .into_iter()
            .map(|victims| CrashScenario {
                victims,
                ..self.clone()
            })
            .collect();
        for v in shrink_toward_u64(self.seed, 0) {
            out.push(CrashScenario {
                seed: v,
                ..self.clone()
            });
        }
        out
    }
}

/// A random crash set within the fault budget never blocks commits,
/// and repair restores full integrity whenever each cluster keeps a
/// live holder or any other cluster does.
#[test]
fn random_crashes_then_repair_restores_integrity() {
    require_pass(check(
        "crashes within budget never block commits",
        &cfg(0xF2),
        |rng| CrashScenario {
            seed: rng.gen_range(0u64..500),
            // At most 3 distinct nodes of 36 (f = 3 per cluster of 12,
            // and bodies must stay findable).
            victims: {
                let n = rng.gen_range(1usize..4);
                (0..n).map(|_| rng.gen_range(0u64..36)).collect()
            },
        },
        |s: &CrashScenario| {
            let Some(mut net) = build(36, 12, 2, s.seed) else {
                return Err("36/12/2 must build".into());
            };
            let mut workload = workload(s.seed);
            for _ in 0..4 {
                net.propose_block(workload.batch(6))
                    .map_err(|e| format!("healthy commit failed: {e:?}"))?;
            }
            let mut crashed = std::collections::HashSet::new();
            for victim in &s.victims {
                let node = NodeId::new(*victim % 36);
                if crashed.insert(node) {
                    net.crash_node(node)
                        .map_err(|e| format!("crash of known node failed: {e:?}"))?;
                }
            }
            net.propose_block(workload.batch(6))
                .map_err(|e| format!("commit blocked by {} crashes: {e:?}", crashed.len()))?;
            for report in net.repair_all() {
                if !report.unrecoverable.is_empty() {
                    return Err(format!("lost heights: {report:?}"));
                }
            }
            if !net.audit_all().iter().all(|rep| rep.is_intact()) {
                return Err("integrity audit failed after repair".into());
            }
            Ok(())
        },
    ));
}

/// Queries succeed from any live node for any committed height, and
/// local queries cost no traffic.
#[test]
fn queries_always_succeed_on_live_networks() {
    require_pass(check(
        "queries succeed from any live node",
        &cfg(0xF3),
        |rng| {
            (
                rng.gen_range(0u64..500),                          // network seed
                (rng.gen_range(0u64..24), rng.gen_range(0u64..4)), // node, height
            )
        },
        |case: &(u64, (u64, u64))| {
            let (seed, (node, height)) = *case;
            let Some(mut net) = build(24, 8, 2, seed) else {
                return Err("24/8/2 must build".into());
            };
            let mut workload = workload(seed);
            for _ in 0..3 {
                net.propose_block(workload.batch(5))
                    .map_err(|e| format!("healthy commit failed: {e:?}"))?;
            }
            let before = net.net().meter().total().bytes;
            let report = net
                .query_body(NodeId::new(node % 24), height % 4)
                .map_err(|e| format!("query failed: {e:?}"))?;
            if report.tier == QueryTier::Local {
                if net.net().meter().total().bytes != before {
                    return Err("local query moved bytes".into());
                }
            } else if report.bytes == 0 && height % 4 != 0 {
                return Err(format!("remote query reported free: {report:?}"));
            }
            Ok(())
        },
    ));
}

/// An erasure-coding workload: geometry index plus payload bytes. The
/// payload shrinks through the standard `Vec<u8>` candidates, so a
/// decode bug minimises to a few bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RsScenario {
    geometry: usize,
    payload: Vec<u8>,
}

impl Shrink for RsScenario {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out: Vec<RsScenario> = self
            .payload
            .shrink_candidates()
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(|payload| RsScenario {
                payload,
                ..self.clone()
            })
            .collect();
        for v in shrink_toward(self.geometry, 0) {
            out.push(RsScenario {
                geometry: v,
                ..self.clone()
            });
        }
        out
    }
}

const RS_GEOMETRIES: &[(usize, usize)] = &[(2, 1), (3, 1), (4, 2), (5, 3)];

/// Reed–Solomon decoding round-trips under *every* erasure pattern that
/// stays within the parity budget, and degrades into a typed error —
/// never a wrong payload — the moment the budget is exceeded.
#[test]
fn rs_round_trips_under_every_erasure_pattern() {
    use icistrategy::crypto::rs::{ReedSolomon, RsError};
    require_pass(check(
        "RS round-trips under every in-budget erasure",
        &cfg(0xF5),
        |rng| RsScenario {
            geometry: rng.gen_range(0usize..RS_GEOMETRIES.len()),
            payload: rng.gen_bytes_in(1..200),
        },
        |s: &RsScenario| {
            let (data, parity) = RS_GEOMETRIES[s.geometry % RS_GEOMETRIES.len()];
            if s.payload.is_empty() {
                return Ok(()); // vacuous lattice point
            }
            let rs = ReedSolomon::new(data, parity).map_err(|e| format!("geometry: {e:?}"))?;
            let shards = rs.encode_payload(&s.payload);
            let total = data + parity;
            for mask in 0u32..(1u32 << total) {
                let erased = mask.count_ones() as usize;
                if erased == 0 || erased > parity {
                    continue;
                }
                let mut holey: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
                for (i, slot) in holey.iter_mut().enumerate() {
                    if mask & (1 << i) != 0 {
                        *slot = None;
                    }
                }
                rs.reconstruct(&mut holey)
                    .map_err(|e| format!("mask {mask:#b} within budget failed: {e:?}"))?;
                let joined = rs
                    .join_payload(&holey, s.payload.len())
                    .map_err(|e| format!("join failed: {e:?}"))?;
                if joined != s.payload {
                    return Err(format!(
                        "data={data} parity={parity} mask={mask:#b}: wrong payload"
                    ));
                }
            }
            // One erasure past the budget must be reported, not decoded.
            let mut holey: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            for slot in holey.iter_mut().take(parity + 1) {
                *slot = None;
            }
            match rs.reconstruct(&mut holey) {
                Err(RsError::TooFewShards { .. }) => Ok(()),
                other => Err(format!("over-budget erasure decoded: {other:?}")),
            }
        },
    ));
}

/// Churn scheduled by a random [`FaultPlan`] never loses data a live
/// node still holds: once the plan runs out, repair restores exactly
/// the heights that remained reachable, and for fully recoverable runs
/// both the integrity audit and the shard-level Merkle audit come back
/// clean. Runs over the shared [`FaultScenario`] lattice, so a failure
/// here shrinks to the same reproducer format the liveness-loss file
/// uses.
#[test]
fn fault_plans_leave_recoverable_networks_repairable() {
    use icistrategy::faults::ChurnConfig;
    require_pass(check(
        "recoverable churn repairs exactly the reachable heights",
        &cfg(0xF6),
        gen_fault_scenario,
        |s: &FaultScenario| {
            let Some(config) = s.config() else {
                return Ok(()); // invalid lattice point — vacuous
            };
            let Ok(mut net) = IciNetwork::new(config) else {
                return Ok(());
            };
            let mut workload = workload(s.net_seed);
            for _ in 0..4 {
                net.propose_block(workload.batch(s.txs_per_block))
                    .map_err(|e| format!("healthy commit failed: {e:?}"))?;
            }

            let cluster_map: Vec<Vec<NodeId>> = net
                .clusters()
                .into_iter()
                .map(|c| net.membership().members(c).to_vec())
                .collect();
            let Ok(plan) = FaultPlanConfig::new(s.plan_seed, s.rounds, cluster_map)
                .churn(ChurnConfig {
                    crash_prob: s.crash_pct as f64 / 100.0,
                    restart_prob: s.restart_pct as f64 / 100.0,
                    cluster_churn_prob: 0.1,
                    cluster_churn_fraction: 0.3,
                    min_live_per_cluster: s.min_live,
                    ensure_cycle_per_cluster: true,
                })
                .build()
            else {
                return Ok(()); // floor impossible over these clusters
            };
            for round in plan.rounds() {
                for node in &round.restarts {
                    net.recover_node(*node)
                        .map_err(|e| format!("scheduled restart invalid: {e:?}"))?;
                }
                for node in &round.crashes {
                    net.crash_node(*node)
                        .map_err(|e| format!("scheduled crash invalid: {e:?}"))?;
                }
            }

            // A height is reachable iff some live node still holds its body.
            let live: Vec<NodeId> = net
                .clusters()
                .into_iter()
                .flat_map(|c| net.live_members(c))
                .collect();
            let lost: Vec<u64> = (0..net.chain_len())
                .filter(|height| {
                    !live
                        .iter()
                        .any(|n| net.holdings(*n).is_some_and(|h| h.has_body(*height)))
                })
                .collect();

            let mut unrecoverable: Vec<u64> = net
                .repair_all()
                .iter()
                .flat_map(|report| report.unrecoverable.iter().copied())
                .collect();
            unrecoverable.sort_unstable();
            unrecoverable.dedup();
            if unrecoverable != lost {
                return Err(format!(
                    "repair restored the wrong set: unrecoverable {unrecoverable:?} vs lost {lost:?}"
                ));
            }

            if lost.is_empty() {
                if !net.audit_all().iter().all(|rep| rep.is_intact()) {
                    return Err("integrity audit failed after full recovery".into());
                }
                if !net.merkle_audit_all().iter().all(|a| a.is_clean()) {
                    return Err("merkle audit failed after full recovery".into());
                }
            }
            Ok(())
        },
    ));
}

/// One signed transaction, optionally damaged by one bit flip on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TxVerdictScenario {
    seed: u64,
    payload_len: usize,
    /// Bit of the encoding to flip (modulo its length) before decoding.
    flip_bit: Option<usize>,
}

impl Shrink for TxVerdictScenario {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.flip_bit.is_some() {
            out.push(TxVerdictScenario {
                flip_bit: None,
                ..self.clone()
            });
        }
        for v in shrink_toward(self.payload_len, 0) {
            out.push(TxVerdictScenario {
                payload_len: v,
                ..self.clone()
            });
        }
        for v in shrink_toward_u64(self.seed, 0) {
            out.push(TxVerdictScenario {
                seed: v,
                ..self.clone()
            });
        }
        out
    }
}

/// The verdict a transaction remembers is the verdict a fresh check
/// computes — first ask or later, from the original or from a clone taken
/// on either side of the first ask, from two threads at once — and
/// remembering it is invisible to equality, `Debug` and the struct's size.
#[test]
fn remembered_signature_verdict_equals_a_fresh_check() {
    use ici_chain::codec::{Decode, Encode};
    use ici_chain::transaction::{Address, Transaction};
    use ici_crypto::sig::Keypair;

    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Transaction>();
    assert_eq!(std::mem::size_of::<Transaction>(), 168);

    require_pass(check(
        "remembered verdict == fresh check",
        &Config {
            cases: CASES * 16,
            ..cfg(0x51C)
        },
        |rng| TxVerdictScenario {
            seed: rng.gen_range(0u64..10_000),
            payload_len: rng.gen_range(0usize..200),
            flip_bit: rng.gen_bool(0.75).then(|| rng.gen_range(0usize..4_096)),
        },
        |s: &TxVerdictScenario| {
            let signed = Transaction::signed(
                &Keypair::from_seed(s.seed % 64),
                Address::from_seed(s.seed + 1),
                s.seed % 1_000,
                s.seed % 7,
                s.seed % 5,
                vec![s.seed as u8; s.payload_len],
            );
            let mut bytes = signed.to_bytes();
            if let Some(bit) = s.flip_bit {
                let bit = bit % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            let Ok(tx) = Transaction::from_bytes(&bytes) else {
                return Ok(()); // the flip hit the payload length prefix
            };
            let expected = tx.sender().verify(&tx.signing_bytes(), tx.signature());
            if expected != (tx == signed) {
                return Err(format!("fresh check says {expected} for a damaged copy"));
            }

            let before = tx.clone();
            let gate = std::sync::Barrier::new(2);
            let ask = || {
                gate.wait();
                tx.verify_signature()
            };
            let raced = std::thread::scope(|scope| {
                let other = scope.spawn(ask);
                (ask(), other.join().expect("verifier thread"))
            });
            if raced != (expected, expected) {
                return Err(format!(
                    "racing first asks gave {raced:?}, fresh {expected}"
                ));
            }
            if before != tx || format!("{before:?}") != format!("{tx:?}") {
                return Err("a remembered verdict leaked into equality or Debug".into());
            }
            let after = tx.clone();
            for (which, copy) in [
                ("original", &tx),
                ("clone before", &before),
                ("clone after", &after),
            ] {
                for ask in 1..=2 {
                    if copy.verify_signature() != expected {
                        return Err(format!(
                            "{which}, ask {ask}: not the fresh verdict {expected}"
                        ));
                    }
                }
            }
            Ok(())
        },
    ));
}

/// A random transaction history applied through the world state.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ShardScenario {
    seed: u64,
    blocks: usize,
    txs_per_block: usize,
}

impl Shrink for ShardScenario {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for v in shrink_toward(self.blocks, 1) {
            out.push(ShardScenario {
                blocks: v,
                ..self.clone()
            });
        }
        for v in shrink_toward(self.txs_per_block, 1) {
            out.push(ShardScenario {
                txs_per_block: v,
                ..self.clone()
            });
        }
        for v in shrink_toward_u64(self.seed, 0) {
            out.push(ShardScenario {
                seed: v,
                ..self.clone()
            });
        }
        out
    }
}

/// Any random nonce-correct history replayed on a state whose v2
/// lattice was built at genesis and maintained per mutation yields the
/// v1 root, v2 root, and contents of a state first rooted after the
/// last block — the commitment is a pure function of the account set,
/// never of when the bookkeeping behind it was built.
#[test]
fn sharded_state_is_partition_independent() {
    use ici_chain::block::{Block, BlockHeader};
    use ici_chain::state::WorldState;
    use ici_chain::transaction::{Address, Transaction};
    use ici_crypto::sig::Keypair;

    require_pass(check(
        "incrementally rooted replay matches a state rooted at the end",
        &cfg(0xF7),
        |rng| ShardScenario {
            seed: rng.gen_range(0u64..1_000),
            blocks: rng.gen_range(1usize..5),
            txs_per_block: rng.gen_range(1usize..40),
        },
        |s: &ShardScenario| {
            let universe = 48u64;
            let funded: Vec<(Address, u64)> = (0..universe)
                .map(|i| (Address::from_seed(i), 100_000))
                .collect();
            let mut rng = Xoshiro256::seed_from_u64(s.seed);
            let mut nonces = std::collections::BTreeMap::new();
            let blocks: Vec<Block> = (1..=s.blocks as u64)
                .map(|height| {
                    let txs: Vec<Transaction> = (0..s.txs_per_block)
                        .map(|_| {
                            let sender = rng.gen_range(0u64..universe);
                            let nonce = nonces.entry(sender).or_insert(0u64);
                            let tx = Transaction::signed(
                                &Keypair::from_seed(sender),
                                Address::from_seed(rng.gen_range(0u64..universe)),
                                rng.gen_range(1u64..20),
                                rng.gen_range(0u64..5),
                                *nonce,
                                Vec::new(),
                            );
                            *nonce += 1;
                            tx
                        })
                        .collect();
                    Block::new(
                        BlockHeader {
                            height,
                            parent: ici_crypto::sha256::Digest::ZERO,
                            tx_root: ici_crypto::sha256::Digest::ZERO,
                            state_root: ici_crypto::sha256::Digest::ZERO,
                            timestamp_ms: height,
                            proposer: 1,
                            pow_nonce: 0,
                            tx_count: 0,
                            body_len: 0,
                        },
                        txs,
                    )
                })
                .collect();

            let mut late = WorldState::with_balances(funded.iter().copied());
            let mut early = late.clone();
            early.sharded_root();
            for block in &blocks {
                late.apply_block(block)
                    .map_err(|(i, e)| format!("late-rooted state rejected tx {i}: {e}"))?;
                early
                    .apply_block(block)
                    .map_err(|(i, e)| format!("genesis-rooted state rejected tx {i}: {e}"))?;
            }
            if early.root() != late.root() {
                return Err("v1 root diverged".into());
            }
            if early.sharded_root() != late.sharded_root() {
                return Err("v2 root diverged".into());
            }
            if early != late {
                return Err("contents diverged".into());
            }
            Ok(())
        },
    ));
}

/// Bootstrap keeps integrity and never increases replication beyond r.
/// Coordinates are generated in integer mills so the scenario renders
/// and shrinks exactly.
#[test]
fn bootstrap_preserves_replication_bound() {
    require_pass(check(
        "bootstrap preserves the replication bound",
        &cfg(0xF4),
        |rng| {
            (
                rng.gen_range(0u64..200),
                (rng.gen_range(0u64..100_000), rng.gen_range(0u64..100_000)),
            )
        },
        |case: &(u64, (u64, u64))| {
            let (seed, (x_mills, y_mills)) = *case;
            let Some(mut net) = build(24, 8, 2, seed) else {
                return Err("24/8/2 must build".into());
            };
            let mut workload = workload(seed);
            for _ in 0..4 {
                net.propose_block(workload.batch(6))
                    .map_err(|e| format!("healthy commit failed: {e:?}"))?;
            }
            let coord = Coord::new(x_mills as f64 / 1_000.0, y_mills as f64 / 1_000.0);
            net.bootstrap_node(coord, JoinPolicy::NearestCentroid)
                .map_err(|e| format!("join failed: {e:?}"))?;
            for report in net.audit_all() {
                if !report.is_intact() {
                    return Err("integrity audit failed after join".into());
                }
                for (replicas, _) in &report.replication_histogram {
                    if *replicas > 2 {
                        return Err(format!("over-replicated after join: {replicas} > r"));
                    }
                }
            }
            Ok(())
        },
    ));
}
