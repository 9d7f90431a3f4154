//! The transaction locator against the scan it replaced.
//!
//! `IciNetwork::locate_transaction` used to walk the chain from genesis,
//! re-hashing every transaction. It now answers from a lazily built
//! index (`ici_chain::locator::TxLocator`) that only
//! `query_transaction` extends. The contract is that nothing observable
//! changed: over random interleavings of commits, proofs and lookups —
//! before and after the index catches up, for ids on and off the chain —
//! every answer equals the old scan's, kept here verbatim as the oracle;
//! and that committing blocks never touches the index.

use ici_prop::{check, Config, Shrink};
use ici_rng::Xoshiro256;
use icistrategy::prelude::*;

const NODES: usize = 16;

/// The genesis-first scan `locate_transaction` used to be.
fn scan_from_genesis(net: &IciNetwork, tx_id: &Digest) -> Option<(u64, u64)> {
    for height in 0..net.chain_len() {
        let block = net.block(height)?;
        for (i, tx) in block.transactions().iter().enumerate() {
            if tx.id() == *tx_id {
                return Some((block.height(), i as u64));
            }
        }
    }
    None
}

/// One move of an interleaving. `pick` selects a committed transaction
/// (and a requester) by index modulo what exists so far.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Step {
    /// Commit a block of this many transactions (0: an empty block).
    Propose(usize),
    /// `query_transaction` for a committed id: catches the index up.
    Query(u64),
    /// `locate_transaction` for a committed id: must not index.
    Locate(u64),
    /// Both calls for an id that is not on chain.
    Unknown(u64),
}

impl Shrink for Step {
    fn shrink_candidates(&self) -> Vec<Step> {
        match self {
            Step::Propose(n) => n
                .shrink_candidates()
                .into_iter()
                .map(Step::Propose)
                .collect(),
            Step::Query(p) => p.shrink_candidates().into_iter().map(Step::Query).collect(),
            Step::Locate(p) => p
                .shrink_candidates()
                .into_iter()
                .map(Step::Locate)
                .collect(),
            Step::Unknown(p) => p
                .shrink_candidates()
                .into_iter()
                .map(Step::Unknown)
                .collect(),
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Interleaving {
    seed: u64,
    steps: Vec<Step>,
}

impl Shrink for Interleaving {
    fn shrink_candidates(&self) -> Vec<Interleaving> {
        self.steps
            .shrink_candidates()
            .into_iter()
            .map(|steps| Interleaving {
                seed: self.seed,
                steps,
            })
            .collect()
    }
}

fn gen_interleaving(rng: &mut Xoshiro256) -> Interleaving {
    let seed = rng.gen_range(0u64..1000);
    let steps = (0..rng.gen_range(4usize..28))
        .map(|_| match rng.gen_range(0u64..8) {
            0 => Step::Propose(0),
            1..=3 => Step::Propose(rng.gen_range(1usize..7)),
            4 => Step::Query(rng.gen_range(0u64..1000)),
            5 | 6 => Step::Locate(rng.gen_range(0u64..1000)),
            _ => Step::Unknown(rng.gen_range(0u64..1000)),
        })
        .collect();
    Interleaving { seed, steps }
}

fn network(seed: u64) -> Result<IciNetwork, String> {
    let config = IciConfig::builder()
        .nodes(NODES)
        .cluster_size(8)
        .replication(2)
        .seed(seed)
        .build()
        .map_err(|e| format!("16/8/2 must validate: {e}"))?;
    IciNetwork::new(config).map_err(|e| format!("16/8/2 must build: {e}"))
}

fn workload(seed: u64) -> WorkloadGenerator {
    WorkloadGenerator::new(WorkloadConfig {
        accounts: 64,
        seed,
        ..WorkloadConfig::default()
    })
}

fn locator_matches_scan(case: &Interleaving) -> Result<(), String> {
    let mut net = network(case.seed)?;
    let mut workload = workload(case.seed);
    let mut known: Vec<Digest> = Vec::new();
    let indexed = |net: &IciNetwork| net.tx_locator().indexed_blocks() as u64;

    for (at, step) in case.steps.iter().enumerate() {
        let before = indexed(&net);
        match step {
            Step::Propose(n) => {
                let batch = workload.batch(*n);
                known.extend(batch.iter().map(Transaction::id));
                net.propose_block(batch)
                    .map_err(|e| format!("step {at}: healthy commit failed: {e}"))?;
                if indexed(&net) != before {
                    return Err(format!("step {at}: a commit moved the index"));
                }
            }
            Step::Query(pick) | Step::Locate(pick) if known.is_empty() => {
                // Only genesis (no transactions) on chain so far.
                let absent = Sha256::digest(&pick.to_le_bytes());
                if net.locate_transaction(&absent).is_some() {
                    return Err(format!("step {at}: found a transaction in genesis"));
                }
            }
            Step::Query(pick) => {
                let id = known[*pick as usize % known.len()];
                let report = net
                    .query_transaction(NodeId::new(pick % NODES as u64), &id)
                    .map_err(|e| format!("step {at}: proof refused: {e}"))?;
                let expected = scan_from_genesis(&net, &id);
                if Some((report.height, report.index)) != expected {
                    return Err(format!(
                        "step {at}: proof at ({}, {}), scan says {expected:?}",
                        report.height, report.index
                    ));
                }
                if indexed(&net) != net.chain_len() {
                    return Err(format!("step {at}: a query left the index behind the tip"));
                }
            }
            Step::Locate(pick) => {
                let id = known[*pick as usize % known.len()];
                let (found, expected) = (net.locate_transaction(&id), scan_from_genesis(&net, &id));
                if found != expected || found.is_none() {
                    return Err(format!(
                        "step {at}: located {found:?}, scan says {expected:?}"
                    ));
                }
                if indexed(&net) != before {
                    return Err(format!("step {at}: a lookup moved the index"));
                }
            }
            Step::Unknown(salt) => {
                let id = Sha256::digest(&salt.to_le_bytes());
                if net.locate_transaction(&id).is_some() || scan_from_genesis(&net, &id).is_some() {
                    return Err(format!("step {at}: located an id that was never committed"));
                }
                let refused = net.query_transaction(NodeId::new(0), &id);
                if refused != Err(IciError::UnknownTransaction(id)) {
                    return Err(format!("step {at}: unknown id answered {refused:?}"));
                }
            }
        }
    }
    // Whatever state the index was left in, every committed id resolves
    // as the scan does.
    for id in &known {
        let (found, expected) = (net.locate_transaction(id), scan_from_genesis(&net, id));
        if found != expected {
            return Err(format!(
                "final sweep: located {found:?}, scan says {expected:?}"
            ));
        }
    }
    Ok(())
}

#[test]
fn locator_agrees_with_the_genesis_first_scan() {
    let config = Config {
        seed: 0x0010_CA7E,
        cases: 24,
        ..Config::default()
    };
    let result = check(
        "tx locator equals the genesis-first scan",
        &config,
        gen_interleaving,
        locator_matches_scan,
    );
    if let Err(failure) = result {
        panic!(
            "{failure}\n--- reproducer ---\n{}",
            failure.reproducer().to_text()
        );
    }
}

/// The write path never hashes transaction ids into the index: blocks
/// committed through every proposal entry point leave it empty until a
/// reader asks.
#[test]
fn committing_blocks_never_touches_the_locator() {
    let mut net = network(7).expect("builds");
    let mut workload = workload(7);
    net.propose_block(workload.batch(5)).expect("commits");
    net.propose_block_staged(workload.batch(5), |_, _| {})
        .expect("commits");
    let batches = (0..4).map(|_| workload.batch(5)).collect();
    net.propose_blocks(batches, |_, _| {}).expect("commits");
    assert_eq!(net.chain_len(), 7);
    assert_eq!(net.tx_locator().indexed_blocks(), 0);

    // A lookup still answers (by scanning) and still does not index.
    let id = net.block(6).expect("committed").transactions()[2].id();
    assert_eq!(net.locate_transaction(&id), Some((6, 2)));
    assert_eq!(net.tx_locator().indexed_blocks(), 0);

    // The first proof indexes the whole chain.
    net.query_transaction(NodeId::new(1), &id).expect("served");
    assert_eq!(net.tx_locator().indexed_blocks(), 7);
}
