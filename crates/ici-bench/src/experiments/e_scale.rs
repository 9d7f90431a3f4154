//! **E-scale — world state & mempool at the million-account tier.**
//!
//! Sustains zipf-skewed burst traffic from a large funded universe
//! through the full scale path: fee-market mempool admission, in-place
//! block building on a long-lived [`WorldState`], the incremental
//! v2 (`ShardedV2`) state commitment, and in-place validation on a
//! second long-lived state. Per-block commitment cost is proportional
//! to *touched* buckets/accounts — the run asserts it — never to the
//! total account count, which is what makes the paper regime
//! (`--paper`: 1M accounts) tractable.
//!
//! The record, `results/e_scale.json`, is deterministic tables only
//! (counts, roots, ratios); `ici-bench check` regenerates it and fails
//! on any diff.
//! Host-side cost of this path — throughput, allocations, peak live
//! heap — is the benchmark's `state_scale` workload (`BENCHMARK.json`).
//!
//! Run: `cargo run --release -p ici-bench -- e_scale [--paper] [--seed N]`

use ici_bench::{metric_table, Report, Scale};
use ici_chain::block::{Block, BlockHeader};
use ici_chain::genesis::GenesisConfig;
use ici_chain::mempool::{Mempool, MempoolError};
use ici_chain::state::StateCommitment;
use ici_chain::transaction::Address;
use ici_chain::validation::validate_block_in_place;
use ici_crypto::sha256::Digest;
use ici_sim::table::fmt_f64;
use ici_workload::{
    PayloadSize, SenderDistribution, TrafficConfig, TrafficStream, WorkloadConfig,
    WorkloadGenerator,
};

/// The fixed proposing node (fee collector derives from it).
const PROPOSER: u64 = 7;

pub fn run(scale: Scale, seed: u64) -> Report {
    let (accounts, rounds, base_txs) = match scale {
        Scale::Small => (50_000u64, 40u64, 250usize),
        Scale::Paper => (1_000_000, 60, 1_000),
    };

    // Funded universe + two long-lived states: the proposer's and an
    // independent validator's (advanced in place — no per-block clone).
    let genesis_cfg = GenesisConfig::uniform(accounts, 1_000_000);
    let genesis = genesis_cfg.genesis_block();
    let mut proposer_state = genesis_cfg.initial_state();
    let genesis_v2 = proposer_state.sharded_root();
    let mut validator_state = proposer_state.clone();

    let workload = WorkloadConfig {
        accounts,
        senders: SenderDistribution::Zipf { exponent: 1.1 },
        payload: PayloadSize::Fixed(64),
        amount: 1,
        fee: 1,
        fee_jitter: 9,
        seed,
    };
    let traffic = TrafficConfig {
        base_txs_per_round: base_txs,
        burst_every: 8,
        burst_multiplier: 3,
    };
    let mut stream = TrafficStream::new(WorkloadGenerator::new(workload), traffic);
    // Capacity 2× the block size: burst rounds overrun it, so the fee
    // market (replace/evict/reject) is exercised, deterministically.
    let mut pool = Mempool::new(base_txs * 2);

    let collector = Address::from_seed(PROPOSER);
    let mut parent = *genesis.header();
    let mut blocks: Vec<Block> = Vec::with_capacity(rounds as usize);

    let mut admitted = 0u64;
    let mut underpriced = 0u64;
    let mut pool_full = 0u64;
    let mut committed_txs = 0u64;
    let mut skipped_invalid = 0u64;
    let mut dirty_bucket_sum = 0u64;
    let mut touched_accounts_sum = 0u64;
    let mut peak_pool_depth = 0usize;

    for round in 0..rounds {
        for tx in stream.next_round() {
            match pool.insert(tx) {
                Ok(()) => admitted += 1,
                Err(MempoolError::Underpriced { .. }) => underpriced += 1,
                Err(MempoolError::PoolFull) => pool_full += 1,
                Err(e) => unreachable!("generator emitted rejected tx: {e}"),
            }
        }
        peak_pool_depth = peak_pool_depth.max(pool.len());

        // Proposer: in-place build. `apply` is per-tx atomic, so a
        // transaction invalidated by fee-market eviction of its
        // predecessor (nonce gap) is skipped without poisoning state.
        let pending = pool.take_for_block(base_txs);
        let mut included = Vec::with_capacity(pending.len());
        for tx in pending {
            match proposer_state.apply(&tx, collector) {
                Ok(()) => included.push(tx),
                Err(_) => skipped_invalid += 1,
            }
        }
        let mut touched = std::collections::BTreeSet::new();
        for tx in &included {
            touched.insert(tx.sender_address());
            touched.insert(tx.recipient());
        }
        touched.insert(collector);
        touched_accounts_sum += touched.len() as u64;
        dirty_bucket_sum += proposer_state.dirty_buckets() as u64;

        let state_root = proposer_state.sharded_root();
        let block = Block::new(
            BlockHeader {
                height: round + 1,
                parent: parent.id(),
                tx_root: Digest::ZERO, // filled by Block::new
                state_root,
                timestamp_ms: (round + 1) * 1_000,
                proposer: PROPOSER,
                pow_nonce: 0,
                tx_count: 0,
                body_len: 0,
            },
            included,
        );

        // Validator: in-place execution + v2 root cross-check. This is
        // the per-block commit cost a deployed verifier would pay.
        validate_block_in_place(
            &block,
            &parent,
            &mut validator_state,
            StateCommitment::ShardedV2,
        )
        .unwrap_or_else(|e| panic!("round {round}: own block failed validation: {e}"));

        committed_txs += block.transactions().len() as u64;
        for tx in block.transactions() {
            pool.prune_below(&tx.sender_address(), tx.nonce() + 1);
        }
        parent = *block.header();
        blocks.push(block);
    }

    // ---- correctness gates ------------------------------------------------
    assert_eq!(
        proposer_state, validator_state,
        "proposer and validator diverged"
    );
    assert_eq!(
        proposer_state.total_supply(),
        accounts * 1_000_000,
        "supply not conserved"
    );
    // Replay the whole chain on a fresh state: contents, flat v1 root,
    // and v2 root (its lattice built once, at the end) must all agree
    // with the incrementally-maintained run.
    let mut reference = genesis_cfg.initial_state();
    for block in &blocks {
        reference
            .apply_block(block)
            .unwrap_or_else(|(i, e)| panic!("replay failed at tx {i}: {e}"));
    }
    assert_eq!(reference, proposer_state, "replay contents diverge");
    assert_eq!(reference.root(), proposer_state.root(), "v1 root diverges");
    assert_eq!(
        reference.sharded_root(),
        parent.state_root,
        "v2 root diverges from sealed header"
    );

    // Commitment work must track touched accounts, not the universe.
    let mean_touched = touched_accounts_sum as f64 / rounds as f64;
    let mean_dirty = dirty_bucket_sum as f64 / rounds as f64;
    assert!(
        mean_dirty <= ici_chain::shard::STATE_BUCKETS as f64,
        "dirty buckets cannot exceed the bucket count"
    );
    assert!(
        mean_touched * 10.0 < accounts as f64,
        "touched accounts per block ({mean_touched:.0}) not small vs universe ({accounts})"
    );

    // ---- deterministic record --------------------------------------------
    let table = metric_table(
        format!("E-scale: {accounts} accounts, {rounds} rounds, base {base_txs} tx/round"),
        [
            ("accounts", accounts.to_string()),
            ("rounds", rounds.to_string()),
            ("tx admitted", admitted.to_string()),
            ("tx underpriced", underpriced.to_string()),
            ("tx pool-full rejected", pool_full.to_string()),
            ("fee-market evictions", pool.evicted().to_string()),
            ("peak pool depth", peak_pool_depth.to_string()),
            ("tx committed", committed_txs.to_string()),
            ("tx skipped (nonce gap)", skipped_invalid.to_string()),
            ("mean touched accounts/block", fmt_f64(mean_touched)),
            ("mean dirty buckets/block (of 64)", fmt_f64(mean_dirty)),
            (
                "touched fraction of universe",
                fmt_f64(mean_touched / accounts as f64),
            ),
            ("genesis v2 root", genesis_v2.to_hex()),
            ("final v2 root", parent.state_root.to_hex()),
            ("final head id", parent.id().to_hex()),
        ],
    );

    Report {
        id: "E_scale",
        title: "Sharded state & mempool under sustained zipf traffic",
        params: format!(
            "scale={scale:?}, seed={seed}, accounts={accounts}, rounds={rounds}, \
             base_txs={base_txs}, burst=3x/8, zipf=1.1, commitment=v2"
        ),
        tables: vec![table],
        closing: None,
    }
}
