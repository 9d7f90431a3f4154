//! Workload generation: streams of signed transactions.
//!
//! Experiments drive every strategy with the same deterministic workload so
//! that storage/communication/latency differences come from the strategies,
//! not the load. Generators cover the paper-relevant axes:
//!
//! * **sender popularity** — uniform or Zipf (real chains are heavily
//!   skewed toward a few hot accounts);
//! * **payload size** — fixed or two-point mix (simple transfers vs
//!   contract-call-sized payloads);
//! * **nonce correctness** — the generator tracks per-sender nonces so
//!   every emitted transaction is valid against a state that has applied
//!   all previous ones.
//!
//! # Examples
//!
//! ```
//! use ici_workload::{WorkloadConfig, WorkloadGenerator, SenderDistribution};
//!
//! let mut generator = WorkloadGenerator::new(WorkloadConfig {
//!     accounts: 100,
//!     senders: SenderDistribution::Zipf { exponent: 1.0 },
//!     ..WorkloadConfig::default()
//! });
//! let batch = generator.batch(50);
//! assert_eq!(batch.len(), 50);
//! assert!(batch.iter().all(|tx| tx.verify_signature()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::Arc;

use ici_chain::transaction::{Address, Transaction};
use ici_crypto::sig::Keypair;
use ici_rng::Xoshiro256;

/// How senders are drawn from the account universe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SenderDistribution {
    /// Every account equally likely.
    Uniform,
    /// Zipf with the given exponent; account 0 is hottest.
    Zipf {
        /// The skew exponent `s` (1.0 ≈ web-like popularity).
        exponent: f64,
    },
}

/// How transaction payload sizes are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PayloadSize {
    /// Every payload exactly this many bytes.
    Fixed(usize),
    /// `fraction_large` of payloads are `large` bytes, the rest `small`.
    Mix {
        /// Size of the common small payload.
        small: usize,
        /// Size of the occasional large payload.
        large: usize,
        /// Fraction of large payloads, in `[0, 1]`.
        fraction_large: f64,
    },
}

/// Workload parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Number of accounts (seeds `0..accounts`; fund them in genesis).
    pub accounts: u64,
    /// Sender draw.
    pub senders: SenderDistribution,
    /// Payload sizing.
    pub payload: PayloadSize,
    /// Transfer amount per transaction.
    pub amount: u64,
    /// Base fee per transaction.
    pub fee: u64,
    /// Extra fee drawn uniformly from `0..=fee_jitter` per transaction,
    /// giving a fee-market pool a spread to prioritise. `0` (the
    /// default) keeps fees flat *and consumes no RNG draw*, so
    /// historical seeded streams are byte-identical.
    pub fee_jitter: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    /// 64 accounts, uniform senders, 128-byte payloads.
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            accounts: 64,
            senders: SenderDistribution::Uniform,
            payload: PayloadSize::Fixed(128),
            amount: 1,
            fee: 1,
            fee_jitter: 0,
            seed: 7,
        }
    }
}

/// A deterministic transaction stream with per-sender nonce tracking.
///
/// Construction is O(accounts) once (the Zipf cumulative table); each
/// draw is O(log accounts) binary search plus one keypair derivation
/// (a 26-byte hash) — nothing per-draw scales with the universe size,
/// which is what lets the scale tier stream from 1M+ accounts.
#[derive(Clone, Debug)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    rng: Xoshiro256,
    /// Per-sender next nonce. BTreeMap: the generator's output feeds
    /// byte-compared artifacts, and the `unordered-iter` lint gates
    /// this crate, so even bookkeeping maps stay ordered.
    nonces: BTreeMap<u64, u64>,
    /// Precomputed Zipf CDF (empty for uniform). `Arc`: the table is
    /// immutable after construction and can be megabytes at 1M+
    /// accounts, so clones share it.
    zipf_cdf: Arc<[f64]>,
    emitted: u64,
}

impl WorkloadGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `accounts == 0`.
    pub fn new(config: WorkloadConfig) -> WorkloadGenerator {
        assert!(config.accounts > 0, "need at least one account");
        let zipf_cdf: Vec<f64> = match config.senders {
            SenderDistribution::Uniform => Vec::new(),
            SenderDistribution::Zipf { exponent } => {
                let mut weights: Vec<f64> = (1..=config.accounts)
                    .map(|rank| 1.0 / (rank as f64).powf(exponent))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                for w in &mut weights {
                    acc += *w / total;
                    *w = acc;
                }
                weights
            }
        };
        WorkloadGenerator {
            rng: Xoshiro256::seed_from_u64(config.seed ^ 0x774C_0AD5),
            config,
            nonces: BTreeMap::new(),
            zipf_cdf: zipf_cdf.into(),
            emitted: 0,
        }
    }

    /// Number of transactions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The configuration in force.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    fn draw_sender(&mut self) -> u64 {
        match self.config.senders {
            SenderDistribution::Uniform => self.rng.gen_range(0..self.config.accounts),
            SenderDistribution::Zipf { .. } => {
                let u: f64 = self.rng.gen_f64();
                self.zipf_cdf.partition_point(|cdf| *cdf < u) as u64
            }
        }
    }

    fn draw_payload(&mut self) -> Vec<u8> {
        let len = match self.config.payload {
            PayloadSize::Fixed(n) => n,
            PayloadSize::Mix {
                small,
                large,
                fraction_large,
            } => {
                if self.rng.gen_f64() < fraction_large {
                    large
                } else {
                    small
                }
            }
        };
        // Cheap deterministic filler derived from the stream position.
        let tag = self.emitted as u8;
        vec![tag; len]
    }

    /// Emits the next transaction.
    pub fn next_tx(&mut self) -> Transaction {
        let sender = self.draw_sender();
        let recipient = (sender + 1 + self.rng.gen_range(0..self.config.accounts.max(2) - 1))
            % self.config.accounts;
        let nonce = {
            let e = self.nonces.entry(sender).or_insert(0);
            let n = *e;
            *e += 1;
            n
        };
        let payload = self.draw_payload();
        let fee = if self.config.fee_jitter == 0 {
            self.config.fee
        } else {
            self.config.fee + self.rng.gen_range(0..self.config.fee_jitter + 1)
        };
        self.emitted += 1;
        Transaction::signed(
            &Keypair::from_seed(sender),
            Address::from_seed(recipient),
            self.config.amount,
            fee,
            nonce,
            payload,
        )
    }

    /// Emits a batch of `n` transactions.
    pub fn batch(&mut self, n: usize) -> Vec<Transaction> {
        (0..n).map(|_| self.next_tx()).collect()
    }
}

impl Iterator for WorkloadGenerator {
    type Item = Transaction;
    fn next(&mut self) -> Option<Transaction> {
        Some(self.next_tx())
    }
}

/// Shape of sustained traffic: a base rate with periodic burst windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Transactions emitted per round outside bursts.
    pub base_txs_per_round: usize,
    /// Every `burst_every`-th round is a burst (`0` disables bursts).
    pub burst_every: u64,
    /// Burst rounds emit `burst_multiplier * base_txs_per_round`.
    pub burst_multiplier: usize,
}

impl Default for TrafficConfig {
    /// 256 tx/round, a 3× burst every 8th round.
    fn default() -> TrafficConfig {
        TrafficConfig {
            base_txs_per_round: 256,
            burst_every: 8,
            burst_multiplier: 3,
        }
    }
}

/// Sustained round-based traffic over a [`WorkloadGenerator`]: each
/// round yields a batch sized by [`TrafficConfig`], with periodic
/// bursts that overrun a fee-market mempool on purpose. Fully
/// deterministic — round sizes depend only on the round counter, the
/// transactions only on the generator's seed.
#[derive(Clone, Debug)]
pub struct TrafficStream {
    generator: WorkloadGenerator,
    traffic: TrafficConfig,
    round: u64,
}

impl TrafficStream {
    /// Wraps `generator` with the given traffic shape.
    pub fn new(generator: WorkloadGenerator, traffic: TrafficConfig) -> TrafficStream {
        TrafficStream {
            generator,
            traffic,
            round: 0,
        }
    }

    /// Rounds emitted so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The underlying generator (for `emitted()` and config access).
    pub fn generator(&self) -> &WorkloadGenerator {
        &self.generator
    }

    /// Whether the next [`TrafficStream::next_round`] call is a burst.
    pub fn next_is_burst(&self) -> bool {
        self.traffic.burst_every != 0 && (self.round + 1) % self.traffic.burst_every == 0
    }

    /// Transactions the next round will emit.
    pub fn next_round_len(&self) -> usize {
        if self.next_is_burst() {
            self.traffic.base_txs_per_round * self.traffic.burst_multiplier.max(1)
        } else {
            self.traffic.base_txs_per_round
        }
    }

    /// Emits the next round's batch.
    pub fn next_round(&mut self) -> Vec<Transaction> {
        let n = self.next_round_len();
        self.round += 1;
        self.generator.batch(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_chain::genesis::GenesisConfig;
    use ici_chain::state::WorldState;

    #[test]
    fn transactions_are_valid_against_a_fresh_state() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::default());
        let genesis = GenesisConfig::uniform(64, 1_000_000);
        let mut state: WorldState = genesis.initial_state();
        for tx in generator.batch(200) {
            state
                .apply(&tx, Address::from_seed(999))
                .unwrap_or_else(|e| panic!("generated invalid tx: {e}"));
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let a: Vec<_> = WorkloadGenerator::new(WorkloadConfig::default())
            .batch(20)
            .iter()
            .map(|t| t.id())
            .collect();
        let b: Vec<_> = WorkloadGenerator::new(WorkloadConfig::default())
            .batch(20)
            .iter()
            .map(|t| t.id())
            .collect();
        assert_eq!(a, b);

        let c: Vec<_> = WorkloadGenerator::new(WorkloadConfig {
            seed: 8,
            ..WorkloadConfig::default()
        })
        .batch(20)
        .iter()
        .map(|t| t.id())
        .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_concentrates_on_low_seeds() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig {
            accounts: 100,
            senders: SenderDistribution::Zipf { exponent: 1.2 },
            ..WorkloadConfig::default()
        });
        let mut counts = vec![0u32; 100];
        for tx in generator.batch(2_000) {
            // Recover sender seed by matching the address.
            let sender = (0..100)
                .find(|s| Address::from_seed(*s) == tx.sender_address())
                .expect("sender in range");
            counts[sender as usize] += 1;
        }
        let top10: u32 = counts[..10].iter().sum();
        assert!(
            top10 > 2_000 / 3,
            "top-10 senders only sent {top10} of 2000"
        );
    }

    #[test]
    fn uniform_is_not_concentrated() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig {
            accounts: 100,
            ..WorkloadConfig::default()
        });
        let mut counts = vec![0u32; 100];
        for tx in generator.batch(2_000) {
            let sender = (0..100)
                .find(|s| Address::from_seed(*s) == tx.sender_address())
                .expect("sender in range");
            counts[sender as usize] += 1;
        }
        let top10: u32 = counts[..10].iter().sum();
        assert!(top10 < 500, "uniform top-10 sent {top10}");
    }

    #[test]
    fn payload_mix_produces_both_sizes() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig {
            payload: PayloadSize::Mix {
                small: 10,
                large: 1_000,
                fraction_large: 0.3,
            },
            ..WorkloadConfig::default()
        });
        let sizes: Vec<usize> = generator
            .batch(300)
            .iter()
            .map(|t| t.payload().len())
            .collect();
        let large = sizes.iter().filter(|s| **s == 1_000).count();
        let small = sizes.iter().filter(|s| **s == 10).count();
        assert_eq!(large + small, 300);
        assert!((40..=150).contains(&large), "large count {large}");
    }

    #[test]
    fn recipients_differ_from_senders() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig::default());
        for tx in generator.batch(100) {
            assert_ne!(tx.sender_address(), tx.recipient());
        }
    }

    #[test]
    fn iterator_interface_works() {
        let generator = WorkloadGenerator::new(WorkloadConfig::default());
        let txs: Vec<Transaction> = generator.take(5).collect();
        assert_eq!(txs.len(), 5);
    }

    #[test]
    fn million_account_universe_draws_cheaply() {
        // Construction pays the O(accounts) Zipf table once; draws must
        // not scale with the universe (this test is fast because they
        // don't — a per-draw O(accounts) regression would time out).
        let mut generator = WorkloadGenerator::new(WorkloadConfig {
            accounts: 1_000_000,
            senders: SenderDistribution::Zipf { exponent: 1.1 },
            payload: PayloadSize::Fixed(8),
            ..WorkloadConfig::default()
        });
        let txs = generator.batch(2_000);
        assert_eq!(txs.len(), 2_000);
        assert_eq!(generator.emitted(), 2_000);
    }

    #[test]
    fn fee_jitter_spreads_fees_without_breaking_validity() {
        let mut generator = WorkloadGenerator::new(WorkloadConfig {
            fee: 2,
            fee_jitter: 9,
            ..WorkloadConfig::default()
        });
        let genesis = GenesisConfig::uniform(64, 1_000_000);
        let mut state: WorldState = genesis.initial_state();
        let mut seen = std::collections::BTreeSet::new();
        for tx in generator.batch(300) {
            assert!(
                (2..=11).contains(&tx.fee()),
                "fee {} out of range",
                tx.fee()
            );
            seen.insert(tx.fee());
            state
                .apply(&tx, Address::from_seed(999))
                .unwrap_or_else(|e| panic!("generated invalid tx: {e}"));
        }
        assert!(
            seen.len() > 5,
            "jitter produced only {} fee levels",
            seen.len()
        );
    }

    #[test]
    fn traffic_stream_bursts_on_schedule() {
        let generator = WorkloadGenerator::new(WorkloadConfig::default());
        let traffic = TrafficConfig {
            base_txs_per_round: 10,
            burst_every: 4,
            burst_multiplier: 3,
        };
        let mut stream = TrafficStream::new(generator, traffic);
        let sizes: Vec<usize> = (0..8).map(|_| stream.next_round().len()).collect();
        assert_eq!(sizes, vec![10, 10, 10, 30, 10, 10, 10, 30]);
        assert_eq!(stream.round(), 8);
        assert_eq!(stream.generator().emitted(), 120);
    }

    #[test]
    fn traffic_stream_without_bursts_is_flat() {
        let generator = WorkloadGenerator::new(WorkloadConfig::default());
        let traffic = TrafficConfig {
            base_txs_per_round: 5,
            burst_every: 0,
            burst_multiplier: 9,
        };
        let mut stream = TrafficStream::new(generator, traffic);
        assert!(!stream.next_is_burst());
        assert!((0..6).all(|_| stream.next_round().len() == 5));
    }

    #[test]
    fn traffic_stream_is_deterministic() {
        let make = || {
            TrafficStream::new(
                WorkloadGenerator::new(WorkloadConfig {
                    accounts: 1_000,
                    senders: SenderDistribution::Zipf { exponent: 1.0 },
                    ..WorkloadConfig::default()
                }),
                TrafficConfig::default(),
            )
        };
        let a: Vec<_> = make().next_round().iter().map(|t| t.id()).collect();
        let b: Vec<_> = make().next_round().iter().map(|t| t.id()).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one account")]
    fn zero_accounts_panics() {
        let _ = WorkloadGenerator::new(WorkloadConfig {
            accounts: 0,
            ..WorkloadConfig::default()
        });
    }
}
