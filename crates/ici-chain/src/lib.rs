//! Blockchain substrate for the ICIStrategy reproduction.
//!
//! This crate provides the ledger the storage strategies operate on:
//!
//! * [`codec`] — the canonical, deterministic binary wire format;
//! * [`hashing`] — digests of encodable values, written into a hash
//!   message (no intermediate buffers);
//! * [`transaction`] — signed account-model transfers;
//! * [`block`] — blocks and fixed-size headers with body commitments;
//! * [`state`] — the replicated account state and its root commitment;
//! * [`locator`] — compact, lazily built transaction index (8 B/tx) that
//!   answers "where is this transaction?" without rescanning the chain;
//! * [`builder`] — block assembly against a scratch state;
//! * [`validation`] — linkage, signature, execution, and state-root checks,
//!   including the range-split used by collaborative verification;
//! * [`mempool`] — fee-prioritised, nonce-ordered transaction pool;
//! * [`genesis`] — deterministic chain origin.
//!
//! # Examples
//!
//! Build and validate a block:
//!
//! ```
//! use ici_chain::builder::BlockBuilder;
//! use ici_chain::genesis::GenesisConfig;
//! use ici_chain::transaction::{Address, Transaction};
//! use ici_chain::validation::validate_block;
//! use ici_crypto::sig::Keypair;
//!
//! let cfg = GenesisConfig::uniform(4, 1_000);
//! let genesis = cfg.genesis_block();
//! let state = cfg.initial_state();
//!
//! let mut builder = BlockBuilder::new(genesis.header(), state.clone(), 3, 100);
//! builder.push(Transaction::signed(
//!     &Keypair::from_seed(0), Address::from_seed(1), 25, 1, 0, Vec::new(),
//! ))?;
//! let block = builder.seal();
//!
//! let post = validate_block(&block, genesis.header(), &state)?;
//! assert_eq!(post.balance(&Address::from_seed(1)), 1_025);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod builder;
pub mod codec;
pub mod genesis;
pub mod hashing;
pub mod locator;
pub mod mempool;
pub mod shard;
pub mod state;
pub mod transaction;
pub mod validation;

pub use block::{Block, BlockHeader, BlockId, Height};
pub use genesis::GenesisConfig;
pub use locator::TxLocator;
pub use mempool::Mempool;
pub use state::WorldState;
pub use transaction::{Address, Transaction, TxId};
