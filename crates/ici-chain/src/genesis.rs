//! Genesis configuration.
//!
//! Every simulated network — ICIStrategy and both baselines — starts from a
//! [`GenesisConfig`]: an initial coin allocation plus a timestamp. The
//! config deterministically yields the genesis block and the initial
//! [`WorldState`], so every node agrees on height 0 without communication.
//!
//! A [`GenesisConfig::uniform`] universe of `n` accounts costs `2n`
//! compressions, a key and an address per seed, hashed sixteen seeds at
//! a time; [`GenesisConfig::initial_state`] builds the table with one
//! sort ([`WorldState::with_balances`]) and no per-account probe.

use crate::block::{Block, BlockHeader};
use crate::state::WorldState;
use crate::transaction::Address;
use ici_crypto::sha256::Digest;

/// Parameters of the chain's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenesisConfig {
    allocations: Vec<(Address, u64)>,
    timestamp_ms: u64,
}

impl GenesisConfig {
    /// Creates a config with explicit allocations.
    pub fn new(allocations: Vec<(Address, u64)>, timestamp_ms: u64) -> GenesisConfig {
        GenesisConfig {
            allocations,
            timestamp_ms,
        }
    }

    /// Convenience: funds accounts with seeds `0..accounts`, each holding
    /// `balance` coins. Matches the workload generators, which draw senders
    /// from the same seed range. The addresses are
    /// [`Address::from_seed`]'s, derived sixteen seeds at a time
    /// ([`Address::from_seeds`]).
    pub fn uniform(accounts: u64, balance: u64) -> GenesisConfig {
        GenesisConfig {
            allocations: Address::from_seeds(0..accounts)
                .map(|address| (address, balance))
                .collect(),
            timestamp_ms: 0,
        }
    }

    /// The initial allocations.
    pub fn allocations(&self) -> &[(Address, u64)] {
        &self.allocations
    }

    /// Genesis timestamp in milliseconds.
    pub fn timestamp_ms(&self) -> u64 {
        self.timestamp_ms
    }

    /// Builds the initial world state.
    pub fn initial_state(&self) -> WorldState {
        WorldState::with_balances(self.allocations.iter().copied())
    }

    /// Builds the genesis block: height 0, zero parent, empty body, state
    /// root committing to the initial allocations.
    pub fn genesis_block(&self) -> Block {
        let state = self.initial_state();
        Block::new(
            BlockHeader {
                height: 0,
                parent: Digest::ZERO,
                tx_root: Digest::ZERO,
                state_root: state.root(),
                timestamp_ms: self.timestamp_ms,
                proposer: 0,
                pow_nonce: 0,
                tx_count: 0,
                body_len: 0,
            },
            Vec::new(),
        )
    }
}

impl Default for GenesisConfig {
    /// A small default universe: 64 accounts with 1,000,000 coins each.
    fn default() -> GenesisConfig {
        GenesisConfig::uniform(64, 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_is_deterministic() {
        let a = GenesisConfig::uniform(10, 500);
        let b = GenesisConfig::uniform(10, 500);
        assert_eq!(a.genesis_block().id(), b.genesis_block().id());
    }

    #[test]
    fn genesis_commits_to_allocations() {
        let a = GenesisConfig::uniform(10, 500);
        let b = GenesisConfig::uniform(10, 501);
        assert_ne!(a.genesis_block().id(), b.genesis_block().id());
    }

    #[test]
    fn initial_state_matches_allocations() {
        let cfg = GenesisConfig::uniform(5, 100);
        let state = cfg.initial_state();
        assert_eq!(state.total_supply(), 500);
        for seed in 0..5 {
            assert_eq!(state.balance(&Address::from_seed(seed)), 100);
            assert_eq!(state.nonce(&Address::from_seed(seed)), 0);
        }
        assert_eq!(cfg.genesis_block().header().state_root, state.root());
    }

    #[test]
    fn genesis_block_shape() {
        let block = GenesisConfig::default().genesis_block();
        assert_eq!(block.height(), 0);
        assert_eq!(block.header().parent, Digest::ZERO);
        assert!(block.transactions().is_empty());
    }
}
