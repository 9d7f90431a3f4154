//! **icistrategy** — a reproduction of *"A Multi-node Collaborative
//! Storage Strategy via Clustering in Blockchain Network"* (Li, Qin, Liu &
//! Chu, ICDCS 2020).
//!
//! This facade crate re-exports the twelve library crates below. The
//! causal trace (`ici-trace`), the seeded RNG (`ici-rng`), the property
//! harness (`ici-prop`) and the tool crates (`ici-bench`, `ici-lint`,
//! `ici-par`) are not re-exported; depend on them by name.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`crypto`] | `ici-crypto` | SHA-256, HMAC, Merkle trees, SimSig, GF(256) + Reed–Solomon, hash lotteries |
//! | [`chain`] | `ici-chain` | transactions, blocks, state, validation, genesis |
//! | [`net`] | `ici-net` | discrete-event WAN simulator with byte-exact metering |
//! | [`cluster`] | `ici-cluster` | latency-aware clustering and membership |
//! | [`storage`] | `ici-storage` | block→owner assignment, integrity audit, recovery planning |
//! | [`consensus`] | `ici-consensus` | PBFT-style commit, verdict tallies, leader lotteries, gossip, IDA-gossip |
//! | [`core`] | `ici-core` | **the paper's contribution**: the ICIStrategy network |
//! | [`baselines`] | `ici-baselines` | full replication and RapidChain comparators |
//! | [`workload`] | `ici-workload` | deterministic transaction generators |
//! | [`sim`] | `ici-sim` | experiment runners, statistics, tables |
//! | [`faults`] | `ici-faults` | seed-deterministic fault plans and their per-round send-path faults |
//! | [`telemetry`] | `ici-telemetry` | spans, counters, histograms, profiling export |
//!
//! # Quickstart
//!
//! ```
//! use icistrategy::core::config::IciConfig;
//! use icistrategy::core::network::IciNetwork;
//! use icistrategy::workload::{WorkloadConfig, WorkloadGenerator};
//!
//! // 32 nodes in clusters of 8, every block stored on 2 nodes per cluster.
//! let config = IciConfig::builder()
//!     .nodes(32)
//!     .cluster_size(8)
//!     .replication(2)
//!     .build()
//!     .expect("valid configuration");
//! let mut network = IciNetwork::new(config)?;
//!
//! let mut workload = WorkloadGenerator::new(WorkloadConfig::default());
//! for _ in 0..3 {
//!     network.propose_block(workload.batch(10))?;
//! }
//!
//! // Every cluster still collectively holds the whole chain, while each
//! // node stores only a fraction of it.
//! assert!(network.audit_all().iter().all(|r| r.is_intact()));
//! assert!(network.storage_stats().mean < network.full_replica_bytes() as f64);
//! # Ok::<(), icistrategy::core::error::IciError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ici_baselines as baselines;
pub use ici_chain as chain;
pub use ici_cluster as cluster;
pub use ici_consensus as consensus;
pub use ici_core as core;
pub use ici_crypto as crypto;
pub use ici_faults as faults;
pub use ici_net as net;
pub use ici_sim as sim;
pub use ici_storage as storage;
pub use ici_telemetry as telemetry;
pub use ici_workload as workload;

/// Convenience re-exports of the types most programs start from.
pub mod prelude {
    pub use ici_baselines::analytic::LedgerShape;
    pub use ici_baselines::{
        FullConfig, FullReplicationNetwork, RapidChainConfig, RapidChainNetwork,
    };
    pub use ici_chain::{Address, Block, BlockHeader, GenesisConfig, Transaction, WorldState};
    pub use ici_cluster::{ClusterId, JoinPolicy};
    pub use ici_core::{Assignment, Clustering, IciConfig, IciError, IciNetwork, QueryTier};
    pub use ici_crypto::{Digest, Keypair, Sha256};
    pub use ici_faults::{FaultPlan, FaultPlanConfig};
    pub use ici_net::{Coord, NodeId};
    pub use ici_sim::{run, run_under_faults, FaultProfile, RunSummary};
    pub use ici_workload::{WorkloadConfig, WorkloadGenerator};
}
