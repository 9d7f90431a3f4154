//! **ICIStrategy** — a multi-node collaborative storage strategy via
//! clustering, reproducing Li, Qin, Liu & Chu (ICDCS 2020).
//!
//! Participants are divided into clusters; each *cluster* holds the whole
//! chain (intra-cluster integrity) while each *node* holds the full header
//! chain but only its assigned `r`-of-`c` share of block bodies. Blocks are
//! verified collaboratively (each member checks a slice) and committed with
//! an intra-cluster BFT vote; remote clusters receive the block through
//! their leaders. Bootstrapping downloads headers plus the joiner's share
//! only.
//!
//! Crate map: [`config`] (parameters), [`network`] (the deployment),
//! [`lifecycle`] (propose→commit→store), [`verify`] (the collaborative
//! checking logic), [`query`] (tiered reads), [`spv`] (light transaction
//! proofs), [`bootstrap`] (joins), [`failure`] (crashes and
//! re-replication), [`merkle_audit`] (shard-level content audit),
//! [`reconfig`] (epoch re-clustering and departures), [`holdings`]
//! (per-node storage accounting), [`error`].
//!
//! # Examples
//!
//! ```
//! use ici_core::config::IciConfig;
//! use ici_core::network::IciNetwork;
//! use ici_chain::transaction::{Address, Transaction};
//! use ici_crypto::sig::Keypair;
//!
//! let config = IciConfig::builder()
//!     .nodes(32)
//!     .cluster_size(8)
//!     .replication(2)
//!     .build()
//!     .map_err(ici_core::error::IciError::Config)?;
//! let mut network = IciNetwork::new(config)?;
//!
//! let tx = Transaction::signed(
//!     &Keypair::from_seed(0), Address::from_seed(1), 10, 1, 0, Vec::new(),
//! );
//! let record = network.propose_block(vec![tx])?;
//! assert_eq!(record.height, 1);
//! assert!(record.missed_clusters.is_empty());
//!
//! // Every cluster still collectively holds the whole chain.
//! assert!(network.audit_all().iter().all(|r| r.is_intact()));
//! # Ok::<(), ici_core::error::IciError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod config;
pub mod error;
pub mod failure;
pub mod holdings;
pub mod lifecycle;
pub mod merkle_audit;
pub mod network;
pub mod query;
pub mod reconfig;
pub mod spv;
pub mod verify;

pub use bootstrap::BootstrapReport;
pub use config::{Assignment, Clustering, IciConfig, IciConfigBuilder};
pub use error::IciError;
pub use failure::RepairReport;
pub use holdings::NodeHoldings;
pub use lifecycle::{BlockCommitRecord, StageBoundary};
pub use merkle_audit::{attribute_corrupt_shards, MerkleAuditReport};
pub use network::IciNetwork;
pub use query::{QueryReport, QueryTier};
pub use reconfig::{DepartReport, ReconfigReport};
pub use spv::TxProofReport;
pub use verify::{ByzVerifyReport, Verdict};
