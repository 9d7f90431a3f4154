//! The crates' own integration suites, run from the root package.
//!
//! `cargo test` at the root runs only the root package, so each suite
//! under `crates/*/tests` is compiled here as a module of this one test
//! binary. The root package already depends on every crate they use.
//!
//! Two suites stay out:
//! - `ici-lint/tests/engine.rs` resolves its fixtures from
//!   `CARGO_MANIFEST_DIR`, which names the root here, and
//!   `tests/lint_gate.rs` already runs the gate on the workspace;
//! - `ici-bench/tests/hash_allocations.rs` counts allocations through
//!   `ici-bench`'s global allocator, so it needs a binary of its own.

#[path = "../crates/ici-chain/tests/equivalence.rs"]
mod chain_equivalence;
#[path = "../crates/ici-chain/tests/mempool_oracle.rs"]
mod chain_mempool_oracle;
#[path = "../crates/ici-chain/tests/properties.rs"]
mod chain_properties;
#[path = "../crates/ici-cluster/tests/properties.rs"]
mod cluster_properties;
#[path = "../crates/ici-crypto/tests/properties.rs"]
mod crypto_properties;
#[path = "../crates/ici-faults/tests/send_faults.rs"]
mod faults_send_faults;
#[path = "../crates/ici-net/tests/properties.rs"]
mod net_properties;
#[path = "../crates/ici-storage/tests/properties.rs"]
mod storage_properties;
