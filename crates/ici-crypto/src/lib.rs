//! Cryptographic substrate for the ICIStrategy reproduction.
//!
//! Everything here is implemented from scratch (no external crypto crates):
//!
//! * [`sha256`] — SHA-256 and double-SHA-256 (FIPS 180-4), the hash family
//!   used for block/transaction identifiers and every derived lottery. One
//!   compression seam, two kernels: the x86-64 SHA extensions when the CPU
//!   has them (detected at run time), a portable loop everywhere else.
//!   A message in hand is laid out in the kernel's 64-byte blocks
//!   ([`Message`]) and padded in place, never streamed.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104/4231).
//! * [`merkle`] — domain-separated Merkle trees with inclusion proofs.
//! * [`sig`] — `SimSig`, a size- and cost-faithful simulated signature
//!   scheme standing in for ECDSA (substitution documented in `DESIGN.md`).
//! * [`gf256`] / [`rs`] — GF(2^8) arithmetic and a systematic Reed–Solomon
//!   erasure code, used by the RapidChain baseline's IDA-gossip.
//! * [`lottery`] — deterministic hash lotteries: leader election and
//!   rendezvous (HRW) hashing for block-to-node assignment.
//!
//! # Examples
//!
//! ```
//! use ici_crypto::{Digest, Sha256};
//!
//! let id = Sha256::digest(b"block body");
//! assert_eq!(id, Digest::from_hex(&id.to_hex()).unwrap());
//! ```

// `deny` (not `forbid`) so `sha256_x86` can carve out the hardware
// intrinsics of the SHA-NI kernel; see lint.toml `unsafe_files`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod gf256;
pub mod hmac;
pub mod lottery;
pub mod merkle;
pub mod rs;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod sha256_x86;
pub mod sig;

pub use merkle::{MerkleProof, MerkleTree};
pub use sha256::{double_sha256, Digest, Message, Sha256};
pub use sig::{Keypair, PublicKey, Signature};
