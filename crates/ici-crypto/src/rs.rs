//! A systematic Reed–Solomon erasure code over GF(2^8).
//!
//! The RapidChain baseline disseminates blocks with IDA-gossip: the proposer
//! splits a block into `k` data shards, computes `m` parity shards, and sends
//! one shard per neighbour; any `k` of the `k + m` shards reconstruct the
//! block. This module provides that code.
//!
//! The construction is evaluation-based: shard `i` is the evaluation at
//! `x = i` of the degree-`< k` polynomial (one polynomial per byte position)
//! that passes through the data shards at `x = 0..k`. Encoding and
//! reconstruction are Lagrange interpolations, so the code is systematic
//! (shards `0..k` are the data verbatim) and MDS (any `k` shards suffice).
//!
//! # Examples
//!
//! ```
//! use ici_crypto::rs::ReedSolomon;
//!
//! let rs = ReedSolomon::new(4, 2)?;
//! let block = b"a block body to protect against shard loss".to_vec();
//! let mut shards: Vec<Option<Vec<u8>>> =
//!     rs.encode_payload(&block).into_iter().map(Some).collect();
//! shards[1] = None; // lose up to `parity` shards
//! shards[4] = None;
//! rs.reconstruct(&mut shards)?;
//! assert_eq!(rs.join_payload(&shards, block.len())?, block);
//! # Ok::<(), ici_crypto::rs::RsError>(())
//! ```

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use crate::gf256::{mul_acc, Gf256};

/// Errors produced by Reed–Solomon operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RsError {
    /// `data_shards` or `parity_shards` was zero, or the total exceeded 256.
    InvalidShardCounts {
        /// Requested number of data shards.
        data: usize,
        /// Requested number of parity shards.
        parity: usize,
    },
    /// The caller passed the wrong number of shards.
    WrongShardCount {
        /// Expected total shard count.
        expected: usize,
        /// Provided shard count.
        actual: usize,
    },
    /// Present shards disagree on length, or a shard was empty.
    InconsistentShardLength,
    /// Fewer than `data_shards` shards are present; reconstruction is
    /// impossible.
    TooFewShards {
        /// Shards required.
        needed: usize,
        /// Shards available.
        present: usize,
    },
    /// The requested payload length does not fit the provided shards.
    PayloadLength,
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::InvalidShardCounts { data, parity } => write!(
                f,
                "invalid shard counts: data={data}, parity={parity} (need both > 0, total <= 256)"
            ),
            RsError::WrongShardCount { expected, actual } => {
                write!(f, "expected {expected} shards, got {actual}")
            }
            RsError::InconsistentShardLength => {
                f.write_str("present shards are empty or differ in length")
            }
            RsError::TooFewShards { needed, present } => {
                write!(
                    f,
                    "need {needed} shards to reconstruct, only {present} present"
                )
            }
            RsError::PayloadLength => f.write_str("payload length inconsistent with shards"),
        }
    }
}

impl Error for RsError {}

/// A Reed–Solomon coder with a fixed `(data, parity)` geometry.
///
/// The encode-side Lagrange rows depend only on the geometry, so they are
/// computed once and cached for the coder's lifetime (clones carry the
/// cache state at clone time).
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    data_shards: usize,
    parity_shards: usize,
    parity_rows: OnceLock<Vec<Vec<Gf256>>>,
}

impl PartialEq for ReedSolomon {
    /// Coders are equal when their geometries are: the row cache is a
    /// pure function of the geometry.
    fn eq(&self, other: &ReedSolomon) -> bool {
        self.data_shards == other.data_shards && self.parity_shards == other.parity_shards
    }
}

impl Eq for ReedSolomon {}

/// `Σ row[j] · sources[j]` over GF(2^8), byte position by byte position.
fn combine<'a>(
    row: &[Gf256],
    sources: impl Iterator<Item = &'a Vec<u8>>,
    shard_len: usize,
) -> Vec<u8> {
    let mut out = vec![0u8; shard_len];
    for (coeff, src) in row.iter().zip(sources) {
        mul_acc(&mut out, src, *coeff);
    }
    out
}

impl ReedSolomon {
    /// Creates a coder with `data` data shards and `parity` parity shards.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidShardCounts`] unless `data >= 1`,
    /// `parity >= 1`, and `data + parity <= 256` (GF(2^8) has 256 distinct
    /// evaluation points).
    pub fn new(data: usize, parity: usize) -> Result<ReedSolomon, RsError> {
        if data == 0 || parity == 0 || data + parity > 256 {
            return Err(RsError::InvalidShardCounts { data, parity });
        }
        Ok(ReedSolomon {
            data_shards: data,
            parity_shards: parity,
            parity_rows: OnceLock::new(),
        })
    }

    /// Number of data shards `k`.
    pub fn data_shards(&self) -> usize {
        self.data_shards
    }

    /// Number of parity shards `m`.
    pub fn parity_shards(&self) -> usize {
        self.parity_shards
    }

    /// Total shards `n = k + m`.
    pub fn total_shards(&self) -> usize {
        self.data_shards + self.parity_shards
    }

    /// Lagrange coefficients `c_j` such that the polynomial through points
    /// `(xs[j], y_j)` evaluates at `target` to `Σ c_j · y_j`.
    fn lagrange_row(xs: &[u8], target: u8) -> Vec<Gf256> {
        let t = Gf256(target);
        xs.iter()
            .enumerate()
            .map(|(j, &xj)| {
                let mut num = Gf256::ONE;
                let mut den = Gf256::ONE;
                for (l, &xl) in xs.iter().enumerate() {
                    if l != j {
                        num = num.mul(t.sub(Gf256(xl)));
                        den = den.mul(Gf256(xj).sub(Gf256(xl)));
                    }
                }
                num.div(den)
            })
            .collect()
    }

    /// Computes the parity shards for `data` (one `Vec<u8>` per data shard,
    /// all the same length).
    ///
    /// # Errors
    ///
    /// Returns an error if the shard count or lengths are inconsistent.
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, RsError> {
        if data.len() != self.data_shards {
            return Err(RsError::WrongShardCount {
                expected: self.data_shards,
                actual: data.len(),
            });
        }
        let shard_len = data[0].len();
        if shard_len == 0 || data.iter().any(|s| s.len() != shard_len) {
            return Err(RsError::InconsistentShardLength);
        }
        Ok(self.parity_for(data, shard_len))
    }

    /// Parity computation core; callers have already validated that `data`
    /// holds exactly `k` shards of `shard_len > 0` bytes each.
    fn parity_for(&self, data: &[Vec<u8>], shard_len: usize) -> Vec<Vec<u8>> {
        self.encode_rows()
            .iter()
            .map(|row| combine(row, data.iter(), shard_len))
            .collect()
    }

    /// The cached encode-side Lagrange rows (parity targets `k..k+m` over
    /// evaluation points `0..k`), computed on first use.
    fn encode_rows(&self) -> &[Vec<Gf256>] {
        self.parity_rows.get_or_init(|| {
            let k = self.data_shards;
            let xs: Vec<u8> = (0..k as u16).map(|x| x as u8).collect();
            (0..self.parity_shards)
                .map(|p| ReedSolomon::lagrange_row(&xs, (k + p) as u8))
                .collect()
        })
    }

    /// Splits `payload` into `k` equal data shards (zero-padded) and appends
    /// the `m` parity shards, returning all `n` shards.
    ///
    /// Use [`ReedSolomon::join_payload`] with the original length to invert.
    pub fn encode_payload(&self, payload: &[u8]) -> Vec<Vec<u8>> {
        let _span = ici_telemetry::span!("crypto/rs_encode");
        ici_telemetry::observe(
            "crypto/rs_payload_bytes",
            ici_telemetry::Label::Global,
            payload.len() as u64,
        );
        let shard_len = payload.len().div_ceil(self.data_shards).max(1);
        let mut shards = Vec::with_capacity(self.total_shards());
        for i in 0..self.data_shards {
            let start = (i * shard_len).min(payload.len());
            let end = ((i + 1) * shard_len).min(payload.len());
            let mut shard = Vec::with_capacity(shard_len);
            shard.extend_from_slice(&payload[start..end]);
            shard.resize(shard_len, 0);
            shards.push(shard);
        }
        // The rows built above are k equal-length non-empty shards, so the
        // parity core's precondition holds by construction.
        let parity = self.parity_for(&shards, shard_len);
        shards.extend(parity);
        shards
    }

    /// Reconstructs all missing shards in place.
    ///
    /// `shards` must contain exactly `n` entries; `None` marks an erased
    /// shard. On success every entry is `Some`.
    ///
    /// # Errors
    ///
    /// Fails if fewer than `k` shards are present, the count is wrong, or
    /// present shards disagree on length.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        let _span = ici_telemetry::span!("crypto/rs_reconstruct");
        if shards.len() != self.total_shards() {
            return Err(RsError::WrongShardCount {
                expected: self.total_shards(),
                actual: shards.len(),
            });
        }
        let present: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_some().then_some(i))
            .collect();
        if present.len() < self.data_shards {
            return Err(RsError::TooFewShards {
                needed: self.data_shards,
                present: present.len(),
            });
        }
        let mut shard_len = 0usize;
        for shard in shards.iter().flatten() {
            if shard_len == 0 {
                shard_len = shard.len();
            }
            if shard.is_empty() || shard.len() != shard_len {
                return Err(RsError::InconsistentShardLength);
            }
        }

        // Any k present shards determine the polynomial.
        let basis = &present[..self.data_shards];
        let xs: Vec<u8> = basis.iter().map(|&i| i as u8).collect();
        let missing: Vec<usize> = (0..self.total_shards())
            .filter(|i| shards[*i].is_none())
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        // One Lagrange row per missing shard over the basis shards, which
        // come from `present` and are never erased.
        let rebuilt: Vec<Vec<u8>> = missing
            .iter()
            .map(|&target| {
                let row = ReedSolomon::lagrange_row(&xs, target as u8);
                let sources = basis.iter().filter_map(|&i| shards.get(i)?.as_ref());
                combine(&row, sources, shard_len)
            })
            .collect();
        for (&target, shard) in missing.iter().zip(rebuilt) {
            if let Some(slot) = shards.get_mut(target) {
                *slot = Some(shard);
            }
        }
        Ok(())
    }

    /// Reassembles the original payload of `payload_len` bytes from fully
    /// present shards (run [`ReedSolomon::reconstruct`] first if needed).
    ///
    /// # Errors
    ///
    /// Fails if any data shard is missing or `payload_len` exceeds the data
    /// capacity.
    pub fn join_payload(
        &self,
        shards: &[Option<Vec<u8>>],
        payload_len: usize,
    ) -> Result<Vec<u8>, RsError> {
        if shards.len() != self.total_shards() {
            return Err(RsError::WrongShardCount {
                expected: self.total_shards(),
                actual: shards.len(),
            });
        }
        let mut out = Vec::with_capacity(payload_len);
        for shard in shards.iter().take(self.data_shards) {
            let shard = shard.as_ref().ok_or(RsError::TooFewShards {
                needed: self.data_shards,
                present: shards.iter().flatten().count(),
            })?;
            out.extend_from_slice(shard);
        }
        if payload_len > out.len() {
            return Err(RsError::PayloadLength);
        }
        out.truncate(payload_len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn new_validates_geometry() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(2, 0).is_err());
        assert!(ReedSolomon::new(200, 57).is_err());
        assert!(ReedSolomon::new(200, 56).is_ok());
        assert!(ReedSolomon::new(1, 1).is_ok());
    }

    #[test]
    fn systematic_data_shards_are_verbatim() {
        let rs = ReedSolomon::new(4, 2).expect("valid geometry");
        let payload = sample_payload(40);
        let shards = rs.encode_payload(&payload);
        assert_eq!(shards.len(), 6);
        let rejoined: Vec<u8> = shards[..4].concat();
        assert_eq!(&rejoined[..40], &payload[..]);
    }

    #[test]
    fn survives_any_loss_up_to_parity() {
        let rs = ReedSolomon::new(5, 3).expect("valid geometry");
        let payload = sample_payload(101);
        let encoded = rs.encode_payload(&payload);

        // Erase every possible set of exactly `parity` shards.
        let n = rs.total_shards();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let mut shards: Vec<Option<Vec<u8>>> =
                        encoded.iter().cloned().map(Some).collect();
                    shards[a] = None;
                    shards[b] = None;
                    shards[c] = None;
                    rs.reconstruct(&mut shards)
                        .unwrap_or_else(|e| panic!("erasures {a},{b},{c}: {e}"));
                    assert_eq!(
                        rs.join_payload(&shards, payload.len()).expect("joined"),
                        payload,
                        "erasures {a},{b},{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn too_many_erasures_is_an_error() {
        let rs = ReedSolomon::new(3, 2).expect("valid geometry");
        let encoded = rs.encode_payload(&sample_payload(30));
        let mut shards: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(RsError::TooFewShards {
                needed: 3,
                present: 2
            })
        );
    }

    #[test]
    fn reconstructed_parity_matches_reencoding() {
        let rs = ReedSolomon::new(4, 2).expect("valid geometry");
        let payload = sample_payload(64);
        let encoded = rs.encode_payload(&payload);
        let mut shards: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
        shards[4] = None; // a parity shard
        rs.reconstruct(&mut shards).expect("reconstruct parity");
        assert_eq!(shards[4].as_ref().expect("present"), &encoded[4]);
    }

    #[test]
    fn payload_shorter_than_k_still_works() {
        let rs = ReedSolomon::new(8, 4).expect("valid geometry");
        let payload = vec![0xCD, 0x01];
        let mut shards: Vec<Option<Vec<u8>>> =
            rs.encode_payload(&payload).into_iter().map(Some).collect();
        for i in [0, 3, 9, 11] {
            shards[i] = None;
        }
        rs.reconstruct(&mut shards).expect("reconstruct");
        assert_eq!(rs.join_payload(&shards, 2).expect("joined"), payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let rs = ReedSolomon::new(3, 1).expect("valid geometry");
        let shards = rs.encode_payload(&[]);
        assert_eq!(shards.len(), 4);
        let opt: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        assert_eq!(rs.join_payload(&opt, 0).expect("joined"), Vec::<u8>::new());
    }

    #[test]
    fn encode_rejects_inconsistent_input() {
        let rs = ReedSolomon::new(2, 1).expect("valid geometry");
        assert_eq!(
            rs.encode(&[vec![1, 2]]),
            Err(RsError::WrongShardCount {
                expected: 2,
                actual: 1
            })
        );
        assert_eq!(
            rs.encode(&[vec![1, 2], vec![3]]),
            Err(RsError::InconsistentShardLength)
        );
        assert_eq!(
            rs.encode(&[vec![], vec![]]),
            Err(RsError::InconsistentShardLength)
        );
    }

    #[test]
    fn join_detects_bad_payload_len() {
        let rs = ReedSolomon::new(2, 1).expect("valid geometry");
        let shards: Vec<Option<Vec<u8>>> = rs
            .encode_payload(&sample_payload(10))
            .into_iter()
            .map(Some)
            .collect();
        assert_eq!(rs.join_payload(&shards, 1000), Err(RsError::PayloadLength));
    }

    #[test]
    fn error_display_is_informative() {
        let err = ReedSolomon::new(0, 0).expect_err("invalid");
        assert!(err.to_string().contains("invalid shard counts"));
    }

    #[test]
    fn cached_parity_rows_survive_clone_and_equality_is_geometric() {
        let rs = ReedSolomon::new(4, 2).expect("valid geometry");
        let payload = sample_payload(64);
        let before_first_encode = rs.clone();
        let expected = rs.encode_payload(&payload);
        let after_first_encode = rs.clone();
        assert_eq!(before_first_encode.encode_payload(&payload), expected);
        assert_eq!(after_first_encode.encode_payload(&payload), expected);
        assert_eq!(rs, before_first_encode);
        assert_eq!(rs, after_first_encode);
        assert_ne!(rs, ReedSolomon::new(4, 3).expect("valid geometry"));
    }

    #[test]
    fn large_geometry_round_trip() {
        let rs = ReedSolomon::new(16, 8).expect("valid geometry");
        let payload = sample_payload(4096);
        let mut shards: Vec<Option<Vec<u8>>> =
            rs.encode_payload(&payload).into_iter().map(Some).collect();
        // Drop 8 mixed data/parity shards.
        for i in [0, 2, 5, 7, 15, 16, 20, 23] {
            shards[i] = None;
        }
        rs.reconstruct(&mut shards).expect("reconstruct");
        assert_eq!(rs.join_payload(&shards, 4096).expect("joined"), payload);
    }
}
