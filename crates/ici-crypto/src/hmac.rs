//! HMAC-SHA256 (RFC 2104), validated against the RFC 4231 test vectors.
//!
//! [`hmac_sha256`] MACs a message in hand: the message is written once
//! into a block-aligned [`Message`], padded as the tail of the inner hash
//! (its length field counting the key block), and folded after the key's
//! ipad block; the outer hash is the opad block and the padded inner
//! digest, two blocks in one kernel call. The simulated signature scheme
//! in [`crate::sig`] folds one such padded message under two keys, and
//! a batch of sixteen under sixteen keys side by side: on AVX-512 both
//! HMACs of all sixteen in one call of the sixteen-lane kernel.
//! [`HmacSha256`] streams a message fed in pieces.
//!
//! # Examples
//!
//! ```
//! use ici_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
//! assert_eq!(
//!     tag.to_hex(),
//!     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
//! );
//! ```

use crate::sha256::{
    compress_blocks, count_batched, count_digests, digest_block, state_digest, wide_enabled,
    Digest, Message, Sha256, H0, WIDE,
};

/// The SHA-256 block an HMAC key is padded to.
pub(crate) const BLOCK_LEN: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the 64-byte SHA-256 block are hashed first, per RFC 2104.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut message = Message::from(message);
    let len = message.len();
    hmac_padded(key, len, message.padded(BLOCK_LEN as u64))
}

/// `HMAC-SHA256(key, message)` of a `len`-byte message whose `blocks`
/// are already padded as the inner hash's tail, their length field
/// counting the key block folded before them
/// (`Message::padded(BLOCK_LEN)`). One padded message serves any number of
/// keys.
pub(crate) fn hmac_padded(key: &[u8], len: usize, blocks: &[[u8; 64]]) -> Digest {
    let (inner_key, outer_key) = key_blocks(key);
    let mut inner = H0;
    compress_blocks(&mut inner, &[inner_key]);
    compress_blocks(&mut inner, blocks);
    count_digests(1, (BLOCK_LEN + len) as u64, 1 + blocks.len() as u64);
    outer_pass(&outer_key, &state_digest(&inner))
}

/// Two chained HMACs over each of [`WIDE`] messages, as a `SimSig`
/// signature computes them: lane `i` gives `a = HMAC(keys[i], m)` and
/// `b = HMAC(a, m)`, `m` the message `messages[i]` holds (padded in
/// place as the inner hash's tail, as for [`hmac_padded`]). Returns
/// `[a, b]` per lane.
///
/// When every message pads to the same block count (and every key fits
/// a block) the group counts as batched, and on AVX-512 both HMACs, four
/// hashes each lane, run in one call of the sixteen-lane kernel;
/// otherwise lane by lane. Either way the `crypto/sha256_*` counters
/// move as 32 [`hmac_padded`] calls would move them.
pub(crate) fn hmac_chain16(
    keys: [&[u8]; WIDE],
    messages: &mut [Message; WIDE],
) -> [[Digest; WIDE]; 2] {
    let blocks = messages[0].padded_blocks();
    let uniform = messages.iter().all(|m| m.padded_blocks() == blocks)
        && keys.iter().all(|key| key.len() <= BLOCK_LEN);
    let lens = messages.each_ref().map(Message::len);
    let padded = messages.each_mut().map(|m| m.padded(BLOCK_LEN as u64));
    if uniform {
        // Per HMAC: the ipad block and the message, the opad block and
        // the inner digest.
        count_batched(2 * (WIDE * (blocks + 3)) as u64);
        #[cfg(target_arch = "x86_64")]
        if wide_enabled() {
            let mut key_blocks = [[0u8; BLOCK_LEN]; WIDE];
            for (block, key) in key_blocks.iter_mut().zip(keys) {
                block[..key.len()].copy_from_slice(key);
            }
            if let Some(states) = crate::sha256_x86::hmac_chain16(key_blocks.each_ref(), padded) {
                let bytes = lens.iter().sum::<usize>() as u64;
                for _ in 0..2 {
                    let inner = (WIDE * BLOCK_LEN) as u64 + bytes;
                    count_digests(WIDE as u64, inner, (WIDE * (1 + blocks)) as u64);
                    let outer = (WIDE * (BLOCK_LEN + Digest::LEN)) as u64;
                    count_digests(WIDE as u64, outer, 2 * WIDE as u64);
                }
                return states.map(|lanes| lanes.map(|state| state_digest(&state)));
            }
        }
    }
    let mut out = [[Digest::ZERO; WIDE]; 2];
    for (i, ((key, len), blocks)) in keys.into_iter().zip(lens).zip(padded).enumerate() {
        let first = hmac_padded(key, len, blocks);
        out[1][i] = hmac_padded(first.as_bytes(), len, blocks);
        out[0][i] = first;
    }
    out
}

/// The outer hash's second block: the inner digest after the key block.
const OUTER_TAIL: [u8; 64] = digest_block((BLOCK_LEN + Digest::LEN) as u64);

/// The key padded to a block, XORed with `IPAD` and with `OPAD`.
fn key_blocks(key: &[u8]) -> ([u8; BLOCK_LEN], [u8; BLOCK_LEN]) {
    let mut padded = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        padded[..Digest::LEN].copy_from_slice(Sha256::digest(key).as_bytes());
    } else {
        padded[..key.len()].copy_from_slice(key);
    }
    (padded.map(|b| b ^ IPAD), padded.map(|b| b ^ OPAD))
}

/// The outer hash, `SHA256(key ^ opad ‖ inner digest)`: the key block
/// and the padded digest, two blocks in one kernel call.
fn outer_pass(outer_key: &[u8; BLOCK_LEN], inner_digest: &Digest) -> Digest {
    let mut blocks = [*outer_key, OUTER_TAIL];
    blocks[1][..Digest::LEN].copy_from_slice(inner_digest.as_bytes());
    let mut state = H0;
    compress_blocks(&mut state, &blocks);
    count_digests(1, (BLOCK_LEN + Digest::LEN) as u64, 2);
    state_digest(&state)
}

/// Streaming HMAC-SHA256.
///
/// The message can be fed incrementally, for callers that never hold it
/// in one piece; [`hmac_sha256`] is the one-shot form.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Key XORed with `OPAD`, retained for the outer hash.
    outer_key: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Creates a new MAC instance keyed with `key`.
    pub fn new(key: &[u8]) -> HmacSha256 {
        let (inner_key, outer_key) = key_blocks(key);
        let mut inner = Sha256::new();
        inner.update(&inner_key);
        HmacSha256 { inner, outer_key }
    }

    /// Appends message bytes.
    pub fn update(&mut self, message: &[u8]) -> &mut HmacSha256 {
        self.inner.update(message);
        self
    }

    /// Completes the MAC computation.
    pub fn finalize(&self) -> Digest {
        outer_pass(&self.outer_key, &self.inner.clone().finalize())
    }

    /// Verifies `tag` against the accumulated message in constant time
    /// over the digest bytes.
    pub fn verify(&self, tag: &Digest) -> bool {
        let computed = self.finalize();
        let mut diff = 0u8;
        for (a, b) in computed.as_bytes().iter().zip(tag.as_bytes()) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 4231 test cases 1–4, 6, 7 (case 5 truncates the output, which
    /// this API intentionally does not support), one-shot and streamed,
    /// under both kernels.
    #[test]
    fn rfc4231_vectors() {
        struct Case {
            key: Vec<u8>,
            data: Vec<u8>,
            expected: &'static str,
        }
        let cases = [
            Case {
                key: vec![0x0b; 20],
                data: b"Hi There".to_vec(),
                expected: "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            },
            Case {
                key: b"Jefe".to_vec(),
                data: b"what do ya want for nothing?".to_vec(),
                expected: "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            },
            Case {
                key: vec![0xaa; 20],
                data: vec![0xdd; 50],
                expected: "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            },
            Case {
                key: (1..=25).collect(),
                data: vec![0xcd; 50],
                expected: "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            },
            Case {
                key: vec![0xaa; 131],
                data: b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                expected: "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            },
            Case {
                key: vec![0xaa; 131],
                data: b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.".to_vec(),
                expected: "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            },
        ];
        crate::sha256::under_every_kernel(|kernel| {
            for (i, case) in cases.iter().enumerate() {
                let mut streamed = HmacSha256::new(&case.key);
                streamed.update(&case.data);
                for tag in [hmac_sha256(&case.key, &case.data), streamed.finalize()] {
                    assert_eq!(
                        tag.to_hex(),
                        case.expected,
                        "RFC 4231 case {} on kernel {kernel}",
                        i + 1
                    );
                }
            }
        });
    }

    /// The chained HMACs of a `SimSig` batch are two `hmac_sha256`
    /// calls a lane: for sixteen messages of one length (the batched
    /// path) and of mixed lengths (lane by lane), with keys of every
    /// length up to a block and past it, on every kernel.
    #[test]
    fn chained_hmacs_match_one_at_a_time() {
        crate::sha256::under_every_kernel(|kernel| {
            for lens in [[291usize; WIDE], std::array::from_fn(|i| 40 * i)] {
                for key_len in [0usize, 33, 64, 65] {
                    let keys: Vec<Vec<u8>> =
                        (0..WIDE).map(|i| vec![i as u8 + 1; key_len]).collect();
                    let data: Vec<Vec<u8>> =
                        lens.iter().map(|len| vec![*len as u8; *len]).collect();
                    let mut messages: [Message; WIDE] =
                        std::array::from_fn(|i| Message::from(&data[i][..]));
                    let [a, b] = hmac_chain16(std::array::from_fn(|i| &keys[i][..]), &mut messages);
                    for i in 0..WIDE {
                        let first = hmac_sha256(&keys[i], &data[i]);
                        assert_eq!(a[i], first, "kernel {kernel}, key {key_len}, lane {i}");
                        let second = hmac_sha256(first.as_bytes(), &data[i]);
                        assert_eq!(b[i], second, "kernel {kernel}, key {key_len}, lane {i}");
                    }
                }
            }
        });
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"a moderately long simulation key";
        let msg: Vec<u8> = (0..300u16).map(|i| (i % 256) as u8).collect();
        let oneshot = hmac_sha256(key, &msg);
        for split in [0, 1, 63, 64, 65, 150, msg.len()] {
            let mut mac = HmacSha256::new(key);
            mac.update(&msg[..split]);
            mac.update(&msg[split..]);
            assert_eq!(mac.finalize(), oneshot, "split {split}");
        }
    }

    #[test]
    fn verify_accepts_correct_and_rejects_wrong() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"payload");
        let tag = mac.finalize();
        assert!(mac.verify(&tag));

        let mut wrong = tag.into_bytes();
        wrong[0] ^= 1;
        assert!(!mac.verify(&Digest::from_bytes(wrong)));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn exactly_block_size_key_is_used_verbatim() {
        // A 64-byte key must not be hashed; spot-check by comparing to a
        // manually padded computation.
        let key = [0x42u8; 64];
        let msg = b"block-size key";
        let tag = hmac_sha256(&key, msg);

        let mut inner = Sha256::new();
        let ik: Vec<u8> = key.iter().map(|b| b ^ IPAD).collect();
        inner.update(&ik).update(msg);
        let inner_digest = inner.finalize();
        let mut outer = Sha256::new();
        let ok: Vec<u8> = key.iter().map(|b| b ^ OPAD).collect();
        outer.update(&ok).update(inner_digest.as_bytes());
        assert_eq!(tag, outer.finalize());
    }
}
