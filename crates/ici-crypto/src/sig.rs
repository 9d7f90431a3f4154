//! `SimSig` — a simulated digital-signature scheme.
//!
//! The paper's blockchain substrate signs transactions and block proposals
//! with ECDSA. External cryptography crates are out of scope for this
//! reproduction, so `SimSig` substitutes a hash-based construction that is
//! **size- and cost-faithful** (33-byte compressed-point-sized public keys,
//! 64-byte signatures, one hash-family operation to sign/verify) and has
//! correct accept/reject semantics for honest simulation: a signature made
//! with key `k` over message `m` verifies only for `(pk(k), m)`.
//!
//! A signature is `HMAC(pk, m) ‖ HMAC(HMAC(pk, m), m)`. Signing and
//! verifying write `m` once into a block-aligned [`Message`], padded as
//! the tail of an HMAC inner hash, and both HMACs fold that same padded
//! message after their own key block: for a 291-byte transaction signing
//! message, 16 compressions and no allocation. A transaction hands its
//! signing fields over already written ([`Keypair::sign_message`],
//! [`PublicKey::verify_message`]), and a batch of sixteen hands them over
//! together ([`Keypair::sign16`], [`PublicKey::verify16`]), whose hashes
//! run sixteen wide. Keys derive sixteen seeds at a time the same way
//! ([`Keypair::from_seeds`]).
//!
//! It is **not** unforgeable against an adversary who knows a public key —
//! the tag is derived from the public key itself — which is irrelevant here
//! because the simulator never models signature forgery; Byzantine behaviour
//! is injected at the protocol layer instead. This substitution is recorded
//! in `DESIGN.md`.
//!
//! # Examples
//!
//! ```
//! use ici_crypto::sig::Keypair;
//!
//! let pair = Keypair::from_seed(7);
//! let sig = pair.sign(b"transfer 10 -> bob");
//! assert!(pair.public().verify(b"transfer 10 -> bob", &sig));
//! assert!(!pair.public().verify(b"transfer 99 -> bob", &sig));
//! ```

use std::fmt;

use crate::hmac::{hmac_chain16, hmac_padded, BLOCK_LEN};
use crate::sha256::{digest_each, Digest, Message, Sha256, WIDE};

/// Length of an encoded public key (matches a compressed secp256k1 point).
pub const PUBLIC_KEY_LEN: usize = 33;
/// Length of an encoded signature (matches a raw ECDSA `(r, s)` pair).
pub const SIGNATURE_LEN: usize = 64;

/// What a keypair's seed is hashed after.
const KEY_DOMAIN: &[u8] = b"ici-simsig-key-v1:";

/// A public verification key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PublicKey([u8; PUBLIC_KEY_LEN]);

impl PublicKey {
    /// Returns the encoded key bytes.
    pub fn as_bytes(&self) -> &[u8; PUBLIC_KEY_LEN] {
        &self.0
    }

    /// Rebuilds a key from its encoding.
    pub fn from_bytes(bytes: [u8; PUBLIC_KEY_LEN]) -> PublicKey {
        PublicKey(bytes)
    }

    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        self.verify_message(&mut Message::from(message), signature)
    }

    /// [`PublicKey::verify`] over a message assembled in a [`Message`]
    /// (a transaction's signing fields, written by its encoder), padded
    /// where it is: a later [`Message::put`] overwrites the padding.
    pub fn verify_message(&self, message: &mut Message, signature: &Signature) -> bool {
        Signature::compute(self, message).0 == signature.0
    }

    /// [`PublicKey::verify_message`] for [`WIDE`] signatures at once:
    /// lane `i` checks `signatures[i]` by `keys[i]` over `messages[i]`.
    /// The signatures are computed as [`Keypair::sign16`] computes them,
    /// so the verdicts, and the hashes counted, are the per-signature
    /// ones.
    pub fn verify16(
        keys: [&PublicKey; WIDE],
        messages: &mut [Message; WIDE],
        signatures: [&Signature; WIDE],
    ) -> [bool; WIDE] {
        let computed = Signature::compute16(keys, messages);
        std::array::from_fn(|i| computed[i] == *signatures[i])
    }

    /// A short printable key fingerprint (first 4 bytes, hex).
    pub fn fingerprint(&self) -> String {
        self.0[1..5].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({})", self.fingerprint())
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.fingerprint())
    }
}

impl AsRef<[u8]> for PublicKey {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A detached signature.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature([u8; SIGNATURE_LEN]);

impl Signature {
    /// Returns the raw signature bytes.
    pub fn as_bytes(&self) -> &[u8; SIGNATURE_LEN] {
        &self.0
    }

    /// Rebuilds a signature from its encoding.
    pub fn from_bytes(bytes: [u8; SIGNATURE_LEN]) -> Signature {
        Signature(bytes)
    }

    /// Both halves fold the same padded message: the inner hashes of
    /// the two HMACs differ only in the key block folded first.
    fn compute(public: &PublicKey, message: &mut Message) -> Signature {
        let len = message.len();
        let blocks = message.padded(BLOCK_LEN as u64);
        let half_a = hmac_padded(&public.0, len, blocks);
        let half_b = hmac_padded(half_a.as_bytes(), len, blocks);
        Signature::from_halves(&half_a, &half_b)
    }

    /// [`Signature::compute`] for [`WIDE`] keys and messages at once.
    /// When every message pads to the same block count, both HMACs of
    /// all sixteen run side by side ([`hmac_chain16`]: on AVX-512 one
    /// kernel call); otherwise lane by lane. Either way the hashes
    /// counted are the per-signature ones.
    fn compute16(keys: [&PublicKey; WIDE], messages: &mut [Message; WIDE]) -> [Signature; WIDE] {
        let [half_a, half_b] = hmac_chain16(keys.map(|key| &key.0[..]), messages);
        std::array::from_fn(|i| Signature::from_halves(&half_a[i], &half_b[i]))
    }

    fn from_halves(half_a: &Digest, half_b: &Digest) -> Signature {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..32].copy_from_slice(half_a.as_bytes());
        out[32..].copy_from_slice(half_b.as_bytes());
        Signature(out)
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: String = self.0[..4].iter().map(|b| format!("{b:02x}")).collect();
        write!(f, "Signature({head}..)")
    }
}

impl AsRef<[u8]> for Signature {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A signing keypair.
///
/// In simulation every identity derives its keypair deterministically from a
/// numeric seed (its node or account id), so a scenario is reproducible from
/// its configuration alone.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Keypair {
    public: PublicKey,
}

impl Keypair {
    /// Derives the keypair for numeric identity `seed`: one 26-byte
    /// hash.
    pub fn from_seed(seed: u64) -> Keypair {
        Keypair::from_digest(&Sha256::digest_pair(KEY_DOMAIN, &seed.to_be_bytes()))
    }

    /// [`Keypair::from_seed`] of every seed, in order, the hashes run
    /// [`WIDE`] at a time ([`digest_each`]); the counters move as the
    /// per-seed derivations move them.
    pub fn from_seeds(seeds: impl IntoIterator<Item = u64>) -> impl Iterator<Item = Keypair> {
        let write = |seed: u64, message: &mut Message| {
            message.put(KEY_DOMAIN);
            message.put(&seed.to_be_bytes());
        };
        digest_each(seeds, write).map(|digest| Keypair::from_digest(&digest))
    }

    fn from_digest(digest: &Digest) -> Keypair {
        let mut encoded = [0u8; PUBLIC_KEY_LEN];
        encoded[0] = 0x02; // compressed-point tag, for byte-level realism
        encoded[1..].copy_from_slice(digest.as_bytes());
        Keypair {
            public: PublicKey(encoded),
        }
    }

    /// The verification half of the pair.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_message(&mut Message::from(message))
    }

    /// [`Keypair::sign`] over a message assembled in a [`Message`]
    /// (a transaction's signing fields, written by its encoder), padded
    /// where it is, as for [`PublicKey::verify_message`].
    pub fn sign_message(&self, message: &mut Message) -> Signature {
        Signature::compute(&self.public, message)
    }

    /// [`Keypair::sign_message`] for [`WIDE`] messages at once, the
    /// mirror of [`PublicKey::verify16`]: lane `i` signs `messages[i]`
    /// with `pairs[i]`. The signatures, and the hashes counted, are the
    /// per-message ones.
    pub fn sign16(pairs: [&Keypair; WIDE], messages: &mut [Message; WIDE]) -> [Signature; WIDE] {
        Signature::compute16(pairs.map(|pair| &pair.public), messages)
    }
}

impl fmt::Debug for Keypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Keypair({})", self.public.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let pair = Keypair::from_seed(1);
        let sig = pair.sign(b"msg");
        assert!(pair.public().verify(b"msg", &sig));
    }

    /// A signature made under one SHA-256 kernel is the same bytes, and
    /// verifies, under the other: nodes with and without the SHA
    /// extensions must accept each other's blocks.
    #[test]
    fn signatures_cross_verify_between_kernels() {
        let msg: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        let selected = Keypair::from_seed(4).sign(&msg);
        crate::sha256::under_every_kernel(|kernel| {
            let pair = Keypair::from_seed(4);
            assert_eq!(pair.sign(&msg), selected, "kernel {kernel}");
            assert!(pair.public().verify(&msg, &selected), "kernel {kernel}");
        });
    }

    /// A signature is `HMAC(pk, m) ‖ HMAC(HMAC(pk, m), m)`, here
    /// composed from the streaming `HmacSha256`, for an empty message,
    /// a 200-byte one and one past a `Message`'s inline capacity, on
    /// every kernel; `verify` and `verify_message` accept it and
    /// nothing else.
    #[test]
    fn signatures_equal_the_hmac_composition() {
        crate::sha256::under_every_kernel(|kernel| {
            for len in [0usize, 200, 600] {
                let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let mac = |key: &[u8]| {
                    let mut mac = crate::hmac::HmacSha256::new(key);
                    mac.update(&msg);
                    mac.finalize()
                };
                let pair = Keypair::from_seed(len as u64);
                let half_a = mac(pair.public().as_bytes());
                let half_b = mac(half_a.as_bytes());
                let mut expected = [0u8; SIGNATURE_LEN];
                expected[..32].copy_from_slice(half_a.as_bytes());
                expected[32..].copy_from_slice(half_b.as_bytes());
                let expected = Signature::from_bytes(expected);
                assert_eq!(pair.sign(&msg), expected, "kernel {kernel}, len {len}");
                assert!(pair.public().verify(&msg, &expected), "len {len}");
                let mut message = Message::from(&msg[..]);
                assert!(
                    pair.public().verify_message(&mut message, &expected),
                    "len {len}"
                );
                let other = Keypair::from_seed(len as u64 + 1).public();
                assert!(!other.verify(&msg, &expected), "len {len}");
            }
        });
    }

    /// `verify16` is sixteen `verify_message` calls: for sixteen
    /// signatures of one message length (the sixteen-lane path) and of
    /// mixed lengths (lane by lane), a forged signature or key at each
    /// lane position is rejected there and nowhere else, on every
    /// kernel, and the counters move as the per-signature checks move
    /// them.
    #[test]
    fn sixteen_wide_verify_matches_one_at_a_time() {
        ici_telemetry::set_enabled(true);
        let pairs: Vec<Keypair> = (0..WIDE as u64).map(Keypair::from_seed).collect();
        let uniform: Vec<Vec<u8>> = (0..WIDE).map(|i| vec![i as u8; 291]).collect();
        let mixed: Vec<Vec<u8>> = (0..WIDE).map(|i| vec![i as u8; 40 * i]).collect();
        crate::sha256::under_every_kernel(|kernel| {
            for msgs in [&uniform, &mixed] {
                let signatures: Vec<Signature> =
                    pairs.iter().zip(msgs).map(|(p, m)| p.sign(m)).collect();
                let keys: Vec<PublicKey> = pairs.iter().map(Keypair::public).collect();
                for forged in (0..=WIDE).chain(WIDE..2 * WIDE) {
                    // Lanes below WIDE get a flipped signature byte, lanes
                    // past it (mod WIDE) the next lane's key; WIDE forges
                    // nothing.
                    let mut sigs = signatures.clone();
                    let mut lane_keys = keys.clone();
                    if forged < WIDE {
                        let mut bytes = *sigs[forged].as_bytes();
                        bytes[forged * 4 % SIGNATURE_LEN] ^= 1;
                        sigs[forged] = Signature::from_bytes(bytes);
                    } else if forged > WIDE {
                        let lane = forged % WIDE;
                        lane_keys[lane] = keys[(lane + 1) % WIDE];
                    }
                    let messages = || std::array::from_fn(|i| Message::from(&msgs[i][..]));
                    let mut batch: [Message; WIDE] = messages();
                    let mut verdicts = [false; WIDE];
                    let batched = crate::sha256::counts(|| {
                        verdicts = PublicKey::verify16(
                            std::array::from_fn(|i| &lane_keys[i]),
                            &mut batch,
                            std::array::from_fn(|i| &sigs[i]),
                        );
                    });
                    let mut expected = [false; WIDE];
                    let single = crate::sha256::counts(|| {
                        for (i, mut message) in messages().into_iter().enumerate() {
                            expected[i] = lane_keys[i].verify_message(&mut message, &sigs[i]);
                        }
                    });
                    let bad = (forged != WIDE).then_some(forged % WIDE);
                    for (lane, verdict) in verdicts.iter().enumerate() {
                        assert_eq!(
                            *verdict,
                            Some(lane) != bad,
                            "kernel {kernel}, forged {forged}"
                        );
                    }
                    assert_eq!(verdicts, expected, "kernel {kernel}, forged {forged}");
                    assert_eq!(batched, single, "kernel {kernel}, forged {forged}");
                }
            }
        });
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let pair = Keypair::from_seed(1);
        let sig = pair.sign(b"msg");
        assert!(!pair.public().verify(b"other", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let alice = Keypair::from_seed(1);
        let bob = Keypair::from_seed(2);
        let sig = alice.sign(b"msg");
        assert!(!bob.public().verify(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let pair = Keypair::from_seed(3);
        let sig = pair.sign(b"msg");
        for byte in 0..SIGNATURE_LEN {
            let mut bytes = *sig.as_bytes();
            bytes[byte] ^= 0x01;
            assert!(
                !pair.public().verify(b"msg", &Signature::from_bytes(bytes)),
                "flip at byte {byte} accepted"
            );
        }
    }

    #[test]
    fn keys_are_deterministic_and_distinct() {
        assert_eq!(Keypair::from_seed(9), Keypair::from_seed(9));
        let mut seen = std::collections::HashSet::new();
        for seed in 0..200 {
            assert!(
                seen.insert(Keypair::from_seed(seed).public()),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn encodings_round_trip() {
        let pair = Keypair::from_seed(11);
        let pk = PublicKey::from_bytes(*pair.public().as_bytes());
        assert_eq!(pk, pair.public());
        let sig = pair.sign(b"x");
        assert_eq!(Signature::from_bytes(*sig.as_bytes()), sig);
    }

    #[test]
    fn sizes_match_ecdsa_accounting() {
        let pair = Keypair::from_seed(0);
        assert_eq!(pair.public().as_bytes().len(), 33);
        assert_eq!(pair.sign(b"m").as_bytes().len(), 64);
    }
}
