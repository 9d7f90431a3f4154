//! Digests of encodable values, with no encoding buffer.
//!
//! `double_sha256(&value.to_bytes())` materializes the canonical
//! encoding in a throwaway `Vec` on every call — on the block pipeline
//! that is one heap allocation per header id and transaction id. The
//! helpers here write the encoding once into a block-aligned hash
//! [`Message`] through [`Writer::hashing`], producing byte-identical
//! digests with no allocation for any encoding within the message's
//! inline capacity. The `ici-lint` `rehash` rule steers protocol code
//! toward this module.

use ici_crypto::sha256::{double_sha256, Digest, Message, Sha256};

use crate::codec::{Encode, Writer};

/// SHA-256 of `value`'s canonical encoding.
pub fn digest_encodable<T: Encode + ?Sized>(value: &T) -> Digest {
    let mut message = Message::new();
    value.encode(&mut Writer::hashing(&mut message));
    message.digest()
}

/// Double-SHA-256 of `value`'s canonical encoding. Equals
/// `double_sha256(&value.to_bytes())` without materializing the bytes.
pub fn double_sha256_encodable<T: Encode + ?Sized>(value: &T) -> Digest {
    Sha256::digest(digest_encodable(value).as_bytes())
}

/// Two-pass reference implementation: materializes the encoding, then
/// double-hashes it. This is the definition the message-writing helpers
/// are pinned against in the equivalence suite; protocol code must use
/// [`double_sha256_encodable`] instead.
pub fn double_sha256_of_bytes<T: Encode + ?Sized>(value: &T) -> Digest {
    // lint:allow(rehash) -- the reference the message-writing path is pinned against
    double_sha256(&value.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_digest_matches_materialized() {
        // Empty, short, and far past the message's inline capacity.
        let values: Vec<Vec<u8>> = vec![Vec::new(), vec![1, 2, 3], vec![0xAB; 4096]];
        for v in &values {
            assert_eq!(digest_encodable(v), Sha256::digest(&v.to_bytes()));
            assert_eq!(double_sha256_encodable(v), double_sha256_of_bytes(v));
        }
    }

    #[test]
    fn message_digest_covers_multi_field_values() {
        // A value whose encoding spans several put_* calls and crosses
        // the 64-byte block boundary and the inline capacity.
        for n in [4u64, 40, 80] {
            let v: Vec<u64> = (0..n).collect();
            assert_eq!(double_sha256_encodable(&v), double_sha256_of_bytes(&v));
        }
    }
}
