//! A hand-rolled, deterministic binary codec.
//!
//! Blocks and transactions must hash identically on every node, so the wire
//! format is fully specified here rather than delegated to a serialization
//! framework: integers are big-endian fixed width, byte strings are
//! `u32`-length-prefixed, and sequences are `u32`-count-prefixed.
//!
//! The [`Encode`] / [`Decode`] pair also powers the simulator's byte-exact
//! message metering: `encoded_len` of every protocol message is what the
//! network layer charges against bandwidth. An encoding that is only
//! hashed is never buffered: [`Writer::hashing`] writes it in place into
//! a caller's SHA-256 [`Message`], which a batch reuses from one
//! encoding to the next.
//!
//! # Examples
//!
//! ```
//! use ici_chain::codec::{Decode, Encode, Reader, Writer};
//!
//! let mut w = Writer::new();
//! 42u64.encode(&mut w);
//! b"payload".to_vec().encode(&mut w);
//! let bytes = w.into_bytes();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(u64::decode(&mut r)?, 42);
//! assert_eq!(Vec::<u8>::decode(&mut r)?, b"payload");
//! # Ok::<(), ici_chain::codec::CodecError>(())
//! ```

use std::error::Error;
use std::fmt;

use ici_crypto::sha256::{Digest, Message};
use ici_crypto::sig::{PublicKey, Signature, PUBLIC_KEY_LEN, SIGNATURE_LEN};

/// Maximum length accepted for a single byte-string field (16 MiB), a guard
/// against corrupt length prefixes allocating unbounded memory.
pub const MAX_FIELD_LEN: usize = 16 << 20;

/// Errors raised while decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the field was complete.
    UnexpectedEof {
        /// Bytes needed to finish the field.
        needed: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A length prefix exceeded [`MAX_FIELD_LEN`].
    FieldTooLarge(usize),
    /// An enum tag byte had no corresponding variant.
    InvalidTag(u8),
    /// Bytes were left over after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed}, had {remaining}"
                )
            }
            CodecError::FieldTooLarge(len) => write!(f, "field length {len} exceeds limit"),
            CodecError::InvalidTag(tag) => write!(f, "invalid enum tag {tag:#04x}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl Error for CodecError {}

/// Where a [`Writer`] sends its bytes: a growable buffer (the default),
/// or a caller's block-aligned hash [`Message`], for callers that only
/// need a digest of the encoding.
#[derive(Debug)]
enum Sink<'m> {
    Buf(Vec<u8>),
    Hash(&'m mut Message),
}

impl Default for Sink<'_> {
    fn default() -> Self {
        Sink::Buf(Vec::new())
    }
}

/// Output sink for encoding: a growable buffer, or a borrowed hash
/// message (see [`Writer::hashing`]) that lays the encoding out in the
/// blocks the SHA-256 kernel reads.
#[derive(Debug, Default)]
pub struct Writer<'m> {
    sink: Sink<'m>,
}

impl Writer<'static> {
    /// Creates an empty buffering writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates a buffering writer with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            sink: Sink::Buf(Vec::with_capacity(capacity)),
        }
    }
}

impl<'m> Writer<'m> {
    /// Creates a writer that appends every byte to `message`, in place:
    /// a fresh [`Message`], one opened with a domain prefix, or one a
    /// batch reuses after [`Message::truncate`]. Hash the message once
    /// the writer is done with it. An encoding within the message's
    /// inline capacity is hashed with no allocation, and nothing is
    /// copied into or out of the message.
    #[inline]
    pub fn hashing(message: &'m mut Message) -> Self {
        Writer {
            sink: Sink::Hash(message),
        }
    }

    /// Appends raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            Sink::Buf(buf) => buf.extend_from_slice(bytes),
            Sink::Hash(message) => message.put(bytes),
        }
    }

    /// Appends a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.put_bytes(&[v]);
    }

    /// Appends a big-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_be_bytes());
    }

    /// Appends a `u32`-length-prefixed byte string.
    #[inline]
    pub fn put_len_prefixed(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len() <= MAX_FIELD_LEN, "field exceeds MAX_FIELD_LEN");
        // lint:allow(cast) -- encoders are in-process and bounded by
        // MAX_FIELD_LEN (enforced on decode; debug-asserted here)
        self.put_u32(bytes.len() as u32);
        self.put_bytes(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the writer, returning the encoded bytes (copied out of
    /// a hashing writer's message).
    pub fn into_bytes(self) -> Vec<u8> {
        match self.sink {
            Sink::Buf(buf) => buf,
            Sink::Hash(message) => message.as_bytes().to_vec(),
        }
    }

    /// Borrows the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.sink {
            Sink::Buf(buf) => buf,
            Sink::Hash(message) => message.as_bytes(),
        }
    }
}

/// Cursor over input bytes for decoding.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` in a reader positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`CodecError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.remaining()))
        }
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads exactly `N` bytes into a fixed-size array, without any
    /// panicking conversion: the length check lives in [`Reader::take`]
    /// and the copy is infallible once the slice is in hand.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    /// Reads a `u32`-length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`CodecError::FieldTooLarge`] if the prefix exceeds
    /// [`MAX_FIELD_LEN`]; [`CodecError::UnexpectedEof`] if truncated.
    pub fn take_len_prefixed(&mut self) -> Result<&'a [u8], CodecError> {
        // lint:allow(cast) -- u32 → usize widens on every supported platform
        let len = self.take_u32()? as usize;
        if len > MAX_FIELD_LEN {
            return Err(CodecError::FieldTooLarge(len));
        }
        self.take(len)
    }
}

/// Types with a canonical binary encoding.
pub trait Encode {
    /// Appends the encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Exact length of the encoding in bytes.
    ///
    /// The default implementation encodes into a scratch buffer; types on
    /// hot metering paths override it with a closed form.
    fn encoded_len(&self) -> usize {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.len()
    }

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_len());
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Types decodable from their canonical encoding.
pub trait Decode: Sized {
    /// Decodes one value, advancing the reader.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Decodes a value that must consume the entire buffer.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] if input remains after the value.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

impl Encode for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.take_u8()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.take_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.take_u64()
    }
}

impl Encode for Digest {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        Digest::LEN
    }
}

impl Decode for Digest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Digest::from_bytes(r.take_array()?))
    }
}

impl Encode for PublicKey {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        PUBLIC_KEY_LEN
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PublicKey::from_bytes(r.take_array()?))
    }
}

impl Encode for Signature {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        SIGNATURE_LEN
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Signature::from_bytes(r.take_array()?))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        debug_assert!(
            self.len() <= MAX_FIELD_LEN,
            "sequence exceeds MAX_FIELD_LEN"
        );
        // lint:allow(cast) -- element counts are in-process and bounded
        // by MAX_FIELD_LEN (enforced on decode; debug-asserted here)
        w.put_u32(self.len() as u32);
        for item in self {
            item.encode(w);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
    fn encoded_len(&self) -> usize {
        self.as_slice().encoded_len()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // lint:allow(cast) -- u32 → usize widens on every supported platform
        let count = r.take_u32()? as usize;
        if count > MAX_FIELD_LEN {
            return Err(CodecError::FieldTooLarge(count));
        }
        let mut out = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ici_crypto::sha256::Sha256;
    use ici_crypto::sig::Keypair;

    #[test]
    fn integers_round_trip() {
        let mut w = Writer::new();
        0xDEu8.encode(&mut w);
        0xDEAD_BEEFu32.encode(&mut w);
        0xDEAD_BEEF_CAFE_F00Du64.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 13);

        let mut r = Reader::new(&bytes);
        assert_eq!(u8::decode(&mut r).unwrap(), 0xDE);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::decode(&mut r).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn byte_strings_round_trip() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let bytes = payload.to_bytes();
        assert_eq!(bytes.len(), payload.encoded_len());
        assert_eq!(Vec::<u8>::from_bytes(&bytes).unwrap(), payload);
    }

    #[test]
    fn empty_byte_string_round_trips() {
        let empty: Vec<u8> = Vec::new();
        assert_eq!(Vec::<u8>::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn nested_vec_round_trips() {
        let v: Vec<u64> = vec![1, 2, 3, u64::MAX];
        assert_eq!(Vec::<u64>::from_bytes(&v.to_bytes()).unwrap(), v);
        assert_eq!(v.encoded_len(), 4 + 4 * 8);
    }

    #[test]
    fn digest_and_keys_round_trip() {
        let d = Sha256::digest(b"x");
        assert_eq!(<Digest as Decode>::from_bytes(&d.to_bytes()).unwrap(), d);

        let pair = Keypair::from_seed(5);
        let pk = pair.public();
        assert_eq!(
            <PublicKey as Decode>::from_bytes(&pk.to_bytes()).unwrap(),
            pk
        );
        let sig = pair.sign(b"m");
        assert_eq!(
            <Signature as Decode>::from_bytes(&sig.to_bytes()).unwrap(),
            sig
        );
    }

    #[test]
    fn eof_is_reported_with_counts() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(
            r.take_u32(),
            Err(CodecError::UnexpectedEof {
                needed: 4,
                remaining: 2
            })
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.take_len_prefixed(),
            Err(CodecError::FieldTooLarge(u32::MAX as usize))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected_by_from_bytes() {
        let mut bytes = 7u64.to_bytes();
        bytes.push(0);
        assert_eq!(u64::from_bytes(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn truncated_vec_fails_cleanly() {
        let v: Vec<u64> = vec![1, 2, 3];
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Vec::<u64>::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn errors_display() {
        assert!(CodecError::InvalidTag(9).to_string().contains("0x09"));
        assert!(CodecError::TrailingBytes(3).to_string().contains('3'));
    }
}
