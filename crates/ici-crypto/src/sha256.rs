//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! The reproduction must not pull external cryptography crates, so the
//! compression function, padding, and streaming interface are implemented
//! here and validated against the official NIST test vectors in the unit
//! tests below.
//!
//! A message already in hand is never streamed: [`Sha256::digest`] folds
//! a slice's whole blocks in place and pads only its tail, and a
//! [`Message`] holds a message assembled from pieces in the kernel's
//! 64-byte blocks, padded once and folded in one kernel call. [`Sha256`]
//! streams the rest (a state root over every account).
//!
//! Independent messages in hand go as a batch: [`digest_messages`]
//! digests (or double-digests) a slice of [`Message`]s, [`WIDE`] equal
//! block counts at a time through one call of the sixteen-lane kernel,
//! the crate's Merkle levels, `SimSig` batches, lotteries and rankings
//! do the same with their fixed layouts, and every batch counts exactly
//! as message-by-message hashing would. Two kinds of kernel sit behind
//! the seams: one message at a time (the portable FIPS 180-4 loop, or
//! the x86-64 SHA extensions), and sixteen messages at a time (AVX-512
//! lanes, or the one-message kernel lane by lane where the CPU lacks
//! them). The CPU picks at run time; [`Sha256::backend`] names the pick.
//!
//! # Examples
//!
//! ```
//! use ici_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use std::fmt;

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first eight primes (FIPS 180-4 §5.3.3).
pub(crate) const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// A 32-byte SHA-256 digest.
///
/// The inner array is exposed through [`Digest::as_bytes`] and
/// [`Digest::into_bytes`]; equality and ordering are byte-wise, so digests
/// can key `BTreeMap`s and be compared as 256-bit big-endian integers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Length of a digest in bytes.
    pub const LEN: usize = 32;

    /// The all-zero digest, used as the parent hash of a genesis block.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the digest and returns the inner byte array.
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Builds a digest from a byte array.
    pub fn from_bytes(bytes: [u8; 32]) -> Digest {
        Digest(bytes)
    }

    /// Parses a digest from a 64-character lowercase/uppercase hex string.
    ///
    /// # Errors
    ///
    /// Returns `None` if the string is not exactly 64 hex characters.
    pub fn from_hex(hex: &str) -> Option<Digest> {
        if hex.len() != 64 || !hex.is_ascii() {
            return None;
        }
        let mut out = [0u8; 32];
        let bytes = hex.as_bytes();
        for (i, chunk) in bytes.chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// Renders the digest as a 64-character lowercase hex string.
    pub fn to_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xf) as usize] as char);
        }
        s
    }

    /// Interprets the first eight bytes as a big-endian `u64`.
    ///
    /// Handy for deriving deterministic pseudo-random choices (leader
    /// lotteries, rendezvous hashing) from a digest.
    pub fn prefix_u64(&self) -> u64 {
        let b = &self.0;
        u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Digest {
        Digest(bytes)
    }
}

/// Streaming SHA-256 hasher.
///
/// Feed data incrementally with [`Sha256::update`] and finish with
/// [`Sha256::finalize`], or hash a single buffer with [`Sha256::digest`].
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes, for the length padding.
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Hashes `data` in one shot: its whole blocks go to the kernel
    /// straight from the slice, and only the tail is copied, to be
    /// padded in place.
    pub fn digest(data: &[u8]) -> Digest {
        let (blocks, tail) = data.as_chunks::<64>();
        let mut last = [[0u8; 64]; 2];
        last.as_flattened_mut()[..tail.len()].copy_from_slice(tail);
        let padded = pad(last.as_flattened_mut(), tail.len(), data.len() as u64);
        let mut state = H0;
        if !blocks.is_empty() {
            compress_blocks(&mut state, blocks);
        }
        compress_blocks(&mut state, &last[..padded]);
        count_digests(1, data.len() as u64, (blocks.len() + padded) as u64);
        state_digest(&state)
    }

    /// Hashes the concatenation of two buffers.
    pub fn digest_pair(a: &[u8], b: &[u8]) -> Digest {
        let mut message = Message::new();
        message.put(a);
        message.put(b);
        message.digest()
    }

    /// The compression kernels this CPU selects: the one-message kernel
    /// (`"x86-sha"` when the x86-64 SHA extensions are present,
    /// `"portable"` otherwise), followed by `"+avx512x16"` when the
    /// sixteen-lane AVX-512 kernel hashes the batches
    /// ([`digest_messages`]). Every kernel computes the same FIPS 180-4
    /// digests; only host time differs.
    pub fn backend() -> &'static str {
        match (sha_extensions(), wide_kernel()) {
            (true, true) => "x86-sha+avx512x16",
            (true, false) => "x86-sha",
            (false, true) => "portable+avx512x16",
            (false, false) => "portable",
        }
    }

    /// Appends `data` to the message being hashed.
    pub fn update(&mut self, data: &[u8]) -> &mut Sha256 {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let want = 64 - self.buffered;
            let take = want.min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                compress_blocks(&mut self.state, std::slice::from_ref(&self.buffer));
                self.buffered = 0;
            }
            if input.is_empty() {
                // Nothing left for whole-block processing; the partial
                // buffer must survive for the next update/finalize.
                return self;
            }
        }
        // Every whole block of this call goes to the kernel at once, so
        // the state stays in registers across them.
        let (blocks, tail) = input.as_chunks::<64>();
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
        self
    }

    /// Completes the hash, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        // `buffered < 64` always holds here: the tail is padded in place,
        // spilling into a second block when the length no longer fits.
        let mut last = [[0u8; 64]; 2];
        last[0] = self.buffer;
        let padded = pad(last.as_flattened_mut(), self.buffered, self.length);
        compress_blocks(&mut self.state, &last[..padded]);
        count_digests(1, self.length, self.length.wrapping_add(9).div_ceil(64));
        state_digest(&self.state)
    }
}

/// Writes the FIPS 180-4 padding of a message of `total_len` bytes
/// whose last `tail` bytes open `bytes`: 0x80, zeros, then the
/// message's bit length, big-endian, closing a block. Returns the
/// number of 64-byte blocks the padded tail fills; `bytes` must hold
/// them.
pub(crate) fn pad(bytes: &mut [u8], tail: usize, total_len: u64) -> usize {
    let blocks = (tail + 9).div_ceil(64);
    let end = blocks * 64;
    bytes[tail] = 0x80;
    bytes[tail + 1..end - 8].fill(0);
    bytes[end - 8..end].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    blocks
}

/// Moves the three `crypto/sha256_*` counters: `digests` finished
/// hashes over `bytes` message bytes (never the padding) in all, and
/// the `compressions` it took to fold them with their padding.
/// Counters only: a span per digest would dominate this hot path.
pub(crate) fn count_digests(digests: u64, bytes: u64, compressions: u64) {
    let label = ici_telemetry::Label::Global;
    ici_telemetry::counter_add("crypto/sha256_digests", label, digests);
    ici_telemetry::counter_add("crypto/sha256_bytes", label, bytes);
    ici_telemetry::counter_add("crypto/sha256_compressions", label, compressions);
}

/// Message blocks a [`Message`] holds inline: 512 bytes, room for a
/// 503-byte message and its padding.
const INLINE_BLOCKS: usize = 8;

/// A message laid out in the 64-byte blocks the compression kernel
/// reads, for digests of a message assembled from pieces (an encoding
/// written field by field, a prefixed payload).
///
/// Each byte is written once, in place; finishing pads the tail in
/// place and folds every block in one kernel call. Up to
/// [`Message::INLINE_LEN`] message bytes (eight padded blocks) live
/// inline, with no heap allocation; a longer message spills once to the
/// heap.
#[derive(Clone)]
pub struct Message {
    inline: [[u8; 64]; INLINE_BLOCKS],
    /// Every block, once the message outgrows `inline`; empty until then.
    spill: Vec<[u8; 64]>,
    len: usize,
}

impl Default for Message {
    fn default() -> Message {
        Message::new()
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Message({} bytes)", self.len)
    }
}

impl From<&[u8]> for Message {
    fn from(bytes: &[u8]) -> Message {
        let mut message = Message::new();
        message.put(bytes);
        message
    }
}

impl Message {
    /// The longest message that is written, padded and hashed with no
    /// heap allocation.
    pub const INLINE_LEN: usize = INLINE_BLOCKS * 64 - 9;

    /// An empty message.
    #[inline]
    pub fn new() -> Message {
        Message {
            inline: [[0u8; 64]; INLINE_BLOCKS],
            spill: Vec::new(),
            len: 0,
        }
    }

    /// Appends `bytes` to the message.
    #[inline]
    pub fn put(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        if end <= Message::INLINE_LEN {
            self.inline.as_flattened_mut()[self.len..end].copy_from_slice(bytes);
        } else {
            self.put_spilled(bytes, end);
        }
        self.len = end;
    }

    /// [`Message::put`] past the inline capacity: moves the message to
    /// the heap on the first such call (into the capacity an earlier
    /// spill left, if any), then grows it there.
    #[cold]
    #[inline(never)]
    fn put_spilled(&mut self, bytes: &[u8], end: usize) {
        let blocks = (end + 9).div_ceil(64);
        if self.spill.is_empty() {
            self.spill.reserve(blocks.max(2 * INLINE_BLOCKS));
            self.spill.extend_from_slice(&self.inline);
        }
        if self.spill.len() < blocks {
            self.spill.resize(blocks, [0u8; 64]);
        }
        self.spill.as_flattened_mut()[self.len..end].copy_from_slice(bytes);
    }

    /// Cuts the message back to its first `len` bytes (no-op if it is
    /// not longer), so one message can be written again and again after
    /// a prefix it keeps: a batch reuses its messages this way instead
    /// of opening fresh ones. A message cut back within the inline
    /// capacity leaves the heap: its head is copied back inline and the
    /// spill emptied, keeping its capacity, so the next spill starts
    /// from exactly these bytes and allocates nothing it had before.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        if self.len > Message::INLINE_LEN && len <= Message::INLINE_LEN {
            self.inline.as_flattened_mut()[..len]
                .copy_from_slice(&self.spill.as_flattened()[..len]);
            self.spill.clear();
        }
        self.len = len;
    }

    /// Message bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The message bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        let blocks = if self.len <= Message::INLINE_LEN {
            &self.inline[..]
        } else {
            &self.spill[..]
        };
        &blocks.as_flattened()[..self.len]
    }

    /// The message padded as the tail of a hash that has already
    /// folded `folded` bytes (whole blocks: an HMAC key block, say),
    /// so its length field counts them. Padding again rewrites the
    /// same bytes; a later [`Message::put`] overwrites them.
    pub(crate) fn padded(&mut self, folded: u64) -> &[[u8; 64]] {
        let total = folded.wrapping_add(self.len as u64);
        let blocks = if self.len <= Message::INLINE_LEN {
            &mut self.inline[..]
        } else {
            &mut self.spill[..]
        };
        let padded = pad(blocks.as_flattened_mut(), self.len, total);
        &blocks[..padded]
    }

    /// SHA-256 of the message: one kernel call over its padded blocks.
    pub fn digest(mut self) -> Digest {
        self.finish(false)
    }

    /// The blocks the message pads to (after any folded key block).
    pub(crate) fn padded_blocks(&self) -> usize {
        (self.len + 9).div_ceil(64)
    }

    /// [`Message::digest`] in place, hashed once more when `double`.
    fn finish(&mut self, double: bool) -> Digest {
        let len = self.len as u64;
        let blocks = self.padded(0);
        let mut state = H0;
        compress_blocks(&mut state, blocks);
        count_digests(1, len, blocks.len() as u64);
        let digest = state_digest(&state);
        if double {
            Sha256::digest(digest.as_bytes())
        } else {
            digest
        }
    }
}

/// Digests every message of `messages` into `out`, in order:
/// `out[i]` is `messages[i].digest()`, or with `double` the SHA-256 of
/// that digest (a transaction id, a Merkle leaf). Stops at the shorter
/// of the two slices.
///
/// Each run of [`WIDE`] consecutive messages that pad to the same block
/// count goes through the sixteen-lane kernel in one call (both passes);
/// every other message is hashed on its own. The
/// `crypto/sha256_*` counters move exactly as per-message digests move
/// them, and `crypto/sha256_batched_compressions` counts what the full
/// groups folded. Allocates nothing: the messages are padded where they
/// are. A message keeps its bytes; writing to it again overwrites the
/// padding.
pub fn digest_messages(messages: &mut [Message], double: bool, out: &mut [Digest]) {
    for (group, out) in messages.chunks_mut(WIDE).zip(out.chunks_mut(WIDE)) {
        let blocks = group.first().map_or(0, Message::padded_blocks);
        if group.iter().all(|m| m.padded_blocks() == blocks) {
            let full = <&mut [Message; WIDE]>::try_from(&mut *group);
            if let (Ok(full), Ok(out)) = (full, <&mut [Digest; WIDE]>::try_from(&mut *out)) {
                let bytes = full.iter().map(|m| m.len as u64).sum();
                *out = digest16(full.each_mut().map(|m| m.padded(0)), bytes, double);
                continue;
            }
        }
        for (message, out) in group.iter_mut().zip(out.iter_mut()) {
            *out = message.finish(double);
        }
    }
}

/// The SHA-256 of one message per item of `items`, in order, hashed
/// [`WIDE`] at a time: `write` lays an item's message out in a hash
/// message it is handed empty, and each group of [`WIDE`] goes through
/// [`digest_messages`] (sixteen wide when the messages pad to one block
/// count), the last short group one by one. The sixteen messages are
/// made once, with the iterator, and reused; the `crypto/sha256_*`
/// counters move as one [`Message::digest`] per item moves them.
pub fn digest_each<I, W>(items: I, write: W) -> DigestEach<I::IntoIter, W>
where
    I: IntoIterator,
    W: FnMut(I::Item, &mut Message),
{
    DigestEach {
        items: items.into_iter(),
        write,
        messages: std::array::from_fn(|_| Message::new()),
        digests: [Digest::ZERO; WIDE],
        next: 0,
        filled: 0,
    }
}

/// The iterator [`digest_each`] returns.
pub struct DigestEach<I, W> {
    items: I,
    write: W,
    messages: [Message; WIDE],
    /// `digests[next..filled]`: hashed, not yet handed out.
    digests: [Digest; WIDE],
    next: usize,
    filled: usize,
}

impl<I, W> Iterator for DigestEach<I, W>
where
    I: Iterator,
    W: FnMut(I::Item, &mut Message),
{
    type Item = Digest;

    fn next(&mut self) -> Option<Digest> {
        if self.next == self.filled {
            // Messages first: `zip` asks `items` only while one is free.
            self.filled = 0;
            for (message, item) in self.messages.iter_mut().zip(&mut self.items) {
                message.truncate(0);
                (self.write)(item, message);
                self.filled += 1;
            }
            self.next = 0;
            let group = ..self.filled;
            digest_messages(&mut self.messages[group], false, &mut self.digests[group]);
        }
        let digest = self.digests[..self.filled].get(self.next).copied();
        self.next += usize::from(digest.is_some());
        digest
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (low, high) = self.items.size_hint();
        let held = self.filled - self.next;
        (
            low.saturating_add(held),
            high.and_then(|high| high.checked_add(held)),
        )
    }
}

/// Sixteen padded messages of equal block count hashed side by side
/// from the initial state, `bytes` message bytes among them; with
/// `double`, each digest hashed once more. Counts like sixteen
/// one-message digests, and the compressions as batched.
///
/// The CPU decides: AVX-512 (F and BW) runs the lanes side by side, the
/// state in registers through both passes; every other CPU hashes them
/// one after another on its one-message kernel.
pub(crate) fn digest16(blocks: [&[[u8; 64]]; WIDE], bytes: u64, double: bool) -> [Digest; WIDE] {
    let count = blocks.iter().map(|lane| lane.len()).min().unwrap_or(0) as u64;
    count_digests(WIDE as u64, bytes, WIDE as u64 * count);
    let passes = if double {
        count_digests(WIDE as u64, (WIDE * Digest::LEN) as u64, WIDE as u64);
        count + 1
    } else {
        count
    };
    count_batched(WIDE as u64 * passes);
    #[cfg(target_arch = "x86_64")]
    if let Some(states) = wide_enabled()
        .then(|| crate::sha256_x86::digest16(blocks, double))
        .flatten()
    {
        return states.map(|state| state_digest(&state));
    }
    blocks.map(|lane| {
        let mut state = H0;
        compress_blocks(&mut state, lane);
        if double {
            let mut block = DIGEST_BLOCK;
            block[..Digest::LEN].copy_from_slice(state_digest(&state).as_bytes());
            state = H0;
            compress_blocks(&mut state, &[block]);
        }
        state_digest(&state)
    })
}

/// The last block of a hash whose message ends with a 32-byte digest,
/// `total` message bytes in all: the digest still to be written at
/// `0..32`, then its padding.
pub(crate) const fn digest_block(total: u64) -> [u8; 64] {
    let mut block = [0u8; 64];
    block[Digest::LEN] = 0x80;
    let bits = (total * 8).to_be_bytes();
    let mut i = 0;
    while i < 8 {
        block[56 + i] = bits[i];
        i += 1;
    }
    block
}

/// The second pass of a double digest: a 32-byte message.
const DIGEST_BLOCK: [u8; 64] = digest_block(Digest::LEN as u64);

/// The digest a final hash state stands for: its words, big-endian.
pub(crate) fn state_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// A compression kernel: folds whole 64-byte blocks into a hash state.
pub type Kernel = fn(&mut [u32; 8], &[[u8; 64]]);

/// Every one-message kernel this CPU can run, `"portable"` first, then
/// `"x86-sha"` when the SHA extensions are present. For benchmarks and
/// tests that run them side by side; everything else goes through
/// [`Sha256`], which picks.
pub fn kernels() -> Vec<(&'static str, Kernel)> {
    let mut all: Vec<(&'static str, Kernel)> = vec![("portable", compress_blocks_portable)];
    if sha_extensions() {
        // On such a CPU the seam *is* the hardware kernel.
        all.push(("x86-sha", compress_blocks));
    }
    all
}

/// Whether the CPU has the x86-64 SHA extensions.
fn sha_extensions() -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::sha256_x86::available() {
        return true;
    }
    false
}

/// Whether the CPU runs the sixteen-lane AVX-512 kernel.
fn wide_kernel() -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::sha256_x86::wide_available() {
        return true;
    }
    false
}

/// The one seam both one-message kernels sit behind: folds `blocks`
/// into `state`.
///
/// The CPU decides, nothing else: the x86-64 SHA extensions when
/// present, the portable loop on every other CPU and target.
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(test)]
    if FORCED.get() == Forced::Portable {
        return compress_blocks_portable(state, blocks);
    }
    #[cfg(target_arch = "x86_64")]
    if crate::sha256_x86::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// Independent messages the sixteen-lane kernel folds at once: the
/// 32-bit lanes of a 512-bit register, and the batch size of the
/// batched hashes ([`digest_messages`], [`crate::sig::PublicKey::verify16`],
/// [`crate::lottery::for_each_lottery_score`]).
pub const WIDE: usize = 16;

/// Moves `crypto/sha256_batched_compressions`: compressions a full
/// group of [`WIDE`] messages handed to the batch layer, counted
/// whichever kernel folds them, so the count is the same on every host.
pub(crate) fn count_batched(compressions: u64) {
    ici_telemetry::counter_add(
        "crypto/sha256_batched_compressions",
        ici_telemetry::Label::Global,
        compressions,
    );
}

/// Whether batches run on the sixteen-lane kernel: the CPU has it (and,
/// in unit tests, the thread has not switched it off).
pub(crate) fn wide_enabled() -> bool {
    #[cfg(test)]
    if FORCED.get() != Forced::Nothing {
        return false;
    }
    wide_kernel()
}

/// Which kernels a unit test has switched off on its thread.
#[cfg(test)]
#[derive(Clone, Copy, PartialEq, Eq)]
enum Forced {
    /// Whatever the CPU selects.
    Nothing,
    /// No sixteen-lane kernel: batches fold lane by lane on the
    /// one-message kernel.
    NoWide,
    /// The portable kernel for everything.
    Portable,
}

#[cfg(test)]
thread_local! {
    /// Set only by [`with_kernels_forced`].
    static FORCED: std::cell::Cell<Forced> = const { std::cell::Cell::new(Forced::Nothing) };
}

#[cfg(test)]
fn with_kernels_forced<R>(forced: Forced, f: impl FnOnce() -> R) -> R {
    let before = FORCED.replace(forced);
    let out = f();
    FORCED.set(before);
    out
}

/// Unit tests only: runs `f` with this thread's hashing pinned to the
/// portable kernel, so whatever sits on top of [`Sha256`] (HMAC,
/// `SimSig`) can be checked under every kernel on one host.
#[cfg(test)]
pub(crate) fn with_portable_kernel<R>(f: impl FnOnce() -> R) -> R {
    with_kernels_forced(Forced::Portable, f)
}

#[cfg(test)]
const HARDWARE_SKIPPED: &str = "hardware kernel skipped: this CPU has no SHA extensions";

#[cfg(test)]
const WIDE_SKIPPED: &str = "wide kernel skipped: this CPU has no AVX-512F/BW";

/// Unit tests only: runs `check` once per way this crate can hash on
/// this host — on the kernels the CPU selected, with the sixteen-lane
/// kernel switched off (batches on the one-message kernel), then pinned
/// to the portable one. `scripts/ci.sh` greps for the notes printed
/// when a hardware kernel is missing.
#[cfg(test)]
pub(crate) fn under_every_kernel(check: impl Fn(&str)) {
    check(Sha256::backend());
    if wide_kernel() {
        with_kernels_forced(Forced::NoWide, || check("wide off (forced)"));
    } else {
        println!("{WIDE_SKIPPED}");
    }
    if sha_extensions() {
        with_portable_kernel(|| check("portable (forced)"));
    } else {
        println!("{HARDWARE_SKIPPED}");
    }
}

/// Unit tests only: the three `crypto/sha256_*` counters, summed over
/// labels, after `hash` runs on a reset collector: `[bytes,
/// compressions, digests]`. The caller turns telemetry on.
#[cfg(test)]
pub(crate) fn counts(hash: impl FnOnce()) -> [u64; 3] {
    ici_telemetry::reset();
    hash();
    let snap = ici_telemetry::snapshot();
    ["bytes", "compressions", "digests"].map(|name| {
        snap.counters
            .iter()
            .filter(|c| c.name == format!("crypto/sha256_{name}"))
            .map(|c| c.value)
            .sum::<u64>()
    })
}

/// The portable kernel: the FIPS 180-4 §6.2.2 compression function,
/// one block after another, in plain integer arithmetic.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for i in 0..16 {
            let o = i * 4;
            w[i] = u32::from_be_bytes([block[o], block[o + 1], block[o + 2], block[o + 3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// Bitcoin-style double SHA-256: `SHA256(SHA256(data))`.
///
/// Block and transaction identifiers in `ici-chain` use this, matching the
/// convention of the deployed blockchains the paper targets.
pub fn double_sha256(data: &[u8]) -> Digest {
    Sha256::digest(Sha256::digest(data).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    use ici_rng::Xoshiro256;

    /// One-shot digest straight on `kernel`, padded the textbook way
    /// (message ‖ 0x80 ‖ zeros ‖ bit length, in a fresh buffer) — on
    /// purpose not the in-place padding of `finalize`, so the two check
    /// each other — and handed to the kernel as one multi-block call.
    fn digest_on(kernel: Kernel, data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let (blocks, tail) = padded.as_chunks::<64>();
        assert!(tail.is_empty());
        assert_eq!(blocks.len() as u64, (data.len() as u64 + 9).div_ceil(64));
        let mut state = H0;
        kernel(&mut state, blocks);
        state_digest(&state)
    }

    /// Feeds `data` to a streaming hasher in seeded random pieces.
    fn digest_in_random_splits(rng: &mut Xoshiro256, data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        let mut rest = data;
        while !rest.is_empty() {
            // Mostly short pieces (fields streamed by the codec), now
            // and then one spanning many blocks.
            let cap = if rng.gen_bool(0.2) { rest.len() } else { 130 };
            let take = rng.gen_range(0usize..=cap.min(rest.len()));
            h.update(&rest[..take]);
            rest = &rest[take..];
        }
        h.finalize()
    }

    /// NIST / FIPS 180-4 example vectors plus well-known reference digests.
    const NIST_VECTORS: &[(&[u8], &str)] = &[
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        ),
    ];

    #[test]
    fn nist_vectors() {
        for (input, expected) in NIST_VECTORS {
            assert_eq!(Sha256::digest(input).to_hex(), *expected, "input {input:?}");
        }
    }

    #[test]
    fn nist_vectors_on_each_kernel_directly() {
        assert_eq!(kernels()[0].0, "portable");
        for (name, kernel) in kernels() {
            for (input, expected) in NIST_VECTORS {
                assert_eq!(
                    digest_on(kernel, input).to_hex(),
                    *expected,
                    "kernel {name}, input {input:?}"
                );
            }
        }
    }

    #[test]
    fn million_a() {
        // FIPS 180-4: one million repetitions of 'a'.
        under_every_kernel(|kernel| {
            let mut h = Sha256::new();
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                h.finalize().to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "kernel {kernel}"
            );
        });
    }

    /// The differential: every kernel called directly, the streaming
    /// hasher on the selected kernel and the streaming hasher pinned to
    /// the portable one all give the one-shot digest, for every length
    /// around the padding and block boundaries and a seeded sample of
    /// long messages, each fed in seeded random `update` splits.
    #[test]
    fn kernels_agree_on_every_length_and_split() {
        println!("sha256 backend: {}", Sha256::backend());
        if kernels().len() == 1 {
            println!("{HARDWARE_SKIPPED}");
        }
        let mut rng = Xoshiro256::seed_from_u64(0x5A_256);
        let mut lengths: Vec<usize> = (0..=300).collect();
        lengths.extend((0..24).map(|_| rng.gen_range(301usize..=70 * 1024)));
        lengths.extend([64 * 1024, 70 * 1024]);
        for len in lengths {
            let data = rng.gen_bytes(len);
            let oneshot = Sha256::digest(&data);
            for (name, kernel) in kernels() {
                assert_eq!(
                    digest_on(kernel, &data),
                    oneshot,
                    "kernel {name}, len {len}"
                );
            }
            assert_eq!(
                with_portable_kernel(|| Sha256::digest(&data)),
                oneshot,
                "portable kernel, len {len}"
            );
            for round in 0..3 {
                let mut splits = rng.fork(round);
                let mut same_splits = splits.clone();
                assert_eq!(
                    digest_in_random_splits(&mut splits, &data),
                    oneshot,
                    "selected kernel, len {len}, split round {round}"
                );
                assert_eq!(
                    with_portable_kernel(|| digest_in_random_splits(&mut same_splits, &data)),
                    oneshot,
                    "portable kernel, len {len}, split round {round}"
                );
            }
        }
    }

    /// The sixteen-lane kernel is the kernel: `digest16` hashes every
    /// lane's padded blocks (zero to three each, every lane the same
    /// count, arbitrary bytes) from the initial state, once and twice,
    /// exactly as the portable per-block reference does, on the selected
    /// kernels, with the wide one off and pinned to the portable one.
    /// `scripts/ci.sh` requires the line printed here, and fails on the
    /// skip note where `/proc/cpuinfo` lists AVX-512F/BW.
    #[test]
    fn kernels_agree_on_sixteen_lanes() {
        let mut rng = Xoshiro256::seed_from_u64(0x16_1A4E);
        let reference = |lane: &[[u8; 64]], double: bool| {
            let mut state = H0;
            compress_blocks_portable(&mut state, lane);
            if double {
                let mut block = DIGEST_BLOCK;
                block[..32].copy_from_slice(state_digest(&state).as_bytes());
                state = H0;
                compress_blocks_portable(&mut state, &[block]);
            }
            state_digest(&state)
        };
        let mut cases = Vec::new();
        for count in [0usize, 1, 2, 3, 1, 2] {
            let blocks: Vec<Vec<[u8; 64]>> = (0..WIDE)
                .map(|_| {
                    (0..count)
                        .map(|_| rng.gen_bytes(64).try_into().expect("64 bytes"))
                        .collect()
                })
                .collect();
            cases.push(blocks);
        }
        under_every_kernel(|kernel| {
            for blocks in &cases {
                for double in [false, true] {
                    let lanes = std::array::from_fn(|i| &blocks[i][..]);
                    let expected = lanes.map(|lane| reference(lane, double));
                    let count = blocks[0].len();
                    assert_eq!(
                        digest16(lanes, 0, double),
                        expected,
                        "kernel {kernel}, {count} blocks, double {double}"
                    );
                }
            }
        });
        if wide_kernel() {
            println!("sha256 wide: 16 lanes agree on {}", Sha256::backend());
        }
    }

    /// The batch entry is the per-message digest: for every batch length
    /// 0..=40, messages of seeded random lengths 0..=600 (55/56/63/64/
    /// 119/120 pinned in, plus runs of one length so full groups form)
    /// digest and double-digest to what `Message::digest` gives one at a
    /// time, on every kernel, and move the counters by the same amounts.
    #[test]
    fn batched_digests_match_per_message_digests() {
        ici_telemetry::set_enabled(true);
        let mut rng = Xoshiro256::seed_from_u64(0xBA7C4);
        let pinned = [55usize, 56, 63, 64, 119, 120];
        let mut batches = Vec::new();
        for n in 0..=40usize {
            let uniform = rng.gen_range(0usize..=600);
            let lengths: Vec<usize> = (0..n)
                .map(|i| match n % 3 {
                    0 => uniform,
                    1 => pinned[i % pinned.len()],
                    _ => rng.gen_range(0usize..=600),
                })
                .collect();
            batches.push(
                lengths
                    .iter()
                    .map(|len| rng.gen_bytes(*len))
                    .collect::<Vec<_>>(),
            );
        }
        under_every_kernel(|kernel| {
            for data in &batches {
                for double in [false, true] {
                    let one = |bytes: &[u8]| {
                        let digest = Message::from(bytes).digest();
                        if double {
                            Sha256::digest(digest.as_bytes())
                        } else {
                            digest
                        }
                    };
                    let mut expected = Vec::new();
                    let reference = counts(|| expected = data.iter().map(|d| one(d)).collect());
                    let mut messages: Vec<Message> =
                        data.iter().map(|d| Message::from(&d[..])).collect();
                    let mut out = vec![Digest::ZERO; data.len()];
                    let batched = counts(|| digest_messages(&mut messages, double, &mut out));
                    let n = data.len();
                    assert_eq!(
                        out, expected,
                        "kernel {kernel}, {n} messages, double {double}"
                    );
                    assert_eq!(batched, reference, "kernel {kernel}, {n} messages");
                    // The messages keep their bytes.
                    for (message, bytes) in messages.iter().zip(data) {
                        assert_eq!(message.as_bytes(), &bytes[..]);
                    }
                }
            }
        });
    }

    /// Where padding and buffering change shape: 55/56 (the length
    /// stops fitting the last block), 63/64/65 and 119/120 (the same,
    /// one block on). Every such length, split at every such offset.
    #[test]
    fn kernels_agree_at_the_pinned_boundaries() {
        const EDGES: [usize; 7] = [55, 56, 63, 64, 65, 119, 120];
        let data: Vec<u8> = (0..128u32).map(|i| (i * 37 % 251) as u8).collect();
        let portable = kernels()[0].1;
        for (name, kernel) in kernels() {
            for len in EDGES {
                assert_eq!(
                    digest_on(kernel, &data[..len]),
                    digest_on(portable, &data[..len]),
                    "kernel {name}, len {len}"
                );
            }
        }
        under_every_kernel(|kernel| {
            for len in EDGES {
                let message = &data[..len];
                let reference = digest_on(portable, message);
                for split in EDGES.into_iter().filter(|s| *s <= len) {
                    let mut h = Sha256::new();
                    h.update(&message[..split]);
                    h.update(&message[split..]);
                    assert_eq!(
                        h.finalize(),
                        reference,
                        "kernel {kernel}, len {len}, split {split}"
                    );
                }
            }
        });
    }

    /// The block buffer and the one-shot digest are the streaming
    /// hasher: at every length through 300 (crossing the 55/56, 63/64
    /// and 119/120 padding boundaries), at the inline capacity's edge
    /// and at one length that spills, a [`Message`] written in seeded
    /// random pieces and [`Sha256::digest`] both give the textbook
    /// digest and what `Sha256` streams, on every kernel.
    #[test]
    fn message_digest_matches_the_streaming_hasher() {
        let textbook = kernels()[0].1;
        under_every_kernel(|kernel| {
            let mut rng = Xoshiro256::seed_from_u64(0xB10C);
            let lengths = (0..=300).chain([Message::INLINE_LEN, Message::INLINE_LEN + 1, 1_000]);
            for len in lengths {
                let data = rng.gen_bytes(len);
                let expected = digest_on(textbook, &data);
                let mut streamed = Sha256::new();
                streamed.update(&data);
                assert_eq!(streamed.finalize(), expected, "kernel {kernel}, len {len}");
                assert_eq!(
                    Sha256::digest(&data),
                    expected,
                    "kernel {kernel}, len {len}"
                );
                let mut message = Message::new();
                let mut rest = &data[..];
                while !rest.is_empty() {
                    let take = rng.gen_range(1usize..=rest.len().min(70));
                    message.put(&rest[..take]);
                    rest = &rest[take..];
                }
                assert_eq!(message.as_bytes(), &data[..], "len {len}");
                assert_eq!(message.digest(), expected, "kernel {kernel}, len {len}");
            }
        });
    }

    /// One message cut back to a kept prefix and written again, through
    /// lengths that go inline → spilled → inline → spilled → spilled
    /// shorter, digests exactly like a fresh message of the same bytes
    /// each time, padded twice or not.
    #[test]
    fn a_truncated_message_hashes_like_a_fresh_one() {
        let mut rng = Xoshiro256::seed_from_u64(0x7A11);
        let prefix = [0u8];
        let mut reused = Message::from(&prefix[..]);
        let lengths = [
            40,
            Message::INLINE_LEN + 40,
            Message::INLINE_LEN - 1,
            Message::INLINE_LEN,
            1_000,
            Message::INLINE_LEN + 1,
            0,
            700,
            600,
        ];
        for len in lengths {
            let body = rng.gen_bytes(len);
            reused.truncate(prefix.len());
            reused.put(&body);
            let fresh = Message::from(&[&prefix[..], &body].concat()[..]);
            assert_eq!(reused.as_bytes(), fresh.as_bytes(), "len {len}");
            let mut twice = reused.clone();
            twice.padded(0);
            assert_eq!(twice.digest(), fresh.clone().digest(), "len {len}");
            reused.padded(0);
        }
        reused.truncate(usize::MAX);
        assert_eq!(reused.len(), 601);
    }

    /// `Sha256::update` over `parts`, then `finalize`: how every hash
    /// on the block path was computed before it was laid out in blocks.
    fn streamed(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    /// One SimSig verify, one Merkle leaf, one interior node and one
    /// one-shot digest move the counters by exactly what the streaming
    /// hasher moved them by, so per-block digest and compression counts
    /// mean the same before and after.
    #[test]
    fn block_path_hashes_count_like_the_streaming_hasher() {
        // Left on: the collector is per thread, and every test in this
        // binary that reads it turns it on.
        ici_telemetry::set_enabled(true);

        // An `ici_bigblock` signing message: 291 bytes.
        let message = vec![0x5Au8; 291];
        let pair = crate::sig::Keypair::from_seed(3);
        let signature = pair.sign(&message);
        let verify = counts(|| assert!(pair.public().verify(&message, &signature)));
        let reference = counts(|| {
            let mut key = pair.public().as_bytes().to_vec();
            for _ in 0..2 {
                let mut block = [0u8; 64];
                block[..key.len()].copy_from_slice(&key);
                let inner = streamed(&[&block.map(|b| b ^ 0x36), &message]);
                key = streamed(&[&block.map(|b| b ^ 0x5c), inner.as_bytes()])
                    .0
                    .to_vec();
            }
        });
        assert_eq!(verify, [2 * (64 + 291) + 2 * (64 + 32), 16, 4]);
        assert_eq!(verify, reference);

        // An `ici_bigblock` transaction encoding: 345 bytes.
        let tx = vec![0xA5u8; 345];
        let leaf = counts(|| {
            crate::merkle::hash_leaf(&tx);
        });
        let reference = counts(|| {
            streamed(&[streamed(&[&[0x00], &tx]).as_bytes()]);
        });
        assert_eq!(leaf, [346 + 32, 7, 2]);
        assert_eq!(leaf, reference);

        let (left, right) = (Sha256::digest(b"l"), Sha256::digest(b"r"));
        let node = counts(|| {
            crate::merkle::hash_node(&left, &right);
        });
        let reference = counts(|| {
            streamed(&[streamed(&[&[0x01], left.as_bytes(), right.as_bytes()]).as_bytes()]);
        });
        assert_eq!(node, [65 + 32, 3, 2]);
        assert_eq!(node, reference);

        for len in [0, 33, 55, 56, 64, 345, 1_000] {
            let data = vec![7u8; len];
            let oneshot = counts(|| {
                Sha256::digest(&data);
            });
            let reference = counts(|| {
                streamed(&[&data]);
            });
            assert_eq!(oneshot, reference, "len {len}");
            let message = counts(|| {
                Message::from(&data[..]).digest();
            });
            assert_eq!(message, reference, "len {len}");
        }
    }

    /// A digest reports the message bytes (never the padding), one
    /// digest, and the blocks it takes to hold message, 0x80 and length.
    #[test]
    fn digests_count_message_bytes_and_compressions() {
        // Left on: see `block_path_hashes_count_like_the_streaming_hasher`.
        ici_telemetry::set_enabled(true);
        for (len, compressions) in [(0, 1), (55, 1), (56, 2), (64, 2), (119, 2), (120, 3)] {
            let data = vec![7u8; len];
            let oneshot = counts(|| {
                Sha256::digest(&data);
            });
            assert_eq!(oneshot, [len as u64, compressions, 1], "len {len}");
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn streaming_matches_oneshot_many_small_updates() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn digest_pair_equals_concatenation() {
        let a = b"hello ";
        let b = b"world";
        assert_eq!(Sha256::digest_pair(a, b), Sha256::digest(b"hello world"));
    }

    #[test]
    fn hex_round_trip() {
        let d = Sha256::digest(b"round trip");
        let hex = d.to_hex();
        assert_eq!(Digest::from_hex(&hex), Some(d));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Digest::from_hex("abc"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
        // Multi-byte UTF-8 of the right char count must not panic.
        assert_eq!(Digest::from_hex(&"é".repeat(32)), None);
    }

    #[test]
    fn prefix_u64_is_big_endian() {
        let mut b = [0u8; 32];
        b[7] = 1;
        assert_eq!(Digest(b).prefix_u64(), 1);
        b[0] = 1;
        assert_eq!(Digest(b).prefix_u64(), (1 << 56) | 1);
    }

    #[test]
    fn double_sha256_known_vector() {
        // double-SHA256("hello") — a widely published reference value.
        assert_eq!(
            double_sha256(b"hello").to_hex(),
            "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50"
        );
    }

    #[test]
    fn ordering_is_bytewise_big_endian() {
        let mut lo = [0u8; 32];
        let mut hi = [0u8; 32];
        lo[31] = 1;
        hi[0] = 1;
        assert!(Digest(lo) < Digest(hi));
    }
}
