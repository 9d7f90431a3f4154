//! SHA-256 compression on x86-64 hardware: two kernels.
//!
//! * The SHA extensions. `sha256rnds2` performs two rounds per
//!   instruction and `sha256msg1`/`sha256msg2` extend the message
//!   schedule four words at a time, so one block is sixteen four-round
//!   groups instead of the 64 scalar rounds of
//!   [`crate::sha256::compress_blocks_portable`]. One message at a time
//!   ([`compress_blocks`]).
//! * AVX-512, sixteen messages wide ([`digest16`], [`hmac_chain16`]).
//!   Each of the sixteen 32-bit lanes of a zmm register holds one
//!   message's word: the eight state words are eight registers, lane
//!   `i` message `i`'s. Each block's sixteen rows are transposed in
//!   registers into the sixteen schedule words, and the rounds are the
//!   scalar FIPS 180-4 rounds on whole registers, `VPRORD` for the
//!   rotates and `VPTERNLOGD` for the three-input xors, `Ch` and `Maj`.
//!   This raises throughput instead of hiding latency: sixteen
//!   independent blocks per round sequence. The states stay in
//!   registers from the initial value to the last pass: a digest of a
//!   digest, or an HMAC's outer hash, reads the inner state as its
//!   message words, with no store, byte swap or transpose between.
//!
//! The digests are the same by definition (FIPS 180-4); only host time
//! differs.
//!
//! This is the one file in `ici-crypto` allowed to use `unsafe`:
//! hardware intrinsics cannot be reached from safe Rust. The carve-out
//! is explicit in `lint.toml` (`unsafe_files`), the crate root carries
//! `#![deny(unsafe_code)]` so nothing outside this file can follow, and
//! the only entry points are the safe [`available`], [`wide_available`],
//! [`compress_blocks`], [`digest16`] and [`hmac_chain16`], which do the
//! CPU detection themselves.

#![allow(unsafe_code)]

use crate::sha256::{H0, K, WIDE};
use std::arch::x86_64::{
    __m128i, __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_ror_epi32, _mm512_set1_epi32,
    _mm512_set_epi64, _mm512_setzero_si512, _mm512_shuffle_epi8, _mm512_shuffle_i32x4,
    _mm512_srli_epi32, _mm512_storeu_si512, _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32,
    _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm512_xor_si512,
    _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Whether this CPU has everything the kernel uses. The standard
/// library caches the `cpuid` answer, so asking is a load and a test.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Whether this CPU has what [`digest16`] uses: AVX-512 foundation
/// (rotates, ternary logic, the transposes) and byte-and-word (the byte
/// shuffle that reads the words big-endian). Cached like [`available`].
pub(crate) fn wide_available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
}

/// Folds `blocks` into `state` on the SHA extensions. Returns `false`,
/// having touched nothing, when the CPU lacks them.
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available()` just confirmed every target feature
    // `compress_blocks_sha` is compiled with.
    unsafe { compress_blocks_sha(state, blocks) };
    true
}

/// Sixteen messages of equal block count hashed side by side: lane `i`
/// folds `blocks[i]` (padded) from the initial state, and with `double`
/// hashes its digest once more. Returns each lane's final state, or
/// `None` when the CPU lacks the features. Every lane folds as many
/// blocks as the shortest one holds (callers hand over equal counts).
pub(crate) fn digest16(blocks: [&[[u8; 64]]; WIDE], double: bool) -> Option<[[u32; 8]; WIDE]> {
    if !wide_available() {
        return None;
    }
    // SAFETY: `wide_available()` just confirmed every target feature
    // `digest16_avx512` is compiled with.
    Some(unsafe { digest16_avx512(blocks, double) })
}

/// Two chained HMAC-SHA256s over sixteen messages: lane `i` computes
/// `a = HMAC(key, m)` and `b = HMAC(a, m)`, where `keys[i]` is the key
/// zero-padded to a block and `blocks[i]` is `m` padded as the tail of a
/// hash that folded one key block (every lane the same count). Returns
/// the final states of `a` and of `b`, or `None` when the CPU lacks the
/// features. Both HMACs and all four of their hashes run in one call.
pub(crate) fn hmac_chain16(
    keys: [&[u8; 64]; WIDE],
    blocks: [&[[u8; 64]]; WIDE],
) -> Option<[[[u32; 8]; WIDE]; 2]> {
    if !wide_available() {
        return None;
    }
    // SAFETY: `wide_available()` just confirmed every target feature
    // `hmac_chain16_avx512` is compiled with.
    Some(unsafe { hmac_chain16_avx512(keys, blocks) })
}

/// Unaligned 16-byte load of four message bytes-as-words.
#[inline(always)]
fn load_bytes(src: &[u8; 16]) -> __m128i {
    // SAFETY: `src` is 16 readable bytes and `loadu` has no alignment
    // requirement; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
}

/// Unaligned load of four words, `src[0]` in the lowest lane.
#[inline(always)]
fn load_words(src: &[u32; 4]) -> __m128i {
    // SAFETY: `src` is 16 readable bytes and `loadu` has no alignment
    // requirement; SSE2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(src.as_ptr().cast()) }
}

/// Unaligned store of four words, the lowest lane to `dst[0]`.
#[inline(always)]
fn store_words(dst: &mut [u32; 4], v: __m128i) {
    // SAFETY: `dst` is 16 exclusively borrowed writable bytes and
    // `storeu` has no alignment requirement; SSE2 is baseline.
    unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
}

/// Four rounds: `w` holds schedule words `W[t..t+4]`, `k` the matching
/// round constants. Each `sha256rnds2` consumes the two low lanes.
#[inline]
#[target_feature(enable = "sha,sse2")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, k: &[u32; 4]) {
    let wk = _mm_add_epi32(w, load_words(k));
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// The next four schedule words from the previous sixteen
/// (`w0` oldest … `w3` newest): σ0 terms by `msg1`, `W[t-7]` by the
/// `alignr`, σ1 terms by `msg2`.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
    _mm_sha256msg2_epu32(t, w3)
}

/// `state` as the (A,B,E,F) and (C,D,G,H) registers `sha256rnds2`
/// works on, high lane first, rather than (a,b,c,d) and (e,f,g,h).
#[inline]
#[target_feature(enable = "sse2,ssse3,sse4.1")]
fn load_state(state: &[u32; 8]) -> (__m128i, __m128i) {
    let (halves, _) = state.as_chunks::<4>();
    let cdab = _mm_shuffle_epi32(load_words(&halves[0]), 0xB1);
    let efgh = _mm_shuffle_epi32(load_words(&halves[1]), 0x1B);
    (
        _mm_alignr_epi8(cdab, efgh, 8),
        _mm_blend_epi16(efgh, cdab, 0xF0),
    )
}

/// The inverse of [`load_state`].
#[inline]
#[target_feature(enable = "sse2,ssse3,sse4.1")]
fn store_state(state: &mut [u32; 8], abef: __m128i, cdgh: __m128i) {
    let (halves, _) = state.as_chunks_mut::<4>();
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    store_words(&mut halves[0], _mm_blend_epi16(feba, dchg, 0xF0));
    store_words(&mut halves[1], _mm_alignr_epi8(dchg, feba, 8));
}

/// One block into the register-held state: the 64 rounds and the
/// feed-forward.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
fn block_rounds(abef: &mut __m128i, cdgh: &mut __m128i, block: &[u8; 64]) {
    // Reverses the bytes of each 32-bit lane: the message is big-endian.
    let be_lanes = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);
    let (k, _) = K.as_chunks::<4>();
    let (abef_in, cdgh_in) = (*abef, *cdgh);
    let mut w = [_mm_setzero_si128(); 4];
    for (word, quarter) in w.iter_mut().zip(block.as_chunks::<16>().0) {
        *word = _mm_shuffle_epi8(load_bytes(quarter), be_lanes);
    }

    // Rounds 0..16 take the message words as they are.
    for (&word, kg) in w.iter().zip(&k[..4]) {
        rounds4(abef, cdgh, word, kg);
    }
    // Rounds 16..64: each group first extends the schedule, the new
    // words replacing the oldest four.
    for quad in k[4..].as_chunks::<4>().0 {
        for (g, kg) in quad.iter().enumerate() {
            w[g] = schedule(w[g], w[(g + 1) % 4], w[(g + 2) % 4], w[(g + 3) % 4]);
            rounds4(abef, cdgh, w[g], kg);
        }
    }

    *abef = _mm_add_epi32(*abef, abef_in);
    *cdgh = _mm_add_epi32(*cdgh, cdgh_in);
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_sha(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let (mut abef, mut cdgh) = load_state(state);
    for block in blocks {
        block_rounds(&mut abef, &mut cdgh, block);
    }
    store_state(state, abef, cdgh);
}

/// Unaligned load of one 64-byte block: lane `j` holds bytes `4j..4j+4`.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_block(block: &[u8; 64]) -> __m512i {
    // SAFETY: `block` is 64 readable bytes and `loadu` has no alignment
    // requirement; AVX-512F is enabled on this function.
    unsafe { _mm512_loadu_si512(block.as_ptr().cast()) }
}

/// Unaligned store of sixteen words, the lowest lane to `dst[0]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn store_lanes(dst: &mut [u32; WIDE], v: __m512i) {
    // SAFETY: `dst` is 64 exclusively borrowed writable bytes and
    // `storeu` has no alignment requirement; AVX-512F is enabled here.
    unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
}

/// Sixteen hash states: register `j` holds word `j` of every lane.
type Lanes = [__m512i; 8];

/// One block of every lane as its sixteen schedule words: register `t`
/// holds word `t` of every lane.
type Words = [__m512i; WIDE];

/// `word` in every lane.
#[inline]
#[target_feature(enable = "avx512f")]
fn splat(word: u32) -> __m512i {
    _mm512_set1_epi32(word.cast_signed())
}

/// The initial hash value in every lane.
#[inline]
#[target_feature(enable = "avx512f")]
fn initial() -> Lanes {
    let mut s = [_mm512_setzero_si512(); 8];
    for (s, word) in s.iter_mut().zip(H0) {
        *s = splat(word);
    }
    s
}

/// Sixteen 64-byte blocks, lane `i` from `rows[i]`, as schedule words:
/// each row loaded with its words made big-endian, then the 16×16 word
/// transpose. Two interleaves within 128-bit lanes (words, then word
/// pairs) leave each 128-bit lane holding one word of four rows; two
/// 128-bit shuffles move those quarters into place.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn words_of(rows: [&[u8; 64]; WIDE]) -> Words {
    // Reverses the bytes of each 32-bit lane: the message is big-endian.
    let be_lanes = _mm512_set_epi64(
        0x0C0D_0E0F_0809_0A0B,
        0x0405_0607_0001_0203,
        0x0C0D_0E0F_0809_0A0B,
        0x0405_0607_0001_0203,
        0x0C0D_0E0F_0809_0A0B,
        0x0405_0607_0001_0203,
        0x0C0D_0E0F_0809_0A0B,
        0x0405_0607_0001_0203,
    );
    let zero = _mm512_setzero_si512();
    let mut loaded = [zero; WIDE];
    for (row, block) in loaded.iter_mut().zip(rows) {
        *row = _mm512_shuffle_epi8(load_block(block), be_lanes);
    }
    // Row pair `p`: words `4k, 4k+1` (`pairs[2p]`) and `4k+2, 4k+3`
    // (`pairs[2p + 1]`) of both rows in 128-bit lane `k`.
    let mut pairs = [zero; WIDE];
    for (p, rows) in loaded.as_chunks::<2>().0.iter().enumerate() {
        pairs[2 * p] = _mm512_unpacklo_epi32(rows[0], rows[1]);
        pairs[2 * p + 1] = _mm512_unpackhi_epi32(rows[0], rows[1]);
    }
    // Row quad `g`: `quads[g][m]` holds word `4k + m` of its four rows
    // in 128-bit lane `k`.
    let mut quads = [[zero; 4]; 4];
    for (quad, pairs) in quads.iter_mut().zip(pairs.as_chunks::<4>().0) {
        *quad = [
            _mm512_unpacklo_epi64(pairs[0], pairs[2]),
            _mm512_unpackhi_epi64(pairs[0], pairs[2]),
            _mm512_unpacklo_epi64(pairs[1], pairs[3]),
            _mm512_unpackhi_epi64(pairs[1], pairs[3]),
        ];
    }
    // Word `4k + m` is 128-bit lane `k` of `quads[0..4][m]`, in order.
    let mut words = [zero; WIDE];
    for m in 0..4 {
        let low01 = _mm512_shuffle_i32x4::<0x44>(quads[0][m], quads[1][m]);
        let high01 = _mm512_shuffle_i32x4::<0xEE>(quads[0][m], quads[1][m]);
        let low23 = _mm512_shuffle_i32x4::<0x44>(quads[2][m], quads[3][m]);
        let high23 = _mm512_shuffle_i32x4::<0xEE>(quads[2][m], quads[3][m]);
        words[m] = _mm512_shuffle_i32x4::<0x88>(low01, low23);
        words[4 + m] = _mm512_shuffle_i32x4::<0xDD>(low01, low23);
        words[8 + m] = _mm512_shuffle_i32x4::<0x88>(high01, high23);
        words[12 + m] = _mm512_shuffle_i32x4::<0xDD>(high01, high23);
    }
    words
}

/// Each lane's state as the message of a one-block tail: its eight
/// words (a digest, big-endian), then 0x80 and the length field `bits`
/// of a hash that ends with those 32 bytes.
#[inline]
#[target_feature(enable = "avx512f")]
fn digest_tail(s: &Lanes, bits: u32) -> Words {
    let mut words = [_mm512_setzero_si512(); WIDE];
    words[..8].copy_from_slice(s);
    words[8] = splat(0x8000_0000);
    words[15] = splat(bits);
    words
}

/// `words` with every byte XORed with `pad` (an HMAC key block's ipad
/// or opad).
#[inline]
#[target_feature(enable = "avx512f")]
fn xor_pad(words: &Words, pad: u8) -> Words {
    let pad = splat(u32::from_ne_bytes([pad; 4]));
    let mut padded = *words;
    for w in &mut padded {
        *w = _mm512_xor_si512(*w, pad);
    }
    padded
}

/// `x ^ y ^ z` in one instruction.
#[inline]
#[target_feature(enable = "avx512f")]
fn xor3(x: __m512i, y: __m512i, z: __m512i) -> __m512i {
    _mm512_ternarylogic_epi32::<0x96>(x, y, z)
}

/// Schedule word `t` from words `t - 16`, `t - 15`, `t - 7` and
/// `t - 2`: `W[t-16] + σ0(W[t-15]) + W[t-7] + σ1(W[t-2])`.
#[inline]
#[target_feature(enable = "avx512f")]
fn next_word(w16: __m512i, w15: __m512i, w7: __m512i, w2: __m512i) -> __m512i {
    let s0 = xor3(
        _mm512_ror_epi32::<7>(w15),
        _mm512_ror_epi32::<18>(w15),
        _mm512_srli_epi32::<3>(w15),
    );
    let s1 = xor3(
        _mm512_ror_epi32::<17>(w2),
        _mm512_ror_epi32::<19>(w2),
        _mm512_srli_epi32::<10>(w2),
    );
    _mm512_add_epi32(_mm512_add_epi32(w16, s0), _mm512_add_epi32(w7, s1))
}

/// Round `8k + R` on sixteen lanes: `wk` is the schedule word plus the
/// round constant. The working variables rotate through `v` instead of
/// moving: role `i` (`a` = 0 … `h` = 7) of this round lives in
/// `v[(i + 8 - R) % 8]`, so only `d` and `h` are written, and every
/// index is a constant once inlined.
#[inline]
#[target_feature(enable = "avx512f")]
fn round16<const R: usize>(v: &mut Lanes, wk: __m512i) {
    let at = |role: usize| (role + 8 - R) % 8;
    let (a, b, c, e, f, g) = (v[at(0)], v[at(1)], v[at(2)], v[at(4)], v[at(5)], v[at(6)]);
    let s1 = xor3(
        _mm512_ror_epi32::<6>(e),
        _mm512_ror_epi32::<11>(e),
        _mm512_ror_epi32::<25>(e),
    );
    // Ch: `e ? f : g` bit by bit.
    let ch = _mm512_ternarylogic_epi32::<0xCA>(e, f, g);
    let t1 = _mm512_add_epi32(_mm512_add_epi32(v[at(7)], s1), _mm512_add_epi32(ch, wk));
    let s0 = xor3(
        _mm512_ror_epi32::<2>(a),
        _mm512_ror_epi32::<13>(a),
        _mm512_ror_epi32::<22>(a),
    );
    // Maj: the majority of `a`, `b`, `c` bit by bit.
    let maj = _mm512_ternarylogic_epi32::<0xE8>(a, b, c);
    v[at(3)] = _mm512_add_epi32(v[at(3)], t1);
    v[at(7)] = _mm512_add_epi32(t1, _mm512_add_epi32(s0, maj));
}

/// Folds one block into every lane: the 64 rounds, the schedule
/// extended sixteen words at a time in place (`w[t % 16]` holds word
/// `t`), then the feed-forward.
#[inline]
#[target_feature(enable = "avx512f")]
fn fold(s: &mut Lanes, mut w: Words) {
    let mut v = *s;
    for (group, k) in K.as_chunks::<WIDE>().0.iter().enumerate() {
        if group > 0 {
            for t in 0..WIDE {
                w[t] = next_word(
                    w[t],
                    w[(t + 1) % WIDE],
                    w[(t + 9) % WIDE],
                    w[(t + 14) % WIDE],
                );
            }
        }
        for (w, k) in w.as_chunks::<8>().0.iter().zip(k.as_chunks::<8>().0) {
            let wk = |i: usize| _mm512_add_epi32(w[i], splat(k[i]));
            round16::<0>(&mut v, wk(0));
            round16::<1>(&mut v, wk(1));
            round16::<2>(&mut v, wk(2));
            round16::<3>(&mut v, wk(3));
            round16::<4>(&mut v, wk(4));
            round16::<5>(&mut v, wk(5));
            round16::<6>(&mut v, wk(6));
            round16::<7>(&mut v, wk(7));
        }
    }
    for (s, v) in s.iter_mut().zip(v) {
        *s = _mm512_add_epi32(*s, v);
    }
}

/// Folds `count` blocks of every lane into `s`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn fold_blocks(s: &mut Lanes, blocks: &[&[[u8; 64]]; WIDE], count: usize) {
    for b in 0..count {
        let mut rows = [&[0u8; 64]; WIDE];
        for (row, lane) in rows.iter_mut().zip(blocks) {
            *row = &lane[b];
        }
        fold(s, words_of(rows));
    }
}

/// The blocks every lane holds.
fn common_count(blocks: &[&[[u8; 64]]; WIDE]) -> usize {
    blocks.iter().map(|lane| lane.len()).min().unwrap_or(0)
}

/// Each lane's state as a `[u32; 8]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn store_states(s: &Lanes) -> [[u32; 8]; WIDE] {
    // Word `j` of every lane, lane `i` at index `i`.
    let mut columns = [[0u32; WIDE]; 8];
    for (column, s) in columns.iter_mut().zip(s) {
        store_lanes(column, *s);
    }
    let mut states = [[0u32; 8]; WIDE];
    for (i, state) in states.iter_mut().enumerate() {
        for (word, column) in state.iter_mut().zip(&columns) {
            *word = column[i];
        }
    }
    states
}

/// One HMAC per lane over its padded message: the inner hash (ipad key
/// block, then the message) and the outer one (opad key block, then the
/// inner digest, 96 bytes in all).
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn hmac(key: &Words, blocks: &[&[[u8; 64]]; WIDE], count: usize) -> Lanes {
    let mut inner = initial();
    fold(&mut inner, xor_pad(key, 0x36));
    fold_blocks(&mut inner, blocks, count);
    let mut outer = initial();
    fold(&mut outer, xor_pad(key, 0x5c));
    fold(&mut outer, digest_tail(&inner, 96 * 8));
    outer
}

#[target_feature(enable = "avx512f,avx512bw")]
fn digest16_avx512(blocks: [&[[u8; 64]]; WIDE], double: bool) -> [[u32; 8]; WIDE] {
    let mut s = initial();
    fold_blocks(&mut s, &blocks, common_count(&blocks));
    if double {
        let words = digest_tail(&s, 32 * 8);
        s = initial();
        fold(&mut s, words);
    }
    store_states(&s)
}

#[target_feature(enable = "avx512f,avx512bw")]
fn hmac_chain16_avx512(
    keys: [&[u8; 64]; WIDE],
    blocks: [&[[u8; 64]]; WIDE],
) -> [[[u32; 8]; WIDE]; 2] {
    let count = common_count(&blocks);
    let first = hmac(&words_of(keys), &blocks, count);
    // The second key is the first HMAC's digest: its eight words, then
    // zeros to the block.
    let mut key = [_mm512_setzero_si512(); WIDE];
    key[..8].copy_from_slice(&first);
    let second = hmac(&key, &blocks, count);
    [store_states(&first), store_states(&second)]
}
