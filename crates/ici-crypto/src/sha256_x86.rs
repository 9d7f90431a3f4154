//! SHA-256 compression on the x86-64 SHA extensions.
//!
//! `sha256rnds2` performs two rounds per instruction and
//! `sha256msg1`/`sha256msg2` extend the message schedule four words at
//! a time, so one block is sixteen four-round groups instead of the 64
//! scalar rounds of [`crate::sha256::compress_blocks_portable`]. The
//! digests are the same by definition (FIPS 180-4); only host time
//! differs.
//!
//! This is the one file in `ici-crypto` allowed to use `unsafe`:
//! hardware intrinsics cannot be reached from safe Rust. The carve-out
//! is explicit in `lint.toml` (`unsafe_files`), the crate root carries
//! `#![deny(unsafe_code)]` so nothing outside this file can follow, and
//! the only entry points are the safe [`available`],
//! [`compress_blocks`] and [`compress_lanes`], which do the CPU
//! detection themselves.

#![allow(unsafe_code)]

use crate::sha256::K;
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
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

/// Folds one block into each of `L` independent states on the SHA
/// extensions, the lanes interleaved. Returns `false`, having touched
/// nothing, when the CPU lacks them.
pub(crate) fn compress_lanes<const L: usize>(
    states: &mut [[u32; 8]; L],
    blocks: &[[u8; 64]; L],
) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available()` just confirmed every target feature
    // `compress_lanes_sha` is compiled with.
    unsafe { compress_lanes_sha(states, blocks) };
    true
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

/// One block into each of `L` register-held states: the 64 rounds and
/// the feed-forward. Every four-round group runs across all lanes
/// before the next starts, so the lanes' `sha256rnds2` dependency
/// chains overlap instead of running back to back.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3")]
fn block_rounds<const L: usize>(
    abef: &mut [__m128i; L],
    cdgh: &mut [__m128i; L],
    blocks: [&[u8; 64]; L],
) {
    // Reverses the bytes of each 32-bit lane: the message is big-endian.
    let be_lanes = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);
    let (k, _) = K.as_chunks::<4>();
    let (abef_in, cdgh_in) = (*abef, *cdgh);
    let mut w = [[_mm_setzero_si128(); 4]; L];
    for (words, block) in w.iter_mut().zip(blocks) {
        for (word, quarter) in words.iter_mut().zip(block.as_chunks::<16>().0) {
            *word = _mm_shuffle_epi8(load_bytes(quarter), be_lanes);
        }
    }

    // Rounds 0..16 take the message words as they are.
    for (g, kg) in k[..4].iter().enumerate() {
        for l in 0..L {
            rounds4(&mut abef[l], &mut cdgh[l], w[l][g], kg);
        }
    }
    // Rounds 16..64: each group first extends the schedule, the new
    // words replacing the oldest four.
    for quad in k[4..].as_chunks::<4>().0 {
        for (g, kg) in quad.iter().enumerate() {
            for l in 0..L {
                let s = &mut w[l];
                s[g] = schedule(s[g], s[(g + 1) % 4], s[(g + 2) % 4], s[(g + 3) % 4]);
                rounds4(&mut abef[l], &mut cdgh[l], s[g], kg);
            }
        }
    }

    for l in 0..L {
        abef[l] = _mm_add_epi32(abef[l], abef_in[l]);
        cdgh[l] = _mm_add_epi32(cdgh[l], cdgh_in[l]);
    }
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_sha(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let (abef, cdgh) = load_state(state);
    let (mut abef, mut cdgh) = ([abef], [cdgh]);
    for block in blocks {
        block_rounds(&mut abef, &mut cdgh, [block]);
    }
    store_state(state, abef[0], cdgh[0]);
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_lanes_sha<const L: usize>(states: &mut [[u32; 8]; L], blocks: &[[u8; 64]; L]) {
    let mut abef = [_mm_setzero_si128(); L];
    let mut cdgh = [_mm_setzero_si128(); L];
    for ((abef, cdgh), state) in abef.iter_mut().zip(&mut cdgh).zip(&*states) {
        (*abef, *cdgh) = load_state(state);
    }
    block_rounds(&mut abef, &mut cdgh, blocks.each_ref());
    for ((state, abef), cdgh) in states.iter_mut().zip(abef).zip(cdgh) {
        store_state(state, abef, cdgh);
    }
}
