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
//! the only entry points are the safe [`available`] and
//! [`compress_blocks`], which do the CPU detection themselves.

#![allow(unsafe_code)]

use crate::sha256::K;
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
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

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_sha(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    // Reverses the bytes of each 32-bit lane: the message is big-endian.
    let be_lanes = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);
    let (k, _) = K.as_chunks::<4>();

    // `sha256rnds2` wants the state as (A,B,E,F) and (C,D,G,H), high
    // lane first, rather than (a,b,c,d) and (e,f,g,h).
    let (halves, _) = state.as_chunks_mut::<4>();
    let cdab = _mm_shuffle_epi32(load_words(&halves[0]), 0xB1);
    let efgh = _mm_shuffle_epi32(load_words(&halves[1]), 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let (quarters, _) = block.as_chunks::<16>();
        let mut w0 = _mm_shuffle_epi8(load_bytes(&quarters[0]), be_lanes);
        let mut w1 = _mm_shuffle_epi8(load_bytes(&quarters[1]), be_lanes);
        let mut w2 = _mm_shuffle_epi8(load_bytes(&quarters[2]), be_lanes);
        let mut w3 = _mm_shuffle_epi8(load_bytes(&quarters[3]), be_lanes);

        // Rounds 0..16 take the message words as they are.
        rounds4(&mut abef, &mut cdgh, w0, &k[0]);
        rounds4(&mut abef, &mut cdgh, w1, &k[1]);
        rounds4(&mut abef, &mut cdgh, w2, &k[2]);
        rounds4(&mut abef, &mut cdgh, w3, &k[3]);
        // Rounds 16..64: each group first extends the schedule, the new
        // words replacing the oldest four.
        for [k0, k1, k2, k3] in k[4..].as_chunks::<4>().0 {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, k0);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, k1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, k2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, k3);
        }

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    store_words(&mut halves[0], _mm_blend_epi16(feba, dchg, 0xF0));
    store_words(&mut halves[1], _mm_alignr_epi8(dchg, feba, 8));
}
