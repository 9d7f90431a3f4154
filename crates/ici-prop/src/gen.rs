//! Generator helpers — thin, total wrappers over [`Xoshiro256`].
//!
//! A generator in `ici-prop` is any `Fn(&mut Xoshiro256) -> T`; these
//! helpers cover the common shapes while staying *total*: degenerate
//! ranges clamp instead of panicking, so a shrunk configuration can
//! never crash the harness that is trying to report it.

use ici_rng::Xoshiro256;

/// A `usize` in `[lo, hi)`; returns `lo` when the range is empty.
pub fn usize_in(rng: &mut Xoshiro256, lo: usize, hi: usize) -> usize {
    if lo >= hi {
        lo
    } else {
        lo + rng.bounded_u64((hi - lo) as u64) as usize
    }
}

/// An independent `keep_prob` coin per element; order is preserved.
pub fn subset<T: Clone>(rng: &mut Xoshiro256, xs: &[T], keep_prob: f64) -> Vec<T> {
    xs.iter()
        .filter(|_| rng.gen_bool(keep_prob))
        .cloned()
        .collect()
}

/// One element of `xs` by uniform index, or `None` when `xs` is empty.
pub fn pick<'a, T>(rng: &mut Xoshiro256, xs: &'a [T]) -> Option<&'a T> {
    rng.choose(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_respected_and_degenerate_ranges_clamp() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        for _ in 0..200 {
            let v = usize_in(&mut rng, 3, 9);
            assert!((3..9).contains(&v));
        }
        assert_eq!(usize_in(&mut rng, 5, 5), 5);
    }

    #[test]
    fn subset_and_pick_are_deterministic_per_seed() {
        let xs: Vec<u32> = (0..16).collect();
        let mut a = Xoshiro256::seed_from_u64(3);
        let mut b = Xoshiro256::seed_from_u64(3);
        assert_eq!(subset(&mut a, &xs, 0.5), subset(&mut b, &xs, 0.5));
        assert_eq!(pick(&mut a, &xs), pick(&mut b, &xs));
        assert_eq!(pick(&mut a, &[] as &[u32]), None);
    }
}
