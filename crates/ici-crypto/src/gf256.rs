//! Arithmetic in the finite field GF(2^8).
//!
//! The field is realised as polynomials over GF(2) modulo the primitive
//! polynomial `x^8 + x^4 + x^3 + x^2 + 1` (`0x11d`), the conventional choice
//! for Reed–Solomon codes. Multiplication and division run through
//! precomputed log/antilog tables generated at compile time.
//!
//! This module underpins [`crate::rs`], the erasure code used by the
//! RapidChain baseline's IDA-gossip.

/// The reduction polynomial, minus the `x^8` term.
const POLY: u16 = 0x1d;

/// Tables: `EXP[i] = g^i` (doubled to avoid modular reduction of indices)
/// and `LOG[x] = i` with `g^i = x`, for generator `g = 2`.
struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

const TABLES: Tables = build_tables();

/// Full multiplication table: `MUL[a][b] = a · b` in GF(2^8).
///
/// Row `a` is the image of the whole field under multiplication by `a`,
/// so slice kernels ([`mul_slice`], [`mul_acc`]) borrow one row per
/// scalar and do a single 1-D lookup per byte instead of two log/exp
/// lookups plus an add. 64 KiB, built at compile time.
static MUL: [[u8; 256]; 256] = build_mul_table();

const fn build_mul_table() -> [[u8; 256]; 256] {
    let mut table = [[0u8; 256]; 256];
    let mut a = 1usize; // row 0 and column 0 stay zero
    while a < 256 {
        let log_a = TABLES.log[a] as usize;
        let mut b = 1usize;
        while b < 256 {
            table[a][b] = TABLES.exp[log_a + TABLES.log[b] as usize];
            b += 1;
        }
        a += 1;
    }
    table
}

const fn build_tables() -> Tables {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut acc: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = acc as u8;
        log[acc as usize] = i as u8;
        acc <<= 1;
        if acc & 0x100 != 0 {
            acc ^= 0x100 | POLY;
        }
        i += 1;
    }
    // Double the exp table so `exp[a + b]` needs no `% 255`.
    let mut k = 255;
    while k < 510 {
        exp[k] = exp[k - 255];
        k += 1;
    }
    Tables { exp, log }
}

/// An element of GF(2^8).
///
/// Addition is XOR; multiplication is polynomial multiplication modulo
/// `0x11d`. The type is a transparent wrapper over `u8` and is `Copy`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The conventional generator of the multiplicative group.
    pub const GENERATOR: Gf256 = Gf256(2);

    /// Field addition (XOR). Identical to subtraction in characteristic 2.
    pub fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }

    /// Field subtraction (XOR).
    pub fn sub(self, rhs: Gf256) -> Gf256 {
        self.add(rhs)
    }

    /// Field multiplication.
    pub fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let idx = TABLES.log[self.0 as usize] as usize + TABLES.log[rhs.0 as usize] as usize;
        Gf256(TABLES.exp[idx])
    }

    /// Field division.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div(self, rhs: Gf256) -> Gf256 {
        // lint:allow(panic) -- documented `# Panics` contract, mirrors
        // integer division by zero
        assert!(rhs.0 != 0, "division by zero in GF(256)");
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        let idx = 255 + TABLES.log[self.0 as usize] as usize - TABLES.log[rhs.0 as usize] as usize;
        Gf256(TABLES.exp[idx])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the element is zero.
    pub fn inv(self) -> Gf256 {
        Gf256::ONE.div(self)
    }

    /// Raises the element to the power `exp`.
    pub fn pow(self, mut exp: u32) -> Gf256 {
        let mut base = self;
        let mut acc = Gf256::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            exp >>= 1;
        }
        acc
    }
}

impl From<u8> for Gf256 {
    fn from(value: u8) -> Gf256 {
        Gf256(value)
    }
}

impl From<Gf256> for u8 {
    fn from(value: Gf256) -> u8 {
        value.0
    }
}

/// Multiplies a byte slice by a scalar and XOR-accumulates it into `acc`:
/// `acc[i] ^= scalar * src[i]`.
///
/// This is the inner loop of Reed–Solomon encoding/decoding; keeping it as a
/// free function lets the coder iterate rows without constructing `Gf256`
/// wrappers per byte.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_acc(acc: &mut [u8], src: &[u8], scalar: Gf256) {
    // lint:allow(panic) -- documented `# Panics` contract; callers pass
    // equal-length shards by construction
    assert_eq!(acc.len(), src.len(), "mul_acc length mismatch");
    if scalar.0 == 0 {
        return;
    }
    if scalar.0 == 1 {
        for (a, s) in acc.iter_mut().zip(src) {
            *a ^= s;
        }
        return;
    }
    let row = &MUL[scalar.0 as usize];
    for (a, s) in acc.iter_mut().zip(src) {
        *a ^= row[*s as usize];
    }
}

/// Multiplies a byte slice by a scalar into `dst`: `dst[i] = scalar * src[i]`,
/// overwriting `dst`. Only the overlapping prefix (`min` of the two lengths)
/// is processed, so the function has no panic path.
///
/// Like [`mul_acc`] this borrows one `MUL` table row per call and does a
/// single 1-D lookup per byte — the shape the Reed–Solomon inner loop wants
/// when it writes a fresh output stripe.
pub fn mul_slice(scalar: Gf256, src: &[u8], dst: &mut [u8]) {
    if scalar.0 == 0 {
        for d in dst.iter_mut().take(src.len()) {
            *d = 0;
        }
        return;
    }
    if scalar.0 == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = *s;
        }
        return;
    }
    let row = &MUL[scalar.0 as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d = row[*s as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slow reference multiplication (Russian peasant over GF(2)).
    fn slow_mul(a: u8, b: u8) -> u8 {
        let (mut a, mut b) = (a as u16, b as u16);
        let mut p = 0u16;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= 0x100 | POLY;
            }
            b >>= 1;
        }
        p as u8
    }

    #[test]
    fn table_mul_matches_reference_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(Gf256(a).mul(Gf256(b)).0, slow_mul(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for a in 1..=255u8 {
            let inv = Gf256(a).inv();
            assert_eq!(Gf256(a).mul(inv), Gf256::ONE, "inv of {a}");
        }
    }

    #[test]
    fn division_is_mul_by_inverse() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                assert_eq!(
                    Gf256(a).div(Gf256(b)),
                    Gf256(a).mul(Gf256(b).inv()),
                    "{a} / {b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Gf256(7).div(Gf256::ZERO);
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        for a in 0..=255u8 {
            assert_eq!(Gf256(a).add(Gf256(a)), Gf256::ZERO);
            assert_eq!(Gf256(a).add(Gf256::ZERO), Gf256(a));
        }
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = std::collections::HashSet::new();
        let mut x = Gf256::ONE;
        for _ in 0..255 {
            assert!(seen.insert(x.0), "cycle before order 255");
            x = x.mul(Gf256::GENERATOR);
        }
        assert_eq!(x, Gf256::ONE, "generator order is not 255");
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 29, 142, 255] {
            let mut acc = Gf256::ONE;
            for e in 0..16u32 {
                assert_eq!(Gf256(a).pow(e), acc, "{a}^{e}");
                acc = acc.mul(Gf256(a));
            }
        }
    }

    #[test]
    fn distributivity_spot_checks() {
        for a in (0..=255u8).step_by(17) {
            for b in (0..=255u8).step_by(13) {
                for c in (0..=255u8).step_by(29) {
                    let left = Gf256(a).mul(Gf256(b).add(Gf256(c)));
                    let right = Gf256(a).mul(Gf256(b)).add(Gf256(a).mul(Gf256(c)));
                    assert_eq!(left, right);
                }
            }
        }
    }

    #[test]
    fn mul_table_rows_match_reference_exhaustively() {
        for a in 0..=255u8 {
            let row = &MUL[a as usize];
            for b in 0..=255u8 {
                assert_eq!(row[b as usize], slow_mul(a, b), "MUL[{a}][{b}]");
            }
        }
    }

    #[test]
    fn mul_slice_matches_naive_per_byte_for_every_scalar() {
        let src: Vec<u8> = (0..256).map(|i| (i * 13 + 5) as u8).collect();
        for scalar in 0..=255u8 {
            let mut dst = vec![0x5Au8; src.len()];
            mul_slice(Gf256(scalar), &src, &mut dst);
            let naive: Vec<u8> = src.iter().map(|&s| slow_mul(scalar, s)).collect();
            assert_eq!(dst, naive, "scalar {scalar}");
        }
    }

    #[test]
    fn mul_slice_stops_at_the_shorter_slice() {
        let src = [2u8, 3, 4];
        let mut dst = [0xFFu8; 5];
        mul_slice(Gf256(2), &src, &mut dst);
        assert_eq!(&dst[..3], &[4, 6, 8]);
        assert_eq!(&dst[3..], &[0xFF, 0xFF], "tail untouched");
        let mut short = [0u8; 2];
        mul_slice(Gf256(1), &src, &mut short);
        assert_eq!(short, [2, 3]);
    }

    #[test]
    fn mul_acc_matches_scalar_loop() {
        let src: Vec<u8> = (0..64).map(|i| (i * 5 + 3) as u8).collect();
        for scalar in [0u8, 1, 2, 77, 255] {
            let mut acc = vec![0xAAu8; src.len()];
            let mut expected = acc.clone();
            mul_acc(&mut acc, &src, Gf256(scalar));
            for (e, s) in expected.iter_mut().zip(&src) {
                *e ^= Gf256(scalar).mul(Gf256(*s)).0;
            }
            assert_eq!(acc, expected, "scalar {scalar}");
        }
    }
}
