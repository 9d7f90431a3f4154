//! Simulated time.
//!
//! The simulator's clock is a monotone counter of **microseconds**. A
//! newtype keeps it from being confused with byte counts, heights, or the
//! millisecond timestamps embedded in block headers.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from microseconds.
    pub fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// Builds a time from milliseconds.
    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000)
    }

    /// The value in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The value in (truncated) milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self - earlier`.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}us)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
    }
}

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Builds a span from microseconds.
    pub fn from_micros(us: u64) -> Duration {
        Duration(us)
    }

    /// Builds a span from milliseconds.
    pub fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000)
    }

    /// Builds a span from fractional milliseconds: rounded to the nearest
    /// µs, halves away from zero; negative and NaN give zero, and what
    /// exceeds `u64::MAX` µs saturates.
    ///
    /// That is `(ms.max(0.0) * 1_000.0).round() as u64`, in integer
    /// steps: `f64::round` is a libm call on baseline x86-64 (no SSE4.1
    /// `roundsd`), and every simulated transit rounds twice. The
    /// truncation is exact, so is the fraction `us - whole` below 2^52
    /// (above it every `f64` is an integer and the fraction is zero),
    /// and the casts saturate as `round() as u64` does.
    pub fn from_millis_f64(ms: f64) -> Duration {
        let us = ms.max(0.0) * 1_000.0;
        let whole = us as u64;
        Duration(whole.saturating_add(u64::from(us - whole as f64 >= 0.5)))
    }

    /// The span in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Duration({}us)", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = Duration;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when order is not guaranteed.
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(Duration::from_millis(3).as_millis_f64(), 3.0);
        assert_eq!(Duration::from_millis_f64(1.5).as_micros(), 1_500);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!(t - SimTime::from_millis(10), Duration::from_millis(5));
        assert_eq!(
            SimTime::from_millis(1).saturating_since(SimTime::from_millis(9)),
            Duration::ZERO
        );
    }

    #[test]
    fn negative_fractional_millis_clamp_to_zero() {
        assert_eq!(Duration::from_millis_f64(-2.0), Duration::ZERO);
    }

    /// The rounding the integer form replaces.
    fn by_round(ms: f64) -> u64 {
        (ms.max(0.0) * 1_000.0).round() as u64
    }

    #[test]
    fn fractional_millis_round_like_f64_round() {
        let tie_below = 0.499_999_999_999_999_94; // the largest f64 < 0.5
                                                  // 2^64 µs (the top of `u64`) and 2^52 µs (where every `f64` is
                                                  // an integer), in ms.
        let two_64_us = 2f64.powi(64) / 1_000.0;
        let two_52_us = 2f64.powi(52) / 1_000.0;
        let pinned = [
            0.0,
            -0.0,
            -1e-300,
            -2.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            two_64_us,
            two_64_us * 2.0,
            two_64_us.next_down(),
            two_52_us,
            two_52_us.next_up(),
            0.000_5, // x.5 µs ties
            0.001_5,
            0.002_5,
            2.000_5,
            1_000.000_5,
            tie_below / 1_000.0,
            1.0 + tie_below / 1_000.0,
        ];
        for ms in pinned {
            assert_eq!(
                Duration::from_millis_f64(ms).as_micros(),
                by_round(ms),
                "{ms:e}"
            );
        }
        // Exact ties in µs: n + 0.5, every n that keeps the half.
        for n in [0u64, 1, 2, 3, 1_000, (1 << 51) - 1] {
            let us = n as f64 + 0.5;
            let got = Duration::from_millis_f64(us / 1_000.0).as_micros();
            assert_eq!(got, by_round(us / 1_000.0), "tie {us}");
        }
        assert_eq!(
            Duration::from_millis_f64(tie_below / 1_000.0),
            Duration::ZERO
        );

        // A million random bit patterns (every sign, exponent, NaN
        // payload) and a million values in the range transits live in.
        let mut rng = ici_rng::Xoshiro256::seed_from_u64(0x0F_1005);
        for _ in 0..1_000_000 {
            let ms = f64::from_bits(rng.next_u64());
            assert_eq!(
                Duration::from_millis_f64(ms).as_micros(),
                by_round(ms),
                "{ms:e} ({:#018x})",
                ms.to_bits()
            );
            let ms = rng.gen_f64() * 400.0;
            assert_eq!(
                Duration::from_millis_f64(ms).as_micros(),
                by_round(ms),
                "{ms:e}"
            );
        }
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = (1..=4).map(Duration::from_millis).sum();
        assert_eq!(total, Duration::from_millis(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(Duration::from_micros(250).to_string(), "0.250ms");
    }
}
