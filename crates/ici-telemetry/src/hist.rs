//! Fixed-bucket histograms for latencies and sizes.
//!
//! Buckets are powers of two: bucket 0 holds the value `0`, bucket `b`
//! (for `b >= 1`) holds values in `[2^(b-1), 2^b - 1]`. 64 buckets cover
//! the full `u64` range with no allocation and O(1) recording, which is
//! what a hot-path instrument needs. Count, sum, min, and max are exact;
//! percentiles are estimated from bucket boundaries (within 2× — plenty
//! to locate an imbalance, per-phase stall, or oversized payload).

/// Number of buckets; covers all of `u64`.
pub const BUCKETS: usize = 64;

/// A power-of-two-bucket histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Index of the bucket holding `value`: its bit length, capped.
fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `p`-th percentile (`0 < p <= 100`): the upper bound of
    /// the bucket containing the `ceil(p% · count)`-th sample, clamped
    /// into the exact `[min, max]` envelope. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if b == 0 {
                    0
                } else if b >= 64 {
                    u64::MAX
                } else {
                    (1u64 << b) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (b, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn bucket_indices_are_bit_lengths() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn exact_stats_are_exact() {
        let mut h = Histogram::new();
        for v in [5u64, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1115);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 278.75).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_within_bucket_resolution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        // The 500th sample sits in bucket [256, 511]; estimate is the
        // bucket's upper bound.
        assert!((256..=511).contains(&p50), "p50 {p50}");
        let p99 = h.percentile(99.0);
        assert!((512..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.percentile(100.0), 1000);
    }

    #[test]
    fn percentile_clamps_to_envelope() {
        let mut h = Histogram::new();
        h.record(700);
        // Single sample: every percentile is that sample.
        assert_eq!(h.percentile(1.0), 700);
        assert_eq!(h.percentile(99.0), 700);
    }

    #[test]
    fn saturating_sum_does_not_wrap() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }
}
