//! Order statistics for timing samples.
//!
//! Every timing is reported as a median plus "the tail": the highest
//! percentile that still has at least ten samples beyond it, so a tail
//! value is never a single outlier. Percentiles are nearest-rank.

/// Percentiles tried for the tail, highest first.
const TAIL_CANDIDATES: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// One-based nearest rank of percentile `p` among `n` samples. `p` is
/// taken to a hundredth of a percent and the ceiling is computed on
/// integers, so 99.99 % of 100 000 is rank 99 990 and not one above.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).clamp(1, n)
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of ascending `sorted`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Nearest-rank percentile over floats (ascending `sorted`, no NaN).
pub fn percentile_f64(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples strictly beyond its rank. With fewer than twenty samples no
/// candidate qualifies and the median stands in (percentile 50).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| n >= rank(n.max(1), *p) + MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median and tail of one timing's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Which percentile `tail` is.
    pub tail_p: f64,
    /// The tail value.
    pub tail: f64,
}

/// Summarises `samples` (any order). `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(sorted.len());
    Some(Summary {
        n: sorted.len(),
        p50: percentile_f64(&sorted, 50.0),
        tail_p,
        tail: percentile_f64(&sorted, tail_p),
    })
}

/// Median across repetitions: the mean of the two middle values when
/// the count is even.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 95.0), 95);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.5), 1);
        let five = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&five, 50.0), 30);
        assert_eq!(percentile(&five, 95.0), 50);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // Below twenty samples nothing qualifies: the median stands in.
        assert_eq!(tail_percentile(1), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        // 20 samples: p50 has rank 10, ten beyond.
        assert_eq!(tail_percentile(20), 50.0);
        // 40 samples: p75 has rank 30, ten beyond; p90 has rank 36.
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
        for n in 20..2_000 {
            let p = tail_percentile(n);
            assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = summarize(&samples).expect("non-empty");
        assert_eq!((s.n, s.p50, s.tail_p, s.tail), (200, 100.0, 95.0, 190.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }
}
