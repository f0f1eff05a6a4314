//! Percentiles for latency samples. Medians come from
//! [`fmossim_bench::stats::median_by`]; that module has no percentile,
//! so the nearest-rank rule and its sample-count check live here.

use fmossim_bench::stats::median_by;

/// The median of `samples` (the upper median for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    median_by(samples.to_vec(), |&x| x)
}

/// Zero-based rank of the nearest-rank `q`-quantile among `n` sorted
/// samples: the smallest sample with at least a `q` share of samples
/// at or below it.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty set");
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-quantile.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q) - 1
}

/// A percentile with the number of samples it was taken from, so the
/// reader can judge whether its tail is resolved.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The quantile taken, in `[0, 1]`.
    pub q: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile of `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Percentile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Percentile {
        q,
        value: sorted[rank(n, q)],
        samples: n,
        beyond: beyond(n, q),
    }
}

/// The highest nearest-rank percentile at most `q` with at least
/// `tail` samples beyond it; when that would fall below the median,
/// the median itself.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn resolved(samples: &[f64], q: f64, tail: usize) -> Percentile {
    let n = samples.len();
    let p = (1..=n)
        .rev()
        .map(|r| (r as f64 / n as f64).min(q))
        .find(|&p| beyond(n, p) >= tail)
        .map(|p| percentile(samples, p));
    match p {
        Some(p) if p.value >= median(samples) => p,
        _ => Percentile {
            q: 0.5,
            value: median(samples),
            samples: n,
            beyond: n - n / 2 - 1,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        let needed = (1..).find(|&n| beyond(n, 0.9) >= 10);
        assert_eq!(needed, Some(100));
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(beyond(1000, 0.9), 100);
    }

    #[test]
    fn nearest_rank_on_a_known_set() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p = percentile(&xs, 0.9);
        assert_eq!(p.value, 90.0);
        assert_eq!((p.samples, p.beyond), (100, 10));
        assert_eq!(percentile(&xs, 0.5).value, 50.0);
        assert_eq!(percentile(&[7.0], 0.9).value, 7.0);
        assert_eq!(percentile(&[7.0], 0.9).beyond, 0);
    }

    #[test]
    fn unresolved_tails_fall_back_to_the_median() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(resolved(&xs, 0.9, 10).value, 180.0);
        let few: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(resolved(&few, 0.9, 10).value, median(&few));
        assert_eq!(resolved(&few, 0.9, 10).beyond, 7);
        // 40 samples: p75 is the highest percentile with ten beyond.
        let mid: Vec<f64> = (1..=40).map(f64::from).collect();
        let p = resolved(&mid, 0.9, 10);
        assert_eq!((p.value, p.beyond), (30.0, 10));
    }

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&[2.0, 9.0, 1.0]), 2.0);
    }
}
