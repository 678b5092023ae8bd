//! The timing core every sample goes through: monotonic clock, `black_box`
//! on outcomes, warm-up discard, and one summary rule (median, quartiles,
//! and the highest percentile that still has ten samples beyond it).

use std::hint::black_box;
use std::time::Instant;

/// Time `f` on the monotonic clock; the outcome passes through `black_box`
/// so the optimizer cannot delete the measured work.
pub fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = black_box(f());
    (t.elapsed().as_secs_f64(), r)
}

/// Run `f` `warmup + n` times and keep the last `n` values it returns.
pub fn sample(warmup: usize, n: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    for _ in 0..warmup {
        black_box(f());
    }
    (0..n).map(|_| f()).collect()
}

/// What is reported for one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it; `None` when no percentile above the median has.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The highest percentile of the ladder that leaves at least ten of `n`
/// samples beyond it. Eleven samples resolve nothing above the median.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per thousand): integers, so that
    // 10,000 samples do resolve p99.9.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10_000)
        .map(|(p, _)| p)
}

/// Quantile `p` in (0, 1) of sorted values, interpolating at `p * (n + 1)`
/// like Python's `statistics.quantiles` (the rule the acceptance check uses).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * (pos - lo as f64)
}

/// Summarize samples; panics on an empty slice (a metric with no sample is a
/// harness bug, not a measurement).
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        n: s.len(),
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        tail: tail_percentile(s.len()).map(|p| (p, quantile(&s, p / 100.0))),
    }
}

/// Median of the samples.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(11), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(101), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.tail, None);
        let one = summarize(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).median, 2.0);
    }

    #[test]
    fn sample_discards_warmup() {
        let mut calls = 0.0;
        let v = sample(2, 3, || {
            calls += 1.0;
            calls
        });
        assert_eq!(v, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn time_returns_the_outcome_and_a_positive_duration() {
        let (secs, r) = time(|| (0..1000u64).sum::<u64>());
        assert_eq!(r, 499_500);
        assert!(secs >= 0.0);
    }
}
