//! Order statistics: percentiles with the "ten samples beyond" rule, and
//! quartiles computed the way the driver computes them.

use crate::json::Json;

/// A percentile is only reported when at least this many samples lie
/// beyond it — below that it is one or two outliers, not a statistic.
pub const MIN_SAMPLES_BEYOND: usize = 10;

pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The `p`-th percentile (nearest rank) of `sorted`, or `None` when fewer
/// than [`MIN_SAMPLES_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // Multiply before dividing: 99 * 1100 / 100 is exact, 0.99 * 1100 is not.
    let rank = (p * sorted.len() as f64 / 100.0).ceil().max(1.0) as usize;
    let idx = rank.min(sorted.len()) - 1;
    (sorted.len() - 1 - idx >= MIN_SAMPLES_BEYOND).then(|| sorted[idx])
}

/// Median by the usual midpoint rule (`statistics.median`).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; `None` with fewer than two values.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise `samples` (sorted in place). A single sample is its own
    /// quartiles: the spread is unknown, not zero, and `n` says so.
    pub fn of(samples: &mut [f64]) -> Summary {
        sort(samples);
        let median = median(samples);
        let (q1, q3) = quartiles(samples).unwrap_or((median, median));
        Summary {
            n: samples.len(),
            median,
            q1,
            q3,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("n", (self.n as u64).into()),
            ("median", self.median.into()),
            ("q1", self.q1.into()),
            ("q3", self.q3.into()),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        Some(Summary {
            n: j.get("n")?.as_f64()? as usize,
            median: j.get("median")?.as_f64()?,
            q1: j.get("q1")?.as_f64()?,
            q3: j.get("q3")?.as_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // p91 leaves nine samples above it.
        assert_eq!(percentile(&v, 91.0), None);
        assert_eq!(percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(1089.0));
        assert_eq!(percentile(&v, 99.9), None);
        assert_eq!(percentile(&[], 50.0), None);
        // Twenty samples: the median has ten above it, p55 does not.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(10.0));
        assert_eq!(percentile(&v, 55.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some((1.0, 4.0)));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), Some((2.5, 5.5)));
        assert_eq!(quartiles(&[7.0]), None);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!((s.n, s.median), (10, 5.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
        assert_eq!(Summary::of(&mut [4.0]).spread(), 0.0);
    }
}
