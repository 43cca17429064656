//! Measurement helper: a latency histogram.

/// Power-of-two bucketed histogram for latency-like quantities.
///
/// Bucket `i` covers values in `[2^(i-1), 2^i)` (bucket 0 covers `{0}` and
/// `{1}` lands in bucket 1). Quantiles are estimated by linear
/// interpolation inside the winning bucket — accurate enough for the
/// order-of-magnitude comparisons the experiments make.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Minimum sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Maximum sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q` in `[0, 1]` via intra-bucket interpolation.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * (self.count as f64 - 1.0);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let lo_rank = seen as f64;
            let hi_rank = (seen + n) as f64 - 1.0;
            if target <= hi_rank {
                let (lo, hi) = bucket_bounds(i);
                if hi_rank == lo_rank {
                    return (lo + hi) / 2.0;
                }
                let frac = (target - lo_rank) / (hi_rank - lo_rank);
                return lo + frac * (hi - lo);
            }
            seen += n;
        }
        self.max as f64
    }

    /// Median (50th percentile).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[inline]
fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        (0.0, 0.0)
    } else {
        (2f64.powi(i as i32 - 1), 2f64.powi(i as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_min_max() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 22.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_bracket_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50();
        // Bucketed estimate: must land within a factor of 2 of the truth.
        assert!((250.0..=1000.0).contains(&p50), "p50={p50}");
        let p99 = h.p99();
        assert!((512.0..=1024.0).contains(&p99), "p99={p99}");
        assert!(h.p95() <= p99 + 1e-9);
    }

    #[test]
    fn zero_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(1.0), 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 30);
        assert!((a.mean() - 20.0).abs() < 1e-12);
    }
}
