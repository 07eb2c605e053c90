//! Streaming sample statistics (Welford's online algorithm).

use serde::{Deserialize, Serialize};

/// Online accumulator of count / sum / min / max / mean / variance for a
/// stream of `f64` samples. O(1) memory; numerically stable mean/variance via
/// Welford's method; mergeable via the parallel-variance formula (Chan et al.).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamStats {
    n: u64,
    mean: f64,
    m2: f64,
    sum: f64,
    min: f64,
    max: f64,
}

impl StreamStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            if x < self.min {
                self.min = x;
            }
            if x > self.max {
                self.max = x;
            }
        }
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of samples (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Minimum sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Population variance (0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &StreamStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.mean += delta * n2 / n;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn empty_is_zeroes() {
        let s = StreamStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn basic_moments() {
        let mut s = StreamStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!(approx(s.mean(), 5.0));
        assert!(approx(s.variance(), 4.0));
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!(approx(s.sum(), 40.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = StreamStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = StreamStats::new();
        let mut right = StreamStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!(approx(left.mean(), whole.mean()));
        assert!(approx(left.variance(), whole.variance()));
        assert!(approx(left.min(), whole.min()));
        assert!(approx(left.max(), whole.max()));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = StreamStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a.clone();
        a.merge(&StreamStats::new());
        assert!(approx(a.mean(), before.mean()));
        let mut e = StreamStats::new();
        e.merge(&before);
        assert!(approx(e.mean(), before.mean()));
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn single_sample() {
        let mut s = StreamStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.variance(), 0.0);
    }
}
