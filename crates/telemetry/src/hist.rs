//! Mergeable log-linear (HDR-style) histograms over `u64` values.
//!
//! The registry's tail streams keep one [`Histogram`] each: exact per-bucket
//! counts, so:
//!
//! * any quantile (p50/p99/p999/max) is available after the fact;
//! * merging is exact: bucket counts add, so `merge` is associative and
//!   commutative and a merged histogram equals the histogram of the
//!   concatenated sample multiset (the property the threaded transport's
//!   per-thread metrics rely on);
//! * the value error is *bounded by construction*: every bucket spans at
//!   most a `1/2^grouping` relative range.
//!
//! ## Bucketing scheme
//!
//! With grouping `g` (default [`DEFAULT_GROUPING`] = 7) each power-of-two
//! octave is split into `2^g` linear sub-buckets:
//!
//! * values below `2^g` get one bucket each (the linear region — **exact**);
//! * a value `v ≥ 2^g` with top bit `b` lands in bucket
//!   `(b - g) * 2^g + (v >> (b - g))`, whose width is `2^(b-g)` —
//!   at most `v / 2^g`, hence the `2^-g` relative error bound.
//!
//! Bucket indices fit in `u32` for the whole `u64` range; storage is a
//! sparse `BTreeMap` so iteration (and serialization) is in deterministic
//! index order.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default sub-bucket bits: 128 sub-buckets per octave, ≤ 1/128 (< 0.8 %)
/// relative quantile error.
pub const DEFAULT_GROUPING: u32 = 7;

/// Exact, mergeable log-linear histogram of `u64` values (see module docs
/// for the bucketing scheme). Construct with [`Histogram::new`] or
/// `Histogram::default()`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Sub-bucket bits `g`: each octave is split into `2^g` linear buckets.
    grouping: u32,
    /// Sparse bucket counts, keyed by bucket index.
    buckets: BTreeMap<u32, u64>,
    /// Total recorded samples.
    count: u64,
    /// Saturating sum of recorded values (exact, not bucketed).
    sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    min: u64,
    /// Largest recorded value (0 when empty).
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(DEFAULT_GROUPING)
    }
}

impl Histogram {
    /// Empty histogram with `2^grouping` sub-buckets per octave. `grouping`
    /// is clamped to `[1, 16]` (beyond 16 the bucket table stops paying for
    /// itself).
    pub fn new(grouping: u32) -> Self {
        let grouping = grouping.clamp(1, 16);
        Histogram { grouping, buckets: BTreeMap::new(), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// The sub-bucket bits this histogram was built with.
    pub fn grouping(&self) -> u32 {
        self.grouping
    }

    /// Upper bound on the relative quantile error: `2^-grouping`.
    pub fn rel_error(&self) -> f64 {
        1.0 / (1u64 << self.grouping) as f64
    }

    /// Bucket index for `v` (see module docs).
    fn index_of(&self, v: u64) -> u32 {
        let g = self.grouping;
        if v < (1u64 << g) {
            v as u32
        } else {
            let top = 63 - v.leading_zeros(); // top >= g
            let shift = top - g;
            (shift << g) + (v >> shift) as u32
        }
    }

    /// Smallest value mapping to bucket `idx`. A bucket `idx >= 2^g`
    /// decodes to mantissa `(idx mod 2^g) + 2^g` shifted by
    /// `(idx >> g) - 1` (the `index_of` encoding run backwards).
    fn bucket_lower(&self, idx: u32) -> u64 {
        let g = self.grouping;
        let sub = 1u32 << g;
        if idx < sub {
            u64::from(idx)
        } else {
            let shift = (idx >> g) - 1;
            u64::from((idx & (sub - 1)) + sub) << shift
        }
    }

    /// Largest value mapping to bucket `idx` (`lower + width - 1`, computed
    /// without overflowing at the top octave).
    fn bucket_upper(&self, idx: u32) -> u64 {
        let g = self.grouping;
        let sub = 1u32 << g;
        if idx < sub {
            u64::from(idx)
        } else {
            let shift = (idx >> g) - 1;
            self.bucket_lower(idx) + ((1u64 << shift) - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.buckets.entry(self.index_of(v)).or_insert(0) += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merge `other` into `self`: bucket counts add, so the result is the
    /// histogram of the concatenated sample multiset. Associative and
    /// commutative. Panics on grouping mismatch — the registry always
    /// builds histograms with one grouping, so a mismatch is a wiring bug.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.grouping, other.grouping, "histogram grouping mismatch");
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Bucket-wise difference `self - earlier`, for turning two cumulative
    /// snapshots into a per-window histogram. `earlier` must be a prefix of
    /// `self` (same grouping, counts monotone); `min`/`max` of the delta are
    /// re-derived from the surviving buckets' bounds (exact in the linear
    /// region, bucket-resolution above it).
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        assert_eq!(self.grouping, earlier.grouping, "histogram grouping mismatch");
        let mut out = Histogram::new(self.grouping);
        for (&idx, &n) in &self.buckets {
            let prev = earlier.buckets.get(&idx).copied().unwrap_or(0);
            if n > prev {
                out.buckets.insert(idx, n - prev);
            }
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        if let (Some(&first), Some(&last)) =
            (out.buckets.keys().next(), out.buckets.keys().next_back())
        {
            // Clamp by the cumulative extremes (tracked exactly): the delta
            // containing the global min/max then reports it exactly, so
            // merging all window deltas reproduces the cumulative
            // histogram's min, max, and therefore every quantile.
            out.min = out.bucket_lower(first).max(self.min);
            out.max = out.bucket_upper(last).min(self.max);
        }
        out
    }

    /// Value at quantile `q` ∈ [0, 1]: the upper bound of the bucket holding
    /// the sample of rank `ceil(q · count)`. Exact for values below `2^g`;
    /// within `2^-g` relative error above. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count) without float edge cases, clamped to [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // The extreme buckets are pinned to the recorded extremes,
                // which are tracked exactly.
                let hi = self.bucket_upper(idx).min(self.max);
                return Some(hi.max(self.min));
            }
        }
        Some(self.max)
    }

    /// Iterate non-empty buckets as `(lower, upper, count)`, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets.iter().map(|(&idx, &n)| (self.bucket_lower(idx), self.bucket_upper(idx), n))
    }
}

/// Seconds → nanosecond ticks for recording `f64` latencies into a
/// [`Histogram`] (negatives clamp to zero; deterministic IEEE rounding).
pub fn secs_to_ns(s: f64) -> u64 {
    // NaN and negatives both clamp to zero ticks.
    if s > 0.0 {
        (s * 1e9).round() as u64
    } else {
        0
    }
}

/// Nanosecond ticks → seconds, the inverse view for reports.
pub fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        let mut h = Histogram::default();
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(49)); // rank 50 (1-based) = value 49
        assert_eq!(h.quantile(1.0), Some(99));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(99));
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = Histogram::default();
        for i in 1..=10_000u64 {
            h.record(i * 1_000); // 1k .. 10M
        }
        for &(q, exact) in &[(0.5, 5_000_000.0), (0.99, 9_900_000.0), (0.999, 9_990_000.0)] {
            let est = h.quantile(q).unwrap() as f64;
            let rel = (est - exact).abs() / exact;
            assert!(rel <= h.rel_error() + 1e-4, "q={q}: est {est} vs {exact} (rel {rel})");
        }
    }

    #[test]
    fn index_bounds_are_consistent() {
        let h = Histogram::new(5);
        for v in [0, 1, 31, 32, 33, 1000, u64::MAX / 2, u64::MAX] {
            let idx = h.index_of(v);
            assert!(h.bucket_lower(idx) <= v, "lower({idx}) > {v}");
            assert!(v <= h.bucket_upper(idx), "{v} > upper({idx})");
            if idx > 0 {
                assert_eq!(h.bucket_upper(idx - 1) + 1, h.bucket_lower(idx), "contiguous at {idx}");
            }
        }
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut all = Histogram::default();
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for i in 0..500u64 {
            let v = i * i % 7919;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn diff_recovers_window_counts() {
        let mut h = Histogram::default();
        h.record(10);
        h.record(20);
        let snap = h.clone();
        h.record(30);
        h.record(30);
        let d = h.diff(&snap);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 60);
        assert_eq!(d.quantile(1.0), Some(30));
        // Empty delta for identical snapshots.
        assert!(h.diff(&h).is_empty());
    }

    #[test]
    fn secs_round_trip() {
        assert_eq!(secs_to_ns(0.0015), 1_500_000);
        assert_eq!(secs_to_ns(-1.0), 0);
        assert!((ns_to_secs(1_500_000) - 0.0015).abs() < 1e-12);
    }

    #[test]
    fn serde_round_trips() {
        let mut h = Histogram::default();
        for v in [1u64, 5, 1000, 123_456_789] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
