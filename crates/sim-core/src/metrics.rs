//! A tiny named-metric registry used by every simulated subsystem.
//!
//! Three metric kinds are enough for the reproduction:
//!
//! * **counters** — monotonically increasing `u64` (bytes written, puts served,
//!   rollbacks performed, ...);
//! * **gauges** — instantaneous `i64` values with peak tracking (staging
//!   memory in use, queue depth, ...);
//! * **streams** — [`StreamStats`] accumulators over `f64` samples (write
//!   response times, recovery latencies, ...).
//!
//! Names are plain strings; subsystems namespace themselves by convention
//! (`"staging.put_bytes"`, `"wfcr.replayed_events"`). A name is how a metric
//! is found, iterated and exported; a call site that writes on every message
//! resolves the name once into a handle ([`CounterId`], [`GaugeId`],
//! [`TailId`]) and writes through that — an index, no search, no allocation.

use crate::quantile::P2Quantile;
use crate::stats::StreamStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use telemetry::hist::{ns_to_secs, secs_to_ns};
use telemetry::Histogram;

/// Gauge state: current value plus high-water marks.
///
/// A gauge updated in one registry has `peak == peak_upper` (the exact
/// high-water mark). The two diverge only after [`Metrics::merge`]: per-part
/// peaks need not coincide in time, so the true combined high-water mark is
/// only *bounded* — `peak` is the largest value provably reached (lower
/// bound), `peak_upper` the sum of part peaks (upper bound, reached only if
/// every part peaked simultaneously). Report whichever bound is conservative
/// for the question asked; capacity planning wants `peak_upper`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge {
    /// Current value.
    pub value: i64,
    /// High-water mark: exact for an unmerged gauge, the provable lower
    /// bound after merging.
    pub peak: i64,
    /// Upper bound on the combined high-water mark after merging (sum of
    /// part peaks); equals `peak` for an unmerged gauge.
    pub peak_upper: i64,
}

/// Handle of a counter, from [`Metrics::counter_id`]. Like every handle it
/// means something only to the registry that issued it and to that
/// registry's clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a gauge, from [`Metrics::gauge_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle of a tail-tracked stream, from [`Metrics::tail_id`]: the stream
/// and its tail trackers, which [`Metrics::observe_tail`] writes together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailId {
    stream: usize,
    tail: usize,
}

/// The tail trackers of one stream.
#[derive(Debug, Clone)]
struct Tail {
    /// Exact log-linear histogram (nanosecond ticks): the authoritative
    /// source for p50/p99/p999, mergeable without loss.
    hist: Histogram,
    /// Legacy P² estimator, kept as a cross-check oracle for the exact
    /// histogram (five markers, unmergeable, no error bound).
    p2: P2Quantile,
}

impl Default for Tail {
    fn default() -> Self {
        Tail { hist: Histogram::default(), p2: P2Quantile::new(0.99) }
    }
}

/// The metrics of one kind: values in creation order, so a handle is an
/// index, behind a name index that keeps every iteration in name order.
#[derive(Debug, Clone, Default)]
struct Table<T> {
    index: BTreeMap<String, usize>,
    slots: Vec<T>,
}

impl<T: Default> Table<T> {
    /// The slot of `name`, created at the default value when the name is
    /// new — the only place a name is allocated.
    fn slot(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.index.get(name) {
            return slot;
        }
        self.slots.push(T::default());
        self.index.insert(name.to_owned(), self.slots.len() - 1);
        self.slots.len() - 1
    }

    /// The value of `name`, created at the default when the name is new.
    fn entry(&mut self, name: &str) -> &mut T {
        let slot = self.slot(name);
        &mut self.slots[slot]
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.index.get(name).map(|&slot| &self.slots[slot])
    }

    /// Entries in name order.
    fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.index.iter().map(|(name, &slot)| (name.as_str(), &self.slots[slot]))
    }
}

/// Registry of named counters, gauges and sample streams.
///
/// Every iterator (and thus any report built from one) runs in name order,
/// whatever order the metrics were created in.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    counters: Table<u64>,
    gauges: Table<Gauge>,
    streams: Table<StreamStats>,
    /// Present for the streams written through [`Metrics::observe_tail`].
    tails: Table<Tail>,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle of counter `name`, creating it at zero — exactly what the
    /// first [`Metrics::inc`] of that name does.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        CounterId(self.counters.slot(name))
    }

    /// Add `delta` to a counter by handle.
    #[inline]
    pub fn inc_id(&mut self, id: CounterId, delta: u64) {
        self.counters.slots[id.0] += delta;
    }

    /// Add `delta` to the counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, delta: u64) {
        let id = self.counter_id(name);
        self.inc_id(id, delta);
    }

    /// Read a counter (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The handle of gauge `name`, creating it at zero — exactly what the
    /// first [`Metrics::gauge_set`] or [`Metrics::gauge_add`] of that name
    /// does before it writes.
    pub fn gauge_id(&mut self, name: &str) -> GaugeId {
        GaugeId(self.gauges.slot(name))
    }

    /// Set a gauge to an absolute value by handle, tracking the peak.
    #[inline]
    pub fn gauge_set_id(&mut self, id: GaugeId, value: i64) {
        let g = &mut self.gauges.slots[id.0];
        g.value = value;
        if g.value > g.peak {
            g.peak = g.value;
        }
        g.peak_upper = g.peak_upper.max(g.peak);
    }

    /// Adjust a gauge by `delta`, tracking the peak.
    pub fn gauge_add(&mut self, name: &str, delta: i64) {
        let id = self.gauge_id(name);
        self.gauge_set_id(id, self.gauges.slots[id.0].value + delta);
    }

    /// Set a gauge to an absolute value, tracking the peak.
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        let id = self.gauge_id(name);
        self.gauge_set_id(id, value);
    }

    /// Read a gauge (default zero).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges.get(name).copied().unwrap_or_default()
    }

    /// Record an `f64` sample into the stream `name`.
    pub fn observe(&mut self, name: &str, sample: f64) {
        self.streams.entry(name).push(sample);
    }

    /// Read a stream's statistics (empty stats if never written).
    pub fn stream(&self, name: &str) -> StreamStats {
        self.streams.get(name).cloned().unwrap_or_default()
    }

    /// The handle of the tail-tracked stream `name`, creating the stream
    /// and its tail trackers empty — exactly what the first
    /// [`Metrics::observe_tail`] of that name does before it records.
    pub fn tail_id(&mut self, name: &str) -> TailId {
        TailId { stream: self.streams.slot(name), tail: self.tails.slot(name) }
    }

    /// Record a sample into a stream and its tail trackers by handle.
    #[inline]
    pub fn observe_tail_id(&mut self, id: TailId, sample: f64) {
        self.streams.slots[id.stream].push(sample);
        let tail = &mut self.tails.slots[id.tail];
        tail.hist.record(secs_to_ns(sample));
        tail.p2.push(sample);
    }

    /// Record a sample into the stream `name` *and* its tail trackers — use
    /// for latency-style streams whose tail matters. The sample (seconds)
    /// lands in an exact log-linear [`Histogram`] (nanosecond ticks, the
    /// authoritative quantile source) and in the legacy P² estimator kept
    /// as a cross-check oracle.
    pub fn observe_tail(&mut self, name: &str, sample: f64) {
        let id = self.tail_id(name);
        self.observe_tail_id(id, sample);
    }

    /// Exact quantile `q` (seconds) of a stream recorded via
    /// [`Metrics::observe_tail`] — bucket-resolution exact, within the
    /// histogram's `2^-g` relative error bound. `None` if never recorded
    /// that way.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.tail_hist(name).and_then(|h| h.quantile(q)).map(ns_to_secs)
    }

    /// The exact p99 (seconds) for a stream recorded via
    /// [`Metrics::observe_tail`] (`None` if never recorded that way).
    pub fn p99(&self, name: &str) -> Option<f64> {
        self.quantile(name, 0.99)
    }

    /// The legacy P² p99 *estimate* for a stream — the cross-check oracle
    /// the exact histogram replaced. Unmergeable and unbounded-error; kept
    /// only so tests can assert the two sources agree.
    pub fn p99_oracle(&self, name: &str) -> Option<f64> {
        self.tails.get(name).and_then(|t| t.p2.estimate())
    }

    /// The exact tail histogram for a stream (`None` if never recorded via
    /// [`Metrics::observe_tail`]). Values are nanosecond ticks.
    pub fn tail_hist(&self, name: &str) -> Option<&Histogram> {
        self.tails.get(name).map(|t| &t.hist)
    }

    /// Iterate tail histograms in name order (the windowed scraper feeds
    /// these into the time series).
    pub fn tails(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.tails.iter().map(|(k, t)| (k, &t.hist))
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// Iterate gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, Gauge)> {
        self.gauges.iter().map(|(k, v)| (k, *v))
    }

    /// Iterate streams in name order.
    pub fn streams(&self) -> impl Iterator<Item = (&str, &StreamStats)> {
        self.streams.iter()
    }

    /// Merge another registry into this one (counters add, streams merge).
    /// Used to aggregate per-thread metrics from the threaded transport.
    /// Entries are matched by name: the other registry's handles mean
    /// nothing to this one, before or after the merge.
    ///
    /// Gauge semantics: values add. The true combined high-water mark is
    /// unknowable from two independently-tracked peaks — the parts need not
    /// have peaked at the same instant — so the merge keeps *both bounds*:
    /// `peak` becomes the provable lower bound (the largest single observed
    /// value, including the summed current value), and `peak_upper` becomes
    /// the sum of part peaks (the value reached if every part peaked
    /// simultaneously). A merged gauge therefore satisfies
    /// `peak <= true high-water mark <= peak_upper`.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in other.counters.iter() {
            self.inc(k, *v);
        }
        for (k, g) in other.gauges.iter() {
            let mine = self.gauges.entry(k);
            // Sum the upper bounds *before* clobbering peaks: an unmerged
            // gauge carries peak_upper == peak.
            mine.peak_upper += g.peak_upper;
            mine.value += g.value;
            mine.peak = mine.peak.max(g.peak).max(mine.value);
            mine.peak_upper = mine.peak_upper.max(mine.peak);
        }
        for (k, s) in other.streams.iter() {
            self.streams.entry(k).merge(s);
        }
        for (k, t) in other.tails.iter() {
            let mine = self.tails.entry(k);
            // Exact histograms merge losslessly: bucket counts add, so the
            // merged quantiles equal those of the concatenated sample set.
            mine.hist.merge(&t.hist);
            // P² estimators cannot be merged exactly; keep whichever side
            // saw more samples (diagnostic fidelity only — the histogram
            // above is the authoritative tail source).
            if mine.p2.count() < t.p2.count() {
                mine.p2 = t.p2.clone();
            }
        }
    }

    /// A serializable snapshot of the whole registry, entries in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters()
                .map(|(k, value)| CounterEntry { name: k.to_owned(), value })
                .collect(),
            gauges: self
                .gauges()
                .map(|(k, g)| GaugeEntry {
                    name: k.to_owned(),
                    value: g.value,
                    peak: g.peak,
                    peak_upper: g.peak_upper,
                })
                .collect(),
            streams: self
                .streams()
                .map(|(k, s)| StreamEntry {
                    name: k.to_owned(),
                    count: s.count(),
                    mean: s.mean(),
                    min: s.min(),
                    max: s.max(),
                    p50: self.quantile(k, 0.50),
                    p99: self.p99(k),
                    p999: self.quantile(k, 0.999),
                    p99_p2: self.p99_oracle(k),
                })
                .collect(),
        }
    }
}

/// One counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// One gauge in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Metric name.
    pub name: String,
    /// Final value.
    pub value: i64,
    /// High-water mark (lower bound after merges — see [`Gauge`]).
    pub peak: i64,
    /// High-water upper bound after merges (see [`Gauge`]).
    pub peak_upper: i64,
}

/// One sample stream in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamEntry {
    /// Metric name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Exact median (seconds), when recorded via
    /// [`Metrics::observe_tail`].
    #[serde(default)]
    pub p50: Option<f64>,
    /// Exact p99 (seconds), when recorded via [`Metrics::observe_tail`].
    /// Sourced from the log-linear histogram (bounded-error), not the old
    /// P² markers.
    pub p99: Option<f64>,
    /// Exact p999 (seconds), when recorded via [`Metrics::observe_tail`].
    #[serde(default)]
    pub p999: Option<f64>,
    /// Legacy P² p99 estimate, kept as a cross-check oracle for `p99`.
    #[serde(default)]
    pub p99_p2: Option<f64>,
}

/// Serializable snapshot of a [`Metrics`] registry: what reports embed and
/// tools consume. Entry order is name order, so two snapshots of identical
/// registries are byte-identical when serialized.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counters, in name order.
    pub counters: Vec<CounterEntry>,
    /// Gauges, in name order.
    pub gauges: Vec<GaugeEntry>,
    /// Sample streams, in name order.
    pub streams: Vec<StreamEntry>,
}

impl MetricsSnapshot {
    /// Look up a counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
    }

    /// Look up a gauge entry.
    pub fn gauge(&self, name: &str) -> Option<&GaugeEntry> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Look up a stream entry.
    pub fn stream(&self, name: &str) -> Option<&StreamEntry> {
        self.streams.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.inc("a", 2);
        m.inc("a", 3);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauge_tracks_peak() {
        let mut m = Metrics::new();
        m.gauge_add("mem", 10);
        m.gauge_add("mem", 5);
        m.gauge_add("mem", -12);
        let g = m.gauge("mem");
        assert_eq!(g.value, 3);
        assert_eq!(g.peak, 15);
    }

    #[test]
    fn gauge_set_tracks_peak() {
        let mut m = Metrics::new();
        m.gauge_set("q", 4);
        m.gauge_set("q", 9);
        m.gauge_set("q", 1);
        assert_eq!(m.gauge("q").value, 1);
        assert_eq!(m.gauge("q").peak, 9);
    }

    #[test]
    fn handle_of_a_fresh_name_creates_the_zero_entry() {
        let mut m = Metrics::new();
        let q = m.gauge_id("q");
        assert_eq!(m.gauges().collect::<Vec<_>>(), [("q", Gauge::default())]);
        m.gauge_set_id(q, 4);
        m.gauge_set("q", 2);
        assert_eq!(m.gauge_id("q"), q, "an existing name is found, not created again");
        assert_eq!(m.gauge("q"), Gauge { value: 2, peak: 4, peak_upper: 4 });
    }

    #[test]
    fn streams_observe() {
        let mut m = Metrics::new();
        m.observe("lat", 1.0);
        m.observe("lat", 3.0);
        let s = m.stream("lat");
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines() {
        let mut a = Metrics::new();
        a.inc("c", 1);
        a.gauge_add("g", 5);
        a.observe("s", 1.0);
        let mut b = Metrics::new();
        b.inc("c", 2);
        b.gauge_add("g", 7);
        b.observe("s", 3.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g").value, 12);
        assert_eq!(a.gauge("g").peak, 12);
        assert_eq!(a.stream("s").count(), 2);
    }

    #[test]
    fn merge_tracks_both_peak_bounds() {
        // Two threads that each rose to 10 and fell back to 2: the combined
        // high-water mark is somewhere in [10, 20] depending on overlap.
        let mut a = Metrics::new();
        a.gauge_add("mem", 10);
        a.gauge_add("mem", -8);
        let mut b = Metrics::new();
        b.gauge_add("mem", 10);
        b.gauge_add("mem", -8);
        a.merge(&b);
        let g = a.gauge("mem");
        assert_eq!(g.value, 4);
        assert_eq!(g.peak, 10, "provable lower bound");
        assert_eq!(g.peak_upper, 20, "simultaneous-peak upper bound");
        // Merging a third part keeps accumulating the upper bound.
        let mut c = Metrics::new();
        c.gauge_add("mem", 5);
        a.merge(&c);
        assert_eq!(a.gauge("mem").peak_upper, 25);
        assert_eq!(a.gauge("mem").peak, 10);
    }

    #[test]
    fn unmerged_gauge_bounds_coincide() {
        let mut m = Metrics::new();
        m.gauge_add("q", 7);
        m.gauge_add("q", -3);
        m.gauge_set("q", 9);
        let g = m.gauge("q");
        assert_eq!(g.peak, 9);
        assert_eq!(g.peak_upper, 9);
    }

    #[test]
    fn snapshot_round_trips_and_indexes() {
        let mut m = Metrics::new();
        m.inc("puts", 3);
        m.gauge_add("mem", 11);
        m.observe_tail("lat", 2.0);
        m.observe_tail("lat", 4.0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("puts"), 3);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("mem").unwrap().peak, 11);
        let s = snap.stream("lat").unwrap();
        assert_eq!(s.count, 2);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!(s.p99.is_some());
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn observe_tail_tracks_exact_quantiles() {
        let mut m = Metrics::new();
        for i in 1..=1_000 {
            m.observe_tail("lat", i as f64 * 1e-3); // 1ms .. 1s
        }
        assert_eq!(m.stream("lat").count(), 1_000);
        let p99 = m.p99("lat").unwrap();
        let rel = (p99 - 0.990).abs() / 0.990;
        assert!(rel < 0.01, "p99 {p99} must be within the histogram error bound");
        let p50 = m.quantile("lat", 0.50).unwrap();
        assert!((p50 - 0.500).abs() / 0.500 < 0.01, "p50 {p50}");
        let p999 = m.quantile("lat", 0.999).unwrap();
        assert!((p999 - 0.999).abs() / 0.999 < 0.01, "p999 {p999}");
        // The P² oracle agrees with the exact histogram on this smooth
        // stream (cross-check, not authority).
        let oracle = m.p99_oracle("lat").unwrap();
        assert!((oracle - p99).abs() / p99 < 0.05, "oracle {oracle} vs exact {p99}");
        assert_eq!(m.p99("missing"), None);
        // Plain observe creates neither histogram nor estimator.
        m.observe("plain", 1.0);
        assert_eq!(m.p99("plain"), None);
        assert!(m.tail_hist("plain").is_none());
    }

    #[test]
    fn merge_is_exact_for_tail_histograms() {
        let mut a = Metrics::new();
        let mut whole = Metrics::new();
        for i in 0..10 {
            a.observe_tail("x", i as f64);
            whole.observe_tail("x", i as f64);
        }
        let mut b = Metrics::new();
        for i in 0..100 {
            b.observe_tail("x", (i * 2) as f64);
            whole.observe_tail("x", (i * 2) as f64);
        }
        a.merge(&b);
        // The merged histogram equals the histogram of all samples — the
        // old P² merge could only keep one side.
        assert_eq!(a.tail_hist("x"), whole.tail_hist("x"));
        assert_eq!(a.p99("x"), whole.p99("x"));
        assert!(a.p99("x").unwrap() > 100.0);
        // The oracle keeps whichever side saw more samples (b).
        assert!(a.p99_oracle("x").unwrap() > 100.0);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = Metrics::new();
        m.inc("zeta", 1);
        m.inc("alpha", 1);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
