//! Byte-deterministic windowed time series built from periodic scrapes.
//!
//! A scraper (in the workflow crate, driven by virtual-time `Ctx` ticks)
//! feeds the cumulative registry state into a [`SeriesBuilder`] once per
//! window. The builder turns cumulative state into per-window activity:
//!
//! * **counters** → the delta accumulated inside the window;
//! * **gauges** → the value observed at window close (queue depths, bytes
//!   resident);
//! * **histograms** → the bucket-wise [`crate::Histogram::diff`] against
//!   the previous scrape, i.e. the exact latency histogram of samples that
//!   landed inside the window.
//!
//! Windows are aligned to `window_ns` boundaries of the *virtual* clock, so
//! the same seed always yields the same series, byte for byte — the
//! determinism contract `tests/telemetry.rs` locks in. Entries within a
//! window are name-ordered (scrapes feed from `BTreeMap`-backed
//! registries), making serialized output canonical.

use crate::hist::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One closed scrape window: per-window activity, entries in name order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Window {
    /// Window start, virtual nanoseconds (aligned to the window width,
    /// except for a final partial window flushed at run end).
    pub start_ns: u64,
    /// Window end (exclusive), virtual nanoseconds.
    pub end_ns: u64,
    /// Counter deltas accumulated inside the window, name order.
    pub counters: Vec<(String, u64)>,
    /// Gauge values at window close, name order.
    pub gauges: Vec<(String, i64)>,
    /// Per-window latency histograms (samples recorded inside the window),
    /// name order.
    pub hists: Vec<(String, Histogram)>,
}

impl Window {
    /// Counter delta by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// Gauge value at window close.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Per-window histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// A complete run's windowed time series.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Window width, virtual nanoseconds.
    pub window_ns: u64,
    /// Closed windows, ascending by `start_ns`.
    pub windows: Vec<Window>,
}

impl Series {
    /// Iterate `(window, value)` for one counter, in time order.
    pub fn counter_points(&self, name: &str) -> impl Iterator<Item = (u64, u64)> + '_ {
        let name = name.to_owned();
        self.windows.iter().map(move |w| (w.start_ns, w.counter(&name)))
    }

    /// Iterate `(window, value)` for one gauge, in time order (windows
    /// where the gauge was absent are skipped).
    pub fn gauge_points(&self, name: &str) -> impl Iterator<Item = (u64, i64)> + '_ {
        let name = name.to_owned();
        self.windows.iter().filter_map(move |w| w.gauge(&name).map(|v| (w.start_ns, v)))
    }

    /// Merge every per-window histogram of `name` back into one cumulative
    /// histogram — exact, because histogram merge is lossless (the windowed
    /// decomposition loses nothing versus the end-of-run snapshot).
    pub fn cumulative_hist(&self, name: &str) -> Option<Histogram> {
        let mut acc: Option<Histogram> = None;
        for w in &self.windows {
            if let Some(h) = w.hist(name) {
                match &mut acc {
                    Some(a) => a.merge(h),
                    None => acc = Some(h.clone()),
                }
            }
        }
        acc
    }

    /// All counter names that ever appeared, name order.
    pub fn counter_names(&self) -> Vec<String> {
        let mut set: Vec<String> = Vec::new();
        for w in &self.windows {
            for (n, _) in &w.counters {
                if !set.contains(n) {
                    set.push(n.clone());
                }
            }
        }
        set.sort();
        set
    }
}

/// Incremental builder: feed the cumulative registry state once per window;
/// the builder diffs against the previous scrape. Use one builder per run.
#[derive(Debug, Default)]
pub struct SeriesBuilder {
    window_ns: u64,
    prev_counters: BTreeMap<String, u64>,
    prev_hists: BTreeMap<String, Histogram>,
    windows: Vec<Window>,
    /// Scratch for the window being assembled.
    cur: Option<Window>,
}

impl SeriesBuilder {
    /// Builder for `window_ns`-wide windows.
    pub fn new(window_ns: u64) -> Self {
        SeriesBuilder { window_ns: window_ns.max(1), ..Default::default() }
    }

    /// Open the window closing at `end_ns`. Call the `feed_*` methods for
    /// every metric, then [`SeriesBuilder::close_window`].
    pub fn begin_window(&mut self, end_ns: u64) {
        let start_ns = self.windows.last().map_or(0, |w| w.end_ns);
        self.cur = Some(Window { start_ns, end_ns: end_ns.max(start_ns), ..Default::default() });
    }

    /// Feed one cumulative counter; the builder stores the in-window delta.
    pub fn feed_counter(&mut self, name: &str, cumulative: u64) {
        let prev = self.prev_counters.get(name).copied().unwrap_or(0);
        self.prev_counters.insert(name.to_owned(), cumulative);
        if let Some(w) = &mut self.cur {
            w.counters.push((name.to_owned(), cumulative.saturating_sub(prev)));
        }
    }

    /// Feed one gauge value as observed at window close.
    pub fn feed_gauge(&mut self, name: &str, value: i64) {
        if let Some(w) = &mut self.cur {
            w.gauges.push((name.to_owned(), value));
        }
    }

    /// Feed one cumulative histogram; the builder stores the in-window
    /// bucket delta.
    pub fn feed_hist(&mut self, name: &str, cumulative: &Histogram) {
        let delta = match self.prev_hists.get(name) {
            Some(prev) => cumulative.diff(prev),
            None => cumulative.clone(),
        };
        self.prev_hists.insert(name.to_owned(), cumulative.clone());
        if let Some(w) = &mut self.cur {
            w.hists.push((name.to_owned(), delta));
        }
    }

    /// Close the open window.
    pub fn close_window(&mut self) {
        if let Some(w) = self.cur.take() {
            self.windows.push(w);
        }
    }

    /// Number of closed windows so far.
    pub fn closed(&self) -> usize {
        self.windows.len()
    }

    /// The most recently closed window.
    pub fn last_window(&self) -> Option<&Window> {
        self.windows.last()
    }

    /// Finish the series.
    pub fn finish(mut self) -> Series {
        self.close_window();
        Series { window_ns: self.window_ns, windows: self.windows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_become_window_deltas() {
        let mut b = SeriesBuilder::new(1_000);
        b.begin_window(1_000);
        b.feed_counter("puts", 5);
        b.close_window();
        b.begin_window(2_000);
        b.feed_counter("puts", 12);
        b.close_window();
        let s = b.finish();
        let pts: Vec<(u64, u64)> = s.counter_points("puts").collect();
        assert_eq!(pts, vec![(0, 5), (1_000, 7)]);
    }

    #[test]
    fn hist_windows_merge_back_to_cumulative() {
        // Linear-region values (below 2^grouping) keep even the diff's
        // re-derived min/max exact, so windows merge back bit-identically.
        let mut cum = Histogram::default();
        let mut b = SeriesBuilder::new(10);
        for w in 0..4u64 {
            for v in 0..=w {
                cum.record(v);
            }
            b.begin_window((w + 1) * 10);
            b.feed_hist("lat", &cum);
            b.close_window();
        }
        let s = b.finish();
        assert_eq!(s.windows.len(), 4);
        assert_eq!(s.windows[2].hist("lat").unwrap().count(), 3);
        assert_eq!(s.cumulative_hist("lat").unwrap(), cum);
    }

    #[test]
    fn hist_windows_preserve_counts_and_quantiles_beyond_linear_region() {
        // Above the linear region the diff's min/max are bucket-resolution,
        // but counts, sums, and every quantile of the merged windows match
        // the cumulative histogram exactly (bucket counts are lossless).
        let mut cum = Histogram::default();
        let mut b = SeriesBuilder::new(10);
        for w in 0..5u64 {
            for v in 0..=w {
                cum.record((v + 1) * 100_000);
            }
            b.begin_window((w + 1) * 10);
            b.feed_hist("lat", &cum);
            b.close_window();
        }
        let s = b.finish();
        let merged = s.cumulative_hist("lat").unwrap();
        assert_eq!(merged.count(), cum.count());
        assert_eq!(merged.sum(), cum.sum());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), cum.quantile(q), "q={q}");
        }
    }

    #[test]
    fn gauges_record_close_values() {
        let mut b = SeriesBuilder::new(10);
        b.begin_window(10);
        b.feed_gauge("depth", 3);
        b.close_window();
        b.begin_window(20);
        b.feed_gauge("depth", 0);
        b.close_window();
        let s = b.finish();
        let pts: Vec<(u64, i64)> = s.gauge_points("depth").collect();
        assert_eq!(pts, vec![(0, 3), (10, 0)]);
    }

    #[test]
    fn serde_round_trips() {
        let mut b = SeriesBuilder::new(100);
        b.begin_window(100);
        b.feed_counter("c", 1);
        b.feed_gauge("g", -2);
        let mut h = Histogram::default();
        h.record(42);
        b.feed_hist("h", &h);
        b.close_window();
        let s = b.finish();
        let json = serde_json::to_string(&s).unwrap();
        let back: Series = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
