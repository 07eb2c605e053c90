//! Virtual-time telemetry scraper: turns the cumulative metrics registry
//! into a byte-deterministic windowed time series.
//!
//! A [`TelemetryActor`] ticks itself every [`crate::config::TelemetryCfg`]
//! window of *virtual* time. Each tick scrapes the engine's metrics
//! registry — counters, gauges, and the exact tail histograms — into a
//! [`telemetry::SeriesBuilder`], which diffs cumulative state into
//! per-window activity. Because the tick instants, the registry contents,
//! and the scrape order (name-ordered `BTreeMap` iteration) are all
//! functions of the seed, the same seed always yields the same series,
//! byte for byte.
//!
//! The actor is observational only: it never touches the RNG, sends
//! nothing to other actors, and stops rescheduling once the engine is
//! stopping, so a telemetry-on run produces the same simulated outcome as
//! the same run without telemetry (only the dispatch count differs — the
//! ticks themselves are events).

use crate::config::TelemetryCfg;
use sim_core::engine::{Actor, Ctx, Event};
use sim_core::metrics::Metrics;
use sim_core::time::SimTime;
use telemetry::{Series, SeriesBuilder};

/// The scraper's self-rescheduling tick.
pub struct Tick;

/// The scraper actor. Register it last so the component/server actor-id
/// layout other subsystems depend on is untouched.
pub struct TelemetryActor {
    window: SimTime,
    builder: Option<SeriesBuilder>,
}

impl TelemetryActor {
    /// Scraper for `cfg` (validated upstream).
    pub fn new(cfg: &TelemetryCfg) -> TelemetryActor {
        TelemetryActor {
            window: cfg.window,
            builder: Some(SeriesBuilder::new(cfg.window.0.max(1))),
        }
    }

    /// Scrape the cumulative registry into one closed window ending at
    /// `end_ns`.
    fn scrape(builder: &mut SeriesBuilder, end_ns: u64, m: &Metrics) {
        builder.begin_window(end_ns);
        for (name, v) in m.counters() {
            builder.feed_counter(name, v);
        }
        for (name, g) in m.gauges() {
            builder.feed_gauge(name, g.value);
        }
        for (name, h) in m.tails() {
            builder.feed_hist(name, h);
        }
        builder.close_window();
    }

    /// Flush the final (usually partial) window at `end_ns` and hand back
    /// the finished series. Called once from harvest.
    pub fn harvest(&mut self, end_ns: u64, m: &Metrics) -> Series {
        let mut builder = self.builder.take().expect("telemetry harvested once");
        if builder.last_window().is_none_or(|w| w.end_ns < end_ns) {
            Self::scrape(&mut builder, end_ns, m);
        }
        builder.finish()
    }
}

impl Actor for TelemetryActor {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if !ev.is::<Tick>() {
            return;
        }
        if let Some(builder) = self.builder.as_mut() {
            Self::scrape(builder, ctx.now().0, ctx.metrics());
        }
        if !ctx.stopping() {
            ctx.timer(self.window, Tick);
        }
    }

    fn name(&self) -> &str {
        "telemetry-scraper"
    }
}
