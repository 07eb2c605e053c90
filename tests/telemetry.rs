//! Telemetry guarantees: exact histograms, deterministic windowed series,
//! and scraper inertness.
//!
//! Three claims are checked here, next to `tests/observability.rs`'s trace
//! determinism suite:
//!
//! 1. **Exactness** — the mergeable log-linear histogram is associative and
//!    commutative under merge (property-tested), and its p99 is the
//!    nearest-rank p99 of the recorded samples, within the histogram's
//!    relative error bound.
//! 2. **Byte-determinism** — two same-seed telemetry-on runs export
//!    byte-identical JSONL and OpenMetrics series.
//! 3. **Inertness** — the scraper must not perturb the simulated outcome:
//!    telemetry-on and telemetry-off runs agree on every
//!    consistency-relevant output.

use proptest::prelude::*;
use sim_core::metrics::Metrics;
use sim_core::time::SimTime;
use telemetry::{export, Histogram};
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, FailureSpec, WorkflowConfig};
use workflow::runner::run;
use workflow::TelemetryCfg;

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in values {
        h.record(v);
    }
    h
}

fn telemetry_cfg() -> TelemetryCfg {
    TelemetryCfg::windowed(SimTime::from_millis(250))
}

/// A config whose windowed series has something to say: the logging
/// protocol with one mid-run consumer failure (replayed gets, a recovery).
fn failing(app: u32) -> WorkflowConfig {
    tiny(WorkflowProtocol::Uncoordinated)
        .with_failures(vec![FailureSpec::At { at: SimTime::from_millis(700), app }])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Histogram merge is commutative and associative: any split of a
    /// sample stream merges back to the same histogram, bucket for bucket.
    #[test]
    fn hist_merge_commutes_and_associates(
        a in proptest::collection::vec(0u64..2_000_000, 0..64),
        b in proptest::collection::vec(0u64..2_000_000, 0..64),
        c in proptest::collection::vec(0u64..2_000_000, 0..64),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba, "merge commutes");

        let mut ab_c = ab;
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "merge associates");

        // And the merge equals recording the concatenated stream directly.
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(&ab_c, &hist_of(&all), "merge is lossless");
    }

    /// The p99 `observe_tail` reports is the nearest-rank p99 of the samples
    /// it was fed (rank `ceil(0.99 · n)` of the sorted stream), within the
    /// histogram's relative error bound.
    #[test]
    fn p99_is_the_nearest_rank_of_the_samples(
        base_us in 100u64..10_000,
        spread in 2u64..10,
        n in 400usize..1200,
    ) {
        let mut m = Metrics::default();
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            // Deterministic uniform-ish sweep over [base, spread*base) µs.
            let us = base_us + (i as u64 * 7919) % (base_us * (spread - 1));
            let secs = us as f64 * 1e-6;
            m.observe_tail("lat", secs);
            samples.push(secs);
        }
        samples.sort_by(f64::total_cmp);
        let reference = samples[(n * 99).div_ceil(100) - 1];
        let exact = m.p99("lat").expect("exact p99 exists");
        let bound = m.tail_hist("lat").expect("tail histogram exists").rel_error();
        let rel = (exact - reference).abs() / reference;
        prop_assert!(rel <= bound, "p99 {exact} vs nearest rank {reference}: rel {rel} > {bound}");
    }
}

#[test]
fn same_seed_series_exports_are_byte_identical() {
    let cfg = failing(1).with_telemetry(telemetry_cfg());
    let ra = run(&cfg);
    let rb = run(&cfg);
    let sa = ra.series.expect("telemetry-on run attaches a series");
    let sb = rb.series.expect("telemetry-on run attaches a series");
    assert!(!sa.windows.is_empty(), "scraper closed windows");
    assert_eq!(export::to_jsonl(&sa), export::to_jsonl(&sb), "JSONL export must be byte-identical");
    assert_eq!(
        export::to_openmetrics(&sa),
        export::to_openmetrics(&sb),
        "OpenMetrics export must be byte-identical"
    );
    // The lossless form round-trips.
    let back = export::from_jsonl(&export::to_jsonl(&sa)).expect("parse");
    assert_eq!(back, sa);
}

#[test]
fn telemetry_scraper_is_inert() {
    for cfg in [tiny(WorkflowProtocol::Uncoordinated), failing(0), failing(1)] {
        let off = run(&cfg);
        let on = run(&cfg.with_telemetry(telemetry_cfg()));
        assert_eq!(on.total_time_s, off.total_time_s, "{}", cfg.label);
        assert_eq!(on.puts(), off.puts(), "{}", cfg.label);
        assert_eq!(on.gets(), off.gets(), "{}", cfg.label);
        assert_eq!(on.recoveries(), off.recoveries(), "{}", cfg.label);
        assert_eq!(on.digest_mismatches, off.digest_mismatches, "{}", cfg.label);
        assert_eq!(on.replayed_gets, off.replayed_gets, "{}", cfg.label);
        // Only the scrape ticks themselves may differ.
        assert!(on.events_dispatched >= off.events_dispatched, "{}", cfg.label);
    }
}

#[test]
fn hot_path_gauges_land_in_the_series() {
    let cfg = tiny(WorkflowProtocol::Uncoordinated).with_telemetry(telemetry_cfg());
    let series = run(&cfg).series.expect("series");
    let has_gauge = |name: &str| series.windows.iter().any(|w| w.gauge(name).is_some());
    assert!(has_gauge("staging.server0.get_waits"), "get-wait depth is sampled");
    assert!(has_gauge("staging.server0.log_events"), "live log-event depth is sampled");
    assert!(has_gauge("staging.server0.bytes"), "resident bytes are sampled");
    // The logging backend held live events at some window close.
    let peak_log_events =
        series.gauge_points("staging.server0.log_events").map(|(_, v)| v).max().unwrap_or(0);
    assert!(peak_log_events > 0, "logging run holds live events");
    // And the windowed put-latency decomposition merges back to a
    // cumulative histogram that covers every put the report counted.
    let cum = series.cumulative_hist("wf.put_response_s").expect("put latency histogram");
    assert!(cum.count() > 0);
}

/// `staging.server{i}.qdepth` is set only when a request is enqueued, so
/// it never records the queue draining: every server's gauge ends at 1
/// though every queue is empty when the run completes. This pins the value
/// as it is today; the fix changes `series.jsonl` and goes in its own
/// change, which must turn this into `== 0`.
#[test]
fn qdepth_gauges_end_at_one_on_drained_queues() {
    let cfg = tiny(WorkflowProtocol::Uncoordinated).with_telemetry(TelemetryCfg::default());
    let report = run(&cfg);
    let series = report.series.expect("series");
    for i in 0..cfg.nservers {
        let name = format!("staging.server{i}.qdepth");
        let last = series.gauge_points(&name).last().map(|(_, v)| v);
        assert_eq!(
            last,
            Some(1),
            "{name}: pinned known defect, the gauge is not updated on dequeue; \
             its fix goes in its own change (it changes series.jsonl)"
        );
    }
}

#[test]
fn supervised_outages_feed_the_mttr_series() {
    let cfg = failing(1).with_supervision().with_telemetry(telemetry_cfg());
    let report = run(&cfg);
    assert!(report.recoveries() > 0, "the failure recovered");
    let series = report.series.as_ref().expect("series");
    let mttr = series.cumulative_hist("sup.outage_s").expect("outage tail recorded");
    assert!(mttr.count() >= 1, "at least the injected outage");
    // The series' worst outage is the report's.
    let worst_s = telemetry::ns_to_secs(mttr.max().expect("nonempty"));
    assert!(
        (worst_s - report.mttr_max_s()).abs() < 1e-6,
        "series max {worst_s} vs report {}",
        report.mttr_max_s()
    );
}
