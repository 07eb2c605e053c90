//! Telemetry guarantees: exact histograms, deterministic windowed series,
//! SLO breach detection, and scraper inertness.
//!
//! Four claims are checked here, next to `tests/observability.rs`'s trace
//! determinism suite:
//!
//! 1. **Exactness** — the mergeable log-linear histogram is associative and
//!    commutative under merge (property-tested), and its p99 is the
//!    nearest-rank p99 of the recorded samples, within the histogram's
//!    relative error bound.
//! 2. **Byte-determinism** — two same-seed telemetry-on runs export
//!    byte-identical JSONL and OpenMetrics series.
//! 3. **SLO evaluation** — a seeded violation scenario fails `slo-check`
//!    semantics and lands a `slo.breach` instant in the obs trace at the
//!    breaching window close.
//! 4. **Inertness** — the scraper must not perturb the simulated outcome:
//!    telemetry-on and telemetry-off runs agree on every
//!    consistency-relevant output.

use proptest::prelude::*;
use sim_core::metrics::Metrics;
use sim_core::time::SimTime;
use telemetry::{export, Histogram, Objective, SloCfg, SloEval, Target};
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, FailureSpec, SupervisionCfg, TraceCfg, WorkflowConfig};
use workflow::runner::{run, run_traced};
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
        assert_eq!(on.puts, off.puts, "{}", cfg.label);
        assert_eq!(on.gets, off.gets, "{}", cfg.label);
        assert_eq!(on.recoveries, off.recoveries, "{}", cfg.label);
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

#[test]
fn seeded_slo_violation_breaches_and_lands_in_the_trace() {
    // An objective no run can hold: sub-nanosecond p99 on the put path,
    // zero tolerance for violating windows.
    let slo = SloCfg {
        objectives: vec![Objective {
            name: "put-p99".into(),
            target: Target::Quantile { metric: "wf.put_response_s".into(), q: 0.99, max_s: 1e-9 },
            budget: 0.01,
            burn_windows: 1,
        }],
    };
    let cfg = tiny(WorkflowProtocol::Uncoordinated)
        .with_telemetry(telemetry_cfg().with_slo(slo.clone()))
        .with_tracing(TraceCfg::full());
    let (report, trace) = run_traced(&cfg);
    let slo_report = report.slo.expect("SLO report attached");
    assert!(!slo_report.ok(), "impossible objective breaches");
    let breaches = slo_report.breaches();
    assert!(!breaches.is_empty());

    // Offline replay over the exported series produces the same breaches —
    // the `wf-metrics slo-check` contract.
    let series = report.series.expect("series");
    let offline = SloEval::evaluate(&slo, &series);
    assert_eq!(offline, slo_report, "online and offline evaluation agree");

    // The breach instant sits in the obs trace at the window close.
    let instants: Vec<_> = trace
        .records
        .iter()
        .filter(|r| r.k == obs::RecordKind::Instant && r.name == "slo.breach")
        .collect();
    assert_eq!(instants.len(), breaches.len(), "one instant per breach");
    assert_eq!(instants[0].t, breaches[0].at_ns, "instant lands at the breaching close");
    assert!(
        instants[0].args.iter().any(|a| a.k == "objective" && a.v == "put-p99"),
        "instant names the objective"
    );

    // An honest objective on the same run holds.
    let ok_slo = SloCfg {
        objectives: vec![Objective {
            name: "put-p99-lenient".into(),
            target: Target::Quantile { metric: "wf.put_response_s".into(), q: 0.99, max_s: 10.0 },
            budget: 0.5,
            burn_windows: 4,
        }],
    };
    assert!(SloEval::evaluate(&ok_slo, &series).ok(), "lenient objective holds");
}

#[test]
fn supervised_outages_feed_the_mttr_series_and_slo() {
    let cfg =
        failing(1).with_supervision(SupervisionCfg::default()).with_telemetry(telemetry_cfg());
    let report = run(&cfg);
    assert!(report.recoveries > 0, "the failure recovered");
    let series = report.series.expect("series");
    let mttr = series.cumulative_hist("sup.outage_s").expect("outage tail recorded");
    assert!(mttr.count() >= 1, "at least the injected outage");

    // The paper's `recovery.mttr < Y s` SLO form: worst outage under a
    // bound that the observed MTTR satisfies, and one it cannot.
    let objective = |max_s: f64| SloCfg {
        objectives: vec![Objective {
            name: "mttr".into(),
            target: Target::Quantile { metric: "sup.outage_s".into(), q: 1.0, max_s },
            budget: 0.01,
            burn_windows: 1,
        }],
    };
    assert!(SloEval::evaluate(&objective(60.0), &series).ok(), "loose MTTR bound holds");
    assert!(!SloEval::evaluate(&objective(1e-9), &series).ok(), "impossible MTTR bound breaches");
}
