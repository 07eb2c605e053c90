//! The metrics registry against a reference model — one plain map per
//! metric kind, keyed by name: whatever mix of by-name and by-handle writes
//! a run makes, the registry reads back (snapshot and every name-ordered
//! iterator) exactly as the model does.

use proptest::prelude::*;
use sim_core::metrics::{
    CounterEntry, CounterId, Gauge, GaugeEntry, GaugeId, Metrics, MetricsSnapshot, StreamEntry,
    TailId,
};
use sim_core::quantile::P2Quantile;
use sim_core::stats::StreamStats;
use std::collections::BTreeMap;
use telemetry::hist::{ns_to_secs, secs_to_ns};
use telemetry::Histogram;

const NAMES: [&str; 6] = ["a", "wf.puts", "wf.put_response_s", "staging.server0.q", "b", "net"];

#[derive(Debug, Clone, Copy)]
enum Op {
    Inc(u64),
    GaugeSet(i64),
    GaugeAdd(i64),
    Observe(f64),
    ObserveTail(f64),
}

/// A script of writes: which name, what write.
fn script() -> impl Strategy<Value = Vec<(usize, Op)>> {
    let op = prop_oneof![
        (0u64..1000).prop_map(Op::Inc),
        (-50i64..50).prop_map(Op::GaugeSet),
        (-50i64..50).prop_map(Op::GaugeAdd),
        (0.0f64..10.0).prop_map(Op::Observe),
        (0.0f64..10.0).prop_map(Op::ObserveTail),
    ];
    proptest::collection::vec((0..NAMES.len(), op), 0..120)
}

/// The reference: five maps keyed by name, every write a find-or-insert.
#[derive(Default)]
struct Model {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
    streams: BTreeMap<String, StreamStats>,
    tails: BTreeMap<String, Histogram>,
    p99s: BTreeMap<String, P2Quantile>,
}

impl Model {
    fn apply(&mut self, name: &str, op: Op) {
        let bump = |g: &mut Gauge, value: i64| {
            g.value = value;
            g.peak = g.peak.max(value);
            g.peak_upper = g.peak_upper.max(g.peak);
        };
        match op {
            Op::Inc(d) => *self.counters.entry(name.to_owned()).or_default() += d,
            Op::GaugeSet(v) => bump(self.gauges.entry(name.to_owned()).or_default(), v),
            Op::GaugeAdd(d) => {
                let g = self.gauges.entry(name.to_owned()).or_default();
                bump(g, g.value + d);
            }
            Op::Observe(x) => self.streams.entry(name.to_owned()).or_default().push(x),
            Op::ObserveTail(x) => {
                self.streams.entry(name.to_owned()).or_default().push(x);
                self.tails.entry(name.to_owned()).or_default().record(secs_to_ns(x));
                self.p99s.entry(name.to_owned()).or_insert_with(|| P2Quantile::new(0.99)).push(x);
            }
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let quantile = |k: &str, q| self.tails.get(k).and_then(|h| h.quantile(q)).map(ns_to_secs);
        MetricsSnapshot {
            counters: (self.counters.iter())
                .map(|(k, &value)| CounterEntry { name: k.clone(), value })
                .collect(),
            gauges: (self.gauges.iter())
                .map(|(k, g)| GaugeEntry {
                    name: k.clone(),
                    value: g.value,
                    peak: g.peak,
                    peak_upper: g.peak_upper,
                })
                .collect(),
            streams: (self.streams.iter())
                .map(|(k, s)| StreamEntry {
                    name: k.clone(),
                    count: s.count(),
                    mean: s.mean(),
                    min: s.min(),
                    max: s.max(),
                    p50: quantile(k, 0.50),
                    p99: quantile(k, 0.99),
                    p999: quantile(k, 0.999),
                    p99_p2: self.p99s.get(k).and_then(P2Quantile::estimate),
                })
                .collect(),
        }
    }
}

fn by_name(m: &mut Metrics, name: &str, op: Op) {
    match op {
        Op::Inc(d) => m.inc(name, d),
        Op::GaugeSet(v) => m.gauge_set(name, v),
        Op::GaugeAdd(d) => m.gauge_add(name, d),
        Op::Observe(x) => m.observe(name, x),
        Op::ObserveTail(x) => m.observe_tail(name, x),
    }
}

/// A caller that holds handles, each resolved at its own first write — as
/// the hot call sites do. Writes that have no by-handle form go by name.
#[derive(Default, Clone)]
struct ByHandle {
    m: Metrics,
    counters: BTreeMap<usize, CounterId>,
    gauges: BTreeMap<usize, GaugeId>,
    tails: BTreeMap<usize, TailId>,
}

impl ByHandle {
    fn apply(&mut self, n: usize, op: Op) {
        let (m, name) = (&mut self.m, NAMES[n]);
        match op {
            Op::Inc(d) => {
                let id = *self.counters.entry(n).or_insert_with(|| m.counter_id(name));
                m.inc_id(id, d);
            }
            Op::GaugeSet(v) => {
                let id = *self.gauges.entry(n).or_insert_with(|| m.gauge_id(name));
                m.gauge_set_id(id, v);
            }
            Op::ObserveTail(x) => {
                let id = *self.tails.entry(n).or_insert_with(|| m.tail_id(name));
                m.observe_tail_id(id, x);
            }
            Op::GaugeAdd(_) | Op::Observe(_) => by_name(m, name, op),
        }
    }
}

/// Everything a reader can see: the snapshot and the name-ordered iterators.
type View = (MetricsSnapshot, Vec<(String, u64)>, Vec<(String, Gauge)>, Vec<(String, Histogram)>);

fn view(m: &Metrics) -> View {
    (
        m.snapshot(),
        m.counters().map(|(k, v)| (k.to_owned(), v)).collect(),
        m.gauges().map(|(k, g)| (k.to_owned(), g)).collect(),
        m.tails().map(|(k, h)| (k.to_owned(), h.clone())).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn names_and_handles_read_back_like_the_name_keyed_model(
        script in script(),
        split in 0usize..120,
    ) {
        let mut model = Model::default();
        let mut named = Metrics::new();
        let mut handled = ByHandle::default();
        // A clone taken mid-script, handles and all, must stay in step with
        // the original: the same handles mean the same entries in both.
        let mut cloned = None;
        for (i, &(n, op)) in script.iter().enumerate() {
            if i == split % script.len() {
                cloned = Some(handled.clone());
            }
            model.apply(NAMES[n], op);
            by_name(&mut named, NAMES[n], op);
            handled.apply(n, op);
            if let Some(c) = cloned.as_mut() {
                c.apply(n, op);
            }
        }
        let expected: View = (
            model.snapshot(),
            model.counters.into_iter().collect(),
            model.gauges.into_iter().collect(),
            model.tails.into_iter().collect(),
        );
        prop_assert_eq!(&view(&named), &expected, "by name");
        prop_assert_eq!(&view(&handled.m), &expected, "by handle");
        if let Some(c) = cloned {
            prop_assert_eq!(&view(&c.m), &expected, "clone taken mid-script");
        }
    }
}
