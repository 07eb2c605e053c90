//! Turns the rounds of one run into named metrics. Each round gives one
//! number per metric — its rate, ratio, latency percentile, or the mean of its
//! rare events — and an end-to-end timing is the run's *quiet tenth* of them:
//! the value nine rounds in ten were no better than. What disturbs a round on
//! this machine (the hypervisor taking the processor away) only ever adds
//! time, so the least disturbed rounds are the ones that say what the program
//! costs, and they repeat from run to run where the median round does not.
//! Per-layer percentiles pool the samples of all traced rounds.

use crate::des::SweepOut;
use crate::drive::{Counts, RoundOut};
use crate::span::{Attribution, Kind, OpSplit};
use crate::spec::{self, Better, Workload};
use crate::stats::{mean, median, ns_to_us, percentile};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One reported number.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Named metrics plus how many samples each rests on.
#[derive(Debug, Default)]
pub struct Metrics {
    pub values: BTreeMap<String, Metric>,
    pub samples: BTreeMap<String, u64>,
    /// Readings that explain a metric without being one (detail line only).
    pub notes: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, unit: &str, value: f64, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name.to_string(), Metric { value, unit: unit.to_string() });
        self.samples.insert(name.to_string(), samples as u64);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|m| m.value)
    }
}

/// The calibrant readings bracketing a run.
#[derive(Debug, Clone, Copy)]
pub struct Calibrant {
    pub start_mib_s: f64,
    pub end_mib_s: f64,
}

fn set(m: &mut Metrics, name: &str, value: f64, samples: usize) {
    m.set(name, spec::unit_of(name), value, samples);
}

fn p(xs: &[u64], pct: f64) -> f64 {
    percentile(&mut ns_to_us(xs), pct)
}

fn steps_per_s(r: &RoundOut) -> f64 {
    f64::from(r.steps) / (r.busy_ns as f64 / 1e9)
}

fn pooled(rounds: &[&RoundOut], f: impl Fn(&RoundOut) -> &Vec<u64>) -> Vec<u64> {
    rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// The boundary of the best tenth of one number per round: the 10th
/// percentile where lower is better, the 90th where higher is.
fn quiet_tenth(per_round: &mut [f64], better: Better) -> f64 {
    percentile(
        per_round,
        match better {
            Better::Lower => 10.0,
            Better::Higher => 90.0,
        },
    )
}

/// Quiet tenth over rounds of one duration per round (rounds without samples
/// of that kind left out), and the samples it rests on.
fn quiet_over_rounds(
    rounds: &[&RoundOut],
    samples: impl Fn(&RoundOut) -> &Vec<u64>,
    of_round: impl Fn(&[u64]) -> f64,
) -> (f64, usize) {
    let mut per_round: Vec<f64> =
        rounds.iter().map(|r| samples(r)).filter(|s| !s.is_empty()).map(|s| of_round(s)).collect();
    (quiet_tenth(&mut per_round, Better::Lower), rounds.iter().map(|r| samples(r).len()).sum())
}

/// A round's mean in milliseconds. A round holds the same mix of events
/// (rollback depths, victims) every time, so its mean is comparable across
/// rounds where single events are not.
fn mean_ms(ns: &[u64]) -> f64 {
    mean(&ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>())
}

/// End-to-end metrics of a threaded run (from its untraced rounds).
pub fn threaded_e2e(rounds: &[&RoundOut], peak_rss_mib: f64) -> Metrics {
    let mut m = Metrics::default();
    let n = rounds.len();
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    set(&mut m, "setup_s", quiet_tenth(&mut setups, Better::Lower), n);
    let mut rates: Vec<f64> = rounds.iter().map(|r| steps_per_s(r)).collect();
    set(&mut m, "steps_per_s", quiet_tenth(&mut rates, Better::Higher), n);
    type Samples = fn(&RoundOut) -> &Vec<u64>;
    let latencies: [(&str, Samples, f64); 4] = [
        ("put_p50_us", |r| &r.put_ns, 50.0),
        ("put_p75_us", |r| &r.put_ns, 75.0),
        ("get_p50_us", |r| &r.get_ns, 50.0),
        ("get_p75_us", |r| &r.get_ns, 75.0),
    ];
    for (name, samples, pct) in latencies {
        let (v, count) = quiet_over_rounds(rounds, samples, |ns| p(ns, pct));
        set(&mut m, name, v, count);
    }
    let (v, count) = quiet_over_rounds(rounds, |r| &r.recovery_ns, mean_ms);
    set(&mut m, "recovery_p50_ms", v, count);
    let (v, count) = quiet_over_rounds(rounds, |r| &r.cold_ns, mean_ms);
    set(&mut m, "cold_restart_p50_ms", v, count);
    let mut ratios: Vec<f64> = rounds
        .iter()
        .map(|r| r.counts.journal_bytes_flushed as f64 / r.user_bytes as f64)
        .collect();
    set(&mut m, "journal_bytes_per_user_byte", median(&mut ratios), n);
    let mut syncs: Vec<f64> =
        rounds.iter().map(|r| r.counts.media_syncs as f64 / f64::from(r.fresh_steps)).collect();
    set(&mut m, "syncs_per_step", median(&mut syncs), n);
    set(&mut m, "peak_rss_mib", peak_rss_mib, 1);
    m
}

/// End-to-end metrics of a `des_fig10` run.
pub fn des_e2e(sweeps: &[SweepOut], peak_rss_mib: f64) -> Metrics {
    let mut m = Metrics::default();
    let n = sweeps.len();
    let mut setups: Vec<f64> = sweeps.iter().map(|s| s.setup_s).collect();
    set(&mut m, "setup_s", quiet_tenth(&mut setups, Better::Lower), n);
    let mut rates: Vec<f64> = sweeps.iter().map(|s| s.events as f64 / s.wall_s).collect();
    set(&mut m, "sim_events_per_s", quiet_tenth(&mut rates, Better::Higher), n);
    // Sums and means over `spec::DES_SWEEPS` sweeps, a constant.
    set(&mut m, "sim_total_time_s", sweeps.iter().map(|s| s.total_time_s).sum(), n);
    let gains: Vec<f64> = sweeps.iter().map(|s| s.un_gain_pct).collect();
    set(&mut m, "un_gain_vs_co_pct", mean(&gains), n);
    set(&mut m, "peak_rss_mib", peak_rss_mib, 1);
    m
}

/// Fill every end-to-end cell the workload has no measurement for, and keep
/// only the declared names: the contract wants exactly the declared set.
pub fn complete_e2e(w: &Workload, measured: Metrics, seed: u64) -> Metrics {
    let mut out = Metrics::default();
    for e in spec::E2E {
        match measured.get(e.name).filter(|_| w.applies.contains(&e.name)) {
            Some(v) => out.set(e.name, e.unit, v, measured.samples[e.name] as usize),
            None => out.set(e.name, e.unit, spec::filler(seed, e.name), 0),
        }
    }
    out
}

fn split_p50(ops: &[OpSplit], f: impl Fn(&OpSplit) -> u64) -> f64 {
    percentile(&mut ops.iter().map(|o| f(o) as f64 / 1e3).collect::<Vec<_>>(), 50.0)
}

fn counts_into(m: &mut Metrics, c: &Counts) {
    for (name, v) in [
        ("backend.puts", c.backend_puts),
        ("backend.gets", c.backend_gets),
        ("backend.absorbed_puts", c.absorbed_puts),
        ("backend.replayed_gets", c.replayed_gets),
        ("journal.records", c.journal_records),
        ("journal.group_commits", c.journal_group_commits),
        ("journal.bytes_flushed", c.journal_bytes_flushed),
        ("journal.segments_compacted", c.journal_segments_compacted),
        ("media.writes", c.media_writes),
        ("media.syncs", c.media_syncs),
        ("media.bytes_written", c.media_bytes_written),
        ("net.msgs", c.net_msgs),
        ("net.bytes", c.net_bytes),
        ("service.dup_hits", c.dup_hits),
    ] {
        set(m, name, v as f64, 1);
    }
}

/// The p50 put in µs, the p50 of each layer's part of a put, and the share
/// of the former the latter leave unexplained, in percent.
fn put_residual(puts: &[OpSplit]) -> (f64, [(&'static str, f64); 4], f64) {
    let put_p50 = split_p50(puts, |s| s.total);
    let parts = [
        ("client", split_p50(puts, |s| s.client_self)),
        ("backend", split_p50(puts, |s| s.backend_self)),
        ("journal", split_p50(puts, |s| s.journal_self)),
        ("media", split_p50(puts, |s| s.media)),
    ];
    let explained: f64 = parts.iter().map(|(_, v)| v).sum();
    (put_p50, parts, (put_p50 - explained) / put_p50 * 100.0)
}

/// Steps per second over the `q`-th quarter (0 or 3) of a round's steps.
fn quarter_rate(r: &RoundOut, q: usize) -> f64 {
    let n = r.step_ns.len() / 4;
    let ns: u64 = r.step_ns[q * n..(q + 1) * n].iter().sum();
    n as f64 / (ns as f64 / 1e9)
}

/// Per-layer metrics of a threaded run: spans from the traced rounds, counts
/// and driver-side phases from the untraced ones (counts are those of round
/// 0, which every run of a seed executes identically).
pub fn threaded_layers(plain: &[&RoundOut], traced: &[(&RoundOut, Attribution)]) -> Metrics {
    let mut m = Metrics::default();
    let mut ops: [Vec<OpSplit>; 3] = Default::default();
    let mut media: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut busy_pct = Vec::new();
    for (round, a) in traced {
        for k in Kind::ALL {
            ops[k.index()].extend_from_slice(&a.ops[k.index()]);
        }
        for (name, calls) in &a.media_calls {
            media.entry(name).or_default().extend_from_slice(calls);
        }
        let servers = &a.busy_ns[1..];
        busy_pct.push(
            servers.iter().map(|&b| b as f64 / round.busy_ns as f64 * 100.0).sum::<f64>()
                / servers.len() as f64,
        );
    }
    for k in Kind::ALL {
        let o = &ops[k.index()];
        let kind = k.as_str();
        set(&mut m, &format!("client.{kind}_self_us"), split_p50(o, |s| s.client_self), o.len());
        set(&mut m, &format!("backend.{kind}_self_us"), split_p50(o, |s| s.backend_self), o.len());
    }
    let puts = &ops[Kind::Put.index()];
    set(&mut m, "journal.append_self_us", split_p50(puts, |s| s.journal_self), puts.len());
    let compacting: Vec<OpSplit> =
        ops[Kind::Ctl.index()].iter().filter(|s| s.compact > 0).copied().collect();
    set(&mut m, "journal.compact_us", split_p50(&compacting, |s| s.compact), compacting.len());
    for (metric, span) in [
        ("media.write_us", "media.write"),
        ("media.sync_us", "media.sync"),
        ("media.read_us", "media.read"),
    ] {
        let calls = media.get(span).map_or(&[][..], Vec::as_slice);
        set(&mut m, metric, p(calls, 50.0), calls.len());
    }
    if let Some(first) = plain.first() {
        counts_into(&mut m, &first.counts);
    }
    set(&mut m, "server.busy_pct", median(&mut busy_pct), traced.len());
    let peak = |f: fn(&RoundOut) -> u64| traced.iter().map(|(r, _)| f(r)).max().unwrap_or(0);
    set(
        &mut m,
        "backend.resident_peak_mib",
        peak(|r| r.resident_peak) as f64 / (1 << 20) as f64,
        traced.len(),
    );
    set(&mut m, "backend.live_log_events_peak", peak(|r| r.live_events_peak) as f64, traced.len());
    for (name, q) in [("driver.steps_per_s_first_q", 0), ("driver.steps_per_s_last_q", 3)] {
        let mut rates: Vec<f64> = plain.iter().map(|r| quarter_rate(r, q)).collect();
        set(&mut m, name, median(&mut rates), plain.len());
    }
    // The wall-clock view of every threaded workload, device waits and all:
    // gated end to end only where no device is in the path, recorded here
    // everywhere.
    let wall = threaded_e2e(plain, 0.0);
    for name in ["steps_per_s", "put_p50_us", "get_p50_us"] {
        let samples = wall.samples[name] as usize;
        set(&mut m, &format!("driver.{name}"), wall.get(name).unwrap_or(0.0), samples);
    }
    let (v, count) = quiet_over_rounds(plain, |r| &r.ckpt_ns, |ns| p(ns, 50.0));
    set(&mut m, "driver.ckpt_p50_us", v, count);
    let (v, count) = quiet_over_rounds(plain, |r| &r.recover_ctl_ns, |ns| p(ns, 50.0));
    set(&mut m, "driver.recover_ctl_p50_us", v, count);
    let replay = pooled(plain, |r| &r.replay_get_ns);
    let absorbed = pooled(plain, |r| &r.absorbed_put_ns);
    let recoveries = pooled(plain, |r| &r.recovery_ns);
    set(&mut m, "driver.replay_get_p50_us", p(&replay, 50.0), replay.len());
    set(&mut m, "driver.absorbed_put_p50_us", p(&absorbed, 50.0), absorbed.len());
    set(&mut m, "driver.recovery_p90_ms", p(&recoveries, 90.0) / 1e3, recoveries.len());
    let phases: Vec<_> = plain.iter().flat_map(|r| r.cold_phases.iter()).collect();
    for (name, f) in [
        ("driver.cold_scan_ms", (|c| c.scan_ms) as fn(&crate::fleet::ColdPhases) -> f64),
        ("driver.cold_rebuild_ms", |c| c.rebuild_ms),
        ("driver.cold_respawn_ms", |c| c.respawn_ms),
    ] {
        set(
            &mut m,
            name,
            median(&mut phases.iter().map(|c| f(c)).collect::<Vec<_>>()),
            phases.len(),
        );
    }
    let media_peak = plain.iter().map(|r| r.media_peak_live).max().unwrap_or(0);
    set(&mut m, "media.peak_live_mib", media_peak as f64 / (1 << 20) as f64, plain.len());

    // The benchmark's own honesty: what tracing costs, and how much of a
    // traced put the layers' p50 self times leave unexplained.
    let mut plain_rate: Vec<f64> = plain.iter().map(|r| steps_per_s(r)).collect();
    let mut traced_rate: Vec<f64> = traced.iter().map(|(r, _)| steps_per_s(r)).collect();
    let (plain_rate, traced_rate) = (median(&mut plain_rate), median(&mut traced_rate));
    set(
        &mut m,
        "bench.trace_overhead_pct",
        (plain_rate - traced_rate) / plain_rate * 100.0,
        traced.len(),
    );
    let (put_p50, parts, residual_pct) = put_residual(puts);
    set(&mut m, "bench.put_residual_pct", residual_pct, puts.len());
    m.notes.insert("traced_put_p50_us".to_string(), put_p50);
    for (layer, v) in parts {
        m.notes.insert(format!("traced_put_p50_us.{layer}"), v);
    }
    m
}

/// Every declared per-layer metric, zero where this run has no reading (a
/// layer the workload does not exercise reads zero; that is the point).
pub fn complete_layers(measured: Metrics, cal: Calibrant) -> Metrics {
    let mut out = Metrics { notes: measured.notes.clone(), ..Default::default() };
    for l in spec::per_layer() {
        let v = measured.get(l.name).unwrap_or(0.0);
        let n = measured.samples.get(l.name).copied().unwrap_or(0);
        out.set(l.name, l.unit, v, n as usize);
    }
    out.set("bench.calibrant_crc_mib_s", "MiB/s", cal.start_mib_s, 1);
    out.set(
        "bench.calibrant_drift_pct",
        "%",
        ((cal.end_mib_s - cal.start_mib_s) / cal.start_mib_s * 100.0).abs(),
        1,
    );
    out
}

/// The contract's result line.
#[derive(Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(total: u64, client: u64, backend: u64, journal: u64, media: u64) -> OpSplit {
        OpSplit {
            total,
            client_self: client,
            backend_self: backend,
            journal_self: journal,
            media,
            ..Default::default()
        }
    }

    #[test]
    fn residual_is_what_the_parts_medians_leave_of_the_median_put() {
        // Every put splits the same way: nothing is left over.
        let same = vec![put(100_000, 40_000, 30_000, 10_000, 20_000); 5];
        let (p50, parts, residual) = put_residual(&same);
        assert_eq!(p50, 100.0);
        assert_eq!(parts.map(|(_, v)| v), [40.0, 30.0, 10.0, 20.0]);
        assert_eq!(residual, 0.0);
        // One put in three waits 60 µs for the media: the median put is a
        // fast one, and so is every part's median.
        let mixed = [
            put(100_000, 50_000, 50_000, 0, 0),
            put(160_000, 50_000, 50_000, 0, 60_000),
            put(100_000, 50_000, 50_000, 0, 0),
        ];
        assert_eq!(put_residual(&mixed).2, 0.0);
        // Parts whose medians come from different puts do not add up: the
        // p50 put is 120 µs, the parts' p50s are 50 + 50, and 20 µs of it
        // (a sixth) stay unexplained.
        let skewed = [
            put(120_000, 100_000, 20_000, 0, 0),
            put(120_000, 20_000, 100_000, 0, 0),
            put(120_000, 50_000, 50_000, 20_000, 0),
        ];
        let (p50, _, residual) = put_residual(&skewed);
        assert_eq!(p50, 120.0);
        assert!((residual - 100.0 / 6.0).abs() < 1e-9, "{residual}");
    }

    #[test]
    fn an_end_to_end_timing_is_the_quiet_tenth_of_the_rounds() {
        let round = |put_us: u64, steps: u32| RoundOut {
            put_ns: vec![put_us * 1_000; 10],
            steps,
            busy_ns: 1_000_000_000,
            ..Default::default()
        };
        // Twenty rounds: puts of 101..=120 µs, 2 001..=2 020 steps in a second.
        let rounds: Vec<RoundOut> = (1..=20).map(|i| round(100 + i, 2_000 + i as u32)).collect();
        let refs: Vec<&RoundOut> = rounds.iter().collect();
        let m = threaded_e2e(&refs, 1.0);
        // Two rounds had puts of 102 µs or less; eighteen made 2 018 steps/s or fewer.
        assert_eq!(m.get("put_p50_us"), Some(102.0));
        assert_eq!(m.get("put_p75_us"), Some(102.0));
        assert_eq!(m.get("steps_per_s"), Some(2_018.0));
        assert_eq!(m.samples["put_p50_us"], 200);
        // One round in which every put took ten times as long changes nothing.
        let disturbed = round(1_000, 200);
        let mut with: Vec<&RoundOut> = rounds.iter().collect();
        with.push(&disturbed);
        let m = threaded_e2e(&with, 1.0);
        assert_eq!(m.get("put_p50_us"), Some(103.0));
        assert_eq!(m.get("steps_per_s"), Some(2_018.0));
        // No round has a rollback: the cell reads zero here and gets its
        // filler in `complete_e2e`.
        assert_eq!(m.get("recovery_p50_ms"), Some(0.0));
    }
}
