//! Run results: exactly the quantities the paper's figures plot.

use serde::{Deserialize, Serialize};
use sim_core::metrics::MetricsSnapshot;
use wfcr::protocol::WorkflowProtocol;

/// Aggregated outcome of one workflow run. Its fields hold what the harvest
/// computes; the counters the metrics registry already holds are read from
/// [`RunReport::metrics`] through accessors, so each number has one source.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Configuration label.
    pub label: String,
    /// Protocol run.
    pub protocol: WorkflowProtocol,
    /// Total workflow execution time, seconds (time of the last component
    /// finishing) — Figure 9(e) / Figure 10's y-axis.
    pub total_time_s: f64,
    /// Per-component finish times `(app, seconds)`.
    pub finish_times_s: Vec<(u32, f64)>,
    /// Sum of put response times, seconds — Figure 9(a)/(b)'s
    /// "cumulative data write response time".
    pub cumulative_put_response_s: f64,
    /// Peak staging memory across servers (sum of per-server peaks), bytes —
    /// Figure 9(c)/(d)'s "memory usage".
    pub staging_peak_bytes: u64,
    /// Redundant replay puts absorbed by the log.
    pub absorbed_puts: u64,
    /// Gets served from the log at a historical version.
    pub replayed_gets: u64,
    /// Replay digest mismatches (must be 0 for deterministic components).
    pub digest_mismatches: u64,
    /// Gets served a version other than the one requested. Un and Hy must
    /// read 0. In reads it by design (bounded retention, no log replay).
    /// Co reads it today because of an unfixed defect: a put the
    /// pre-rollback incarnation left in flight survives the `GlobalReset`
    /// (`tests/crash_consistency_cases.rs` pins it).
    pub stale_gets: u64,
    /// Bytes reclaimed by log garbage collection.
    pub gc_reclaimed_bytes: u64,
    /// Staging-server failures survived via resilience rebuilds.
    pub staging_rebuilds: u64,
    /// Steps executed including re-execution (all components).
    pub steps_executed: u64,
    /// Discrete events dispatched (simulation diagnostics).
    pub events_dispatched: u64,
    /// Bytes physically flushed by the durable staging journals (0 when
    /// durability is off).
    pub log_bytes_flushed: u64,
    /// Journal segment files deleted by checkpoint-watermark compaction.
    pub segments_compacted: u64,
    /// Journal group commits: fsyncs that made two or more records durable
    /// at once (0 when durability is off or nothing batched).
    pub journal_group_commits: u64,
    /// Journal records that reached the log through batched coalesced
    /// hand-offs rather than per-record appends.
    pub journal_records_batched: u64,
    /// Puts served per shard, shard order (empty in unsharded runs).
    pub shard_puts: Vec<u64>,
    /// Full metrics-registry snapshot at harvest time: every counter, gauge
    /// (with both `peak` and `peak_upper` bounds), and stream the run touched,
    /// in name order.
    pub metrics: MetricsSnapshot,
    /// Deterministic windowed time series (telemetry-on runs only): queue
    /// depths, put latency histograms, journal flush bytes, MTTR — per
    /// scrape window, byte-identical across same-seed runs.
    pub series: Option<telemetry::Series>,
}

impl RunReport {
    /// Put requests acked.
    pub fn puts(&self) -> u64 {
        self.metrics.counter("wf.puts")
    }

    /// Get requests answered.
    pub fn gets(&self) -> u64 {
        self.metrics.counter("wf.gets")
    }

    /// Checkpoints taken (component-level).
    pub fn ckpts(&self) -> u64 {
        self.metrics.counter("wf.ckpts")
    }

    /// Time steps re-executed due to rollbacks: each time a component's
    /// step moves back to its resume step (a local restore's end, or a Co
    /// `RollbackComplete` for every component), the steps it moved over. A
    /// recovery that a death restarts counts its redo once.
    pub fn rollback_steps(&self) -> u64 {
        self.metrics.counter("wf.rollback_steps")
    }

    /// Total bytes through the interconnect.
    pub fn net_bytes(&self) -> u64 {
        self.metrics.counter("net.bytes")
    }

    /// Component-level retransmissions issued while riding out injected
    /// network faults (0 in fault-free runs).
    pub fn net_retries(&self) -> u64 {
        self.metrics.counter("wf.net_retries")
    }

    /// Streaming p99 of put response time, seconds (0 when no puts).
    pub fn p99_put_response_s(&self) -> f64 {
        self.metrics.stream("wf.put_response_s").and_then(|s| s.p99).unwrap_or(0.0)
    }

    /// Rollback recoveries performed: one per ULFM repair a component starts
    /// (a death during a recovery starts another), and under Co one per
    /// component that rolls back, so a coordinated rollback counts every
    /// component once however many failures landed in it.
    pub fn recoveries(&self) -> u64 {
        self.metrics.counter("wf.recoveries")
    }

    /// Replication fail-overs absorbed.
    pub fn failovers(&self) -> u64 {
        self.metrics.counter("wf.failovers")
    }

    /// Proactive (predictor-triggered) checkpoints taken.
    pub fn proactive_ckpts(&self) -> u64 {
        self.metrics.counter("wf.proactive_ckpts")
    }

    /// Supervised restarts: one per death of a rolling-back component and
    /// per staging-server failure, plus the replica failovers counted as
    /// outages (0 in unsupervised runs).
    pub fn restarts(&self) -> u64 {
        self.metrics.counter("sup.restarts") + self.metrics.counter("sup.failovers")
    }

    /// Poisoned steps quarantined (each also a `quarantine` trace instant on
    /// its victim's track).
    pub fn quarantined(&self) -> u64 {
        self.metrics.counter("sup.quarantined")
    }

    /// Mean time to repair across supervised outages, seconds (a
    /// component's death → its resumed compute, a staging server's failure
    /// → its rebuilt store; consecutive deaths extend one outage; 0 in
    /// unsupervised runs).
    pub fn mttr_mean_s(&self) -> f64 {
        self.metrics.stream("sup.outage_s").map_or(0.0, |s| s.mean)
    }

    /// Longest single supervised outage, seconds (0 in unsupervised runs).
    pub fn mttr_max_s(&self) -> f64 {
        self.metrics.stream("sup.outage_s").map_or(0.0, |s| s.max)
    }

    /// Percentage increase of peak staging memory vs. a baseline.
    pub fn memory_delta_pct(&self, base: &RunReport) -> f64 {
        (self.staging_peak_bytes as f64 - base.staging_peak_bytes as f64)
            / base.staging_peak_bytes as f64
            * 100.0
    }

    /// Percentage increase of cumulative write response time vs. a baseline.
    pub fn write_response_delta_pct(&self, base: &RunReport) -> f64 {
        (self.cumulative_put_response_s - base.cumulative_put_response_s)
            / base.cumulative_put_response_s
            * 100.0
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{:<28} {:>4} total={:>9.2}s puts={} cumW={:.3}s peakMem={:.1}MiB ckpts={} rec={} replay(g={},p={}) mism={} retries={} stale={}",
            self.label,
            self.protocol.label(),
            self.total_time_s,
            self.puts(),
            self.cumulative_put_response_s,
            self.staging_peak_bytes as f64 / (1 << 20) as f64,
            self.ckpts(),
            self.recoveries(),
            self.replayed_gets,
            self.absorbed_puts,
            self.digest_mismatches,
            self.net_retries(),
            self.stale_gets,
        );
        if self.journal_group_commits > 0 || self.journal_records_batched > 0 {
            s.push_str(&format!(
                " gc={} batch={}",
                self.journal_group_commits, self.journal_records_batched
            ));
        }
        let (restarts, quarantined) = (self.restarts(), self.quarantined());
        if restarts > 0 || quarantined > 0 {
            s.push_str(&format!(
                " rst={restarts} quar={quarantined} mttr={:.3}s/max={:.3}s",
                self.mttr_mean_s(),
                self.mttr_max_s()
            ));
        }
        if !self.shard_puts.is_empty() {
            s.push_str(&format!(" shards={}", self.shard_puts.len()));
        }
        if let Some(series) = &self.series {
            s.push_str(&format!(" windows={}", series.windows.len()));
        }
        s
    }

    /// The whole report as one JSON line (no trailing newline) — the format
    /// examples append to result files and `wf-trace` reads back.
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).expect("RunReport serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::metrics::Metrics;

    fn report(total: f64, mem: u64, cum: f64) -> RunReport {
        RunReport {
            label: "t".into(),
            protocol: WorkflowProtocol::Uncoordinated,
            total_time_s: total,
            finish_times_s: vec![],
            cumulative_put_response_s: cum,
            staging_peak_bytes: mem,
            absorbed_puts: 0,
            replayed_gets: 0,
            digest_mismatches: 0,
            stale_gets: 0,
            gc_reclaimed_bytes: 0,
            staging_rebuilds: 0,
            steps_executed: 0,
            events_dispatched: 0,
            log_bytes_flushed: 0,
            segments_compacted: 0,
            journal_group_commits: 0,
            journal_records_batched: 0,
            shard_puts: vec![],
            metrics: MetricsSnapshot::default(),
            series: None,
        }
    }

    #[test]
    fn deltas() {
        let base = report(100.0, 1000, 10.0);
        let faster = report(90.0, 1840, 11.2);
        assert!((faster.memory_delta_pct(&base) - 84.0).abs() < 1e-9);
        assert!((faster.write_response_delta_pct(&base) - 12.0).abs() < 1e-6);
    }

    #[test]
    fn summary_contains_label() {
        let r = report(1.0, 2 << 20, 1.0);
        assert!(r.summary().contains("Un"));
        assert!(r.summary().contains("peakMem=2.0MiB"), "{}", r.summary());
    }

    #[test]
    fn summary_surfaces_journal_and_supervision_counters_when_nonzero() {
        let plain = report(1.0, 1, 1.0);
        assert!(!plain.summary().contains("gc="), "zero counters stay out of the line");
        assert!(!plain.summary().contains("rst="));
        let mut r = report(1.0, 1, 1.0);
        r.journal_group_commits = 4;
        r.journal_records_batched = 17;
        let mut m = Metrics::new();
        m.inc("sup.restarts", 2);
        m.inc("sup.failovers", 1);
        m.inc("sup.quarantined", 1);
        m.observe_tail("sup.outage_s", 0.0);
        m.observe_tail("sup.outage_s", 0.5);
        r.metrics = m.snapshot();
        let s = r.summary();
        assert!(s.contains("gc=4 batch=17"), "journal counters surface: {s}");
        assert!(s.contains("rst=3 quar=1 mttr=0.250s/max=0.500s"), "supervision: {s}");
        // And the JSON line round-trips them.
        let back: RunReport = serde_json::from_str(&r.to_json_line()).unwrap();
        assert_eq!(back.restarts(), 3);
        assert_eq!(back.quarantined(), 1);
        assert_eq!((back.mttr_mean_s(), back.mttr_max_s()), (0.25, 0.5));
        assert_eq!(back.journal_group_commits, 4);
    }

    #[test]
    fn summary_surfaces_shard_fields_when_sharded() {
        let plain = report(1.0, 1, 1.0);
        assert!(!plain.summary().contains("shards="), "unsharded runs stay quiet");
        let mut r = report(1.0, 1, 1.0);
        r.shard_puts = vec![24, 24, 24, 24];
        let s = r.summary();
        assert!(s.contains("shards=4"), "shard segment surfaces: {s}");
        let back: RunReport = serde_json::from_str(&r.to_json_line()).unwrap();
        assert_eq!(back.shard_puts, vec![24, 24, 24, 24]);
    }
}
