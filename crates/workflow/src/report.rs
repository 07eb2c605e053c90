//! Run results: exactly the quantities the paper's figures plot.

use serde::{Deserialize, Serialize};
use sim_core::metrics::MetricsSnapshot;
use wfcr::protocol::WorkflowProtocol;

/// Aggregated outcome of one workflow run.
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
    /// Put requests acked.
    pub puts: u64,
    /// Get requests answered.
    pub gets: u64,
    /// Sum of put response times, seconds — Figure 9(a)/(b)'s
    /// "cumulative data write response time".
    pub cumulative_put_response_s: f64,
    /// Mean put response time, seconds.
    pub mean_put_response_s: f64,
    /// Streaming p99 of put response time, seconds (0 when no puts).
    pub p99_put_response_s: f64,
    /// Peak staging memory across servers (sum of per-server peaks), bytes —
    /// Figure 9(c)/(d)'s "memory usage". After merging threaded per-shard
    /// registries this is the provable *lower* bound on the combined peak.
    pub staging_peak_bytes: u64,
    /// Upper bound on the combined peak after merges (sum of part peaks);
    /// equals [`RunReport::staging_peak_bytes`] for single-registry runs.
    /// `summary()` prints `peak..peak_upper` when the bounds diverge.
    #[serde(default)]
    pub staging_peak_upper_bytes: u64,
    /// Staging memory at the end of the run.
    pub staging_final_bytes: u64,
    /// Checkpoints taken (component-level).
    pub ckpts: u64,
    /// Rollback recoveries performed.
    pub recoveries: u64,
    /// Replication fail-overs absorbed.
    pub failovers: u64,
    /// Time steps re-executed due to rollbacks.
    pub rollback_steps: u64,
    /// Redundant replay puts absorbed by the log.
    pub absorbed_puts: u64,
    /// Gets served from the log at a historical version.
    pub replayed_gets: u64,
    /// Replay digest mismatches (must be 0 for deterministic components).
    pub digest_mismatches: u64,
    /// Gets served a version other than the one requested (nonzero only
    /// under non-logging protocols — quantifies In's inconsistency).
    pub stale_gets: u64,
    /// Bytes reclaimed by log garbage collection.
    pub gc_reclaimed_bytes: u64,
    /// Staging-server failures survived via resilience rebuilds.
    pub staging_rebuilds: u64,
    /// Proactive (predictor-triggered) checkpoints taken.
    pub proactive_ckpts: u64,
    /// Steps executed including re-execution (all components).
    pub steps_executed: u64,
    /// Total time spent in ULFM repair across recoveries, seconds.
    pub recovery_ulfm_s: f64,
    /// Total time spent restoring checkpoints (incl. staging-client
    /// reconnection) across recoveries, seconds.
    pub recovery_restore_s: f64,
    /// Total coordinated-rollback orchestration time (Co only), seconds.
    pub co_rollback_s: f64,
    /// Total messages through the interconnect.
    pub net_msgs: u64,
    /// Total bytes through the interconnect.
    pub net_bytes: u64,
    /// Component-level retransmissions issued while riding out injected
    /// network faults (0 in fault-free runs).
    pub net_retries: u64,
    /// Transient staging-server stall windows served through.
    pub server_stalls: u64,
    /// Discrete events dispatched (simulation diagnostics).
    pub events_dispatched: u64,
    /// Bytes physically flushed by the durable staging journals (0 when
    /// durability is off).
    #[serde(default)]
    pub log_bytes_flushed: u64,
    /// Journal segment files deleted by checkpoint-watermark compaction.
    #[serde(default)]
    pub segments_compacted: u64,
    /// Journal group commits: fsyncs that made two or more records durable
    /// at once (0 when durability is off or nothing batched).
    #[serde(default)]
    pub journal_group_commits: u64,
    /// Journal records that reached the log through batched coalesced
    /// hand-offs rather than per-record appends.
    #[serde(default)]
    pub journal_records_batched: u64,
    /// Restart grants issued by the supervisor, including staging-server
    /// rebuilds and replica failovers it accounted as outages (0 in
    /// unsupervised runs).
    #[serde(default)]
    pub restarts: u64,
    /// Poison inputs quarantined to the dead-letter queue.
    #[serde(default)]
    pub quarantined: u64,
    /// Mean time to repair across supervised outages, seconds (death of a
    /// domain → resumed execution; consecutive deaths extend one outage).
    #[serde(default)]
    pub mttr_mean_s: f64,
    /// Longest single supervised outage, seconds.
    #[serde(default)]
    pub mttr_max_s: f64,
    /// Wall-clock time of the cold-restart rebuild (journal scan + state
    /// reconstruction), milliseconds. 0 for runs without a cold restart.
    #[serde(default)]
    pub cold_restart_ms: f64,
    /// Shard count of the partitioned data plane (0 = unsharded run).
    #[serde(default)]
    pub shards: u64,
    /// Partition-map rebalances that cut over mid-run.
    #[serde(default)]
    pub rebalances: u64,
    /// Puts served per shard, shard order (empty in unsharded runs).
    #[serde(default)]
    pub shard_puts: Vec<u64>,
    /// Log-replayed gets per shard, shard order (empty in unsharded runs).
    #[serde(default)]
    pub shard_replays: Vec<u64>,
    /// Schedules explored by the model-checker runner mode
    /// ([`crate::mcheck_mode::explore`]); 0 for plain runs.
    #[serde(default)]
    pub schedules_explored: u64,
    /// Exploration runs cut by state-hash pruning; 0 for plain runs.
    #[serde(default)]
    pub states_pruned: u64,
    /// Full metrics-registry snapshot at harvest time: every counter, gauge
    /// (with both `peak` and `peak_upper` bounds), and stream the run touched,
    /// in name order. `None` in reports deserialized from older runs.
    #[serde(default)]
    pub metrics: Option<MetricsSnapshot>,
    /// Deterministic windowed time series (telemetry-on runs only): queue
    /// depths, put latency histograms, journal flush bytes, MTTR — per
    /// scrape window, byte-identical across same-seed runs.
    #[serde(default)]
    pub series: Option<telemetry::Series>,
    /// SLO evaluation outcome (telemetry-on runs with objectives only).
    #[serde(default)]
    pub slo: Option<telemetry::SloReport>,
}

impl RunReport {
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
        let mib = |b: u64| b as f64 / (1 << 20) as f64;
        // Merged gauges only bound the combined high-water mark; an honest
        // summary shows the interval instead of silently picking a side.
        let peak_mem = if self.staging_peak_upper_bytes > self.staging_peak_bytes {
            format!(
                "{:.1}..{:.1}MiB",
                mib(self.staging_peak_bytes),
                mib(self.staging_peak_upper_bytes)
            )
        } else {
            format!("{:.1}MiB", mib(self.staging_peak_bytes))
        };
        let mut s = format!(
            "{:<28} {:>4} total={:>9.2}s puts={} cumW={:.3}s peakMem={peak_mem} ckpts={} rec={} replay(g={},p={}) mism={} retries={} stalls={} stale={}",
            self.label,
            self.protocol.label(),
            self.total_time_s,
            self.puts,
            self.cumulative_put_response_s,
            self.ckpts,
            self.recoveries,
            self.replayed_gets,
            self.absorbed_puts,
            self.digest_mismatches,
            self.net_retries,
            self.server_stalls,
            self.stale_gets,
        );
        if self.journal_group_commits > 0 || self.journal_records_batched > 0 {
            s.push_str(&format!(
                " gc={} batch={}",
                self.journal_group_commits, self.journal_records_batched
            ));
        }
        if self.restarts > 0 || self.quarantined > 0 {
            s.push_str(&format!(
                " rst={} quar={} mttr={:.3}s/max={:.3}s",
                self.restarts, self.quarantined, self.mttr_mean_s, self.mttr_max_s
            ));
        }
        if self.shards > 0 {
            s.push_str(&format!(" shards={} rebal={}", self.shards, self.rebalances));
        }
        if let Some(series) = &self.series {
            s.push_str(&format!(" windows={}", series.windows.len()));
        }
        if let Some(slo) = &self.slo {
            if slo.ok() {
                s.push_str(" slo=ok");
            } else {
                s.push_str(&format!(" slo=BREACH({})", slo.breaches().len()));
            }
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

    fn report(total: f64, mem: u64, cum: f64) -> RunReport {
        RunReport {
            label: "t".into(),
            protocol: WorkflowProtocol::Uncoordinated,
            total_time_s: total,
            finish_times_s: vec![],
            puts: 0,
            gets: 0,
            cumulative_put_response_s: cum,
            mean_put_response_s: 0.0,
            p99_put_response_s: 0.0,
            staging_peak_bytes: mem,
            staging_peak_upper_bytes: mem,
            staging_final_bytes: 0,
            ckpts: 0,
            recoveries: 0,
            failovers: 0,
            rollback_steps: 0,
            absorbed_puts: 0,
            replayed_gets: 0,
            digest_mismatches: 0,
            stale_gets: 0,
            gc_reclaimed_bytes: 0,
            staging_rebuilds: 0,
            proactive_ckpts: 0,
            steps_executed: 0,
            recovery_ulfm_s: 0.0,
            recovery_restore_s: 0.0,
            co_rollback_s: 0.0,
            net_msgs: 0,
            net_bytes: 0,
            net_retries: 0,
            server_stalls: 0,
            events_dispatched: 0,
            log_bytes_flushed: 0,
            segments_compacted: 0,
            journal_group_commits: 0,
            journal_records_batched: 0,
            restarts: 0,
            quarantined: 0,
            mttr_mean_s: 0.0,
            mttr_max_s: 0.0,
            cold_restart_ms: 0.0,
            shards: 0,
            rebalances: 0,
            shard_puts: vec![],
            shard_replays: vec![],
            schedules_explored: 0,
            states_pruned: 0,
            metrics: None,
            series: None,
            slo: None,
        }
    }

    #[test]
    fn summary_prints_peak_interval_when_merge_bounds_diverge() {
        let exact = report(1.0, 2 << 20, 1.0);
        assert!(exact.summary().contains("peakMem=2.0MiB"), "{}", exact.summary());
        let mut merged = report(1.0, 2 << 20, 1.0);
        merged.staging_peak_upper_bytes = 3 << 20;
        let s = merged.summary();
        assert!(s.contains("peakMem=2.0..3.0MiB"), "diverged bounds surface: {s}");
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
        let r = report(1.0, 1, 1.0);
        assert!(r.summary().contains("Un"));
    }

    #[test]
    fn summary_surfaces_journal_and_supervision_counters_when_nonzero() {
        let plain = report(1.0, 1, 1.0);
        assert!(!plain.summary().contains("gc="), "zero counters stay out of the line");
        assert!(!plain.summary().contains("rst="));
        let mut r = report(1.0, 1, 1.0);
        r.journal_group_commits = 4;
        r.journal_records_batched = 17;
        r.restarts = 3;
        r.quarantined = 1;
        r.mttr_mean_s = 0.25;
        r.mttr_max_s = 0.5;
        let s = r.summary();
        assert!(s.contains("gc=4 batch=17"), "journal counters surface: {s}");
        assert!(s.contains("rst=3 quar=1 mttr=0.250s/max=0.500s"), "supervision: {s}");
        // And the JSON line round-trips them.
        let back: RunReport = serde_json::from_str(&r.to_json_line()).unwrap();
        assert_eq!(back.restarts, 3);
        assert_eq!(back.quarantined, 1);
        assert_eq!(back.journal_group_commits, 4);
    }

    #[test]
    fn summary_surfaces_shard_fields_when_sharded() {
        let plain = report(1.0, 1, 1.0);
        assert!(!plain.summary().contains("shards="), "unsharded runs stay quiet");
        let mut r = report(1.0, 1, 1.0);
        r.shards = 4;
        r.rebalances = 1;
        r.shard_puts = vec![24, 24, 24, 24];
        r.shard_replays = vec![0, 8, 0, 0];
        let s = r.summary();
        assert!(s.contains("shards=4 rebal=1"), "shard segment surfaces: {s}");
        let back: RunReport = serde_json::from_str(&r.to_json_line()).unwrap();
        assert_eq!(back.shards, 4);
        assert_eq!(back.shard_puts, vec![24, 24, 24, 24]);
        assert_eq!(back.shard_replays, vec![0, 8, 0, 0]);
    }
}
