//! Cold restart from durable media: the whole workflow (staging servers,
//! clients, checkpoint directory) dies and is rebuilt from the segmented
//! logs alone. The acceptance bar is byte-identical final observations
//! against an uninterrupted run — the same determinism argument the paper's
//! replay scheme rests on, extended through full process death.
//!
//! The `disk_soak_*` tests exercise the real-file (`FsMedia`) path across a
//! kill-point × flush-policy matrix; they are `#[ignore]`d for tier-1 and
//! run nightly / on the `disk-soak` CI label.

use logstore::{FlushPolicy, LogConfig, LogStore, Media, MemMedia};
use workflow::coldstart::{
    interrupted_run, uninterrupted_digests, ColdStartPlan, FsProvider, MemProvider,
};

mod common;

#[test]
fn cold_restart_reproduces_uninterrupted_run() {
    let _wd = common::watchdog(
        "cold_restart_reproduces_uninterrupted_run",
        std::time::Duration::from_secs(300),
    );
    let plan = ColdStartPlan {
        kill_after: 8,
        log: LogConfig { flush: FlushPolicy::PerRecord, ..LogConfig::default() },
        ..ColdStartPlan::default()
    };
    let media = MemProvider::new(plan.nservers);
    let out = interrupted_run(&plan, &media).expect("interrupted run");
    assert_eq!(out.digest_mismatches, 0);
    assert_eq!(out.producer_resume, 9, "kill at 8 lands right on the period-4 checkpoint");
    assert!(out.recovered_entries > 0);
    assert!(out.recovered_snapshots > 0);
    assert_eq!(out.digests, uninterrupted_digests(&plan));
}

#[test]
fn lazy_flush_loses_only_post_checkpoint_work() {
    let _wd = common::watchdog(
        "lazy_flush_loses_only_post_checkpoint_work",
        std::time::Duration::from_secs(300),
    );
    // A huge batch threshold means *only* commit points (checkpoint/recovery
    // markers) force bytes down; everything after the last checkpoint rides
    // in the buffer and dies with the crash. Recovery must still converge to
    // the identical final state, re-executing the lost tail.
    let plan = ColdStartPlan {
        kill_after: 7,
        log: LogConfig { flush: FlushPolicy::PerBatch { records: 10_000 }, ..LogConfig::default() },
        ..ColdStartPlan::default()
    };
    let media = MemProvider::new(plan.nservers);
    let out = interrupted_run(&plan, &media).expect("interrupted run");
    assert_eq!(out.digest_mismatches, 0);
    // Steps 5..=7 were lost (buffered past the step-4 checkpoint): the
    // journal's durable prefix ends exactly at the commit point, so the
    // resume re-executes them as *fresh* work — no log entries survive to
    // absorb or replay against — and must still land on identical bytes.
    assert_eq!(out.producer_resume, 5);
    assert_eq!(out.absorbed_puts, 0, "the lost tail has nothing durable to absorb against");
    assert_eq!(out.replayed_gets, 0, "the lost tail has nothing durable to replay from");
    assert_eq!(out.digests, uninterrupted_digests(&plan));
}

#[test]
fn grouped_flush_cold_restart_stays_equivalent() {
    let _wd = common::watchdog(
        "grouped_flush_cold_restart_stays_equivalent",
        std::time::Duration::from_secs(300),
    );
    // Group commit with a deferred fsync: sealed-but-unsynced groups die
    // with the crash exactly like buffered ones, and the resumed run must
    // still converge to byte-identical observations.
    let plan = ColdStartPlan {
        kill_after: 7,
        log: LogConfig { flush: FlushPolicy::Grouped { records: 4 }, ..LogConfig::default() },
        ..ColdStartPlan::default()
    };
    let media = MemProvider::new(plan.nservers);
    let out = interrupted_run(&plan, &media).expect("interrupted run");
    assert_eq!(out.digest_mismatches, 0);
    assert_eq!(out.producer_resume, 5, "resumes from the last durable checkpoint");
    assert_eq!(out.digests, uninterrupted_digests(&plan));
}

#[test]
fn compaction_fires_across_the_cold_restart() {
    let _wd = common::watchdog(
        "compaction_fires_across_the_cold_restart",
        std::time::Duration::from_secs(300),
    );
    // Tiny segments + per-record flush: the checkpoint-watermark floor passes
    // whole segments quickly, so second-life compaction must delete some.
    let plan = ColdStartPlan {
        ckpt_period: 2,
        kill_after: 6,
        log: LogConfig { segment_bytes: 1024, flush: FlushPolicy::PerRecord },
        ..ColdStartPlan::default()
    };
    let media = MemProvider::new(plan.nservers);
    let out = interrupted_run(&plan, &media).expect("interrupted run");
    assert_eq!(out.digest_mismatches, 0);
    assert!(
        out.segments_compacted > 0,
        "1 KiB segments over 12 steps must let the GC floor retire segments"
    );
    assert_eq!(out.digests, uninterrupted_digests(&plan));
}

#[test]
fn torn_write_faults_recover_deterministically() {
    // Media-level fault injection via the deterministic plan machinery:
    // identical (plan, workload) pairs must leave identical survivors, and
    // recovery must always be a clean prefix of what was written.
    let plan = faultplane::MediaFaultPlan {
        seed: 0xC0FFEE,
        rates: faultplane::MediaFaultRates { torn_write: 0.25, bitflip: 0.0, skipped_sync: 0.2 },
        windows: Vec::new(),
    };
    let cfg = LogConfig { segment_bytes: 512, flush: FlushPolicy::PerRecord };
    let survivors = |run: u32| {
        let mem = MemMedia::new();
        let faulty = logstore::FaultyMedia::new(mem.clone(), plan.clone());
        let mut log = LogStore::open(Box::new(faulty), cfg).unwrap();
        for i in 0..40u64 {
            // Payload varies by index only — identical across runs.
            let payload = vec![(i % 251) as u8; 64];
            log.append(i, &payload).unwrap();
        }
        drop(log); // no Drop flush: crash semantics
        mem.crash();
        let recovered = LogStore::open(Box::new(mem), cfg).unwrap();
        let recs = recovered.read_all().unwrap();
        // Clean prefix: watermarks 0..k in order, payloads intact.
        for (k, r) in recs.iter().enumerate() {
            assert_eq!(r.watermark, k as u64, "run {run}: prefix broken at {k}");
            assert_eq!(*r.payload, [(k as u64 % 251) as u8; 64]);
        }
        recs.len()
    };
    let a = survivors(1);
    let b = survivors(2);
    assert_eq!(a, b, "identical fault plans must leave identical survivors");
    assert!(a < 40, "a 25% torn-write rate over 40 per-record flushes must lose something");
}

#[test]
fn cold_scan_after_compaction_covers_only_surviving_segments() {
    // First life: enough records for several segments, a checkpoint-floor
    // compaction that retires the front of the log, then an unflushed tail
    // and the kill.
    let cfg = LogConfig { segment_bytes: 512, flush: FlushPolicy::PerBatch { records: 4 } };
    let mem = MemMedia::new();
    let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
    for i in 0..60u64 {
        log.append(i, &[(i % 251) as u8; 64]).unwrap();
    }
    log.flush().unwrap();
    assert!(log.compact_below(25).unwrap() > 0);
    let durable = log.read_all().unwrap();
    for i in 60..63u64 {
        log.append(i, &[(i % 251) as u8; 64]).unwrap(); // 3 < 4: never flushed
    }
    // The unflushed tail opened a segment whose magic waits for its first
    // sync, so that segment never reaches the media.
    let surviving = log.segment_count() - 1;
    assert!(surviving >= 3);
    drop(log);
    mem.crash();
    // Second life: the scan's retained view is exactly the surviving
    // segments' records — nothing of the compacted front, nothing of the
    // lost tail — and agrees with a re-read from the media.
    let recovered = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
    assert!(recovered.was_clean());
    assert_eq!(recovered.segment_count(), surviving);
    assert_eq!(mem.list().unwrap().len(), surviving);
    let scanned = recovered.read_all().unwrap();
    assert_eq!(scanned, durable);
    assert_eq!(scanned.len() as u64, recovered.recovered_records());
    assert!(scanned[0].seq > 0 && scanned[0].watermark <= 25);
    assert_eq!(scanned.last().map(|r| r.seq), Some(59));
    assert_eq!(recovered.read_all().unwrap(), scanned);
}

/// A process-unique scratch root under the system temp dir (no `tempfile`
/// crate in the dependency set).
fn scratch(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("coldstart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
#[ignore = "disk soak: real-file matrix, run nightly or via the disk-soak label"]
fn disk_soak_cold_restart_matrix() {
    let _wd =
        common::watchdog("disk_soak_cold_restart_matrix", std::time::Duration::from_secs(540));
    let policies = [
        FlushPolicy::PerRecord,
        FlushPolicy::PerBatch { records: 4 },
        FlushPolicy::Grouped { records: 4 },
    ];
    for (pi, &flush) in policies.iter().enumerate() {
        for kill_after in [4u32, 6, 9] {
            let plan = ColdStartPlan {
                kill_after,
                log: LogConfig { segment_bytes: 4096, flush },
                ..ColdStartPlan::default()
            };
            let root = scratch(&format!("matrix-{pi}-{kill_after}"));
            let media = FsProvider::new(&root);
            let out = interrupted_run(&plan, &media).expect("interrupted run");
            assert_eq!(out.digest_mismatches, 0, "policy {pi} kill {kill_after}");
            assert_eq!(
                out.digests,
                uninterrupted_digests(&plan),
                "policy {pi} kill {kill_after}: cold restart diverged"
            );
            std::fs::remove_dir_all(&root).expect("scratch cleanup");
        }
    }
}

#[test]
#[ignore = "disk soak: DES runner over real files, run nightly or via the disk-soak label"]
fn disk_soak_des_runner_journals_to_disk() {
    let _wd = common::watchdog(
        "disk_soak_des_runner_journals_to_disk",
        std::time::Duration::from_secs(540),
    );
    let root = scratch("des");
    let cfg = workflow::config::tiny(wfcr::protocol::WorkflowProtocol::Uncoordinated)
        .with_durability(workflow::DurabilityCfg {
            dir: Some(root.to_string_lossy().into_owned()),
            segment_bytes: 16 * 1024,
            flush: FlushPolicy::PerBatch { records: 8 },
            coalesce: 8,
        });
    let r = workflow::run(&cfg);
    assert!(r.log_bytes_flushed > 0);
    // Segment files really landed on disk, one directory per server.
    let dirs = std::fs::read_dir(&root).expect("journal root").count();
    assert_eq!(dirs, cfg.nservers);
    std::fs::remove_dir_all(&root).expect("scratch cleanup");
}
