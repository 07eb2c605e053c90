//! The crash-point oracle: for an arbitrary record stream written through an
//! arbitrary flush policy and segment size, cut the media at **every** byte
//! offset (and, separately, flip one byte per segment), then reopen. Recovery
//! must always produce a checksum-clean *prefix* of the original record
//! stream — never garbage, never a reordered or gappy subset, and for cuts in
//! the fsynced region never less than what was synced before the cut.
//!
//! This mirrors `staging/tests/store_index_oracle.rs`: an exhaustive
//! adversary over a generated workload, checking a single crisp invariant.

use logstore::{BatchRecord, FlushPolicy, LogConfig, LogStore, Media, MemMedia};
use proptest::prelude::*;

fn arb_records() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    prop::collection::vec((0u64..50, prop::collection::vec(any::<u8>(), 0..40)), 1..25)
}

fn arb_config() -> impl Strategy<Value = LogConfig> {
    let policy = prop_oneof![
        Just(FlushPolicy::PerRecord),
        (1usize..6).prop_map(|records| FlushPolicy::PerBatch { records }),
        (1u64..256).prop_map(|bytes| FlushPolicy::PerBytes { bytes }),
        (1usize..6).prop_map(|records| FlushPolicy::Grouped { records }),
    ];
    (64u64..512, policy).prop_map(|(segment_bytes, flush)| LogConfig { segment_bytes, flush })
}

/// Write `records` through a fresh log; leave whatever the policy flushed on
/// the media. Returns the media.
fn write_stream(records: &[(u64, Vec<u8>)], cfg: LogConfig) -> MemMedia {
    let mem = MemMedia::new();
    let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
    for (wm, payload) in records {
        log.append(*wm, payload).unwrap();
    }
    log.flush().unwrap();
    mem
}

/// Write `records` through `append_batch` in groups of `chunk`, scattering
/// each payload across up to three vectored parts. Returns the media.
fn write_stream_batched(records: &[(u64, Vec<u8>)], cfg: LogConfig, chunk: usize) -> MemMedia {
    let mem = MemMedia::new();
    let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
    for group in records.chunks(chunk.max(1)) {
        // Split each payload into parts at deterministic cut points so the
        // vectored path is exercised with 1..=3 parts per record.
        let splits: Vec<[&[u8]; 3]> = group
            .iter()
            .map(|(_, p)| {
                let a = p.len() / 3;
                let b = a + (p.len() - a) / 2;
                [&p[..a], &p[a..b], &p[b..]]
            })
            .collect();
        let batch: Vec<BatchRecord<'_>> = group
            .iter()
            .zip(&splits)
            .map(|((wm, _), parts)| BatchRecord { watermark: *wm, parts })
            .collect();
        log.append_batch(&batch).unwrap();
    }
    log.flush().unwrap();
    mem
}

/// Assert the reopened log yields a prefix of `written` and report its
/// length. The first `read_all` after an open is answered from the recovery
/// scan's own buffers, so `survivors` is that retained view — straight after
/// whatever damage the caller did to the media.
fn assert_clean_prefix(mem: &MemMedia, cfg: LogConfig, written: &[(u64, Vec<u8>)]) -> usize {
    let log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
    let survivors = log.read_all().unwrap();
    assert_eq!(survivors.len() as u64, log.recovered_records());
    assert!(
        survivors.len() <= written.len(),
        "recovery invented records: {} > {}",
        survivors.len(),
        written.len()
    );
    for (i, rec) in survivors.iter().enumerate() {
        assert_eq!(
            (rec.watermark, &rec.payload[..]),
            (written[i].0, written[i].1.as_slice()),
            "record {i} is not a faithful prefix element"
        );
    }
    // Recovery must be idempotent: a second open sees a clean log with the
    // same contents — from its scan, and again when re-read from the media.
    let again = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
    assert!(again.was_clean(), "recovered log must reopen clean");
    assert_eq!(again.read_all().unwrap(), survivors);
    assert_eq!(again.read_all().unwrap(), survivors, "re-read differs from the retained scan");
    survivors.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncate the written log at every byte offset of every segment; each
    /// cut must recover to a clean prefix, monotone in the cut offset within
    /// a segment.
    #[test]
    fn every_truncation_recovers_a_clean_prefix(
        records in arb_records(),
        cfg in arb_config(),
    ) {
        let pristine = write_stream(&records, cfg);
        let total = pristine.total_bytes();
        // The stream was fully flushed, so a full-length "cut" keeps it all.
        prop_assert_eq!(
            assert_clean_prefix(&pristine, cfg, &records),
            records.len()
        );
        for name in pristine.list().unwrap() {
            let seg_len = pristine.read(&name).unwrap().len();
            let mut prev = usize::MAX;
            for cut in (0..seg_len).rev() {
                let mem = pristine.clone_deep();
                mem.chop(&name, cut);
                let kept = assert_clean_prefix(&mem, cfg, &records);
                prop_assert!(
                    kept <= prev,
                    "shrinking a cut in {} grew the prefix: {} then {}", name, prev, kept
                );
                prev = kept;
            }
        }
        let _ = total;
    }

    /// Flip one byte (every bit position probed via the oracle's single-bit
    /// flip) in each segment; the corrupt record and everything after it must
    /// vanish, everything before must survive verbatim.
    #[test]
    fn every_single_byte_flip_recovers_a_clean_prefix(
        records in arb_records(),
        cfg in arb_config(),
        seed in any::<u64>(),
    ) {
        let pristine = write_stream(&records, cfg);
        for name in pristine.list().unwrap() {
            let seg_len = pristine.read(&name).unwrap().len();
            // One deterministic position per segment (full sweeps are the
            // truncation test's job; corruption detection is positionless —
            // the CRC covers every byte equally).
            let pos = (seed as usize) % seg_len;
            let mem = pristine.clone_deep();
            mem.flip_byte(&name, pos);
            assert_clean_prefix(&mem, cfg, &records);
        }
    }

    /// A batched multi-record group commit is torn at **every** byte offset:
    /// the stream is written through `append_batch` (vectored multi-part
    /// records, whole groups landing under one fsync), and every cut of the
    /// result must recover to a checksum-clean prefix — a torn group loses
    /// only its torn suffix, never a middle record.
    #[test]
    fn every_truncation_of_a_batched_flush_recovers_a_clean_prefix(
        records in arb_records(),
        cfg in arb_config(),
        chunk in 1usize..8,
    ) {
        let pristine = write_stream_batched(&records, cfg, chunk);
        // Batched and per-record writes are byte-identical on media.
        prop_assert_eq!(
            assert_clean_prefix(&pristine, cfg, &records),
            records.len()
        );
        for name in pristine.list().unwrap() {
            let seg_len = pristine.read(&name).unwrap().len();
            let mut prev = usize::MAX;
            for cut in (0..seg_len).rev() {
                let mem = pristine.clone_deep();
                mem.chop(&name, cut);
                let kept = assert_clean_prefix(&mem, cfg, &records);
                prop_assert!(
                    kept <= prev,
                    "shrinking a cut in {} grew the prefix: {} then {}", name, prev, kept
                );
                prev = kept;
            }
        }
    }

    /// Batched and per-record write paths leave byte-identical media: the
    /// frame format does not depend on how records were handed to the log.
    #[test]
    fn batched_writes_match_per_record_bytes(
        records in arb_records(),
        cfg in arb_config(),
        chunk in 1usize..8,
    ) {
        let a = write_stream(&records, cfg);
        let b = write_stream_batched(&records, cfg, chunk);
        prop_assert_eq!(a.list().unwrap(), b.list().unwrap());
        for name in a.list().unwrap() {
            prop_assert_eq!(
                a.read(&name).unwrap(),
                b.read(&name).unwrap(),
                "segment {} differs between write paths", name
            );
        }
    }

    /// Whatever was fsynced before a crash must survive it: run with a
    /// batching policy, crash (drop unsynced bytes), and check the synced
    /// record count lower-bounds recovery.
    #[test]
    fn crash_preserves_all_synced_records(
        records in arb_records(),
        batch in 1usize..6,
        grouped in any::<bool>(),
    ) {
        // Grouped staging appends bytes unsynced; a crash must drop them
        // exactly like buffered ones — `read_all` (the durable set) and
        // post-crash recovery must agree either way.
        let flush = if grouped {
            FlushPolicy::Grouped { records: batch }
        } else {
            FlushPolicy::PerBatch { records: batch }
        };
        let cfg = LogConfig { segment_bytes: 256, flush };
        let mem = MemMedia::new();
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        for (wm, payload) in &records {
            log.append(*wm, payload).unwrap();
        }
        // What the store itself claims is durable right now (read_all only
        // sees flushed frames; the batching policy and rotation decide how
        // many that is).
        let synced = log.read_all().unwrap().len();
        drop(log);
        mem.crash();
        let kept = assert_clean_prefix(&mem, cfg, &records);
        prop_assert_eq!(
            kept, synced,
            "crash changed the durable set: kept {} vs claimed {}", kept, synced
        );
    }
}
