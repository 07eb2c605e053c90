//! Persistence-layer benchmarks: append throughput of the segmented log
//! across flush policies, the recovery scan that rebuilds state after a
//! crash, and whole-segment compaction below the checkpoint watermark.
//!
//! All groups run over `MemMedia` so they measure the framing/checksum/
//! segment-rotation machinery itself, not the host filesystem. Numbers and
//! methodology are recorded in EXPERIMENTS.md §logstore.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use logstore::{BatchRecord, FlushPolicy, LogConfig, LogStore, MemMedia};
use std::hint::black_box;
use std::time::Duration;

const PAYLOAD: usize = 256;

/// Steady-state append under each flush policy. The store is compacted
/// every 16 Ki records (everything below the running watermark is sealed
/// history) so the bench holds bounded memory at any duration.
fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("logstore/append");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    let policies: &[(&str, FlushPolicy)] = &[
        ("per_record", FlushPolicy::PerRecord),
        ("per_batch_16", FlushPolicy::PerBatch { records: 16 }),
        ("per_batch_256", FlushPolicy::PerBatch { records: 256 }),
    ];
    for &(name, flush) in policies {
        let cfg = LogConfig { segment_bytes: 64 * 1024, flush };
        let payload = vec![0xA5u8; PAYLOAD];
        let mut log = LogStore::open(Box::new(MemMedia::new()), cfg).expect("open");
        let mut w = 0u64;
        group.throughput(Throughput::Bytes(PAYLOAD as u64));
        group.bench_with_input(BenchmarkId::new(name, PAYLOAD), &PAYLOAD, |b, _| {
            b.iter(|| {
                w += 1;
                if w.is_multiple_of(16 * 1024) {
                    black_box(log.compact_below(w).expect("compact"));
                }
                log.append(w, &payload).expect("append")
            })
        });
    }
    group.finish();
}

/// The batched group-commit write path against the per-record baseline:
/// each iteration lands `BATCH` records (so rows are directly comparable),
/// either one `append`+fsync at a time or as a single vectored
/// `append_batch` under one group commit. Payloads are the small-record
/// sizes the acceptance bar targets (≤ 4 KiB); each record is handed over
/// as two scattered parts (a 24-byte "meta" prefix plus the payload) to
/// exercise the zero-copy vectored path the journal handles use. The
/// `journal_*` rows after them are the shapes `wfcr`'s journal really hands
/// down, through the same public call.
fn bench_append_batch(c: &mut Criterion) {
    const BATCH: usize = 32;
    let mut group = c.benchmark_group("logstore/append_batch");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    let meta = [0x11u8; 24];
    for &payload_len in &[256usize, 1024, 4096] {
        let payload = vec![0xA5u8; payload_len];
        group.throughput(Throughput::Bytes((BATCH * (meta.len() + payload_len)) as u64));

        // Baseline: one append + one fsync per record.
        let cfg = LogConfig { segment_bytes: 256 * 1024, flush: FlushPolicy::PerRecord };
        let mut log = LogStore::open(Box::new(MemMedia::new()), cfg).expect("open");
        let mut w = 0u64;
        group.bench_with_input(
            BenchmarkId::new("per_record", payload_len),
            &payload_len,
            |b, _| {
                b.iter(|| {
                    for _ in 0..BATCH {
                        w += 1;
                        if w.is_multiple_of(16 * 1024) {
                            black_box(log.compact_below(w).expect("compact"));
                        }
                        log.append_parts(w, &[&meta[..], &payload[..]]).expect("append");
                    }
                })
            },
        );

        // One vectored append_batch, one group-commit fsync for the batch.
        for (name, flush) in [
            ("batch_commit", FlushPolicy::PerBatch { records: BATCH }),
            ("batch_grouped", FlushPolicy::Grouped { records: BATCH }),
        ] {
            let cfg = LogConfig { segment_bytes: 256 * 1024, flush };
            let mut log = LogStore::open(Box::new(MemMedia::new()), cfg).expect("open");
            let mut w = 0u64;
            group.bench_with_input(BenchmarkId::new(name, payload_len), &payload_len, |b, _| {
                b.iter(|| {
                    if w.is_multiple_of(16 * 1024) && w > 0 {
                        black_box(log.compact_below(w).expect("compact"));
                    }
                    let watermarks: Vec<u64> = (1..=BATCH as u64).map(|i| w + i).collect();
                    w += BATCH as u64;
                    let parts: Vec<[&[u8]; 2]> =
                        (0..BATCH).map(|_| [&meta[..], &payload[..]]).collect();
                    let batch: Vec<BatchRecord<'_>> = watermarks
                        .iter()
                        .zip(&parts)
                        .map(|(&wm, p)| BatchRecord { watermark: wm, parts: p })
                        .collect();
                    log.append_batch(&batch).expect("append_batch")
                })
            });
        }
    }

    // The journal's own hand-offs under its own policy: a group of gets
    // (meta only), a group of 512 B block-puts and a step of 256 KiB ones,
    // each record an encoded ~100 B prefix plus the payload's bytes as a
    // second part. Bytes per second here is the write side's framing rate
    // (header, four-abreast CRC, one vectored copy into `MemMedia`).
    const META: usize = 100;
    for (name, records, payload_len) in [
        ("journal_gets", 16usize, 0usize),
        ("journal_puts", 16, 512),
        ("journal_bulk", 4, 256 * 1024),
    ] {
        let metas: Vec<Vec<u8>> = (0..records).map(|r| vec![0x11 ^ r as u8; META]).collect();
        let payloads: Vec<Vec<u8>> =
            (0..records).map(|r| vec![0xA5 ^ r as u8; payload_len]).collect();
        let parts: Vec<[&[u8]; 2]> =
            metas.iter().zip(&payloads).map(|(m, p)| [&m[..], &p[..]]).collect();
        let mut batch: Vec<BatchRecord<'_>> =
            parts.iter().map(|p| BatchRecord { watermark: 0, parts: p }).collect();
        let bytes = records * (META + payload_len);
        // Compact about every 16 MiB so the media holds a few segments at most.
        let compact_every = ((16 << 20) / bytes).max(1) as u64;
        let cfg = LogConfig { segment_bytes: 4 << 20, flush: FlushPolicy::Grouped { records: 16 } };
        let mut log = LogStore::open(Box::new(MemMedia::new()), cfg).expect("open");
        let mut w = 0u64;
        group.throughput(Throughput::Bytes(bytes as u64));
        group.bench_with_input(BenchmarkId::new(name, payload_len), &payload_len, |b, _| {
            b.iter(|| {
                w += 1;
                if w.is_multiple_of(compact_every) {
                    black_box(log.compact_below(w).expect("compact"));
                }
                batch.iter_mut().for_each(|r| r.watermark = w);
                log.append_batch(&batch).expect("append_batch")
            })
        });
    }
    group.finish();
}

/// The same comparison over real files (`FsMedia`, real `fsync`): this is
/// where group commit earns its keep — the per-record baseline pays one
/// fsync per record, the batch paths one per 32, and `Grouped` defers even
/// that off the append path. Uses a scratch directory under the system temp
/// dir; small sample counts because each baseline iteration is 32 fsyncs.
fn bench_append_batch_fs(c: &mut Criterion) {
    const BATCH: usize = 32;
    let mut group = c.benchmark_group("logstore/append_batch_fs");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    let meta = [0x11u8; 24];
    let payload_len = 4096usize;
    let payload = vec![0xA5u8; payload_len];
    group.throughput(Throughput::Bytes((BATCH * (meta.len() + payload_len)) as u64));
    let root = std::env::temp_dir().join(format!("logstore-bench-{}", std::process::id()));
    let variants: &[(&str, FlushPolicy)] = &[
        ("per_record", FlushPolicy::PerRecord),
        ("batch_commit", FlushPolicy::PerBatch { records: BATCH }),
        ("batch_grouped", FlushPolicy::Grouped { records: BATCH }),
    ];
    for &(name, flush) in variants {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let media = logstore::FsMedia::new(&dir).expect("fs media");
        let cfg = LogConfig { segment_bytes: 4 * 1024 * 1024, flush };
        let mut log = LogStore::open(Box::new(media), cfg).expect("open");
        let mut w = 0u64;
        group.bench_with_input(BenchmarkId::new(name, payload_len), &payload_len, |b, _| {
            b.iter(|| {
                if w.is_multiple_of(4 * 1024) && w > 0 {
                    black_box(log.compact_below(w).expect("compact"));
                }
                match flush {
                    FlushPolicy::PerRecord => {
                        for _ in 0..BATCH {
                            w += 1;
                            log.append_parts(w, &[&meta[..], &payload[..]]).expect("append");
                        }
                    }
                    _ => {
                        let watermarks: Vec<u64> = (1..=BATCH as u64).map(|i| w + i).collect();
                        w += BATCH as u64;
                        let parts: Vec<[&[u8]; 2]> =
                            (0..BATCH).map(|_| [&meta[..], &payload[..]]).collect();
                        let batch: Vec<logstore::BatchRecord<'_>> = watermarks
                            .iter()
                            .zip(&parts)
                            .map(|(&wm, p)| BatchRecord { watermark: wm, parts: p })
                            .collect();
                        log.append_batch(&batch).expect("append_batch");
                    }
                }
            })
        });
    }
    let _ = std::fs::remove_dir_all(&root);
    group.finish();
}

/// The cold-restart scan: open a clean `n`-record log and hand out every
/// durable record (`records`, the fixed cost a staging server pays before it
/// can serve its first post-crash request — the open's scan is the read),
/// and beside it the re-read any later `read_all` pays (`reread_records`).
fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("logstore/recovery_scan");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    let cfg =
        LogConfig { segment_bytes: 64 * 1024, flush: FlushPolicy::PerBatch { records: 1024 } };
    for &n in &[1_000u64, 10_000, 100_000] {
        let media = MemMedia::new();
        {
            let mut log = LogStore::open(Box::new(media.clone()), cfg).expect("open");
            let payload = vec![0x5Au8; PAYLOAD];
            for w in 1..=n {
                log.append(w, &payload).expect("append");
            }
            log.flush().expect("flush");
        }
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("records", n), &n, |b, _| {
            b.iter(|| {
                // The log is clean, so the scan is read-only and the shared
                // media can be reopened every iteration.
                let log = LogStore::open(Box::new(media.clone()), cfg).expect("reopen");
                let recs = log.read_all().expect("read_all");
                assert_eq!(recs.len() as u64, n);
                black_box(recs.len())
            })
        });
        // The same records read back from the media by a log whose scan
        // buffers are already spent: what every `read_all` but the first
        // costs (one media read, one CRC pass, no open).
        let log = LogStore::open(Box::new(media.clone()), cfg).expect("reopen");
        drop(log.read_all().expect("first read_all"));
        group.bench_with_input(BenchmarkId::new("reread_records", n), &n, |b, _| {
            b.iter(|| {
                let recs = log.read_all().expect("read_all");
                assert_eq!(recs.len() as u64, n);
                black_box(recs.len())
            })
        });
    }
    group.finish();
}

/// Watermark compaction over an `n`-record log split into 4 KiB segments:
/// one call retires every sealed segment below the floor.
fn bench_compaction(c: &mut Criterion) {
    let mut group = c.benchmark_group("logstore/compact_below");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    let cfg = LogConfig { segment_bytes: 4 * 1024, flush: FlushPolicy::PerBatch { records: 1024 } };
    for &n in &[1_000u64, 10_000] {
        let media = MemMedia::new();
        {
            let mut log = LogStore::open(Box::new(media.clone()), cfg).expect("open");
            let payload = vec![0x3Cu8; PAYLOAD];
            for w in 1..=n {
                log.append(w, &payload).expect("append");
            }
            log.flush().expect("flush");
        }
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("records", n), &n, |b, _| {
            b.iter(|| {
                // Compaction mutates the media, so each iteration works on a
                // deep copy of the prefilled log (copy cost is part of the
                // measured loop but identical across the sweep).
                let copy = media.clone_deep();
                let mut log = LogStore::open(Box::new(copy), cfg).expect("reopen");
                black_box(log.compact_below(n).expect("compact"))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_append,
    bench_append_batch,
    bench_append_batch_fs,
    bench_recovery,
    bench_compaction
);
criterion_main!(benches);
