//! Journal entry codec benchmarks: the binary wire format of both entry
//! types — the staging store journal's and the wfcr event journal's. Encode
//! and decode are measured separately so the write path (encode + the
//! zero-copy meta/payload split) and the recovery path (decode) are visible
//! on their own. Numbers land in EXPERIMENTS.md §journal_codec; the JSON
//! column there is the historical PR 6 measurement of a codec that has since
//! been deleted. `rebuild` is the recovery path whole: one server's record
//! stream through the rebuild's reader and `from_journal`, against how much
//! history the journal still holds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use logstore::{FlushPolicy, LogConfig, LogStore, MemMedia, Record};
use staging::geometry::BBox;
use staging::journal::WireEntry;
use staging::payload::Payload;
use staging::proto::{CtlRequest, GetRequest, ObjDesc, PutRequest, Version};
use staging::service::StoreBackend;
use staging::store_journal::StoreJournalEntry;
use std::hint::black_box;
use std::time::Duration;
use wfcr::backend::LoggingBackend;
use wfcr::journal::JournalEntry;

fn store_put(payload_len: usize) -> StoreJournalEntry {
    StoreJournalEntry::Put {
        desc: ObjDesc { var: 3, version: 41, bbox: BBox::d1(0, 1023) },
        payload: Payload::inline(vec![0xA5u8; payload_len]),
    }
}

fn wfcr_put(payload_len: usize) -> JournalEntry {
    let payload = Payload::inline(vec![0xA5u8; payload_len]);
    JournalEntry::Put {
        app: 0,
        desc: ObjDesc { var: 3, version: 41, bbox: BBox::d1(0, 1023) },
        digest: payload.digest(),
        payload,
    }
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("journal_codec/encode");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    for &len in &[256usize, 4096] {
        let store = store_put(len);
        let wfcr = wfcr_put(len);
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("store_binary", len), &len, |b, _| {
            b.iter(|| black_box(store.encode()))
        });
        // The write path proper never concatenates: the meta prefix goes
        // into a reused scratch and the payload Bytes ride as a separate
        // vectored part. This row is the true per-entry encode cost.
        let mut scratch = Vec::new();
        group.bench_with_input(BenchmarkId::new("store_binary_scatter", len), &len, |b, _| {
            b.iter(|| {
                scratch.clear();
                store.encode_meta_into(&mut scratch);
                black_box((scratch.len(), store.inline_payload().map(|p| p.len())))
            })
        });
        group.bench_with_input(BenchmarkId::new("wfcr_binary", len), &len, |b, _| {
            b.iter(|| black_box(wfcr.encode()))
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("journal_codec/decode");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    for &len in &[256usize, 4096] {
        let store = store_put(len);
        let wfcr = wfcr_put(len);
        let store_bin = store.encode();
        let wfcr_bin = wfcr.encode();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("store_binary", len), &len, |b, _| {
            b.iter(|| black_box(StoreJournalEntry::decode(&store_bin).expect("decode")))
        });
        group.bench_with_input(BenchmarkId::new("wfcr_binary", len), &len, |b, _| {
            b.iter(|| black_box(JournalEntry::decode(&wfcr_bin).expect("decode")))
        });
    }
    group.finish();
}

/// What one server's journal holds after `steps` steps of a two-component
/// run that nothing compacted: a step is 64 × 512 B puts by component 0 and
/// 64 gets by component 1, and both checkpoint every 32 steps.
fn history(steps: Version) -> Vec<Record> {
    const BLOCKS: u64 = 64;
    const BLOCK_BYTES: u64 = 512;
    let cfg = LogConfig { segment_bytes: u64::MAX, flush: FlushPolicy::PerBatch { records: 16 } };
    let media = MemMedia::new();
    let mut b = LoggingBackend::new();
    b.register_app(0);
    b.register_app(1);
    b.attach_journal(Box::new(LogStore::open(Box::new(media.clone()), cfg).expect("open")));
    for version in 1..=steps {
        let block = |i: u64| BBox::d1(i * BLOCK_BYTES, (i + 1) * BLOCK_BYTES - 1);
        for i in 0..BLOCKS {
            b.put(&PutRequest {
                app: 0,
                desc: ObjDesc { var: 0, version, bbox: block(i) },
                payload: Payload::inline(vec![(version as u8) ^ (i as u8); BLOCK_BYTES as usize]),
                seq: 0,
                tctx: obs::TraceCtx::NONE,
            });
        }
        for i in 0..BLOCKS {
            let tctx = obs::TraceCtx::NONE;
            b.get(&GetRequest { app: 1, var: 0, version, bbox: block(i), seq: 0, tctx });
        }
        if version % 32 == 0 {
            b.control(CtlRequest::Checkpoint { app: 0, upto_version: version });
            b.control(CtlRequest::Checkpoint { app: 1, upto_version: version });
        }
    }
    b.flush_journal();
    drop(b);
    LogStore::open(Box::new(media), cfg).expect("reopen").read_all().expect("read_all")
}

/// The rebuild half of a cold restart, per restart: what is live is the same
/// at every `steps` (the last checkpoint period), what the journal holds is
/// not.
fn bench_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("journal_codec/rebuild");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    for &steps in &[64u32, 256, 1024] {
        let records = history(steps);
        group.bench_with_input(BenchmarkId::new("steps", steps), &steps, |b, _| {
            b.iter(|| {
                let entries = wfcr::journal::decode_records(&records);
                black_box(LoggingBackend::from_journal(entries, &[0, 1]))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode, bench_rebuild);
criterion_main!(benches);
