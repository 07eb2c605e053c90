//! Journal entry codec benchmarks: the binary wire format of both entry
//! types — the staging store journal's and the wfcr event journal's. Encode
//! and decode are measured separately so the write path (encode + the
//! zero-copy meta/payload split) and the recovery path (decode) are visible
//! on their own. Numbers land in EXPERIMENTS.md §journal_codec; the JSON
//! column there is the historical PR 6 measurement of a codec that has since
//! been deleted.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use staging::geometry::BBox;
use staging::journal::WireEntry;
use staging::payload::Payload;
use staging::proto::ObjDesc;
use staging::store_journal::StoreJournalEntry;
use std::hint::black_box;
use std::time::Duration;
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

criterion_group!(benches, bench_encode, bench_decode);
criterion_main!(benches);
