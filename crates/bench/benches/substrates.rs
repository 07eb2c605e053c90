//! Micro-benchmarks for the substrate layers: GF(256)/Reed–Solomon coding,
//! Morton encoding and domain decomposition, the versioned store, the
//! event-queue/replay machinery, and the metrics registry's gauge write.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use resilience::rs::ReedSolomon;
use sim_core::metrics::{GaugeId, Metrics};
use staging::dist::Distribution;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::ObjDesc;
use staging::sfc::morton3;
use staging::store::VersionedStore;
use std::hint::black_box;
use wfcr::event::LogEvent;
use wfcr::queue::EventQueue;

fn bench_rs(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_coding");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &shard_len in &[4usize << 10, 64 << 10] {
        let rs = ReedSolomon::new(8, 2);
        let data: Vec<Vec<u8>> = (0..8)
            .map(|i| (0..shard_len).map(|j| ((i * 31 + j * 7) % 251) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        group.throughput(Throughput::Bytes((shard_len * 8) as u64));
        group.bench_with_input(BenchmarkId::new("encode_8_2", shard_len), &shard_len, |b, _| {
            b.iter(|| black_box(rs.encode(&refs).unwrap()))
        });
        let parity = rs.encode(&refs).unwrap();
        group.bench_with_input(
            BenchmarkId::new("reconstruct_2_losses", shard_len),
            &shard_len,
            |b, _| {
                b.iter(|| {
                    let mut shards: Vec<Option<Vec<u8>>> = data
                        .iter()
                        .cloned()
                        .map(Some)
                        .chain(parity.iter().cloned().map(Some))
                        .collect();
                    shards[0] = None;
                    shards[5] = None;
                    rs.reconstruct(&mut shards).unwrap();
                    black_box(shards)
                })
            },
        );
    }
    group.finish();
}

fn bench_geometry(c: &mut Criterion) {
    let mut group = c.benchmark_group("geometry");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("morton3", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) & 0xFFFFF;
            black_box(morton3(i, i ^ 0x55555, i ^ 0x33333))
        })
    });
    let dist = Distribution::new(BBox::whole([2048, 1024, 1024]), [256, 256, 256], 1024);
    group.bench_function("blocks_overlapping_full_domain", |b| {
        let q = BBox::whole([2048, 1024, 1024]);
        b.iter(|| black_box(dist.blocks_overlapping(&q)))
    });
    group.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("versioned_store");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("put_query_cycle", |b| {
        let mut store = VersionedStore::bounded(4);
        let mut v = 0u32;
        b.iter(|| {
            v += 1;
            store.put(
                ObjDesc { var: 0, version: v, bbox: BBox::d1(0, 4095) },
                Payload::virtual_from(32 << 10, &[v as u64]),
            );
            black_box(store.query(0, v, &BBox::d1(1024, 3071)))
        })
    });
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("push_and_gc", |b| {
        let mut q = EventQueue::new();
        let mut v = 0u32;
        b.iter(|| {
            v += 1;
            q.push(LogEvent::Put {
                app: 0,
                desc: ObjDesc { var: 0, version: v, bbox: BBox::d1(0, 1023) },
                bytes: 1 << 20,
                digest: v as u64,
            });
            if v.is_multiple_of(16) {
                q.push(LogEvent::Checkpoint { app: 0, w_chk_id: v as u64, upto_version: v });
                black_box(q.truncate_through(v));
            }
        })
    });
    group.bench_function("replay_script_1k_events", |b| {
        let mut q = EventQueue::new();
        for v in 1..=1000u32 {
            q.push(LogEvent::Put {
                app: 0,
                desc: ObjDesc { var: 0, version: v, bbox: BBox::d1(0, 1023) },
                bytes: 1 << 20,
                digest: v as u64,
            });
        }
        b.iter(|| black_box(q.replay_script(500)))
    });
    group.finish();
}

/// One gauge write in a registry the size Table III's largest scale builds
/// (4 gauges × 1 024 servers): found by name, as a cold call site does,
/// against through a handle, as the per-request paths do.
fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics/gauge_set");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let names: Vec<String> = (0..1024)
        .flat_map(|i| {
            ["qdepth", "bytes", "get_waits", "log_events"].map(|g| format!("staging.server{i}.{g}"))
        })
        .collect();
    let mut m = Metrics::new();
    let ids: Vec<GaugeId> = names.iter().map(|n| m.gauge_id(n)).collect();
    group.bench_function("by_name", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % names.len();
            m.gauge_set(black_box(&names[i]), i as i64)
        })
    });
    group.bench_function("by_handle", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % ids.len();
            m.gauge_set_id(black_box(ids[i]), i as i64)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rs, bench_geometry, bench_store, bench_event_queue, bench_metrics);
criterion_main!(benches);
