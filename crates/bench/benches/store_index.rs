//! Staging hot-path index benchmarks: the block-keyed piece index
//! (`VersionedStore`) against the seed's linear scan (`LinearStore`), plus
//! the version-ordered event queue's replay-window and GC operations and the
//! replay manager consuming such a window.
//!
//! Shapes mirror production traffic: block-aligned `[8,8,8]` pieces tiling a
//! cubic domain, single-block queries and re-puts (the per-block requests
//! `plan_put`/`plan_get` issue), replay windows near the log tail, and a
//! steady-state GC sweep. Methodology and before/after numbers are recorded
//! in EXPERIMENTS.md §store_index.

#[path = "../../staging/tests/support/linear_store.rs"]
mod linear_store;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use linear_store::LinearStore;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{ObjDesc, Version};
use staging::store::VersionedStore;
use std::hint::black_box;
use std::time::Duration;
use wfcr::event::LogEvent;
use wfcr::queue::EventQueue;
use wfcr::replay::ReplayManager;

const BLOCK: u64 = 8;

/// The lower corners of `n` block-aligned pieces tiling a cube.
fn block_corners(n: usize) -> Vec<[u64; 3]> {
    let side = (1..).find(|s: &u64| s * s * s >= n as u64).unwrap();
    let mut out = Vec::with_capacity(n);
    'outer: for x in 0..side {
        for y in 0..side {
            for z in 0..side {
                if out.len() == n {
                    break 'outer;
                }
                out.push([x * BLOCK, y * BLOCK, z * BLOCK]);
            }
        }
    }
    out
}

fn piece_bbox(corner: [u64; 3]) -> BBox {
    BBox::d3(corner, [corner[0] + BLOCK - 1, corner[1] + BLOCK - 1, corner[2] + BLOCK - 1])
}

fn payload_for(corner: [u64; 3]) -> Payload {
    Payload::Virtual { len: BLOCK * BLOCK * BLOCK, digest: corner[0] ^ corner[1] ^ corner[2] }
}

fn fill_indexed(corners: &[[u64; 3]], version: Version) -> VersionedStore {
    let mut s = VersionedStore::unbounded();
    for &c in corners {
        s.put(ObjDesc { var: 0, version, bbox: piece_bbox(c) }, payload_for(c));
    }
    s
}

fn fill_linear(corners: &[[u64; 3]], version: Version) -> LinearStore {
    let mut s = LinearStore::unbounded();
    for &c in corners {
        s.put(ObjDesc { var: 0, version, bbox: piece_bbox(c) }, payload_for(c));
    }
    s
}

/// Re-put of one block into a version already holding `n` pieces — the
/// dedup probe that was O(n) under the linear scan and is O(1) indexed.
fn bench_put(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_index/put");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    for &n in &[1_000usize, 10_000, 100_000] {
        let corners = block_corners(n);
        group.throughput(Throughput::Elements(1));

        let mut indexed = fill_indexed(&corners, 1);
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| {
                i = (i + 7919) % corners.len();
                let c = corners[i];
                black_box(
                    indexed
                        .put(ObjDesc { var: 0, version: 1, bbox: piece_bbox(c) }, payload_for(c)),
                )
            })
        });

        let mut linear = fill_linear(&corners, 1);
        let mut j = 0usize;
        group.bench_with_input(BenchmarkId::new("linear", n), &n, |b, _| {
            b.iter(|| {
                j = (j + 7919) % corners.len();
                let c = corners[j];
                black_box(
                    linear.put(ObjDesc { var: 0, version: 1, bbox: piece_bbox(c) }, payload_for(c)),
                )
            })
        });
    }
    // The linear scan is too slow to bother measuring at 10^6; record the
    // indexed store alone to show it stays flat.
    {
        let corners = block_corners(1_000_000);
        let mut indexed = fill_indexed(&corners, 1);
        let mut i = 0usize;
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("indexed", 1_000_000u64), &1_000_000u64, |b, _| {
            b.iter(|| {
                i = (i + 7919) % corners.len();
                let c = corners[i];
                black_box(
                    indexed
                        .put(ObjDesc { var: 0, version: 1, bbox: piece_bbox(c) }, payload_for(c)),
                )
            })
        });
    }
    group.finish();
}

/// Single-block region query (the per-block `plan_get` request) plus the
/// `get_ready` coverage probe, against a version holding `n` pieces.
fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_index/query");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    for &n in &[1_000usize, 10_000, 100_000] {
        let corners = block_corners(n);
        group.throughput(Throughput::Elements(1));

        let indexed = fill_indexed(&corners, 1);
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| {
                i = (i + 7919) % corners.len();
                let q = piece_bbox(corners[i]);
                black_box(indexed.covers_fully(0, 1, &q));
                black_box(indexed.query(0, 1, &q))
            })
        });

        let linear = fill_linear(&corners, 1);
        let mut j = 0usize;
        group.bench_with_input(BenchmarkId::new("linear", n), &n, |b, _| {
            b.iter(|| {
                j = (j + 7919) % corners.len();
                let q = piece_bbox(corners[j]);
                black_box(linear.covers_fully(0, 1, &q));
                black_box(linear.query(0, 1, &q))
            })
        });
    }
    {
        let corners = block_corners(1_000_000);
        let indexed = fill_indexed(&corners, 1);
        let mut i = 0usize;
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("indexed", 1_000_000u64), &1_000_000u64, |b, _| {
            b.iter(|| {
                i = (i + 7919) % corners.len();
                let q = piece_bbox(corners[i]);
                black_box(indexed.covers_fully(0, 1, &q));
                black_box(indexed.query(0, 1, &q))
            })
        });
    }
    group.finish();
}

fn transport_desc(version: Version) -> ObjDesc {
    ObjDesc { var: 0, version, bbox: BBox::d1(0, 1023) }
}

fn transport_event(version: Version) -> LogEvent {
    LogEvent::Put { app: 0, desc: transport_desc(version), bytes: 1 << 20, digest: version as u64 }
}

/// Replay-window extraction near the tail of an `n`-event log: the indexed
/// queue binary-searches the window; the baseline is the seed's full-scan
/// filter over the same events.
fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_index/replay_window");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    for &n in &[1_000u32, 10_000, 100_000, 1_000_000] {
        let mut q = EventQueue::new();
        let mut flat: Vec<LogEvent> = Vec::with_capacity(n as usize);
        for v in 1..=n {
            q.push(transport_event(v));
            flat.push(transport_event(v));
        }
        let resume = n - 16; // a 16-event replay window at the tail
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| black_box(q.replay_script(resume)))
        });
        group.bench_with_input(BenchmarkId::new("linear", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    flat.iter()
                        .filter(|ev| ev.is_transport() && ev.version() > resume)
                        .copied()
                        .collect::<Vec<_>>(),
                )
            })
        });
    }
    group.finish();
}

/// Consuming a `k`-entry replay script in logged order, the way a
/// deterministic re-execution does: one iteration is `begin` plus `k`
/// absorbed re-puts, so the elem/s column is replayed requests per second —
/// flat in `k` when a request is matched at the script's cursor.
fn bench_replay_match(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_index/replay_match");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    for &k in &[64u32, 1_024, 16_384] {
        let script: Vec<LogEvent> = (1..=k).map(transport_event).collect();
        let descs: Vec<ObjDesc> = (1..=k).map(transport_desc).collect();
        let mut replay = ReplayManager::new();
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("in_order", k), &k, |b, _| {
            b.iter(|| {
                replay.begin(0, 0, script.clone());
                for desc in &descs {
                    black_box(replay.on_put(0, desc, desc.version as u64));
                }
                assert!(!replay.is_replaying(0), "every entry matched");
            })
        });
    }
    group.finish();
}

/// A fresh version after a full one: each iteration puts 64 blocks into a
/// new version of a variable whose newest version holds 64 — the stream's
/// step, which the store sizes from that predecessor at the first put.
/// Retention keeps two versions, so each iteration also drops one.
fn bench_fresh_version(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_index/fresh_version");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    let corners = block_corners(64);
    group.throughput(Throughput::Elements(corners.len() as u64));
    let mut store = VersionedStore::bounded(2);
    let mut v = 0u32;
    let mut step = |store: &mut VersionedStore| {
        v += 1;
        for &c in &corners {
            store.put(ObjDesc { var: 0, version: v, bbox: piece_bbox(c) }, payload_for(c));
        }
    };
    step(&mut store);
    group.bench_function("indexed/64", |b| {
        b.iter(|| {
            step(&mut store);
            black_box(store.bytes())
        })
    });
    group.finish();
}

/// Steady-state GC sweep: each cycle writes one new version and drops the
/// oldest from a `window`-version working set via a prefix-range removal.
fn bench_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_index/gc_sweep");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    let pieces_per_version = 64;
    let corners = block_corners(pieces_per_version);
    for &window in &[16u32, 256] {
        group.throughput(Throughput::Elements(pieces_per_version as u64));

        let mut indexed = VersionedStore::unbounded();
        let mut v = 0u32;
        group.bench_with_input(BenchmarkId::new("indexed", window), &window, |b, _| {
            b.iter(|| {
                v += 1;
                for &c in &corners {
                    indexed
                        .put(ObjDesc { var: 0, version: v, bbox: piece_bbox(c) }, payload_for(c));
                }
                black_box(indexed.remove_older_than(0, v.saturating_sub(window)))
            })
        });

        let mut linear = LinearStore::unbounded();
        let mut w = 0u32;
        group.bench_with_input(BenchmarkId::new("linear", window), &window, |b, _| {
            b.iter(|| {
                w += 1;
                for &c in &corners {
                    linear.put(ObjDesc { var: 0, version: w, bbox: piece_bbox(c) }, payload_for(c));
                }
                black_box(linear.remove_older_than(0, w.saturating_sub(window)))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_put,
    bench_query,
    bench_replay,
    bench_replay_match,
    bench_fresh_version,
    bench_gc
);
criterion_main!(benches);
