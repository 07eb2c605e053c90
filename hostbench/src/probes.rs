//! Isolated probes: the workloads' own generated requests pushed, on one
//! thread, through one layer's public functions at a time. They put in one
//! JSON what the Criterion benches measure apart, under the names the
//! README's layer → end-to-end table uses; they replace none of those
//! benches.
//!
//! Every probe runs batches until its budget is spent and reports the median
//! batch. `hostbench layers` gives each probe a second; a traced run gives
//! each a few dozen milliseconds, enough to say which way a layer moved.

use crate::des::sweep_configs;
use crate::fleet::{router, CONSUMER, PRODUCER};
use crate::gen::Pool;
use crate::report::Metrics;
use crate::spec::{self, Shape, COALESCE, SEGMENT_BYTES};
use crate::stats::median;
use ckpt::{CheckpointStore, DurableTier, Snapshot};
use logstore::checksum::Crc32;
use logstore::{BatchRecord, FlushPolicy, FsMedia, LogConfig, LogStore, MemMedia};
use net::cost::CostModel;
use net::des::{Delivered, Network, NetworkHandle};
use net::threaded::ThreadedNet;
use sim_core::{Actor, ActorId, Ctx, Engine, Event, SimTime};
use staging::geometry::BBox;
use staging::proto::{CtlRequest, GetRequest, PutRequest, Version};
use staging::server::{plan_get_routed, plan_put_with_routed};
use staging::service::{PlainBackend, ServerCosts, ServerLogic};
use staging::store::VersionedStore;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};
use wfcr::backend::LoggingBackend;
use wfcr::journal::JournalEntry;
use workflow::config::{TelemetryCfg, TraceCfg, WorkflowConfig};
use workflow::runner::run;

/// Runs batches until the budget is spent (at least three) and reports the
/// median of what each batch measured.
struct Bench {
    budget: Duration,
    out: Metrics,
}

impl Bench {
    /// `batch` returns (operations, time they took); reports ns per operation.
    fn ns_per_op(&mut self, name: &str, mut batch: impl FnMut() -> (u64, Duration)) {
        self.median_of(name, move || {
            let (ops, took) = batch();
            took.as_nanos() as f64 / ops.max(1) as f64
        });
    }

    fn median_of(&mut self, name: &str, mut sample: impl FnMut() -> f64) {
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3 || start.elapsed() < self.budget {
            samples.push(sample());
        }
        let n = samples.len();
        self.out.set(name, spec::unit_of(name), median(&mut samples), n);
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

fn stream_shape() -> Shape {
    spec::workload("stream_mem").and_then(|w| w.shape).expect("stream_mem has a shape")
}

/// Planned block requests of `versions` consecutive versions, with sequence
/// numbers continuing from `seq`.
fn planned_puts(
    pool: &Pool,
    shape: &Shape,
    from: Version,
    versions: u32,
    seq: &mut u64,
) -> Vec<PutRequest> {
    let r = router(shape);
    let whole = BBox::whole([shape.domain; 3]);
    let mut out = Vec::new();
    for v in from..from + versions {
        let reqs = plan_put_with_routed(&r, PRODUCER, 0, v, &whole, *seq, pool.fill(v));
        *seq += reqs.len() as u64;
        out.extend(reqs.into_iter().map(|(_, req)| req));
    }
    out
}

fn planned_gets(shape: &Shape, from: Version, versions: u32, seq: &mut u64) -> Vec<GetRequest> {
    let r = router(shape);
    let whole = BBox::whole([shape.domain; 3]);
    let mut out = Vec::new();
    for v in from..from + versions {
        let reqs = plan_get_routed(&r, CONSUMER, 0, v, &whole, *seq);
        *seq += reqs.len() as u64;
        out.extend(reqs.into_iter().map(|(_, req)| req));
    }
    out
}

fn staging_probes(b: &mut Bench, pool: &Pool, bulk: &Pool) {
    let shape = stream_shape();
    let r = router(&shape);
    let whole = BBox::whole([shape.domain; 3]);
    let mut v: Version = 0;
    b.ns_per_op("staging.plan_put_ns", || {
        let ((), took) = timed(|| {
            for _ in 0..64 {
                v += 1;
                black_box(plan_put_with_routed(&r, PRODUCER, 0, v, &whole, 0, pool.fill(v)));
            }
        });
        (64, took)
    });
    b.ns_per_op("staging.plan_get_ns", || {
        let ((), took) = timed(|| {
            for _ in 0..64 {
                v += 1;
                black_box(plan_get_routed(&r, CONSUMER, 0, v, &whole, 0));
            }
        });
        (64, took)
    });
    let history = r.history().expect("sharded router").clone();
    let codes = r.dist().codes().to_vec();
    b.ns_per_op("shardmap.owner_at_ns", || {
        let ((), took) = timed(|| {
            for round in 0..64u64 {
                for &code in &codes {
                    black_box(history.owner_at(black_box(code), round));
                }
            }
        });
        (64 * codes.len() as u64, took)
    });

    let (mut seq, mut next) = (0u64, 1u32);
    let mut plain = ServerLogic::new(PlainBackend::new(8), ServerCosts::default());
    b.ns_per_op("staging.service_put_ns", || {
        let reqs = planned_puts(pool, &shape, next, 16, &mut seq);
        next += 16;
        let ((), took) = timed(|| {
            for req in &reqs {
                black_box(plain.handle_put(req));
            }
        });
        (reqs.len() as u64, took)
    });
    let mut store = VersionedStore::bounded(8);
    let mut next = 1u32;
    b.ns_per_op("staging.store_put_ns", || {
        let reqs = planned_puts(pool, &shape, next, 16, &mut seq);
        next += 16;
        let ((), took) = timed(|| {
            for req in &reqs {
                black_box(store.put(req.desc, req.payload.clone()));
            }
        });
        (reqs.len() as u64, took)
    });
    let newest = next - 1;
    let blocks: Vec<BBox> =
        planned_gets(&shape, newest, 1, &mut seq).iter().map(|g| g.bbox).collect();
    b.ns_per_op("staging.store_query_ns", || {
        let ((), took) = timed(|| {
            for _ in 0..16 {
                for bbox in &blocks {
                    black_box(store.query(0, newest, bbox));
                }
            }
        });
        (16 * blocks.len() as u64, took)
    });
    let payloads = bulk.slot_payloads(0);
    let mib = payloads.iter().map(|p| p.len()).sum::<u64>() as f64 / (1 << 20) as f64;
    b.median_of("staging.payload_digest_mib_s", || {
        let ((), took) = timed(|| {
            for p in payloads {
                black_box(black_box(p).digest());
            }
        });
        mib / took.as_secs_f64()
    });
}

fn rtt_probe(b: &mut Bench) {
    struct Stop;
    let mut eps = ThreadedNet::mesh(2);
    let echo = eps.pop().expect("two endpoints");
    let ping = eps.pop().expect("two endpoints");
    let echo_thread = std::thread::spawn(move || {
        while let Some(msg) = echo.recv() {
            if msg.payload.is::<Stop>() {
                break;
            }
            echo.send(0, msg.size, 0u64);
        }
    });
    b.median_of("net.threaded_rtt_us", || {
        let ((), took) = timed(|| {
            for i in 0..256u64 {
                ping.send(1, 64, i);
                black_box(ping.recv());
            }
        });
        took.as_secs_f64() * 1e6 / 256.0
    });
    ping.send_reliable(1, 64, Stop);
    echo_thread.join().expect("echo thread panicked");
}

/// `wfcr` through `ServerLogic<LoggingBackend>`: eight versions of normal
/// puts and gets after a checkpoint, then the consumer and the producer each
/// roll back to it and re-execute.
fn wfcr_probes(b: &mut Bench, pool: &Pool) {
    let shape = stream_shape();
    let mut backend = LoggingBackend::new();
    backend.register_app(PRODUCER);
    backend.register_app(CONSUMER);
    let mut logic = ServerLogic::new(backend, ServerCosts::default());
    let (mut seq, mut c) = (0u64, 0u32);
    let mut samples: [Vec<f64>; 4] = Default::default();
    let start = Instant::now();
    while samples[0].len() < 3 || start.elapsed() < b.budget * 4 {
        let puts = planned_puts(pool, &shape, c + 1, 8, &mut seq);
        let gets = planned_gets(&shape, c + 1, 8, &mut seq);
        let n = puts.len() as f64;
        let per_version = puts.len() / 8;
        let (mut put_t, mut get_t) = (Duration::ZERO, Duration::ZERO);
        for v in 0..8 {
            let range = v * per_version..(v + 1) * per_version;
            put_t += timed(|| {
                for req in &puts[range.clone()] {
                    black_box(logic.handle_put(req));
                }
            })
            .1;
            get_t += timed(|| {
                for req in &gets[range.clone()] {
                    black_box(logic.handle_get(req));
                }
            })
            .1;
        }
        // Re-issued requests carry fresh sequence numbers, as a restarted
        // client's would.
        let regets = planned_gets(&shape, c + 1, 8, &mut seq);
        logic.handle_ctl(CtlRequest::Recovery { app: CONSUMER, resume_version: c });
        let replay_t = timed(|| {
            for req in &regets {
                black_box(logic.handle_get(req));
            }
        })
        .1;
        let reputs = planned_puts(pool, &shape, c + 1, 8, &mut seq);
        logic.handle_ctl(CtlRequest::Recovery { app: PRODUCER, resume_version: c });
        let absorb_t = timed(|| {
            for req in &reputs {
                black_box(logic.handle_put(req));
            }
        })
        .1;
        c += 8;
        logic.handle_ctl(CtlRequest::Checkpoint { app: PRODUCER, upto_version: c });
        logic.handle_ctl(CtlRequest::Checkpoint { app: CONSUMER, upto_version: c });
        for (s, t) in samples.iter_mut().zip([put_t, get_t, replay_t, absorb_t]) {
            s.push(t.as_nanos() as f64 / n);
        }
    }
    let ok = logic.backend().digest_mismatches() == 0
        && logic.backend().replayed_gets() > 0
        && logic.backend().absorbed_puts() > 0;
    assert!(ok, "the wfcr probe's replays must be real replays");
    for (name, s) in
        ["wfcr.log_put_ns", "wfcr.log_get_ns", "wfcr.replay_get_ns", "wfcr.absorb_put_ns"]
            .iter()
            .zip(samples.iter_mut())
    {
        let n = s.len();
        b.out.set(name, "ns", median(s), n);
    }
}

/// The journal records a stream of `versions` versions leaves behind: per
/// version one put and one get per block, a checkpoint pair every eighth.
fn journal_entries(pool: &Pool, versions: u32) -> Vec<JournalEntry> {
    let shape = stream_shape();
    let mut seq = 0;
    let mut entries = Vec::new();
    for v in 1..=versions {
        for req in planned_puts(pool, &shape, v, 1, &mut seq) {
            let digest = req.payload.digest();
            entries.push(JournalEntry::Put {
                app: PRODUCER,
                desc: req.desc,
                payload: req.payload,
                digest,
            });
        }
        for req in planned_gets(&shape, v, 1, &mut seq) {
            entries.push(JournalEntry::Get {
                app: CONSUMER,
                var: 0,
                requested: v,
                served: v,
                bbox: req.bbox,
                bytes: req.bbox.volume(),
                digest: u64::from(v),
            });
        }
        if v % 8 == 0 {
            for (i, app) in [PRODUCER, CONSUMER].into_iter().enumerate() {
                entries.push(JournalEntry::Checkpoint {
                    app,
                    w_chk_id: u64::from(v / 8) * 2 + i as u64,
                    upto_version: v,
                    floor: Some(if app == CONSUMER { v } else { v - 8 }),
                });
            }
        }
    }
    entries
}

fn journal_probes(b: &mut Bench, pool: &Pool) {
    let entries = journal_entries(pool, 16);
    let mut scratch = Vec::new();
    b.ns_per_op("wfcr.journal_encode_ns", || {
        scratch.clear();
        let ((), took) = timed(|| {
            for e in &entries {
                e.encode_meta_into(&mut scratch);
            }
            black_box(&scratch);
        });
        (entries.len() as u64, took)
    });
    let encoded: Vec<Vec<u8>> = entries.iter().map(JournalEntry::encode).collect();
    b.ns_per_op("wfcr.journal_decode_ns", || {
        let ((), took) = timed(|| {
            for bytes in &encoded {
                black_box(JournalEntry::decode(black_box(bytes)));
            }
        });
        (encoded.len() as u64, took)
    });
    b.ns_per_op("wfcr.from_journal_ns_per_rec", || {
        let copy = entries.clone();
        let (rebuilt, took) = timed(|| LoggingBackend::from_journal(copy, &[PRODUCER, CONSUMER]));
        black_box(rebuilt);
        (entries.len() as u64, took)
    });
}

fn log_cfg(flush: FlushPolicy) -> LogConfig {
    LogConfig { segment_bytes: SEGMENT_BYTES, flush }
}

fn logstore_probes(b: &mut Bench, pool: &Pool, dir: &Path) -> io::Result<()> {
    // One stream put record: encoded metadata plus the 512-byte payload.
    let entries = journal_entries(pool, 1);
    let meta: Vec<Vec<u8>> = entries
        .iter()
        .map(|e| {
            let mut m = Vec::new();
            e.encode_meta_into(&mut m);
            m
        })
        .collect();
    let parts: Vec<[&[u8]; 2]> = entries
        .iter()
        .zip(&meta)
        .map(|(e, m)| [m.as_slice(), e.inline_payload().map_or(&[][..], |p| &p[..])])
        .collect();
    let groups: Vec<Vec<BatchRecord<'_>>> = parts
        .chunks(COALESCE)
        .map(|c| c.iter().map(|p| BatchRecord { watermark: 1, parts: p }).collect())
        .collect();
    let records = (groups.len() * COALESCE) as u64;

    let mut failed = None;
    b.ns_per_op("logstore.append_batch_ns_per_rec", || {
        let cfg = log_cfg(FlushPolicy::Grouped { records: COALESCE });
        let mut log = LogStore::open(Box::new(MemMedia::new()), cfg).expect("MemMedia opens");
        let ((), took) = timed(|| {
            for _ in 0..8 {
                for g in &groups {
                    if let Err(e) = log.append_batch(g) {
                        failed = Some(e);
                    }
                }
            }
        });
        (8 * records, took)
    });

    let fsync_dir = dir.join("probe-fsync");
    let mut log = LogStore::open(
        Box::new(FsMedia::new(&fsync_dir)?),
        log_cfg(FlushPolicy::PerBatch { records: COALESCE }),
    )?;
    b.median_of("logstore.fsync_us", || {
        let ((), took) = timed(|| {
            for g in &groups {
                if let Err(e) = log.append_batch(g) {
                    failed = Some(e);
                }
            }
        });
        took.as_secs_f64() * 1e6 / groups.len() as f64
    });
    drop(log);

    let scan_dir = dir.join("probe-scan");
    let cfg = log_cfg(FlushPolicy::PerBatch { records: 4096 });
    let mut log = LogStore::open(Box::new(FsMedia::new(&scan_dir)?), cfg)?;
    for _ in 0..160 {
        for g in &groups {
            log.append_batch(g)?;
        }
    }
    log.flush()?;
    drop(log);
    b.median_of("logstore.scan_rec_per_s", || {
        let (log, took) = timed(|| LogStore::open(Box::new(FsMedia::new(&scan_dir)?), cfg));
        match log {
            Ok(log) => log.recovered_records() as f64 / took.as_secs_f64(),
            Err(e) => {
                failed = Some(e);
                0.0
            }
        }
    });

    let buf = vec![0xA5u8; 256 << 10];
    b.median_of("logstore.crc_mib_s", || {
        let ((), took) = timed(|| {
            for _ in 0..8 {
                let mut crc = Crc32::new();
                crc.update(black_box(&buf));
                black_box(crc.finish());
            }
        });
        2.0 / took.as_secs_f64()
    });

    let tier = DurableTier::new(
        Box::new(FsMedia::new(dir.join("probe-ckpt"))?),
        log_cfg(FlushPolicy::PerRecord),
    )?;
    let mut store = CheckpointStore::new(3);
    store.attach_sink(Box::new(tier));
    let mut id = 0;
    b.median_of("ckpt.durable_save_us", || {
        id += 1;
        let snap = Snapshot::new(PRODUCER, id, id as u32 * 8, [id, 2, 3, 4], 1 << 20);
        let (_, took) = timed(|| black_box(store.save(snap)));
        took.as_secs_f64() * 1e6
    });
    match failed {
        Some(e) => Err(e),
        None if store.sink_errors() > 0 => Err(io::Error::other("checkpoint tier refused a save")),
        None => Ok(()),
    }
}

/// Bounces a ball to `peer` until it has no bounces left.
struct Bouncer {
    peer: ActorId,
}

struct Ball(u32);

impl Actor for Bouncer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Ok((_, Ball(left))) = ev.downcast::<Ball>() {
            if left > 0 {
                ctx.send_after(SimTime::from_nanos(1), self.peer, Ball(left - 1));
            }
        }
    }
}

/// Sends every delivery straight back through the simulated network.
struct NetBouncer {
    net: NetworkHandle,
    me: usize,
    peer: usize,
}

#[derive(Clone)]
struct NetBall(u32);

impl Actor for NetBouncer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        if let Ok((_, d)) = ev.downcast::<Delivered>() {
            if let Ok(ball) = d.payload.downcast::<NetBall>() {
                if ball.0 > 0 {
                    self.net.send(ctx, self.me, self.peer, 64, NetBall(ball.0 - 1));
                }
            }
        }
    }
}

fn engine_probes(b: &mut Bench) {
    const BOUNCES: u32 = 20_000;
    b.ns_per_op("sim-core.dispatch_ns", || {
        let mut eng = Engine::new(1);
        let a = eng.add_actor(Box::new(Bouncer { peer: 1 }));
        eng.add_actor(Box::new(Bouncer { peer: a }));
        eng.schedule_now(a, Ball(BOUNCES));
        let (events, took) = timed(|| eng.run());
        (events, took)
    });
    b.ns_per_op("net.des_send_ns", || {
        let mut eng = Engine::new(1);
        let mut net = Network::new(CostModel::cori_like());
        let (ep_a, ep_b) = (net.register(1), net.register(2));
        let handle = NetworkHandle { actor: eng.add_actor(Box::new(net)) };
        eng.add_actor(Box::new(NetBouncer { net: handle, me: ep_a, peer: ep_b }));
        eng.add_actor(Box::new(NetBouncer { net: handle, me: ep_b, peer: ep_a }));
        eng.schedule_now(
            handle.actor,
            net::des::Transmit {
                from: ep_b,
                to: ep_a,
                size: 64,
                payload: Box::new(NetBall(BOUNCES)),
            },
        );
        let (_, took) = timed(|| eng.run());
        (u64::from(BOUNCES) + 1, took)
    });
}

fn observation_probes(b: &mut Bench, seed: u64) {
    b.ns_per_op("obs.span_ns", || {
        let tracer = obs::Tracer::full();
        let track = tracer.track("probe");
        let ((), took) = timed(|| {
            for i in 0..4096u64 {
                let ctx = tracer.begin(obs::TraceCtx::NONE, track, "span", i, i, Vec::new());
                tracer.end(ctx, track, i + 1, i, Vec::new());
            }
        });
        black_box(tracer.finish());
        (4096, took)
    });
    let mut hist = telemetry::Histogram::default();
    let mut x = seed | 1;
    b.ns_per_op("telemetry.hist_record_ns", || {
        let ((), took) = timed(|| {
            for _ in 0..65_536 {
                // Latency-like values spread over five decades.
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                hist.record(black_box(1_000 + (x >> 40) % 100_000_000));
            }
        });
        (65_536, took)
    });

    // Price of observation on the simulator: the Table III scale-0 slice of
    // one sweep with each kind of observation switched on, against the same
    // slice with none. The variants alternate so drift hits all alike.
    let slice: Vec<WorkflowConfig> = sweep_configs(seed, 0, 0..1).into_iter().flatten().collect();
    let variants: [fn(&WorkflowConfig) -> WorkflowConfig; 4] = [
        |c| c.clone(),
        |c| c.with_tracing(TraceCfg::full()),
        |c| c.with_tracing(TraceCfg::flight(4096)),
        |c| c.with_telemetry(TelemetryCfg::default()),
    ];
    let mut times: [Vec<f64>; 4] = Default::default();
    let start = Instant::now();
    while times[0].len() < 3 || start.elapsed() < b.budget * 4 {
        for (variant, t) in variants.iter().zip(times.iter_mut()) {
            let cfgs: Vec<WorkflowConfig> = slice.iter().map(variant).collect();
            let ((), took) = timed(|| {
                for cfg in &cfgs {
                    black_box(run(cfg));
                }
            });
            t.push(took.as_secs_f64());
        }
    }
    let n = times[0].len();
    let off = median(&mut times[0]);
    for (name, i) in [
        ("obs.trace_full_overhead_pct", 1),
        ("obs.trace_flight_overhead_pct", 2),
        ("telemetry.scrape_overhead_pct", 3),
    ] {
        b.out.set(name, "%", (median(&mut times[i]) - off) / off * 100.0, n);
    }
}

/// Run every probe with `budget` each; `dir` holds the media probes' files.
pub fn run_all(seed: u64, budget: Duration, dir: &Path) -> io::Result<Metrics> {
    let mut b = Bench { budget, out: Metrics::default() };
    let pool = Pool::generate(seed, &stream_shape());
    let bulk_shape = spec::workload("bulk_durable").and_then(|w| w.shape).expect("bulk shape");
    let bulk = Pool::generate(seed, &Shape { pool_versions: 1, ..bulk_shape });
    staging_probes(&mut b, &pool, &bulk);
    rtt_probe(&mut b);
    wfcr_probes(&mut b, &pool);
    journal_probes(&mut b, &pool);
    logstore_probes(&mut b, &pool, dir)?;
    engine_probes(&mut b);
    observation_probes(&mut b, seed);
    Ok(b.out)
}
