//! Full-stack recovery over real threads: producer and consumer run
//! concurrently against logging staging servers, components restart mid-run,
//! and every observation is digest-verified against the failure-free ground
//! truth. This exercises the same protocol code as the discrete-event runs
//! under genuine OS-thread interleavings.

use ckpt::CheckpointStore;
use net::threaded::ThreadedNet;
use parking_lot::Mutex;
use staging::dist::Distribution;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{AppId, PutStatus};
use staging::service::{ServerCosts, ServerLogic, StoreBackend};
use staging::threaded::{spawn_server, SyncClient};
use std::sync::Arc;
use wfcr::backend::{pieces_digest, LoggingBackend};
use wfcr::iface::WorkflowClient;

mod common;

const SIM: AppId = 0;
const ANA: AppId = 1;

fn field(version: u32) -> impl FnMut(&BBox) -> Payload {
    move |b: &BBox| {
        let data: Vec<u8> = (0..b.volume())
            .map(|i| (version as u64 * 131 + b.lb[0] * 7 + b.lb[2] + i) as u8)
            .collect();
        Payload::inline(data)
    }
}

struct Cluster {
    handles: Vec<std::thread::JoinHandle<ServerLogic<LoggingBackend>>>,
    producer: WorkflowClient,
    consumer: WorkflowClient,
    domain: BBox,
}

fn cluster(nservers: usize) -> Cluster {
    let domain = BBox::whole([16, 16, 16]);
    let dist = Distribution::new(domain, [8, 8, 8], nservers);
    let mut eps = ThreadedNet::mesh(nservers + 2);
    let mut client_eps = eps.split_off(nservers);
    let handles: Vec<_> = eps
        .into_iter()
        .map(|ep| {
            let mut b = LoggingBackend::new();
            b.register_app(SIM);
            b.register_app(ANA);
            spawn_server(ep, ServerLogic::new(b, ServerCosts::default()))
        })
        .collect();
    let ckpts = Arc::new(Mutex::new(CheckpointStore::new(3)));
    let consumer_ep = client_eps.pop().unwrap();
    let producer_ep = client_eps.pop().unwrap();
    let producer = WorkflowClient::new(
        SyncClient::new(producer_ep, dist.clone(), (0..nservers).collect(), SIM),
        Arc::clone(&ckpts),
    );
    let consumer = WorkflowClient::new(
        SyncClient::new(consumer_ep, dist, (0..nservers).collect(), ANA),
        ckpts,
    );
    Cluster { handles, producer, consumer, domain }
}

fn shutdown(c: Cluster) -> u64 {
    c.consumer.shutdown_servers();
    let mut mismatches = 0;
    for h in c.handles {
        mismatches += h.join().expect("server thread").backend().digest_mismatches();
    }
    mismatches
}

#[test]
fn concurrent_producer_consumer_with_consumer_restart() {
    let _wd = common::watchdog(
        "concurrent_producer_consumer_with_consumer_restart",
        std::time::Duration::from_secs(300),
    );
    let mut c = cluster(3);
    let domain = c.domain;
    let steps = 10u32;

    // Producer thread: writes steps 1..=10, checkpointing every 4.
    let mut producer = c.producer;
    let prod = std::thread::spawn(move || {
        for v in 1..=steps {
            producer.put_with_log(0, v, &domain, field(v)).expect("put");
            if v % 4 == 0 {
                producer.workflow_check(v + 1, [v as u64, 2, 3, 4], 1 << 20).expect("sim ckpt");
            }
        }
        producer
    });

    // Consumer: reads 1..=6 (blocking gets pace it behind the producer),
    // checkpoints at 5, "crashes", restarts, replays 6, continues 7..=10.
    let mut observed = Vec::new();
    for v in 1..=6u32 {
        let pieces = loop {
            // Blocking semantics live in the DES server; the threaded server
            // returns what is stored, so poll until the version lands.
            match c.consumer.get_with_log(0, v, &domain) {
                Ok(p) => break p,
                Err(_) => std::thread::yield_now(),
            }
        };
        observed.push(pieces_digest(&pieces));
        if v == 5 {
            c.consumer.workflow_check(v + 1, [9, 9, 9, v as u64], 1 << 18).expect("ana ckpt");
        }
    }

    let snap = c.consumer.workflow_restart().expect("restart");
    assert_eq!(snap.resume_step, 6);
    // Replay step 6: must observe the original digest even though the
    // producer has raced ahead.
    let pieces = c.consumer.get_with_log(0, 6, &domain).expect("replayed get");
    assert_eq!(pieces_digest(&pieces), observed[5]);

    for v in 7..=steps {
        let pieces = loop {
            match c.consumer.get_with_log(0, v, &domain) {
                Ok(p) => break p,
                Err(_) => std::thread::yield_now(),
            }
        };
        observed.push(pieces_digest(&pieces));
    }

    let producer = prod.join().expect("producer thread");
    drop(producer);
    assert_eq!(observed.len(), steps as usize);
    // Distinct steps must have produced distinct data.
    let mut unique = observed.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), observed.len(), "steps must differ in content");

    c.consumer.shutdown_servers();
    let mut mismatches = 0;
    for h in c.handles {
        mismatches += h.join().expect("server thread").backend().digest_mismatches();
    }
    assert_eq!(mismatches, 0);
}

#[test]
fn producer_restart_under_concurrent_reads() {
    let _wd = common::watchdog(
        "producer_restart_under_concurrent_reads",
        std::time::Duration::from_secs(300),
    );
    let mut c = cluster(2);
    let domain = c.domain;

    // Sequential phase: 6 steps, checkpoint sim at 4.
    let mut originals = Vec::new();
    for v in 1..=6u32 {
        let statuses = c.producer.put_with_log(0, v, &domain, field(v)).expect("put");
        assert!(statuses.iter().all(|s| *s == PutStatus::Stored));
        let pieces = c.consumer.get_with_log(0, v, &domain).expect("get");
        originals.push(pieces_digest(&pieces));
        if v == 4 {
            c.producer.workflow_check(5, [4, 4, 4, 4], 1 << 20).expect("sim ckpt");
        }
    }

    // Producer crashes and restarts; re-executes 5..=6 while the consumer
    // concurrently re-reads history (it should see unchanged data).
    let snap = c.producer.workflow_restart().expect("restart");
    assert_eq!(snap.resume_step, 5);

    let mut consumer = c.consumer;
    let reader = std::thread::spawn(move || {
        let mut seen = Vec::new();
        for v in 1..=6u32 {
            // Normal (non-replay) reads of current data.
            if let Ok(p) = consumer.get_with_log(0, v, &domain) {
                seen.push((v, pieces_digest(&p)));
            }
        }
        (consumer, seen)
    });

    let s5 = c.producer.put_with_log(0, 5, &domain, field(5)).expect("re-put 5");
    let s6 = c.producer.put_with_log(0, 6, &domain, field(6)).expect("re-put 6");
    assert!(s5.iter().all(|s| *s == PutStatus::Absorbed));
    assert!(s6.iter().all(|s| *s == PutStatus::Absorbed));
    let s7 = c.producer.put_with_log(0, 7, &domain, field(7)).expect("put 7");
    assert!(s7.iter().all(|s| *s == PutStatus::Stored));

    let (consumer, seen) = reader.join().expect("reader thread");
    for (v, digest) in seen {
        assert_eq!(
            digest,
            originals[(v - 1) as usize],
            "concurrent reader saw torn data at version {v}"
        );
    }

    let cl = Cluster { handles: c.handles, producer: c.producer, consumer, domain };
    assert_eq!(shutdown(cl), 0);
}

#[test]
fn repeated_restarts_converge() {
    let _wd = common::watchdog("repeated_restarts_converge", std::time::Duration::from_secs(300));
    let mut c = cluster(2);
    let domain = c.domain;
    let mut originals = Vec::new();
    for v in 1..=5u32 {
        c.producer.put_with_log(0, v, &domain, field(v)).expect("put");
        let pieces = c.consumer.get_with_log(0, v, &domain).expect("get");
        originals.push(pieces_digest(&pieces));
        if v == 2 {
            c.consumer.workflow_check(3, [2, 2, 2, 2], 1 << 16).expect("ckpt");
        }
    }
    // Crash-restart the consumer twice in a row; both replays must match.
    for round in 0..2 {
        let snap = c.consumer.workflow_restart().expect("restart");
        assert_eq!(snap.resume_step, 3, "round {round}");
        for v in 3..=5u32 {
            let pieces = c.consumer.get_with_log(0, v, &domain).expect("replayed get");
            assert_eq!(
                pieces_digest(&pieces),
                originals[(v - 1) as usize],
                "round {round} version {v}"
            );
        }
    }
    assert_eq!(shutdown(c), 0);
}

/// What one server of [`scripted_run`] leaves behind.
#[derive(PartialEq)]
struct Residue {
    /// Every journal segment, by name.
    segments: Vec<(String, Vec<u8>)>,
    /// Both components' event queues, `Debug`-printed.
    queues: String,
}

/// One scripted run, a single driver thread against two journalling servers:
/// puts, gets, checkpoints and one consumer rollback with its replay.
fn scripted_run() -> Vec<Residue> {
    use logstore::{FlushPolicy, LogConfig, LogStore, Media, MemMedia};
    let nservers = 2;
    let domain = BBox::whole([16, 16, 16]);
    let dist = Distribution::new(domain, [8, 8, 8], nservers);
    let mut eps = ThreadedNet::mesh(nservers + 2);
    let mut client_eps = eps.split_off(nservers);
    let medias: Vec<MemMedia> = (0..nservers).map(|_| MemMedia::new()).collect();
    // Small segments so the comparison spans several files per server.
    let cfg = LogConfig { segment_bytes: 4096, flush: FlushPolicy::Grouped { records: 4 } };
    let handles: Vec<_> = eps
        .into_iter()
        .zip(&medias)
        .map(|(ep, mem)| {
            let mut b = LoggingBackend::new();
            b.register_app(SIM);
            b.register_app(ANA);
            let log = LogStore::open(Box::new(mem.clone()), cfg).expect("open journal");
            b.attach_journal_coalesced(Box::new(log), 4);
            spawn_server(ep, ServerLogic::new(b, ServerCosts::default()))
        })
        .collect();
    let servers: Vec<usize> = (0..nservers).collect();
    let mut consumer =
        SyncClient::new(client_eps.pop().unwrap(), dist.clone(), servers.clone(), ANA);
    let mut producer = SyncClient::new(client_eps.pop().unwrap(), dist, servers, SIM);

    for v in 1..=6u32 {
        producer.put(0, v, &domain, field(v)).expect("put");
        consumer.get(0, v, &domain).expect("get");
        if v == 2 || v == 4 {
            producer.checkpoint(v).expect("sim ckpt");
            consumer.checkpoint(v).expect("ana ckpt");
        }
    }
    consumer.recover(4).expect("recover");
    for v in 5..=6u32 {
        consumer.get(0, v, &domain).expect("replayed get");
    }
    producer.put(0, 7, &domain, field(7)).expect("put");
    consumer.get(0, 7, &domain).expect("get");

    consumer.shutdown_servers();
    handles
        .into_iter()
        .zip(medias)
        .map(|(h, mem)| {
            let mut logic = h.join().expect("server thread");
            let b = logic.backend_mut();
            b.flush_journal();
            assert_eq!(b.journal_errors(), 0);
            assert_eq!(b.replayed_gets(), 8, "steps 5 and 6, four blocks per server");
            let queues = format!("{:?} {:?}", b.queue(SIM), b.queue(ANA));
            let names = mem.list().expect("list").into_iter();
            let segments = names.map(|n| (n.clone(), mem.read(&n).expect("read"))).collect();
            Residue { segments, queues }
        })
        .collect()
}

/// Requests used to leave the client in `HashMap` iteration order, so the
/// order a server journalled one step's blocks in differed from run to run.
#[test]
fn identical_runs_leave_identical_journals_and_event_queues() {
    let _wd = common::watchdog(
        "identical_runs_leave_identical_journals_and_event_queues",
        std::time::Duration::from_secs(120),
    );
    let (a, b) = (scripted_run(), scripted_run());
    assert!(a.iter().all(|r| r.segments.len() > 1), "several segments per server");
    assert!(a == b, "two identical single-driver runs diverged");
}

/// A re-put after a rollback that only half reached staging before the
/// failure: the statuses come back in planned (`seq`) order, whichever server
/// answers first.
#[test]
fn put_returns_statuses_in_planned_order() {
    use staging::server::plan_put_with_routed;
    let _wd = common::watchdog(
        "put_returns_statuses_in_planned_order",
        std::time::Duration::from_secs(120),
    );
    let mut c = cluster(2);
    let domain = c.domain;
    let left = BBox::d3([0, 0, 0], [7, 15, 15]);
    c.producer.put_with_log(0, 1, &domain, field(1)).expect("put 1");
    c.producer.workflow_check(2, [1, 1, 1, 1], 1 << 16).expect("ckpt");
    c.producer.put_with_log(0, 2, &left, field(2)).expect("half of put 2");
    c.producer.workflow_restart().expect("restart");
    let statuses = c.producer.put_with_log(0, 2, &domain, field(2)).expect("re-put 2");
    let router = staging::Router::unsharded(Distribution::new(domain, [8, 8, 8], 2));
    let expected: Vec<PutStatus> = plan_put_with_routed(&router, SIM, 0, 2, &domain, 0, field(2))
        .iter()
        .map(|(_, req)| match left.contains(&req.desc.bbox) {
            true => PutStatus::Absorbed,
            false => PutStatus::Stored,
        })
        .collect();
    assert_eq!(statuses, expected);
    assert!(
        expected.windows(2).filter(|w| w[0] != w[1]).count() > 1,
        "absorbed and stored blocks interleave in the plan: {expected:?}"
    );
    assert_eq!(shutdown(c), 0);
}
