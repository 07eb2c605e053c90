//! Fault-injection campaign: the crash-consistency protocols must hold not
//! just under fail-stop component crashes but under a hostile interconnect —
//! dropped, duplicated, reordered and delayed messages — in both execution
//! modes (discrete-event and real threads).
//!
//! The replay-equivalence invariant checked throughout: a run that crashes,
//! rolls back and replays under network faults must observe byte-identical
//! data to a failure-free, fault-free run, and the servers' replay digest
//! verification must count zero mismatches. A companion mutation check
//! proves the checker has teeth: deliberately breaking the servers'
//! exactly-once request cache makes it fail.

mod common;

use ckpt::CheckpointStore;
use faultplane::{FaultPlan, FaultRates, RetryPolicy};
use net::threaded::ThreadedNet;
use parking_lot::Mutex;
use proptest::prelude::*;
use shardmap::{MapHistory, ShardMap};
use staging::dist::Distribution;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{AppId, CtlMsg, CtlRequest, Reply, Request};
use staging::service::{ServerCosts, ServerLogic};
use staging::threaded::{spawn_server, Frame, SyncClient};
use staging::Router;
use std::sync::Arc;
use std::time::Duration;
use wfcr::backend::{pieces_digest, LoggingBackend};
use wfcr::iface::WorkflowClient;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, FailureSpec};
use workflow::runner::run;

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

/// Unlimited attempts, short windows, generous deadline: rides out every
/// injected fault while still failing loudly if a server truly wedges.
fn patient() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 0,
        base_ns: 1_000_000,
        cap_ns: 8_000_000,
        deadline_ns: 60_000_000_000,
        seed: 7,
    }
}

fn lossy(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        rates: FaultRates {
            drop: 0.08,
            duplicate: 0.12,
            reorder: 0.08,
            delay: 0.10,
            max_extra_delay_ns: 200_000,
        },
        windows: Vec::new(),
    }
}

/// Two-component crash/recovery workflow over real threads against a
/// `plan`-faulted mesh: the producer writes 10 steps and crash-restarts
/// after step 7 (its re-execution of 5..=7 must be absorbed); the consumer
/// reads all 10, crash-restarting after step 6 (its re-read of 6 must
/// replay from the log). Returns the consumer's observed digests and the
/// servers' replay digest mismatch count.
fn crash_recovery_run(nservers: usize, plan: FaultPlan) -> (Vec<u64>, u64) {
    crash_recovery_run_routed(nservers, plan, None)
}

/// The same campaign over a sharded fleet: with a partition-map `history`
/// the clients route every block through the shard-aware [`Router`] instead
/// of the plain distribution. `None` reproduces the unsharded harness.
fn crash_recovery_run_routed(
    nservers: usize,
    plan: FaultPlan,
    history: Option<MapHistory>,
) -> (Vec<u64>, u64) {
    let domain = BBox::whole([16, 16, 16]);
    let dist = Distribution::new(domain, [8, 8, 8], nservers);
    let router = |d: Distribution| match &history {
        Some(h) => Router::sharded(d, h.clone()),
        None => Router::unsharded(d),
    };
    let mut eps = ThreadedNet::mesh_with_faults(nservers + 2, plan);
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
    let ckpts = Arc::new(Mutex::new(CheckpointStore::new(4)));
    let consumer_ep = client_eps.pop().unwrap();
    let producer_ep = client_eps.pop().unwrap();
    let mut producer = WorkflowClient::new(
        SyncClient::new_routed(producer_ep, router(dist.clone()), (0..nservers).collect(), SIM)
            .with_retry(patient()),
        Arc::clone(&ckpts),
    );
    let mut consumer = WorkflowClient::new(
        SyncClient::new_routed(consumer_ep, router(dist), (0..nservers).collect(), ANA)
            .with_retry(patient()),
        ckpts,
    );

    let steps = 10u32;
    let prod = std::thread::spawn(move || {
        for v in 1..=7u32 {
            producer.put_with_log(0, v, &domain, field(v)).expect("put");
            if v % 4 == 0 {
                producer.workflow_check(v + 1, [v as u64, 2, 3, 4], 1 << 20).expect("sim ckpt");
            }
        }
        // Crash after step 7: restore the step-4 checkpoint and re-execute.
        let snap = producer.workflow_restart().expect("sim restart");
        assert_eq!(snap.resume_step, 5);
        for v in snap.resume_step..=steps {
            producer.put_with_log(0, v, &domain, field(v)).expect("re-put");
            if v % 4 == 0 {
                producer.workflow_check(v + 1, [v as u64, 2, 3, 4], 1 << 20).expect("sim ckpt");
            }
        }
        producer
    });

    // The threaded server answers gets immediately with what is stored, so
    // poll until the version lands (blocking gets live in the DES server).
    fn read(consumer: &mut WorkflowClient, v: u32, domain: &BBox) -> u64 {
        loop {
            match consumer.get_with_log(0, v, domain) {
                Ok(p) => break pieces_digest(&p),
                Err(_) => std::thread::yield_now(),
            }
        }
    }

    let mut observed = Vec::new();
    for v in 1..=6u32 {
        observed.push(read(&mut consumer, v, &domain));
        if v == 5 {
            consumer.workflow_check(v + 1, [9, 9, 9, v as u64], 1 << 18).expect("ana ckpt");
        }
    }
    let snap = consumer.workflow_restart().expect("ana restart");
    assert_eq!(snap.resume_step, 6);
    let replayed = read(&mut consumer, 6, &domain);
    assert_eq!(replayed, observed[5], "replay must reproduce the crash-time observation");
    for v in 7..=steps {
        observed.push(read(&mut consumer, v, &domain));
    }

    let producer = prod.join().expect("producer thread");
    drop(producer);
    consumer.shutdown_servers();
    let mut mismatches = 0;
    for h in handles {
        mismatches += h.join().expect("server thread").backend().digest_mismatches();
    }
    (observed, mismatches)
}

#[test]
fn threaded_replay_equivalence_under_faults() {
    let _wd =
        common::watchdog("threaded_replay_equivalence_under_faults", Duration::from_secs(300));
    let (truth, clean_mism) = crash_recovery_run(3, FaultPlan::quiescent(0));
    assert_eq!(clean_mism, 0);
    for seed in [3u64, 17, 42] {
        let (observed, mismatches) = crash_recovery_run(3, lossy(seed));
        assert_eq!(observed, truth, "seed {seed}: faults must not change observed data");
        assert_eq!(mismatches, 0, "seed {seed}: replay verification failed");
    }
}

/// Sharded replay-equivalence, threaded half: the same crash/recovery
/// campaign routed through a hashed partition map at 1, 2 and 4 shards
/// observes byte-identical data to the unsharded ground truth — with a
/// quiescent mesh and under injected faults — and every shard's replay
/// digest verification stays clean. Re-homing blocks must never change
/// what a reader sees.
#[test]
fn sharded_threaded_replay_equivalence_across_shard_counts() {
    let _wd = common::watchdog("sharded_threaded_replay_equivalence", Duration::from_secs(300));
    let (truth, clean_mism) = crash_recovery_run(3, FaultPlan::quiescent(0));
    assert_eq!(clean_mism, 0);
    for nshards in [1usize, 2, 4] {
        let history = MapHistory::single(ShardMap::hashed(nshards, 0xC0FFEE));
        let (observed, mismatches) =
            crash_recovery_run_routed(nshards, FaultPlan::quiescent(0), Some(history.clone()));
        assert_eq!(observed, truth, "{nshards} shards: routing must not change observed data");
        assert_eq!(mismatches, 0, "{nshards} shards: replay verification failed");
        let (observed, mismatches) = crash_recovery_run_routed(nshards, lossy(21), Some(history));
        assert_eq!(observed, truth, "{nshards} shards under faults: observed data changed");
        assert_eq!(mismatches, 0, "{nshards} shards under faults: replay drifted");
    }
}

/// Sharded replay-equivalence, DES half: a sharded run with a component
/// crash and a faulted interconnect produces a byte-identical report when
/// re-run at every fleet size, and the replay digests verify clean — the
/// deterministic-simulation counterpart of the threaded campaign above.
#[test]
fn sharded_des_reports_are_byte_identical_per_shard_count() {
    use workflow::config::{ShardAssign, ShardingCfg};
    for nshards in [1usize, 2, 4] {
        let mut cfg = tiny(WorkflowProtocol::Uncoordinated)
            .with_sharding(ShardingCfg {
                assign: ShardAssign::Hashed { seed: 0xC0FFEE },
                rebalance: None,
            })
            .with_failures(vec![FailureSpec::At {
                at: sim_core::time::SimTime::from_millis(700),
                app: 1,
            }])
            .with_net_faults(lossy(9));
        cfg.nservers = nshards;
        let r = run(&cfg);
        assert_eq!(r.finish_times_s.len(), 2, "{nshards} shards: must finish");
        assert_eq!(r.shard_puts.len(), nshards);
        assert_eq!(r.digest_mismatches, 0, "{nshards} shards: replay drifted");
        assert_eq!(r.stale_gets, 0);
        assert_eq!(r.recoveries(), 1);
        let again = run(&cfg);
        assert_eq!(
            r.to_json_line(),
            again.to_json_line(),
            "{nshards} shards: same seed, same report"
        );
    }
}

/// Mutation check: deliberately break the servers' exactly-once request
/// cache and prove the equivalence checker notices.
///
/// The adversarial schedule is the one the `CtlMsg` envelope exists for: a
/// coordinated `GlobalReset` is delivered, re-execution refills the
/// discarded steps, and then the network redelivers the stale reset
/// envelope. An intact dedup cache answers the duplicate from the recorded
/// ack; a broken one re-applies it and throws away re-executed data.
fn redelivered_reset_scenario(dedup: bool) -> bool {
    let domain = BBox::whole([8, 8, 8]);
    let dist = Distribution::new(domain, [8, 8, 8], 1);
    // Mesh: 0 = server, 1 = producer, 2 = consumer, 3 = "the network",
    // used to redeliver a stale control envelope at a chosen moment.
    let mut eps = ThreadedNet::mesh(4);
    let net_ep = eps.pop().unwrap();
    let consumer_ep = eps.pop().unwrap();
    let producer_ep = eps.pop().unwrap();
    let server_ep = eps.remove(0);
    let mut b = LoggingBackend::new();
    b.register_app(SIM);
    b.register_app(ANA);
    let mut logic = ServerLogic::new(b, ServerCosts::default());
    logic.set_request_dedup(dedup);
    let handle = spawn_server(server_ep, logic);

    let mut producer = SyncClient::new(producer_ep, dist.clone(), vec![0], SIM);
    let mut consumer = SyncClient::new(consumer_ep, dist, vec![0], ANA);

    // Ground truth: steps 1..=4 as first written and observed.
    let mut truth = Vec::new();
    for v in 1..=4u32 {
        producer.put(0, v, &domain, field(v)).expect("put");
        truth.push(pieces_digest(&consumer.get(0, v, &domain).expect("get")));
    }
    // Coordinated rollback to step 2. The whole-domain puts used seqs
    // 0..=3, so this envelope carries seq 4 — remember it for redelivery.
    producer.global_reset(2).expect("reset");
    // Deterministic re-execution refills steps 3 and 4.
    for v in 3..=4u32 {
        producer.put(0, v, &domain, field(v)).expect("re-put");
    }
    // The network now redelivers the old reset, after re-execution.
    let stale = Request::Ctl(CtlMsg {
        app: SIM,
        seq: 4,
        req: CtlRequest::GlobalReset { to_version: 2 },
        tctx: obs::TraceCtx::NONE,
    });
    assert!(net_ep.send(0, stale.wire_bytes(), Frame(vec![stale])));
    // Every envelope is acked, duplicate or not: once the ack arrives the
    // redelivery has been fully processed.
    loop {
        let m = net_ep.recv_timeout(Duration::from_secs(10)).expect("redelivery ack");
        if m.payload.is::<Frame<Reply>>() {
            break;
        }
    }

    // Replay-equivalence check: the re-executed store must still serve the
    // ground-truth bytes for every step.
    let ok = (1..=4u32).all(|v| match consumer.get(0, v, &domain) {
        Ok(p) => pieces_digest(&p) == truth[v as usize - 1],
        Err(_) => false,
    });
    consumer.shutdown_servers();
    handle.join().expect("server thread");
    ok
}

#[test]
fn broken_request_dedup_fails_the_checker() {
    let _wd = common::watchdog("broken_request_dedup_fails_the_checker", Duration::from_secs(120));
    assert!(redelivered_reset_scenario(true), "intact dedup must absorb the redelivered reset");
    assert!(
        !redelivered_reset_scenario(false),
        "a broken dedup must be caught by the equivalence check"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DES mode: across fault seeds, a component crash composed with
    /// drop/dup/reorder/delay still recovers with exact replay.
    #[test]
    fn des_replay_equivalence_under_faults(seed in 0u64..1 << 32, victim in 0u32..2) {
        let cfg = tiny(WorkflowProtocol::Uncoordinated)
            .with_failures(vec![FailureSpec::At {
                at: sim_core::time::SimTime::from_millis(700),
                app: victim,
            }])
            .with_net_faults(lossy(seed));
        let r = run(&cfg);
        prop_assert_eq!(r.finish_times_s.len(), 2, "both components must finish");
        prop_assert_eq!(r.recoveries(), 1);
        prop_assert_eq!(r.digest_mismatches, 0, "replay must be exact under faults");
        prop_assert_eq!(r.stale_gets, 0, "logging protocols never serve stale data");
    }
}

/// Same `{seed, plan}` twice ⇒ byte-identical run report, including the
/// fault-driven retry counts (determinism satellite; the pure fault
/// schedule is covered in `faultplane`'s own tests).
#[test]
fn fault_injected_runs_are_byte_identical() {
    let cfg = tiny(WorkflowProtocol::Uncoordinated)
        .with_failures(vec![FailureSpec::At {
            at: sim_core::time::SimTime::from_millis(700),
            app: 0,
        }])
        .with_net_faults(lossy(5));
    let a = serde_json::to_string(&run(&cfg)).expect("serialize");
    let b = serde_json::to_string(&run(&cfg)).expect("serialize");
    assert_eq!(a, b, "identical {{seed, plan}} must reproduce the report byte-for-byte");
    let r: workflow::RunReport = serde_json::from_str(&a).expect("round trip");
    assert!(r.net_retries() > 0, "the report must show the faults were actually exercised");
}

/// Long-running soak matrix (CI `fault-soak` job): every protocol × a spread
/// of fault seeds, in both execution modes.
#[test]
#[ignore = "soak matrix; run with `cargo test --release -- --ignored fault_soak`"]
fn fault_soak() {
    let _wd = common::watchdog("fault_soak", Duration::from_secs(570));
    for protocol in
        [WorkflowProtocol::Uncoordinated, WorkflowProtocol::Coordinated, WorkflowProtocol::Hybrid]
    {
        for seed in 0..16u64 {
            let cfg = tiny(protocol)
                .with_failures(vec![FailureSpec::At {
                    at: sim_core::time::SimTime::from_millis(700),
                    app: (seed % 2) as u32,
                }])
                .with_net_faults(lossy(seed));
            let r = run(&cfg);
            assert_eq!(r.finish_times_s.len(), 2, "{protocol:?} seed {seed}: must finish");
            assert_eq!(r.digest_mismatches, 0, "{protocol:?} seed {seed}: replay drifted");
        }
    }
    let (truth, _) = crash_recovery_run(3, FaultPlan::quiescent(0));
    for seed in 0..6u64 {
        let (observed, mismatches) = crash_recovery_run(3, lossy(seed));
        assert_eq!(observed, truth, "threaded seed {seed}: observed data changed");
        assert_eq!(mismatches, 0, "threaded seed {seed}: replay verification failed");
    }
}
