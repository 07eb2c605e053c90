//! Garbage-collection safety (paper §III-A.2): GC may only delete logged
//! data that **no possible rollback** can still need.
//!
//! Strategy: generate random interleavings of coupling steps, checkpoints
//! and recoveries; after every recovery, assert the replay is fully served
//! from the log with the original digests — i.e. GC (which runs at every
//! checkpoint) never deleted anything a replay later required. Also assert
//! GC is not vacuous: with both components checkpointing, memory is actually
//! reclaimed, and a replicated reader does not hold it back.

use proptest::prelude::*;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{CtlRequest, GetRequest, ObjDesc, PutRequest};
use staging::service::StoreBackend;
use wfcr::backend::{pieces_digest, LoggingBackend};

const SIM: u32 = 0;
const ANA: u32 = 1;

#[derive(Debug, Clone)]
enum Op {
    /// One coupling step (put + get).
    Step,
    /// Simulation checkpoints at its current step.
    CkptSim,
    /// Analytics checkpoints at its current step.
    CkptAna,
    /// Analytics fails, rolls back, replays everything since its last
    /// checkpoint.
    FailAna,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => Just(Op::Step),
        1 => Just(Op::CkptSim),
        1 => Just(Op::CkptAna),
        1 => Just(Op::FailAna),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn gc_never_starves_replay(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut backend = LoggingBackend::new();
        backend.register_app(SIM);
        backend.register_app(ANA);

        let bbox = BBox::d1(0, 99);
        let mut step = 0u32;
        let mut ana_ckpt = 0u32;
        // (version, digest) observed by the consumer, newest last.
        let mut observed: Vec<(u32, u64)> = Vec::new();

        for op in ops {
            match op {
                Op::Step => {
                    step += 1;
                    backend.put(&PutRequest {
                        app: SIM,
                        desc: ObjDesc { var: 0, version: step, bbox },
                        payload: Payload::virtual_from(100, &[step as u64]),
                        seq: 0,
                        tctx: obs::TraceCtx::NONE,
                    });
                    let (pieces, _) = backend.get(&GetRequest {
                        app: ANA,
                        var: 0,
                        version: step,
                        bbox,
                        seq: 0,
                        tctx: obs::TraceCtx::NONE,
                    });
                    prop_assert!(!pieces.is_empty(), "normal get must be served");
                    observed.push((step, pieces_digest(&pieces)));
                }
                Op::CkptSim => {
                    backend.control(CtlRequest::Checkpoint { app: SIM, upto_version: step });
                }
                Op::CkptAna => {
                    ana_ckpt = step;
                    backend.control(CtlRequest::Checkpoint { app: ANA, upto_version: step });
                }
                Op::FailAna => {
                    backend.control(CtlRequest::Recovery {
                        app: ANA,
                        resume_version: ana_ckpt,
                    });
                    // Replay every observation newer than the checkpoint.
                    for &(v, digest) in observed.iter().filter(|(v, _)| *v > ana_ckpt) {
                        let (pieces, _) = backend.get(&GetRequest {
                            app: ANA,
                            var: 0,
                            version: v,
                            bbox,
                            seq: 0,
                            tctx: obs::TraceCtx::NONE,
                        });
                        prop_assert!(
                            !pieces.is_empty(),
                            "GC deleted version {} still needed by replay (ana_ckpt={})",
                            v, ana_ckpt
                        );
                        prop_assert_eq!(
                            pieces_digest(&pieces), digest,
                            "replayed digest diverged at version {}", v
                        );
                    }
                    prop_assert!(!backend.is_replaying(ANA));
                }
            }
        }
        prop_assert_eq!(backend.digest_mismatches(), 0);
    }
}

#[test]
fn gc_actually_reclaims() {
    let mut backend = LoggingBackend::new();
    backend.register_app(SIM);
    backend.register_app(ANA);
    let bbox = BBox::d1(0, 999);
    for v in 1..=20u32 {
        backend.put(&PutRequest {
            app: SIM,
            desc: ObjDesc { var: 0, version: v, bbox },
            payload: Payload::virtual_from(1000, &[v as u64]),
            seq: 0,
            tctx: obs::TraceCtx::NONE,
        });
        backend.get(&GetRequest {
            app: ANA,
            var: 0,
            version: v,
            bbox,
            seq: 0,
            tctx: obs::TraceCtx::NONE,
        });
    }
    let before = backend.bytes_resident();
    backend.control(CtlRequest::Checkpoint { app: SIM, upto_version: 20 });
    backend.control(CtlRequest::Checkpoint { app: ANA, upto_version: 20 });
    let after = backend.bytes_resident();
    assert!(
        after < before / 3,
        "GC should reclaim most of the 20-version log: {before} -> {after}"
    );
    assert!(backend.gc_reclaimed() >= 19_000, "19 payload versions freed");
    // Latest version must survive for ongoing coupling.
    assert!(backend.store().covers_any(0, 20, &bbox));
}

#[test]
fn gc_floor_respects_slowest_component() {
    let mut backend = LoggingBackend::new();
    backend.register_app(SIM);
    backend.register_app(ANA);
    let bbox = BBox::d1(0, 99);
    for v in 1..=10u32 {
        backend.put(&PutRequest {
            app: SIM,
            desc: ObjDesc { var: 0, version: v, bbox },
            payload: Payload::virtual_from(100, &[v as u64]),
            seq: 0,
            tctx: obs::TraceCtx::NONE,
        });
        backend.get(&GetRequest {
            app: ANA,
            var: 0,
            version: v,
            bbox,
            seq: 0,
            tctx: obs::TraceCtx::NONE,
        });
    }
    // Only the simulation checkpoints — analytics could still roll back to 0
    // and replay everything, so nothing may be collected.
    backend.control(CtlRequest::Checkpoint { app: SIM, upto_version: 10 });
    assert_eq!(backend.store().versions(0).len(), 10, "log pinned by analytics");
    // Analytics checkpoints at 6: versions 1..=5 become collectible.
    backend.control(CtlRequest::Checkpoint { app: ANA, upto_version: 6 });
    let versions = backend.store().versions(0);
    assert!(!versions.contains(&1) && !versions.contains(&5), "old versions gone");
    assert!(versions.contains(&7) && versions.contains(&10), "recent kept");
}

/// A replicated reader never rolls back, so it must not pin the floor: on
/// Table II, Hy's staging data is collected exactly as Un's is. Hy's peak
/// still sits 1 056 queue events (67 584 B) above Un's: the replicated
/// reader's event queue never holds a checkpoint marker, so
/// `EventQueue::truncate_through` never trims the gets it logged (ROADMAP
/// item 14 step 2).
#[test]
fn a_replicated_reader_does_not_pin_the_gc_floor() {
    use wfcr::protocol::WorkflowProtocol;
    let hy = workflow::run(&workflow::config::table2(WorkflowProtocol::Hybrid));
    let un = workflow::run(&workflow::config::table2(WorkflowProtocol::Uncoordinated));
    assert!(hy.gc_reclaimed_bytes > 0, "Hy reclaims nothing");
    assert_eq!(hy.gc_reclaimed_bytes, un.gc_reclaimed_bytes);
    let above = hy.staging_peak_bytes.saturating_sub(un.staging_peak_bytes);
    let events = above / wfcr::event::EVENT_BYTES;
    assert!(events <= 1_056, "Hy peaks {events} events above Un");
}
