//! The two anomalies of the paper's Figure 2, demonstrated and closed.
//!
//! * **Case 1** — the analytics fails and re-reads steps it already
//!   processed while the simulation has moved on. Under *individual* C/R
//!   (plain staging, bounded version retention) it observes the **wrong
//!   version**; under the logging scheme it re-observes the original data.
//! * **Case 2** — the simulation fails and re-writes steps already staged.
//!   Under individual C/R the duplicate writes land as fresh data (and can
//!   resurrect stale versions); under the logging scheme they are absorbed.
//!
//! The last test runs the whole workflow and pins a defect of the
//! coordinated baseline: a consumer failure leaves it serving stale data.

use sim_core::time::SimTime;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{CtlRequest, GetRequest, ObjDesc, PutRequest, PutStatus};
use staging::service::{PlainBackend, StoreBackend};
use wfcr::backend::{pieces_digest, LoggingBackend};
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, FailureSpec};

const SIM: u32 = 0;
const ANA: u32 = 1;

fn bbox() -> BBox {
    BBox::d1(0, 63)
}

fn put(version: u32) -> PutRequest {
    PutRequest {
        app: SIM,
        desc: ObjDesc { var: 0, version, bbox: bbox() },
        payload: Payload::virtual_from(64, &[version as u64]),
        seq: 0,
        tctx: obs::TraceCtx::NONE,
    }
}

fn get(version: u32) -> GetRequest {
    GetRequest { app: ANA, var: 0, version, bbox: bbox(), seq: 0, tctx: obs::TraceCtx::NONE }
}

/// Drive six coupled steps against any backend, returning per-step digests.
fn six_steps<B: StoreBackend>(b: &mut B) -> Vec<u64> {
    (1..=6u32)
        .map(|v| {
            b.put(&put(v));
            let (pieces, _) = b.get(&get(v));
            pieces_digest(&pieces)
        })
        .collect()
}

#[test]
fn case1_anomaly_exists_without_logging() {
    // Plain staging retains only the latest 2 versions (DataSpaces-style).
    let mut plain = PlainBackend::new(2);
    let original = six_steps(&mut plain);

    // Analytics "rolls back" to step 3 and re-reads steps 4..=6. Versions 4
    // and older were evicted; it gets served *newer/stale-resolved* data —
    // the case-1 anomaly ("the re-executive analytics process will get the
    // wrong version of data").
    let (pieces, _) = plain.get(&get(4));
    let redo4 = pieces_digest(&pieces);
    assert_ne!(
        redo4, original[3],
        "without logging, the rolled-back consumer must observe wrong data"
    );
}

#[test]
fn case1_anomaly_closed_by_logging() {
    let mut logged = LoggingBackend::new();
    logged.register_app(SIM);
    logged.register_app(ANA);
    let original = six_steps(&mut logged);

    logged.control(CtlRequest::Checkpoint { app: ANA, upto_version: 3 });
    logged.control(CtlRequest::Recovery { app: ANA, resume_version: 3 });
    for v in 4..=6u32 {
        let (pieces, _) = logged.get(&get(v));
        assert_eq!(
            pieces_digest(&pieces),
            original[(v - 1) as usize],
            "replayed read of step {v} must match the original"
        );
    }
    assert_eq!(logged.digest_mismatches(), 0);
}

#[test]
fn case2_anomaly_exists_without_logging() {
    let mut plain = PlainBackend::new(2);
    six_steps(&mut plain);

    // Simulation rolls back to step 4 and re-executes: its re-puts of 5 and
    // 6 are accepted as *fresh* writes ("unnecessarily perform the data
    // updating operation twice").
    let (s5, stats5) = plain.put(&put(5));
    assert_eq!(s5, PutStatus::Stored, "plain staging cannot recognize re-writes");
    assert!(stats5.touched_bytes > 0, "the duplicate write costs a full copy");
}

#[test]
fn case2_anomaly_closed_by_logging() {
    let mut logged = LoggingBackend::new();
    logged.register_app(SIM);
    logged.register_app(ANA);
    six_steps(&mut logged);

    logged.control(CtlRequest::Checkpoint { app: SIM, upto_version: 4 });
    logged.control(CtlRequest::Recovery { app: SIM, resume_version: 4 });
    for v in 5..=6u32 {
        let (status, stats) = logged.put(&put(v));
        assert_eq!(status, PutStatus::Absorbed, "re-write of step {v}");
        assert_eq!(stats.touched_bytes, 0, "absorption copies nothing");
    }
    // The workflow continues: step 7 is fresh.
    let (status, _) = logged.put(&put(7));
    assert_eq!(status, PutStatus::Stored);
    assert_eq!(logged.absorbed_puts(), 2);
    assert_eq!(logged.digest_mismatches(), 0);
}

#[test]
fn consumer_downstream_of_producer_rollback_sees_single_consistent_history() {
    // Combined scenario: producer rolls back *while* the consumer continues
    // forward. The consumer's later reads must see exactly one version of
    // each step, identical to the pre-failure content.
    let mut logged = LoggingBackend::new();
    logged.register_app(SIM);
    logged.register_app(ANA);

    // Producer writes 1..=6; consumer has only read 1..=3 so far.
    let mut writes = Vec::new();
    for v in 1..=6u32 {
        logged.put(&put(v));
        writes.push(v);
    }
    let mut observed = Vec::new();
    for v in 1..=3u32 {
        let (pieces, _) = logged.get(&get(v));
        observed.push(pieces_digest(&pieces));
    }

    // Producer fails, rolls back to 4, re-puts 5..=6 (absorbed), continues 7.
    logged.control(CtlRequest::Checkpoint { app: SIM, upto_version: 4 });
    logged.control(CtlRequest::Recovery { app: SIM, resume_version: 4 });
    assert_eq!(logged.put(&put(5)).0, PutStatus::Absorbed);
    assert_eq!(logged.put(&put(6)).0, PutStatus::Absorbed);
    assert_eq!(logged.put(&put(7)).0, PutStatus::Stored);

    // Consumer now reads 4..=7 for the first time: every read is served and
    // matches the canonical content for that version.
    for v in 4..=7u32 {
        let (pieces, _) = logged.get(&get(v));
        assert!(!pieces.is_empty(), "step {v} must be readable");
        let expect = Payload::virtual_from(64, &[v as u64]).digest();
        let got = pieces[0].payload.digest();
        assert_eq!(got, expect, "step {v} content");
    }
    assert_eq!(logged.digest_mismatches(), 0);
}

/// The consumer fails at 700 ms of `tiny`, after the producer has put
/// v1–v6. Un and Hy replay every re-read from the log; In, with bounded
/// retention and no log, serves stale versions by design (the positive
/// control). Co should read 0 like the logging protocols, but does not: a
/// v7 put that the producer's pre-rollback incarnation already had on the
/// wire lands after the `GlobalReset` that cut v5 and v6, and the rolled-back
/// consumer's gets of v5 and v6 are released against it.
#[test]
fn a_consumer_failure_reads_stale_data_only_where_the_protocol_allows() {
    let stale = |protocol| {
        let cfg = tiny(protocol)
            .with_failures(vec![FailureSpec::At { at: SimTime::from_millis(700), app: ANA }]);
        workflow::runner::run(&cfg).stale_gets
    };
    assert_eq!(stale(WorkflowProtocol::Uncoordinated), 0, "Un replays from the log");
    assert_eq!(stale(WorkflowProtocol::Hybrid), 0, "Hy replays from the log");
    assert!(stale(WorkflowProtocol::Individual) > 0, "In keeps no log: stale reads by design");
    assert_eq!(
        stale(WorkflowProtocol::Coordinated),
        16,
        "pins an unfixed defect (the orphan put): a put from the pre-rollback \
         incarnation survives the GlobalReset. The fix must turn this into `== 0`"
    );
}
