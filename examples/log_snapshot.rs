//! Persisting the staging log itself: the journal round trip.
//!
//! The paper's framework assumes the staging area keeps logged data
//! available across staging restarts ("it can also be integrated with the
//! third part framework such as FTI for data resilience"). Here a logging
//! staging server journals every event into a segmented `logstore` as it
//! happens; checkpoint markers are commit points that force the buffered
//! frames to media. The process then dies without a farewell flush, the
//! media loses what was never synced, and a new server is rebuilt by
//! replaying the journal's durable prefix. It then serves a component's
//! rollback **replay** with the digests the original run observed.
//!
//! Run with:
//! ```text
//! cargo run --release --example log_snapshot
//! ```

use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{CtlRequest, GetRequest, ObjDesc, PutRequest};
use staging::service::StoreBackend;
use wfcr::backend::{pieces_digest, LoggingBackend};

const SIM: u32 = 0;
const ANA: u32 = 1;

fn put(version: u32) -> PutRequest {
    let bbox = BBox::d1(0, 255);
    let data: Vec<u8> = (0..=255u32).map(|i| (i * version) as u8).collect();
    PutRequest {
        app: SIM,
        desc: ObjDesc { var: 0, version, bbox },
        payload: Payload::inline(data),
        seq: 0,
        tctx: obs::TraceCtx::NONE,
    }
}

fn get(version: u32) -> GetRequest {
    GetRequest {
        app: ANA,
        var: 0,
        version,
        bbox: BBox::d1(0, 255),
        seq: 0,
        tctx: obs::TraceCtx::NONE,
    }
}

fn main() {
    let media = logstore::MemMedia::new();
    let log = logstore::LogStore::open(Box::new(media.clone()), logstore::LogConfig::default())
        .expect("open journal");
    let mut backend = LoggingBackend::new();
    backend.register_app(SIM);
    backend.register_app(ANA);
    backend.attach_journal(Box::new(log));
    let mut observed = Vec::new();
    for v in 1..=6u32 {
        backend.put(&put(v));
        let (pieces, _) = backend.get(&get(v));
        observed.push(pieces_digest(&pieces));
    }
    backend.control(CtlRequest::Checkpoint { app: ANA, upto_version: 6 });
    println!(
        "durable journal: {} bytes flushed at the checkpoint commit point",
        backend.journal_bytes_flushed()
    );
    assert_eq!(backend.journal_errors(), 0);
    drop(backend); // process death — no farewell flush
    media.crash(); // unsynced bytes vanish with the page cache

    // Recovery: scan the durable prefix and rebuild the staging log.
    let reopened = logstore::LogStore::open(Box::new(media), logstore::LogConfig::default())
        .expect("reopen journal");
    let entries = wfcr::journal::decode_records(&reopened.read_all().expect("scan"));
    println!("recovered {} journal entries from the segmented log", entries.len());
    let mut backend = LoggingBackend::from_journal(entries, &[SIM, ANA]);
    let (resp, _) = backend.control(CtlRequest::Recovery { app: ANA, resume_version: 3 });
    println!("analytics workflow_restart(): {} events to replay", resp.pending_replay);
    for v in 4..=6u32 {
        let (pieces, _) = backend.get(&get(v));
        let digest = pieces_digest(&pieces);
        assert_eq!(digest, observed[(v - 1) as usize], "journal-replayed step {v}");
        println!("replayed step {v}: digest {digest:#018x} == original ✓");
    }
    assert_eq!(backend.digest_mismatches(), 0);
    println!("\nOK: durable-journal round trip verified.");
}
