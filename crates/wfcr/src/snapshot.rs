//! Checkpointing the staging log itself.
//!
//! The paper notes that "to guarantee the data availability in staging, the
//! data staging can contain data resilience mechanisms such as data
//! replication or erasure coding. It can also be integrated with the third
//! part framework such as FTI for data resilience." This module provides the
//! serialization half of that integration: a quiescent logging backend can
//! be exported to a [`LogSnapshot`] (e.g. for an FTI-style persist of the
//! staging area) and rebuilt from one after a staging restart.
//!
//! Snapshots must be taken while no replay is active — a replay is a
//! transient protocol state between `workflow_restart()` and the component
//! catching up, not durable state.

use crate::backend::LoggingBackend;
use crate::gc::GcState;
use crate::queue::EventQueue;
use serde::{Deserialize, Serialize};
use staging::proto::AppId;
use staging::store::VersionedStore;
use std::collections::BTreeMap;

/// A serializable image of one staging server's log state.
#[derive(Debug, Serialize, Deserialize)]
pub struct LogSnapshot {
    /// The versioned data log.
    pub store: VersionedStore,
    /// Per-component event queues.
    pub queues: BTreeMap<AppId, EventQueue>,
    /// GC marks.
    pub gc: GcState,
    /// Next `W_Chk_ID` to assign.
    pub next_w_chk: u64,
}

/// Errors from snapshotting.
#[derive(Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// A component is mid-replay; the backend is not quiescent.
    ReplayActive {
        /// One offending component.
        app: AppId,
    },
}

impl LoggingBackend {
    /// Export the backend's durable state. Fails if any replay is active.
    pub fn snapshot(&self) -> Result<LogSnapshot, SnapshotError> {
        if let Some(app) = self.replaying_apps().first() {
            return Err(SnapshotError::ReplayActive { app: *app });
        }
        Ok(LogSnapshot {
            store: self.store.clone(),
            queues: self.queues.clone(),
            gc: self.gc.clone(),
            next_w_chk: self.next_w_chk,
        })
    }

    /// Rebuild a backend from a snapshot (fresh replay state, counters reset).
    pub fn from_snapshot(snap: LogSnapshot) -> LoggingBackend {
        let mut b = LoggingBackend::new();
        (b.store, b.queues, b.gc, b.next_w_chk) =
            (snap.store, snap.queues, snap.gc, snap.next_w_chk);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staging::geometry::BBox;
    use staging::payload::Payload;
    use staging::proto::{CtlRequest, GetRequest, ObjDesc, PutRequest, PutStatus};
    use staging::service::StoreBackend;

    const SIM: AppId = 0;
    const ANA: AppId = 1;

    fn populate(b: &mut LoggingBackend, steps: u32) -> Vec<u64> {
        let bbox = BBox::d1(0, 63);
        let mut digests = Vec::new();
        for v in 1..=steps {
            b.put(&PutRequest {
                app: SIM,
                desc: ObjDesc { var: 0, version: v, bbox },
                payload: Payload::virtual_from(64, &[v as u64]),
                seq: 0,
                tctx: obs::TraceCtx::NONE,
            });
            let (pieces, _) = b.get(&GetRequest {
                app: ANA,
                var: 0,
                version: v,
                bbox,
                seq: 0,
                tctx: obs::TraceCtx::NONE,
            });
            digests.push(crate::backend::pieces_digest(&pieces));
        }
        digests
    }

    #[test]
    fn snapshot_round_trip_preserves_replayability() {
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        let digests = populate(&mut b, 6);
        b.control(CtlRequest::Checkpoint { app: ANA, upto_version: 3 });

        // Snapshot → JSON → restore (simulating a staging restart backed by
        // FTI-style persistence).
        let snap = b.snapshot().expect("quiescent");
        let json = serde_json::to_string(&snap).expect("serialize");
        let snap2: LogSnapshot = serde_json::from_str(&json).expect("deserialize");
        let mut restored = LoggingBackend::from_snapshot(snap2);

        // The restored backend still serves a consumer rollback replay.
        let (resp, _) = restored.control(CtlRequest::Recovery { app: ANA, resume_version: 3 });
        assert_eq!(resp.pending_replay, 3);
        let bbox = BBox::d1(0, 63);
        for v in 4..=6u32 {
            let (pieces, _) = restored.get(&GetRequest {
                app: ANA,
                var: 0,
                version: v,
                bbox,
                seq: 0,
                tctx: obs::TraceCtx::NONE,
            });
            assert_eq!(
                crate::backend::pieces_digest(&pieces),
                digests[(v - 1) as usize],
                "restored replay of version {v}"
            );
        }
        assert_eq!(restored.digest_mismatches(), 0);
    }

    #[test]
    fn snapshot_rejected_during_replay() {
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        populate(&mut b, 4);
        b.control(CtlRequest::Recovery { app: ANA, resume_version: 0 });
        assert!(b.is_replaying(ANA));
        assert!(matches!(b.snapshot(), Err(SnapshotError::ReplayActive { app: ANA })));
    }

    #[test]
    fn restored_backend_continues_normally() {
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        populate(&mut b, 3);
        let snap = b.snapshot().unwrap();
        let mut restored = LoggingBackend::from_snapshot(snap);

        // New writes continue with correct semantics.
        let bbox = BBox::d1(0, 63);
        let (status, _) = restored.put(&PutRequest {
            app: SIM,
            desc: ObjDesc { var: 0, version: 4, bbox },
            payload: Payload::virtual_from(64, &[4]),
            seq: 0,
            tctx: obs::TraceCtx::NONE,
        });
        assert_eq!(status, PutStatus::Stored);
        assert_eq!(restored.store().versions(0), vec![1, 2, 3, 4]);
        // W_Chk_IDs keep advancing uniquely.
        let (r1, _) = restored.control(CtlRequest::Checkpoint { app: SIM, upto_version: 4 });
        let _ = r1;
        assert!(restored.queue(SIM).unwrap().last_w_chk_id().is_some());
    }

    #[test]
    fn bytes_preserved_across_snapshot() {
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        populate(&mut b, 5);
        let before = b.bytes_resident();
        let restored = LoggingBackend::from_snapshot(b.snapshot().unwrap());
        assert_eq!(restored.bytes_resident(), before);
    }
}
