//! The global user interface (paper Table 1) for threaded-mode applications.
//!
//! | paper call              | method                              |
//! |-------------------------|-------------------------------------|
//! | `workflow_check()`      | [`WorkflowClient::workflow_check`]  |
//! | `workflow_restart()`    | [`WorkflowClient::workflow_restart`]|
//! | `dspaces_put_with_log()`| [`WorkflowClient::put_with_log`]    |
//! | `dspaces_get_with_log()`| [`WorkflowClient::get_with_log`]    |
//!
//! [`WorkflowClient`] wraps a [`staging::threaded::SyncClient`] (connected to
//! servers running the [`crate::backend::LoggingBackend`]) plus a shared
//! [`ckpt::CheckpointStore`]. `workflow_check` persists the component
//! snapshot *first*, then notifies staging — the ordering the paper's Figure
//! 7(a) prescribes (state must be durable before the marker bounds the log).
//! `workflow_restart` restores the snapshot, re-attaches, and notifies
//! staging so the servers enter replay mode for this component.

use ckpt::{CheckpointStore, Snapshot};
use parking_lot::Mutex;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{AppId, GetPiece, PutStatus, VarId, Version};
use staging::threaded::{ClientError, SyncClient};
use std::sync::Arc;

/// Errors from the workflow interface.
#[derive(Debug, PartialEq, Eq)]
pub enum WorkflowError {
    /// Underlying staging client failure.
    Staging(ClientError),
    /// `workflow_restart` found no checkpoint to restore.
    NoCheckpoint,
}

impl From<ClientError> for WorkflowError {
    fn from(e: ClientError) -> Self {
        WorkflowError::Staging(e)
    }
}

/// Per-component handle implementing the paper's four-call interface.
pub struct WorkflowClient {
    staging: SyncClient,
    ckpts: Arc<Mutex<CheckpointStore>>,
    next_ckpt_id: u64,
    torn_detected: u64,
}

impl WorkflowClient {
    /// Wrap a connected staging client and a shared checkpoint store.
    pub fn new(staging: SyncClient, ckpts: Arc<Mutex<CheckpointStore>>) -> Self {
        WorkflowClient { staging, ckpts, next_ckpt_id: 1, torn_detected: 0 }
    }

    /// Torn checkpoints detected (and skipped) by `workflow_restart`.
    pub fn torn_detected(&self) -> u64 {
        self.torn_detected
    }

    /// This component's id.
    pub fn app(&self) -> AppId {
        self.staging.app()
    }

    /// `workflow_check()`: persist `snapshot` to reliable storage, then send
    /// the checkpoint event to data staging. Returns the snapshot's
    /// `W_Chk_ID`.
    pub fn workflow_check(
        &mut self,
        resume_step: u32,
        rng_state: [u64; 4],
        state_bytes: u64,
    ) -> Result<u64, WorkflowError> {
        let ckpt_id = self.next_ckpt_id;
        self.next_ckpt_id += 1;
        let snap = Snapshot::new(self.app(), ckpt_id, resume_step, rng_state, state_bytes);
        let w_chk_id = snap.w_chk_id();
        // Step 1 (Fig. 7a): save process state to reliable storage.
        self.ckpts.lock().save(snap);
        // Step 2: notify data staging; the marker bounds the replayable log.
        let upto = resume_step.saturating_sub(1);
        self.staging.checkpoint(upto)?;
        Ok(w_chk_id)
    }

    /// `workflow_restart()`: restore the latest checkpoint, re-initialize
    /// the staging client connection, and send the recovery event so the
    /// servers generate this component's replay script. Returns the restored
    /// snapshot.
    pub fn workflow_restart(&mut self) -> Result<Snapshot, WorkflowError> {
        let snap = {
            let store = self.ckpts.lock();
            // Checksum-verify: skip torn snapshots, falling back to the
            // newest complete one.
            let valid = store.latest_valid(self.app()).cloned();
            if let Some(newest) = store.latest(self.app()) {
                if valid.as_ref().map(|v| v.ckpt_id) != Some(newest.ckpt_id) {
                    self.torn_detected += 1;
                }
            }
            valid.ok_or(WorkflowError::NoCheckpoint)?
        };
        // (Re-attachment is implicit for the in-process mesh; a real client
        // would rebuild its RDMA connections here.)
        let resume_version = snap.resume_step.saturating_sub(1);
        self.staging.recover(resume_version)?;
        // Checkpoint ids continue after the restored one.
        self.next_ckpt_id = snap.ckpt_id + 1;
        Ok(snap)
    }

    /// `dspaces_put_with_log()`: write a region; servers log the event.
    pub fn put_with_log(
        &mut self,
        var: VarId,
        version: Version,
        bbox: &BBox,
        fill: impl FnMut(&BBox) -> Payload,
    ) -> Result<Vec<PutStatus>, WorkflowError> {
        Ok(self.staging.put(var, version, bbox, fill)?)
    }

    /// `dspaces_get_with_log()`: read a region; during recovery the servers
    /// serve the logged version.
    pub fn get_with_log(
        &mut self,
        var: VarId,
        version: Version,
        bbox: &BBox,
    ) -> Result<Vec<GetPiece>, WorkflowError> {
        Ok(self.staging.get(var, version, bbox)?)
    }

    /// Tear down the staging servers (test/shutdown convenience).
    pub fn shutdown_servers(&self) {
        self.staging.shutdown_servers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LoggingBackend;
    use net::threaded::ThreadedNet;
    use staging::dist::Distribution;
    use staging::service::{ServerCosts, ServerLogic};
    use staging::threaded::spawn_server;

    fn fill_for(version: Version) -> impl FnMut(&BBox) -> Payload {
        move |b: &BBox| {
            let data: Vec<u8> =
                (0..b.volume()).map(|i| (version as u64 * 37 + b.lb[0] + i) as u8).collect();
            Payload::inline(data)
        }
    }

    fn setup(
        nservers: usize,
        napps: usize,
    ) -> (Vec<std::thread::JoinHandle<ServerLogic<LoggingBackend>>>, Vec<WorkflowClient>) {
        let dist = Distribution::new(BBox::whole([16, 16, 16]), [8, 8, 8], nservers);
        let mut eps = ThreadedNet::mesh(nservers + napps);
        let client_eps = eps.split_off(nservers);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                let mut backend = LoggingBackend::new();
                for a in 0..napps as AppId {
                    backend.register_app(a);
                }
                spawn_server(ep, ServerLogic::new(backend, ServerCosts::default()))
            })
            .collect();
        let ckpts = Arc::new(Mutex::new(CheckpointStore::new(2)));
        let clients = client_eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                let sync = SyncClient::new(ep, dist.clone(), (0..nservers).collect(), i as AppId);
                WorkflowClient::new(sync, Arc::clone(&ckpts))
            })
            .collect();
        (handles, clients)
    }

    #[test]
    fn four_call_interface_end_to_end() {
        let (handles, mut clients) = setup(2, 2);
        let mut consumer = clients.pop().unwrap();
        let mut producer = clients.pop().unwrap();
        let bbox = BBox::whole([16, 16, 16]);

        // Steps 1..=4 write-then-read; checkpoint both at step 2 boundaries.
        let mut digests = Vec::new();
        for v in 1..=4u32 {
            producer.put_with_log(0, v, &bbox, fill_for(v)).unwrap();
            let pieces = consumer.get_with_log(0, v, &bbox).unwrap();
            digests.push(crate::backend::pieces_digest(&pieces));
            if v == 2 {
                producer.workflow_check(v + 1, [1, 2, 3, 4], 1 << 20).unwrap();
                consumer.workflow_check(v + 1, [5, 6, 7, 8], 1 << 18).unwrap();
            }
        }

        // Consumer fails and restarts: replays steps 3..=4 with original data.
        let snap = consumer.workflow_restart().unwrap();
        assert_eq!(snap.resume_step, 3);
        for (i, v) in (3..=4u32).enumerate() {
            let pieces = consumer.get_with_log(0, v, &bbox).unwrap();
            assert_eq!(
                crate::backend::pieces_digest(&pieces),
                digests[2 + i],
                "replayed step {v} observes original data"
            );
        }

        consumer.shutdown_servers();
        for h in handles {
            let logic = h.join().unwrap();
            assert_eq!(logic.backend().digest_mismatches(), 0);
        }
    }

    #[test]
    fn restart_without_checkpoint_fails() {
        let (handles, mut clients) = setup(1, 1);
        let mut c = clients.pop().unwrap();
        assert_eq!(c.workflow_restart().unwrap_err(), WorkflowError::NoCheckpoint);
        c.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn w_chk_ids_are_unique_across_components() {
        let (handles, mut clients) = setup(1, 2);
        let mut b = clients.pop().unwrap();
        let mut a = clients.pop().unwrap();
        let ida = a.workflow_check(1, [1, 1, 1, 1], 10).unwrap();
        let idb = b.workflow_check(1, [1, 1, 1, 1], 10).unwrap();
        let ida2 = a.workflow_check(2, [1, 1, 1, 1], 10).unwrap();
        assert_ne!(ida, idb);
        assert_ne!(ida, ida2);
        a.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn restart_skips_torn_checkpoint_and_falls_back() {
        let (handles, mut clients) = setup(2, 2);
        let mut consumer = clients.pop().unwrap();
        let mut producer = clients.pop().unwrap();
        let bbox = BBox::whole([16, 16, 16]);
        for v in 1..=3u32 {
            producer.put_with_log(0, v, &bbox, fill_for(v)).unwrap();
            consumer.get_with_log(0, v, &bbox).unwrap();
            consumer.workflow_check(v + 1, [v as u64; 4], 100).unwrap();
        }
        // The newest checkpoint (resume_step 4) was torn mid-write.
        consumer.ckpts.lock().tear_latest(consumer.app());
        let snap = consumer.workflow_restart().unwrap();
        assert_eq!(snap.resume_step, 3, "fell back to the previous complete checkpoint");
        assert_eq!(consumer.torn_detected(), 1);
        consumer.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn injected_torn_checkpoints_are_counted_and_skipped() {
        let (handles, mut clients) = setup(1, 1);
        let mut c = clients.pop().unwrap();
        // Every save torn (a crash mid-write; the marker is still sent, so
        // the torn snapshot is the newest): restore must find nothing valid.
        for (resume_step, rng) in [(2, [1; 4]), (3, [2; 4])] {
            c.workflow_check(resume_step, rng, 100).unwrap();
            c.ckpts.lock().tear_latest(c.app());
        }
        assert_eq!(c.ckpts.lock().torn_count(c.app()), 2);
        assert_eq!(c.workflow_restart().unwrap_err(), WorkflowError::NoCheckpoint);
        c.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn producer_restart_absorbs_rewrites() {
        let (handles, mut clients) = setup(2, 2);
        let mut consumer = clients.pop().unwrap();
        let mut producer = clients.pop().unwrap();
        let bbox = BBox::whole([16, 16, 16]);
        for v in 1..=3u32 {
            producer.put_with_log(0, v, &bbox, fill_for(v)).unwrap();
            consumer.get_with_log(0, v, &bbox).unwrap();
        }
        producer.workflow_check(2, [9, 9, 9, 9], 100).unwrap(); // covers step 1
        let snap = producer.workflow_restart().unwrap();
        assert_eq!(snap.resume_step, 2);
        // Deterministic re-execution of steps 2..=3.
        let s2 = producer.put_with_log(0, 2, &bbox, fill_for(2)).unwrap();
        let s3 = producer.put_with_log(0, 3, &bbox, fill_for(3)).unwrap();
        assert!(s2.iter().all(|s| *s == PutStatus::Absorbed));
        assert!(s3.iter().all(|s| *s == PutStatus::Absorbed));
        // New step stored normally.
        let s4 = producer.put_with_log(0, 4, &bbox, fill_for(4)).unwrap();
        assert!(s4.iter().all(|s| *s == PutStatus::Stored));
        producer.shutdown_servers();
        for h in handles {
            let logic = h.join().unwrap();
            assert_eq!(logic.backend().digest_mismatches(), 0);
        }
    }
}
