//! The checkpoint directory: save, restore and retention.
//!
//! One [`CheckpointStore`] stands for the whole job's checkpoint state.

use crate::snapshot::Snapshot;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A durable persistence hook invoked as the last step of every completed
/// [`CheckpointStore::save`]. The production implementation is
/// [`crate::durable::DurableTier`] (snapshots journaled through a
/// `logstore::LogStore`); the default store has no sink and stays purely
/// in-memory.
pub trait SnapshotSink: Send {
    /// Persist one sealed snapshot. Called after the seal, so what lands on
    /// the media is exactly what a restore must verify.
    fn persist(&mut self, snap: &Snapshot) -> std::io::Result<()>;
}

/// Holds the optional sink without breaking `CheckpointStore`'s `Debug`.
#[derive(Default)]
struct SinkSlot(Option<Box<dyn SnapshotSink>>);

impl fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() { "SinkSlot(attached)" } else { "SinkSlot(none)" })
    }
}

/// In-memory checkpoint directory with bounded retention per component.
#[derive(Debug)]
pub struct CheckpointStore {
    /// app → ckpt_id → snapshot.
    snaps: HashMap<u32, BTreeMap<u64, Snapshot>>,
    /// Keep at most this many snapshots per app.
    retention: usize,
    /// Total bytes ever written (for I/O accounting).
    bytes_written: u64,
    /// Optional durable backend.
    sink: SinkSlot,
    /// Persist calls that returned an error (the in-memory copy stays
    /// authoritative; durability is degraded, not correctness).
    sink_errors: u64,
}

impl CheckpointStore {
    /// Create a store keeping the last `retention` checkpoints per component.
    pub fn new(retention: usize) -> Self {
        assert!(retention >= 1, "must keep at least one checkpoint");
        CheckpointStore {
            snaps: HashMap::new(),
            retention,
            bytes_written: 0,
            sink: SinkSlot(None),
            sink_errors: 0,
        }
    }

    /// Attach a durable backend; every subsequent save is persisted through
    /// it after sealing.
    pub fn attach_sink(&mut self, sink: Box<dyn SnapshotSink>) {
        self.sink = SinkSlot(Some(sink));
    }

    /// Persist calls that failed (durability degraded; in-memory state is
    /// still authoritative).
    pub fn sink_errors(&self) -> u64 {
        self.sink_errors
    }

    /// Re-insert a snapshot recovered from durable storage, **without**
    /// re-sealing it and without charging `bytes_written`: the snapshot is
    /// stored exactly as read back, so one that was torn on the media still
    /// fails [`Snapshot::is_intact`] and restore falls back — re-sealing
    /// here would launder the damage. Retention applies as usual; restore in
    /// oldest-to-newest order to keep the newest snapshots.
    pub fn restore(&mut self, snap: Snapshot) {
        let per_app = self.snaps.entry(snap.app).or_default();
        per_app.insert(snap.ckpt_id, snap);
        while per_app.len() > self.retention {
            let (&oldest, _) = per_app.iter().next().expect("nonempty");
            per_app.remove(&oldest);
        }
    }

    /// Persist a snapshot. The store seals it (stamps the content checksum)
    /// as the final step of the write, so restore can distinguish complete
    /// saves from torn ones. Returns the evicted snapshot, if retention
    /// pushed one out.
    pub fn save(&mut self, mut snap: Snapshot) -> Option<Snapshot> {
        snap.seal();
        if let Some(sink) = self.sink.0.as_mut() {
            if sink.persist(&snap).is_err() {
                self.sink_errors += 1;
            }
        }
        self.bytes_written += snap.persisted_bytes();
        let per_app = self.snaps.entry(snap.app).or_default();
        per_app.insert(snap.ckpt_id, snap);
        if per_app.len() > self.retention {
            let (&oldest, _) = per_app.iter().next().expect("nonempty");
            return per_app.remove(&oldest);
        }
        None
    }

    /// Latest snapshot for `app`, if any — torn or not. Restore paths should
    /// prefer [`CheckpointStore::latest_valid`].
    pub fn latest(&self, app: u32) -> Option<&Snapshot> {
        self.snaps.get(&app).and_then(|m| m.values().next_back())
    }

    /// Latest snapshot for `app` whose checksum verifies, skipping torn
    /// writes (newest first). This is the restore-time fallback: a crash
    /// mid-checkpoint leaves the newest snapshot torn, and recovery falls
    /// back to the previous complete one.
    pub fn latest_valid(&self, app: u32) -> Option<&Snapshot> {
        self.snaps.get(&app).and_then(|m| m.values().rev().find(|s| s.is_intact()))
    }

    /// Fault injection: corrupt the newest snapshot of `app` as a torn
    /// write would (content perturbed after the seal). Returns whether a
    /// snapshot was present to tear.
    pub fn tear_latest(&mut self, app: u32) -> bool {
        if let Some(s) = self.snaps.get_mut(&app).and_then(|m| m.values_mut().next_back()) {
            s.state_bytes ^= 0xDEAD;
            true
        } else {
            false
        }
    }

    /// Torn (checksum-failing) snapshots currently retained for `app`.
    pub fn torn_count(&self, app: u32) -> usize {
        self.snaps.get(&app).map(|m| m.values().filter(|s| !s.is_intact()).count()).unwrap_or(0)
    }

    /// A specific snapshot.
    pub fn get(&self, app: u32, ckpt_id: u64) -> Option<&Snapshot> {
        self.snaps.get(&app).and_then(|m| m.get(&ckpt_id))
    }

    /// Number of retained snapshots for `app`.
    pub fn count(&self, app: u32) -> usize {
        self.snaps.get(&app).map(BTreeMap::len).unwrap_or(0)
    }

    /// Cumulative checkpoint bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Apps with at least one snapshot.
    pub fn apps(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.snaps.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(app: u32, id: u64, step: u32) -> Snapshot {
        Snapshot::new(app, id, step, [id, 2, 3, 4], 1000)
    }

    #[test]
    fn save_and_latest() {
        let mut st = CheckpointStore::new(3);
        st.save(snap(0, 1, 4));
        st.save(snap(0, 2, 8));
        assert_eq!(st.latest(0).unwrap().resume_step, 8);
        assert_eq!(st.count(0), 2);
        assert!(st.latest(1).is_none());
    }

    #[test]
    fn retention_evicts_oldest() {
        let mut st = CheckpointStore::new(2);
        assert!(st.save(snap(0, 1, 4)).is_none());
        assert!(st.save(snap(0, 2, 8)).is_none());
        let evicted = st.save(snap(0, 3, 12)).unwrap();
        assert_eq!(evicted.ckpt_id, 1);
        assert_eq!(st.count(0), 2);
        assert!(st.get(0, 1).is_none());
        assert!(st.get(0, 2).is_some());
    }

    #[test]
    fn per_app_isolation() {
        let mut st = CheckpointStore::new(1);
        st.save(snap(0, 1, 4));
        st.save(snap(1, 1, 5));
        assert_eq!(st.latest(0).unwrap().resume_step, 4);
        assert_eq!(st.latest(1).unwrap().resume_step, 5);
        assert_eq!(st.apps(), vec![0, 1]);
    }

    #[test]
    fn torn_latest_falls_back_to_previous_valid() {
        let mut st = CheckpointStore::new(3);
        st.save(snap(0, 1, 4));
        st.save(snap(0, 2, 8));
        assert!(st.latest(0).unwrap().is_intact(), "save seals");
        assert!(st.tear_latest(0));
        assert_eq!(st.torn_count(0), 1);
        // latest() still returns the torn snapshot; latest_valid() skips it.
        assert_eq!(st.latest(0).unwrap().ckpt_id, 2);
        assert!(!st.latest(0).unwrap().is_intact());
        let valid = st.latest_valid(0).unwrap();
        assert_eq!(valid.ckpt_id, 1);
        assert_eq!(valid.resume_step, 4);
        // A later complete checkpoint becomes the valid latest again.
        st.save(snap(0, 3, 12));
        assert_eq!(st.latest_valid(0).unwrap().ckpt_id, 3);
    }

    #[test]
    fn tear_without_snapshots_is_a_noop() {
        let mut st = CheckpointStore::new(2);
        assert!(!st.tear_latest(5));
        assert!(st.latest_valid(5).is_none());
    }

    #[test]
    fn byte_accounting_accumulates() {
        let mut st = CheckpointStore::new(2);
        st.save(snap(0, 1, 4));
        st.save(snap(0, 2, 8));
        assert_eq!(st.bytes_written(), 2000);
        // Eviction does not reduce the cumulative I/O counter.
        st.save(snap(0, 3, 12));
        assert_eq!(st.bytes_written(), 3000);
    }
}
