//! The durable (PFS) checkpoint tier: real bytes behind the in-memory
//! directory.
//!
//! The paper assumes "checkpoints can be stored through a centralized
//! parallel file system, assumed to be fault-free"; [`DurableTier`] is that
//! tier made concrete. It implements [`SnapshotSink`], journaling every
//! sealed snapshot (JSON-encoded) through a `logstore::LogStore` with an
//! immediate flush — a checkpoint the caller believes taken must survive the
//! very next crash, so there is no batching on this path. After a process
//! death, [`open`] replays the surviving records into snapshots and
//! [`DurableTier::load_into`] rebuilds the directory via
//! [`CheckpointStore::restore`] (no re-sealing: a snapshot torn on the media
//! still fails its integrity check and restore falls back to an older one).
//!
//! The checkpoint log is **never compacted**: watermarks are `w_chk_id =
//! (app << 48) | ckpt_id`, which is not monotonic across apps, and the
//! retention window is small anyway — bounded growth comes from the store's
//! own eviction keeping the replay set tiny.

use crate::snapshot::Snapshot;
use crate::store::{CheckpointStore, SnapshotSink};
use logstore::{LogConfig, LogStore, Media};
use std::io;

/// The file-backed checkpoint tier. One per checkpoint directory.
#[derive(Debug)]
pub struct DurableTier {
    log: LogStore,
    /// Reusable serialization scratch: persist encodes into this buffer
    /// instead of allocating a fresh `Vec` per snapshot.
    scratch: Vec<u8>,
}

/// Open the tier over `media`, recovering every intact snapshot record in
/// write order (oldest first — feed them to [`CheckpointStore::restore`] in
/// this order so retention keeps the newest).
pub fn open(media: Box<dyn Media>, cfg: LogConfig) -> io::Result<(DurableTier, Vec<Snapshot>)> {
    let log = LogStore::open(media, cfg)?;
    let mut snaps = Vec::new();
    for rec in log.read_all()? {
        // Records are CRC-clean by construction; a record that decodes to
        // garbage anyway (format drift) is dropped rather than trusted.
        if let Ok(snap) = serde_json::from_slice::<Snapshot>(&rec.payload) {
            snaps.push(snap);
        }
    }
    Ok((DurableTier { log, scratch: Vec::new() }, snaps))
}

impl DurableTier {
    /// A fresh tier over `media` (recovered snapshots discarded).
    pub fn new(media: Box<dyn Media>, cfg: LogConfig) -> io::Result<Self> {
        Ok(open(media, cfg)?.0)
    }

    /// Rebuild `store` from `snaps` (as returned by [`open`]).
    pub fn load_into(store: &mut CheckpointStore, snaps: Vec<Snapshot>) {
        for snap in snaps {
            store.restore(snap);
        }
    }

    /// Bytes physically flushed to the media so far.
    pub fn bytes_flushed(&self) -> u64 {
        self.log.bytes_flushed()
    }

    /// Records recovered by the opening scan.
    pub fn recovered_records(&self) -> u64 {
        self.log.recovered_records()
    }

    /// Did the opening scan find the log undamaged?
    pub fn was_clean(&self) -> bool {
        self.log.was_clean()
    }
}

impl SnapshotSink for DurableTier {
    fn persist(&mut self, snap: &Snapshot) -> io::Result<()> {
        self.scratch.clear();
        serde_json::to_writer(&mut self.scratch, snap)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.log.append(snap.w_chk_id(), &self.scratch)?;
        // A checkpoint is a commit point: flush regardless of policy.
        self.log.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore::MemMedia;

    fn snap(app: u32, id: u64, step: u32) -> Snapshot {
        Snapshot::new(app, id, step, [id, 2, 3, 4], 1000)
    }

    fn durable_store(mem: &MemMedia, retention: usize) -> CheckpointStore {
        let tier = DurableTier::new(Box::new(mem.clone()), LogConfig::default()).unwrap();
        let mut store = CheckpointStore::new(retention);
        store.attach_sink(Box::new(tier));
        store
    }

    #[test]
    fn saves_survive_full_process_death() {
        let mem = MemMedia::new();
        let mut store = durable_store(&mem, 3);
        store.save(snap(0, 1, 4));
        store.save(snap(0, 2, 8));
        store.save(snap(1, 1, 5));
        assert_eq!(store.sink_errors(), 0);
        drop(store); // process death; nothing graceful happens
        mem.crash();

        let (tier, snaps) = open(Box::new(mem.clone()), LogConfig::default()).unwrap();
        assert!(tier.was_clean());
        assert_eq!(snaps.len(), 3, "persist flushes per snapshot — all survive");
        let mut rebuilt = CheckpointStore::new(3);
        DurableTier::load_into(&mut rebuilt, snaps);
        assert_eq!(rebuilt.latest_valid(0).unwrap().resume_step, 8);
        assert_eq!(rebuilt.latest_valid(1).unwrap().resume_step, 5);
        assert_eq!(rebuilt.bytes_written(), 0, "restore never recharges I/O accounting");
    }

    #[test]
    fn reload_respects_retention_keeping_newest() {
        let mem = MemMedia::new();
        let mut store = durable_store(&mem, 2);
        for id in 1..=5 {
            store.save(snap(0, id, id as u32 * 4));
        }
        drop(store);
        let (_, snaps) = open(Box::new(mem.clone()), LogConfig::default()).unwrap();
        // The log holds all five (never compacted) …
        assert_eq!(snaps.len(), 5);
        // … but the rebuilt directory keeps only the retention window.
        let mut rebuilt = CheckpointStore::new(2);
        DurableTier::load_into(&mut rebuilt, snaps);
        assert_eq!(rebuilt.count(0), 2);
        assert_eq!(rebuilt.latest_valid(0).unwrap().ckpt_id, 5);
        assert!(rebuilt.get(0, 3).is_none());
    }

    #[test]
    fn torn_snapshot_on_media_is_detected_not_laundered() {
        let mem = MemMedia::new();
        // Persist one good and one content-corrupted snapshot directly
        // through the tier (as a torn PFS write would leave them).
        let mut tier = DurableTier::new(Box::new(mem.clone()), LogConfig::default()).unwrap();
        let mut good = snap(0, 1, 4);
        good.seal();
        tier.persist(&good).unwrap();
        let mut torn = snap(0, 2, 8);
        torn.seal();
        torn.state_bytes ^= 0xDEAD; // content changed after the seal
        tier.persist(&torn).unwrap();
        drop(tier);

        let (_, snaps) = open(Box::new(mem.clone()), LogConfig::default()).unwrap();
        let mut rebuilt = CheckpointStore::new(3);
        DurableTier::load_into(&mut rebuilt, snaps);
        assert_eq!(rebuilt.count(0), 2);
        assert!(!rebuilt.latest(0).unwrap().is_intact(), "restore must not re-seal");
        assert_eq!(rebuilt.latest_valid(0).unwrap().ckpt_id, 1, "falls back past the torn one");
        assert_eq!(rebuilt.torn_count(0), 1);
    }

    /// Every snapshot the store writes is sealed, so a record whose seal is
    /// zeroed or missing is damage, not an older format: the zeroed one is
    /// restored but fails its check, the missing one does not decode, and
    /// restore falls back past both to the sealed one.
    #[test]
    fn a_record_without_a_seal_is_not_restored_as_intact() {
        let mem = MemMedia::new();
        let mut tier = DurableTier::new(Box::new(mem.clone()), LogConfig::default()).unwrap();
        let mut sealed = snap(0, 1, 4);
        sealed.seal();
        tier.persist(&sealed).unwrap();
        tier.persist(&snap(0, 2, 8)).unwrap();
        let missing =
            br#"{"app":0,"ckpt_id":3,"resume_step":12,"rng_state":[3,2,3,4],"state_bytes":1000}"#;
        tier.log.append(3, missing).unwrap();
        tier.log.flush().unwrap();
        drop(tier);

        let (_, snaps) = open(Box::new(mem.clone()), LogConfig::default()).unwrap();
        assert_eq!(snaps.len(), 2, "the record without a checksum does not decode");
        let mut rebuilt = CheckpointStore::new(3);
        DurableTier::load_into(&mut rebuilt, snaps);
        assert_eq!(rebuilt.latest(0).unwrap().checksum, 0);
        assert!(!rebuilt.latest(0).unwrap().is_intact(), "a zeroed seal is not intact");
        assert_eq!(rebuilt.latest_valid(0).unwrap().ckpt_id, 1, "falls back to the sealed one");
        assert_eq!(rebuilt.torn_count(0), 1);
    }
}
