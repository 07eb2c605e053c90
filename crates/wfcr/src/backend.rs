//! The logging store backend — data/event logging plugged into the staging
//! server (the paper's "Data Logging Component" + "Garbage Collection
//! Component" of Figure 8).
//!
//! [`LoggingBackend`] implements [`staging::service::StoreBackend`], so the
//! unmodified staging server (DES actor or thread loop) becomes a *logging*
//! staging server by construction. Differences from the plain backend:
//!
//! * the version store is unbounded — old versions are the data log, deleted
//!   only by GC;
//! * every put/get appends a [`crate::LogEvent`] to the issuing component's
//!   queue;
//! * `workflow_check` control events insert checkpoint markers, advance the
//!   GC marks, and trigger a collection pass;
//! * `workflow_restart` control events build the replay script and flip the
//!   component into replay mode;
//! * during replay, puts matching the script are absorbed and gets are
//!   served the logged version, with digest verification.
//!
//! Journal, then apply: a request is first *decided* (absorbed, replayed, or
//! turned into a [`JournalEntry`]), and an entry is the only thing that
//! changes the store, the queues, the GC marks or `next_w_chk` — through one
//! transition, `apply`, that the live path and
//! [`LoggingBackend::from_journal`] share.

use crate::event::EVENT_BYTES;
use crate::gc::GcState;
use crate::journal::{JournalEntry, JournalWriter, DEFAULT_COALESCE};
use crate::queue::EventQueue;
use crate::replay::{GetDecision, PutDecision, ReplayManager};
use staging::payload::fnv1a_words;
use staging::proto::{
    AppId, CtlRequest, CtlResponse, GetPiece, GetRequest, PutRequest, PutStatus, Version,
};
use staging::service::{JournalStats, OpStats, StoreBackend};
use staging::store::VersionedStore;
use std::collections::BTreeMap;

/// Aggregate digest for a set of get pieces: order-insensitive combination of
/// piece digests and bbox corners, so that re-served results compare stably.
pub fn pieces_digest(pieces: &[GetPiece]) -> u64 {
    let mut acc = 0u64;
    for p in pieces {
        acc ^= fnv1a_words(
            p.payload.digest(),
            &[p.bbox.lb[0], p.bbox.lb[1], p.bbox.lb[2], p.payload.len()],
        );
    }
    acc
}

/// Data/event-logging backend for staging servers.
///
/// ```
/// use staging::geometry::BBox;
/// use staging::payload::Payload;
/// use staging::proto::{CtlRequest, GetRequest, ObjDesc, PutRequest, PutStatus};
/// use staging::service::StoreBackend;
/// use wfcr::backend::LoggingBackend;
///
/// let mut b = LoggingBackend::new();
/// b.register_app(0); // simulation
/// b.register_app(1); // analytics
///
/// // Three coupling cycles.
/// let bbox = BBox::d1(0, 63);
/// for v in 1..=3u32 {
///     b.put(&PutRequest {
///         app: 0,
///         desc: ObjDesc { var: 0, version: v, bbox },
///         payload: Payload::virtual_from(64, &[v as u64]),
///         seq: 0,
///         tctx: obs::TraceCtx::NONE,
///     });
///     b.get(&GetRequest { app: 1, var: 0, version: v, bbox, seq: 0, tctx: obs::TraceCtx::NONE });
/// }
///
/// // The simulation checkpoints through step 2, then fails and restarts:
/// b.control(CtlRequest::Checkpoint { app: 0, upto_version: 2 });
/// b.control(CtlRequest::Recovery { app: 0, resume_version: 2 });
///
/// // Its deterministic re-write of step 3 is absorbed, not duplicated.
/// let (status, _) = b.put(&PutRequest {
///     app: 0,
///     desc: ObjDesc { var: 0, version: 3, bbox },
///     payload: Payload::virtual_from(64, &[3]),
///     seq: 0,
///     tctx: obs::TraceCtx::NONE,
/// });
/// assert_eq!(status, PutStatus::Absorbed);
/// assert_eq!(b.digest_mismatches(), 0);
/// ```
#[derive(Debug)]
pub struct LoggingBackend {
    // The four fields `apply` owns: past `register_app`'s set-up, which a
    // rebuild repeats, no other code changes them.
    store: VersionedStore,
    // BTreeMap, not HashMap: `queues.values_mut()` drives GC trimming and
    // journal rebuild, and those sweeps must visit apps in the same order on
    // every host for runs to be reproducible.
    queues: BTreeMap<AppId, EventQueue>,
    replay: ReplayManager,
    gc: GcState,
    next_w_chk: u64,
    /// Garbage collection enabled (disable only for ablation studies; the
    /// log grows without bound otherwise).
    gc_enabled: bool,
    /// Redundant writes absorbed during replays.
    absorbed_puts: u64,
    /// Gets served from the log at a historical version.
    replayed_gets: u64,
    /// Optional durable journal: every stored put, served get, and control
    /// marker is mirrored to disk so the whole backend can be rebuilt after
    /// full process death ([`LoggingBackend::from_journal`]).
    journal: Option<JournalWriter>,
    /// Mutation hook: offset added to the version served for replayed gets,
    /// deliberately breaking replay-version fidelity. Model-checker tests
    /// use it to verify the oracles catch the violation; always 0 otherwise.
    replay_version_skew: u32,
}

impl Default for LoggingBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl LoggingBackend {
    /// Empty backend. Components may be pre-registered with
    /// [`LoggingBackend::register_app`] so GC is pinned until their first
    /// checkpoint.
    pub fn new() -> Self {
        LoggingBackend {
            store: VersionedStore::unbounded(),
            queues: BTreeMap::new(),
            replay: ReplayManager::new(),
            gc: GcState::new(),
            next_w_chk: 1,
            gc_enabled: true,
            absorbed_puts: 0,
            replayed_gets: 0,
            journal: None,
            replay_version_skew: 0,
        }
    }

    /// Attach a durable journal sink with the default coalescing window.
    /// From here on, every stored put, served get, checkpoint, recovery and
    /// reset marker is mirrored through it; control entries flush, so the
    /// durable prefix always reaches the last checkpoint.
    pub fn attach_journal(&mut self, sink: Box<dyn logstore::Journal>) {
        self.attach_journal_coalesced(sink, DEFAULT_COALESCE);
    }

    /// Attach a durable journal sink with an explicit coalescing window:
    /// entries are handed to the sink in batches of `coalesce` records (one
    /// vectored group commit each) instead of the default window. Commit
    /// points still hand off and flush immediately.
    pub fn attach_journal_coalesced(&mut self, sink: Box<dyn logstore::Journal>, coalesce: usize) {
        self.journal = Some(JournalWriter::new(sink, coalesce));
    }

    /// Flush the journal's buffered tail (graceful shutdown / stats
    /// harvest). No-op without a journal.
    pub fn flush_journal(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.flush();
        }
    }

    /// Rebuild a backend by applying recovered journal entries in order —
    /// the transition the live backend applied as it journalled them.
    /// `apps` pre-registers components (pinning GC exactly as the original
    /// run's registration did). Replay state starts fresh: a replay that was
    /// in flight at crash time is simply restarted by the component's own
    /// `workflow_restart()` after the cold restart.
    pub fn from_journal(entries: Vec<JournalEntry>, apps: &[AppId]) -> LoggingBackend {
        let mut b = LoggingBackend::new();
        for &a in apps {
            b.register_app(a);
        }
        for entry in entries {
            b.apply(entry);
        }
        b
    }

    /// Journal `entry`, then apply it: the one way the live backend changes.
    // lint: commit-point
    fn admit(&mut self, entry: JournalEntry) -> OpStats {
        if let Some(j) = self.journal.as_mut() {
            j.record(&entry);
        }
        self.apply(entry)
    }

    /// What `entry` does to the store, the queues, the GC marks and
    /// `next_w_chk` — nothing else touches them, so a backend rebuilt from
    /// its journal cannot disagree with the one that wrote it.
    fn apply(&mut self, entry: JournalEntry) -> OpStats {
        let mut stats = OpStats::default();
        if let Some(event) = entry.event() {
            self.queues.entry(event.app()).or_default().push(event);
            stats.log_events = 1;
        }
        match entry {
            JournalEntry::Put { desc, payload, .. } => {
                let bytes = payload.accounted_len();
                self.store.put(desc, payload);
                stats.touched_bytes = bytes;
                stats.logged_bytes = bytes;
            }
            JournalEntry::Get { bytes, .. } => stats.touched_bytes = bytes,
            JournalEntry::Checkpoint { app, w_chk_id, upto_version, floor } => {
                self.gc.mark_checkpoint(app, upto_version);
                self.next_w_chk = self.next_w_chk.max(w_chk_id + 1);
                // The GC pass: collect the data log, then trim event queues.
                // The entry carries the effective floor its live pass used
                // (`None`: GC was off). `min(marks) >= floor` holds here both
                // live and at this point of a replayed history, so pinning
                // with the floor itself is that pass exactly.
                if let Some(f) = floor {
                    stats.freed_bytes = self.gc.collect(&mut self.store, Some(f));
                    for q in self.queues.values_mut() {
                        stats.freed_bytes += q.truncate_through(f) as u64 * EVENT_BYTES;
                    }
                }
            }
            // A marker only: entering replay mode is the decision of the
            // `control` that admitted it, and a rebuilt backend must not
            // re-enter it (the component calls `workflow_restart()` again).
            JournalEntry::Recovery { .. } => {}
            // Coordinated rollback is foreign to the logging scheme (the
            // whole point is to avoid it) but is honoured for completeness:
            // discard data newer than the cut. It is an entry like any other,
            // so a cold restart does not resurrect what it discarded.
            JournalEntry::GlobalReset { to_version } => {
                stats.freed_bytes = self.store.remove_newer_than(to_version);
            }
        }
        stats
    }

    /// Enable/disable garbage collection (ablation studies only).
    pub fn set_gc_enabled(&mut self, enabled: bool) {
        self.gc_enabled = enabled;
    }

    /// Pre-register a component (pins GC until it checkpoints).
    pub fn register_app(&mut self, app: AppId) {
        self.gc.register(app);
        self.queues.entry(app).or_default();
    }

    /// The wrapped version store (tests / inspection).
    pub fn store(&self) -> &VersionedStore {
        &self.store
    }

    /// The event queue of `app`, if it has issued any request.
    pub fn queue(&self, app: AppId) -> Option<&EventQueue> {
        self.queues.get(&app)
    }

    /// Is `app` currently replaying?
    pub fn is_replaying(&self, app: AppId) -> bool {
        self.replay.is_replaying(app)
    }

    /// Redundant puts absorbed so far.
    pub fn absorbed_puts(&self) -> u64 {
        self.absorbed_puts
    }

    /// Replayed (log-served) gets so far.
    pub fn replayed_gets(&self) -> u64 {
        self.replayed_gets
    }

    /// Digest mismatches observed during replays (0 for deterministic apps).
    pub fn digest_mismatches(&self) -> u64 {
        self.replay.mismatches()
    }

    /// Bytes currently held in event queues (log metadata).
    fn queue_bytes(&self) -> u64 {
        self.queues.values().map(EventQueue::bytes).sum()
    }

    /// Bytes reclaimed by GC over the backend's lifetime.
    pub fn gc_reclaimed(&self) -> u64 {
        self.gc.reclaimed()
    }

    /// Components currently in replay mode.
    pub fn replaying_apps(&self) -> Vec<AppId> {
        let mut v: Vec<AppId> =
            self.queues.keys().copied().filter(|&a| self.replay.is_replaying(a)).collect();
        v.sort_unstable();
        v
    }

    /// Deliberately serve `logged + skew` instead of the logged version for
    /// replayed gets. This is a seeded-violation hook for the model checker:
    /// with `skew > 0` the replay-version-fidelity oracle must trip (the
    /// served digest no longer matches the logged digest). Never set in
    /// production paths.
    pub fn set_replay_version_skew(&mut self, skew: u32) {
        self.replay_version_skew = skew;
    }

    /// The current GC floor: the version at or below which logged data may
    /// be collected (min per-app checkpoint mark, clamped by active replays).
    pub fn gc_floor(&self) -> Version {
        self.gc.floor(self.replay.active_floor())
    }

    /// Per-component checkpoint marks, sorted by app — the inputs to the GC
    /// floor, exposed for GC-safety oracles.
    pub fn gc_marks(&self) -> Vec<(AppId, Version)> {
        self.gc.apps().into_iter().map(|a| (a, self.gc.mark(a))).collect()
    }

    /// Apps with a registered event queue, sorted.
    pub fn queue_apps(&self) -> Vec<AppId> {
        self.queues.keys().copied().collect()
    }
}

impl StoreBackend for LoggingBackend {
    fn put(&mut self, req: &PutRequest) -> (PutStatus, OpStats) {
        let digest = req.payload.digest();
        match self.replay.on_put(req.app, &req.desc, digest) {
            // A digest mismatch is already counted by the replay manager; the
            // write is absorbed either way (the logged original is authoritative).
            PutDecision::Absorb { .. } => {
                self.absorbed_puts += 1;
                (
                    PutStatus::Absorbed,
                    // Only index work: no store copy, no new log entry.
                    OpStats::default(),
                )
            }
            PutDecision::Store => {
                let payload = req.payload.clone();
                let entry = JournalEntry::Put { app: req.app, desc: req.desc, payload, digest };
                (PutStatus::Stored, self.admit(entry))
            }
        }
    }

    fn get(&mut self, req: &GetRequest) -> (Vec<GetPiece>, OpStats) {
        match self.replay.on_get(req.app, req.var, req.version, &req.bbox) {
            GetDecision::Replay { version, digest } => {
                let version = version + self.replay_version_skew;
                let pieces = self.store.query(req.var, version, &req.bbox);
                if pieces_digest(&pieces) != digest {
                    self.replay.record_mismatch();
                }
                self.replayed_gets += 1;
                let bytes: u64 = pieces.iter().map(|p| p.payload.accounted_len()).sum();
                // Replayed reads are not re-logged.
                (pieces, OpStats { touched_bytes: bytes, replayed: true, ..Default::default() })
            }
            GetDecision::Normal => {
                // The exact requested version when stored; otherwise the
                // newest stored version at or below it (DataSpaces `get`
                // semantics for lagging readers).
                let (served, pieces) =
                    self.store.query_at_or_below(req.var, req.version, &req.bbox);
                let stats = self.admit(JournalEntry::Get {
                    app: req.app,
                    var: req.var,
                    requested: req.version,
                    served,
                    bbox: req.bbox,
                    bytes: pieces.iter().map(|p| p.payload.accounted_len()).sum(),
                    digest: pieces_digest(&pieces),
                });
                (pieces, stats)
            }
        }
    }

    fn control(&mut self, req: CtlRequest) -> (CtlResponse, OpStats) {
        let mut pending_replay = 0;
        let stats = match req {
            CtlRequest::Checkpoint { app, upto_version } => {
                // The floor this pass collects to counts this checkpoint
                // (`apply` marks before it collects), and rides the entry so
                // a rebuild reruns the identical collection.
                let floor = self
                    .gc_enabled
                    .then(|| self.gc.floor_after(app, upto_version, self.replay.active_floor()));
                let w_chk_id = self.next_w_chk;
                let stats =
                    self.admit(JournalEntry::Checkpoint { app, w_chk_id, upto_version, floor });
                // Then compact the durable journal. The journal floor is
                // tighter than the GC floor: GC keeps the newest version of
                // every variable even below the floor, and those puts must
                // stay replayable from disk.
                if let (Some(floor), Some(j)) = (floor, self.journal.as_mut()) {
                    let newest = |&v| self.store.newest_version(v);
                    let data_floor = self.store.vars().iter().filter_map(newest).min();
                    j.compact_below(u64::from(floor.min(data_floor.unwrap_or(floor))));
                }
                stats
            }
            CtlRequest::Recovery { app, resume_version } => {
                let script = self
                    .queues
                    .get(&app)
                    .map(|q| q.replay_script(resume_version))
                    .unwrap_or_default();
                pending_replay = self.replay.begin(app, resume_version, script) as u64;
                self.admit(JournalEntry::Recovery { app, resume_version })
            }
            CtlRequest::GlobalReset { to_version } => {
                self.admit(JournalEntry::GlobalReset { to_version })
            }
        };
        (CtlResponse { req, pending_replay }, stats)
    }

    fn get_ready(&self, req: &GetRequest) -> bool {
        // A replaying component reads from the log, which by construction
        // holds everything its script references.
        if self.replay.is_replaying(req.app) {
            return true;
        }
        self.store.covers_fully(req.var, req.version, &req.bbox)
            || self.store.newest_version(req.var).map(|v| v > req.version).unwrap_or(false)
    }

    fn bytes_resident(&self) -> u64 {
        self.store.bytes() + self.queue_bytes()
    }

    fn journal_stats(&self) -> JournalStats {
        self.journal.as_ref().map_or_else(JournalStats::default, JournalWriter::stats)
    }

    fn live_log_events(&self) -> u64 {
        self.queues.values().map(|q| q.transport_len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staging::geometry::BBox;
    use staging::payload::Payload;
    use staging::proto::ObjDesc;

    const SIM: AppId = 0;
    const ANA: AppId = 1;

    fn put_req(app: AppId, version: Version) -> PutRequest {
        let bbox = BBox::d1(0, 99);
        PutRequest {
            app,
            desc: ObjDesc { var: 0, version, bbox },
            payload: Payload::virtual_from(100, &[version as u64]),
            seq: 0,
            tctx: obs::TraceCtx::NONE,
        }
    }

    fn get_req(app: AppId, version: Version) -> GetRequest {
        GetRequest {
            app,
            var: 0,
            version,
            bbox: BBox::d1(0, 99),
            seq: 0,
            tctx: obs::TraceCtx::NONE,
        }
    }

    /// Run the paper's write-then-read coupling for `steps`, returning the
    /// digests the consumer observed.
    fn run_steps(b: &mut LoggingBackend, from: Version, to: Version) -> Vec<u64> {
        let mut seen = Vec::new();
        for v in from..=to {
            b.put(&put_req(SIM, v));
            let (pieces, _) = b.get(&get_req(ANA, v));
            seen.push(pieces_digest(&pieces));
        }
        seen
    }

    #[test]
    fn normal_path_logs_events() {
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        run_steps(&mut b, 1, 3);
        assert_eq!(b.queue(SIM).unwrap().len(), 3);
        assert_eq!(b.queue(ANA).unwrap().len(), 3);
        assert_eq!(b.store().versions(0), vec![1, 2, 3]);
        assert!(b.bytes_resident() > 300, "3 payloads + 6 events");
    }

    #[test]
    fn consumer_rollback_replays_historical_versions() {
        // Figure 2 case 1: the analytics fails and re-reads old steps while
        // the simulation has moved on.
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        let original = run_steps(&mut b, 1, 6);
        // Analytics checkpointed at 4 then failed at 6 → rollback to 4,
        // replays gets for 5 and 6.
        b.control(CtlRequest::Checkpoint { app: ANA, upto_version: 4 });
        let (resp, _) = b.control(CtlRequest::Recovery { app: ANA, resume_version: 4 });
        assert_eq!(resp.pending_replay, 2);
        assert!(b.is_replaying(ANA));
        // Meanwhile the simulation keeps writing new steps.
        b.put(&put_req(SIM, 7));
        // Replayed reads observe the original data.
        let (p5, _) = b.get(&get_req(ANA, 5));
        let (p6, _) = b.get(&get_req(ANA, 6));
        assert_eq!(pieces_digest(&p5), original[4]);
        assert_eq!(pieces_digest(&p6), original[5]);
        assert!(!b.is_replaying(ANA));
        assert_eq!(b.replayed_gets(), 2);
        assert_eq!(b.digest_mismatches(), 0);
        // Post-replay reads are normal again.
        let (p7, _) = b.get(&get_req(ANA, 7));
        assert!(!p7.is_empty());
    }

    #[test]
    fn producer_rollback_absorbs_redundant_puts() {
        // Figure 2 case 2: the simulation fails and re-writes staged steps.
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        run_steps(&mut b, 1, 6);
        b.control(CtlRequest::Checkpoint { app: SIM, upto_version: 4 });
        b.control(CtlRequest::Recovery { app: SIM, resume_version: 4 });
        // Deterministic re-execution re-puts 5 and 6 with identical payloads.
        let (s5, st5) = b.put(&put_req(SIM, 5));
        let (s6, _) = b.put(&put_req(SIM, 6));
        assert_eq!(s5, PutStatus::Absorbed);
        assert_eq!(s6, PutStatus::Absorbed);
        assert_eq!(st5.touched_bytes, 0, "absorbed write copies nothing");
        assert_eq!(b.absorbed_puts(), 2);
        assert_eq!(b.digest_mismatches(), 0);
        assert!(!b.is_replaying(SIM));
        // Version 7 is new work: stored normally.
        let (s7, _) = b.put(&put_req(SIM, 7));
        assert_eq!(s7, PutStatus::Stored);
        assert_eq!(b.store().versions(0).last(), Some(&7));
    }

    #[test]
    fn tampered_reexecution_flagged() {
        let mut b = LoggingBackend::new();
        run_steps(&mut b, 1, 2);
        b.control(CtlRequest::Recovery { app: SIM, resume_version: 0 });
        // Re-put version 1 with *different* content.
        let bad = PutRequest { payload: Payload::virtual_from(100, &[999]), ..put_req(SIM, 1) };
        let (status, _) = b.put(&bad);
        assert_eq!(status, PutStatus::Absorbed, "log stays authoritative");
        assert_eq!(b.digest_mismatches(), 1);
    }

    /// `put_req` carrying 100 real bytes of `fill`.
    fn inline_put_req(app: AppId, version: Version, fill: u8) -> PutRequest {
        PutRequest { payload: Payload::inline(vec![fill; 100]), ..put_req(app, version) }
    }

    #[test]
    fn reput_of_different_bytes_is_absorbed_and_counted_once() {
        let mut b = LoggingBackend::new();
        b.put(&inline_put_req(SIM, 1, 0x11));
        b.put(&inline_put_req(SIM, 2, 0x22));
        b.control(CtlRequest::Recovery { app: SIM, resume_version: 0 });
        // Step 1 comes back with other bytes, step 2 with the same bytes in a
        // payload built (and digested) afresh.
        let (s1, _) = b.put(&inline_put_req(SIM, 1, 0xEE));
        let (s2, _) = b.put(&inline_put_req(SIM, 2, 0x22));
        assert_eq!((s1, s2), (PutStatus::Absorbed, PutStatus::Absorbed));
        assert_eq!(b.absorbed_puts(), 2);
        assert_eq!(b.digest_mismatches(), 1);
        let (pieces, _) = b.get(&get_req(ANA, 1));
        assert_eq!(pieces[0].payload, Payload::inline(vec![0x11; 100]), "log stays authoritative");
    }

    /// A store rebuilt from the journal holds payloads whose digests were
    /// adopted from the records, not recomputed; serving the wrong version to
    /// a replayed get must still be caught.
    #[test]
    fn replayed_get_after_journal_rebuild_still_detects_a_skewed_version() {
        use logstore::{LogConfig, LogStore, MemMedia};
        let mem = MemMedia::new();
        let mut b = LoggingBackend::new();
        b.attach_journal(Box::new(
            LogStore::open(Box::new(mem.clone()), LogConfig::default()).unwrap(),
        ));
        for v in 1..=3u32 {
            b.put(&inline_put_req(SIM, v, v as u8));
            b.get(&get_req(ANA, v));
        }
        b.flush_journal();
        drop(b);

        let log = LogStore::open(Box::new(mem), LogConfig::default()).unwrap();
        let entries = crate::journal::decode_records(&log.read_all().unwrap());
        assert_eq!(entries.len(), 6);
        let mut rebuilt = LoggingBackend::from_journal(entries, &[SIM, ANA]);
        rebuilt.control(CtlRequest::Recovery { app: ANA, resume_version: 0 });
        let (pieces, _) = rebuilt.get(&get_req(ANA, 1));
        assert_eq!(pieces[0].payload, Payload::inline(vec![1; 100]));
        assert_eq!(rebuilt.digest_mismatches(), 0);
        rebuilt.set_replay_version_skew(1);
        let (pieces, _) = rebuilt.get(&get_req(ANA, 2));
        assert_eq!(pieces[0].payload, Payload::inline(vec![3; 100]), "skewed to version 3");
        assert_eq!(rebuilt.digest_mismatches(), 1);
    }

    /// A journal sink whose every call fails.
    struct FailingJournal;

    impl logstore::Journal for FailingJournal {
        fn append(&mut self, _watermark: u64, _payload: &[u8]) -> std::io::Result<()> {
            Err(std::io::Error::other("failing journal"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("failing journal"))
        }

        fn compact_below(&mut self, _floor: u64) -> std::io::Result<usize> {
            Err(std::io::Error::other("failing journal"))
        }

        fn bytes_flushed(&self) -> u64 {
            0
        }

        fn segments_compacted(&self) -> u64 {
            0
        }
    }

    /// A failing journal degrades durability, never the backend's answers:
    /// through puts, gets, a collecting checkpoint, a recovery with absorbed
    /// re-puts and replayed gets, and a global reset, a backend journalling
    /// into a sink that fails every call answers as one with no journal.
    #[test]
    fn failing_sink_leaves_the_backend_answers_unchanged() {
        let drive = |b: &mut LoggingBackend| {
            let mut answers = Vec::new();
            for v in 1..=6 {
                answers.push(format!("{:?}", b.put(&inline_put_req(SIM, v, v as u8))));
                answers.push(format!("{:?}", b.get(&get_req(ANA, v))));
            }
            for app in [SIM, ANA] {
                let ckpt = CtlRequest::Checkpoint { app, upto_version: 4 };
                answers.push(format!("{:?}", b.control(ckpt)));
            }
            let recovery = |app| CtlRequest::Recovery { app, resume_version: 4 };
            answers.push(format!("{:?}", b.control(recovery(SIM))));
            for v in 5..=6 {
                answers.push(format!("{:?}", b.put(&inline_put_req(SIM, v, v as u8))));
            }
            answers.push(format!("{:?}", b.control(recovery(ANA))));
            for v in 5..=6 {
                answers.push(format!("{:?}", b.get(&get_req(ANA, v))));
            }
            answers.push(format!("{:?}", b.control(CtlRequest::GlobalReset { to_version: 5 })));
            answers.push(format!("{:?}", b.get(&get_req(ANA, 6))));
            let counters = (b.bytes_resident(), b.gc_floor(), b.digest_mismatches());
            answers.push(format!("{counters:?} {} {}", b.absorbed_puts(), b.replayed_gets()));
            answers
        };
        let fresh = || {
            let mut b = LoggingBackend::new();
            b.register_app(SIM);
            b.register_app(ANA);
            b
        };
        let mut detached = fresh();
        let mut failing = fresh();
        failing.attach_journal_coalesced(Box::new(FailingJournal), 4);
        let answers = drive(&mut detached);
        assert_eq!(drive(&mut failing), answers);
        assert_eq!((detached.absorbed_puts(), detached.replayed_gets()), (2, 2));
        assert_eq!(detached.digest_mismatches(), 0);
        assert!(detached.gc_reclaimed() > 0, "the checkpoints collected");
        // Three failed window hand-offs of the twelve first requests; each
        // checkpoint's hand-off, flush and compaction; each recovery's and
        // the reset's hand-off and flush. The last get is still coalesced.
        assert_eq!(failing.journal_errors(), 3 + 2 * 3 + 2 * 2 + 2);
        assert_eq!(failing.journal_stats().entries_recorded, 12 + 2 + 2 + 1 + 1);
        assert_eq!(detached.journal_stats(), JournalStats::default());
    }

    #[test]
    fn checkpoints_trigger_gc() {
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        run_steps(&mut b, 1, 8);
        let before = b.bytes_resident();
        // Both components checkpoint through 6 → versions 1..=5 collectible
        // (6 kept as a checkpointed-but-not-latest version? no: floor=6,
        // versions ≤6 except latest(8): 1..=6 go).
        b.control(CtlRequest::Checkpoint { app: SIM, upto_version: 6 });
        let (_, stats) = b.control(CtlRequest::Checkpoint { app: ANA, upto_version: 6 });
        assert!(stats.freed_bytes > 0);
        assert!(b.bytes_resident() < before);
        assert_eq!(b.store().versions(0), vec![7, 8]);
        assert!(b.gc_reclaimed() >= 600);
    }

    #[test]
    fn gc_pinned_while_peer_lags() {
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        run_steps(&mut b, 1, 8);
        // Only the simulation checkpoints; analytics never does.
        let (_, stats) = b.control(CtlRequest::Checkpoint { app: SIM, upto_version: 8 });
        assert_eq!(stats.freed_bytes, 0, "analytics mark pins the log");
        assert_eq!(b.store().versions(0).len(), 8);
    }

    #[test]
    fn gc_pinned_by_active_replay() {
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        run_steps(&mut b, 1, 6);
        // Analytics rolls back to 2 and starts replaying...
        b.control(CtlRequest::Checkpoint { app: ANA, upto_version: 2 });
        b.control(CtlRequest::Recovery { app: ANA, resume_version: 2 });
        assert!(b.is_replaying(ANA));
        // ...then both components checkpoint far ahead. GC must not eat the
        // versions the replay still needs.
        b.control(CtlRequest::Checkpoint { app: SIM, upto_version: 6 });
        b.control(CtlRequest::Checkpoint { app: ANA, upto_version: 6 });
        for v in [3, 4, 5, 6] {
            assert!(
                b.store().covers_any(0, v, &BBox::d1(0, 99)),
                "version {v} must survive for the active replay"
            );
        }
        // Replay completes correctly.
        let (p3, _) = b.get(&get_req(ANA, 3));
        assert!(!p3.is_empty());
    }

    #[test]
    fn absorbed_put_leaves_queue_unchanged() {
        let mut b = LoggingBackend::new();
        run_steps(&mut b, 1, 3);
        let qlen = b.queue(SIM).unwrap().len();
        b.control(CtlRequest::Recovery { app: SIM, resume_version: 0 });
        b.put(&put_req(SIM, 1));
        // Recovery marker added one event; the absorbed put adds none.
        assert_eq!(b.queue(SIM).unwrap().len(), qlen + 1);
    }

    #[test]
    fn second_failure_mid_replay_restarts_replay() {
        // The component fails again while only half-way through its replay:
        // the fresh `workflow_restart()` rebuilds the full script (replayed
        // requests were never re-logged, so the history is unchanged) and
        // the complete re-execution still observes the original data.
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        let original = run_steps(&mut b, 1, 6);
        b.control(CtlRequest::Checkpoint { app: ANA, upto_version: 2 });

        // First recovery: replay only step 3 of the 4-step script...
        let (r1, _) = b.control(CtlRequest::Recovery { app: ANA, resume_version: 2 });
        assert_eq!(r1.pending_replay, 4);
        let (p3, _) = b.get(&get_req(ANA, 3));
        assert_eq!(pieces_digest(&p3), original[2]);
        assert!(b.is_replaying(ANA));

        // ...then fail again mid-replay.
        let (r2, _) = b.control(CtlRequest::Recovery { app: ANA, resume_version: 2 });
        assert_eq!(r2.pending_replay, 4, "script rebuilt in full");
        for v in 3..=6u32 {
            let (pieces, _) = b.get(&get_req(ANA, v));
            assert_eq!(pieces_digest(&pieces), original[(v - 1) as usize], "v={v}");
        }
        assert!(!b.is_replaying(ANA));
        assert_eq!(b.digest_mismatches(), 0);
    }

    #[test]
    fn journal_rebuild_reproduces_state_after_process_death() {
        use logstore::{FlushPolicy, LogConfig, LogStore, MemMedia};
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::PerBatch { records: 4 }, ..LogConfig::default() };
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        b.attach_journal(Box::new(LogStore::open(Box::new(mem.clone()), cfg).unwrap()));

        let original = run_steps(&mut b, 1, 6);
        b.control(CtlRequest::Checkpoint { app: SIM, upto_version: 4 });
        b.control(CtlRequest::Checkpoint { app: ANA, upto_version: 4 });
        run_steps(&mut b, 7, 8);
        assert_eq!(b.journal_errors(), 0);
        let live_versions = b.store().versions(0);
        let live_next_w_chk = b.next_w_chk;
        drop(b); // full process death: no flush of the buffered tail
        mem.crash();

        let log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        let entries = crate::journal::decode_records(&log.read_all().unwrap());
        let mut rebuilt = LoggingBackend::from_journal(entries, &[SIM, ANA]);
        assert_eq!(rebuilt.next_w_chk, live_next_w_chk);
        // Everything at or before the checkpoint floor is durable (the ctl
        // entry flushed); steps 7..8 may be lost to the crash but are
        // re-executed by the rolled-back apps — re-run them and compare.
        let resume = rebuilt.store().versions(0).last().copied().unwrap_or(4).min(6);
        let mut seen = Vec::new();
        for v in 1..=8u32 {
            if v > resume {
                rebuilt.put(&put_req(SIM, v));
            }
            let (pieces, _) = rebuilt.get(&get_req(ANA, v));
            if v > 6 || !pieces.is_empty() {
                seen.push((v, pieces_digest(&pieces)));
            }
        }
        for (v, digest) in seen {
            if (v as usize) <= original.len() && rebuilt.store().versions(0).contains(&v) {
                assert_eq!(digest, original[(v - 1) as usize], "digest diverged at step {v}");
            }
        }
        // GC floor and collected store survive the rebuild: versions below
        // the recorded floor are gone, exactly as in the live backend.
        for v in live_versions {
            assert!(
                rebuilt.store().versions(0).contains(&v) || v > resume,
                "live version {v} missing from rebuild"
            );
        }
    }

    #[test]
    fn journal_rebuild_reapplies_a_global_reset() {
        use logstore::{FlushPolicy, LogConfig, LogStore, MemMedia};
        let mem = MemMedia::new();
        let cfg =
            LogConfig { flush: FlushPolicy::PerBatch { records: 1000 }, ..LogConfig::default() };
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        b.attach_journal(Box::new(LogStore::open(Box::new(mem.clone()), cfg).unwrap()));
        run_steps(&mut b, 1, 3);
        let (_, stats) = b.control(CtlRequest::GlobalReset { to_version: 1 });
        assert!(stats.freed_bytes > 0);
        assert_eq!(b.store().versions(0), vec![1]);
        assert_eq!(b.journal_errors(), 0);
        let live = b.store.clone();
        drop(b); // process death: the reset is a commit point, so it is durable
        mem.crash();

        let log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        let entries = crate::journal::decode_records(&log.read_all().unwrap());
        assert_eq!(entries.last(), Some(&JournalEntry::GlobalReset { to_version: 1 }));
        let rebuilt = LoggingBackend::from_journal(entries, &[SIM, ANA]);
        assert_eq!(rebuilt.store().versions(0), vec![1], "the reset's cut must survive a rebuild");
        assert_eq!(rebuilt.store().bytes(), live.bytes());
        for v in 1..=3 {
            let bbox = BBox::d1(0, 99);
            assert_eq!(
                pieces_digest(&rebuilt.store().query(0, v, &bbox)),
                pieces_digest(&live.query(0, v, &bbox)),
                "rebuilt and live stores answer version {v} differently"
            );
        }
    }

    #[test]
    fn journal_compaction_tracks_gc_floor() {
        use logstore::{FlushPolicy, LogConfig, LogStore, MemMedia};
        let mem = MemMedia::new();
        // Tiny segments so checkpoints can retire whole files.
        let cfg = LogConfig { segment_bytes: 256, flush: FlushPolicy::PerRecord };
        let mut b = LoggingBackend::new();
        b.register_app(SIM);
        b.register_app(ANA);
        b.attach_journal(Box::new(LogStore::open(Box::new(mem.clone()), cfg).unwrap()));
        for v in 1..=16u32 {
            b.put(&put_req(SIM, v));
            b.get(&get_req(ANA, v));
            if v % 4 == 0 {
                b.control(CtlRequest::Checkpoint { app: SIM, upto_version: v });
                b.control(CtlRequest::Checkpoint { app: ANA, upto_version: v });
            }
        }
        assert!(b.journal_segments_compacted() > 0, "GC floor must retire journal segments");
        assert_eq!(b.journal_errors(), 0);
        // The compacted journal still rebuilds a backend that serves the
        // retained versions correctly.
        b.flush_journal();
        let log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        let entries = crate::journal::decode_records(&log.read_all().unwrap());
        let rebuilt = LoggingBackend::from_journal(entries, &[SIM, ANA]);
        assert_eq!(rebuilt.store().versions(0), b.store().versions(0));
    }

    #[test]
    fn memory_grows_with_checkpoint_period() {
        // The Figure 9(d) mechanism: longer checkpoint period ⇒ longer log.
        let mem_at_period = |period: Version| {
            let mut b = LoggingBackend::new();
            b.register_app(SIM);
            b.register_app(ANA);
            let mut peak = 0u64;
            for v in 1..=12 {
                b.put(&put_req(SIM, v));
                b.get(&get_req(ANA, v));
                if v % period == 0 {
                    b.control(CtlRequest::Checkpoint { app: SIM, upto_version: v });
                    b.control(CtlRequest::Checkpoint { app: ANA, upto_version: v });
                }
                peak = peak.max(b.bytes_resident());
            }
            peak
        };
        let p2 = mem_at_period(2);
        let p6 = mem_at_period(6);
        assert!(p6 > p2, "longer period must retain more log: {p6} vs {p2}");
    }
}
