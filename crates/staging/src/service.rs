//! Transport-agnostic staging server logic with a pluggable store backend.
//!
//! The same [`ServerLogic`] drives both the discrete-event server actor
//! ([`crate::server`]) and the real-thread server ([`crate::threaded`]). The
//! [`StoreBackend`] trait is the seam where the crash-consistency layer
//! plugs in: the plain backend ([`PlainBackend`]) implements the "original
//! data staging" baseline, while `wfcr::LoggingBackend` adds the paper's
//! data/event logging, replay, and garbage collection without forking any
//! server code.

use crate::proto::{
    AppId, CtlAck, CtlMsg, CtlRequest, CtlResponse, GetPiece, GetRequest, GetResponse, PutRequest,
    PutResponse, PutStatus, Reply, Request, VarId, Version,
};
use crate::store::VersionedStore;
use obs::{arg, TraceCtx};
use serde::{Deserialize, Serialize};
use sim_core::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Work performed by one backend operation, for the CPU cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Bytes copied into or out of the store for the application request.
    pub touched_bytes: u64,
    /// Log events appended (zero for the plain backend).
    pub log_events: u32,
    /// Bytes written to the data log beyond the base store write.
    pub logged_bytes: u64,
    /// Bytes freed by eviction or garbage collection during this op.
    pub freed_bytes: u64,
    /// Was this operation served from the recovery replay script (a logged
    /// read replayed back to a restarted consumer)? Cost-neutral; carried so
    /// observability can mark replayed serves in the trace.
    pub replayed: bool,
}

/// One journal's counters. All zero for a backend without a journal; every
/// field is monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Entries recorded through the writer.
    pub entries_recorded: u64,
    /// Sink I/O errors swallowed (durability degraded, state unaffected).
    pub errors: u64,
    /// Bytes the sink has physically flushed.
    pub bytes_flushed: u64,
    /// Segment files the sink has deleted by watermark compaction.
    pub segments_compacted: u64,
    /// Fsyncs that made two or more records durable at once.
    pub group_commits: u64,
    /// Records that reached the sink through batched hand-offs.
    pub records_batched: u64,
}

/// Storage behaviour behind the server request loop.
pub trait StoreBackend: Send + 'static {
    /// Handle a write.
    fn put(&mut self, req: &PutRequest) -> (PutStatus, OpStats);

    /// Handle a read.
    fn get(&mut self, req: &GetRequest) -> (Vec<GetPiece>, OpStats);

    /// Handle a workflow control event (checkpoint / recovery notification,
    /// coordinated reset). Default: acknowledge and do nothing.
    fn control(&mut self, req: CtlRequest) -> (CtlResponse, OpStats) {
        (CtlResponse { req, pending_replay: 0 }, OpStats::default())
    }

    /// Can this get be served *now*? DataSpaces `get` blocks until the
    /// requested version is available; the server defers requests for which
    /// this returns `false` and retries them after subsequent puts.
    ///
    /// Default: ready when the requested version fully covers the region, or
    /// a newer version of the variable already exists (the producer has
    /// moved past this step, so waiting would be futile — serve what's
    /// resolvable instead).
    fn get_ready(&self, req: &GetRequest) -> bool {
        let _ = req;
        true
    }

    /// Bytes currently resident in the store (for memory experiments).
    fn bytes_resident(&self) -> u64;

    /// Counters of the backend's durable journal. Default all zero: the
    /// backend has no journal. This is the one journal method a backend
    /// overrides; the named accessors below read from it.
    fn journal_stats(&self) -> JournalStats {
        JournalStats::default()
    }

    /// Bytes physically flushed by the journal so far. Monotone; the server
    /// actor diffs it between operations to surface flushes in traces.
    fn journal_bytes_flushed(&self) -> u64 {
        self.journal_stats().bytes_flushed
    }

    /// Journal segment files deleted by watermark compaction so far;
    /// monotone, diffed like [`StoreBackend::journal_bytes_flushed`].
    fn journal_segments_compacted(&self) -> u64 {
        self.journal_stats().segments_compacted
    }

    /// Journal group commits so far — fsyncs that made two or more records
    /// durable at once.
    fn journal_group_commits(&self) -> u64 {
        self.journal_stats().group_commits
    }

    /// Journal records delivered to the sink through batched hand-offs so
    /// far.
    fn journal_records_batched(&self) -> u64 {
        self.journal_stats().records_batched
    }

    /// Journal I/O errors swallowed so far (durability degraded, the
    /// backend's in-memory state unaffected).
    fn journal_errors(&self) -> u64 {
        self.journal_stats().errors
    }

    /// Log events currently live (appended, not yet garbage-collected) in
    /// the backend's in-memory event log. Default 0: the backend keeps no
    /// event log. Sampled into the `staging.server{i}.log_events` gauge so
    /// the windowed telemetry series shows log growth and GC reclaim.
    fn live_log_events(&self) -> u64 {
        0
    }
}

/// Server CPU cost parameters (per staging server process).
///
/// Calibration note: with the defaults, a put of `B` bytes costs
/// `per_request + B * per_byte` of server CPU and its logged variant adds
/// `log_event + B * log_byte`, so the relative logging overhead on the
/// server CPU is ≈ `log_byte / per_byte` for large writes. End-to-end write
/// response time also includes NIC serialization, which dilutes the CPU
/// overhead into the ~10–15% band Figure 9(a)/(b) reports.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServerCosts {
    /// Fixed request handling cost, ns.
    pub per_request_ns: u64,
    /// Store copy/index cost per byte, ns.
    pub per_byte_ns: f64,
    /// Fixed cost per log event appended, ns.
    pub log_event_ns: u64,
    /// Cost per byte written to the log, ns.
    pub log_byte_ns: f64,
}

impl Default for ServerCosts {
    fn default() -> Self {
        // Memory-bandwidth-flavoured defaults: ~10 GB/s effective store copy
        // (0.1 ns/B); the logging path (extra copy into the log, index and
        // event-queue maintenance) costs ~30% of the store copy on top,
        // which lands the end-to-end write-response overhead in the paper's
        // 10-15% band once network serialization is included.
        ServerCosts {
            per_request_ns: 2_000,
            per_byte_ns: 0.1,
            log_event_ns: 1_000,
            log_byte_ns: 0.03,
        }
    }
}

impl ServerCosts {
    /// CPU time for an operation with the given stats.
    pub fn cost(&self, op: &OpStats) -> SimTime {
        let ns = self.per_request_ns as f64
            + op.touched_bytes as f64 * self.per_byte_ns
            + op.log_events as f64 * self.log_event_ns as f64
            + op.logged_bytes as f64 * self.log_byte_ns;
        SimTime::from_secs_f64(ns / 1e9)
    }
}

/// The plain (baseline) backend: bounded version retention, no logging and
/// no journal — a rollback under Ds/Co/In has no log to replay, so there is
/// nothing a restart could read back.
#[derive(Debug)]
pub struct PlainBackend {
    store: VersionedStore,
    /// Gets answered with a version other than the one requested (stale or
    /// newer-resolved data). Zero in correct executions; nonzero quantifies
    /// the "In" baseline's lack of a consistency guarantee.
    stale_gets: u64,
}

impl PlainBackend {
    /// Baseline staging retaining `max_versions` versions per variable.
    pub fn new(max_versions: usize) -> Self {
        PlainBackend { store: VersionedStore::bounded(max_versions), stale_gets: 0 }
    }

    /// Access the underlying store (tests).
    pub fn store(&self) -> &VersionedStore {
        &self.store
    }

    /// Gets served a version other than the requested one.
    pub fn stale_gets(&self) -> u64 {
        self.stale_gets
    }
}

impl StoreBackend for PlainBackend {
    fn put(&mut self, req: &PutRequest) -> (PutStatus, OpStats) {
        let bytes = req.payload.accounted_len();
        let freed = self.store.put(req.desc, req.payload.clone());
        (
            PutStatus::Stored,
            OpStats { touched_bytes: bytes, freed_bytes: freed, ..Default::default() },
        )
    }

    fn get(&mut self, req: &GetRequest) -> (Vec<GetPiece>, OpStats) {
        // Serve the exact version when present; otherwise the newest stored
        // version at or below the request (a lagging reader under version
        // eviction gets the freshest surviving data — possibly stale, which
        // is exactly the "In" baseline's unguaranteed behaviour).
        let (served, pieces) = self.store.query_at_or_below(req.var, req.version, &req.bbox);
        if served != req.version || pieces.is_empty() {
            // The requested version is gone (evicted): what was served is
            // whatever survives — either an older version or nothing at all.
            // Both are consistency violations the logging scheme prevents.
            self.stale_gets += 1;
        }
        let bytes: u64 = pieces.iter().map(|p| p.payload.accounted_len()).sum();
        (pieces, OpStats { touched_bytes: bytes, ..Default::default() })
    }

    /// A `GlobalReset` cuts the store back to the coordinated cut; checkpoint
    /// and recovery notifications change nothing here.
    fn control(&mut self, req: CtlRequest) -> (CtlResponse, OpStats) {
        let freed_bytes = match req {
            CtlRequest::GlobalReset { to_version } => self.store.remove_newer_than(to_version),
            CtlRequest::Checkpoint { .. } | CtlRequest::Recovery { .. } => 0,
        };
        (CtlResponse { req, pending_replay: 0 }, OpStats { freed_bytes, ..Default::default() })
    }

    fn get_ready(&self, req: &GetRequest) -> bool {
        self.store.covers_fully(req.var, req.version, &req.bbox)
            || self.store.newest_version(req.var).map(|v| v > req.version).unwrap_or(false)
    }

    fn bytes_resident(&self) -> u64 {
        self.store.bytes()
    }
}

/// Per-app retained replies beyond which the oldest are pruned. Retries and
/// transport duplicates arrive within a few requests of the original, so a
/// short window suffices.
const DEDUP_WINDOW: usize = 256;

/// What the dedup window keeps of a reply it sent: enough to rebuild it
/// identically for a re-delivery, without copying it on the way out.
#[derive(Debug)]
enum Receipt {
    /// A get answered by exactly one piece — every block get of a
    /// block-aligned read — keeps that piece inline: a payload refcount, no
    /// `Vec`. `version` is the one the get asked for; the piece carries the
    /// one served.
    OnePiece { var: VarId, version: Version, piece: GetPiece },
    /// Any other reply, kept as sent.
    Whole(Reply),
}

impl Receipt {
    fn of_get(resp: &GetResponse) -> Receipt {
        match resp.pieces.as_slice() {
            [piece] => {
                Receipt::OnePiece { var: resp.var, version: resp.version, piece: piece.clone() }
            }
            _ => Receipt::Whole(Reply::Get(resp.clone())),
        }
    }

    /// The reply recorded for request `seq`.
    fn rebuild(&self, seq: u64) -> Reply {
        match self {
            Receipt::OnePiece { var, version, piece } => Reply::Get(GetResponse {
                var: *var,
                version: *version,
                seq,
                pieces: vec![piece.clone()],
            }),
            Receipt::Whole(reply) => reply.clone(),
        }
    }
}

/// What [`ServerLogic`] did with the most recent request — the one place
/// the outcomes both transports report (span `decision`s) are named.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Put stored as new data.
    Stored,
    /// Put recognized as a redundant replay write and absorbed.
    Absorbed,
    /// Get served from the store.
    Served,
    /// Get served from the recovery replay script.
    Replayed,
    /// Control event applied to the backend.
    Applied,
    /// Re-delivered request answered from the dedup cache.
    Dup,
    /// Get whose version is not available yet: answered empty, nothing
    /// logged (see [`ServerLogic::serve`]).
    NotReady,
}

impl Outcome {
    /// The outcome's name in traces.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Stored => "stored",
            Outcome::Absorbed => "absorbed",
            Outcome::Served => "served",
            Outcome::Replayed => "replayed",
            Outcome::Applied => "applied",
            Outcome::Dup => "dup",
            Outcome::NotReady => "notready",
        }
    }
}

/// Request loop shared by all transports: applies the backend, computes the
/// CPU cost, and shapes replies.
///
/// Requests carry a per-app sequence number; the logic remembers recent
/// replies and replays them for re-delivered requests (client retries under
/// a lossy transport, or transport-level duplication), so the backend — in
/// particular the event *log* — observes each request exactly once.
#[derive(Debug)]
pub struct ServerLogic<B> {
    backend: B,
    costs: ServerCosts,
    puts_served: u64,
    gets_served: u64,
    /// Recently-sent replies: per app, a window sorted by `seq` of the
    /// [`Receipt`] each reply left — a one-piece get's piece, any other reply
    /// whole — from which a re-delivery is answered with the identical
    /// reply. A client's seqs arrive ascending unless the fault plane
    /// reorders them, so remembering one is a `push_back` and forgetting the
    /// lowest a `pop_front`. Not pre-sized: large runs hold thousands of
    /// windows.
    reply_cache: BTreeMap<AppId, VecDeque<(u64, Receipt)>>,
    /// Exactly-once guard switch; disabled only by the mutation tests that
    /// prove the invariant checker notices a broken dedup.
    dedup_enabled: bool,
    /// Duplicate requests absorbed by the cache.
    dup_hits: u64,
    /// Backend work performed by the most recent request (dedup cache hits
    /// report zero work). Read by transports that annotate traces; never
    /// fed back into behaviour.
    last_op: OpStats,
    /// What the most recent request came to.
    last_outcome: Outcome,
    /// Journal bytes flushed / segments compacted as of the last traced
    /// request; diffed against the backend's monotone counters to emit
    /// `journal.flush` / `journal.compact` instants.
    seen_flushed: u64,
    seen_compacted: u64,
}

impl<B: StoreBackend> ServerLogic<B> {
    /// Wrap a backend with the given cost model.
    pub fn new(backend: B, costs: ServerCosts) -> Self {
        ServerLogic {
            backend,
            costs,
            puts_served: 0,
            gets_served: 0,
            reply_cache: BTreeMap::new(),
            dedup_enabled: true,
            dup_hits: 0,
            last_op: OpStats::default(),
            last_outcome: Outcome::Applied,
            seen_flushed: 0,
            seen_compacted: 0,
        }
    }

    /// Backend work performed by the most recent request. Dedup cache hits
    /// report [`OpStats::default`].
    pub fn last_op(&self) -> OpStats {
        self.last_op
    }

    /// What the most recent request came to.
    pub fn last_outcome(&self) -> Outcome {
        self.last_outcome
    }

    /// Enable/disable the exactly-once request cache. Test-only escape
    /// hatch: the replay-equivalence mutation check disables it to prove
    /// that the invariant checker fails when duplicates reach the backend.
    pub fn set_request_dedup(&mut self, enabled: bool) {
        self.dedup_enabled = enabled;
    }

    /// Duplicate requests absorbed by the exactly-once cache.
    pub fn dup_hits(&self) -> u64 {
        self.dup_hits
    }

    /// The reply recorded for `(app, seq)`, if the request was seen before.
    /// Answering from the cache costs one bare request.
    fn cached(&mut self, app: AppId, seq: u64) -> Option<(Reply, SimTime)> {
        if !self.dedup_enabled {
            return None;
        }
        let window = self.reply_cache.get(&app)?;
        // A client's seqs ascend: a fresh request is past the newest.
        if window.back().is_none_or(|&(newest, _)| newest < seq) {
            return None;
        }
        let at = window.binary_search_by_key(&seq, |&(s, _)| s).ok()?;
        let hit = window[at].1.rebuild(seq);
        self.dup_hits += 1;
        Some((hit, self.done(OpStats::default(), Outcome::Dup)))
    }

    fn remember(&mut self, app: AppId, seq: u64, receipt: Receipt) {
        if !self.dedup_enabled {
            return;
        }
        let window = self.reply_cache.entry(app).or_default();
        if window.back().is_none_or(|&(newest, _)| newest < seq) {
            // Forget the lowest first: the new entry takes the slot just
            // vacated, so a full window never grows past `DEDUP_WINDOW`.
            if window.len() == DEDUP_WINDOW {
                window.pop_front();
            }
            window.push_back((seq, receipt));
            return;
        }
        match window.binary_search_by_key(&seq, |&(s, _)| s) {
            Ok(at) => window[at].1 = receipt,
            Err(at) => window.insert(at, (seq, receipt)),
        }
        if window.len() > DEDUP_WINDOW {
            window.pop_front();
        }
    }

    /// Record what the request came to; returns its CPU cost.
    fn done(&mut self, op: OpStats, outcome: Outcome) -> SimTime {
        self.last_op = op;
        self.last_outcome = outcome;
        self.costs.cost(&op)
    }

    /// Serve one request — the whole server side of the protocol. A
    /// re-delivered `(app, seq)` is answered with the recorded reply and
    /// never reaches the backend. Returns the reply and the simulated CPU
    /// time consumed; [`Self::last_outcome`] says what happened.
    ///
    /// DataSpaces `get` blocks until the requested version is available. A
    /// fresh get that is not ready ([`StoreBackend::get_ready`]) is answered
    /// empty with [`Outcome::NotReady`] and touches neither the backend nor
    /// the dedup cache, so failed polls never pollute the replay log: the
    /// threaded server sends that answer and the client retries, the DES
    /// server parks the request instead. A re-delivered get is answered
    /// from the cache first — its reply was logged, even if a reset has cut
    /// its version since.
    pub fn serve(&mut self, req: &Request) -> (Reply, SimTime) {
        match req {
            Request::Put(r) => {
                let (resp, cost) = self.handle_put(r);
                (Reply::Put(resp), cost)
            }
            Request::Get(r) => {
                if let Some(hit @ (Reply::Get(_), _)) = self.cached(r.app, r.seq) {
                    return hit;
                }
                if !self.backend.get_ready(r) {
                    let empty = GetResponse {
                        var: r.var,
                        version: r.version,
                        seq: r.seq,
                        pieces: Vec::new(),
                    };
                    return (Reply::Get(empty), self.done(OpStats::default(), Outcome::NotReady));
                }
                let (resp, cost) = self.fresh_get(r);
                (Reply::Get(resp), cost)
            }
            Request::Ctl(m) => {
                let (ack, cost) = self.handle_ctl_msg(*m);
                (Reply::Ctl(ack), cost)
            }
        }
    }

    /// Handle a put; returns the response and the simulated CPU time consumed.
    pub fn handle_put(&mut self, req: &PutRequest) -> (PutResponse, SimTime) {
        if let Some((Reply::Put(resp), cost)) = self.cached(req.app, req.seq) {
            return (resp, cost);
        }
        let (status, op) = self.backend.put(req);
        self.puts_served += 1;
        let resp = PutResponse { desc: req.desc, seq: req.seq, status };
        self.remember(req.app, req.seq, Receipt::Whole(Reply::Put(resp.clone())));
        let outcome =
            if status == PutStatus::Absorbed { Outcome::Absorbed } else { Outcome::Stored };
        (resp, self.done(op, outcome))
    }

    /// Is this get currently servable (see [`StoreBackend::get_ready`])?
    pub fn get_ready(&self, req: &GetRequest) -> bool {
        self.backend.get_ready(req)
    }

    /// Handle a get; returns the response and the simulated CPU time consumed.
    pub fn handle_get(&mut self, req: &GetRequest) -> (GetResponse, SimTime) {
        if let Some((Reply::Get(resp), cost)) = self.cached(req.app, req.seq) {
            return (resp, cost);
        }
        self.fresh_get(req)
    }

    /// Serve a get the cache has no reply for, and remember the reply.
    fn fresh_get(&mut self, req: &GetRequest) -> (GetResponse, SimTime) {
        let (pieces, op) = self.backend.get(req);
        self.gets_served += 1;
        let resp = GetResponse { var: req.var, version: req.version, seq: req.seq, pieces };
        self.remember(req.app, req.seq, Receipt::of_get(&resp));
        let outcome = if op.replayed { Outcome::Replayed } else { Outcome::Served };
        (resp, self.done(op, outcome))
    }

    /// Apply a control event directly, outside the wire protocol: no
    /// envelope, no dedup. Transports go through [`Self::serve`].
    pub fn handle_ctl(&mut self, req: CtlRequest) -> (CtlResponse, SimTime) {
        let (resp, op) = self.backend.control(req);
        (resp, self.done(op, Outcome::Applied))
    }

    /// Handle a sequenced control envelope with exactly-once semantics.
    ///
    /// Control requests are not idempotent (a late duplicate `GlobalReset`
    /// would discard freshly re-executed data; a duplicate `Recovery` resets
    /// replay matching), so duplicates are answered from the recorded ack
    /// without touching the backend.
    pub fn handle_ctl_msg(&mut self, msg: CtlMsg) -> (CtlAck, SimTime) {
        if let Some((Reply::Ctl(ack), cost)) = self.cached(msg.app, msg.seq) {
            return (ack, cost);
        }
        let (resp, cost) = self.handle_ctl(msg.req);
        let ack = CtlAck { seq: msg.seq, resp };
        self.remember(msg.app, msg.seq, Receipt::Whole(Reply::Ctl(ack)));
        (ack, cost)
    }

    /// Record the request [`Self::serve`] just answered as a span on `track`
    /// at `(t, s)`, nested under the trace context the client stamped on the
    /// wire; backend side effects — log appends, GC frees, journal flushes
    /// and compactions — become instants under it. This is the one
    /// description of a served request, emitted by both transports (only
    /// under `tracer.enabled()`: it builds argument lists). Returns the open
    /// span.
    pub fn trace_served(
        &mut self,
        tracer: &obs::Tracer,
        track: obs::TrackId,
        shard: usize,
        req: &Request,
        (t, s): (u64, u64),
    ) -> TraceCtx {
        let decision = arg("decision", self.last_outcome.name());
        let (name, args) = match req {
            Request::Put(r) => (
                "serve.put",
                vec![
                    arg("shard", shard),
                    arg("var", r.desc.var),
                    arg("version", r.desc.version),
                    decision,
                ],
            ),
            Request::Get(r) => (
                "serve.get",
                vec![arg("shard", shard), arg("var", r.var), arg("version", r.version), decision],
            ),
            Request::Ctl(m) => {
                let kind = match m.req {
                    CtlRequest::Checkpoint { .. } => "checkpoint",
                    CtlRequest::Recovery { .. } => "recovery",
                    CtlRequest::GlobalReset { .. } => "global_reset",
                };
                let mut args = vec![arg("shard", shard), arg("kind", kind)];
                if self.last_outcome == Outcome::Dup {
                    args.push(decision);
                }
                ("serve.ctl", args)
            }
        };
        let span = tracer.begin(req.tctx(), track, name, t, s, args);
        let op = self.last_op;
        if op.log_events > 0 {
            let args = vec![arg("events", op.log_events), arg("bytes", op.logged_bytes)];
            tracer.instant(span, track, "log.append", t, s, args);
        }
        if op.freed_bytes > 0 {
            tracer.instant(span, track, "gc.free", t, s, vec![arg("bytes", op.freed_bytes)]);
        }
        // Durable-layer visibility: the journal counters are monotone, so a
        // delta since the last traced request means this one's append crossed
        // a flush threshold (or watermark compaction dropped segments).
        let flushed = self.backend.journal_bytes_flushed();
        if flushed > self.seen_flushed {
            let args = vec![arg("bytes", flushed - self.seen_flushed)];
            tracer.instant(span, track, "journal.flush", t, s, args);
            self.seen_flushed = flushed;
        }
        let compacted = self.backend.journal_segments_compacted();
        if compacted > self.seen_compacted {
            let args = vec![arg("segments", compacted - self.seen_compacted)];
            tracer.instant(span, track, "journal.compact", t, s, args);
            self.seen_compacted = compacted;
        }
        span
    }

    /// Bytes resident in the backend store.
    pub fn bytes_resident(&self) -> u64 {
        self.backend.bytes_resident()
    }

    /// Backend access for inspection.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access (tests / GC driving).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Puts served since construction.
    pub fn puts_served(&self) -> u64 {
        self.puts_served
    }

    /// Gets served since construction.
    pub fn gets_served(&self) -> u64 {
        self.gets_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BBox;
    use crate::payload::Payload;
    use crate::proto::ObjDesc;

    fn put_req(version: u32, len: u64) -> PutRequest {
        PutRequest {
            app: 0,
            desc: ObjDesc { var: 0, version, bbox: BBox::d1(0, 9) },
            payload: Payload::virtual_from(len, &[version as u64]),
            seq: version as u64,
            tctx: obs::TraceCtx::NONE,
        }
    }

    fn get_req(version: u32) -> GetRequest {
        GetRequest {
            app: 1,
            var: 0,
            version,
            bbox: BBox::d1(0, 9),
            seq: 0,
            tctx: obs::TraceCtx::NONE,
        }
    }

    #[test]
    fn put_then_get_round_trip() {
        let mut logic = ServerLogic::new(PlainBackend::new(4), ServerCosts::default());
        let (resp, cost) = logic.handle_put(&put_req(1, 1_000));
        assert_eq!(resp.status, PutStatus::Stored);
        assert!(cost > SimTime::ZERO);
        let (gr, _) = logic.handle_get(&get_req(1));
        assert_eq!(gr.pieces.len(), 1);
        assert_eq!(gr.pieces[0].payload.len(), 1_000);
        assert_eq!(logic.puts_served(), 1);
        assert_eq!(logic.gets_served(), 1);
    }

    /// A plain store that, once told a component recovered, answers like a
    /// logging backend in replay: puts absorbed, gets served from the script.
    struct Replaying {
        store: PlainBackend,
        replaying: bool,
    }

    impl StoreBackend for Replaying {
        fn put(&mut self, req: &PutRequest) -> (PutStatus, OpStats) {
            let (status, op) = self.store.put(req);
            (if self.replaying { PutStatus::Absorbed } else { status }, op)
        }
        fn get(&mut self, req: &GetRequest) -> (Vec<GetPiece>, OpStats) {
            let (pieces, op) = self.store.get(req);
            (pieces, OpStats { replayed: self.replaying, ..op })
        }
        fn control(&mut self, req: CtlRequest) -> (CtlResponse, OpStats) {
            self.replaying |= matches!(req, CtlRequest::Recovery { .. });
            self.store.control(req)
        }
        fn get_ready(&self, req: &GetRequest) -> bool {
            self.store.get_ready(req)
        }
        fn bytes_resident(&self) -> u64 {
            self.store.bytes_resident()
        }
    }

    /// `serve` is the whole server side of the protocol: every request kind,
    /// fresh and re-delivered, with the reply, the outcome's name and the
    /// size the reply declares.
    #[test]
    fn serve_answers_every_request_kind_once() {
        let put = |v, seq| Request::Put(PutRequest { seq, ..put_req(v, 500) });
        let get = |v, seq| Request::Get(GetRequest { seq, ..get_req(v) });
        let ctl = |seq, req| Request::Ctl(CtlMsg { app: 1, seq, req, tctx: obs::TraceCtx::NONE });
        let recovery = CtlRequest::Recovery { app: 1, resume_version: 0 };
        // (request, outcome, reply bytes, pieces of a get / status of a put)
        let table = [
            (put(1, 1), "stored", 64, Some(PutStatus::Stored)),
            (put(1, 1), "dup", 64, Some(PutStatus::Stored)),
            (get(1, 1), "served", 564, None),
            (get(1, 1), "dup", 564, None),
            (get(2, 2), "notready", 64, None),
            (ctl(3, recovery), "applied", 64, None),
            (ctl(3, recovery), "dup", 64, None),
            (put(1, 2), "absorbed", 64, Some(PutStatus::Absorbed)),
            (put(1, 2), "dup", 64, Some(PutStatus::Absorbed)),
            (get(1, 4), "replayed", 564, None),
            (get(1, 4), "dup", 564, None),
        ];
        let backend = Replaying { store: PlainBackend::new(4), replaying: false };
        let mut logic = ServerLogic::new(backend, ServerCosts::default());
        for (i, (req, outcome, bytes, status)) in table.iter().enumerate() {
            let (reply, cost) = logic.serve(req);
            assert_eq!(logic.last_outcome().name(), *outcome, "row {i}");
            assert_eq!(reply.seq(), req.seq(), "row {i}");
            assert_eq!(reply.wire_bytes(), *bytes, "row {i}");
            assert!(cost >= ServerCosts::default().cost(&OpStats::default()), "row {i}");
            match (req, &reply) {
                (Request::Put(_), Reply::Put(ack)) => assert_eq!(Some(ack.status), *status),
                (Request::Get(_), Reply::Get(r)) => {
                    assert_eq!(r.pieces.is_empty(), *outcome == "notready", "row {i}")
                }
                (Request::Ctl(m), Reply::Ctl(ack)) => assert_eq!(ack.resp.req, m.req),
                _ => panic!("row {i}: reply {reply:?} is not of the request's kind"),
            }
        }
        // Each fresh request reached the backend once; the poll and the five
        // re-deliveries never did.
        assert_eq!((logic.puts_served(), logic.gets_served(), logic.dup_hits()), (2, 2, 5));
        assert_eq!(put(1, 9).wire_bytes(), 564);
        assert_eq!(get(1, 9).wire_bytes(), 64);
        assert_eq!(ctl(9, recovery).wire_bytes(), 64);
    }

    /// A get served and logged, then re-delivered after a `GlobalReset` cut
    /// its version, is answered with the reply recorded for it — not as a
    /// poll of a version that is gone, which the threaded client would
    /// report as `IncompleteCoverage`.
    #[test]
    fn a_get_redelivered_after_a_reset_gets_its_recorded_reply() {
        let mut logic = ServerLogic::new(PlainBackend::new(4), ServerCosts::default());
        logic.serve(&Request::Put(put_req(1, 500)));
        let get = GetRequest { seq: 1, ..get_req(1) };
        let (first, _) = logic.serve(&Request::Get(get.clone()));
        assert_eq!(logic.last_outcome(), Outcome::Served);
        let req = CtlRequest::GlobalReset { to_version: 0 };
        logic.serve(&Request::Ctl(CtlMsg { app: 0, seq: 2, req, tctx: obs::TraceCtx::NONE }));
        assert!(!logic.get_ready(&get), "the reset cut version 1");

        let (again, _) = logic.serve(&Request::Get(get));
        assert_eq!(logic.last_outcome(), Outcome::Dup);
        assert_eq!(format!("{again:?}"), format!("{first:?}"), "the original pieces");
        assert!(matches!(again, Reply::Get(r) if r.pieces.len() == 1));
        assert_eq!((logic.gets_served(), logic.dup_hits()), (1, 1));
    }

    /// The dedup window's receipts, case by case: a re-delivered get is
    /// answered with the `{:?}`-identical reply first sent, and `dup_hits`
    /// counts exactly the re-deliveries the window still held. Mutants
    /// caught: a one-piece receipt rebuilt with the requested version in
    /// place of the served piece's ("one piece of an older version"); a
    /// receipt that keeps the first of several pieces ("two pieces"); a
    /// window that keeps `DEDUP_WINDOW + 1` replies ("forgotten").
    #[test]
    fn a_receipt_rebuilds_the_reply_it_recorded() {
        let put = |seq, version, (lo, hi)| {
            let desc = ObjDesc { var: 0, version, bbox: BBox::d1(lo, hi) };
            Request::Put(PutRequest { seq, desc, ..put_req(version, hi - lo + 1) })
        };
        let get = |seq, version| Request::Get(GetRequest { seq, ..get_req(version) });
        let reset = Request::Ctl(CtlMsg {
            app: 0,
            seq: 9,
            req: CtlRequest::GlobalReset { to_version: 0 },
            tctx: obs::TraceCtx::NONE,
        });
        let newer: Vec<Request> = (1..=DEDUP_WINDOW as u64).map(|i| get(100 + i, 1)).collect();
        let whole = (0, 9);
        // (case, versions retained, requests before the get, the get,
        //  requests between its two deliveries, served versions of its
        //  pieces, dup hits)
        let table = [
            ("one piece", 4, vec![put(1, 1, whole)], get(100, 1), vec![], vec![1], 1),
            (
                "one piece of an older version",
                4,
                vec![put(1, 1, whole), put(2, 3, whole)],
                get(100, 2),
                vec![],
                vec![1],
                1,
            ),
            (
                "two pieces",
                4,
                vec![put(1, 1, (0, 4)), put(2, 1, (5, 9))],
                get(100, 1),
                vec![],
                vec![1, 1],
                1,
            ),
            (
                "no piece, stale",
                1,
                vec![put(1, 1, whole), put(2, 3, whole)],
                get(100, 2),
                vec![],
                vec![],
                1,
            ),
            ("after a reset", 4, vec![put(1, 1, whole)], get(100, 1), vec![reset], vec![1], 1),
            ("forgotten", 4, vec![put(1, 1, whole)], get(100, 1), newer, vec![1], 0),
        ];
        for (case, retained, before, get, between, served, dups) in table {
            let mut logic = ServerLogic::new(PlainBackend::new(retained), ServerCosts::default());
            for req in &before {
                logic.serve(req);
            }
            let (first, _) = logic.serve(&get);
            assert_eq!(logic.last_outcome(), Outcome::Served, "{case}");
            let Reply::Get(resp) = &first else { panic!("{case}: {first:?}") };
            assert_eq!(resp.pieces.iter().map(|p| p.version).collect::<Vec<_>>(), served, "{case}");
            for req in &between {
                logic.serve(req);
            }
            let (again, _) = logic.serve(&get);
            assert_eq!(format!("{again:?}"), format!("{first:?}"), "{case}");
            assert_eq!(logic.dup_hits(), dups, "{case}");
        }
    }

    #[test]
    fn cost_scales_with_bytes() {
        let costs = ServerCosts::default();
        let small = costs.cost(&OpStats { touched_bytes: 1_000, ..Default::default() });
        let large = costs.cost(&OpStats { touched_bytes: 1_000_000, ..Default::default() });
        assert!(large > small);
    }

    #[test]
    fn logging_cost_is_additive() {
        let costs = ServerCosts::default();
        let plain = costs.cost(&OpStats { touched_bytes: 1 << 20, ..Default::default() });
        let logged = costs.cost(&OpStats {
            touched_bytes: 1 << 20,
            log_events: 1,
            logged_bytes: 1 << 20,
            ..Default::default()
        });
        let ratio = logged.as_secs_f64() / plain.as_secs_f64();
        assert!(
            (1.15..1.45).contains(&ratio),
            "logging CPU overhead ratio {ratio} outside the calibrated regime"
        );
    }

    #[test]
    fn control_is_noop_for_plain_backend() {
        let mut logic = ServerLogic::new(PlainBackend::new(4), ServerCosts::default());
        let req = CtlRequest::Checkpoint { app: 0, upto_version: 5 };
        let (resp, _) = logic.handle_ctl(req);
        assert_eq!(resp.req, req);
        assert_eq!(resp.pending_replay, 0);
    }

    #[test]
    fn duplicate_requests_are_absorbed_by_cache() {
        let mut logic = ServerLogic::new(PlainBackend::new(4), ServerCosts::default());
        let (first, _) = logic.handle_put(&put_req(1, 500));
        let (dup, _) = logic.handle_put(&put_req(1, 500));
        assert_eq!(dup.status, first.status);
        assert_eq!(logic.puts_served(), 1, "backend saw the put exactly once");
        assert_eq!(logic.dup_hits(), 1);

        let (g1, _) = logic.handle_get(&get_req(1));
        let (g2, _) = logic.handle_get(&get_req(1));
        assert_eq!(g1.pieces.len(), g2.pieces.len());
        assert_eq!(logic.gets_served(), 1);
        assert_eq!(logic.dup_hits(), 2);
    }

    #[test]
    fn duplicate_ctl_msg_replays_recorded_ack() {
        let mut logic = ServerLogic::new(PlainBackend::new(4), ServerCosts::default());
        logic.handle_put(&put_req(1, 100));
        logic.handle_put(&put_req(2, 100));
        let msg = CtlMsg {
            app: 0,
            seq: 50,
            req: CtlRequest::GlobalReset { to_version: 1 },
            tctx: obs::TraceCtx::NONE,
        };
        let (ack1, _) = logic.handle_ctl_msg(msg);
        // Re-execution lands version 2 again...
        let re_put = PutRequest { seq: 60, ..put_req(2, 100) };
        logic.handle_put(&re_put);
        assert_eq!(logic.bytes_resident(), 200);
        // ...and a late duplicate of the reset must NOT discard it.
        let (ack2, _) = logic.handle_ctl_msg(msg);
        assert_eq!(ack2, ack1);
        assert_eq!(logic.bytes_resident(), 200, "duplicate reset did not re-apply");
        assert_eq!(logic.dup_hits(), 1);
    }

    #[test]
    fn disabled_dedup_reapplies_duplicates() {
        let mut logic = ServerLogic::new(PlainBackend::new(4), ServerCosts::default());
        logic.set_request_dedup(false);
        logic.handle_put(&put_req(1, 100));
        logic.handle_put(&put_req(1, 100));
        assert_eq!(logic.puts_served(), 2, "broken dedup lets duplicates through");
        assert_eq!(logic.dup_hits(), 0);
    }

    /// The fault plane can reorder a client's seqs; the window stays sorted,
    /// so each re-delivery still finds the reply recorded for it.
    #[test]
    fn out_of_order_seqs_are_each_answered_from_the_cache() {
        let mut logic = ServerLogic::new(PlainBackend::new(4), ServerCosts::default());
        let put = |seq: u64| PutRequest { seq, ..put_req(seq as u32, 100) };
        let firsts = [5, 7, 6].map(|seq| format!("{:?}", logic.handle_put(&put(seq)).0));
        for (seq, first) in [5, 7, 6].into_iter().zip(&firsts) {
            let (again, _) = logic.handle_put(&put(seq));
            assert_eq!(logic.last_outcome(), Outcome::Dup, "seq {seq}");
            assert_eq!(&format!("{again:?}"), first, "seq {seq} got the reply recorded for it");
        }
        assert_eq!((logic.puts_served(), logic.dup_hits()), (3, 3));
    }

    /// Past `DEDUP_WINDOW` the lowest seqs are the forgotten ones, whatever
    /// order they arrived in — also when the lowest arrives last, into a
    /// full window.
    #[test]
    fn dedup_window_forgets_the_lowest_seqs() {
        let n = DEDUP_WINDOW as u64 + 3;
        let ascending: Vec<u64> = (0..n).collect();
        let lowest_last: Vec<u64> = (1..n).chain([0]).collect();
        for order in [ascending, lowest_last] {
            let mut logic = ServerLogic::new(PlainBackend::new(4), ServerCosts::default());
            let put = |seq: u64| PutRequest { seq, ..put_req(seq as u32, 100) };
            for &seq in &order {
                logic.handle_put(&put(seq));
            }
            assert_eq!((logic.puts_served(), logic.dup_hits()), (n, 0));
            for retained in [3, n - 1] {
                logic.handle_put(&put(retained));
                assert_eq!(logic.last_outcome(), Outcome::Dup, "seq {retained}");
            }
            for forgotten in [2, 1, 0] {
                logic.handle_put(&put(forgotten));
                assert_ne!(logic.last_outcome(), Outcome::Dup, "seq {forgotten}");
            }
            assert_eq!((logic.puts_served(), logic.dup_hits()), (n + 3, 2));
        }
    }

    #[test]
    fn resident_bytes_track_store() {
        let mut logic = ServerLogic::new(PlainBackend::new(2), ServerCosts::default());
        logic.handle_put(&put_req(1, 100));
        logic.handle_put(&put_req(2, 100));
        assert_eq!(logic.bytes_resident(), 200);
        // Third version evicts the first (max_versions = 2).
        logic.handle_put(&put_req(3, 100));
        assert_eq!(logic.bytes_resident(), 200);
    }
}
