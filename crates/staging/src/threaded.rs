//! Real-thread staging: a server loop over `net::ThreadedNet` and a blocking
//! client, running the same [`ServerLogic`] as the discrete-event server.
//!
//! This is the mode the examples use: several staging server threads, a
//! producer thread, and a consumer thread exchanging real bytes — the
//! protocol logic (including `wfcr`'s logging backend) is identical to the
//! DES path, so races surfaced here are races in the real design.
//!
//! The unit of exchange is one [`Frame`] per shard per operation: a `put` or
//! `get` hands each owning server all of its requests in one message and
//! gets their responses back in one, so a hand-off is paid per shard and not
//! per block. A hand-off costs a thread wake-up only when its receiver is
//! parked: the mesh's channels let a receiver that finds nothing yield once
//! and look again before it sleeps, and a send to a receiver that is not
//! asleep wakes nobody (see `net::threaded`).

// detlint: skip-file — real-thread transport: wall-clock timeouts are
// inherent here; determinism is only required of the DES path.

use crate::dist::Distribution;
use crate::geometry::BBox;
use crate::payload::Payload;
use crate::proto::{
    AppId, CtlMsg, CtlRequest, CtlResponse, GetPiece, PutStatus, Reply, Request, VarId, Version,
    HEADER_BYTES,
};
use crate::router::Router;
use crate::server::{covers_exactly, plan_get_routed, plan_put_with_routed};
use crate::service::{ServerLogic, StoreBackend};
use faultplane::RetryPolicy;
use net::threaded::{NetMsg, RecvTimeoutError, ThreadEndpoint};
use std::thread::JoinHandle;
use std::time::Instant;

/// Shutdown message for server threads.
pub struct Shutdown;

/// One operation's share for one shard: a `Frame<Request>` holds the requests
/// a `put` or `get` planned for that server, in `seq` order (a control round's
/// share is one entry); the `Frame<Reply>` coming back holds their replies in
/// the same order. Its declared size is the sum of what its entries would
/// declare alone, and the mesh's fault plan decides the fate of the frame as
/// a whole.
#[derive(Clone)]
pub struct Frame<T>(pub Vec<T>);

/// Spawn a staging server thread servicing `endpoint`.
///
/// The thread runs until it receives a [`Shutdown`] message or the mesh is
/// torn down, then returns the final [`ServerLogic`] so tests can inspect
/// the store.
pub fn spawn_server<B: StoreBackend>(
    endpoint: ThreadEndpoint,
    logic: ServerLogic<B>,
) -> JoinHandle<ServerLogic<B>> {
    std::thread::spawn(move || serve_loop(endpoint, logic, obs::Tracer::off(), 0).0)
}

/// Spawn a *traced* staging server thread: same loop as [`spawn_server`],
/// but every serviced operation becomes a span in a thread-local recorder,
/// returned alongside the logic at shutdown.
///
/// Real threads have no shared virtual clock, so each thread stamps its
/// records with a private logical tick counter: per-thread record order is
/// exact, and cross-thread order is whatever [`obs::merge`] derives from the
/// ticks — a pure function of the per-thread traces, so merging the joined
/// parts in any order produces the same bytes. Span-id collisions between
/// threads are prevented by giving thread `index` the id base `index + 1`
/// (see [`obs::Tracer::with_sink_base`]).
pub fn spawn_server_traced<B: StoreBackend>(
    endpoint: ThreadEndpoint,
    logic: ServerLogic<B>,
    index: usize,
) -> JoinHandle<(ServerLogic<B>, obs::Trace)> {
    std::thread::spawn(move || {
        let sink = Box::new(obs::FullRecorder::default());
        let tracer = obs::Tracer::with_sink_base(sink, index as u32 + 1);
        serve_loop(endpoint, logic, tracer, index)
    })
}

/// The server message loop shared by the traced and untraced spawns. With a
/// disabled tracer no span is described and the returned trace is empty.
///
/// A frame's entries run one by one through [`ServerLogic::serve`], as a lone
/// request would (own dedup lookup, own span, own journal record); only the
/// reply is shared, and it leaves after the last entry was applied. A get
/// that is not ready yet is answered empty and the client retries, where the
/// DES server parks it.
// lint: commit-point(commit=serve, ack=send)
fn serve_loop<B: StoreBackend>(
    endpoint: ThreadEndpoint,
    mut logic: ServerLogic<B>,
    tracer: obs::Tracer,
    index: usize,
) -> (ServerLogic<B>, obs::Trace) {
    let track = tracer.track(&format!("server{index}"));
    // Logical per-thread clock: tick → (t_ns, seq). Spaced 1 µs apart so
    // span durations are nonzero in timeline views.
    let mut clock = 0u64;
    let mut tick = move || {
        clock += 1;
        (clock * 1000, clock)
    };
    while let Some(msg) = endpoint.recv() {
        let other = match msg.payload.downcast::<Frame<Request>>() {
            Ok(frame) => {
                let mut replies = Vec::with_capacity(frame.0.len());
                let mut size = 0;
                for req in &frame.0 {
                    let (reply, _cost) = logic.serve(req);
                    if tracer.enabled() {
                        let span = logic.trace_served(&tracer, track, index, req, tick());
                        let (t, s) = tick();
                        tracer.end(span, track, t, s, Vec::new());
                    }
                    size += reply.wire_bytes();
                    replies.push(reply);
                }
                endpoint.send(msg.from, size, Frame(replies));
                continue;
            }
            Err(other) => other,
        };
        if other.is::<Shutdown>() {
            break;
        }
        // Anything else is dropped, as in the DES server.
    }
    let trace = tracer.finish();
    (logic, trace)
}

/// Errors from the blocking client.
#[derive(Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The mesh was torn down mid-operation.
    Disconnected,
    /// A get returned pieces that do not tile the requested region.
    IncompleteCoverage,
    /// A get returned pieces from more than one version: the requested
    /// version was only partially written, and lagging servers filled in
    /// with older data. The client's own [`RetryPolicy`] does not loop on
    /// this — it is not a transport fault but a data race the caller
    /// resolves by re-reading once the producer finishes the write.
    TornRead,
    /// The bounded [`RetryPolicy`] gave up before every server acked: the
    /// backoff deadline or attempt budget ran out with responses still
    /// outstanding. Replaces the old open-ended "retry until the write
    /// completes" contract with a typed, diagnosable failure.
    RetryExhausted {
        /// Which operation gave up ("put", "get", or "control").
        op: &'static str,
        /// Retry attempts performed.
        attempts: u32,
        /// Requests (not frames) still unanswered when the policy gave up.
        outstanding: usize,
    },
}

/// Receive until `deadline` or until `on_msg` reports completion. Returns
/// `Ok(true)` when complete, `Ok(false)` on window expiry.
fn drain_window(
    endpoint: &ThreadEndpoint,
    deadline: Instant,
    mut on_msg: impl FnMut(NetMsg) -> bool,
) -> Result<bool, ClientError> {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Ok(false);
        }
        match endpoint.recv_timeout(deadline - now) {
            Ok(msg) => {
                if on_msg(msg) {
                    return Ok(true);
                }
            }
            Err(RecvTimeoutError::Timeout) => return Ok(false),
            Err(RecvTimeoutError::Disconnected) => return Err(ClientError::Disconnected),
        }
    }
}

/// A blocking DataSpaces-style client for one application component.
///
/// Mirrors the paper's user interface: [`SyncClient::put`] ≙
/// `dspaces_put_with_log`, [`SyncClient::get`] ≙ `dspaces_get_with_log`
/// (when the servers run the logging backend), [`SyncClient::checkpoint`] ≙
/// `workflow_check`, and [`SyncClient::recover`] ≙ `workflow_restart`'s
/// notification half.
///
/// Every operation runs under a bounded [`RetryPolicy`]: requests that are
/// not acknowledged within the current backoff window are re-sent (safe —
/// servers dedup on `(app, seq)` and replay the recorded response), and when
/// the attempt budget or deadline runs out the operation fails with
/// [`ClientError::RetryExhausted`] instead of blocking forever.
pub struct SyncClient {
    endpoint: ThreadEndpoint,
    router: Router,
    /// Endpoint index of each staging server in the mesh.
    server_eps: Vec<usize>,
    app: AppId,
    seq: u64,
    retry: RetryPolicy,
}

impl SyncClient {
    /// Create a client routed by `dist`'s built-in range partition.
    /// `server_eps[i]` must be the mesh endpoint of staging server `i` in
    /// `dist`'s numbering.
    pub fn new(
        endpoint: ThreadEndpoint,
        dist: Distribution,
        server_eps: Vec<usize>,
        app: AppId,
    ) -> Self {
        Self::new_routed(endpoint, Router::unsharded(dist), server_eps, app)
    }

    /// Create a client routed through an explicit (possibly sharded)
    /// [`Router`]. `server_eps[i]` must be the mesh endpoint of shard `i`.
    pub fn new_routed(
        endpoint: ThreadEndpoint,
        router: Router,
        server_eps: Vec<usize>,
        app: AppId,
    ) -> Self {
        assert_eq!(server_eps.len(), router.nservers(), "one endpoint per server");
        let retry = RetryPolicy::default().with_seed(app as u64);
        SyncClient { endpoint, router, server_eps, app, seq: 0, retry }
    }

    /// Replace the retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The retry policy in use.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// One operation's exchange with the servers under the bounded
    /// [`RetryPolicy`]. `reqs` are the planned `(server, request)` pairs, with
    /// sequence numbers contiguous from the first one's: a request's position
    /// is its reply slot. Each round sends every server one frame of its
    /// still-unanswered requests, in slot order, then absorbs reply frames
    /// until the backoff window closes, keeping what `pick` extracts from the
    /// first reply of the operation's kind per slot, so transport-duplicated
    /// and stale replies fall away. Returns the picks in slot order.
    fn fan_out<R>(
        &self,
        op: &'static str,
        reqs: &[(usize, Request)],
        pick: impl Fn(Reply) -> Option<R>,
    ) -> Result<Vec<R>, ClientError> {
        let seq0 = reqs.first().map_or(0, |(_, r)| r.seq());
        let mut slots: Vec<Option<R>> = reqs.iter().map(|_| None).collect();
        let mut left = reqs.len();
        let mut attempts = 0u32;
        let mut backoff_spent = 0u64;
        while left > 0 {
            // Each shard's share is counted first, so its frame is
            // allocated once, at its size.
            let unanswered = || reqs.iter().zip(&slots).filter(|(_, slot)| slot.is_none());
            let mut frames = vec![(0, Vec::new()); self.server_eps.len()];
            for ((server, _), _) in unanswered() {
                frames[*server].0 += 1;
            }
            for (share, frame) in &mut frames {
                frame.reserve_exact(*share);
            }
            for ((server, req), _) in unanswered() {
                frames[*server].1.push(req.clone());
            }
            for ((_, frame), &to) in frames.into_iter().zip(&self.server_eps) {
                let size = frame.iter().map(Request::wire_bytes).sum();
                if !frame.is_empty() && !self.endpoint.send(to, size, Frame(frame)) {
                    return Err(ClientError::Disconnected);
                }
            }
            let window = self.retry.backoff(attempts + 1);
            let done = drain_window(&self.endpoint, Instant::now() + window, |msg| {
                let Ok(frame) = msg.payload.downcast::<Frame<Reply>>() else { return false };
                for reply in frame.0 {
                    let slot = reply.seq().wrapping_sub(seq0) as usize;
                    if let Some(empty @ None) = slots.get_mut(slot) {
                        *empty = pick(reply);
                        left -= usize::from(empty.is_some());
                    }
                }
                left == 0
            })?;
            if done {
                break;
            }
            attempts += 1;
            backoff_spent += window.as_nanos() as u64;
            if !self.retry.allows(attempts, backoff_spent) {
                return Err(ClientError::RetryExhausted { op, attempts, outstanding: left });
            }
        }
        Ok(slots.into_iter().map(|r| r.expect("left == 0: every slot is filled")).collect())
    }

    /// Write `bbox` of `(var, version)`, generating per-block payloads with
    /// `fill`. Blocks are scattered to their owning servers; the call returns
    /// when every server acked. Returns the per-block statuses (seq order).
    pub fn put(
        &mut self,
        var: VarId,
        version: Version,
        bbox: &BBox,
        fill: impl FnMut(&BBox) -> Payload,
    ) -> Result<Vec<PutStatus>, ClientError> {
        let planned =
            plan_put_with_routed(&self.router, self.app, var, version, bbox, self.seq, fill);
        self.seq += planned.len() as u64;
        let reqs: Vec<_> = planned.into_iter().map(|(s, r)| (s, Request::Put(r))).collect();
        self.fan_out("put", &reqs, |r| match r {
            Reply::Put(ack) => Some(ack.status),
            _ => None,
        })
    }

    /// Read `bbox` of `(var, version)`; returns the pieces (tiling `bbox`).
    pub fn get(
        &mut self,
        var: VarId,
        version: Version,
        bbox: &BBox,
    ) -> Result<Vec<GetPiece>, ClientError> {
        let planned = plan_get_routed(&self.router, self.app, var, version, bbox, self.seq);
        self.seq += planned.len() as u64;
        // The planned blocks are disjoint (the router clips the distribution
        // grid), so they tile `bbox` iff their volumes add up to it, and the
        // pieces tile `bbox` iff each answer tiles the block it answers: one
        // small check per answer instead of one over every pair of pieces.
        let planned_volume: u64 = planned.iter().map(|(_, r)| r.bbox.volume()).sum();
        let reqs: Vec<_> = planned.into_iter().map(|(s, r)| (s, Request::Get(r))).collect();
        let answers = self.fan_out("get", &reqs, |r| match r {
            Reply::Get(resp) => Some(resp.pieces),
            _ => None,
        })?;
        let tiled = reqs.iter().zip(&answers).all(|((_, req), answer)| {
            matches!(req, Request::Get(get) if covers_exactly(&get.bbox, answer))
        });
        if !tiled || planned_volume != bbox.volume() {
            return Err(ClientError::IncompleteCoverage);
        }
        let mut pieces = Vec::with_capacity(answers.iter().map(Vec::len).sum());
        pieces.extend(answers.into_iter().flatten());
        // Servers may individually fall back to an older version while a put
        // of the requested version is still in flight; a mix of versions
        // tiles the region but is not a consistent snapshot.
        if pieces.windows(2).any(|w| w[0].version != w[1].version) {
            return Err(ClientError::TornRead);
        }
        Ok(pieces)
    }

    /// Notify every server that this component checkpointed through
    /// `upto_version` (the paper's `workflow_check()`).
    pub fn checkpoint(&mut self, upto_version: Version) -> Result<Vec<CtlResponse>, ClientError> {
        self.control(CtlRequest::Checkpoint { app: self.app, upto_version })
    }

    /// Notify every server that this component rolled back to
    /// `resume_version` and will replay (the paper's `workflow_restart()`).
    pub fn recover(&mut self, resume_version: Version) -> Result<Vec<CtlResponse>, ClientError> {
        self.control(CtlRequest::Recovery { app: self.app, resume_version })
    }

    /// Coordinated rollback: every server discards staged data and log
    /// events newer than `to_version` (the Co protocol's global reset).
    /// Non-idempotent — a redelivered duplicate applied after re-execution
    /// resumed would discard fresh data, which is exactly what the server's
    /// `(app, seq)` dedup cache prevents.
    pub fn global_reset(&mut self, to_version: Version) -> Result<Vec<CtlResponse>, ClientError> {
        self.control(CtlRequest::GlobalReset { to_version })
    }

    fn control(&mut self, req: CtlRequest) -> Result<Vec<CtlResponse>, ClientError> {
        // One envelope per server, each with its own sequence number: every
        // server dedups in its own (app, seq) namespace, and a reply's seq
        // names the server it came from.
        let envelope = |(server, seq)| {
            (server, Request::Ctl(CtlMsg { app: self.app, seq, req, tctx: obs::TraceCtx::NONE }))
        };
        let reqs: Vec<_> = (0..self.server_eps.len()).zip(self.seq..).map(envelope).collect();
        self.seq += reqs.len() as u64;
        self.fan_out("control", &reqs, |r| match r {
            Reply::Ctl(ack) => Some(ack.resp),
            _ => None,
        })
    }

    /// The application id this client acts as.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The distribution in use.
    pub fn dist(&self) -> &Distribution {
        self.router.dist()
    }

    /// The router in use.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Per-server endpoints (for sending [`Shutdown`] at teardown).
    pub fn server_eps(&self) -> &[usize] {
        &self.server_eps
    }

    /// Send [`Shutdown`] to every server.
    pub fn shutdown_servers(&self) {
        for &ep in &self.server_eps {
            let _ = self.endpoint.send_reliable(ep, HEADER_BYTES, Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{PlainBackend, ServerCosts};
    use net::threaded::ThreadedNet;

    fn setup(
        nservers: usize,
        napps: usize,
        dims: [u64; 3],
        block: [u64; 3],
    ) -> (Vec<JoinHandle<ServerLogic<PlainBackend>>>, Vec<SyncClient>) {
        let dist = Distribution::new(BBox::whole(dims), block, nservers);
        let mut eps = ThreadedNet::mesh(nservers + napps);
        // Endpoints 0..nservers are servers; the rest are clients.
        let client_eps: Vec<ThreadEndpoint> = eps.split_off(nservers);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                spawn_server(ep, ServerLogic::new(PlainBackend::new(8), ServerCosts::default()))
            })
            .collect();
        let clients = client_eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| SyncClient::new(ep, dist.clone(), (0..nservers).collect(), i as AppId))
            .collect();
        (handles, clients)
    }

    fn block_fill(var: VarId, version: Version) -> impl FnMut(&BBox) -> Payload {
        move |b: &BBox| {
            let mut data = Vec::with_capacity(b.volume() as usize);
            for i in 0..b.volume() {
                data.push((var as u64 + version as u64 * 31 + b.lb[0] + i) as u8);
            }
            Payload::inline(data)
        }
    }

    #[test]
    fn put_get_round_trip_across_threads() {
        let (handles, mut clients) = setup(3, 2, [32, 32, 32], [16, 16, 16]);
        let bbox = BBox::whole([32, 32, 32]);
        let mut consumer = clients.pop().unwrap();
        let mut producer = clients.pop().unwrap();

        let statuses = producer.put(0, 1, &bbox, block_fill(0, 1)).unwrap();
        assert_eq!(statuses.len(), 8);
        assert!(statuses.iter().all(|s| *s == PutStatus::Stored));

        let pieces = consumer.get(0, 1, &bbox).unwrap();
        assert!(covers_exactly(&bbox, &pieces));
        let total: u64 = pieces.iter().map(|p| p.payload.len()).sum();
        assert_eq!(total, bbox.volume());
        // The digest the producer computed rode with the bytes through the
        // transport and the store: each piece equals the producer's payload,
        // bytes and digest both.
        let mut produced = block_fill(0, 1);
        for p in &pieces {
            let want = produced(&p.bbox);
            assert_eq!(p.payload.digest(), want.digest());
            assert_eq!(p.payload, want);
        }

        consumer.shutdown_servers();
        for h in handles {
            let logic = h.join().unwrap();
            assert!(logic.puts_served() + logic.gets_served() > 0);
        }
    }

    #[test]
    fn get_missing_region_reports_incomplete() {
        let (handles, mut clients) = setup(2, 1, [16, 16, 16], [8, 8, 8]);
        let mut c = clients.pop().unwrap();
        let bbox = BBox::whole([16, 16, 16]);
        // Nothing was put; coverage check must fail.
        assert!(matches!(c.get(0, 1, &bbox), Err(ClientError::IncompleteCoverage)));
        c.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_producers_disjoint_regions() {
        let (handles, mut clients) = setup(2, 2, [32, 32, 32], [8, 8, 8]);
        let mut c2 = clients.pop().unwrap();
        let mut c1 = clients.pop().unwrap();
        let left = BBox::d3([0, 0, 0], [15, 31, 31]);
        let right = BBox::d3([16, 0, 0], [31, 31, 31]);
        let t1 = std::thread::spawn(move || {
            c1.put(0, 1, &left, block_fill(0, 1)).unwrap();
            c1
        });
        let t2 = std::thread::spawn(move || {
            c2.put(0, 1, &right, block_fill(0, 1)).unwrap();
            c2
        });
        let mut c1 = t1.join().unwrap();
        let _c2 = t2.join().unwrap();
        let whole = BBox::whole([32, 32, 32]);
        let pieces = c1.get(0, 1, &whole).unwrap();
        assert!(covers_exactly(&whole, &pieces));
        c1.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn control_round_trip() {
        let (handles, mut clients) = setup(2, 1, [8, 8, 8], [8, 8, 8]);
        let mut c = clients.pop().unwrap();
        let resps = c.checkpoint(4).unwrap();
        assert_eq!(resps.len(), 2);
        for r in resps {
            assert_eq!(r.req, CtlRequest::Checkpoint { app: 0, upto_version: 4 });
        }
        c.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Like [`setup`] but the mesh injects faults from `plan` and the clients
    /// use `retry`.
    fn setup_faulty(
        nservers: usize,
        napps: usize,
        dims: [u64; 3],
        block: [u64; 3],
        plan: faultplane::FaultPlan,
        retry: RetryPolicy,
    ) -> (Vec<JoinHandle<ServerLogic<PlainBackend>>>, Vec<SyncClient>) {
        let dist = Distribution::new(BBox::whole(dims), block, nservers);
        let mut eps = ThreadedNet::mesh_with_faults(nservers + napps, plan);
        let client_eps: Vec<ThreadEndpoint> = eps.split_off(nservers);
        let handles: Vec<_> = eps
            .into_iter()
            .map(|ep| {
                spawn_server(ep, ServerLogic::new(PlainBackend::new(8), ServerCosts::default()))
            })
            .collect();
        let clients = client_eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                SyncClient::new(ep, dist.clone(), (0..nservers).collect(), i as AppId)
                    .with_retry(retry)
            })
            .collect();
        (handles, clients)
    }

    fn lossy_plan(seed: u64) -> faultplane::FaultPlan {
        faultplane::FaultPlan {
            seed,
            rates: faultplane::FaultRates {
                drop: 0.10,
                duplicate: 0.15,
                reorder: 0.10,
                delay: 0.10,
                max_extra_delay_ns: 200_000,
            },
            windows: Vec::new(),
        }
    }

    fn patient_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 0,
            base_ns: 1_000_000,
            cap_ns: 8_000_000,
            deadline_ns: 30_000_000_000,
            seed: 42,
        }
    }

    #[test]
    fn put_get_survive_drop_dup_reorder_faults() {
        let (handles, mut clients) =
            setup_faulty(3, 2, [32, 32, 32], [16, 16, 16], lossy_plan(7), patient_retry());
        let bbox = BBox::whole([32, 32, 32]);
        let mut consumer = clients.pop().unwrap();
        let mut producer = clients.pop().unwrap();

        let statuses = producer.put(0, 1, &bbox, block_fill(0, 1)).unwrap();
        assert_eq!(statuses.len(), 8);
        assert!(statuses.iter().all(|s| *s == PutStatus::Stored));

        // Retry until the get is both complete and untorn (servers may still
        // be absorbing duplicated puts).
        let pieces = loop {
            match consumer.get(0, 1, &bbox) {
                Ok(p) => break p,
                Err(ClientError::IncompleteCoverage) | Err(ClientError::TornRead) => {
                    std::thread::yield_now()
                }
                Err(e) => panic!("get failed under faults: {e:?}"),
            }
        };
        assert!(covers_exactly(&bbox, &pieces));
        let total: u64 = pieces.iter().map(|p| p.payload.len()).sum();
        assert_eq!(total, bbox.volume());

        consumer.shutdown_servers();
        for h in handles {
            let logic = h.join().unwrap();
            // Exactly-once application: the store never saw more distinct
            // blocks than were planned, even though the wire duplicated.
            assert!(logic.puts_served() + logic.gets_served() > 0);
        }
    }

    #[test]
    fn control_survives_duplication_faults() {
        let plan = faultplane::FaultPlan {
            seed: 11,
            rates: faultplane::FaultRates {
                duplicate: 0.5,
                max_extra_delay_ns: 100_000,
                ..Default::default()
            },
            windows: Vec::new(),
        };
        let (handles, mut clients) =
            setup_faulty(2, 1, [8, 8, 8], [8, 8, 8], plan, patient_retry());
        let mut c = clients.pop().unwrap();
        for round in 0..8u32 {
            let resps = c.checkpoint(round).unwrap();
            // Per-endpoint dedup: exactly one response per server per round,
            // no matter how many duplicates the wire delivered.
            assert_eq!(resps.len(), 2, "round {round}");
        }
        c.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn traced_servers_record_serves_and_merge_deterministically() {
        let nservers = 3;
        let dist = Distribution::new(BBox::whole([32, 32, 32]), [16, 16, 16], nservers);
        let mut eps = ThreadedNet::mesh(nservers + 1);
        let client_eps: Vec<ThreadEndpoint> = eps.split_off(nservers);
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                spawn_server_traced(
                    ep,
                    ServerLogic::new(PlainBackend::new(8), ServerCosts::default()),
                    i,
                )
            })
            .collect();
        let mut c = SyncClient::new(
            client_eps.into_iter().next().unwrap(),
            dist,
            (0..nservers).collect(),
            0,
        );
        let bbox = BBox::whole([32, 32, 32]);
        c.put(0, 1, &bbox, block_fill(0, 1)).unwrap();
        let pieces = c.get(0, 1, &bbox).unwrap();
        assert!(covers_exactly(&bbox, &pieces));
        c.shutdown_servers();
        let mut parts = Vec::new();
        for h in handles {
            let (_logic, trace) = h.join().unwrap();
            parts.push(trace);
        }
        // Every server recorded its serves as spans.
        let serves: usize = parts
            .iter()
            .flat_map(|p| p.records.iter())
            .filter(|r| r.name == "serve.put" || r.name == "serve.get")
            .count();
        assert_eq!(serves, 16, "8 put + 8 get spans across the mesh");
        // Merging is a pure function of the parts: any join order, same bytes.
        let forward = obs::merge(parts.clone());
        let mut rev = parts;
        rev.reverse();
        let backward = obs::merge(rev);
        assert_eq!(forward.to_jsonl(), backward.to_jsonl());
        obs::analyze::validate(&forward).expect("merged trace validates");
    }

    #[test]
    fn retry_exhaustion_is_a_typed_error() {
        let blackhole = faultplane::FaultPlan {
            seed: 3,
            rates: faultplane::FaultRates { drop: 1.0, ..Default::default() },
            windows: Vec::new(),
        };
        let strict = RetryPolicy {
            max_attempts: 2,
            base_ns: 500_000,
            cap_ns: 1_000_000,
            deadline_ns: 0,
            seed: 0,
        };
        let (handles, mut clients) = setup_faulty(1, 1, [16, 16, 16], [8, 8, 8], blackhole, strict);
        let mut c = clients.pop().unwrap();
        let err = c.put(0, 1, &BBox::whole([16, 16, 16]), block_fill(0, 1)).unwrap_err();
        match err {
            ClientError::RetryExhausted { op, attempts, outstanding } => {
                assert_eq!(op, "put");
                assert_eq!(attempts, 2);
                assert_eq!(outstanding, 8, "requests still unanswered, not the one frame");
            }
            other => panic!("expected RetryExhausted, got {other:?}"),
        }
        // Shutdown bypasses faults, so the servers still exit cleanly.
        c.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A plan whose `rates` hit exactly the `i`-th faultable send on the mesh.
    fn fault_at(i: u64, rates: faultplane::FaultRates) -> faultplane::FaultPlan {
        let only = faultplane::FaultWindow { from_msg: i, to_msg: i };
        faultplane::FaultPlan { seed: 0, rates, windows: vec![only] }
    }

    /// Windows long enough that only an injected loss triggers a retry.
    fn unhurried_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_ns: 250_000_000,
            cap_ns: 250_000_000,
            deadline_ns: 0,
            seed: 0,
        }
    }

    /// One server, one client, eight blocks: a put is one frame out (send 0)
    /// and one frame back (send 1). Returns the statuses, the server logic
    /// and the messages the mesh carried for the put (counted once the server
    /// has answered everything it received, less the shutdown message).
    fn one_put_under(
        plan: faultplane::FaultPlan,
    ) -> (Vec<PutStatus>, ServerLogic<PlainBackend>, u64) {
        let (mut handles, mut clients) =
            setup_faulty(1, 1, [16, 16, 16], [8, 8, 8], plan, unhurried_retry());
        let mut c = clients.pop().unwrap();
        let statuses = c.put(0, 1, &BBox::whole([16, 16, 16]), block_fill(0, 1)).unwrap();
        c.shutdown_servers();
        let logic = handles.pop().unwrap().join().unwrap();
        (statuses, logic, c.endpoint.stats().msgs() - 1)
    }

    #[test]
    fn dropped_request_frame_is_resent_as_one_frame() {
        let drop = faultplane::FaultRates { drop: 1.0, ..Default::default() };
        let (statuses, logic, msgs) = one_put_under(fault_at(0, drop));
        assert_eq!(statuses, vec![PutStatus::Stored; 8]);
        assert_eq!(msgs, 2, "the lost frame never reached the mesh; one re-sent frame, one ack");
        assert_eq!((logic.puts_served(), logic.dup_hits()), (8, 0));
    }

    #[test]
    fn dropped_ack_frame_is_answered_from_the_dedup_cache() {
        let drop = faultplane::FaultRates { drop: 1.0, ..Default::default() };
        let (statuses, logic, msgs) = one_put_under(fault_at(1, drop));
        assert_eq!(statuses, vec![PutStatus::Stored; 8]);
        assert_eq!(msgs, 3, "frame, the same frame again, the second ack");
        assert_eq!(logic.puts_served(), 8, "the store saw each block once");
        assert_eq!(logic.dup_hits(), 8, "every entry of the re-sent frame hit the cache");
    }

    #[test]
    fn duplicated_frames_are_absorbed_by_remove_once() {
        let dup = faultplane::FaultRates { duplicate: 1.0, ..Default::default() };
        // Request frame doubled: the server answers twice, once from its cache.
        let (statuses, logic, msgs) = one_put_under(fault_at(0, dup));
        assert_eq!(statuses.len(), 8);
        assert_eq!(msgs, 4);
        assert_eq!((logic.puts_served(), logic.dup_hits()), (8, 8));

        // Ack frame doubled: the second copy is still queued when the next
        // operation starts and must not fill any of *its* slots.
        let (mut handles, mut clients) =
            setup_faulty(1, 1, [16, 16, 16], [8, 8, 8], fault_at(1, dup), unhurried_retry());
        let mut c = clients.pop().unwrap();
        let whole = BBox::whole([16, 16, 16]);
        assert_eq!(c.put(0, 1, &whole, block_fill(0, 1)).unwrap().len(), 8);
        assert_eq!(c.put(0, 2, &whole, block_fill(0, 2)).unwrap().len(), 8);
        assert_eq!(c.get(0, 2, &whole).unwrap().len(), 8);
        c.shutdown_servers();
        let logic = handles.pop().unwrap().join().unwrap();
        assert_eq!((logic.puts_served(), logic.gets_served(), logic.dup_hits()), (16, 8, 0));
    }

    #[test]
    fn unready_get_entry_is_answered_empty_and_the_rest_served() {
        let (mut handles, mut clients) = setup(1, 1, [16, 16, 16], [8, 8, 8]);
        let mut c = clients.pop().unwrap();
        let left = BBox::d3([0, 0, 0], [7, 15, 15]);
        c.put(0, 1, &left, block_fill(0, 1)).unwrap();
        // One frame of eight entries, four of them over blocks nobody wrote.
        let whole = BBox::whole([16, 16, 16]);
        assert!(matches!(c.get(0, 1, &whole), Err(ClientError::IncompleteCoverage)));
        c.shutdown_servers();
        let logic = handles.pop().unwrap().join().unwrap();
        assert_eq!(logic.gets_served(), 4, "unready entries never reach the backend or its log");
    }

    #[test]
    fn get_reaching_outside_the_domain_reports_incomplete() {
        let (handles, mut clients) = setup(2, 1, [16, 16, 16], [8, 8, 8]);
        let mut c = clients.pop().unwrap();
        let whole = BBox::whole([16, 16, 16]);
        c.put(0, 1, &whole, block_fill(0, 1)).unwrap();
        // Every planned block is answered in full, yet the blocks are clipped
        // to the domain and cannot add up to the region asked for.
        let beyond = BBox::d3([0, 0, 0], [23, 15, 15]);
        assert!(matches!(c.get(0, 1, &beyond), Err(ClientError::IncompleteCoverage)));
        assert_eq!(c.get(0, 1, &whole).unwrap().len(), 8);
        c.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A payload that is no `Frame<Request>` — here a bare `CtlMsg`, the
    /// pre-frame control wire type — is dropped without a reply or a panic,
    /// and the next request is still served.
    #[test]
    fn foreign_payload_is_dropped_and_the_next_request_served() {
        let (mut handles, mut clients) = setup(1, 1, [8, 8, 8], [8, 8, 8]);
        let mut c = clients.pop().unwrap();
        let req = CtlRequest::Checkpoint { app: 0, upto_version: 1 };
        let bare = CtlMsg { app: 0, seq: 99, req, tctx: obs::TraceCtx::NONE };
        assert!(c.endpoint.send(0, HEADER_BYTES, bare));
        assert!(c.endpoint.send(0, HEADER_BYTES, Frame(vec![bare])));
        assert_eq!(c.checkpoint(1).unwrap().len(), 1);
        assert!(c.endpoint.try_recv().is_none(), "the foreign payloads drew no reply");
        c.shutdown_servers();
        let logic = handles.pop().unwrap().join().unwrap();
        assert_eq!(logic.dup_hits(), 0);
    }

    #[test]
    fn get_returns_pieces_in_planned_order() {
        let (handles, mut clients) = setup(3, 1, [32, 32, 32], [8, 8, 8]);
        let mut c = clients.pop().unwrap();
        let whole = BBox::whole([32, 32, 32]);
        c.put(0, 1, &whole, block_fill(0, 1)).unwrap();
        let planned: Vec<BBox> = plan_get_routed(c.router(), c.app(), 0, 1, &whole, 0)
            .into_iter()
            .map(|(_, req)| req.bbox)
            .collect();
        assert_eq!(planned.len(), 64);
        for _ in 0..4 {
            let got: Vec<BBox> = c.get(0, 1, &whole).unwrap().iter().map(|p| p.bbox).collect();
            assert_eq!(got, planned);
        }
        c.shutdown_servers();
        for h in handles {
            h.join().unwrap();
        }
    }
}
