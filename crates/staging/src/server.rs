//! Discrete-event staging server actor and client-side request planning.
//!
//! The server actor models a single staging process: requests arrive through
//! the simulated network (already serialized by the destination NIC), then
//! queue for the server CPU, which services them one at a time at the cost
//! computed by [`crate::service::ServerCosts`]. Responses travel back through
//! the network. This two-stage queue (NIC, then CPU) is what turns concurrent
//! writer load into the response-time inflation measured in Figure 9.

use crate::dist::ServerIdx;
use crate::geometry::BBox;
use crate::payload::Payload;
use crate::proto::{
    AppId, CtlRequest, GetPiece, GetRequest, ObjDesc, PutRequest, Reply, Request, VarId, Version,
};
use crate::router::Router;
use crate::service::{Outcome, ServerLogic, StoreBackend};
use net::des::{Delivered, EndpointId, NetworkHandle};
use obs::{arg, TraceCtx};
use sim_core::engine::{Actor, Ctx, Event};
use sim_core::metrics::GaugeId;
use sim_core::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// A queued unit of server work: the request stays in the box it arrived in.
struct Pending {
    from_ep: EndpointId,
    req: Box<Request>,
}

/// Completion marker scheduled to self when the current request's service
/// time elapses. Carries the server incarnation so completions from before a
/// failure are ignored.
struct OpDone {
    incarnation: u32,
}

/// Fail-stop failure of this staging server process (runner → server).
///
/// The staging area's resilience layer (replication / erasure coding à la
/// CoREC) reconstructs the lost fragments from survivors; the server is
/// unavailable while the rebuild runs. The rebuild duration is
/// `fixed + bytes_resident × per_byte` — the caller derives `per_byte` from
/// the protection geometry and rebuild bandwidth.
pub struct ServerFail {
    /// Fixed failover/detection cost.
    pub fixed: SimTime,
    /// Rebuild seconds per resident byte.
    pub per_byte_s: f64,
}

/// Timer: rebuild finished, server resumes.
struct RebuildDone {
    incarnation: u32,
}

/// Server → supervisor: this staging server lost its process and entered a
/// resilience rebuild. Sent only when a supervisor is wired.
pub struct ServerDownNotice {
    /// The failed server's index.
    pub server: ServerIdx,
}

/// Server → supervisor: the rebuild completed and the server is serving
/// again. Sent only when a supervisor is wired.
pub struct ServerUpNotice {
    /// The recovered server's index.
    pub server: ServerIdx,
}

/// One of a server's gauges, `staging.server{index}.{name}`; the discriminant
/// indexes [`StagingServerActor::gauges`].
#[derive(Clone, Copy)]
enum ServerGauge {
    /// CPU-queue depth, sampled at enqueue.
    Qdepth,
    /// Resident bytes.
    Bytes,
    /// Parked blocking gets awaiting a version.
    GetWaits,
    /// Live (not yet GC'd) events in the backend's log.
    LogEvents,
}

impl ServerGauge {
    fn name(self) -> &'static str {
        ["qdepth", "bytes", "get_waits", "log_events"][self as usize]
    }
}

/// The staging server actor.
pub struct StagingServerActor<B> {
    logic: ServerLogic<B>,
    net: NetworkHandle,
    ep: EndpointId,
    /// Queued requests awaiting the CPU.
    queue: VecDeque<Pending>,
    /// Gets whose requested version is not yet available (DataSpaces `get`
    /// blocks), indexed by `(var, version)` so a completed write wakes only
    /// the gets it can actually unblock instead of rescanning every parked
    /// request. BTreeMap (not HashMap) at the outer level too: rescans
    /// requeue parked gets in map order, and that order must not depend on
    /// hasher state for runs to replay identically.
    waiting: BTreeMap<VarId, BTreeMap<Version, Vec<Pending>>>,
    /// Gets parked in `waiting`, kept by the four sites that change it so
    /// the `get_waits` gauge reads a field instead of walking the map.
    parked: usize,
    /// Request currently in service, if any, with its reply: computed at
    /// dequeue time, sent when the service timer fires.
    in_service: Option<(Pending, Reply)>,
    /// Handles of this server's gauges, by [`ServerGauge`]. Each is resolved
    /// at the gauge's first write, never at construction: a server that was
    /// never asked anything registers nothing, and a gauge enters the
    /// telemetry series in the window it was first set.
    gauges: [Option<GaugeId>; 4],
    /// Server index (for naming).
    index: ServerIdx,
    /// Is the server currently down for a resilience rebuild? Requests queue
    /// and are served when the rebuild completes.
    down: bool,
    /// Guards stale rebuild timers across overlapping failures.
    incarnation: u32,
    /// Rebuilds survived.
    rebuilds: u32,
    /// Observability (inert when the tracer is off).
    tracer: obs::Tracer,
    track: obs::TrackId,
    /// Span of the request currently in service.
    op_span: TraceCtx,
    /// Span of an in-progress resilience rebuild.
    rebuild_span: TraceCtx,
    /// Supervisor to notify on fail-stop / rebuild-complete (runner wiring;
    /// `None` outside supervised runs).
    supervisor: Option<sim_core::engine::ActorId>,
}

impl<B: StoreBackend> StagingServerActor<B> {
    /// Create a server actor. `ep` must be this actor's registered network
    /// endpoint.
    pub fn new(
        index: ServerIdx,
        logic: ServerLogic<B>,
        net: NetworkHandle,
        ep: EndpointId,
    ) -> Self {
        StagingServerActor {
            logic,
            net,
            ep,
            queue: VecDeque::new(),
            waiting: BTreeMap::new(),
            parked: 0,
            in_service: None,
            gauges: [None; 4],
            index,
            down: false,
            incarnation: 0,
            rebuilds: 0,
            tracer: obs::Tracer::off(),
            track: obs::TrackId(0),
            op_span: TraceCtx::NONE,
            rebuild_span: TraceCtx::NONE,
            supervisor: None,
        }
    }

    /// Runner wiring: notify `supervisor` when this server fails and when
    /// its rebuild completes (supervised runs only).
    pub fn set_supervisor(&mut self, supervisor: sim_core::engine::ActorId) {
        self.supervisor = Some(supervisor);
    }

    /// Runner wiring: attach a tracer. The server records onto its own
    /// track (`server<index>`); serve spans nest under the trace context
    /// carried by each request.
    pub fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.track = tracer.track(&format!("server{}", self.index));
        self.tracer = tracer;
    }

    /// Rebuilds this server has survived.
    pub fn rebuilds(&self) -> u32 {
        self.rebuilds
    }

    /// Runner wiring: set the network handle and this server's endpoint
    /// after actor registration (ids are only known then).
    pub fn wire(&mut self, net: NetworkHandle, ep: EndpointId) {
        self.net = net;
        self.ep = ep;
    }

    /// The wrapped logic, for post-run inspection.
    pub fn logic(&self) -> &ServerLogic<B> {
        &self.logic
    }

    /// Mutable access to the wrapped logic.
    pub fn logic_mut(&mut self) -> &mut ServerLogic<B> {
        &mut self.logic
    }

    /// This server's index.
    pub fn index(&self) -> ServerIdx {
        self.index
    }

    /// Drop queued and parked requests from `app` (or from everyone, with
    /// `None`) — the server-side half of a connection teardown.
    fn purge_requests_from(&mut self, app: Option<AppId>) {
        // Control traffic is never stale.
        let stale = |req: &Request| {
            !matches!(req, Request::Ctl(_)) && app.map(|a| a == req.app()).unwrap_or(true)
        };
        self.queue.retain(|p| !stale(&p.req));
        let parked = &mut self.parked;
        self.waiting.retain(|_, by_version| {
            by_version.retain(|_, pendings| {
                let before = pendings.len();
                pendings.retain(|p| !stale(&p.req));
                *parked -= before - pendings.len();
                !pendings.is_empty()
            });
            !by_version.is_empty()
        });
    }

    /// Park a blocked get under its `(var, version)` wake key.
    fn park_get(&mut self, var: VarId, version: Version, p: Pending) {
        self.waiting.entry(var).or_default().entry(version).or_default().push(p);
        self.parked += 1;
    }

    /// Requeue `p` if its get is now ready, else park it again.
    fn requeue_or_repark(&mut self, var: VarId, version: Version, p: Pending) {
        let ready = match &*p.req {
            Request::Get(r) => self.logic.get_ready(r),
            _ => true,
        };
        if ready {
            self.queue.push_back(p);
        } else {
            self.park_get(var, version, p);
        }
    }

    /// Wake the parked gets a completed write of `(var, upto)` can unblock:
    /// exactly those keyed at version `<= upto` (their version just landed,
    /// or a newer one now exists). Parked gets for other variables or newer
    /// versions are untouched.
    fn wake_upto(&mut self, var: VarId, upto: Version) {
        let Some(by_version) = self.waiting.get_mut(&var) else { return };
        let woken = match upto.checked_add(1) {
            Some(split) => {
                let newer = by_version.split_off(&split);
                std::mem::replace(by_version, newer)
            }
            None => std::mem::take(by_version),
        };
        if by_version.is_empty() {
            self.waiting.remove(&var);
        }
        self.parked -= woken.values().map(Vec::len).sum::<usize>();
        for (version, pendings) in woken {
            for p in pendings {
                self.requeue_or_repark(var, version, p);
            }
        }
    }

    /// Re-check every parked get (control transitions such as entering
    /// replay mode can unblock gets of any variable or version).
    fn rescan_waiting(&mut self) {
        if self.waiting.is_empty() {
            return;
        }
        let parked = std::mem::take(&mut self.waiting);
        self.parked = 0;
        for (var, by_version) in parked {
            for (version, pendings) in by_version {
                for p in pendings {
                    self.requeue_or_repark(var, version, p);
                }
            }
        }
    }

    /// Set one of this server's gauges through its handle, resolving the
    /// name on the gauge's first write.
    fn set_gauge(&mut self, ctx: &mut Ctx<'_>, gauge: ServerGauge, value: i64) {
        let index = self.index;
        let id = *self.gauges[gauge as usize].get_or_insert_with(|| {
            ctx.metrics().gauge_id(&format!("staging.server{index}.{}", gauge.name()))
        });
        ctx.metrics().gauge_set_id(id, value);
    }

    /// Sample resident bytes and the queue-shaped gauges: parked blocking
    /// gets awaiting a version, and live (not yet GC'd) events in the
    /// backend's log. The CPU-queue depth gauge is set at enqueue time;
    /// these close out the remaining uninstrumented hot paths for the
    /// windowed telemetry series.
    fn sample_gauges(&mut self, ctx: &mut Ctx<'_>) {
        self.set_gauge(ctx, ServerGauge::Bytes, self.logic.bytes_resident() as i64);
        debug_assert_eq!(
            self.parked,
            self.waiting.values().map(|bv| bv.values().map(Vec::len).sum::<usize>()).sum(),
            "the parked count agrees with the parked gets"
        );
        self.set_gauge(ctx, ServerGauge::GetWaits, self.parked as i64);
        let live = self.logic.backend().live_log_events();
        self.set_gauge(ctx, ServerGauge::LogEvents, live as i64);
    }

    fn start_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.in_service.is_some() || self.down {
            return;
        }
        let (p, reply, cost) = loop {
            let Some(p) = self.queue.pop_front() else { return };
            // The state transition happens at dequeue time; the service delay
            // models the CPU cost of that transition, after which the reply
            // is sent.
            let (reply, cost) = self.logic.serve(&p.req);
            let outcome = self.logic.last_outcome();
            match &*p.req {
                Request::Get(r) if outcome == Outcome::NotReady => {
                    // Blocking get: park it under its wake key and try the
                    // next request.
                    let (var, version) = (r.var, r.version);
                    self.park_get(var, version, p);
                    continue;
                }
                // A recovery notification means the component's old
                // connection died with it: requests it sent before the
                // failure (queued or parked) are torn down, exactly as
                // broken RDMA connections drop in-flight requests. A global
                // reset invalidates everyone's in-flight requests. A
                // re-delivered envelope (client retry or transport
                // duplication) must not repeat the teardown: requests the
                // app issued after the original was applied stay intact.
                Request::Ctl(m) if outcome != Outcome::Dup => match m.req {
                    CtlRequest::Recovery { app, .. } => self.purge_requests_from(Some(app)),
                    CtlRequest::GlobalReset { .. } => self.purge_requests_from(None),
                    CtlRequest::Checkpoint { .. } => {}
                },
                _ => {}
            }
            break (p, reply, cost);
        };
        if self.tracer.enabled() {
            let at = (ctx.now().as_nanos(), ctx.seq());
            self.op_span =
                self.logic.trace_served(&self.tracer, self.track, self.index, &p.req, at);
        }
        self.in_service = Some((p, reply));
        let incarnation = self.incarnation;
        ctx.timer(cost, OpDone { incarnation });
        self.sample_gauges(ctx);
    }
}

impl<B: StoreBackend> Actor for StagingServerActor<B> {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let ev = match ev.downcast::<Delivered>() {
            Ok((_, d)) => {
                // The one wire type a server accepts; anything else is dropped.
                let Ok(req) = d.payload.downcast::<Request>() else { return };
                self.queue.push_back(Pending { from_ep: d.from, req });
                self.set_gauge(ctx, ServerGauge::Qdepth, self.queue.len() as i64);
                self.start_next(ctx);
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<ServerFail>() {
            Ok((_, f)) => {
                // Lose the process; the resilience layer rebuilds the lost
                // fragments from surviving replicas/shards. Queued requests —
                // including the op in flight, whose effect already reached
                // the (protected) log — are answered once the rebuild
                // completes.
                self.down = true;
                self.incarnation += 1;
                let rebuild = f.fixed
                    + SimTime::from_secs_f64(self.logic.bytes_resident() as f64 * f.per_byte_s);
                ctx.metrics().inc("staging.server_failures", 1);
                ctx.metrics().observe("staging.rebuild_s", rebuild.as_secs_f64());
                if self.tracer.enabled() && self.rebuild_span.is_none() {
                    self.rebuild_span = self.tracer.begin(
                        TraceCtx::NONE,
                        self.track,
                        "rebuild",
                        ctx.now().as_nanos(),
                        ctx.seq(),
                        vec![arg("bytes", self.logic.bytes_resident())],
                    );
                }
                if let Some(sup) = self.supervisor {
                    ctx.send_now(sup, ServerDownNotice { server: self.index });
                }
                let incarnation = self.incarnation;
                ctx.timer(rebuild, RebuildDone { incarnation });
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<RebuildDone>() {
            Ok((_, r)) => {
                if r.incarnation == self.incarnation && self.down {
                    self.down = false;
                    self.rebuilds += 1;
                    let sp = std::mem::take(&mut self.rebuild_span);
                    self.tracer.end(sp, self.track, ctx.now().as_nanos(), ctx.seq(), Vec::new());
                    if let Some(sup) = self.supervisor {
                        ctx.send_now(sup, ServerUpNotice { server: self.index });
                    }
                    if self.in_service.is_some() {
                        // Deliver the interrupted op's (late) response.
                        let incarnation = self.incarnation;
                        ctx.timer(SimTime::ZERO, OpDone { incarnation });
                    } else {
                        self.rescan_waiting();
                        self.start_next(ctx);
                    }
                }
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<OpDone>() {
            Ok((_, o)) => {
                if self.down || o.incarnation != self.incarnation {
                    return; // completion from before a failure
                }
                self.finish_op(ctx);
                return;
            }
            Err(ev) => ev,
        };
        let _ = ev;
    }

    fn name(&self) -> &str {
        "staging-server"
    }
}

impl<B: StoreBackend> StagingServerActor<B> {
    fn finish_op(&mut self, ctx: &mut Ctx<'_>) {
        let Some((done, reply)) = self.in_service.take() else { return };
        self.net.send(ctx, self.ep, done.from_ep, reply.wire_bytes(), reply);
        let s = std::mem::take(&mut self.op_span);
        self.tracer.end(s, self.track, ctx.now().as_nanos(), ctx.seq(), Vec::new());
        // Completed writes wake only the gets keyed at or below the written
        // version; control transitions (e.g. recovery entering replay mode)
        // can unblock anything and trigger a full rescan. Reads never change
        // data availability.
        match *done.req {
            Request::Put(r) => self.wake_upto(r.desc.var, r.desc.version),
            Request::Ctl(_) => self.rescan_waiting(),
            Request::Get(_) => {}
        }
        self.sample_gauges(ctx);
        self.start_next(ctx);
    }
}

/// Plan the per-server requests for a `put` of `bbox` with `bytes_per_point`
/// bytes at each grid point, payloads virtual: deterministic digests derived
/// from `(app, var, version, block corner)` — the identity a producer would
/// deterministically regenerate on re-execution, which is what makes
/// digest-based replay checks meaningful. See [`plan_put_with_routed`] for
/// caller-provided content.
///
/// (Every planner routes through a [`Router`]; the `_routed` suffix dates
/// from when `&Distribution` twins existed and stays because `hostbench/`
/// compiles against these names.)
pub fn plan_put_virtual_routed(
    router: &Router,
    app: AppId,
    var: VarId,
    version: Version,
    bbox: &BBox,
    bytes_per_point: u64,
    seq_start: u64,
) -> Vec<(ServerIdx, PutRequest)> {
    plan_put_with_routed(router, app, var, version, bbox, seq_start, |clipped| {
        let len = clipped.volume() * bytes_per_point;
        let identity =
            [app as u64, var as u64, version as u64, clipped.lb[0], clipped.lb[1], clipped.lb[2]];
        Payload::virtual_from(len, &identity)
    })
}

/// Plan a `put` with caller-provided payload content per block: one request
/// per block, to the shard owning it *for this data version*, so writes
/// after a rebalance land on the new owner while earlier versions stay put.
pub fn plan_put_with_routed(
    router: &Router,
    app: AppId,
    var: VarId,
    version: Version,
    bbox: &BBox,
    seq_start: u64,
    mut fill: impl FnMut(&BBox) -> Payload,
) -> Vec<(ServerIdx, PutRequest)> {
    let blocks = router.blocks_overlapping(bbox, version).into_iter().zip(seq_start..);
    blocks
        .map(|((_coord, clipped, server), seq)| {
            let desc = ObjDesc { var, version, bbox: clipped };
            let payload = fill(&clipped);
            (server, PutRequest { app, desc, payload, seq, tctx: TraceCtx::NONE })
        })
        .collect()
}

/// Plan the per-server requests for a `get` of `bbox`: reads of a version
/// written before a rebalance go to the shard that held the block *then*.
pub fn plan_get_routed(
    router: &Router,
    app: AppId,
    var: VarId,
    version: Version,
    bbox: &BBox,
    seq_start: u64,
) -> Vec<(ServerIdx, GetRequest)> {
    // One request per server covering the union of that server's clipped
    // blocks would be tighter; per-block requests keep responses block-sized
    // and match how DataSpaces issues queries.
    let blocks = router.blocks_overlapping(bbox, version).into_iter().zip(seq_start..);
    blocks
        .map(|((_coord, bbox, server), seq)| {
            (server, GetRequest { app, var, version, bbox, seq, tctx: TraceCtx::NONE })
        })
        .collect()
}

/// Verify that `pieces` exactly tile `bbox` (pairwise disjoint, all inside,
/// volumes summing to the box volume).
pub fn covers_exactly(bbox: &BBox, pieces: &[GetPiece]) -> bool {
    let mut vol = 0u64;
    for (i, p) in pieces.iter().enumerate() {
        if !bbox.contains(&p.bbox) {
            return false;
        }
        vol += p.bbox.volume();
        for q in &pieces[i + 1..] {
            if p.bbox.intersects(&q.bbox) {
                return false;
            }
        }
    }
    vol == bbox.volume()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::proto::CtlMsg;
    use crate::service::{PlainBackend, ServerCosts};
    use crate::threaded::{spawn_server, Frame, Shutdown};
    use net::cost::CostModel;
    use net::des::{Network, Transmit};
    use net::threaded::ThreadedNet;
    use sim_core::engine::Engine;

    /// Client-side sink recording every [`Reply`] with its arrival time
    /// (ns). Like a real client it drops anything that is not a `Reply`.
    #[derive(Default)]
    struct ReplySink {
        replies: Vec<(Reply, u64)>,
    }

    impl Actor for ReplySink {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if let Ok((_, d)) = ev.downcast::<Delivered>() {
                if let Ok(reply) = d.payload.downcast::<Reply>() {
                    self.replies.push((*reply, ctx.now().as_nanos()));
                }
            }
        }
    }

    /// One `PlainBackend` server (endpoint 1) facing a [`ReplySink`]
    /// (endpoint 0) over a slow test network.
    pub(super) struct Rig {
        pub eng: Engine,
        sink: usize,
        pub server: usize,
        net: usize,
    }

    impl Rig {
        pub fn new() -> Rig {
            let mut eng = Engine::new(5);
            let sink = eng.add_actor(Box::<ReplySink>::default());
            let mut net = Network::new(CostModel::slow_test());
            net.register(sink);
            let logic = ServerLogic::new(PlainBackend::new(4), ServerCosts::default());
            let unwired = StagingServerActor::new(0, logic, NetworkHandle { actor: 0 }, 0);
            let server = eng.add_actor(Box::new(unwired));
            let server_ep = net.register(server);
            let net = eng.add_actor(Box::new(net));
            let mut rig = Rig { eng, sink, server, net };
            rig.server_mut().wire(NetworkHandle { actor: net }, server_ep);
            rig
        }

        /// Hand `payload` to the network at `at`, client → server.
        pub fn transmit_at<T: Clone + Send + 'static>(
            &mut self,
            at: SimTime,
            size: u64,
            payload: T,
        ) {
            let msg = Transmit { from: 0, to: 1, size, payload: Box::new(payload) };
            self.eng.schedule_at(at, self.net, msg);
        }

        pub fn send_at(&mut self, at: SimTime, req: Request) {
            self.transmit_at(at, req.wire_bytes(), req);
        }

        pub fn replies(&self) -> &[(Reply, u64)] {
            &self.eng.actor_as::<ReplySink>(self.sink).unwrap().replies
        }

        pub fn server(&self) -> &StagingServerActor<PlainBackend> {
            self.eng.actor_as(self.server).unwrap()
        }

        fn server_mut(&mut self) -> &mut StagingServerActor<PlainBackend> {
            self.eng.actor_as_mut(self.server).unwrap()
        }
    }

    pub(super) fn put_req(version: Version) -> PutRequest {
        PutRequest {
            app: 0,
            desc: ObjDesc { var: 0, version, bbox: BBox::d1(0, 9) },
            payload: Payload::virtual_from(100, &[version as u64]),
            seq: version as u64,
            tctx: TraceCtx::NONE,
        }
    }

    fn router(dims: [u64; 3], block: [u64; 3], nservers: usize) -> Router {
        Router::unsharded(Distribution::new(BBox::whole(dims), block, nservers))
    }

    #[test]
    fn put_round_trip_via_des() {
        let reqs = plan_put_virtual_routed(
            &router([64, 64, 64], [32, 32, 32], 1),
            0,
            0,
            1,
            &BBox::whole([64, 64, 64]),
            8,
            0,
        );
        assert_eq!(reqs.len(), 8); // 2x2x2 blocks
        let mut rig = Rig::new();
        for (_, req) in reqs {
            rig.send_at(SimTime::ZERO, Request::Put(req));
        }
        rig.eng.run();

        let acks = rig.replies();
        assert_eq!(acks.len(), 8, "every block put must be acked");
        assert!(acks.iter().all(|(r, _)| matches!(r, Reply::Put(_))));
        // Responses arrive strictly ordered (single server CPU serializes).
        assert!(acks.windows(2).all(|w| w[0].1 < w[1].1));
        assert_eq!(rig.server().logic().puts_served(), 8);
        assert_eq!(rig.server().logic().bytes_resident(), 64u64 * 64 * 64 * 8);
    }

    #[test]
    fn plan_put_partitions_exactly() {
        let bbox = BBox::d3([0, 0, 0], [99, 99, 49]);
        let reqs = plan_put_virtual_routed(
            &router([100, 100, 100], [32, 32, 32], 4),
            0,
            1,
            7,
            &bbox,
            8,
            100,
        );
        let vol: u64 = reqs.iter().map(|(_, r)| r.desc.bbox.volume()).sum();
        assert_eq!(vol, bbox.volume());
        let bytes: u64 = reqs.iter().map(|(_, r)| r.payload.len()).sum();
        assert_eq!(bytes, bbox.volume() * 8);
        // Seqs are consecutive from seq_start, in plan order.
        let seqs: Vec<u64> = reqs.iter().map(|(_, r)| r.seq).collect();
        assert_eq!(seqs, (100..100 + reqs.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn plan_get_matches_put_servers() {
        let router = router([64, 64, 64], [16, 16, 16], 4);
        let bbox = BBox::d3([0, 0, 0], [63, 63, 63]);
        let puts = plan_put_virtual_routed(&router, 0, 0, 1, &bbox, 1, 0);
        let gets = plan_get_routed(&router, 1, 0, 1, &bbox, 0);
        assert_eq!(puts.len(), gets.len());
        for ((ps, pr), (gs, gr)) in puts.iter().zip(gets.iter()) {
            assert_eq!(ps, gs);
            assert_eq!(pr.desc.bbox, gr.bbox);
        }
    }

    #[test]
    fn covers_exactly_detects_gaps_and_overlaps() {
        let bbox = BBox::d1(0, 9);
        let piece = |lo, hi| GetPiece {
            bbox: BBox::d1(lo, hi),
            version: 1,
            payload: Payload::virtual_from(1, &[lo]),
        };
        assert!(covers_exactly(&bbox, &[piece(0, 4), piece(5, 9)]));
        assert!(!covers_exactly(&bbox, &[piece(0, 4)])); // gap
        assert!(!covers_exactly(&bbox, &[piece(0, 5), piece(5, 9)])); // overlap
        assert!(!covers_exactly(&BBox::d1(0, 3), &[piece(0, 4)])); // outside
    }

    #[test]
    fn plan_put_with_inline_content() {
        let bbox = BBox::whole([8, 8, 8]);
        let reqs = plan_put_with_routed(&router([8, 8, 8], [4, 4, 4], 2), 0, 0, 1, &bbox, 0, |b| {
            Payload::inline(vec![b.lb[0] as u8; 4])
        });
        assert_eq!(reqs.len(), 8);
        for (_, r) in &reqs {
            assert_eq!(r.payload.bytes().unwrap()[0] as u64, r.desc.bbox.lb[0]);
        }
    }

    /// Both transports only move messages: the same request sequence —
    /// fresh, re-delivered, every kind — gets the same replies from a
    /// `StagingServerActor` and from a `spawn_server` thread. (A get that is
    /// not ready is where they differ by design — parked vs. answered empty
    /// — so the script has none.)
    #[test]
    fn des_and_threaded_servers_answer_a_script_identically() {
        let get = |version, seq| {
            let bbox = BBox::d1(0, 9);
            Request::Get(GetRequest { app: 1, var: 0, version, bbox, seq, tctx: TraceCtx::NONE })
        };
        let ctl = |seq, req| Request::Ctl(CtlMsg { app: 0, seq, req, tctx: TraceCtx::NONE });
        let script = vec![
            Request::Put(put_req(1)),
            Request::Put(put_req(2)),
            Request::Put(put_req(1)), // re-delivered
            get(1, 0),
            get(2, 1),
            get(1, 0), // re-delivered
            ctl(10, CtlRequest::Checkpoint { app: 0, upto_version: 1 }),
            ctl(11, CtlRequest::GlobalReset { to_version: 1 }),
            ctl(11, CtlRequest::GlobalReset { to_version: 1 }), // re-delivered
            get(1, 2),
        ];

        // Spaced so each request finds an empty queue: the DES server tears
        // down what is queued behind a reset, the threaded one has no queue.
        let mut rig = Rig::new();
        for (i, req) in script.iter().enumerate() {
            rig.send_at(SimTime::from_millis(i as u64), req.clone());
        }
        rig.eng.run();
        let des: Vec<String> = rig.replies().iter().map(|(r, _)| format!("{r:?}")).collect();

        let mut eps = ThreadedNet::mesh(2);
        let client = eps.pop().unwrap();
        let logic = ServerLogic::new(PlainBackend::new(4), ServerCosts::default());
        let handle = spawn_server(eps.pop().unwrap(), logic);
        let size = script.iter().map(Request::wire_bytes).sum();
        assert!(client.send(0, size, Frame(script.clone())));
        let frame = client.recv().unwrap().payload.downcast::<Frame<Reply>>().unwrap();
        assert!(client.send_reliable(0, 0, Shutdown));
        let threaded_logic = handle.join().unwrap();
        let threaded: Vec<String> = frame.0.iter().map(|r| format!("{r:?}")).collect();

        assert_eq!(des.len(), script.len());
        assert_eq!(des, threaded);
        let seqs = |replies: &[Reply]| replies.iter().map(Reply::seq).collect::<Vec<_>>();
        assert_eq!(seqs(&frame.0), script.iter().map(Request::seq).collect::<Vec<_>>());
        let des_logic = rig.server().logic();
        for logic in [des_logic, &threaded_logic] {
            assert_eq!((logic.puts_served(), logic.gets_served(), logic.dup_hits()), (2, 3, 3));
            assert_eq!(logic.bytes_resident(), 100, "the reset dropped version 2, once");
        }
    }
}

#[cfg(test)]
mod failure_tests {
    use super::tests::{put_req, Rig};
    use super::*;
    use crate::proto::CtlMsg;

    fn put_at(rig: &mut Rig, at: SimTime, version: Version) {
        rig.send_at(at, Request::Put(put_req(version)));
    }

    fn ack_times(rig: &Rig) -> Vec<u64> {
        rig.replies().iter().map(|&(_, t)| t).collect()
    }

    #[test]
    fn requests_during_rebuild_are_served_after() {
        let mut rig = Rig::new();
        // Seed some data, then fail the server, then send a put mid-rebuild.
        put_at(&mut rig, SimTime::ZERO, 1);
        let fail = ServerFail { fixed: SimTime::from_millis(5), per_byte_s: 0.0 };
        rig.eng.schedule_at(SimTime::from_micros(10), rig.server, fail);
        put_at(&mut rig, SimTime::from_micros(20), 2);
        rig.eng.run();
        let acks = ack_times(&rig);
        assert_eq!(acks.len(), 2, "both puts eventually acked");
        // The second ack waits out the 5 ms rebuild.
        assert!(acks[1] >= 5_000_000, "ack at {} ns", acks[1]);
        assert_eq!(rig.server().rebuilds(), 1);
        assert_eq!(rig.server().logic().puts_served(), 2);
        assert_eq!(rig.eng.metrics().counter("staging.server_failures"), 1);
    }

    #[test]
    fn in_flight_op_acked_after_rebuild() {
        let mut rig = Rig::new();
        // Put arrives at ~1.3 µs and is in service until ~3.3 µs; fail the
        // server at 2 µs — mid-service. The ack must still arrive, after the
        // rebuild.
        put_at(&mut rig, SimTime::ZERO, 1);
        let fail = ServerFail { fixed: SimTime::from_millis(2), per_byte_s: 0.0 };
        rig.eng.schedule_at(SimTime::from_micros(2), rig.server, fail);
        rig.eng.run();
        let acks = ack_times(&rig);
        assert_eq!(acks.len(), 1, "the interrupted op is acked late, not lost");
        assert!(acks[0] >= 2_000_000);
    }

    /// The first-write rule holds per gauge: none exists before the server
    /// is asked anything, and a request that only queues registers the
    /// queue depth alone — the rest appear when it is served.
    #[test]
    fn each_gauge_registers_at_its_own_first_write() {
        let gauges = |rig: &Rig| -> Vec<String> {
            rig.eng.metrics().gauges().map(|(name, _)| name.to_owned()).collect()
        };
        let mut rig = Rig::new();
        let fail = ServerFail { fixed: SimTime::from_millis(3), per_byte_s: 0.0 };
        rig.eng.schedule_at(SimTime::ZERO, rig.server, fail);
        rig.eng.run_until(SimTime::from_micros(5));
        assert!(gauges(&rig).is_empty(), "a server that was asked nothing registers nothing");
        put_at(&mut rig, SimTime::from_micros(10), 1);
        rig.eng.run_until(SimTime::from_millis(1));
        assert_eq!(gauges(&rig), ["staging.server0.qdepth"], "queued behind the rebuild");
        assert_eq!(rig.eng.metrics().gauge("staging.server0.qdepth").value, 1);
        rig.eng.run();
        let all =
            ["bytes", "get_waits", "log_events", "qdepth"].map(|g| format!("staging.server0.{g}"));
        assert_eq!(gauges(&rig), all);
        assert_eq!(rig.eng.metrics().gauge("staging.server0.bytes").value, 100);
    }

    #[test]
    fn duplicate_ctl_envelope_answered_from_cache() {
        let mut rig = Rig::new();
        let msg = CtlMsg {
            app: 0,
            seq: 7,
            req: CtlRequest::Checkpoint { app: 0, upto_version: 3 },
            tctx: TraceCtx::NONE,
        };
        for _ in 0..2 {
            rig.send_at(SimTime::ZERO, Request::Ctl(msg));
        }
        rig.eng.run();
        assert_eq!(rig.replies().len(), 2, "every envelope is acked, duplicate or not");
        assert_eq!(rig.server().logic().dup_hits(), 1, "second envelope served from the cache");
    }

    #[test]
    fn rebuild_time_scales_with_resident_bytes() {
        let mut rig = Rig::new();
        for v in 1..=4u32 {
            put_at(&mut rig, SimTime::from_nanos(v as u64), v);
        }
        rig.eng.run();
        // 4 versions × 100 B resident (max_versions = 4).
        rig.eng.schedule_now(rig.server, ServerFail { fixed: SimTime::ZERO, per_byte_s: 0.001 });
        rig.eng.run();
        let rebuild = rig.eng.metrics().stream("staging.rebuild_s");
        assert_eq!(rebuild.count(), 1);
        assert!((rebuild.mean() - 0.4).abs() < 1e-9, "400 B × 1 ms/B = 0.4 s");
    }

    /// A payload that is no [`Request`] — here a bare `PutRequest`, the
    /// pre-envelope wire type — is dropped without a reply or a panic, and
    /// the next request is still served.
    #[test]
    fn foreign_payload_is_dropped_and_the_next_request_served() {
        let mut rig = Rig::new();
        rig.transmit_at(SimTime::ZERO, 164, put_req(1));
        rig.transmit_at(SimTime::from_micros(1), 64, String::from("not a request"));
        put_at(&mut rig, SimTime::from_micros(2), 2);
        rig.eng.run();
        let replies = rig.replies();
        assert_eq!(replies.len(), 1);
        assert!(matches!(&replies[0].0, Reply::Put(ack) if ack.seq == 2));
        assert_eq!(rig.server().logic().puts_served(), 1);
    }
}
