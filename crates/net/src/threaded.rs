//! Real-thread transport: a fully-connected mesh of crossbeam channels.
//!
//! This transport runs the same staging/logging protocol code as the DES
//! transport but with genuine OS-thread concurrency, so the examples and the
//! race-condition tests exercise real interleavings. No time modeling is done
//! here — wall-clock behaviour is whatever the machine provides.
//!
//! Each endpoint's queue is one `crossbeam::channel` (the offline stand-in
//! under `vendor/crossbeam`). What a hand-off costs is that channel's
//! blocking protocol: a receiver that finds its queue empty yields its core
//! once and looks again before it parks, and a send wakes the receiver only
//! if it is parked. A request and its reply between threads that share a
//! core therefore usually cost two yields, not two sleeps and two wake-ups.

// detlint: skip-file — real-thread transport: blocking channel receives and
// wall-clock timeouts are its nature; determinism is only required of the DES
// path. Structural rules (lock-order, commit-point-order) still apply.

pub use crossbeam::channel::RecvTimeoutError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use faultplane::{FaultDecision, FaultInjector, FaultPlan, FaultReport};
use parking_lot::Mutex;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A message received from the mesh.
pub struct NetMsg {
    /// Sending endpoint index.
    pub from: usize,
    /// Declared size in bytes (for accounting parity with the DES transport).
    pub size: u64,
    /// Mesh-unique message id, stamped at send time. Feeds happens-before
    /// analysis (a [`MeshProbe`] pairs the send and receive of one id).
    pub mid: u64,
    /// Opaque payload.
    pub payload: Box<dyn Any + Send>,
}

/// Observation hook for happens-before analysis over the threaded mesh.
///
/// `on_send` fires on the sending thread just before the message is enqueued;
/// `on_recv` fires on the receiving thread just after it is dequeued. The
/// `mid` pairs the two ends of one message, so a vector-clock tracker (see
/// `mcheck::HbTracker`) can build the message edges of the happens-before
/// relation and flag concurrent accesses that a schedule-explorer should
/// chase. Implementations must be cheap and non-blocking — they run on the
/// hot path of every send and receive.
pub trait MeshProbe: Send + Sync {
    /// Endpoint `from` hands message `mid` to endpoint `to`'s queue.
    fn on_send(&self, from: usize, to: usize, mid: u64);
    /// Endpoint `at` dequeues message `mid`.
    fn on_recv(&self, at: usize, mid: u64);
}

/// Shared counters for the whole mesh.
#[derive(Debug, Default)]
pub struct MeshStats {
    msgs: AtomicU64,
    bytes: AtomicU64,
    next_mid: AtomicU64,
}

impl MeshStats {
    /// Messages sent through the mesh so far.
    pub fn msgs(&self) -> u64 {
        self.msgs.load(Ordering::Relaxed)
    }

    /// Bytes (declared sizes) sent through the mesh so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// One endpoint of the mesh: can send to any peer and receive its own queue.
pub struct ThreadEndpoint {
    id: usize,
    peers: Vec<Sender<NetMsg>>,
    rx: Receiver<NetMsg>,
    stats: Arc<MeshStats>,
    /// Shared fault injector (None on a clean mesh).
    faults: Option<Arc<FaultInjector>>,
    /// Hold-back slot for reorder faults: the stashed message is released
    /// after the *next* send from this endpoint, so later traffic overtakes
    /// it. Flushed on drop so nothing is lost at teardown.
    holdback: Mutex<Option<(usize, NetMsg)>>,
    /// Optional happens-before observation hook.
    probe: Option<Arc<dyn MeshProbe>>,
}

impl ThreadEndpoint {
    /// This endpoint's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Send `payload` (declared `size` bytes) to endpoint `to`.
    ///
    /// Returns `false` if the destination endpoint has been dropped — the
    /// threaded analogue of a dead RDMA peer. On a faulty mesh the message
    /// may be dropped, duplicated, or held back according to the plan; a
    /// faulted-away message still returns `true` (the sender cannot tell).
    pub fn send<T: Any + Send + Clone>(&self, to: usize, size: u64, payload: T) -> bool {
        let Some(inj) = &self.faults else {
            return self.raw_send(to, size, Box::new(payload));
        };
        match inj.next_decision() {
            FaultDecision::Drop => {
                self.flush_holdback();
                true
            }
            FaultDecision::Duplicate { .. } => {
                let a = self.raw_send(to, size, Box::new(payload.clone()));
                let b = self.raw_send(to, size, Box::new(payload));
                self.flush_holdback();
                a && b
            }
            FaultDecision::Reorder { .. } => {
                // mid 0 is a placeholder: the real id is stamped by
                // `raw_send` when the held message is actually enqueued.
                let prev = self.holdback.lock().replace((
                    to,
                    NetMsg { from: self.id, size, mid: 0, payload: Box::new(payload) },
                ));
                if let Some((pto, pmsg)) = prev {
                    self.raw_send(pto, pmsg.size, pmsg.payload);
                }
                true
            }
            // No timer wheel here: a delay decision counts in the report but
            // delivers immediately (the OS scheduler supplies real jitter).
            FaultDecision::Deliver | FaultDecision::Delay { .. } => {
                let ok = self.raw_send(to, size, Box::new(payload));
                self.flush_holdback();
                ok
            }
        }
    }

    /// Send bypassing fault injection (control-plane traffic such as server
    /// shutdown that must not be lost). Flushes any held-back message first.
    pub fn send_reliable<T: Any + Send>(&self, to: usize, size: u64, payload: T) -> bool {
        let ok = self.raw_send(to, size, Box::new(payload));
        self.flush_holdback();
        ok
    }

    fn raw_send(&self, to: usize, size: u64, payload: Box<dyn Any + Send>) -> bool {
        self.stats.msgs.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(size, Ordering::Relaxed);
        let mid = self.stats.next_mid.fetch_add(1, Ordering::Relaxed) + 1;
        // Probe before the enqueue so the send observation cannot race the
        // receiver's dequeue observation of the same mid.
        if let Some(p) = &self.probe {
            p.on_send(self.id, to, mid);
        }
        self.peers[to].send(NetMsg { from: self.id, size, mid, payload }).is_ok()
    }

    fn flush_holdback(&self) {
        if let Some((to, msg)) = self.holdback.lock().take() {
            self.raw_send(to, msg.size, msg.payload);
        }
    }

    /// Tally of injected faults, if this mesh was built with a plan.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.faults.as_ref().map(|f| f.report())
    }

    /// Block until a message arrives.
    ///
    /// Returns `None` when every sender has been dropped (mesh shutdown).
    pub fn recv(&self) -> Option<NetMsg> {
        let m = self.rx.recv().ok()?;
        self.observe_recv(&m);
        Some(m)
    }

    /// Block until a message arrives or `timeout` passes.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<NetMsg, RecvTimeoutError> {
        let m = self.rx.recv_timeout(timeout)?;
        self.observe_recv(&m);
        Ok(m)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<NetMsg> {
        let m = self.rx.try_recv().ok()?;
        self.observe_recv(&m);
        Some(m)
    }

    fn observe_recv(&self, m: &NetMsg) {
        if let Some(p) = &self.probe {
            p.on_recv(self.id, m.mid);
        }
    }

    /// Shared mesh statistics.
    pub fn stats(&self) -> &Arc<MeshStats> {
        &self.stats
    }
}

/// Builder for a fully-connected mesh of `n` endpoints.
pub struct ThreadedNet;

impl Drop for ThreadEndpoint {
    fn drop(&mut self) {
        // A held-back (reordered) message must not be silently lost when the
        // endpoint retires: release it so liveness holds at teardown.
        self.flush_holdback();
    }
}

impl ThreadedNet {
    /// Create `n` endpoints wired all-to-all (including self-loops, which are
    /// occasionally convenient for uniform code paths).
    pub fn mesh(n: usize) -> Vec<ThreadEndpoint> {
        Self::build(n, None, None)
    }

    /// Create `n` endpoints sharing one deterministic fault injector driven
    /// by `plan`. The per-message decision stream is seed-deterministic; the
    /// assignment of stream indices to messages follows real send order.
    pub fn mesh_with_faults(n: usize, plan: FaultPlan) -> Vec<ThreadEndpoint> {
        Self::build(n, Some(Arc::new(FaultInjector::new(plan))), None)
    }

    /// Create `n` endpoints sharing a happens-before observation probe; every
    /// send and receive on the mesh is reported to `probe` with a
    /// mesh-unique message id.
    pub fn mesh_with_probe(n: usize, probe: Arc<dyn MeshProbe>) -> Vec<ThreadEndpoint> {
        Self::build(n, None, Some(probe))
    }

    fn build(
        n: usize,
        faults: Option<Arc<FaultInjector>>,
        probe: Option<Arc<dyn MeshProbe>>,
    ) -> Vec<ThreadEndpoint> {
        let stats = Arc::new(MeshStats::default());
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(id, rx)| ThreadEndpoint {
                id,
                peers: senders.clone(),
                rx,
                stats: Arc::clone(&stats),
                faults: faults.clone(),
                holdback: Mutex::new(None),
                probe: probe.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point() {
        let mut eps = ThreadedNet::mesh(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert!(a.send(1, 8, 42u64));
        let m = b.recv().unwrap();
        assert_eq!(m.from, 0);
        assert_eq!(m.size, 8);
        assert_eq!(*m.payload.downcast::<u64>().unwrap(), 42);
    }

    #[test]
    fn self_loop_works() {
        let eps = ThreadedNet::mesh(1);
        let a = &eps[0];
        assert!(a.send(0, 1, "hi"));
        let m = a.recv().unwrap();
        assert_eq!(*m.payload.downcast::<&str>().unwrap(), "hi");
    }

    #[test]
    fn cross_thread_traffic() {
        let mut eps = ThreadedNet::mesh(3);
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let t1 = thread::spawn(move || {
            for i in 0..100u32 {
                a.send(2, 4, i);
            }
        });
        let t2 = thread::spawn(move || {
            for i in 100..200u32 {
                b.send(2, 4, i);
            }
        });
        let mut got = Vec::new();
        for _ in 0..200 {
            let m = c.recv().unwrap();
            got.push(*m.payload.downcast::<u32>().unwrap());
        }
        t1.join().unwrap();
        t2.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..200).collect::<Vec<_>>());
        assert_eq!(c.stats().msgs(), 200);
        assert_eq!(c.stats().bytes(), 800);
    }

    #[test]
    fn fan_out_and_gather_loses_and_repeats_nothing() {
        // A client asks two echo endpoints at once and gathers both replies
        // with `recv_timeout`, as a sharded put does; each hand-off can meet
        // its receiver looking, yielding or parked.
        const ROUNDS: u64 = 10_000;
        const STOP: u64 = u64::MAX;
        let mut eps = ThreadedNet::mesh(3);
        let echoes: Vec<_> = eps
            .drain(1..)
            .map(|ep| {
                thread::spawn(move || loop {
                    let m = ep.recv().expect("the client holds a sender");
                    let v = *m.payload.downcast::<u64>().unwrap();
                    if v == STOP {
                        return;
                    }
                    assert!(ep.send(m.from, 8, v));
                })
            })
            .collect();
        let client = eps.pop().unwrap();
        for round in 0..ROUNDS {
            let asks = [(1, 2 * round), (2, 2 * round + 1)];
            for (to, v) in asks {
                assert!(client.send(to, 8, v));
            }
            let mut got = Vec::with_capacity(2);
            for _ in 0..2 {
                let m = client.recv_timeout(Duration::from_secs(20)).expect("no reply lost");
                got.push((m.from, *m.payload.downcast::<u64>().unwrap()));
            }
            got.sort_unstable();
            assert_eq!(got, asks, "round {round}: each reply exactly once");
        }
        assert!(client.try_recv().is_none(), "no reply repeated");
        for to in 1..3 {
            assert!(client.send(to, 8, STOP));
        }
        for t in echoes {
            t.join().unwrap();
        }
        assert_eq!(client.stats().msgs(), 4 * ROUNDS + 2);
        assert_eq!(client.stats().bytes(), 8 * (4 * ROUNDS + 2));
    }

    #[test]
    fn dropped_endpoint_reports_send_failure() {
        let mut eps = ThreadedNet::mesh(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        drop(b);
        // a still holds a sender to b's (dropped) receiver.
        assert!(!a.send(1, 1, ()));
    }

    #[test]
    fn try_recv_empty_is_none() {
        let eps = ThreadedNet::mesh(1);
        assert!(eps[0].try_recv().is_none());
    }

    #[test]
    fn recv_timeout_times_out() {
        let eps = ThreadedNet::mesh(1);
        let r = eps[0].recv_timeout(Duration::from_millis(10));
        assert!(matches!(r, Err(RecvTimeoutError::Timeout)));
    }

    fn plan(seed: u64, drop: f64, duplicate: f64, reorder: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: faultplane::FaultRates {
                drop,
                duplicate,
                reorder,
                delay: 0.0,
                max_extra_delay_ns: 1_000,
                torn_ckpt: 0.0,
            },
            windows: Vec::new(),
        }
    }

    #[test]
    fn faulty_mesh_drops_messages() {
        let mut eps = ThreadedNet::mesh_with_faults(2, plan(1, 1.0, 0.0, 0.0));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert!(a.send(1, 4, 7u32), "dropped sends still report success");
        assert!(b.try_recv().is_none());
        assert_eq!(a.fault_report().unwrap().dropped, 1);
    }

    #[test]
    fn faulty_mesh_duplicates_messages() {
        let mut eps = ThreadedNet::mesh_with_faults(2, plan(2, 0.0, 1.0, 0.0));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert!(a.send(1, 4, 7u32));
        assert_eq!(*b.recv().unwrap().payload.downcast::<u32>().unwrap(), 7);
        assert_eq!(*b.recv().unwrap().payload.downcast::<u32>().unwrap(), 7);
        assert_eq!(a.fault_report().unwrap().duplicated, 1);
    }

    #[test]
    fn reorder_holds_message_past_next_send() {
        // First message always reordered (held), second delivered, which
        // releases the first: receive order is 2 then 1.
        let mut eps = ThreadedNet::mesh_with_faults(2, plan(3, 0.0, 0.0, 1.0));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert!(a.send(1, 4, 1u32));
        assert!(b.try_recv().is_none(), "first message held back");
        // Bypass injection for the second send so it cannot also be held.
        assert!(a.send_reliable(1, 4, 2u32));
        let first = *b.recv().unwrap().payload.downcast::<u32>().unwrap();
        let second = *b.recv().unwrap().payload.downcast::<u32>().unwrap();
        assert_eq!((first, second), (2, 1), "later traffic overtook the held message");
    }

    #[test]
    fn dropping_endpoint_flushes_holdback() {
        let mut eps = ThreadedNet::mesh_with_faults(2, plan(4, 0.0, 0.0, 1.0));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert!(a.send(1, 4, 42u32));
        assert!(b.try_recv().is_none());
        drop(a);
        assert_eq!(*b.recv().unwrap().payload.downcast::<u32>().unwrap(), 42);
    }

    #[test]
    fn probe_observes_paired_send_and_recv() {
        #[derive(Default)]
        struct Log {
            events: Mutex<Vec<(&'static str, usize, u64)>>,
        }
        impl MeshProbe for Log {
            fn on_send(&self, from: usize, _to: usize, mid: u64) {
                self.events.lock().push(("send", from, mid));
            }
            fn on_recv(&self, at: usize, mid: u64) {
                self.events.lock().push(("recv", at, mid));
            }
        }
        let probe = Arc::new(Log::default());
        let mut eps = ThreadedNet::mesh_with_probe(2, probe.clone());
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert!(a.send(1, 4, 7u32));
        assert!(a.send(1, 4, 8u32));
        let m1 = b.recv().unwrap();
        let m2 = b.recv().unwrap();
        assert_ne!(m1.mid, m2.mid, "mids are mesh-unique");
        let ev = probe.events.lock().clone();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0], ("send", 0, m1.mid));
        assert_eq!(ev[1], ("send", 0, m2.mid));
        assert_eq!(ev[2], ("recv", 1, m1.mid));
        assert_eq!(ev[3], ("recv", 1, m2.mid));
    }

    #[test]
    fn send_reliable_bypasses_faults() {
        let mut eps = ThreadedNet::mesh_with_faults(2, plan(5, 1.0, 0.0, 0.0));
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        assert!(a.send_reliable(1, 4, 9u32));
        assert_eq!(*b.recv().unwrap().payload.downcast::<u32>().unwrap(), 9);
    }
}
