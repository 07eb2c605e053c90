//! The staging fleet under test: two `ServerLogic<LoggingBackend>` threads on
//! a `ThreadedNet` mesh, routed by a two-shard range map, driven by two
//! `SyncClient`s (producer = app 0, consumer = app 1) that live on the one
//! driver thread. Journalling fleets write through `LogStore` to `FsMedia`
//! (durable) or `MemMedia` (the same path with no device under it); traced
//! fleets have the `Timed*` decorators on every seam.

use crate::span::{Recorder, Span};
use crate::spec::{Journals, Shape, COALESCE, NSERVERS, SEGMENT_BYTES};
use crate::timed::{
    Meter, MeteredMedia, SharedMeter, SharedRecorder, TimedBackend, TimedJournal, TimedMedia,
};
use faultplane::RetryPolicy;
use logstore::{FlushPolicy, FsMedia, Journal, LogConfig, LogStore, Media, MemMedia};
use net::threaded::{MeshStats, ThreadEndpoint, ThreadedNet};
use shardmap::{MapHistory, ShardMap};
use staging::dist::Distribution;
use staging::geometry::BBox;
use staging::proto::AppId;
use staging::router::Router;
use staging::service::{ServerCosts, ServerLogic, StoreBackend};
use staging::threaded::{spawn_server, SyncClient};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wfcr::backend::LoggingBackend;

pub const PRODUCER: AppId = 0;
pub const CONSUMER: AppId = 1;

/// What one server hands back when its thread is joined.
#[derive(Debug, Default, Clone)]
pub struct ServerReport {
    pub digest_mismatches: u64,
    pub journal_errors: u64,
    pub puts: u64,
    pub gets: u64,
    pub absorbed_puts: u64,
    pub replayed_gets: u64,
    pub dup_hits: u64,
    pub journal_records: u64,
    pub journal_group_commits: u64,
    pub journal_bytes_flushed: u64,
    pub journal_segments_compacted: u64,
    pub resident_peak: u64,
    pub live_events_peak: u64,
}

/// The backend a server runs, plain or decorated.
trait Seam: StoreBackend {
    fn logging(&mut self) -> &mut LoggingBackend;
    fn peaks(&self) -> (u64, u64);
}

impl Seam for LoggingBackend {
    fn logging(&mut self) -> &mut LoggingBackend {
        self
    }

    fn peaks(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Seam for TimedBackend<LoggingBackend> {
    fn logging(&mut self) -> &mut LoggingBackend {
        self.inner_mut()
    }

    fn peaks(&self) -> (u64, u64) {
        (self.resident_peak(), self.live_events_peak())
    }
}

/// Joins one server; `true` flushes its journal first (graceful stop), `false`
/// drops it with whatever it had buffered (crash).
type Joiner = Box<dyn FnOnce(bool) -> ServerReport>;

fn launch<B: Seam>(endpoint: ThreadEndpoint, backend: B) -> Joiner {
    let handle = spawn_server(endpoint, ServerLogic::new(backend, ServerCosts::default()));
    Box::new(move |flush| {
        let mut logic = handle.join().expect("server thread panicked");
        let (puts, gets, dup_hits) = (logic.puts_served(), logic.gets_served(), logic.dup_hits());
        let (resident_peak, live_events_peak) = logic.backend().peaks();
        let b = logic.backend_mut().logging();
        if flush {
            b.flush_journal();
        }
        ServerReport {
            digest_mismatches: b.digest_mismatches(),
            journal_errors: b.journal_errors(),
            puts,
            gets,
            absorbed_puts: b.absorbed_puts(),
            replayed_gets: b.replayed_gets(),
            dup_hits,
            journal_records: b.journal_records_batched(),
            journal_group_commits: b.journal_group_commits(),
            journal_bytes_flushed: b.journal_bytes_flushed(),
            journal_segments_compacted: b.journal_segments_compacted(),
            resident_peak,
            live_events_peak,
        }
        // `logic` drops here: a `LogStore` never flushes on drop.
    })
}

/// What one server's journal is kept on; outlives the server.
enum Backing {
    Fs(PathBuf),
    /// Clones share the one file map.
    Mem(MemMedia),
}

/// Everything about a fleet that outlives one incarnation of it.
pub struct FleetPlan {
    shape: Shape,
    /// One per server (empty for fleets without a journal).
    backings: Vec<Backing>,
    meters: Vec<SharedMeter>,
    /// `Some` in traced rounds: one recorder per server thread.
    recorders: Option<Vec<SharedRecorder>>,
}

impl FleetPlan {
    pub fn new(shape: Shape, round_dir: &Path, trace_epoch: Option<Instant>) -> FleetPlan {
        let backing = |i: usize| match shape.journals {
            Journals::None => None,
            Journals::Mem => Some(Backing::Mem(MemMedia::new())),
            Journals::Fs => Some(Backing::Fs(round_dir.join(format!("s{i}")))),
        };
        FleetPlan {
            shape,
            backings: (0..NSERVERS).filter_map(backing).collect(),
            meters: (0..NSERVERS).map(|_| SharedMeter::default()).collect(),
            recorders: trace_epoch.map(|epoch| {
                (0..NSERVERS).map(|_| Arc::new(Mutex::new(Recorder::new(epoch)))).collect()
            }),
        }
    }

    pub fn whole(&self) -> BBox {
        BBox::whole([self.shape.domain; 3])
    }

    /// `media` under the meter every journal has and, traced, the span recorder.
    fn decorated(&self, server: usize, media: impl Media + 'static) -> Box<dyn Media> {
        let metered = MeteredMedia::new(media, Arc::clone(&self.meters[server]));
        match &self.recorders {
            Some(recs) => Box::new(TimedMedia::new(metered, Arc::clone(&recs[server]))),
            None => Box::new(metered),
        }
    }

    fn open_log(&self, server: usize) -> io::Result<LogStore> {
        let media = match &self.backings[server] {
            Backing::Fs(dir) => self.decorated(server, FsMedia::new(dir)?),
            Backing::Mem(mem) => self.decorated(server, mem.clone()),
        };
        let cfg = LogConfig {
            segment_bytes: SEGMENT_BYTES,
            flush: FlushPolicy::Grouped { records: COALESCE },
        };
        LogStore::open(media, cfg)
    }

    fn attach(&self, server: usize, backend: &mut LoggingBackend, log: LogStore) {
        let sink: Box<dyn Journal> = match &self.recorders {
            Some(recs) => Box::new(TimedJournal::new(log, Arc::clone(&recs[server]))),
            None => Box::new(log),
        };
        backend.attach_journal_coalesced(sink, COALESCE);
    }

    /// Cut the power on every journal; returns bytes lost.
    pub fn crash_media(&self) -> io::Result<u64> {
        let mut lost = 0;
        for (backing, meter) in self.backings.iter().zip(&self.meters) {
            let mut meter = meter.lock().expect("meter lock");
            lost += match backing {
                Backing::Fs(dir) => meter.crash(&mut FsMedia::new(dir)?)?,
                Backing::Mem(mem) => meter.crash(&mut mem.clone())?,
            };
        }
        Ok(lost)
    }

    pub fn meter_totals(&self) -> Meter {
        let mut total = Meter::default();
        for m in &self.meters {
            let m = m.lock().expect("meter lock");
            total.writes += m.writes;
            total.syncs += m.syncs;
            total.bytes_written += m.bytes_written;
            total.peak_live += m.peak_live;
        }
        total
    }

    /// Drain every server recorder (call only while the servers are idle).
    pub fn take_server_spans(&self) -> Vec<Vec<Span>> {
        self.recorders.iter().flatten().map(|r| r.lock().expect("recorder lock").take()).collect()
    }
}

/// The fleet's routing: the domain cut into blocks, blocks range-partitioned
/// over the shards along the space-filling curve.
pub fn router(shape: &Shape) -> Router {
    let dist = Distribution::new(BBox::whole([shape.domain; 3]), [shape.block; 3], NSERVERS);
    let map = ShardMap::range_over(dist.codes(), NSERVERS);
    Router::sharded(dist, MapHistory::single(map))
}

/// Wall time of the three phases of a cold restart, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColdPhases {
    /// `LogStore::open` recovery scan plus `read_all`.
    pub scan_ms: f64,
    /// `decode_records` plus `LoggingBackend::from_journal`.
    pub rebuild_ms: f64,
    /// Journal re-attach, mesh, thread spawn, clients.
    pub respawn_ms: f64,
}

/// One running incarnation of the fleet.
pub struct Fleet {
    pub producer: SyncClient,
    pub consumer: SyncClient,
    joiners: Vec<Joiner>,
    stats: Arc<MeshStats>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Fleet {
    /// A fleet with empty backends (and, where it journals, empty journals).
    pub fn fresh(plan: &FleetPlan) -> io::Result<Fleet> {
        let mut backends = Vec::with_capacity(NSERVERS);
        for server in 0..NSERVERS {
            let mut b = LoggingBackend::new();
            b.register_app(PRODUCER);
            b.register_app(CONSUMER);
            if plan.shape.journals != Journals::None {
                let log = plan.open_log(server)?;
                plan.attach(server, &mut b, log);
            }
            backends.push(b);
        }
        Ok(Fleet::spawn(plan, backends))
    }

    /// Rebuild every server from what its journal directory holds.
    pub fn cold(plan: &FleetPlan) -> io::Result<(Fleet, ColdPhases)> {
        let mut phases = ColdPhases::default();
        let mut backends = Vec::with_capacity(NSERVERS);
        let mut logs = Vec::with_capacity(NSERVERS);
        for server in 0..NSERVERS {
            let t = Instant::now();
            let log = plan.open_log(server)?;
            let records = log.read_all()?;
            phases.scan_ms += ms_since(t);
            let t = Instant::now();
            let entries = wfcr::journal::decode_records(&records);
            backends.push(LoggingBackend::from_journal(entries, &[PRODUCER, CONSUMER]));
            phases.rebuild_ms += ms_since(t);
            logs.push(log);
        }
        let t = Instant::now();
        for (server, (b, log)) in backends.iter_mut().zip(logs).enumerate() {
            plan.attach(server, b, log);
        }
        let fleet = Fleet::spawn(plan, backends);
        phases.respawn_ms = ms_since(t);
        Ok((fleet, phases))
    }

    fn spawn(plan: &FleetPlan, backends: Vec<LoggingBackend>) -> Fleet {
        let router = router(&plan.shape);
        let mut eps = ThreadedNet::mesh(NSERVERS + 2);
        let stats = Arc::clone(eps[0].stats());
        let mut client_eps = eps.split_off(NSERVERS);
        let joiners = eps
            .into_iter()
            .zip(backends)
            .enumerate()
            .map(|(i, (ep, b))| match &plan.recorders {
                Some(recs) => launch(ep, TimedBackend::new(b, Arc::clone(&recs[i]))),
                None => launch(ep, b),
            })
            .collect();
        // No request is ever lost on this mesh, so a retry could only be a
        // spurious one fired by a slow fsync; it would make message and
        // dedup counts differ from run to run. The first window is long
        // enough that none fires.
        let patient = RetryPolicy {
            max_attempts: 4,
            base_ns: 20_000_000_000,
            cap_ns: 20_000_000_000,
            deadline_ns: 0,
            seed: 0,
        };
        let servers: Vec<usize> = (0..NSERVERS).collect();
        let consumer_ep = client_eps.pop().expect("consumer endpoint");
        let producer_ep = client_eps.pop().expect("producer endpoint");
        let producer =
            SyncClient::new_routed(producer_ep, router.clone(), servers.clone(), PRODUCER)
                .with_retry(patient);
        let consumer =
            SyncClient::new_routed(consumer_ep, router, servers, CONSUMER).with_retry(patient);
        Fleet { producer, consumer, joiners, stats }
    }

    /// Stop the servers; returns their reports and the messages and declared
    /// bytes this incarnation's mesh carried. `flush = false` drops the
    /// journals with their buffered tail, as a killed process would.
    pub fn stop(self, flush: bool) -> (Vec<ServerReport>, u64, u64) {
        self.consumer.shutdown_servers();
        let reports = self.joiners.into_iter().map(|join| join(flush)).collect();
        (reports, self.stats.msgs(), self.stats.bytes())
    }
}
