//! Cold restart from disk: full staging process death and reconstruction.
//!
//! The DES runner simulates component failures while the staging area keeps
//! running; this module drives the complementary scenario the persistence
//! layer exists for — *every* process dies (servers, clients, checkpoint
//! directory) and the workflow is rebuilt purely from the durable media:
//!
//! 1. Each staging server's `wfcr` journal is scanned (`LogStore::open`
//!    truncates any torn tail), decoded, and replayed through
//!    [`wfcr::LoggingBackend::from_journal`] — store, event queues, GC marks
//!    and `W_Chk_ID` allocation all resume where the durable prefix ended.
//! 2. The checkpoint directory reloads from its own log via
//!    [`ckpt::durable::open`] without re-sealing (torn snapshots stay
//!    detectable).
//! 3. Fresh clients call `workflow_restart()` exactly as after an ordinary
//!    component failure, and the run resumes. Anything buffered past the
//!    last commit point was lost with the crash — and is re-executed
//!    deterministically, so final observations are byte-identical to an
//!    uninterrupted run.
//!
//! The harness runs real threads ([`staging::threaded`]) so the "kill" is a
//! genuine teardown of server threads, not a simulated event.

use ckpt::CheckpointStore;
use logstore::{FsMedia, LogConfig, LogStore, Media, MemMedia};
use parking_lot::Mutex;
use staging::dist::Distribution;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::AppId;
use staging::service::{ServerCosts, ServerLogic, StoreBackend};
use staging::threaded::{spawn_server, SyncClient};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use wfcr::backend::{pieces_digest, LoggingBackend};
use wfcr::iface::WorkflowClient;

const SIM: AppId = 0;
const ANA: AppId = 1;
const DOMAIN: [u64; 3] = [16, 16, 16];
const BLOCK: [u64; 3] = [8, 8, 8];

/// Shape of a cold-restart experiment.
#[derive(Debug, Clone)]
pub struct ColdStartPlan {
    /// Staging server (thread) count.
    pub nservers: usize,
    /// Coupling steps in the full run.
    pub steps: u32,
    /// The whole workflow is killed right after this step completes.
    pub kill_after: u32,
    /// Both components checkpoint every this many steps.
    pub ckpt_period: u32,
    /// Journal/checkpoint log configuration (segment size, flush policy).
    pub log: LogConfig,
    /// Checkpoint retention per component.
    pub retention: usize,
}

impl Default for ColdStartPlan {
    fn default() -> Self {
        ColdStartPlan {
            nservers: 2,
            steps: 12,
            kill_after: 6,
            ckpt_period: 4,
            log: LogConfig::default(),
            retention: 3,
        }
    }
}

impl ColdStartPlan {
    fn validate(&self) {
        assert!(self.nservers >= 1);
        assert!(self.ckpt_period >= 1);
        assert!(
            self.kill_after >= self.ckpt_period && self.kill_after <= self.steps,
            "the kill must land after at least one checkpoint and inside the run"
        );
    }
}

/// Where the durable state lives; the provider outlives the "process death"
/// and is all the restart gets to see.
pub trait MediaProvider {
    /// Journal media for staging server `server`.
    fn journal_media(&self, server: usize) -> io::Result<Box<dyn Media>>;
    /// Media for the checkpoint directory's durable tier.
    fn ckpt_media(&self) -> io::Result<Box<dyn Media>>;
    /// Apply crash semantics at process death (drop unsynced bytes for
    /// in-memory media; a no-op for real files, where the page cache is
    /// assumed written back by `fsync` and survival of synced data is the
    /// contract under test).
    fn crash(&self);
}

/// Hermetic in-memory media with faithful fsync semantics: everything not
/// synced at kill time is gone.
#[derive(Debug)]
pub struct MemProvider {
    servers: Vec<MemMedia>,
    ckpt: MemMedia,
}

impl MemProvider {
    /// One independent medium per server plus one for checkpoints.
    pub fn new(nservers: usize) -> Self {
        MemProvider {
            servers: (0..nservers).map(|_| MemMedia::new()).collect(),
            ckpt: MemMedia::new(),
        }
    }
}

impl MediaProvider for MemProvider {
    fn journal_media(&self, server: usize) -> io::Result<Box<dyn Media>> {
        Ok(Box::new(self.servers[server].clone()))
    }

    fn ckpt_media(&self) -> io::Result<Box<dyn Media>> {
        Ok(Box::new(self.ckpt.clone()))
    }

    fn crash(&self) {
        for m in &self.servers {
            m.crash();
        }
        self.ckpt.crash();
    }
}

/// Real files under a root directory: `root/server{i}` per journal and
/// `root/ckpt` for the checkpoint tier.
#[derive(Debug)]
pub struct FsProvider {
    root: PathBuf,
}

impl FsProvider {
    /// Use (and create) `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        FsProvider { root: root.into() }
    }
}

impl MediaProvider for FsProvider {
    fn journal_media(&self, server: usize) -> io::Result<Box<dyn Media>> {
        Ok(Box::new(FsMedia::new(self.root.join(format!("server{server}")))?))
    }

    fn ckpt_media(&self) -> io::Result<Box<dyn Media>> {
        Ok(Box::new(FsMedia::new(self.root.join("ckpt"))?))
    }

    fn crash(&self) {}
}

/// What a cold-restart run measured.
#[derive(Debug, Clone)]
pub struct ColdStartOutcome {
    /// Digest of each step's observed pieces (consumer side), across both
    /// lives of the workflow.
    pub digests: BTreeMap<u32, u64>,
    /// Wall-clock rebuild time: journal scan through clients restarted,
    /// milliseconds.
    pub cold_restart_ms: f64,
    /// Journal entries materialised for the rebuild across all servers: what
    /// the journals' last collecting checkpoints had not already retired.
    pub recovered_entries: u64,
    /// Snapshots recovered from the durable checkpoint tier.
    pub recovered_snapshots: u64,
    /// Step the producer resumed from.
    pub producer_resume: u32,
    /// Step the consumer resumed from.
    pub consumer_resume: u32,
    /// Bytes flushed by the second-life journals (post-restart activity).
    pub log_bytes_flushed: u64,
    /// Segments compacted by checkpoint-watermark compaction (both lives
    /// leave their mark in the media; this counts second-life deletions).
    pub segments_compacted: u64,
    /// Redundant re-puts absorbed during the resume.
    pub absorbed_puts: u64,
    /// Gets served from the replayed log during the resume.
    pub replayed_gets: u64,
    /// Replay digest mismatches (must be 0).
    pub digest_mismatches: u64,
}

/// Deterministic per-step data, shared by every phase so re-execution
/// reproduces payloads bit-for-bit.
fn field(version: u32) -> impl FnMut(&BBox) -> Payload {
    move |b: &BBox| {
        let data: Vec<u8> = (0..b.volume())
            .map(|i| (version as u64 * 131 + b.lb[0] * 7 + b.lb[2] + i) as u8)
            .collect();
        Payload::inline(data)
    }
}

struct Cluster {
    handles: Vec<std::thread::JoinHandle<ServerLogic<LoggingBackend>>>,
    producer: WorkflowClient,
    consumer: WorkflowClient,
    domain: BBox,
}

fn spawn_cluster(backends: Vec<LoggingBackend>, ckpts: Arc<Mutex<CheckpointStore>>) -> Cluster {
    let nservers = backends.len();
    let domain = BBox::whole(DOMAIN);
    let dist = Distribution::new(domain, BLOCK, nservers);
    let mut eps = net::threaded::ThreadedNet::mesh(nservers + 2);
    let mut client_eps = eps.split_off(nservers);
    let handles: Vec<_> = eps
        .into_iter()
        .zip(backends)
        .map(|(ep, b)| spawn_server(ep, ServerLogic::new(b, ServerCosts::default())))
        .collect();
    let consumer_ep = client_eps.pop().expect("consumer endpoint");
    let producer_ep = client_eps.pop().expect("producer endpoint");
    let producer = WorkflowClient::new(
        SyncClient::new(producer_ep, dist.clone(), (0..nservers).collect(), SIM),
        Arc::clone(&ckpts),
    );
    let consumer = WorkflowClient::new(
        SyncClient::new(consumer_ep, dist, (0..nservers).collect(), ANA),
        ckpts,
    );
    Cluster { handles, producer, consumer, domain }
}

/// Drive steps `from_p..` (producer) and `from_c..` (consumer) through `to`,
/// interleaved in version order. Checkpoints fire on the plan's period.
fn drive(
    c: &mut Cluster,
    plan: &ColdStartPlan,
    from_p: u32,
    from_c: u32,
    to: u32,
    digests: &mut BTreeMap<u32, u64>,
) {
    let domain = c.domain;
    for v in from_p.min(from_c)..=to {
        if v >= from_p {
            c.producer.put_with_log(0, v, &domain, field(v)).expect("put");
            if v % plan.ckpt_period == 0 {
                c.producer.workflow_check(v + 1, [v as u64, 1, 2, 3], 1 << 20).expect("sim ckpt");
            }
        }
        if v >= from_c {
            // The threaded server returns what is stored; poll until the
            // version lands (it already has, in this sequential driver, but
            // replayed reads may briefly race the recovery notification).
            let pieces = loop {
                match c.consumer.get_with_log(0, v, &domain) {
                    Ok(p) => break p,
                    Err(_) => std::thread::yield_now(),
                }
            };
            digests.insert(v, pieces_digest(&pieces));
            if v % plan.ckpt_period == 0 {
                c.consumer.workflow_check(v + 1, [v as u64, 4, 5, 6], 1 << 18).expect("ana ckpt");
            }
        }
    }
}

/// Shut the cluster down and hand back the server logics (the journal flush
/// at a *graceful* end; a crash teardown drops them unflushed instead).
fn teardown(c: Cluster) -> Vec<ServerLogic<LoggingBackend>> {
    c.consumer.shutdown_servers();
    c.handles.into_iter().map(|h| h.join().expect("server thread")).collect()
}

/// The ground truth: the same workflow with no kill, journals detached.
pub fn uninterrupted_digests(plan: &ColdStartPlan) -> BTreeMap<u32, u64> {
    plan.validate();
    let backends = (0..plan.nservers)
        .map(|_| {
            let mut b = LoggingBackend::new();
            b.register_app(SIM);
            b.register_app(ANA);
            b
        })
        .collect();
    let ckpts = Arc::new(Mutex::new(CheckpointStore::new(plan.retention)));
    let mut cluster = spawn_cluster(backends, ckpts);
    let mut digests = BTreeMap::new();
    drive(&mut cluster, plan, 1, 1, plan.steps, &mut digests);
    for logic in teardown(cluster) {
        assert_eq!(logic.backend().digest_mismatches(), 0);
    }
    digests
}

/// Run with durable journals, kill everything after `plan.kill_after`,
/// cold-restart from the media, and finish the run.
pub fn interrupted_run(
    plan: &ColdStartPlan,
    media: &dyn MediaProvider,
) -> io::Result<ColdStartOutcome> {
    plan.validate();
    let apps = [SIM, ANA];

    // ---- First life: journaled run up to the kill point. ----
    let backends = (0..plan.nservers)
        .map(|s| {
            let mut b = LoggingBackend::new();
            b.register_app(SIM);
            b.register_app(ANA);
            b.attach_journal(Box::new(LogStore::open(media.journal_media(s)?, plan.log)?));
            Ok(b)
        })
        .collect::<io::Result<Vec<_>>>()?;
    let mut ckpt_store = CheckpointStore::new(plan.retention);
    ckpt_store
        .attach_sink(Box::new(ckpt::durable::DurableTier::new(media.ckpt_media()?, plan.log)?));
    let ckpts = Arc::new(Mutex::new(ckpt_store));
    let mut cluster = spawn_cluster(backends, ckpts);
    let mut digests = BTreeMap::new();
    drive(&mut cluster, plan, 1, 1, plan.kill_after, &mut digests);

    // ---- Process death: tear the threads down WITHOUT flushing, then drop
    // every in-memory structure. Unsynced media bytes vanish.
    drop(teardown(cluster));
    media.crash();

    // ---- Cold restart, timed: rebuild every server and the checkpoint
    // directory purely from the surviving media.
    let t0 = std::time::Instant::now();
    let mut backends = Vec::with_capacity(plan.nservers);
    let mut recovered_entries = 0u64;
    for s in 0..plan.nservers {
        let log = LogStore::open(media.journal_media(s)?, plan.log)?;
        let entries = wfcr::journal::decode_records(&log.read_all()?);
        recovered_entries += entries.len() as u64;
        let mut b = LoggingBackend::from_journal(entries, &apps);
        // The reopened log continues the same sequence stream.
        b.attach_journal(Box::new(log));
        backends.push(b);
    }
    let (tier, snaps) = ckpt::durable::open(media.ckpt_media()?, plan.log)?;
    let recovered_snapshots = snaps.len() as u64;
    let mut ckpt_store = CheckpointStore::new(plan.retention);
    ckpt::durable::DurableTier::load_into(&mut ckpt_store, snaps);
    ckpt_store.attach_sink(Box::new(tier));
    let ckpts = Arc::new(Mutex::new(ckpt_store));
    let mut cluster = spawn_cluster(backends, ckpts);
    // `workflow_restart()` exactly as after an ordinary component failure:
    // restore the snapshot, notify staging, enter replay.
    let psnap = cluster.producer.workflow_restart().expect("producer restart");
    let csnap = cluster.consumer.workflow_restart().expect("consumer restart");
    let cold_restart_ms = t0.elapsed().as_secs_f64() * 1e3;

    // ---- Second life: resume to the end. Repeated versions are absorbed
    // (producer) or replay-served (consumer), so `digests` entries for
    // replayed steps are overwritten — equivalence demands they not change.
    drive(&mut cluster, plan, psnap.resume_step, csnap.resume_step, plan.steps, &mut digests);

    let mut outcome = ColdStartOutcome {
        digests,
        cold_restart_ms,
        recovered_entries,
        recovered_snapshots,
        producer_resume: psnap.resume_step,
        consumer_resume: csnap.resume_step,
        log_bytes_flushed: 0,
        segments_compacted: 0,
        absorbed_puts: 0,
        replayed_gets: 0,
        digest_mismatches: 0,
    };
    for mut logic in teardown(cluster) {
        let b = logic.backend_mut();
        b.flush_journal();
        let j = b.journal_stats();
        outcome.log_bytes_flushed += j.bytes_flushed;
        outcome.segments_compacted += j.segments_compacted;
        outcome.absorbed_puts += b.absorbed_puts();
        outcome.replayed_gets += b.replayed_gets();
        outcome.digest_mismatches += b.digest_mismatches();
        assert_eq!(j.errors, 0, "journal I/O must stay clean");
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_cold_restart_is_equivalent_to_uninterrupted() {
        let plan = ColdStartPlan::default();
        let media = MemProvider::new(plan.nservers);
        let out = interrupted_run(&plan, &media).expect("interrupted run");
        assert_eq!(out.digest_mismatches, 0);
        assert!(out.recovered_entries > 0, "the journal must not come back empty");
        assert!(out.recovered_snapshots > 0, "checkpoints must survive the crash");
        assert!(out.cold_restart_ms >= 0.0);
        assert_eq!(out.producer_resume, 5, "kill at 6 with period 4 resumes at 5");
        let truth = uninterrupted_digests(&plan);
        assert_eq!(out.digests, truth, "cold restart must reproduce the run byte-for-byte");
    }

    #[test]
    fn kill_validation_rejects_pre_checkpoint_kills() {
        let plan = ColdStartPlan { kill_after: 2, ckpt_period: 4, ..Default::default() };
        let media = MemProvider::new(plan.nservers);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = interrupted_run(&plan, &media);
        }));
        assert!(err.is_err(), "a kill before the first checkpoint has nothing to restart from");
    }
}
