//! The closed-loop driver: one thread owns both clients and issues one
//! coupled step at a time — `put(v)`, `get(v)`, every `period` steps a
//! checkpoint on both — because the paper's components block on `put`/`get`.
//! A *round* is a fresh fleet, a discarded warm-up prefix and a fixed number
//! of timed steps with the round's failure schedule; every response is
//! checked, so a wrong answer shows up as a failed operation, not as a fast
//! one.

use crate::fleet::{ColdPhases, Fleet, FleetPlan, ServerReport, CONSUMER, PRODUCER};
use crate::gen::{schedule, Disturbance, Pool, Victim};
use crate::span::{Kind, OpKey, Recorder, Trace};
use crate::spec::{Shape, MEDIA_PEAK_LIMIT};
use bytes::Bytes;
use staging::payload::Payload;
use staging::proto::{AppId, GetPiece, PutStatus, Version};
use staging::threaded::ClientError;
use std::io;
use std::path::Path;
use std::time::Instant;
use wfcr::backend::pieces_digest;

/// Counts at the layer boundaries. A round is deterministic, so these repeat
/// exactly for a seed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub backend_puts: u64,
    pub backend_gets: u64,
    pub absorbed_puts: u64,
    pub replayed_gets: u64,
    pub journal_records: u64,
    pub journal_group_commits: u64,
    pub journal_bytes_flushed: u64,
    pub journal_segments_compacted: u64,
    pub media_writes: u64,
    pub media_syncs: u64,
    pub media_bytes_written: u64,
    pub net_msgs: u64,
    pub net_bytes: u64,
    pub dup_hits: u64,
}

/// Operations attempted, how many failed, and the first failure's story.
#[derive(Debug, Default, Clone)]
pub struct Verdicts {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Verdicts {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    pub fn merge(&mut self, other: &Verdicts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }
}

pub struct RoundCfg<'a> {
    pub shape: Shape,
    pub seed: u64,
    pub round: u64,
    /// Scratch directory of this round (journals go beneath it).
    pub dir: &'a Path,
    pub traced: bool,
    /// `--selftest-corrupt`: flip one byte of one payload before its check —
    /// of the first replayed get where the workload has rollbacks, else of
    /// the first timed get.
    pub corrupt: bool,
}

/// Everything one round measured. Durations are nanoseconds of the calls
/// themselves; the driver's own checking between calls is not in them.
#[derive(Default)]
pub struct RoundOut {
    /// Round start → the fresh fleet can take its first request: payload
    /// pool, journal directories, `LogStore::open`, mesh, threads, clients.
    pub setup_s: f64,
    pub steps: u32,
    /// Σ duration of every timed call: fresh steps, re-execution after
    /// rollbacks, cold restarts.
    pub busy_ns: u64,
    /// Per fresh step: put + get + (checkpoint round).
    pub step_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    pub get_ns: Vec<u64>,
    pub ckpt_ns: Vec<u64>,
    /// Per rollback: the re-execution after `recover` was acknowledged.
    pub recovery_ns: Vec<u64>,
    /// Per rollback: the `recover` call itself (a journal commit point).
    pub recover_ctl_ns: Vec<u64>,
    /// Per cold restart: teardown complete → the rebuilt fleet is up.
    pub cold_ns: Vec<u64>,
    pub replay_get_ns: Vec<u64>,
    pub absorbed_put_ns: Vec<u64>,
    pub cold_phases: Vec<ColdPhases>,
    pub verdicts: Verdicts,
    /// Payload bytes of first-execution puts (warm-up included).
    pub user_bytes: u64,
    /// First-execution steps (warm-up included).
    pub fresh_steps: u32,
    pub counts: Counts,
    pub media_peak_live: u64,
    pub resident_peak: u64,
    pub live_events_peak: u64,
    pub trace: Option<Trace>,
}

struct Driver<'a> {
    shape: Shape,
    plan: FleetPlan,
    fleet: Option<Fleet>,
    pool: &'a Pool,
    rec: Option<Recorder>,
    out: RoundOut,
    /// Digest the first execution's get of each version observed.
    observed: Vec<u64>,
    last_ckpt: Version,
    corrupt_armed: bool,
    /// Record samples (false during warm-up).
    timing: bool,
}

fn flip_one_byte(pieces: &mut [GetPiece]) {
    if let Some(p) = pieces.first_mut() {
        if let Some(b) = p.payload.bytes() {
            let mut data = b.to_vec();
            data[0] ^= 0x01;
            p.payload = Payload::inline(Bytes::from(data));
        }
    }
}

impl Driver<'_> {
    /// Time one client call, spanning it in traced rounds.
    fn call<T>(
        &mut self,
        name: &'static str,
        key: OpKey,
        f: impl FnOnce(&mut Fleet) -> T,
    ) -> (u64, T) {
        let open = self.rec.as_mut().map(|r| r.begin(name, Some(key), true));
        let fleet = self.fleet.as_mut().expect("fleet is running");
        let t = Instant::now();
        let out = f(fleet);
        let ns = t.elapsed().as_nanos() as u64;
        if let (Some(r), Some(i)) = (self.rec.as_mut(), open) {
            r.end(i);
        }
        (ns, out)
    }

    fn put(&mut self, v: Version) -> (u64, Result<Vec<PutStatus>, ClientError>) {
        let key = OpKey { app: PRODUCER, var: 0, version: v, kind: Kind::Put };
        let whole = self.plan.whole();
        let pool = self.pool;
        self.call("client.put", key, |f| f.producer.put(0, v, &whole, pool.fill(v)))
    }

    fn get(&mut self, v: Version) -> (u64, Result<Vec<GetPiece>, ClientError>) {
        let key = OpKey { app: CONSUMER, var: 0, version: v, kind: Kind::Get };
        let whole = self.plan.whole();
        self.call("client.get", key, |f| f.consumer.get(0, v, &whole))
    }

    /// `checkpoint(v)` or `recover(v)` by `app`; returns the call's time and
    /// the replay events the servers report pending.
    fn ctl(&mut self, app: AppId, recover: bool, v: Version) -> (u64, u64) {
        let key = OpKey { app, var: 0, version: v, kind: Kind::Ctl };
        let (ns, resps) = self.call("client.ctl", key, |f| {
            let client = if app == PRODUCER { &mut f.producer } else { &mut f.consumer };
            if recover {
                client.recover(v)
            } else {
                client.checkpoint(v)
            }
        });
        let pending = resps.as_ref().map_or(0, |r| r.iter().map(|c| c.pending_replay).sum());
        self.out.verdicts.record(resps.is_ok(), || format!("control app {app} v{v}: {resps:?}"));
        (ns, pending)
    }

    /// Judge a put: every block must report `want` (`None`: either status).
    fn judge_put(
        &mut self,
        v: Version,
        r: &Result<Vec<PutStatus>, ClientError>,
        want: Option<PutStatus>,
    ) {
        let blocks = self.pool.blocks_per_step();
        let ok = match r {
            Ok(st) => st.len() == blocks && st.iter().all(|s| want.is_none_or(|w| *s == w)),
            Err(_) => false,
        };
        self.out.verdicts.record(ok, || format!("put v{v}: wanted {want:?}, got {r:?}"));
    }

    /// Judge a get against the digest `want`; returns the digest seen.
    fn judge_get(
        &mut self,
        v: Version,
        r: Result<Vec<GetPiece>, ClientError>,
        want: u64,
        corruptible: bool,
    ) -> u64 {
        let digest = r.map(|mut pieces| {
            if corruptible && std::mem::take(&mut self.corrupt_armed) {
                flip_one_byte(&mut pieces);
            }
            pieces_digest(&pieces)
        });
        self.out.verdicts.record(digest.as_ref() == Ok(&want), || {
            format!("get v{v}: saw {digest:x?}, wanted digest {want:x}")
        });
        digest.unwrap_or(0)
    }

    /// One first-execution coupled step; returns its put + get time.
    fn fresh_step(&mut self, v: Version) -> u64 {
        let (put_ns, statuses) = self.put(v);
        self.judge_put(v, &statuses, Some(PutStatus::Stored));
        self.out.user_bytes += self.pool.bytes_per_step();
        let (get_ns, pieces) = self.get(v);
        let corruptible = self.timing && self.shape.rollback_every == 0;
        let want = self.pool.expected_digest(v);
        self.observed[v as usize] = self.judge_get(v, pieces, want, corruptible);
        if self.timing {
            self.out.put_ns.push(put_ns);
            self.out.get_ns.push(get_ns);
        }
        put_ns + get_ns
    }

    /// Both components checkpoint `v` (one `workflow_check` round).
    fn checkpoint(&mut self, v: Version) -> u64 {
        let ns = self.ctl(PRODUCER, false, v).0 + self.ctl(CONSUMER, false, v).0;
        self.last_ckpt = v;
        if self.timing {
            self.out.ckpt_ns.push(ns);
        }
        ns
    }

    /// `victim` fails at `v`: it rolls back to its last checkpoint and
    /// re-executes to `v`. A consumer's gets must replay the digests its
    /// first execution saw; a producer's re-puts must all be absorbed.
    fn rollback(&mut self, victim: Victim, v: Version) {
        let c = self.last_ckpt;
        let app = if victim == Victim::Consumer { CONSUMER } else { PRODUCER };
        let (ctl_ns, pending) = self.ctl(app, true, c);
        let mut ns = 0;
        let scripted = u64::from(v - c) * self.pool.blocks_per_step() as u64;
        self.out.verdicts.record(pending == scripted, || {
            format!("recover app {app} to v{c}: {pending} replay events pending, wanted {scripted}")
        });
        for w in c + 1..=v {
            match victim {
                Victim::Consumer => {
                    let (t, pieces) = self.get(w);
                    let want = self.observed[w as usize];
                    self.judge_get(w, pieces, want, true);
                    self.out.replay_get_ns.push(t);
                    ns += t;
                }
                Victim::Producer => {
                    let (t, statuses) = self.put(w);
                    self.judge_put(w, &statuses, Some(PutStatus::Absorbed));
                    self.out.absorbed_put_ns.push(t);
                    ns += t;
                }
            }
        }
        self.out.recovery_ns.push(ns);
        self.out.recover_ctl_ns.push(ctl_ns);
        self.out.busy_ns += ctl_ns + ns;
    }

    fn absorb(&mut self, reports: Vec<ServerReport>, msgs: u64, bytes: u64) {
        let c = &mut self.out.counts;
        c.net_msgs += msgs;
        c.net_bytes += bytes;
        let mut wrong = 0;
        for r in reports {
            wrong += r.digest_mismatches + r.journal_errors;
            c.backend_puts += r.puts;
            c.backend_gets += r.gets;
            c.absorbed_puts += r.absorbed_puts;
            c.replayed_gets += r.replayed_gets;
            c.journal_records += r.journal_records;
            c.journal_group_commits += r.journal_group_commits;
            c.journal_bytes_flushed += r.journal_bytes_flushed;
            c.journal_segments_compacted += r.journal_segments_compacted;
            c.dup_hits += r.dup_hits;
            self.out.resident_peak = self.out.resident_peak.max(r.resident_peak);
            self.out.live_events_peak = self.out.live_events_peak.max(r.live_events_peak);
        }
        self.out.verdicts.record(wrong == 0, || {
            format!("{wrong} digest mismatches or journal errors over the joined servers")
        });
    }

    /// The whole fleet dies at `v` with its journals unflushed and the media
    /// losing every unsynced byte; it is rebuilt from the journal
    /// directories, both components recover, and execution resumes. Every
    /// re-executed get must still see its original digest.
    fn cold_restart(&mut self, v: Version) -> io::Result<()> {
        let (reports, msgs, bytes) = self.fleet.take().expect("fleet is running").stop(false);
        self.absorb(reports, msgs, bytes);
        self.plan.crash_media()?;
        let c = self.last_ckpt;
        let t = Instant::now();
        let (fleet, phases) = Fleet::cold(&self.plan)?;
        self.out.cold_ns.push(t.elapsed().as_nanos() as u64);
        self.fleet = Some(fleet);
        self.ctl(PRODUCER, true, c);
        self.ctl(CONSUMER, true, c);
        let mut first_get_done = None;
        let mut tail_ns = 0;
        for w in c + 1..=v {
            // Survived in the journal: absorbed. Lost with the tail: stored.
            let (put_ns, statuses) = self.put(w);
            self.judge_put(w, &statuses, None);
            let (get_ns, pieces) = self.get(w);
            first_get_done.get_or_insert_with(|| t.elapsed().as_nanos() as u64);
            if w > c + 1 {
                tail_ns += put_ns + get_ns;
            }
            let want = self.observed[w as usize];
            self.judge_get(w, pieces, want, true);
        }
        self.out.cold_phases.push(phases);
        self.out.busy_ns += first_get_done.unwrap_or(0) + tail_ns;
        Ok(())
    }
}

/// Run one round.
pub fn run_round(cfg: &RoundCfg<'_>) -> io::Result<RoundOut> {
    let shape = cfg.shape;
    let t0 = Instant::now();
    let pool = Pool::generate(cfg.seed, &shape);
    let events = schedule(cfg.seed, cfg.round, &shape);
    let epoch = cfg.traced.then(Instant::now);
    let plan = FleetPlan::new(shape, cfg.dir, epoch);
    let fleet = Fleet::fresh(&plan)?;
    let last = shape.warmup_steps + shape.timed_steps;
    let mut d = Driver {
        shape,
        plan,
        fleet: Some(fleet),
        pool: &pool,
        rec: epoch.map(Recorder::new),
        out: RoundOut::default(),
        observed: vec![0; last as usize + 1],
        last_ckpt: 0,
        corrupt_armed: cfg.corrupt,
        timing: false,
    };
    // Set-up ends when the fleet can take its first request; the warm-up is
    // ordinary traffic letting caches fill, and on a journal kept in files
    // most of its time would be the disk's.
    d.out.setup_s = t0.elapsed().as_secs_f64();
    for v in 1..=shape.warmup_steps {
        d.fresh_step(v);
        if v.is_multiple_of(shape.period) {
            d.checkpoint(v);
        }
    }
    // Warm-up spans are not part of the traced phase.
    if let Some(r) = d.rec.as_mut() {
        r.take();
    }
    d.plan.take_server_spans();
    d.timing = true;

    let mut next_event = events.iter().peekable();
    for step in 1..=shape.timed_steps {
        let v = shape.warmup_steps + step;
        let mut step_ns = d.fresh_step(v);
        while let Some(&&(_, what)) = next_event.peek().filter(|e| e.0 == step) {
            next_event.next();
            match what {
                Disturbance::Rollback(victim) => d.rollback(victim, v),
                Disturbance::ColdRestart => d.cold_restart(v)?,
            }
        }
        if v.is_multiple_of(shape.period) {
            step_ns += d.checkpoint(v);
        }
        d.out.step_ns.push(step_ns);
        d.out.busy_ns += step_ns;
    }
    d.out.steps = shape.timed_steps;
    d.out.fresh_steps = last;

    let (reports, msgs, bytes) = d.fleet.take().expect("fleet is running").stop(true);
    d.absorb(reports, msgs, bytes);
    let meter = d.plan.meter_totals();
    d.out.counts.media_writes = meter.writes;
    d.out.counts.media_syncs = meter.syncs;
    d.out.counts.media_bytes_written = meter.bytes_written;
    d.out.media_peak_live = meter.peak_live;
    d.out.verdicts.record(meter.peak_live < MEDIA_PEAK_LIMIT, || {
        format!("journals held {} bytes at peak: compaction is not keeping up", meter.peak_live)
    });
    if let Some(mut r) = d.rec.take() {
        let mut threads = vec![r.take()];
        threads.extend(d.plan.take_server_spans());
        d.out.trace = Some(Trace { threads });
    }
    Ok(d.out)
}
