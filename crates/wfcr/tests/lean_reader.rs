//! The rebuild's reader against the reader it replaced.
//!
//! `wfcr::journal::decode_records` retires, unread, the puts and gets the
//! journal's own last collecting checkpoint already made dead;
//! `wfcr::journal::decode_all` decodes everything. A live `LoggingBackend`
//! journals a generated history to `MemMedia`, the log is reopened, and
//! `from_journal` over either list must build the same backend: store,
//! retained events and markers, checkpoint versions, GC marks and floor, and
//! the same answers to whatever is asked next.
//!
//! The same comparison pins "journal, then apply": a *live* backend against
//! `from_journal` of everything it journalled — one transition applied twice —
//! on every generated history, flushed instead of killed, that does not end
//! mid-replay (a replay in flight is not durable state).
//!
//! The harness must be able to fail: `model_reader` is the rule written out
//! over fully decoded entries (equal to the library's on every history), and
//! three wrong variants of it must each be refuted within a bounded number
//! of histories; so must a rebuild that forgets the `GlobalReset`s.

use logstore::{FlushPolicy, LogConfig, LogStore, Media, MemMedia, Record};
use proptest::prelude::*;
use proptest::test_runner::Rng;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{AppId, CtlRequest, GetRequest, ObjDesc, PutRequest, VarId, Version};
use staging::service::StoreBackend;
use std::collections::BTreeMap;
use wfcr::backend::{pieces_digest, LoggingBackend};
use wfcr::journal::JournalEntry;
use wfcr::LogEvent;

/// Registered before the first request, in the first life and the rebuilt one.
const APPS: [AppId; 3] = [0, 1, 2];
const EVERYWHERE: BBox = BBox { ndim: 1, lb: [0, 0, 0], ub: [u64::MAX, 0, 0] };

#[derive(Debug, Clone)]
enum Op {
    /// The component moves on to its next step.
    Step(AppId),
    /// Write one block at the component's step, or `late` steps behind it.
    Put { app: AppId, var: VarId, block: u64, late: u32 },
    /// Read one block at the component's step, or `ahead` of it — staging
    /// then serves the newest older version it has.
    Get { app: AppId, var: VarId, block: u64, ahead: u32 },
    /// `workflow_check()` through the component's step.
    Checkpoint(AppId),
    /// Roll back to the last checkpoint (`older`: the one before it, as after
    /// a torn image) and, with `reexecute`, re-issue everything since.
    Recover { app: AppId, older: bool, reexecute: bool },
    /// Coordinated rollback to `back` steps behind the furthest component.
    Reset { back: u32 },
}

#[derive(Debug, Clone)]
enum Issued {
    Put(PutRequest),
    Get(GetRequest),
}

/// The components' side of a history: where each one is, what it has
/// checkpointed, what it has asked for.
#[derive(Debug, Clone, Default)]
struct Driver {
    step: BTreeMap<AppId, Version>,
    ckpts: BTreeMap<AppId, Vec<Version>>,
    issued: BTreeMap<AppId, Vec<Issued>>,
}

fn block_box(block: u64) -> BBox {
    BBox::d1(block * 8, block * 8 + 7)
}

impl Driver {
    fn step(&self, app: AppId) -> Version {
        self.step.get(&app).copied().unwrap_or(1)
    }

    /// Issue one request and describe the answer.
    fn issue(b: &mut LoggingBackend, req: &Issued) -> String {
        match req {
            Issued::Put(put) => format!("{:?}", b.put(put).0),
            Issued::Get(get) => {
                let pieces = b.get(get).0;
                let served: Vec<Version> = pieces.iter().map(|p| p.version).collect();
                format!("{served:?} {:016x}", pieces_digest(&pieces))
            }
        }
    }

    /// Apply `op` to `b`; the returned line is everything `b` answered.
    fn apply(&mut self, b: &mut LoggingBackend, op: &Op) -> String {
        let request = |this: &mut Driver, b: &mut LoggingBackend, app, req: Issued| {
            let answer = Driver::issue(b, &req);
            this.issued.entry(app).or_default().push(req);
            answer
        };
        match *op {
            Op::Step(app) => {
                *self.step.entry(app).or_insert(1) += 1;
                String::new()
            }
            Op::Put { app, var, block, late } => {
                let version = self.step(app).saturating_sub(late).max(1);
                // Bytes are a function of what is written, so a re-executed
                // put carries the digest the log recorded.
                let fill = (var as u8) ^ (version as u8).wrapping_mul(31) ^ (block as u8) << 6;
                let put = PutRequest {
                    app,
                    desc: ObjDesc { var, version, bbox: block_box(block) },
                    payload: Payload::inline(vec![fill; 24]),
                    seq: 0,
                    tctx: obs::TraceCtx::NONE,
                };
                request(self, b, app, Issued::Put(put))
            }
            Op::Get { app, var, block, ahead } => {
                let get = GetRequest {
                    app,
                    var,
                    version: self.step(app) + ahead,
                    bbox: block_box(block),
                    seq: 0,
                    tctx: obs::TraceCtx::NONE,
                };
                request(self, b, app, Issued::Get(get))
            }
            Op::Checkpoint(app) => {
                let upto_version = self.step(app);
                self.ckpts.entry(app).or_default().push(upto_version);
                format!("{:?}", b.control(CtlRequest::Checkpoint { app, upto_version }).0)
            }
            Op::Recover { app, older, reexecute } => {
                let ckpts = self.ckpts.entry(app).or_default();
                if older {
                    ckpts.pop();
                }
                let resume_version = ckpts.last().copied().unwrap_or(0);
                let mut answers =
                    format!("{:?}", b.control(CtlRequest::Recovery { app, resume_version }).0);
                if reexecute {
                    for req in self.issued.get(&app).into_iter().flatten() {
                        let asked = match req {
                            Issued::Put(put) => put.desc.version,
                            Issued::Get(get) => get.version,
                        };
                        if asked > resume_version {
                            answers.push_str(&Driver::issue(b, req));
                        }
                    }
                } else {
                    self.step.insert(app, resume_version.max(1));
                }
                answers
            }
            Op::Reset { back } => {
                let furthest = self.step.values().copied().max().unwrap_or(1);
                let to_version = furthest.saturating_sub(back);
                format!("{:?}", b.control(CtlRequest::GlobalReset { to_version }).0)
            }
        }
    }
}

/// A first life, how it ends, and what is asked of the rebuilt backends.
#[derive(Debug, Clone)]
struct History {
    segment_bytes: u64,
    ops: Vec<Op>,
    /// `None`: the journal is flushed. `Some(tear)`: the process is killed,
    /// and `tear` says how much of the unsynced tail reached the media.
    kill: Option<usize>,
    second_life: Vec<Op>,
}

/// Requests from the three registered components and, now and then, from a
/// fourth that never registered.
fn arb_op() -> impl Strategy<Value = Op> {
    let app = prop_oneof![12 => 0u32..3, 1 => Just(3u32)];
    let what = (0u32..2, 0u64..2, 0u32..3);
    prop_oneof![
        4 => (0u32..3).prop_map(Op::Step),
        6 => (app, what.clone(), 0u32..4).prop_map(|(app, (var, block, late), sel)| {
            // Most puts are on time; variable 1 is written by component 1
            // only, so it can stall below the floor while variable 0 moves.
            let var = if app == 1 { var } else { 0 };
            Op::Put { app, var, block, late: if sel == 0 { late } else { 0 } }
        }),
        6 => (0u32..4, what).prop_map(|(app, (var, block, ahead))| Op::Get { app, var, block, ahead }),
        4 => (0u32..3).prop_map(Op::Checkpoint),
        1 => (0u32..3, 0u32..4, any::<bool>()).prop_map(|(app, older, reexecute)| Op::Recover {
            app,
            older: older == 0,
            reexecute,
        }),
    ]
}

fn arb_history(resets: bool) -> impl Strategy<Value = History> {
    let op = move || {
        let reset = (0u32..6).prop_map(|back| Op::Reset { back });
        prop_oneof![40 => arb_op(), 1 => reset].prop_map(move |op| match op {
            Op::Reset { .. } if !resets => Op::Step(0),
            op => op,
        })
    };
    (
        prop_oneof![Just(256u64), Just(2048u64), Just(1u64 << 20)],
        prop::collection::vec(op(), 1..160),
        prop::option::of(0usize..400),
        prop::collection::vec(op(), 0..24),
    )
        .prop_map(|(segment_bytes, ops, kill, second_life)| History {
            segment_bytes,
            ops,
            kill,
            second_life,
        })
}

fn log_config(segment_bytes: u64) -> LogConfig {
    LogConfig { segment_bytes, flush: FlushPolicy::Grouped { records: 4 } }
}

fn fresh_backend() -> LoggingBackend {
    let mut b = LoggingBackend::new();
    for app in APPS {
        b.register_app(app);
    }
    b
}

/// Run the first life against a journalling backend and return what a
/// restart reads back, with the driver as the components left it — and the
/// backend itself, still live, when the history ends in a flush.
fn first_life(h: &History) -> (Vec<Record>, Driver, Option<LoggingBackend>) {
    let cfg = log_config(h.segment_bytes);
    let mem = MemMedia::new();
    let mut b = fresh_backend();
    b.attach_journal_coalesced(Box::new(LogStore::open(Box::new(mem.clone()), cfg).unwrap()), 3);
    let mut driver = Driver::default();
    for op in &h.ops {
        driver.apply(&mut b, op);
    }
    assert_eq!(b.journal_errors(), 0);
    let live = match h.kill {
        None => {
            b.flush_journal();
            Some(b)
        }
        Some(tear) => {
            drop(b);
            // Power loss part-way through the unsynced tail: every file keeps
            // its synced bytes and `tear` more, at most what it had.
            let synced = mem.clone_deep();
            synced.crash();
            for name in mem.list().unwrap() {
                let keep = synced.read(&name).unwrap().len();
                mem.chop(&name, keep + tear.min(mem.read(&name).unwrap().len() - keep));
            }
            None
        }
    };
    let log = LogStore::open(Box::new(mem), cfg).unwrap();
    (log.read_all().unwrap(), driver, live)
}

/// Everything a backend holds that the next request can depend on; the queue
/// of a component outside `APPS` only with `unregistered`.
fn observe(b: &LoggingBackend, unregistered: bool) -> Vec<String> {
    let mut seen = vec![format!(
        "floor {} marks {:?} store {} B in {} pieces",
        b.gc_floor(),
        b.gc_marks(),
        b.store().bytes(),
        b.store().piece_count()
    )];
    for var in b.store().vars() {
        for version in b.store().versions(var) {
            for p in b.store().query(var, version, &EVERYWHERE) {
                seen.push(format!(
                    "var {var} v{version} {:?} {:016x} {:?}",
                    p.bbox,
                    p.payload.digest(),
                    p.payload.bytes()
                ));
            }
        }
    }
    for app in b.queue_apps() {
        if !unregistered && !APPS.contains(&app) {
            continue;
        }
        let q = b.queue(app).unwrap();
        let events: Vec<&LogEvent> = q.iter().collect();
        seen.push(format!(
            "queue {app}: ckpt {:?} w_chk {:?} {events:?}",
            q.checkpoint_version(),
            q.last_w_chk_id()
        ));
    }
    seen
}

/// Two backends that should be one (`from_journal` over two entry lists, or a
/// live backend and the rebuild of its journal), left by the same `driver`:
/// the same backend now, and after each op of `second_life` and one last
/// checkpoint, whose marker shows `next_w_chk`.
fn agree(
    mut backends: [LoggingBackend; 2],
    unregistered: bool,
    driver: &Driver,
    second_life: &[Op],
) -> Result<(), String> {
    let mut drivers = [driver.clone(), driver.clone()];
    let last_checkpoint = Op::Checkpoint(0);
    let mut ops = second_life.iter().chain([&last_checkpoint]);
    let mut op = 0;
    loop {
        let [a, b] = backends.each_ref().map(|b| observe(b, unregistered));
        if a != b {
            return Err(format!("after {op} more ops\n one {a:#?}\n other {b:#?}"));
        }
        for b in &backends {
            for app in b.queue_apps() {
                let q = b.queue(app).unwrap();
                if q.appended_transport() != q.committed() + q.transport_len() as u64 {
                    return Err(format!("queue {app} lost an event after {op} more ops"));
                }
            }
        }
        let Some(next) = ops.next() else { return Ok(()) };
        let [a, b] = [0, 1].map(|i| drivers[i].apply(&mut backends[i], next));
        if a != b {
            return Err(format!("{next:?} answered\n one {a}\n other {b}"));
        }
        op += 1;
    }
}

/// `from_journal` over `lean` beside `from_journal` over every entry of
/// `records`, both registering `apps` as the first life did.
fn rebuilds(records: &[Record], lean: Vec<JournalEntry>, apps: &[AppId]) -> [LoggingBackend; 2] {
    let full = wfcr::journal::decode_all(records);
    [LoggingBackend::from_journal(lean, apps), LoggingBackend::from_journal(full, apps)]
}

/// A wrong variant of the retirement rule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    Sound,
    /// Retire a dead put whether or not a newer version was kept: loses the
    /// newest stored version when it sits below the floor (`gc.rs` rule 3).
    PutWithoutNewestKept,
    /// Keep retiring in a stream that holds a `GlobalReset`.
    NoResetFallback,
    /// Retire what comes after the last collecting checkpoint too.
    RetireAfterPass,
}

/// The reader's rule over fully decoded entries.
fn model_reader(records: &[Record], rule: Rule) -> Vec<JournalEntry> {
    let full: Vec<Option<JournalEntry>> =
        records.iter().map(|r| JournalEntry::decode(&r.payload)).collect();
    let has_reset = full.iter().flatten().any(|e| matches!(e, JournalEntry::GlobalReset { .. }));
    let last_pass = full.iter().enumerate().rev().find_map(|(i, e)| match e {
        Some(JournalEntry::Checkpoint { floor: Some(f), .. }) => Some((i, *f)),
        _ => None,
    });
    let Some((pass_at, floor)) = last_pass.filter(|_| !has_reset || rule == Rule::NoResetFallback)
    else {
        return full.into_iter().flatten().collect();
    };
    let mut ckpt: BTreeMap<AppId, Version> = BTreeMap::new();
    for e in full[..=pass_at].iter().flatten() {
        if let JournalEntry::Checkpoint { app, upto_version, .. } = *e {
            let c = ckpt.entry(app).or_insert(upto_version);
            *c = (*c).max(upto_version);
        }
    }
    let dead = |app: AppId, v: Version| ckpt.get(&app).is_some_and(|&c| v <= c.min(floor));
    let horizon = if rule == Rule::RetireAfterPass { full.len() } else { pass_at };
    let mut newest_kept: BTreeMap<VarId, Version> = BTreeMap::new();
    let mut keep = vec![true; full.len()];
    for i in (0..horizon).rev() {
        match full[i] {
            Some(JournalEntry::Get { app, served, .. }) => keep[i] = !dead(app, served),
            Some(JournalEntry::Put { app, desc, .. }) => {
                let below_newer = rule == Rule::PutWithoutNewestKept
                    || newest_kept.get(&desc.var).is_some_and(|&n| desc.version < n);
                keep[i] = !(dead(app, desc.version) && below_newer);
                if keep[i] {
                    let n = newest_kept.entry(desc.var).or_insert(desc.version);
                    *n = (*n).max(desc.version);
                }
            }
            _ => {}
        }
    }
    full.into_iter().zip(keep).filter_map(|(e, keep)| e.filter(|_| keep)).collect()
}

/// The first generated history on which rebuilding from `rule`'s list and
/// from the full list disagree, looking at no more than `limit`.
fn refuted_within(rule: Rule, resets: bool, limit: u32) -> Option<u32> {
    let histories = arb_history(resets);
    (0..limit).find(|&case| {
        let h = histories.generate(&mut Rng::for_case(case));
        let (records, driver, _) = first_life(&h);
        let lean = model_reader(&records, rule);
        agree(rebuilds(&records, lean, &APPS), true, &driver, &h.second_life).is_err()
    })
}

/// The library's reader is the model's sound rule, and rebuilds what the
/// full stream rebuilds.
fn reader_agrees_with_full(h: &History) -> Result<(), String> {
    let (records, driver, _) = first_life(h);
    let lean = wfcr::journal::decode_records(&records);
    if lean != model_reader(&records, Rule::Sound) {
        return Err("the model is not the reader".into());
    }
    let full: Vec<JournalEntry> = wfcr::journal::decode_all(&records);
    let mut rest = full.iter();
    if !lean.iter().all(|e| rest.any(|f| f == e)) {
        return Err("the lean list is not a subsequence of the full one".into());
    }
    agree(rebuilds(&records, lean, &APPS), true, &driver, &h.second_life)
}

/// `h`'s first life, flushed, against `from_journal` of all it journalled —
/// with `forget_resets`, of all but the `GlobalReset`s (PR 13's bug: the cut
/// was applied and never journalled). Vacuous when the first life ends
/// mid-replay: the rebuilt backend starts outside replay, by design.
///
/// One known divergence is left out, and only where it can occur (ROADMAP
/// item 2, the tenth finding; pinned by `a_component_that_never_checkpoints_…`):
/// the queue of a component that never registered, once a journal segment
/// has been compacted away.
fn live_agrees_with_its_rebuild(h: &History, forget_resets: bool) -> Result<(), String> {
    let (records, driver, live) = first_life(&History { kill: None, ..h.clone() });
    let live = live.expect("a flushed history hands back its backend");
    if !live.replaying_apps().is_empty() {
        return Ok(());
    }
    let mut journalled: Vec<JournalEntry> = wfcr::journal::decode_all(&records);
    if forget_resets {
        journalled.retain(|e| !matches!(e, JournalEntry::GlobalReset { .. }));
    }
    let nothing_compacted = live.journal_segments_compacted() == 0;
    let rebuilt = LoggingBackend::from_journal(journalled, &APPS);
    agree([live, rebuilt], nothing_compacted, &driver, &h.second_life)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn lean_rebuild_equals_full_rebuild(h in arb_history(false)) {
        prop_assert_eq!(reader_agrees_with_full(&h), Ok(()));
    }

    #[test]
    fn lean_rebuild_equals_full_rebuild_across_resets(h in arb_history(true)) {
        prop_assert_eq!(reader_agrees_with_full(&h), Ok(()));
    }

    #[test]
    fn live_backend_equals_the_rebuild_of_its_journal(h in arb_history(false)) {
        prop_assert_eq!(live_agrees_with_its_rebuild(&h, false), Ok(()));
    }

    #[test]
    fn live_backend_equals_the_rebuild_of_its_journal_across_resets(h in arb_history(true)) {
        prop_assert_eq!(live_agrees_with_its_rebuild(&h, false), Ok(()));
    }
}

/// The generator reaches what the reader is for: most histories retire
/// something, and some leave nothing to retire.
#[test]
fn the_histories_exercise_the_rule() {
    let histories = arb_history(false);
    let (mut retiring, mut full_total, mut lean_total) = (0, 0, 0);
    for case in 0..200 {
        let (records, ..) = first_life(&histories.generate(&mut Rng::for_case(case)));
        let full = wfcr::journal::decode_all(&records).len();
        let lean = wfcr::journal::decode_records(&records).len();
        retiring += usize::from(lean < full);
        full_total += full;
        lean_total += lean;
    }
    assert!((60..200).contains(&retiring), "{retiring} of 200 histories retire something");
    assert!(lean_total * 10 < full_total * 9, "{lean_total} of {full_total} entries kept");
}

#[test]
fn a_put_retired_without_the_newest_kept_rule_is_caught() {
    let case = refuted_within(Rule::PutWithoutNewestKept, false, 300);
    assert!(case.is_some(), "300 histories and the newest stored version was never missed");
}

#[test]
fn retiring_across_a_global_reset_is_caught() {
    assert_eq!(refuted_within(Rule::Sound, true, 300), None);
    let case = refuted_within(Rule::NoResetFallback, true, 300);
    assert!(case.is_some(), "300 histories and no reset ever resurrected a retired version");
}

#[test]
fn retiring_after_the_last_collecting_checkpoint_is_caught() {
    let case = refuted_within(Rule::RetireAfterPass, false, 300);
    assert!(case.is_some(), "300 histories and nothing dead-looking after the pass was missed");
}

/// PR 13's bug as a mutant: the property above is the positive control (the
/// sound rebuild is never refuted), and a rebuild that never saw the resets
/// must resurrect a discarded version within a few histories.
#[test]
fn a_rebuild_that_forgets_the_global_resets_is_caught() {
    let histories = arb_history(true);
    let refuted = (0..50).any(|case| {
        let h = histories.generate(&mut Rng::for_case(case));
        live_agrees_with_its_rebuild(&h, true).is_err()
    });
    assert!(refuted, "50 histories and no forgotten reset ever showed");
}

/// A producer (0) and a consumer (1), the only registered components, in
/// step for `steps` and checkpointing every fourth, journalled in
/// `segment_bytes` segments and flushed; `once` is issued before the first
/// step and `every_step` in each.
fn coupled_life(
    segment_bytes: u64,
    steps: u32,
    once: &[Op],
    every_step: &[Op],
) -> (LoggingBackend, Vec<Record>, Driver) {
    let cfg = LogConfig { segment_bytes, flush: FlushPolicy::PerBatch { records: 16 } };
    let mem = MemMedia::new();
    let mut b = LoggingBackend::new();
    b.register_app(0);
    b.register_app(1);
    b.attach_journal(Box::new(LogStore::open(Box::new(mem.clone()), cfg).unwrap()));
    let mut driver = Driver::default();
    for op in once {
        driver.apply(&mut b, op);
    }
    for step in 1..=steps {
        driver.apply(&mut b, &Op::Put { app: 0, var: 0, block: 0, late: 0 });
        driver.apply(&mut b, &Op::Get { app: 1, var: 0, block: 0, ahead: 0 });
        for op in every_step {
            driver.apply(&mut b, op);
        }
        if step % 4 == 0 {
            driver.apply(&mut b, &Op::Checkpoint(0));
            driver.apply(&mut b, &Op::Checkpoint(1));
        }
        driver.apply(&mut b, &Op::Step(0));
        driver.apply(&mut b, &Op::Step(1));
    }
    b.flush_journal();
    let records = LogStore::open(Box::new(mem), cfg).unwrap().read_all().unwrap();
    (b, records, driver)
}

/// ROADMAP item 2, the ninth bug found by reading — pinned here, not fixed.
/// `LoggingBackend::control` compacts below `min(floor, data_floor)`, and
/// `data_floor` is the lowest *newest* version over all variables: a variable
/// written once (a mesh, a geometry) holds it at 1 and no segment is ever
/// deleted. What the reader owes that journal: it still materialises what is
/// live plus the markers, and the rebuild is the full one.
#[test]
fn a_variable_written_once_pins_compaction_and_the_reader_still_reads_what_is_live() {
    let run = |mesh: &[Op]| {
        let (b, records, driver) = coupled_life(1024, 400, mesh, &[]);
        (b.journal_segments_compacted(), records, driver)
    };
    let mesh = [Op::Put { app: 1, var: 1, block: 0, late: 0 }];
    let (compacted, records, _) = run(&[]);
    assert!(compacted > 100, "{compacted} segments compacted");
    assert!(records.len() < 20, "{} records left", records.len());

    let (compacted, records, driver) = run(&mesh);
    assert_eq!(compacted, 0, "the bug is fixed: move this to a regression test");
    assert_eq!(records.len(), 1 + 400 * 2 + 200);
    let lean = wfcr::journal::decode_records(&records);
    // 200 markers, the mesh, and the last step's put (its get went with the
    // last checkpoint).
    assert_eq!(lean.len(), 202);
    let second_life = [
        Op::Recover { app: 1, older: false, reexecute: true },
        Op::Get { app: 1, var: 1, block: 0, ahead: 0 },
        Op::Checkpoint(0),
    ];
    agree(rebuilds(&records, lean, &[0, 1]), true, &driver, &second_life).unwrap();
}

/// ROADMAP item 2, the tenth finding — found by `live_agrees_with_its_rebuild`,
/// pinned here, not fixed. `EventQueue::truncate_through` drops nothing while
/// the queue has seen no checkpoint, so the queue of a component that never
/// registered and never checkpoints keeps every event it ever logged; journal
/// compaction deletes the segments below the floor all the same. After a cold
/// restart that component's replay window is shorter than the one the live
/// server held — and with nothing compacted, the two are equal.
#[test]
fn a_component_that_never_checkpoints_keeps_a_queue_its_compacted_journal_cannot_rebuild() {
    let reader = [Op::Get { app: 3, var: 0, block: 0, ahead: 0 }];
    let life = |segment_bytes| {
        let (live, records, driver) = coupled_life(segment_bytes, 40, &[], &reader);
        let compacted = live.journal_segments_compacted();
        let rebuilt =
            LoggingBackend::from_journal(wfcr::journal::decode_records(&records), &[0, 1]);
        let held = [&live, &rebuilt].map(|b| b.queue(3).unwrap().transport_len());
        (compacted, held, [live, rebuilt], driver)
    };
    let recover = [Op::Recover { app: 3, older: false, reexecute: true }];

    let (compacted, held, backends, driver) = life(1 << 20);
    assert_eq!((compacted, held), (0, [40, 40]));
    agree(backends, true, &driver, &recover).unwrap();

    let (compacted, [live, rebuilt], backends, driver) = life(1024);
    assert!(compacted > 0);
    assert_eq!(live, 40, "the live queue is bounded now: a finding of its own");
    assert!(
        rebuilt < live,
        "the divergence is gone: compare every queue in `live_agrees_with_its_rebuild` \
         whatever was compacted, and turn this into a regression test"
    );
    // Nothing else differs, and the difference is one a request can see:
    // the component's rollback is told of a shorter replay.
    agree(backends, false, &driver, &[]).unwrap();
    let (.., backends, driver) = life(1024);
    let seen = agree(backends, false, &driver, &recover).unwrap_err();
    assert!(seen.contains("pending_replay: 40"), "{seen}");
}
