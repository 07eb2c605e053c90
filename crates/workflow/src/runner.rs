//! Build an engine from a [`WorkflowConfig`], run it, distill a
//! [`RunReport`].

use crate::backend::AnyBackend;
use crate::component::{ComponentActor, Fail, StartStep};
use crate::config::{FailureSpec, WorkflowConfig};
use crate::director::{Director, DirectorComponent};
use crate::report::RunReport;
use net::des::{Network, NetworkHandle};
use sim_core::engine::Engine;
use sim_core::time::SimTime;
use staging::server::StagingServerActor;
use staging::service::{ServerLogic, StoreBackend};
use wfcr::protocol::{FtScheme, WorkflowProtocol};

/// Safety valve: a run dispatching more events than this is assumed wedged.
const MAX_EVENTS: u64 = 200_000_000;

/// Fixed failover/detection cost before a failed staging server's rebuild
/// starts.
const STAGING_FAILOVER: SimTime = SimTime::from_millis(200);

/// Reed–Solomon data shards of the staged data (the CoREC substrate's
/// RS(8, m)): rebuilding one lost byte ingests this many surviving bytes
/// through the rebuilding server's NIC.
const STAGING_RS_K: f64 = 8.0;

/// Resolve every [`FailureSpec::Mtbf`] into concrete [`FailureSpec::At`]
/// entries. Deterministic given `cfg.seed`, and independent of the protocol,
/// so the *same* failures can be injected into Co/Un/Hy/In variants of one
/// experiment — the apples-to-apples comparison the paper's figures assume.
pub fn materialize_failures(cfg: &WorkflowConfig) -> Vec<FailureSpec> {
    let mut frng = sim_core::rng::Xoshiro256StarStar::seed_from_u64(cfg.seed ^ 0xFA11);
    // Rough run-length estimate for keeping sampled failures inside the run
    // window (the paper injects failures "within 40 time steps").
    let est =
        cfg.components.iter().map(|c| c.compute_per_step.as_secs_f64()).fold(0.0_f64, f64::max)
            * cfg.total_steps as f64
            * 1.15;
    let total_ranks: u64 = cfg.components.iter().map(|c| c.ranks as u64).sum();
    let mut out = Vec::new();
    for spec in &cfg.failures {
        match spec {
            FailureSpec::At { .. }
            | FailureSpec::StagingAt { .. }
            | FailureSpec::NetFaults { .. }
            | FailureSpec::PoisonPut { .. } => out.push(spec.clone()),
            FailureSpec::Mtbf { mtbf_secs, count } => {
                let mut t = 0.0;
                for _ in 0..*count {
                    // Exponential inter-arrival, rejected back into the run
                    // window.
                    let mut dt = frng.next_exponential(*mtbf_secs);
                    let mut tries = 0;
                    while t + dt > est * 0.9 && tries < 100 {
                        dt = frng.next_exponential(*mtbf_secs);
                        tries += 1;
                    }
                    if t + dt > est * 0.9 {
                        dt = est * 0.5 * frng.next_f64();
                        t = 0.0;
                    }
                    t += dt;
                    // Victim weighted by rank count.
                    let pick = frng.next_bounded(total_ranks);
                    let mut acc = 0u64;
                    let mut victim = 0usize;
                    for (i, c) in cfg.components.iter().enumerate() {
                        acc += c.ranks as u64;
                        if pick < acc {
                            victim = i;
                            break;
                        }
                    }
                    out.push(FailureSpec::At {
                        at: SimTime::from_secs_f64(t),
                        app: cfg.components[victim].app,
                    });
                }
            }
        }
    }
    out
}

/// A fully wired engine, paused before its first event, plus the actor ids
/// needed to drive and harvest it. Produced by [`build`]; the normal runner
/// immediately executes it, while the model-checking mode
/// ([`crate::mcheck_mode`]) first installs a controlled scheduler, fault
/// spaces, or seeded violations.
pub struct BuiltWorkflow {
    /// The engine with kickoff events scheduled but not yet dispatched.
    pub engine: Engine,
    /// The resolved configuration (hybrid replication substitution applied).
    pub cfg: WorkflowConfig,
    /// Component actor ids, in `cfg.components` order.
    pub comp_ids: Vec<usize>,
    /// Staging server actor ids, in server-index order.
    pub server_ids: Vec<usize>,
    /// Director actor id.
    pub dir_id: usize,
    /// Network actor id.
    pub net_id: usize,
    /// The shared recorder every actor writes spans into. Disabled (all
    /// operations no-ops) unless `cfg.trace` asks for recording.
    pub tracer: obs::Tracer,
    /// Telemetry scraper actor id, when `cfg.telemetry` enables the
    /// windowed time series.
    pub tel_id: Option<usize>,
}

/// Execute one workflow run and report.
pub fn run(cfg: &WorkflowConfig) -> RunReport {
    let mut built = build(cfg);
    built.engine.run_limited(MAX_EVENTS);
    harvest(&mut built)
}

/// Execute one workflow run and return both the report and the recorded
/// trace. The trace is empty unless `cfg.trace` enables recording (see
/// [`crate::config::TraceCfg`]); with a flight-recorder cap only the last
/// `cap` records survive.
pub fn run_traced(cfg: &WorkflowConfig) -> (RunReport, obs::Trace) {
    let mut built = build(cfg);
    built.engine.run_limited(MAX_EVENTS);
    let report = harvest(&mut built);
    (report, built.tracer.finish())
}

/// Construct the fully wired engine for `cfg`: actors, endpoints, failure
/// plan, and kickoff events — everything up to (but excluding) the first
/// dispatched event.
pub fn build(cfg: &WorkflowConfig) -> BuiltWorkflow {
    let mut cfg = cfg.clone();
    // Under the hybrid protocol the analytics components use process
    // replication (paper §III-B: "a simulation employs checkpoint/restart
    // approach meanwhile the analytic uses process replication").
    if cfg.protocol == WorkflowProtocol::Hybrid {
        for c in cfg.components.iter_mut() {
            if c.role == crate::config::Role::Consumer {
                c.scheme = FtScheme::Replication;
            }
        }
    }

    let mut engine = Engine::new(cfg.seed);
    let mut network = Network::new(cfg.net);
    // The logging backend's GC waits for the components that can roll back.
    // A replicated one never replays, so it must not pin the floor.
    let apps: Vec<u32> =
        cfg.components.iter().filter(|c| c.scheme.rolls_back()).map(|c| c.app).collect();
    // Observability: one shared recorder, cloned into every actor. Span ids
    // and timestamps come from the engine's virtual clock and dispatch
    // counter, so recording is deterministic and cannot perturb the run.
    let tracer = match &cfg.trace {
        None => obs::Tracer::off(),
        Some(t) => match t.flight_cap {
            None => obs::Tracer::full(),
            Some(cap) => obs::Tracer::flight(cap),
        },
    };

    // 1. Component actors.
    let mut comp_ids = Vec::new();
    for c in &cfg.components {
        let rng = engine.rng_mut().split();
        let actor = ComponentActor::new(&cfg, c.clone(), rng);
        comp_ids.push(engine.add_actor(Box::new(actor)));
    }

    // 2. Staging server actors. With durability on, each server's logging
    // backend journals its history through a segmented log store: real files
    // under `dir/server{i}` or per-server in-memory media when no dir is
    // given. Durability without a log is refused, not silently dropped.
    cfg.check_durability().expect("invalid durability config");
    let mut server_ids = Vec::new();
    for s in 0..cfg.nservers {
        let mut backend = AnyBackend::for_protocol(cfg.protocol, &apps, cfg.log_gc);
        if let (Some(d), Some(b)) = (&cfg.durability, backend.as_logging_mut()) {
            let media: Box<dyn logstore::Media> = match &d.dir {
                Some(dir) => Box::new(
                    logstore::FsMedia::new(std::path::Path::new(dir).join(format!("server{s}")))
                        .expect("create durable journal directory"),
                ),
                None => Box::new(logstore::MemMedia::new()),
            };
            let log = logstore::LogStore::open(media, d.log_config())
                .expect("open durable staging journal");
            b.attach_journal_coalesced(Box::new(log), d.coalesce);
        }
        let logic = ServerLogic::new(backend, cfg.server_costs);
        let actor = StagingServerActor::new(s, logic, NetworkHandle { actor: 0 }, 0);
        server_ids.push(engine.add_actor(Box::new(actor)));
    }

    // 3. Director.
    let dir_components: Vec<DirectorComponent> = cfg
        .components
        .iter()
        .zip(&comp_ids)
        .map(|(c, &actor)| DirectorComponent {
            app: c.app,
            actor,
            ranks: c.ranks,
            spares: c.spares,
            state_bytes: c.state_bytes,
        })
        .collect();
    let director = Director::new(
        dir_components,
        cfg.ulfm.collectives,
        cfg.ulfm,
        cfg.pfs,
        cfg.ckpt_target,
        cfg.node_local,
        cfg.reconnect_per_rank,
    );
    let dir_id = engine.add_actor(Box::new(director));

    // 4. Endpoints, then the network actor itself.
    let comp_eps: Vec<usize> = comp_ids.iter().map(|&id| network.register(id)).collect();
    let server_eps: Vec<usize> = server_ids.iter().map(|&id| network.register(id)).collect();
    let dir_ep = network.register(dir_id);
    // Network fault injection (independent of the protocol): install the
    // plan before the network actor is registered, and exempt the director's
    // coordination channel — the faulted surface is the staging data path.
    let fault_plan = cfg.failures.iter().find_map(|s| match s {
        FailureSpec::NetFaults { plan } => Some(plan.clone()),
        _ => None,
    });
    if let Some(plan) = &fault_plan {
        plan.validate().expect("invalid network fault plan");
        network.set_fault_plan(plan.clone());
        network.exempt_from_faults(dir_ep);
    }
    let net_id = engine.add_actor(Box::new(network));
    let handle = NetworkHandle { actor: net_id };

    // 5. Wire everyone.
    for (i, &cid) in comp_ids.iter().enumerate() {
        let c = engine.actor_as_mut::<ComponentActor>(cid).expect("component actor");
        c.wire(handle, comp_eps[i], server_eps.clone(), dir_id);
        c.set_tracer(tracer.clone());
        if cfg.supervision {
            c.set_supervised();
        }
        if fault_plan.is_some() {
            // Unlimited attempts: virtual time is free, and a wedge from an
            // exhausted budget would mask the fault being studied. Bases are
            // sized to the DES transport's ms-scale RTTs.
            c.enable_retry(faultplane::RetryPolicy {
                max_attempts: 0,
                base_ns: 20_000_000, // 20 ms
                cap_ns: 160_000_000, // 160 ms
                deadline_ns: 0,
                seed: cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            });
        }
    }
    for (i, &srv_id) in server_ids.iter().enumerate() {
        let s =
            engine.actor_as_mut::<StagingServerActor<AnyBackend>>(srv_id).expect("server actor");
        s.wire(handle, server_eps[i]);
        s.set_tracer(tracer.clone());
        if cfg.supervision {
            s.set_supervised();
        }
    }
    let dir = engine.actor_as_mut::<Director>(dir_id).expect("director");
    dir.wire(handle, dir_ep, server_eps.clone());
    dir.set_tracer(tracer.clone());

    // 5a. Poison inputs: not scheduled events but standing state — the
    // victim dies every time it processes the poisoned step's input, until
    // its supervision quarantines it (validate() requires supervision).
    for spec in &cfg.failures {
        if let FailureSpec::PoisonPut { victim, step } = spec {
            let idx =
                cfg.components.iter().position(|c| c.app == *victim).expect("poison victim exists");
            let c = engine.actor_as_mut::<ComponentActor>(comp_ids[idx]).expect("component actor");
            c.set_poison(*step);
        }
    }

    // 6. Failure plan.
    if cfg.protocol != WorkflowProtocol::FailureFree {
        // Rebuild rate: reconstructing one byte of an RS(k, m)-coded object
        // ingests k bytes from surviving servers through the rebuilding
        // server's NIC.
        let nic_bytes_per_s = 1e9 / cfg.net.ns_per_byte;
        let rebuild_per_byte_s = STAGING_RS_K / nic_bytes_per_s;
        let mut warn_rng = sim_core::rng::Xoshiro256StarStar::seed_from_u64(cfg.seed ^ 0x9A9A);
        for spec in materialize_failures(&cfg) {
            match spec {
                FailureSpec::At { at, app } => {
                    let idx = cfg
                        .components
                        .iter()
                        .position(|c| c.app == app)
                        .expect("failure victim exists");
                    engine.schedule_at(at, comp_ids[idx], Fail);
                    // Proactive predictor: warn the victim ahead of time.
                    if let Some(p) = cfg.proactive {
                        if warn_rng.next_bool(p.recall) {
                            let warn_at = at.saturating_sub(p.lead);
                            engine.schedule_at(
                                warn_at,
                                comp_ids[idx],
                                crate::component::FailureWarning,
                            );
                        }
                    }
                }
                FailureSpec::StagingAt { at, server } => {
                    assert!(server < server_ids.len(), "staging server index");
                    engine.schedule_at(
                        at,
                        server_ids[server],
                        staging::server::ServerFail {
                            fixed: STAGING_FAILOVER,
                            per_byte_s: rebuild_per_byte_s,
                        },
                    );
                }
                // Installed on the network / wired in step 5.
                FailureSpec::NetFaults { .. } | FailureSpec::PoisonPut { .. } => {}
                FailureSpec::Mtbf { .. } => unreachable!("materialized"),
            }
        }
    }

    // 6b. Telemetry scraper (telemetry-on runs only). Registered last: the
    // component/server actor-id layout mcheck depends on is load-bearing. The scraper is observational — it reads the
    // registry, never the RNG — so enabling it cannot change the simulated
    // outcome, only the dispatch count (its ticks are events).
    let tel_id = cfg.telemetry.as_ref().map(|t| {
        let tel = crate::telemetry_actor::TelemetryActor::new(t);
        let id = engine.add_actor(Box::new(tel));
        engine.schedule_at(t.window, id, crate::telemetry_actor::Tick);
        id
    });

    // 7. Kick off.
    for &cid in &comp_ids {
        engine.schedule_now(cid, StartStep);
    }
    BuiltWorkflow { engine, cfg, comp_ids, server_ids, dir_id, net_id, tracer, tel_id }
}

/// Distill a completed run into a [`RunReport`]. Asserts every component
/// finished (a wedged run is a bug, not a result).
pub fn harvest(built: &mut BuiltWorkflow) -> RunReport {
    let BuiltWorkflow { engine, cfg, comp_ids, server_ids, dir_id, tracer, tel_id, .. } = built;
    // Journal counters need a flush pre-pass (mutable access) before the
    // read-only sweep: the graceful end of a run drains each server's
    // buffered journal tail so `bytes_flushed` reflects the whole history.
    let mut log_bytes_flushed = 0u64;
    let mut segments_compacted = 0u64;
    let mut journal_group_commits = 0u64;
    let mut journal_records_batched = 0u64;
    if cfg.durability.is_some() {
        for &sid in server_ids.iter() {
            let s =
                engine.actor_as_mut::<StagingServerActor<AnyBackend>>(sid).expect("server actor");
            let Some(b) = s.logic_mut().backend_mut().as_logging_mut() else { continue };
            b.flush_journal();
            let j = b.journal_stats();
            log_bytes_flushed += j.bytes_flushed;
            segments_compacted += j.segments_compacted;
            journal_group_commits += j.group_commits;
            journal_records_batched += j.records_batched;
        }
    }
    let m = engine.metrics().clone();
    let dir = engine.actor_as::<Director>(*dir_id).expect("director");
    let mut finish_times_s: Vec<(u32, f64)> =
        dir.finish_times().iter().map(|(&app, &t)| (app, t.as_secs_f64())).collect();
    finish_times_s.sort_unstable_by_key(|&(app, _)| app);
    if finish_times_s.len() != cfg.components.len() {
        dump_wedge_diagnostics(tracer, &cfg.label);
    }
    assert_eq!(
        finish_times_s.len(),
        cfg.components.len(),
        "workflow did not complete: {} of {} components finished (label {})",
        finish_times_s.len(),
        cfg.components.len(),
        cfg.label
    );
    let total_time_s = finish_times_s.iter().map(|&(_, t)| t).fold(0.0, f64::max);

    // Telemetry: flush the final (partial) window against the end-of-run
    // registry and detach the series.
    let series = tel_id.map(|tid| {
        let end_ns = engine.now().0;
        let tel = engine
            .actor_as_mut::<crate::telemetry_actor::TelemetryActor>(tid)
            .expect("telemetry actor");
        tel.harvest(end_ns, &m)
    });

    let mut staging_peak_bytes = 0u64;
    let mut absorbed = 0u64;
    let mut replayed = 0u64;
    let mut mismatches = 0u64;
    let mut gc_reclaimed = 0u64;
    let mut staging_rebuilds = 0u64;
    let mut stale_gets = 0u64;
    let sharded = cfg.sharding.is_some();
    let mut shard_puts = Vec::new();
    for (i, &sid) in server_ids.iter().enumerate() {
        staging_peak_bytes += m.gauge(&format!("staging.server{i}.bytes")).peak.max(0) as u64;
        let s = engine.actor_as::<StagingServerActor<AnyBackend>>(sid).expect("server actor");
        staging_rebuilds += u64::from(s.rebuilds());
        stale_gets += s.logic().backend().stale_gets();
        if sharded {
            shard_puts.push(s.logic().puts_served());
        }
        if let Some(lb) = s.logic().backend().as_logging() {
            absorbed += lb.absorbed_puts();
            replayed += lb.replayed_gets();
            mismatches += lb.digest_mismatches();
            gc_reclaimed += lb.gc_reclaimed();
        }
    }

    let steps_executed = comp_ids
        .iter()
        .map(|&cid| engine.actor_as::<ComponentActor>(cid).expect("component").steps_executed())
        .sum();

    RunReport {
        label: cfg.label.clone(),
        protocol: cfg.protocol,
        total_time_s,
        finish_times_s,
        cumulative_put_response_s: m.stream("wf.put_response_s").sum(),
        staging_peak_bytes,
        absorbed_puts: absorbed,
        replayed_gets: replayed,
        digest_mismatches: mismatches,
        stale_gets,
        gc_reclaimed_bytes: gc_reclaimed,
        staging_rebuilds,
        steps_executed,
        events_dispatched: engine.dispatched(),
        log_bytes_flushed,
        segments_compacted,
        journal_group_commits,
        journal_records_batched,
        shard_puts,
        metrics: m.snapshot(),
        series,
    }
}

/// Failure-time flight recorder: when a run wedges, print whatever the
/// recorder retained (the *last* records under a flight cap — exactly the
/// window around the wedge), so the panic that follows carries the evidence
/// and not just a count.
fn dump_wedge_diagnostics(tracer: &obs::Tracer, label: &str) {
    eprintln!("=== wedge diagnostics (label {label}) ===");
    if tracer.enabled() {
        let t = tracer.dump();
        eprintln!("--- recorder: {} trace records ({} dropped) ---", t.records.len(), t.dropped);
        eprint!("{}", t.to_jsonl());
    }
    eprintln!("=== end wedge diagnostics ===");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tiny;

    #[test]
    fn failure_free_tiny_run_completes() {
        let r = run(&tiny(WorkflowProtocol::FailureFree));
        assert_eq!(r.protocol, WorkflowProtocol::FailureFree);
        assert!(r.total_time_s > 0.0);
        assert_eq!(r.finish_times_s.len(), 2);
        // 12 steps × 8 blocks of 32³ in a 64³ domain per component.
        assert_eq!(r.puts(), 12 * 8);
        assert_eq!(r.gets(), 12 * 8);
        assert_eq!(r.ckpts(), 0);
        assert_eq!(r.recoveries(), 0);
        assert_eq!(r.digest_mismatches, 0);
        assert_eq!(r.steps_executed, 24);
    }

    #[test]
    fn uncoordinated_failure_free_checkpoints() {
        let r = run(&tiny(WorkflowProtocol::Uncoordinated));
        // sim: periods 4 → steps 4,8,12 = 3 ckpts; ana: period 5 → 5,10 = 2.
        assert_eq!(r.ckpts(), 5);
        assert_eq!(r.recoveries(), 0);
        assert!(r.staging_peak_bytes > 0);
    }

    #[test]
    fn coordinated_rendezvous_checkpoints() {
        let r = run(&tiny(WorkflowProtocol::Coordinated));
        // Global period 4 over 12 steps → 3 coordinated checkpoints; both
        // components count each → 6 component-level ckpts.
        assert_eq!(r.ckpts(), 6);
    }

    #[test]
    fn deterministic_runs() {
        let a = run(&tiny(WorkflowProtocol::Uncoordinated));
        let b = run(&tiny(WorkflowProtocol::Uncoordinated));
        assert_eq!(a.total_time_s, b.total_time_s);
        assert_eq!(a.events_dispatched, b.events_dispatched);
        assert_eq!(a.staging_peak_bytes, b.staging_peak_bytes);
    }

    /// `events_dispatched` is the numerator of hostbench's
    /// `sim_events_per_s`: a change that claims to dispatch events faster
    /// must dispatch the same events.
    #[test]
    fn table3_event_counts_are_pinned() {
        use WorkflowProtocol::{Coordinated, Hybrid, Individual, Uncoordinated};
        let pinned =
            [(Coordinated, 3980), (Uncoordinated, 6661), (Hybrid, 5377), (Individual, 3461)];
        for (protocol, events) in pinned {
            let r = run(&crate::config::table3(0, protocol, 1));
            assert_eq!(r.events_dispatched, events, "{protocol:?}");
        }
    }

    #[test]
    fn logging_memory_exceeds_plain() {
        let ds = run(&tiny(WorkflowProtocol::FailureFree));
        let un = run(&tiny(WorkflowProtocol::Uncoordinated));
        assert!(
            un.staging_peak_bytes > ds.staging_peak_bytes,
            "log retention must cost memory: {} vs {}",
            un.staging_peak_bytes,
            ds.staging_peak_bytes
        );
    }

    #[test]
    fn producer_failure_recovers_with_absorption() {
        use crate::config::FailureSpec;
        let cfg = tiny(WorkflowProtocol::Uncoordinated).with_failures(vec![FailureSpec::At {
            at: sim_core::time::SimTime::from_millis(700), // mid-run
            app: 0,
        }]);
        let r = run(&cfg);
        assert_eq!(r.recoveries(), 1);
        assert!(r.absorbed_puts > 0, "re-puts must be absorbed");
        assert_eq!(r.digest_mismatches, 0);
        assert!(r.steps_executed > 24, "re-execution happened");
    }

    #[test]
    fn consumer_failure_recovers_with_replay() {
        use crate::config::FailureSpec;
        let cfg = tiny(WorkflowProtocol::Uncoordinated).with_failures(vec![FailureSpec::At {
            at: sim_core::time::SimTime::from_millis(700),
            app: 1,
        }]);
        let r = run(&cfg);
        assert_eq!(r.recoveries(), 1);
        assert!(r.replayed_gets > 0, "re-reads must come from the log");
        assert_eq!(r.digest_mismatches, 0);
    }

    #[test]
    fn coordinated_failure_rolls_back_everyone() {
        use crate::config::FailureSpec;
        let cfg = tiny(WorkflowProtocol::Coordinated).with_failures(vec![FailureSpec::At {
            at: sim_core::time::SimTime::from_millis(700),
            app: 0,
        }]);
        let r = run(&cfg);
        // Global rollback counts one recovery per component, and only the
        // components count it: the director adds none of its own.
        assert_eq!(r.recoveries(), 2);
        assert_eq!(r.metrics.counter("wf.recoveries"), 2);
    }

    #[test]
    fn hybrid_analytics_failure_is_failover() {
        use crate::config::FailureSpec;
        let cfg = tiny(WorkflowProtocol::Hybrid).with_failures(vec![FailureSpec::At {
            at: sim_core::time::SimTime::from_millis(700),
            app: 1,
        }]);
        let r = run(&cfg);
        assert_eq!(r.recoveries(), 0, "replicated analytics never rolls back");
        assert_eq!(r.failovers(), 1);
    }

    #[test]
    fn uncoordinated_beats_coordinated_under_failure() {
        use crate::config::FailureSpec;
        let fail = vec![FailureSpec::At { at: sim_core::time::SimTime::from_millis(700), app: 1 }];
        let co = run(&tiny(WorkflowProtocol::Coordinated).with_failures(fail.clone()));
        let un = run(&tiny(WorkflowProtocol::Uncoordinated).with_failures(fail));
        assert!(
            un.total_time_s < co.total_time_s,
            "Un ({}) must beat Co ({}) when the small analytics fails",
            un.total_time_s,
            co.total_time_s
        );
    }

    fn lossy_plan(seed: u64) -> faultplane::FaultPlan {
        faultplane::FaultPlan {
            seed,
            rates: faultplane::FaultRates {
                drop: 0.05,
                duplicate: 0.10,
                reorder: 0.05,
                delay: 0.10,
                max_extra_delay_ns: 500_000,
            },
            windows: Vec::new(),
        }
    }

    #[test]
    fn net_faults_are_ridden_out_by_retries() {
        let cfg = tiny(WorkflowProtocol::Uncoordinated).with_net_faults(lossy_plan(7));
        let r = run(&cfg);
        assert_eq!(r.puts(), 12 * 8, "every put must eventually land");
        assert_eq!(r.gets(), 12 * 8);
        assert_eq!(r.digest_mismatches, 0);
        assert!(r.net_retries() > 0, "a 5% drop rate over ~200 requests must retry");
    }

    #[test]
    fn net_faults_compose_with_component_failure() {
        use crate::config::FailureSpec;
        let cfg = tiny(WorkflowProtocol::Uncoordinated)
            .with_failures(vec![FailureSpec::At {
                at: sim_core::time::SimTime::from_millis(700),
                app: 0,
            }])
            .with_net_faults(lossy_plan(11));
        let r = run(&cfg);
        assert_eq!(r.recoveries(), 1);
        assert_eq!(r.digest_mismatches, 0, "replay must stay exact under dup/drop/reorder");
        assert!(r.absorbed_puts > 0);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let cfg = tiny(WorkflowProtocol::Uncoordinated).with_net_faults(lossy_plan(3));
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.total_time_s, b.total_time_s);
        assert_eq!(a.events_dispatched, b.events_dispatched);
        assert_eq!(a.net_retries(), b.net_retries());
    }

    #[test]
    fn durable_runner_emits_journal_counters() {
        let cfg = tiny(WorkflowProtocol::Uncoordinated)
            .with_durability(crate::config::DurabilityCfg::default());
        let r = run(&cfg);
        assert!(r.log_bytes_flushed > 0, "durable run must flush journal bytes");
        // Journaling must not perturb the simulated execution.
        let plain = run(&tiny(WorkflowProtocol::Uncoordinated));
        assert_eq!(r.total_time_s, plain.total_time_s);
        assert_eq!(r.events_dispatched, plain.events_dispatched);
        assert_eq!(plain.log_bytes_flushed, 0);
        // And the durable counters themselves are deterministic.
        let again = run(&cfg);
        assert_eq!(again.log_bytes_flushed, r.log_bytes_flushed);
        assert_eq!(again.segments_compacted, r.segments_compacted);
    }

    #[test]
    #[should_panic(expected = "invalid durability config")]
    fn build_refuses_durability_without_a_log() {
        build(
            &tiny(WorkflowProtocol::Coordinated)
                .with_durability(crate::config::DurabilityCfg::default()),
        );
    }
}
