//! Observability guarantees: recording must be deterministic, causal, and
//! inert.
//!
//! Three claims are checked here:
//!
//! 1. **Byte-determinism** — two same-seed traced runs export byte-identical
//!    JSONL and Perfetto files (goldens are cross-run, not checked-in).
//! 2. **Causality** — a crash/recovery run's trace actually tells the
//!    story: one put is a single causal tree spanning the client RPC span
//!    and the server's absorb/dedup decision plus its log append; a
//!    consumer's replayed read is marked as served from the log; recovery is
//!    a root span with ULFM/restore/replay phase children.
//! 3. **Inertness** — recording must not perturb the run. A traced run and
//!    an untraced run of the same configuration produce identical
//!    consistency-relevant outputs (replay-equivalence for the recorder).

use obs::analyze;
use obs::RecordKind;
use wfcr::protocol::WorkflowProtocol;
use workflow::config::{tiny, FailureSpec, TraceCfg, WorkflowConfig};
use workflow::runner::{run, run_traced};

fn failing(app: u32) -> WorkflowConfig {
    tiny(WorkflowProtocol::Uncoordinated)
        .with_failures(vec![FailureSpec::At { at: sim_core::time::SimTime::from_millis(700), app }])
}

/// All spans (Begin records) named `name`, with the track name attached.
fn spans_named<'a>(t: &'a obs::Trace, name: &str) -> Vec<&'a obs::Record> {
    t.records.iter().filter(|r| r.k == RecordKind::Begin && r.name == name).collect()
}

fn has_arg(r: &obs::Record, k: &str, v: &str) -> bool {
    r.args.iter().any(|a| a.k == k && a.v == v)
}

#[test]
fn traced_exports_are_byte_identical_across_runs() {
    let cfg = failing(1).with_tracing(TraceCfg::full());
    let (ra, ta) = run_traced(&cfg);
    let (rb, tb) = run_traced(&cfg);
    assert_eq!(ra.events_dispatched, rb.events_dispatched);
    assert_eq!(ta.to_jsonl(), tb.to_jsonl(), "JSONL export must be byte-identical");
    assert_eq!(ta.to_perfetto(), tb.to_perfetto(), "Perfetto export must be byte-identical");
    // And the export round-trips losslessly.
    let back = obs::Trace::from_jsonl(&ta.to_jsonl()).expect("parse");
    assert_eq!(back, ta);
}

#[test]
fn recorder_is_inert_replay_equivalence() {
    for cfg in [tiny(WorkflowProtocol::Uncoordinated), failing(0), failing(1)] {
        let off = run(&cfg);
        let (full, _) = run_traced(&cfg.with_tracing(TraceCfg::full()));
        let (flight, _) = run_traced(&cfg.with_tracing(TraceCfg::flight(128)));
        for on in [&full, &flight] {
            assert_eq!(on.total_time_s, off.total_time_s, "{}", cfg.label);
            assert_eq!(on.events_dispatched, off.events_dispatched, "{}", cfg.label);
            assert_eq!(on.puts(), off.puts());
            assert_eq!(on.gets(), off.gets());
            assert_eq!(on.absorbed_puts, off.absorbed_puts);
            assert_eq!(on.replayed_gets, off.replayed_gets);
            assert_eq!(on.digest_mismatches, off.digest_mismatches);
            assert_eq!(on.staging_peak_bytes, off.staging_peak_bytes);
            assert_eq!(on.recoveries(), off.recoveries());
            assert_eq!(on.steps_executed, off.steps_executed);
        }
    }
}

#[test]
fn crash_recovery_trace_is_a_causal_story() {
    // Consumer (app 1) fails: its re-reads replay from the log.
    let (report, trace) = run_traced(&failing(1).with_tracing(TraceCfg::full()));
    assert_eq!(report.recoveries(), 1);
    assert!(report.replayed_gets > 0);
    analyze::validate(&trace).expect("trace validates");

    // One put is one causal tree: a client `put` span whose trace id also
    // covers a server `serve.put` span and that server's `log.append`.
    let client_put = spans_named(&trace, "put");
    assert!(!client_put.is_empty(), "client put spans recorded");
    let tr = client_put[0].tr;
    let serve = trace
        .records
        .iter()
        .find(|r| r.k == RecordKind::Begin && r.name == "serve.put" && r.tr == tr)
        .expect("server serve.put joins the client's causal tree");
    assert!(has_arg(serve, "decision", "stored"));
    assert!(
        trace
            .records
            .iter()
            .any(|r| r.k == RecordKind::Instant && r.name == "log.append" && r.tr == tr),
        "the log append is part of the same tree"
    );

    // The replayed get is visibly served from the log.
    let replayed = spans_named(&trace, "serve.get")
        .into_iter()
        .filter(|r| has_arg(r, "decision", "replayed"))
        .count();
    assert!(replayed > 0, "replayed serves are marked");

    // Recovery is a root span with its phases as children.
    let paths = analyze::recovery_paths(&trace);
    assert_eq!(paths.len(), 1, "one recovery, one path");
    let names: Vec<&str> = paths[0].phases.iter().map(|p| p.name.as_str()).collect();
    assert!(names.contains(&"ulfm"), "phases: {names:?}");
    assert!(names.contains(&"restore"), "phases: {names:?}");
    assert!(names.contains(&"replay"), "phases: {names:?}");
    let total: u64 = paths[0].phases.iter().map(|p| p.dur_ns).sum();
    assert!(total <= paths[0].total_ns, "phases nest inside the recovery root");
}

#[test]
fn producer_failure_traces_absorbed_reputs() {
    // Producer (app 0) fails: its deterministic re-puts are absorbed.
    let (report, trace) = run_traced(&failing(0).with_tracing(TraceCfg::full()));
    assert!(report.absorbed_puts > 0);
    let absorbed = spans_named(&trace, "serve.put")
        .into_iter()
        .filter(|r| has_arg(r, "decision", "absorbed"))
        .count();
    assert_eq!(absorbed as u64, report.absorbed_puts, "every absorb decision is traced");
}

#[test]
fn net_retries_appear_as_resend_instants() {
    let plan = faultplane::FaultPlan {
        seed: 7,
        rates: faultplane::FaultRates {
            drop: 0.05,
            duplicate: 0.10,
            reorder: 0.05,
            delay: 0.10,
            max_extra_delay_ns: 500_000,
        },
        windows: Vec::new(),
    };
    let cfg =
        tiny(WorkflowProtocol::Uncoordinated).with_net_faults(plan).with_tracing(TraceCfg::full());
    let (report, trace) = run_traced(&cfg);
    assert!(report.net_retries() > 0);
    let resends =
        trace.records.iter().filter(|r| r.k == RecordKind::Instant && r.name == "resend").count();
    assert!(resends > 0, "retries must surface as resend instants");
    // A dup-acked RPC still closes exactly once.
    analyze::validate(&trace).expect("trace validates under net faults");
}

#[test]
fn flight_recorder_caps_retention_and_counts_shed() {
    let cfg = failing(1).with_tracing(TraceCfg::flight(64));
    let (_, trace) = run_traced(&cfg);
    assert!(trace.records.len() <= 64, "cap respected: {}", trace.records.len());
    assert!(trace.dropped > 0, "a full run sheds records past the cap");
}

#[test]
fn durable_runs_trace_journal_flushes() {
    // With a per-record flush policy every logged op pushes the journal's
    // flushed-bytes counter forward, so the server track must show
    // `journal.flush` instants nested in the serve spans that caused them.
    let cfg = tiny(WorkflowProtocol::Uncoordinated)
        .with_durability(workflow::DurabilityCfg {
            dir: None,
            segment_bytes: 16 * 1024,
            flush: logstore::FlushPolicy::PerRecord,
            // No coalescing: each logged op reaches the sink (and under
            // PerRecord, the media) individually, so every serve span gets
            // its own `journal.flush` instant.
            coalesce: 1,
        })
        .with_tracing(TraceCfg::full());
    let (report, trace) = run_traced(&cfg);
    assert!(report.log_bytes_flushed > 0, "durable run flushed the journal");
    let flushes: Vec<_> = trace
        .records
        .iter()
        .filter(|r| r.k == RecordKind::Instant && r.name == "journal.flush")
        .collect();
    assert!(!flushes.is_empty(), "journal flushes surface as trace instants");
    // Each flush instant hangs off a serve span's causal tree.
    for f in &flushes {
        assert!(f.par != 0, "journal.flush nests under the serving op's span");
    }
    analyze::validate(&trace).expect("trace validates with durability on");
}

#[test]
fn report_json_line_round_trips() {
    let (report, _) = run_traced(&failing(1).with_tracing(TraceCfg::full()));
    let line = report.to_json_line();
    assert!(!line.contains('\n'));
    let back: workflow::RunReport = serde_json::from_str(&line).expect("parse");
    assert_eq!(back.replayed_gets, report.replayed_gets);
    assert_eq!(back.metrics, report.metrics);
    assert_eq!(back.puts(), report.puts());
}
