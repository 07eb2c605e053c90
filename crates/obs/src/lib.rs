#![forbid(unsafe_code)]

//! Deterministic observability for the workflow simulator.
//!
//! Everything here is built on the engine's *virtual* clock and dispatch
//! sequence counter — there is no wall-clock read anywhere in this crate, so
//! a trace is a pure function of the configuration and seed, and two runs of
//! the same experiment produce byte-identical exports.
//!
//! The model is a narrow slice of distributed tracing:
//!
//! * a [`Record`] is one trace event — span begin/end, instant, or metadata —
//!   stamped with virtual nanoseconds (`t`) and the engine dispatch sequence
//!   number (`seq`, the total-order tiebreak for simultaneous events);
//! * a [`TraceCtx`] is the wire-format causal context `{trace, parent}`
//!   carried inside staging requests, so a server-side span can attach to the
//!   client-side span that caused it;
//! * a [`Tracer`] is the cheap cloneable handle actors hold. A disabled
//!   tracer (`Tracer::off()`) is a `None` and every call on it is a no-op, so
//!   instrumentation-off runs do no extra work and allocate nothing;
//! * a [`Recorder`] is where records go: [`FullRecorder`] keeps everything
//!   (the JSONL / Perfetto export source), and [`FlightRecorder`] keeps a
//!   bounded ring of the most recent records for post-mortem dumps on
//!   failure.
//!
//! Span and trace identifiers are allocated from a per-tracer monotonic
//! counter. Allocation happens in engine-dispatch order, which is itself
//! deterministic, so identifiers are reproducible across runs; in threaded
//! mode each thread gets a disjoint id namespace (see [`Tracer::with_sink_base`])
//! and [`merge`] interleaves the per-thread records deterministically.

pub mod analyze;
pub mod export;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A causal trace context as carried on the wire inside staging requests.
///
/// `trace` names the causal tree (the root span's id); `parent` names the
/// span the next record should attach under. The all-zero value
/// ([`TraceCtx::NONE`]) means "not traced" and is what untraced runs put in
/// request headers — `Default` yields it, so existing construction sites and
/// serialized documents keep working.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCtx {
    /// Root span id of the causal tree (0 = untraced).
    pub trace: u64,
    /// Parent span id for records emitted under this context.
    pub parent: u64,
}

impl TraceCtx {
    /// The untraced context.
    pub const NONE: TraceCtx = TraceCtx { trace: 0, parent: 0 };

    /// Is this the untraced context?
    pub fn is_none(&self) -> bool {
        self.trace == 0
    }
}

/// An interned track (one horizontal lane in the viewer): a component, a
/// staging server, the director, the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TrackId(pub u16);

/// One `key=value` annotation on a record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arg {
    /// Key.
    pub k: String,
    /// Value (already rendered; keeps the record schema flat).
    pub v: String,
}

/// Convenience constructor for an [`Arg`].
pub fn arg(k: &str, v: impl std::fmt::Display) -> Arg {
    Arg { k: k.to_string(), v: v.to_string() }
}

/// What a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordKind {
    /// Span open.
    Begin,
    /// Span close (paired with the `Begin` carrying the same `sp`).
    End,
    /// Point event.
    Instant,
    /// Stream metadata (track-name declarations in JSONL exports).
    Meta,
}

/// One trace event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// Kind.
    pub k: RecordKind,
    /// Trace (causal tree) id; 0 for untraced instants and metadata.
    pub tr: u64,
    /// Span id (`Begin`/`End`); 0 for instants and metadata.
    pub sp: u64,
    /// Parent span id; 0 for roots.
    pub par: u64,
    /// Track index (into the trace's track table).
    pub track: u16,
    /// Event name (empty on `End`: the pairing is by `sp`).
    pub name: String,
    /// Virtual time, nanoseconds.
    pub t: u64,
    /// Engine dispatch sequence number at emission (total-order tiebreak).
    pub seq: u64,
    /// Annotations.
    pub args: Vec<Arg>,
}

/// A completed trace: the track table plus the record stream in emission
/// order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Track names, indexed by `Record::track`.
    pub tracks: Vec<String>,
    /// Records in emission order.
    pub records: Vec<Record>,
    /// Records discarded by a bounded sink (flight recorder overflow).
    pub dropped: u64,
}

/// Destination for records. Implementations must be `Send`: in threaded mode
/// a tracer crosses into server threads.
pub trait Recorder: Send {
    /// Accept one record.
    fn record(&mut self, r: Record);
    /// Remove and return everything recorded so far, in order.
    fn drain(&mut self) -> Vec<Record>;
    /// Copy of everything currently held, in order (the flight-dump path —
    /// must not disturb the sink).
    fn snapshot(&self) -> Vec<Record>;
    /// Records discarded so far (bounded sinks only).
    fn dropped(&self) -> u64 {
        0
    }
}

/// Unbounded sink: keeps every record. The source for JSONL and Perfetto
/// exports.
#[derive(Debug, Default)]
pub struct FullRecorder {
    records: Vec<Record>,
}

impl Recorder for FullRecorder {
    fn record(&mut self, r: Record) {
        self.records.push(r);
    }

    fn drain(&mut self) -> Vec<Record> {
        std::mem::take(&mut self.records)
    }

    fn snapshot(&self) -> Vec<Record> {
        self.records.clone()
    }
}

/// Bounded ring sink: keeps the most recent `cap` records and counts what it
/// sheds. Cheap enough to leave always-on; dumped when a run wedges or an
/// oracle fails, so the tail of history leading into the failure survives.
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Vec<Record>,
    cap: usize,
    head: usize,
    shed: u64,
}

impl FlightRecorder {
    /// A ring holding at most `cap` records (`cap >= 1`).
    pub fn new(cap: usize) -> FlightRecorder {
        assert!(cap >= 1, "flight recorder capacity must be nonzero");
        FlightRecorder { buf: Vec::with_capacity(cap.min(1024)), cap, head: 0, shed: 0 }
    }
}

impl Recorder for FlightRecorder {
    fn record(&mut self, r: Record) {
        if self.buf.len() < self.cap {
            self.buf.push(r);
        } else {
            self.buf[self.head] = r;
            self.head = (self.head + 1) % self.cap;
            self.shed += 1;
        }
    }

    fn drain(&mut self) -> Vec<Record> {
        let out = self.snapshot();
        self.buf.clear();
        self.head = 0;
        out
    }

    fn snapshot(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    fn dropped(&self) -> u64 {
        self.shed
    }
}

struct Inner {
    tracks: Vec<String>,
    sink: Box<dyn Recorder>,
    next_span: u64,
}

/// The handle actors hold. Cloning shares the underlying recorder; a
/// disabled tracer (`off`) carries nothing and every operation on it is a
/// no-op, so the instrumented code paths cost nothing when tracing is off.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.enabled()).finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::off()
    }
}

impl Tracer {
    /// The disabled tracer: no allocation, every call a no-op.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer feeding `sink`.
    pub fn with_sink(sink: Box<dyn Recorder>) -> Tracer {
        Tracer::with_sink_base(sink, 0)
    }

    /// A tracer feeding `sink` whose span ids start above
    /// `base << 32`. Per-thread tracers in the real-thread transport use
    /// disjoint bases so merged traces need no id remapping: ids stay unique
    /// and cross-thread `TraceCtx` references stay valid.
    pub fn with_sink_base(sink: Box<dyn Recorder>, base: u32) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Mutex::new(Inner {
                tracks: Vec::new(),
                sink,
                next_span: (base as u64) << 32,
            }))),
        }
    }

    /// A tracer keeping everything ([`FullRecorder`]).
    pub fn full() -> Tracer {
        Tracer::with_sink(Box::<FullRecorder>::default())
    }

    /// A tracer keeping the most recent `cap` records
    /// ([`FlightRecorder`]).
    pub fn flight(cap: usize) -> Tracer {
        Tracer::with_sink(Box::new(FlightRecorder::new(cap)))
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Intern a track name, returning its id. Repeated calls with the same
    /// name return the same id. On a disabled tracer, returns `TrackId(0)`.
    pub fn track(&self, name: &str) -> TrackId {
        let Some(inner) = &self.inner else { return TrackId(0) };
        let mut g = inner.lock();
        if let Some(i) = g.tracks.iter().position(|t| t == name) {
            return TrackId(i as u16);
        }
        g.tracks.push(name.to_string());
        TrackId((g.tracks.len() - 1) as u16)
    }

    /// Open a span. `ctx` is the parent context ([`TraceCtx::NONE`] opens a
    /// new root). Returns the context *of the opened span* — store it to
    /// close the span later, put it on the wire to parent remote work under
    /// it.
    pub fn begin(
        &self,
        ctx: TraceCtx,
        track: TrackId,
        name: &str,
        t: u64,
        seq: u64,
        args: Vec<Arg>,
    ) -> TraceCtx {
        let Some(inner) = &self.inner else { return TraceCtx::NONE };
        let mut g = inner.lock();
        g.next_span += 1;
        let sp = g.next_span;
        let (tr, par) = if ctx.is_none() { (sp, 0) } else { (ctx.trace, ctx.parent) };
        g.sink.record(Record {
            k: RecordKind::Begin,
            tr,
            sp,
            par,
            track: track.0,
            name: name.to_string(),
            t,
            seq,
            args,
        });
        TraceCtx { trace: tr, parent: sp }
    }

    /// Close the span named by `ctx.parent` (i.e. a context previously
    /// returned by [`Tracer::begin`]).
    pub fn end(&self, ctx: TraceCtx, track: TrackId, t: u64, seq: u64, args: Vec<Arg>) {
        let Some(inner) = &self.inner else { return };
        if ctx.is_none() {
            return;
        }
        inner.lock().sink.record(Record {
            k: RecordKind::End,
            tr: ctx.trace,
            sp: ctx.parent,
            par: 0,
            track: track.0,
            name: String::new(),
            t,
            seq,
            args,
        });
    }

    /// Record a point event under `ctx` (or free-standing with
    /// [`TraceCtx::NONE`]).
    pub fn instant(
        &self,
        ctx: TraceCtx,
        track: TrackId,
        name: &str,
        t: u64,
        seq: u64,
        args: Vec<Arg>,
    ) {
        let Some(inner) = &self.inner else { return };
        inner.lock().sink.record(Record {
            k: RecordKind::Instant,
            tr: ctx.trace,
            sp: 0,
            par: ctx.parent,
            track: track.0,
            name: name.to_string(),
            t,
            seq,
            args,
        });
    }

    /// Drain the sink into a [`Trace`] (the normal end-of-run path).
    pub fn finish(&self) -> Trace {
        let Some(inner) = &self.inner else { return Trace::default() };
        let mut g = inner.lock();
        let dropped = g.sink.dropped();
        Trace { tracks: g.tracks.clone(), records: g.sink.drain(), dropped }
    }

    /// Copy the sink contents into a [`Trace`] without draining (the
    /// failure-dump path: callable from a panic-adjacent context, repeatable).
    pub fn dump(&self) -> Trace {
        let Some(inner) = &self.inner else { return Trace::default() };
        let g = inner.lock();
        Trace { tracks: g.tracks.clone(), records: g.sink.snapshot(), dropped: g.sink.dropped() }
    }
}

/// Deterministically interleave per-thread traces into one.
///
/// Records are merged by `(t, seq, tr, sp, kind-rank)` — a pure function of
/// the record multiset, so any thread-arrival order produces the same output.
/// Track tables are unioned by name (first part wins the lower index) and
/// record track indices are rewritten. Span ids are *not* remapped: parts
/// are expected to come from tracers with disjoint id bases
/// ([`Tracer::with_sink_base`]), which keeps cross-thread parent references
/// intact.
pub fn merge(parts: Vec<Trace>) -> Trace {
    // Canonical track table: the union of part track names, sorted — so the
    // merged indices do not depend on part order.
    let mut tracks: Vec<String> = parts.iter().flat_map(|p| p.tracks.iter().cloned()).collect();
    tracks.sort();
    tracks.dedup();
    let mut records: Vec<Record> = Vec::new();
    let mut dropped = 0;
    for part in parts {
        let remap: Vec<u16> = part
            .tracks
            .iter()
            .map(|name| tracks.iter().position(|t| t == name).unwrap_or(0) as u16)
            .collect();
        for mut r in part.records {
            r.track = remap.get(r.track as usize).copied().unwrap_or(r.track);
            records.push(r);
        }
        dropped += part.dropped;
    }
    let rank = |k: RecordKind| match k {
        RecordKind::Meta => 0u8,
        RecordKind::Begin => 1,
        RecordKind::Instant => 2,
        RecordKind::End => 3,
    };
    records.sort_by(|a, b| {
        (a.t, a.seq, a.tr, a.sp, rank(a.k)).cmp(&(b.t, b.seq, b.tr, b.sp, rank(b.k)))
    });
    Trace { tracks, records, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_is_inert() {
        let t = Tracer::off();
        assert!(!t.enabled());
        let tk = t.track("x");
        let ctx = t.begin(TraceCtx::NONE, tk, "a", 1, 1, vec![]);
        assert!(ctx.is_none());
        t.end(ctx, tk, 2, 2, vec![]);
        t.instant(ctx, tk, "i", 3, 3, vec![]);
        assert_eq!(t.finish(), Trace::default());
    }

    #[test]
    fn begin_end_pairs_and_contexts() {
        let t = Tracer::full();
        let tk = t.track("comp");
        let root = t.begin(TraceCtx::NONE, tk, "step", 10, 1, vec![]);
        assert_eq!(root.trace, root.parent, "root trace id is its span id");
        let child = t.begin(root, tk, "put", 20, 2, vec![arg("seq", 7)]);
        assert_eq!(child.trace, root.trace);
        t.end(child, tk, 30, 3, vec![]);
        t.end(root, tk, 40, 4, vec![]);
        let tr = t.finish();
        assert_eq!(tr.tracks, vec!["comp"]);
        assert_eq!(tr.records.len(), 4);
        assert_eq!(tr.records[1].par, root.parent);
        assert_eq!(tr.records[2].k, RecordKind::End);
        assert_eq!(tr.records[2].sp, child.parent);
    }

    #[test]
    fn track_interning_is_stable() {
        let t = Tracer::full();
        let a = t.track("a");
        let b = t.track("b");
        assert_eq!(t.track("a"), a);
        assert_eq!(t.track("b"), b);
        assert_ne!(a, b);
    }

    #[test]
    fn flight_recorder_keeps_tail_and_counts_shed() {
        let mut f = FlightRecorder::new(3);
        for i in 0..5u64 {
            f.record(Record {
                k: RecordKind::Instant,
                tr: 0,
                sp: 0,
                par: 0,
                track: 0,
                name: format!("e{i}"),
                t: i,
                seq: i,
                args: vec![],
            });
        }
        assert_eq!(f.dropped(), 2);
        let snap = f.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].name, "e2");
        assert_eq!(snap[2].name, "e4");
        // Snapshot is non-destructive.
        assert_eq!(f.snapshot().len(), 3);
    }

    #[test]
    fn merge_interleaves_deterministically_and_unions_tracks() {
        let ta = Tracer::with_sink_base(Box::<FullRecorder>::default(), 1);
        let tb = Tracer::with_sink_base(Box::<FullRecorder>::default(), 2);
        let ka = ta.track("client");
        let kb = tb.track("server");
        let kb2 = tb.track("client"); // same name on the other thread
        let root = ta.begin(TraceCtx::NONE, ka, "put", 5, 1, vec![]);
        // Cross-thread propagation: server parents under the client span.
        let srv = tb.begin(root, kb, "serve.put", 6, 2, vec![]);
        tb.end(srv, kb, 8, 3, vec![]);
        tb.instant(TraceCtx::NONE, kb2, "note", 7, 9, vec![]);
        ta.end(root, ka, 9, 4, vec![]);
        let m1 = merge(vec![ta.dump(), tb.dump()]);
        let m2 = merge(vec![tb.dump(), ta.dump()]);
        assert_eq!(m1.records, m2.records, "merge order-independent in records");
        assert_eq!(m1.records.len(), 5);
        // Cross-thread parent survived (no remap).
        let serve = m1.records.iter().find(|r| r.name == "serve.put").unwrap();
        assert_eq!(serve.par, root.parent);
        assert_eq!(serve.tr, root.trace);
        // Records come out time-ordered.
        assert!(m1.records.windows(2).all(|w| (w[0].t, w[0].seq) <= (w[1].t, w[1].seq)));
    }

    #[test]
    fn disjoint_bases_never_collide() {
        let ta = Tracer::with_sink_base(Box::<FullRecorder>::default(), 1);
        let tb = Tracer::with_sink_base(Box::<FullRecorder>::default(), 2);
        let a = ta.begin(TraceCtx::NONE, TrackId(0), "a", 0, 0, vec![]);
        let b = tb.begin(TraceCtx::NONE, TrackId(0), "b", 0, 0, vec![]);
        assert_ne!(a.parent, b.parent);
        assert_eq!(a.parent >> 32, 1);
        assert_eq!(b.parent >> 32, 2);
    }
}
