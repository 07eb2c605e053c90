//! Span bookkeeping for the traced run: per-thread recorders, linking server
//! spans to the driver operation that caused them, self time, and the
//! attribution of one operation's latency to layers.
//!
//! Spans are recorded from the benchmark's own decorators around the public
//! seams (`SyncClient` calls, `StoreBackend`, `logstore::Journal`,
//! `logstore::Media`); nothing inside the program is instrumented. They stay
//! in memory until the round ends.

use staging::proto::{AppId, VarId, Version};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Operation kind, part of the link key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Put,
    Get,
    Ctl,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Put, Kind::Get, Kind::Ctl];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Put => "put",
            Kind::Get => "get",
            Kind::Ctl => "ctl",
        }
    }
}

/// What a server span shares with the driver operation that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpKey {
    pub app: AppId,
    pub var: VarId,
    pub version: Version,
    pub kind: Kind,
}

/// Where a span hangs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// A driver operation: the root of its tree.
    Root,
    /// The enclosing span on the same thread (index into that thread's buffer).
    Local(usize),
    /// A driver operation on another thread, found by key and time.
    Op(OpKey),
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Parent,
    /// The operation identity, on driver and backend spans.
    pub key: Option<OpKey>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. Times are nanoseconds since an epoch all
/// recorders of a round share, so spans of different threads compare.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span. Its parent is the innermost open span of this thread;
    /// with none open, the driver operation `key` names (or the root).
    pub fn begin(&mut self, name: &'static str, key: Option<OpKey>, root: bool) -> usize {
        let parent = match (self.open.last(), key, root) {
            (Some(&p), _, _) => Parent::Local(p),
            (None, Some(k), false) => Parent::Op(k),
            _ => Parent::Root,
        };
        let now = self.now();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, key });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, index: usize) {
        self.spans[index].end_ns = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
    }

    pub fn take(&mut self) -> Vec<Span> {
        self.open.clear();
        std::mem::take(&mut self.spans)
    }
}

/// All spans of one traced round: thread 0 is the driver, the rest servers.
pub struct Trace {
    pub threads: Vec<Vec<Span>>,
}

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Backend,
    Journal,
    Compact,
    Media,
}

fn layer_of(name: &str) -> Layer {
    if name.starts_with("media.") {
        Layer::Media
    } else if name == "journal.compact" {
        Layer::Compact
    } else if name.starts_with("journal.") {
        Layer::Journal
    } else {
        Layer::Backend
    }
}

/// One operation's latency partitioned by layer, nanoseconds. Every instant
/// of the operation is charged to what was running for it then: to the
/// innermost open server span's layer, shared equally when both servers were
/// in one (only a blocking `media.sync` lets that happen on one CPU), and to
/// the client when no server span was open. The parts sum to `total` (give
/// or take the integer division of shared instants).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSplit {
    pub total: u64,
    /// Plan/route, transport, wake-ups, dedup, the serve loop: everything
    /// outside a `StoreBackend` call.
    pub client_self: u64,
    pub backend_self: u64,
    pub journal_self: u64,
    pub compact: u64,
    pub media: u64,
}

impl OpSplit {
    fn charge(&mut self, layer: Layer, ns: u64) {
        match layer {
            Layer::Backend => self.backend_self += ns,
            Layer::Journal => self.journal_self += ns,
            Layer::Compact => self.compact += ns,
            Layer::Media => self.media += ns,
        }
    }
}

/// What the analysis of one round yields.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Per driver operation, by kind.
    pub ops: [Vec<OpSplit>; 3],
    /// Per media call, by span name.
    pub media_calls: HashMap<&'static str, Vec<u64>>,
    /// Σ backend span time per server thread.
    pub busy_ns: Vec<u64>,
    /// Server spans whose key matched no driver operation.
    pub unlinked: usize,
}

/// The pieces of `root`'s subtree in which each span is the innermost one
/// open: `(start, end, layer)`, clipped to `window`.
fn self_segments(
    spans: &[Span],
    kids: &[Vec<usize>],
    root: usize,
    window: (u64, u64),
    out: &mut Vec<(u64, u64, Layer)>,
) {
    let s = &spans[root];
    let layer = layer_of(s.name);
    let (lo, hi) = (s.start_ns.max(window.0), s.end_ns.min(window.1));
    if hi <= lo {
        return;
    }
    let mut cursor = lo;
    // Children of one span are sequential on their thread, in start order.
    for &c in &kids[root] {
        let (cs, ce) = (spans[c].start_ns.clamp(lo, hi), spans[c].end_ns.clamp(lo, hi));
        if cs > cursor {
            out.push((cursor, cs, layer));
        }
        cursor = cursor.max(ce);
        self_segments(spans, kids, c, window, out);
    }
    if hi > cursor {
        out.push((cursor, hi, layer));
    }
}

/// Partition the operation `window` among the client and the layers whose
/// self segments (from any server) cover each instant.
fn partition(window: (u64, u64), segments: &[(u64, u64, Layer)]) -> OpSplit {
    let mut split = OpSplit { total: window.1 - window.0, ..Default::default() };
    // Sweep the segment edges in time order, closings before openings.
    let mut edges: Vec<(u64, bool, Layer)> =
        segments.iter().flat_map(|&(s, e, l)| [(s, true, l), (e, false, l)]).collect();
    edges.sort_unstable_by_key(|&(at, opens, _)| (at, opens));
    let mut active: Vec<Layer> = Vec::new();
    let mut cursor = window.0;
    for (at, opens, layer) in edges {
        if at > cursor {
            if active.is_empty() {
                split.client_self += at - cursor;
            }
            for &l in &active {
                split.charge(l, (at - cursor) / active.len() as u64);
            }
            cursor = at;
        }
        if opens {
            active.push(layer);
        } else if let Some(i) = active.iter().position(|&l| l == layer) {
            active.swap_remove(i);
        }
    }
    split.client_self += window.1 - cursor;
    split
}

impl Trace {
    /// Link every server span tree to its driver operation and partition each
    /// operation's latency by layer.
    pub fn attribute(&self) -> Attribution {
        let driver = &self.threads[0];
        // key → driver spans with that key, in start order (the driver is
        // sequential, so its buffer already is).
        let mut by_key: HashMap<OpKey, Vec<usize>> = HashMap::new();
        for (i, s) in driver.iter().enumerate() {
            if let Some(k) = s.key {
                by_key.entry(k).or_default().push(i);
            }
        }
        // Per driver op: the (thread, span) roots it caused.
        let mut caused: Vec<Vec<(usize, usize)>> = vec![Vec::new(); driver.len()];
        let mut out = Attribution { busy_ns: vec![0; self.threads.len()], ..Default::default() };
        let mut kids_of: Vec<Vec<Vec<usize>>> = Vec::with_capacity(self.threads.len());
        for (t, spans) in self.threads.iter().enumerate() {
            let mut kids = vec![Vec::new(); spans.len()];
            for (i, s) in spans.iter().enumerate() {
                match s.parent {
                    Parent::Local(p) => kids[p].push(i),
                    Parent::Op(k) => {
                        out.busy_ns[t] += s.dur_ns();
                        // A key recurs when a rolled-back component re-issues
                        // a request; the causing operation is the one whose
                        // interval holds this span's start.
                        let hit = by_key.get(&k).and_then(|c| {
                            let at = c.partition_point(|&d| driver[d].start_ns <= s.start_ns);
                            at.checked_sub(1).map(|j| c[j])
                        });
                        match hit {
                            Some(d) if s.start_ns <= driver[d].end_ns => caused[d].push((t, i)),
                            _ => out.unlinked += 1,
                        }
                    }
                    Parent::Root => {}
                }
                if layer_of(s.name) == Layer::Media {
                    out.media_calls.entry(s.name).or_default().push(s.dur_ns());
                }
            }
            kids_of.push(kids);
        }
        let mut segments = Vec::new();
        for (d, op) in driver.iter().enumerate() {
            let Some(key) = op.key else { continue };
            let window = (op.start_ns, op.end_ns);
            segments.clear();
            for &(t, i) in &caused[d] {
                self_segments(&self.threads[t], &kids_of[t], i, window, &mut segments);
            }
            out.ops[key.kind.index()].push(partition(window, &segments));
        }
        out
    }

    /// Chrome trace-event lines (`ph:"X"`, microseconds): one JSON object per
    /// line after an opening `[`, which `chrome://tracing` and Perfetto load
    /// as is (the closing bracket is optional in that format).
    pub fn chrome_jsonl(&self, max_spans: usize) -> String {
        let mut out = String::from("[\n");
        let mut written = 0usize;
        for (tid, spans) in self.threads.iter().enumerate() {
            for s in spans {
                if written == max_spans {
                    return out;
                }
                written += 1;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns() as f64 / 1e3,
                    tid
                );
                if let Some(k) = s.key {
                    let _ = write!(
                        out,
                        ",\"args\":{{\"app\":{},\"var\":{},\"version\":{},\"kind\":\"{}\"}}",
                        k.app,
                        k.var,
                        k.version,
                        k.kind.as_str()
                    );
                }
                out.push_str("},\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(version: Version, kind: Kind) -> OpKey {
        OpKey { app: 0, var: 0, version, kind }
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Parent, k: Option<OpKey>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, key: k }
    }

    #[test]
    fn recorder_nests_by_open_stack_and_links_top_level_by_key() {
        let mut r = Recorder::new(Instant::now());
        let k = key(7, Kind::Put);
        let a = r.begin("backend.put", Some(k), false);
        let b = r.begin("journal.append", None, false);
        let c = r.begin("media.write", None, false);
        r.end(c);
        r.end(b);
        r.end(a);
        let top = r.begin("client.put", Some(k), true);
        r.end(top);
        let spans = r.take();
        assert_eq!(spans[0].parent, Parent::Op(k));
        assert_eq!(spans[1].parent, Parent::Local(0));
        assert_eq!(spans[2].parent, Parent::Local(1));
        assert_eq!(spans[3].parent, Parent::Root);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    /// Driver put [0,1000] causing work on two servers; server 1 is busier.
    fn two_server_trace() -> Trace {
        let k = key(3, Kind::Put);
        let driver = vec![span("client.put", 0, 1000, Parent::Root, Some(k))];
        let s1 = vec![
            span("backend.put", 100, 500, Parent::Op(k), Some(k)),
            span("journal.append", 200, 400, Parent::Local(0), None),
            span("media.write", 250, 300, Parent::Local(1), None),
            span("media.sync", 300, 380, Parent::Local(1), None),
        ];
        let s2 = vec![span("backend.put", 400, 600, Parent::Op(k), Some(k))];
        Trace { threads: vec![driver, s1, s2] }
    }

    #[test]
    fn cross_thread_children_partition_the_operation_by_layer() {
        let a = two_server_trace().attribute();
        assert_eq!(a.unlinked, 0);
        let op = a.ops[Kind::Put.index()][0];
        assert_eq!(op.total, 1000);
        // Union of [100,500] and [400,600] covers 500 ns.
        assert_eq!(op.client_self, 500);
        // Server 1 alone: backend [100,200], journal [200,250], media
        // [250,380], journal [380,400]; both servers in backend over
        // [400,500] (50 ns each); server 2 alone [500,600].
        assert_eq!(op.backend_self, 100 + 50 + 50 + 100);
        assert_eq!(op.journal_self, 50 + 20);
        assert_eq!(op.media, 50 + 80);
        assert_eq!(op.compact, 0);
        let parts = op.client_self + op.backend_self + op.journal_self + op.media;
        assert_eq!(parts, op.total, "the partition leaves no residual");
        assert_eq!(a.busy_ns, vec![0, 400, 200]);
        assert_eq!(a.media_calls["media.sync"], vec![80]);
    }

    #[test]
    fn an_instant_two_layers_share_is_split_between_them() {
        // Server 1 blocks in a sync while server 2 computes: [200,300] is
        // half media, half backend.
        let k = key(4, Kind::Put);
        let driver = vec![span("client.put", 0, 400, Parent::Root, Some(k))];
        let s1 = vec![
            span("backend.put", 100, 300, Parent::Op(k), Some(k)),
            span("media.sync", 150, 300, Parent::Local(0), None),
        ];
        let s2 = vec![span("backend.put", 200, 350, Parent::Op(k), Some(k))];
        let op = Trace { threads: vec![driver, s1, s2] }.attribute().ops[Kind::Put.index()][0];
        assert_eq!(op.client_self, 100 + 50);
        assert_eq!(op.media, 50 + 50);
        assert_eq!(op.backend_self, 50 + 50 + 50);
    }

    #[test]
    fn a_span_sticking_out_of_its_operation_is_clipped_to_it() {
        // Whatever a server span does after its operation returned is not
        // that operation's latency: only [50,100] counts.
        let k = key(5, Kind::Get);
        let driver = vec![span("client.get", 0, 100, Parent::Root, Some(k))];
        let server = vec![
            span("backend.get", 50, 140, Parent::Op(k), Some(k)),
            span("journal.append", 90, 130, Parent::Local(0), None),
        ];
        let op = Trace { threads: vec![driver, server] }.attribute().ops[Kind::Get.index()][0];
        assert_eq!((op.client_self, op.backend_self, op.journal_self), (50, 40, 10));
    }

    #[test]
    fn a_recurring_key_links_to_the_operation_that_holds_the_span() {
        // The same put issued twice (original and re-execution after a
        // rollback); each server span belongs to the op running at the time.
        let k = key(9, Kind::Put);
        let driver = vec![
            span("client.put", 0, 100, Parent::Root, Some(k)),
            span("client.get", 100, 200, Parent::Root, Some(key(9, Kind::Get))),
            span("client.put", 300, 400, Parent::Root, Some(k)),
        ];
        let server = vec![
            span("backend.put", 10, 60, Parent::Op(k), Some(k)),
            span("backend.put", 310, 330, Parent::Op(k), Some(k)),
            // Same key, but while no such operation was running.
            span("backend.put", 450, 460, Parent::Op(k), Some(k)),
            // A key no driver operation carries.
            span("backend.get", 20, 30, Parent::Op(key(1, Kind::Get)), None),
        ];
        let a = Trace { threads: vec![driver, server] }.attribute();
        assert_eq!(a.unlinked, 2);
        let puts = &a.ops[Kind::Put.index()];
        assert_eq!((puts[0].backend_self, puts[1].backend_self), (50, 20));
        assert_eq!(a.ops[Kind::Get.index()][0].backend_self, 0);
        assert_eq!(a.ops[Kind::Get.index()][0].client_self, 100);
    }

    #[test]
    fn chrome_lines_are_complete_events() {
        let text = two_server_trace().chrome_jsonl(usize::MAX);
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("["));
        let first = lines.next().unwrap();
        assert!(
            first.starts_with("{\"name\":\"client.put\",\"ph\":\"X\",\"ts\":0.000,\"dur\":1.000")
        );
        assert!(first.contains("\"kind\":\"put\"") && first.ends_with("},"));
        assert_eq!(text.lines().count(), 1 + 6);
        assert_eq!(two_server_trace().chrome_jsonl(2).lines().count(), 3);
    }
}
