//! The coalescing journal writer, written once for both backends.
//!
//! The paper's logging component is one mechanism — puts, gets and
//! `W_Chk_ID` markers kept by staging so a rolled-back component replays what
//! it saw — and so is its durable twin: [`JournalWriter`] owns a
//! `logstore::Journal` sink and is generic over the entry type it records
//! ([`crate::store_journal::StoreJournalEntry`] for the plain backend,
//! `wfcr::journal::JournalEntry` for the logging backend). The entry modules
//! keep only what differs — the enums and their binary layouts, described to
//! the writer through [`WireEntry`].
//!
//! **Write path.** Entries are encoded with the binary [`crate::wire`] codec
//! and the writer *coalesces*: encoded metadata accumulates in one reusable
//! scratch buffer (inline payload `Bytes` ride alongside by refcount, never
//! copied) and is handed to the sink as one [`logstore::BatchRecord`] group
//! at natural boundaries — a commit point, or every `coalesce` records. The
//! sink then frames the whole group with a single vectored write (group
//! commit). Pending entries are exactly as volatile as sink-buffered ones: a
//! crash loses them, a commit point makes them durable.
//!
//! Sink I/O errors are swallowed into a counter: a journal failure degrades
//! durability, never the backend's in-memory state, which stays
//! authoritative.

use bytes::Bytes;
use logstore::{BatchRecord, Journal};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

/// Records coalesced per hand-off to the sink when no commit point arrives
/// first.
pub const DEFAULT_COALESCE: usize = 16;

/// What the writer (and the recovery scan) needs from a journal entry type.
pub trait WireEntry: Sized {
    /// Compaction watermark: the data version this entry is tied to.
    fn watermark(&self) -> u64;

    /// Must this entry be durable before `record` returns?
    fn is_commit_point(&self) -> bool;

    /// Encode everything *except* an inline payload's bytes into `out`
    /// (binary codec). The inline bytes — [`WireEntry::inline_payload`] —
    /// must land immediately after this prefix; the zero-copy append path
    /// hands them to the log as a separate vectored part.
    fn encode_meta_into(&self, out: &mut Vec<u8>);

    /// The inline payload bytes that follow the metadata prefix, if any.
    fn inline_payload(&self) -> Option<&Bytes>;

    /// Parse a record body back. `None` for anything that is not a complete
    /// binary entry of this type — a foreign first byte, an unknown version
    /// or tag, a truncated or over-long body (the log frame CRC already
    /// rules out corruption).
    fn decode(bytes: &[u8]) -> Option<Self>;

    /// Contiguous serialized form: metadata prefix plus inline bytes.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_meta_into(&mut out);
        if let Some(b) = self.inline_payload() {
            out.extend_from_slice(b);
        }
        out
    }
}

/// Decode a recovered record stream (e.g. `LogStore::read_all`) into
/// entries, dropping undecodable payloads.
pub fn decode_records<E: WireEntry>(records: &[logstore::Record]) -> Vec<E> {
    records.iter().filter_map(|r| E::decode(&r.payload)).collect()
}

/// One journal's counters. All zero for a backend without a journal; every
/// field is monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Entries recorded through the writer.
    pub entries_recorded: u64,
    /// Sink I/O errors swallowed (durability degraded, state unaffected).
    pub errors: u64,
    /// Bytes the sink has physically flushed.
    pub bytes_flushed: u64,
    /// Segment files the sink has deleted by watermark compaction.
    pub segments_compacted: u64,
    /// Fsyncs that made two or more records durable at once.
    pub group_commits: u64,
    /// Records that reached the sink through batched hand-offs.
    pub records_batched: u64,
}

/// A record coalesced in the writer, waiting for the next hand-off: its
/// metadata prefix lives in the shared scratch buffer, its inline payload
/// (if any) rides by refcount.
struct PendingRec {
    watermark: u64,
    meta: Range<usize>,
    payload: Option<Bytes>,
}

/// A backend's handle on its durable sink: owns the boxed
/// `logstore::Journal`, coalesces entries into batched group commits,
/// enforces commit-point flushes, and counts the I/O errors it swallows.
pub struct JournalWriter<E> {
    sink: Box<dyn Journal>,
    scratch: Vec<u8>,
    pending: Vec<PendingRec>,
    coalesce: usize,
    entries_recorded: u64,
    errors: u64,
    // One journal holds one entry type; `fn(&E)` keeps the writer `Send`
    // whatever `E` is.
    _entry: PhantomData<fn(&E)>,
}

impl<E> fmt::Debug for JournalWriter<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalWriter")
            .field("entries_recorded", &self.entries_recorded)
            .field("pending", &self.pending.len())
            .field("errors", &self.errors)
            .finish()
    }
}

impl<E: WireEntry> JournalWriter<E> {
    /// Wrap a sink, handing off batches every `coalesce` records (commit
    /// points always hand off immediately; 0 behaves as 1).
    pub fn new(sink: Box<dyn Journal>, coalesce: usize) -> Self {
        JournalWriter {
            sink,
            scratch: Vec::new(),
            pending: Vec::new(),
            coalesce: coalesce.max(1),
            entries_recorded: 0,
            errors: 0,
            _entry: PhantomData,
        }
    }

    /// Record one entry. The entry is encoded now (metadata into the shared
    /// scratch, payload bytes by refcount) and handed to the sink in a batch
    /// at the next boundary; commit-point entries hand off and flush
    /// immediately.
    // lint: commit-point
    pub fn record(&mut self, entry: &E) {
        self.entries_recorded += 1;
        let start = self.scratch.len();
        entry.encode_meta_into(&mut self.scratch);
        self.pending.push(PendingRec {
            watermark: entry.watermark(),
            meta: start..self.scratch.len(),
            payload: entry.inline_payload().cloned(),
        });
        if entry.is_commit_point() {
            self.flush();
        } else if self.pending.len() >= self.coalesce {
            self.hand_off();
        }
    }

    /// Hand every pending record to the sink as one batch (one flush
    /// decision at the group boundary — the group commit).
    fn hand_off(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let JournalWriter { sink, scratch, pending, errors, .. } = self;
        let parts: Vec<[&[u8]; 2]> = pending
            .iter()
            .map(|p| [&scratch[p.meta.clone()], p.payload.as_deref().unwrap_or(&[])])
            .collect();
        let batch: Vec<BatchRecord<'_>> = pending
            .iter()
            .zip(&parts)
            .map(|(p, parts)| BatchRecord { watermark: p.watermark, parts })
            .collect();
        if sink.append_batch(&batch).is_err() {
            *errors += 1;
        }
        self.pending.clear();
        self.scratch.clear();
    }

    /// Force everything — coalesced and sink-buffered — down to the media
    /// (commit point / graceful shutdown / stats harvest).
    pub fn flush(&mut self) {
        self.hand_off();
        if self.sink.flush().is_err() {
            self.errors += 1;
        }
    }

    /// Drop sealed segments wholly below `floor`; returns segments removed.
    /// Pending records are handed off first so compaction sees the full
    /// stream.
    pub fn compact_below(&mut self, floor: u64) -> usize {
        self.hand_off();
        match self.sink.compact_below(floor) {
            Ok(n) => n,
            Err(_) => {
                self.errors += 1;
                0
            }
        }
    }

    /// The writer's own counters plus the sink's.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            entries_recorded: self.entries_recorded,
            errors: self.errors,
            bytes_flushed: self.sink.bytes_flushed(),
            segments_compacted: self.sink.segments_compacted(),
            group_commits: self.sink.group_commits(),
            records_batched: self.sink.records_batched(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BBox;
    use crate::payload::Payload;
    use crate::proto::{CtlRequest, GetRequest, ObjDesc, PutRequest};
    use crate::service::{PlainBackend, StoreBackend};
    use crate::wire::{self, Reader};
    use logstore::{FlushPolicy, LogConfig, LogStore, MemMedia};
    use std::io;
    use std::sync::{Arc, Mutex};

    /// The smallest entry type that exercises every writer path: a version
    /// (the watermark), a commit-point flag and a payload.
    #[derive(Debug, Clone, PartialEq)]
    struct Rec {
        version: u32,
        commit: bool,
        payload: Payload,
    }

    impl WireEntry for Rec {
        fn watermark(&self) -> u64 {
            u64::from(self.version)
        }

        fn is_commit_point(&self) -> bool {
            self.commit
        }

        fn encode_meta_into(&self, out: &mut Vec<u8>) {
            wire::put_header(out, u8::from(self.commit));
            wire::put_u32(out, self.version);
            wire::put_payload_meta(out, &self.payload);
        }

        fn inline_payload(&self) -> Option<&Bytes> {
            self.payload.bytes()
        }

        fn decode(bytes: &[u8]) -> Option<Self> {
            let (tag, mut r) = Reader::for_entry(bytes).ok()?;
            let rec = Rec { version: r.u32().ok()?, commit: tag != 0, payload: r.payload().ok()? };
            r.finish().ok()?;
            Some(rec)
        }
    }

    fn data(version: u32) -> Rec {
        Rec { version, commit: false, payload: Payload::inline(vec![version as u8; 48]) }
    }

    fn marker(version: u32) -> Rec {
        Rec { version, commit: true, payload: Payload::virtual_from(0, &[]) }
    }

    /// A `LogStore` on `mem` that never flushes on its own.
    fn lazy_cfg() -> LogConfig {
        LogConfig { flush: FlushPolicy::PerBatch { records: 1_000 }, ..LogConfig::default() }
    }

    fn writer(mem: &MemMedia, cfg: LogConfig, coalesce: usize) -> JournalWriter<Rec> {
        JournalWriter::new(Box::new(LogStore::open(Box::new(mem.clone()), cfg).unwrap()), coalesce)
    }

    fn survivors(mem: &MemMedia, cfg: LogConfig) -> Vec<Rec> {
        decode_records(&LogStore::open(Box::new(mem.clone()), cfg).unwrap().read_all().unwrap())
    }

    #[test]
    fn coalescing_hands_off_at_window_and_commit_points() {
        let mem = MemMedia::new();
        let mut j = writer(&mem, lazy_cfg(), 4);
        for v in 0..3 {
            j.record(&data(v));
        }
        assert_eq!(j.pending.len(), 3, "below the window: coalesced in the writer");
        j.record(&data(3));
        assert_eq!(j.pending.len(), 0, "window reached: handed to the sink");
        assert_eq!(j.stats().records_batched, 4);
        // A commit point hands off AND flushes, regardless of window fill.
        j.record(&data(4));
        j.record(&marker(4));
        assert_eq!(j.pending.len(), 0);
        assert_eq!(j.stats().entries_recorded, 6);
        assert_eq!(j.stats().errors, 0);
        // Everything is durable and decodes back.
        let entries = survivors(&mem, lazy_cfg());
        assert_eq!(entries.len(), 6);
        assert_eq!(entries[5], marker(4));
    }

    #[test]
    fn crash_loses_coalesced_tail_but_keeps_commit_prefix() {
        let mem = MemMedia::new();
        let mut j = writer(&mem, lazy_cfg(), DEFAULT_COALESCE);
        j.record(&data(1));
        j.record(&marker(1));
        j.record(&data(2)); // coalesced, never flushed
        drop(j);
        mem.crash();
        let entries = survivors(&mem, lazy_cfg());
        assert_eq!(entries.len(), 2, "the record after the commit point dies with the crash");
        assert!(entries[1].is_commit_point());
    }

    #[test]
    fn commit_points_force_the_tail_durable() {
        let mem = MemMedia::new();
        let mut j = writer(&mem, lazy_cfg(), DEFAULT_COALESCE);
        j.record(&data(1));
        j.record(&data(2));
        let before = mem.synced_bytes();
        j.record(&marker(2));
        assert!(mem.synced_bytes() > before, "a commit-point entry must flush");
        assert_eq!(j.stats().bytes_flushed, mem.synced_bytes() as u64);
        j.record(&data(3)); // coalesced again
        drop(j);
        mem.crash();
        let entries = survivors(&mem, lazy_cfg());
        assert_eq!(entries, vec![data(1), data(2), marker(2)]);
    }

    #[test]
    fn coalescing_batches_records_to_the_sink() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::PerRecord, ..LogConfig::default() };
        let mut j = writer(&mem, cfg, 8);
        for v in 0..8 {
            j.record(&data(v));
        }
        assert_eq!(j.pending.len(), 0, "window reached: handed off");
        assert_eq!(j.stats().records_batched, 8);
        // PerRecord sink + batched hand-off = ONE group commit for all 8.
        assert_eq!(j.stats().group_commits, 1);
        let entries = survivors(&mem, cfg);
        assert_eq!(entries.len(), 8);
        for (v, e) in entries.iter().enumerate() {
            assert_eq!(e, &data(v as u32), "zero-copy path preserves the payload bytes");
        }
    }

    #[test]
    fn zero_window_behaves_as_one() {
        let mem = MemMedia::new();
        let mut j = writer(&mem, lazy_cfg(), 0);
        j.record(&data(1));
        assert_eq!(j.pending.len(), 0);
        assert_eq!(j.stats().records_batched, 1);
    }

    /// A sink that logs the calls it receives and can be told to fail them.
    struct ProbeSink {
        calls: Arc<Mutex<Vec<String>>>,
        fail: bool,
    }

    impl ProbeSink {
        fn note(&self, call: String) -> io::Result<()> {
            self.calls.lock().unwrap().push(call);
            if self.fail {
                return Err(io::Error::other("probe sink failure"));
            }
            Ok(())
        }
    }

    impl Journal for ProbeSink {
        fn append(&mut self, _watermark: u64, _payload: &[u8]) -> io::Result<()> {
            self.note("append".into())
        }

        fn append_batch(&mut self, batch: &[BatchRecord<'_>]) -> io::Result<()> {
            self.note(format!("append_batch({})", batch.len()))
        }

        fn flush(&mut self) -> io::Result<()> {
            self.note("flush".into())
        }

        fn compact_below(&mut self, floor: u64) -> io::Result<usize> {
            self.note(format!("compact_below({floor})")).map(|()| 3)
        }

        fn bytes_flushed(&self) -> u64 {
            0
        }

        fn segments_compacted(&self) -> u64 {
            0
        }
    }

    fn probe(fail: bool) -> (Box<ProbeSink>, Arc<Mutex<Vec<String>>>) {
        let calls = Arc::new(Mutex::new(Vec::new()));
        (Box::new(ProbeSink { calls: calls.clone(), fail }), calls)
    }

    #[test]
    fn compact_below_hands_pending_records_off_first() {
        let (sink, calls) = probe(false);
        let mut j = JournalWriter::<Rec>::new(sink, 8);
        j.record(&data(5));
        j.record(&data(6));
        assert!(calls.lock().unwrap().is_empty(), "below the window: nothing reached the sink");
        assert_eq!(j.compact_below(5), 3, "the sink's count is passed through");
        assert_eq!(*calls.lock().unwrap(), ["append_batch(2)", "compact_below(5)"]);
        assert_eq!(j.pending.len(), 0);
        assert_eq!(j.stats().errors, 0);
    }

    #[test]
    fn sink_errors_are_counted_and_swallowed() {
        let (sink, calls) = probe(true);
        let mut j = JournalWriter::<Rec>::new(sink, 2);
        j.record(&data(1));
        j.record(&data(2)); // window: append_batch fails
        assert_eq!(j.stats().errors, 1);
        j.record(&marker(2)); // commit point: append_batch and flush both fail
        assert_eq!(j.stats().errors, 3);
        assert_eq!(j.compact_below(9), 0, "a failed compaction removed nothing");
        assert_eq!(j.stats().errors, 4);
        assert_eq!(j.pending.len(), 0, "failed batches are dropped, not retried forever");
        assert_eq!(
            *calls.lock().unwrap(),
            ["append_batch(2)", "append_batch(1)", "flush", "compact_below(9)"]
        );
    }

    #[test]
    fn failing_sink_leaves_the_backend_answers_unchanged() {
        let bbox = BBox::d1(0, 9);
        let put = |version| PutRequest {
            app: 0,
            desc: ObjDesc { var: 0, version, bbox },
            payload: Payload::inline(vec![version as u8; 10]),
            seq: u64::from(version),
            tctx: obs::TraceCtx::NONE,
        };
        let drive = |b: &mut PlainBackend| {
            let mut answers = Vec::new();
            for v in 1..=3 {
                answers.push(format!("{:?}", b.put(&put(v))));
            }
            answers.push(format!("{:?}", b.control(CtlRequest::GlobalReset { to_version: 2 })));
            for version in 1..=3 {
                let get =
                    GetRequest { app: 1, var: 0, version, bbox, seq: 0, tctx: obs::TraceCtx::NONE };
                answers.push(format!("{:?} {:?}", b.get_ready(&get), b.get(&get)));
            }
            answers.push(b.bytes_resident().to_string());
            answers
        };
        let mut detached = PlainBackend::new(4);
        let mut failing = PlainBackend::new(4);
        failing.attach_journal_coalesced(probe(true).0, 2);
        assert_eq!(drive(&mut failing), drive(&mut detached));
        // One failed window hand-off, then the reset's hand-off and flush.
        assert_eq!(failing.journal_errors(), 3);
        assert_eq!(failing.journal_stats().entries_recorded, 4);
        assert_eq!(detached.journal_stats(), JournalStats::default());
    }
}
