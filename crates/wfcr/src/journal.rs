//! Durable journaling of the staging event/data log.
//!
//! The paper's logging component keeps puts, gets, and `W_Chk_ID` markers in
//! staging memory; this module gives those records a durable form, and the
//! [`crate::backend::LoggingBackend`] is driven by it: a [`JournalEntry`] is
//! the only thing that changes the backend's state. Whatever a request is
//! decided to do — store a put, log a served get, mark a checkpoint, a
//! recovery or a reset — becomes an entry, which is handed to the
//! `logstore::Journal` sink (when one is attached) and then applied. Control
//! entries (checkpoint, recovery, reset) are commit points and force a flush,
//! so the journal's durable prefix always extends at least through the last
//! checkpoint — which is exactly the property the cold-restart equivalence
//! proof needs: anything lost past that point is re-executed
//! deterministically by the rolled-back apps.
//!
//! This module holds the entry type, the queue event it stands for, its
//! binary layout ([`staging::wire`] codec; a record body that does not start
//! with `WIRE_MAGIC` is not an entry and is rejected) and the
//! [`JournalWriter`] that owns the backend's sink.
//!
//! **Write path.** The writer *coalesces*: encoded metadata accumulates in
//! one reusable scratch buffer (inline payload `Bytes` ride alongside by
//! refcount, never copied) and is handed to the sink as one
//! [`logstore::BatchRecord`] group at natural boundaries — a commit point, or
//! every `coalesce` records. The sink then frames the whole group with a
//! single vectored write (group commit). Pending entries are exactly as
//! volatile as sink-buffered ones: a crash loses them, a commit point makes
//! them durable. Sink I/O errors are swallowed into a counter: a journal
//! failure degrades durability, never the backend's in-memory state, which
//! stays authoritative.
//!
//! Watermarks are data versions, so `compact_below` on the journal mirrors
//! `wfcr::gc` truncating the in-memory queues: once the GC floor passes a
//! whole segment's versions, the segment file is deleted.
//!
//! [`crate::backend::LoggingBackend::from_journal`] is that same application
//! folded over the surviving entries in order, so it rebuilds the store,
//! queues, GC marks, and `next_w_chk` exactly. An entry therefore carries
//! every decision its application needs and nothing it must re-derive: a
//! checkpoint records the *effective* floor its collection pass used (which
//! depended on the replays then in flight), and a recovery is a queue marker
//! only (entering replay mode was the live request's decision).
//!
//! # The rebuild's reader
//!
//! Compaction retires whole segments while the GC floor moves at every
//! checkpoint, so most of what a restart reads back is history the journal's
//! own last checkpoint already made dead: the rebuild would decode it, copy
//! its payloads, store and log it, and collect it again at that checkpoint.
//! [`decode_records`] does not materialise it. With `T` the stream's last
//! `Checkpoint { floor: Some(f), .. }` and `c[a]` component `a`'s checkpoint
//! version as of `T`, a record before `T` is retired unread when it is
//!
//! * a `Get` served a version `<= min(f, c[app])` — `T`'s
//!   `truncate_through` drops it from the rebuilt queue; or
//! * a `Put` of a version `<= min(f, c[app])` that is also below the highest
//!   version of its variable among the puts kept between it and `T` — `T`'s
//!   collection drops it from the rebuilt store, which keeps the newest
//!   version of a variable (all of its blocks) even below the floor.
//!
//! Keeping a record is always safe: `from_journal` applies it and the
//! checkpoint `T` collects it. Retiring one takes proof, and only fully
//! decoded entries give it — the checkpoints, and the kept puts (a record
//! that reads like a newer put and does not decode proves nothing). Every
//! control entry, and every record from `T` on, is decoded; a stream with no
//! collecting checkpoint is decoded whole, and so is one holding a
//! `GlobalReset`, which takes the newest
//! versions back out of the store where the rule above counts on them
//! staying. What is judged without decoding is read off the front of the
//! body — tag, `app`, `var`, and the version the entry's watermark is — and a
//! body that cannot even say that much is left to `decode` to refuse.
//!
//! The rebuilt backend is the one the whole stream gives — store, retained
//! events and markers, checkpoint versions, GC marks and floor, `next_w_chk`
//! — except for its lifetime counters (`appended`, `committed`,
//! `gc_reclaimed`), which count what was materialised, as they already
//! counted only what compaction had left.

use crate::event::LogEvent;
use bytes::Bytes;
use logstore::{BatchRecord, Journal};
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{AppId, ObjDesc, VarId, Version};
use staging::service::JournalStats;
use staging::wire::{self, Reader};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

const TAG_PUT: u8 = 1;
const TAG_GET: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;
const TAG_RECOVERY: u8 = 4;
const TAG_GLOBAL_RESET: u8 = 5;

/// One durable log record. Struct variants only (mirrors [`crate::event::LogEvent`])
/// plus the payload itself on puts — the journal must be able to rebuild the
/// data log, not just its metadata.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// A stored put (absorbed replays are never journaled — the original
    /// entry is already durable).
    Put {
        /// Writing component.
        app: AppId,
        /// What was written.
        desc: ObjDesc,
        /// The written data (inline bytes or virtual size+digest).
        payload: Payload,
        /// Payload digest, always `payload.digest()`: the layout records it
        /// here and again in the payload meta, and [`JournalEntry::decode`]
        /// refuses a record whose two copies disagree.
        digest: u64,
    },
    /// A served get (replayed gets are never journaled).
    Get {
        /// Reading component.
        app: AppId,
        /// Variable read.
        var: VarId,
        /// Version asked for.
        requested: Version,
        /// Version served.
        served: Version,
        /// Region read.
        bbox: BBox,
        /// Bytes served.
        bytes: u64,
        /// Digest of the served pieces.
        digest: u64,
    },
    /// A `workflow_check()` marker.
    Checkpoint {
        /// Checkpointing component.
        app: AppId,
        /// Globally unique checkpoint event id.
        w_chk_id: u64,
        /// Highest version the checkpoint covers.
        upto_version: Version,
        /// The effective GC floor of this checkpoint's collection pass
        /// (`None` when GC was disabled), decided when the entry was made.
        /// `min(marks) ≥ floor` holds wherever the entry is applied — live,
        /// or at this point of a replayed history — so collecting with the
        /// floor as a pin is the same pass in both.
        floor: Option<Version>,
    },
    /// A `workflow_restart()` marker. Applying it inserts the queue marker
    /// only — it must NOT enter replay mode (the live `control` does that
    /// before admitting the entry): any replay in flight at crash time is
    /// restarted from scratch by the app itself, which calls
    /// `workflow_restart()` again after the cold restart.
    Recovery {
        /// Recovering component.
        app: AppId,
        /// Version of the restored checkpoint.
        resume_version: Version,
    },
    /// A coordinated rollback: applying it drops every version newer than
    /// `to_version` from the store — live and in a rebuild alike, so a
    /// rebuilt store does not resurrect what the reset discarded.
    GlobalReset {
        /// Newest version kept.
        to_version: Version,
    },
}

impl JournalEntry {
    /// Compaction watermark: the data version this entry is tied to.
    fn watermark(&self) -> u64 {
        u64::from(match *self {
            JournalEntry::Put { desc, .. } => desc.version,
            JournalEntry::Get { served, .. } => served,
            JournalEntry::Checkpoint { upto_version, .. } => upto_version,
            JournalEntry::Recovery { resume_version, .. } => resume_version,
            JournalEntry::GlobalReset { to_version } => to_version,
        })
    }

    /// Must this entry be durable before `record` returns? Control markers —
    /// everything but a put or a get — must.
    fn is_commit_point(&self) -> bool {
        !matches!(self, JournalEntry::Put { .. } | JournalEntry::Get { .. })
    }

    /// Encode everything *except* an inline payload's bytes into `out`
    /// (binary codec). The inline bytes — [`JournalEntry::inline_payload`] —
    /// must land immediately after this prefix; the zero-copy append path
    /// hands them to the log as a separate vectored part.
    pub fn encode_meta_into(&self, out: &mut Vec<u8>) {
        let varint32 = |out: &mut Vec<u8>, v: u32| wire::put_varint(out, u64::from(v));
        match self {
            JournalEntry::Put { app, desc, payload, digest } => {
                wire::put_header(out, TAG_PUT);
                varint32(out, *app);
                varint32(out, desc.var);
                varint32(out, desc.version);
                wire::put_bbox(out, &desc.bbox);
                wire::put_u64(out, *digest);
                wire::put_payload_meta(out, payload);
            }
            JournalEntry::Get { app, var, requested, served, bbox, bytes, digest } => {
                wire::put_header(out, TAG_GET);
                varint32(out, *app);
                varint32(out, *var);
                varint32(out, *requested);
                varint32(out, *served);
                wire::put_bbox(out, bbox);
                wire::put_varint(out, *bytes);
                wire::put_u64(out, *digest);
            }
            JournalEntry::Checkpoint { app, w_chk_id, upto_version, floor } => {
                wire::put_header(out, TAG_CHECKPOINT);
                varint32(out, *app);
                wire::put_varint(out, *w_chk_id);
                varint32(out, *upto_version);
                wire::put_opt_varint(out, *floor);
            }
            JournalEntry::Recovery { app, resume_version } => {
                wire::put_header(out, TAG_RECOVERY);
                varint32(out, *app);
                varint32(out, *resume_version);
            }
            JournalEntry::GlobalReset { to_version } => {
                wire::put_header(out, TAG_GLOBAL_RESET);
                varint32(out, *to_version);
            }
        }
    }

    /// The inline payload bytes that follow the metadata prefix, if any.
    pub fn inline_payload(&self) -> Option<&Bytes> {
        match self {
            JournalEntry::Put { payload, .. } => payload.bytes(),
            _ => None,
        }
    }

    /// Contiguous serialized form: metadata prefix plus inline bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_meta_into(&mut out);
        if let Some(b) = self.inline_payload() {
            out.extend_from_slice(b);
        }
        out
    }

    /// Parse a record body back. `None` for anything that is not a complete
    /// binary entry — a foreign first byte, an unknown version or tag, a
    /// truncated or over-long body (the log frame CRC already rules out
    /// corruption).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let (tag, mut r) = Reader::for_entry(bytes).ok()?;
        let entry = match tag {
            TAG_PUT => {
                let app = r.var_u32().ok()?;
                let var = r.var_u32().ok()?;
                let version = r.var_u32().ok()?;
                let bbox = r.bbox().ok()?;
                let digest = r.u64().ok()?;
                let payload = r.payload().ok()?;
                if payload.digest() != digest {
                    return None;
                }
                JournalEntry::Put { app, desc: ObjDesc { var, version, bbox }, payload, digest }
            }
            TAG_GET => JournalEntry::Get {
                app: r.var_u32().ok()?,
                var: r.var_u32().ok()?,
                requested: r.var_u32().ok()?,
                served: r.var_u32().ok()?,
                bbox: r.bbox().ok()?,
                bytes: r.varint().ok()?,
                digest: r.u64().ok()?,
            },
            TAG_CHECKPOINT => JournalEntry::Checkpoint {
                app: r.var_u32().ok()?,
                w_chk_id: r.varint().ok()?,
                upto_version: r.var_u32().ok()?,
                floor: r.opt_var_u32().ok()?,
            },
            TAG_RECOVERY => {
                JournalEntry::Recovery { app: r.var_u32().ok()?, resume_version: r.var_u32().ok()? }
            }
            TAG_GLOBAL_RESET => JournalEntry::GlobalReset { to_version: r.var_u32().ok()? },
            _ => return None,
        };
        r.finish().ok()?;
        Some(entry)
    }

    /// The event this entry puts on its component's queue — the one place an
    /// entry becomes a [`LogEvent`]. `None` for a `GlobalReset`, which belongs
    /// to no component and is logged in no queue.
    pub(crate) fn event(&self) -> Option<LogEvent> {
        Some(match *self {
            JournalEntry::Put { app, desc, ref payload, digest } => {
                LogEvent::Put { app, desc, bytes: payload.accounted_len(), digest }
            }
            JournalEntry::Get { app, var, requested, served, bbox, bytes, digest } => {
                LogEvent::Get { app, var, requested, served, bbox, bytes, digest }
            }
            JournalEntry::Checkpoint { app, w_chk_id, upto_version, .. } => {
                LogEvent::Checkpoint { app, w_chk_id, upto_version }
            }
            JournalEntry::Recovery { app, resume_version } => {
                LogEvent::Recovery { app, resume_version }
            }
            JournalEntry::GlobalReset { .. } => return None,
        })
    }
}

/// Records coalesced per hand-off to the sink when no commit point arrives
/// first.
pub const DEFAULT_COALESCE: usize = 16;

/// A record coalesced in the writer, waiting for the next hand-off: its
/// metadata prefix lives in the shared scratch buffer, its inline payload
/// (if any) rides by refcount.
struct PendingRec {
    watermark: u64,
    meta: Range<usize>,
    payload: Option<Bytes>,
}

/// The logging backend's handle on its durable sink: owns the boxed
/// `logstore::Journal`, coalesces entries into batched group commits,
/// enforces commit-point flushes, and counts the I/O errors it swallows.
pub struct JournalWriter {
    sink: Box<dyn Journal>,
    scratch: Vec<u8>,
    pending: Vec<PendingRec>,
    coalesce: usize,
    entries_recorded: u64,
    errors: u64,
}

impl fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalWriter")
            .field("entries_recorded", &self.entries_recorded)
            .field("pending", &self.pending.len())
            .field("errors", &self.errors)
            .finish()
    }
}

impl JournalWriter {
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
        }
    }

    /// Record one entry. The entry is encoded now (metadata into the shared
    /// scratch, payload bytes by refcount) and handed to the sink in a batch
    /// at the next boundary; commit-point entries hand off and flush
    /// immediately.
    // lint: commit-point
    pub fn record(&mut self, entry: &JournalEntry) {
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

/// A put or get as the rebuild's reader judges it, read off the front of the
/// record body without materialising the entry.
#[derive(Clone, Copy)]
struct Transport {
    is_put: bool,
    app: AppId,
    var: VarId,
    /// The version stored or served: the entry's watermark.
    version: Version,
}

/// `None` for a control entry, or a body too short or too foreign to say.
fn peek_transport(body: &[u8]) -> Option<Transport> {
    let (tag, mut r) = Reader::for_entry(body).ok()?;
    if tag != TAG_PUT && tag != TAG_GET {
        return None;
    }
    let (app, var) = (r.var_u32().ok()?, r.var_u32().ok()?);
    if tag == TAG_GET {
        r.var_u32().ok()?; // the version asked for
    }
    Some(Transport { is_put: tag == TAG_PUT, app, var, version: r.var_u32().ok()? })
}

/// Decode every entry of a recovered record stream (e.g.
/// `LogStore::read_all`), dropping undecodable payloads: the reference
/// [`decode_records`] is checked against.
pub fn decode_all(records: &[logstore::Record]) -> Vec<JournalEntry> {
    records.iter().filter_map(|r| JournalEntry::decode(&r.payload)).collect()
}

/// Decode a recovered record stream (e.g. `LogStore::read_all`) into the
/// entries [`crate::backend::LoggingBackend::from_journal`] still needs, in
/// stream order, dropping undecodable payloads. See the module docs ("The
/// rebuild's reader") for what is retired unread and why that is safe;
/// [`decode_all`] is the decode-everything form.
pub fn decode_records(records: &[logstore::Record]) -> Vec<JournalEntry> {
    // One look at every body: what each put or get is about, and — from the
    // control entries, few and always decoded — the last checkpoint that ran
    // a collection with every component's checkpoint version as of then.
    let mut peeks = Vec::with_capacity(records.len());
    let mut ckpt: BTreeMap<AppId, Version> = BTreeMap::new();
    let mut last_pass = None;
    for (i, rec) in records.iter().enumerate() {
        let peek = peek_transport(&rec.payload);
        peeks.push(peek);
        if peek.is_some() {
            continue;
        }
        match JournalEntry::decode(&rec.payload) {
            // A reset takes the newest versions back out of the store, and
            // the newest-kept rule below counts on them staying.
            Some(JournalEntry::GlobalReset { .. }) => return decode_all(records),
            Some(JournalEntry::Checkpoint { app, upto_version, floor, .. }) => {
                let c = ckpt.entry(app).or_insert(upto_version);
                *c = (*c).max(upto_version);
                if let Some(floor) = floor {
                    last_pass = Some((i, floor, ckpt.clone()));
                }
            }
            _ => {}
        }
    }
    let Some((pass_at, floor, ckpt)) = last_pass else {
        return decode_all(records);
    };
    // What that pass truncated from `app`'s queue, if still there.
    let truncated = |app, version| ckpt.get(&app).is_some_and(|&c| version <= floor.min(c));

    // Newest first, so a put below the floor knows whether a newer version
    // of its variable was kept (and decoded) between it and the pass.
    let mut newest_kept: BTreeMap<VarId, Version> = BTreeMap::new();
    let mut entries = Vec::new();
    for (i, rec) in records.iter().enumerate().rev() {
        let before_pass = i < pass_at;
        if let (true, Some(t)) = (before_pass, peeks[i]) {
            let collected = !t.is_put || newest_kept.get(&t.var).is_some_and(|&n| t.version < n);
            if collected && truncated(t.app, t.version) {
                continue;
            }
        }
        let Some(entry) = JournalEntry::decode(&rec.payload) else { continue };
        if let (true, JournalEntry::Put { desc, .. }) = (before_pass, &entry) {
            let n = newest_kept.entry(desc.var).or_insert(desc.version);
            *n = (*n).max(desc.version);
        }
        entries.push(entry);
    }
    entries.reverse();
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use logstore::{FlushPolicy, LogConfig, LogStore, MemMedia};
    use std::io;
    use std::sync::{Arc, Mutex};

    /// The pinned first sample. Its `digest: 7` is not its payload's digest —
    /// the pin predates `decode` comparing the two — so it encodes as always
    /// and is the record `decode` must now refuse.
    fn put(app: AppId, version: Version) -> JournalEntry {
        JournalEntry::Put {
            app,
            desc: ObjDesc { var: 0, version, bbox: BBox::d1(0, 9) },
            payload: Payload::virtual_from(100, &[u64::from(version)]),
            digest: 7,
        }
    }

    fn inline_put(app: AppId, version: Version) -> JournalEntry {
        let payload = Payload::inline(vec![version as u8; 64]);
        JournalEntry::Put {
            app,
            desc: ObjDesc { var: 1, version, bbox: BBox::d1(0, 63) },
            digest: payload.digest(),
            payload,
        }
    }

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            put(0, 3),
            inline_put(0, 4),
            JournalEntry::Get {
                app: 1,
                var: 0,
                requested: 3,
                served: 2,
                bbox: BBox::d1(0, 9),
                bytes: 100,
                digest: 9,
            },
            JournalEntry::Checkpoint { app: 0, w_chk_id: 4, upto_version: 3, floor: Some(2) },
            JournalEntry::Checkpoint { app: 1, w_chk_id: 5, upto_version: 3, floor: None },
            JournalEntry::Recovery { app: 1, resume_version: 3 },
            JournalEntry::GlobalReset { to_version: 2 },
        ]
    }

    #[test]
    fn entries_round_trip_through_encoding() {
        let mut entries = sample_entries();
        assert_eq!(JournalEntry::decode(&entries[0].encode()), None, "its two digests disagree");
        if let JournalEntry::Put { payload, digest, .. } = &mut entries[0] {
            *digest = payload.digest();
        }
        for e in &entries {
            assert_eq!(JournalEntry::decode(&e.encode()).as_ref(), Some(e));
        }
        assert_eq!(entries[0].watermark(), 3);
        assert_eq!(entries[2].watermark(), 2, "gets key on the served version");
        assert!(!entries[0].is_commit_point());
        assert!(entries[3].is_commit_point());
        assert!(entries[5].is_commit_point());
        assert!(entries[6].is_commit_point());
        assert_eq!(entries[6].watermark(), 2, "a reset keys on the version it cuts back to");
    }

    #[test]
    fn meta_plus_inline_bytes_is_the_full_encoding() {
        let e = inline_put(0, 9);
        let mut meta = Vec::new();
        e.encode_meta_into(&mut meta);
        meta.extend_from_slice(e.inline_payload().unwrap());
        assert_eq!(meta, e.encode());
    }

    /// The bytes on media are pinned: (length, FNV-1a digest) of each
    /// sample's encoding. A change to any of them is a layout change, and a
    /// layout change bumps `WIRE_VERSION` — the reader knows one version, so
    /// a record of any other is refused whole rather than misread.
    #[test]
    fn encoding_of_existing_variants_is_pinned() {
        let pinned = [
            (31, 0xB7B3_7174_5DB4_1C55),
            (95, 0xAE71_8EB5_4844_95F9),
            (23, 0xD1BF_9DD4_338A_2B11),
            (8, 0x2B84_7B20_E5B3_1397),
            (7, 0xF8D8_D941_2B09_2442),
            (5, 0xC72F_7A56_3AA9_62E6),
            (4, 0xBC3A_041D_08F9_475D),
        ];
        let samples = sample_entries();
        assert_eq!(samples.len(), pinned.len());
        for (entry, want) in samples.iter().zip(pinned) {
            let bytes = entry.encode();
            assert_eq!((bytes.len(), staging::payload::fnv1a(&bytes)), want, "{entry:?}");
        }
        assert_eq!(wire::WIRE_VERSION, 2);
        for entry in &samples {
            let mut v1 = entry.encode();
            v1[1] = 1;
            assert_eq!(Reader::for_entry(&v1).unwrap_err(), wire::WireError::BadVersion(1));
            assert_eq!(JournalEntry::decode(&v1), None);
        }
    }

    /// The sizes the journal's overhead rests on: a stream step puts and gets
    /// 512-byte blocks with coordinates below 128 at versions below 16 384.
    #[test]
    fn stream_shaped_metadata_stays_small() {
        let bbox = BBox::d3([96, 64, 0], [103, 71, 7]);
        let payload = Payload::inline(vec![0xA5; 512]);
        let put = JournalEntry::Put {
            app: 3,
            desc: ObjDesc { var: 2, version: 16_383, bbox },
            digest: payload.digest(),
            payload,
        };
        let get = JournalEntry::Get {
            app: 4,
            var: 2,
            requested: 16_383,
            served: 16_383,
            bbox,
            bytes: 512,
            digest: u64::MAX,
        };
        let meta_len = |e: &JournalEntry| {
            let mut meta = Vec::new();
            e.encode_meta_into(&mut meta);
            meta.len()
        };
        assert!(meta_len(&put) <= 33, "put metadata: {} bytes", meta_len(&put));
        assert!(meta_len(&get) <= 26, "get metadata: {} bytes", meta_len(&get));
    }

    fn get(app: AppId, served: Version) -> JournalEntry {
        JournalEntry::Get {
            app,
            var: 1,
            requested: served,
            served,
            bbox: BBox::d1(0, 63),
            bytes: 64,
            digest: 9,
        }
    }

    fn ckpt(app: AppId, upto_version: Version, floor: Option<Version>) -> JournalEntry {
        JournalEntry::Checkpoint { app, w_chk_id: u64::from(upto_version), upto_version, floor }
    }

    fn framed(bodies: Vec<Vec<u8>>) -> Vec<logstore::Record> {
        let record = |(seq, body): (usize, Vec<u8>)| logstore::Record {
            seq: seq as u64,
            watermark: 0,
            payload: body.into(),
        };
        bodies.into_iter().enumerate().map(record).collect()
    }

    fn stream(entries: &[JournalEntry]) -> Vec<logstore::Record> {
        framed(entries.iter().map(JournalEntry::encode).collect())
    }

    #[test]
    fn without_a_collecting_checkpoint_every_entry_is_decoded() {
        let entries = vec![
            inline_put(0, 1),
            get(1, 1),
            inline_put(0, 2),
            ckpt(0, 2, None),
            ckpt(1, 2, None),
            JournalEntry::Recovery { app: 1, resume_version: 2 },
            get(1, 2),
        ];
        assert_eq!(decode_records(&stream(&entries)), entries);
    }

    #[test]
    fn a_global_reset_anywhere_means_every_entry_is_decoded() {
        let entries = vec![
            inline_put(0, 1),
            inline_put(0, 2),
            ckpt(0, 2, Some(2)),
            JournalEntry::GlobalReset { to_version: 1 },
        ];
        assert_eq!(decode_records(&stream(&entries)), entries);
    }

    #[test]
    fn what_the_last_collecting_checkpoint_retired_is_not_decoded_and_the_rest_is() {
        let mut entries = Vec::new();
        for v in 1..=4 {
            entries.extend([inline_put(0, v), get(1, v)]);
        }
        // Component 2 reads too and never checkpoints: nothing of its queue
        // was truncated.
        entries.push(get(2, 1));
        entries.extend([ckpt(0, 4, Some(0)), ckpt(1, 3, Some(3))]);
        // After the pass nothing was collected, however old it looks.
        entries.extend([inline_put(0, 2), get(1, 1), ckpt(0, 5, None)]);
        let kept = vec![
            inline_put(0, 4),
            get(1, 4),
            get(2, 1),
            ckpt(0, 4, Some(0)),
            ckpt(1, 3, Some(3)),
            inline_put(0, 2),
            get(1, 1),
            ckpt(0, 5, None),
        ];
        assert_eq!(decode_records(&stream(&entries)), kept);
    }

    #[test]
    fn the_newest_version_survives_below_the_floor_and_all_of_it() {
        let block_put = |version: Version, block: u64| {
            let payload = Payload::inline(vec![version as u8; 64]);
            JournalEntry::Put {
                app: 0,
                desc: ObjDesc { var: 1, version, bbox: BBox::d1(block * 64, block * 64 + 63) },
                digest: payload.digest(),
                payload,
            }
        };
        let entries = vec![
            block_put(1, 0),
            block_put(1, 1),
            block_put(2, 0),
            block_put(2, 1),
            ckpt(0, 9, Some(9)),
        ];
        assert_eq!(decode_records(&stream(&entries)), entries[2..]);
    }

    #[test]
    fn an_undecodable_record_contributes_nothing_and_proves_nothing() {
        // `put(0, 2)` reads as a newer version of variable 0 and does not
        // decode (its two digests disagree): the version below it is then
        // the newest the rebuilt store will hold, and must be kept.
        let payload = Payload::virtual_from(100, &[1]);
        let newest_that_decodes = JournalEntry::Put {
            app: 0,
            desc: ObjDesc { var: 0, version: 1, bbox: BBox::d1(0, 9) },
            digest: payload.digest(),
            payload,
        };
        let mut torn = get(0, 1).encode();
        torn.truncate(5);
        let records = framed(vec![
            newest_that_decodes.encode(),
            put(0, 2).encode(),
            torn,
            b"not an entry".to_vec(),
            Vec::new(),
            ckpt(0, 5, Some(5)).encode(),
        ]);
        let kept = vec![newest_that_decodes, ckpt(0, 5, Some(5))];
        assert_eq!(decode_records(&records), kept);
        assert_eq!(decode_all(&records), kept);
    }

    /// A `LogStore` on `mem` that never flushes on its own.
    fn lazy_cfg() -> LogConfig {
        LogConfig { flush: FlushPolicy::PerBatch { records: 1_000 }, ..LogConfig::default() }
    }

    fn writer(mem: &MemMedia, cfg: LogConfig, coalesce: usize) -> JournalWriter {
        JournalWriter::new(Box::new(LogStore::open(Box::new(mem.clone()), cfg).unwrap()), coalesce)
    }

    fn survivors(mem: &MemMedia, cfg: LogConfig) -> Vec<JournalEntry> {
        decode_all(&LogStore::open(Box::new(mem.clone()), cfg).unwrap().read_all().unwrap())
    }

    #[test]
    fn coalescing_hands_off_at_window_and_commit_points() {
        let mem = MemMedia::new();
        let mut j = writer(&mem, lazy_cfg(), 4);
        for v in 0..3 {
            j.record(&inline_put(0, v));
        }
        assert_eq!(j.pending.len(), 3, "below the window: coalesced in the writer");
        j.record(&inline_put(0, 3));
        assert_eq!(j.pending.len(), 0, "window reached: handed to the sink");
        assert_eq!(j.stats().records_batched, 4);
        // A commit point hands off AND flushes, regardless of window fill.
        j.record(&inline_put(0, 4));
        j.record(&ckpt(0, 4, None));
        assert_eq!(j.pending.len(), 0);
        assert_eq!(j.stats().entries_recorded, 6);
        assert_eq!(j.stats().errors, 0);
        // Everything is durable and decodes back.
        let entries = survivors(&mem, lazy_cfg());
        assert_eq!(entries.len(), 6);
        assert_eq!(entries[5], ckpt(0, 4, None));
    }

    #[test]
    fn crash_loses_coalesced_tail_but_keeps_commit_prefix() {
        let mem = MemMedia::new();
        let mut j = writer(&mem, lazy_cfg(), DEFAULT_COALESCE);
        j.record(&inline_put(0, 1));
        j.record(&ckpt(0, 1, None));
        j.record(&inline_put(0, 2)); // coalesced, never flushed
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
        j.record(&inline_put(0, 1));
        j.record(&inline_put(0, 2));
        let before = mem.synced_bytes();
        j.record(&ckpt(0, 2, None));
        assert!(mem.synced_bytes() > before, "a commit-point entry must flush");
        assert_eq!(j.stats().bytes_flushed, mem.synced_bytes() as u64);
        j.record(&inline_put(0, 3)); // coalesced again
        drop(j);
        mem.crash();
        let entries = survivors(&mem, lazy_cfg());
        assert_eq!(entries, vec![inline_put(0, 1), inline_put(0, 2), ckpt(0, 2, None)]);
    }

    #[test]
    fn coalescing_batches_records_to_the_sink() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::PerRecord, ..LogConfig::default() };
        let mut j = writer(&mem, cfg, 8);
        for v in 0..8 {
            j.record(&inline_put(0, v));
        }
        assert_eq!(j.pending.len(), 0, "window reached: handed off");
        assert_eq!(j.stats().records_batched, 8);
        // PerRecord sink + batched hand-off = ONE group commit for all 8.
        assert_eq!(j.stats().group_commits, 1);
        let entries = survivors(&mem, cfg);
        assert_eq!(entries.len(), 8);
        for (v, e) in entries.iter().enumerate() {
            assert_eq!(
                e,
                &inline_put(0, v as Version),
                "zero-copy path preserves the payload bytes"
            );
        }
    }

    #[test]
    fn zero_window_behaves_as_one() {
        let mem = MemMedia::new();
        let mut j = writer(&mem, lazy_cfg(), 0);
        j.record(&inline_put(0, 1));
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
        let mut j = JournalWriter::new(sink, 8);
        j.record(&inline_put(0, 5));
        j.record(&inline_put(0, 6));
        assert!(calls.lock().unwrap().is_empty(), "below the window: nothing reached the sink");
        assert_eq!(j.compact_below(5), 3, "the sink's count is passed through");
        assert_eq!(*calls.lock().unwrap(), ["append_batch(2)", "compact_below(5)"]);
        assert_eq!(j.pending.len(), 0);
        assert_eq!(j.stats().errors, 0);
    }

    #[test]
    fn sink_errors_are_counted_and_swallowed() {
        let (sink, calls) = probe(true);
        let mut j = JournalWriter::new(sink, 2);
        j.record(&inline_put(0, 1));
        j.record(&inline_put(0, 2)); // window: append_batch fails
        assert_eq!(j.stats().errors, 1);
        j.record(&ckpt(0, 2, None)); // commit point: append_batch and flush both fail
        assert_eq!(j.stats().errors, 3);
        assert_eq!(j.compact_below(9), 0, "a failed compaction removed nothing");
        assert_eq!(j.stats().errors, 4);
        assert_eq!(j.pending.len(), 0, "failed batches are dropped, not retried forever");
        assert_eq!(
            *calls.lock().unwrap(),
            ["append_batch(2)", "append_batch(1)", "flush", "compact_below(9)"]
        );
    }
}
