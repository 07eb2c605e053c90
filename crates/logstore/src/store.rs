//! The segmented append-only log.
//!
//! On-media layout: a directory of segment files `seg-00000000.log`,
//! `seg-00000001.log`, … Each file starts with an 8-byte magic and then holds
//! back-to-back frames:
//!
//! ```text
//! [len: u32 LE] [seq: u64 LE] [watermark: u64 LE] [crc32: u32 LE] [payload]
//! ```
//!
//! where `crc32` covers the LE bytes of `seq`, then `watermark`, then the
//! payload. `seq` increments by one per record across the whole log; recovery
//! enforces contiguity, which is what catches the one damage shape a CRC
//! cannot: a sealed segment truncated exactly on a frame boundary, which
//! would otherwise read as a shorter-but-valid segment and let later
//! segments smuggle a gap into the stream.
//!
//! A segment reaches the media with its first records: the magic waits in
//! the write buffer and goes down in the same write, and under the same
//! fsync, as the frames behind it. Opening or rotating writes nothing, so a
//! segment file exists only once it holds a record, and a file a crash left
//! empty is read as absent.
//!
//! **Write path.** There is one: [`LogStore::append`] and
//! [`LogStore::append_parts`] are [`LogStore::append_batch`] of a single
//! record, so rotation, the oversized-record rule and the [`FlushPolicy`]
//! decision each have one site. A run of records is framed at once: the
//! headers go into a reusable scratch buffer [`FRAME_HEADER`] bytes apart —
//! no per-record allocation — and the CRCs of up to four frames stream
//! abreast over the payloads' scattered parts (frames are independent, and
//! one CRC is bound by its own dependency chain; the recovery scan does the
//! same on the way in), so a record whose payload lives in two places (an
//! encoded header plus zero-copy data bytes) is framed without ever being
//! assembled. A frame's CRC is a function of its own bytes only: the media
//! holds what a frame-at-a-time writer would have put there. When the policy
//! commits at the batch boundary the media gets **one vectored write**
//! spanning every frame (headers from the scratch buffer, payload bytes
//! straight from the caller's slices) followed by a single fsync: group
//! commit, one flush instead of N.
//!
//! **A failed write is final.** A run's `seq`s are used up before the media
//! sees it, so after a media error the log has a hole that the next open
//! truncates everything behind. The store keeps the first error's kind, and
//! every later [`LogStore::append`], [`LogStore::append_parts`],
//! [`LogStore::append_batch`], [`LogStore::flush`] and
//! [`LogStore::compact_below`] fails with it and writes nothing: no record
//! is acknowledged past the hole. Reopening the media recovers the prefix
//! and writes again.
//!
//! Appends buffer frames in memory and push them to the media under a
//! [`FlushPolicy`]; only flushed-and-synced bytes survive a crash.
//! [`FlushPolicy::Grouped`] double-buffers: a sealed group's bytes are
//! *staged* (appended, not yet fsynced) and the fsync is deferred until the
//! next group seals or a commit point forces it — append latency decouples
//! from sync latency while the crash contract stays exact, because staged
//! bytes are not counted durable and a crash simply truncates them like any
//! torn tail. Recovery ([`LogStore::open`]) scans segments in index order,
//! truncates at the first torn, corrupt, or out-of-sequence frame and
//! discards everything after it — the surviving log is always a
//! checksum-clean prefix of what was written, the invariant the crash-point
//! oracle pins down byte by byte.
//!
//! **Segments follow checkpoints.** [`LogStore::compact_below`] deletes the
//! sealed segments wholly below the caller's checkpoint floor and then seals
//! the active segment if it holds a record below that floor, so the next
//! checkpoint's compaction can delete it too. The live log is therefore
//! about one checkpoint interval long: a cold restart reads that much, not
//! a whole `segment_bytes` segment, which stays the size cap.

use crate::checksum::Crc32;
use crate::media::Media;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::io;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// First 8 bytes of every segment file: `LSEG`, format version 1, padding.
pub const SEGMENT_MAGIC: [u8; 8] = *b"LSEG\x01\0\0\0";

/// Bytes of frame header before the payload: len + seq + watermark + crc.
pub const FRAME_HEADER: usize = 4 + 8 + 8 + 4;

/// When buffered frames are pushed to the media and fsynced.
///
/// Every trigger is a pure function of the append stream (record counts,
/// plus the segment size for rotation) — never of wall time — so flush
/// decisions replay identically under the deterministic simulator and the
/// model checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlushPolicy {
    /// Flush + fsync after every record (strongest, slowest).
    PerRecord,
    /// Flush + fsync once `records` records have accumulated.
    PerBatch {
        /// Batch size in records.
        records: usize,
    },
    /// Group commit with a deferred fsync: once `records` records have
    /// accumulated the group's bytes are appended to the media but the fsync
    /// is left in flight, completing when the *next* group seals (or at a
    /// commit point). Appends therefore never wait on sync latency, at the
    /// price of a loss window of up to two groups.
    Grouped {
        /// Group size in records.
        records: usize,
    },
}

/// Log configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogConfig {
    /// Rotate to a new segment once the active one would exceed this size
    /// (bytes, including the magic). A single oversized record still lands
    /// whole — segments are never split mid-frame. A cap, not a length:
    /// compaction seals the active segment earlier once it holds a record
    /// below the checkpoint floor.
    pub segment_bytes: u64,
    /// Flush/fsync policy.
    pub flush: FlushPolicy,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig { segment_bytes: 64 * 1024, flush: FlushPolicy::PerBatch { records: 16 } }
    }
}

/// An immutable range of a shared buffer: a recovered record's body is a
/// window onto the segment it was read in, not a copy of it. Holding one
/// keeps the whole segment buffer alive, so long-lived consumers copy the
/// bytes they keep (`staging::wire` does) and let the records go.
#[derive(Clone)]
pub struct SharedSlice {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Deref for SharedSlice {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl From<Vec<u8>> for SharedSlice {
    fn from(bytes: Vec<u8>) -> Self {
        SharedSlice { range: 0..bytes.len(), buf: Arc::new(bytes) }
    }
}

impl PartialEq for SharedSlice {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SharedSlice {}

impl std::fmt::Debug for SharedSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Position in the append stream (contiguous; recovery rejects gaps).
    pub seq: u64,
    /// Compaction watermark (e.g. the staging version or `W_Chk_ID` the
    /// record belongs to).
    pub watermark: u64,
    /// Record body.
    pub payload: SharedSlice,
}

/// One record of an [`LogStore::append_batch`] group: a watermark plus a
/// payload scattered across parts (typically an encoded metadata prefix and
/// the data's own zero-copy byte slice). On media the frame holds the
/// concatenation of the parts; the CRC and length prefix cover it as one
/// payload.
#[derive(Debug, Clone, Copy)]
pub struct BatchRecord<'a> {
    /// Compaction watermark for the record.
    pub watermark: u64,
    /// Scattered payload parts, in order. Empty parts are allowed.
    pub parts: &'a [&'a [u8]],
}

impl BatchRecord<'_> {
    /// Total payload length across all parts.
    pub fn payload_len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }
}

#[derive(Debug, Clone)]
struct SegmentMeta {
    index: u64,
    /// Bytes *durable* on the media (magic + flushed-and-synced frames).
    /// Buffered and staged frames are not included until fsynced; 0 until
    /// the segment's first sync, which carries its magic.
    disk_len: u64,
    min_watermark: Option<u64>,
    max_watermark: Option<u64>,
    records: u64,
}

impl SegmentMeta {
    fn new(index: u64) -> Self {
        SegmentMeta { index, disk_len: 0, min_watermark: None, max_watermark: None, records: 0 }
    }

    fn note_record(&mut self, watermark: u64) {
        self.records += 1;
        self.min_watermark = Some(self.min_watermark.map_or(watermark, |m| m.min(watermark)));
        self.max_watermark = Some(self.max_watermark.map_or(watermark, |m| m.max(watermark)));
    }
}

fn seg_name(index: u64) -> String {
    format!("seg-{index:08}.log")
}

fn parse_seg_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(".log")?.parse().ok()
}

/// Frames checksummed at once, by the scan and by the write path alike (see
/// [`Crc32::update_abreast`]).
const LANES: usize = 4;

/// Frame a run of records whose first takes `first_seq`: one header (len +
/// seq + watermark + crc) a record is appended to `out`, [`FRAME_HEADER`]
/// bytes apart. The records are taken [`LANES`] at a time: each lane's CRC
/// is seeded with its `seq ‖ watermark` and the four then stream abreast
/// over part after part of the payloads, so no payload is ever assembled
/// and a group's frames do not wait on one another's checksum. A journal
/// group's parts are of equal length record to record, so the common length
/// is nearly all of it; a short last chunk leaves lanes empty and its
/// records run alone, as the scan's do — a run of one is checksummed as the
/// single stream it is.
fn encode_headers_into(out: &mut Vec<u8>, first_seq: u64, run: &[BatchRecord<'_>]) {
    out.reserve(run.len() * FRAME_HEADER);
    for (chunk, seq) in run.chunks(LANES).zip((first_seq..).step_by(LANES)) {
        let mut seeds = [[0u8; 16]; LANES];
        let mut crcs: [Crc32; LANES] = std::array::from_fn(|_| Crc32::new());
        for (k, r) in chunk.iter().enumerate() {
            seeds[k][..8].copy_from_slice(&(seq + k as u64).to_le_bytes());
            seeds[k][8..].copy_from_slice(&r.watermark.to_le_bytes());
            crcs[k].update(&seeds[k]);
        }
        let parts = chunk.iter().map(|r| r.parts.len()).max().unwrap_or(0);
        for part in 0..parts {
            let lanes = std::array::from_fn(|k| {
                chunk.get(k).and_then(|r| r.parts.get(part)).map_or(&[][..], |p| p)
            });
            Crc32::update_abreast(&mut crcs, lanes);
        }
        for ((r, seed), crc) in chunk.iter().zip(&seeds).zip(crcs) {
            out.extend_from_slice(&(r.payload_len() as u32).to_le_bytes());
            out.extend_from_slice(seed);
            out.extend_from_slice(&crc.finish().to_le_bytes());
        }
    }
}

/// A frame whose header and payload lie inside the segment. Nothing in it is
/// believed until its CRC has agreed.
struct Frame<'a> {
    seq: u64,
    watermark: u64,
    stored_crc: u32,
    /// What the CRC covers, in order: `seq ‖ watermark` as framed, then the
    /// payload.
    covered: [&'a [u8]; 2],
    /// Where the payload lies in the segment.
    payload: Range<usize>,
}

/// Parse the header at `data[offset..]` without copying anything. `None` if
/// the header, or the payload its length field announces, runs past `data`.
fn frame_at(data: &[u8], offset: usize) -> Option<Frame<'_>> {
    let (len, rest) = data.get(offset..)?.split_first_chunk::<4>()?;
    let (seq, rest) = rest.split_first_chunk::<8>()?;
    let (watermark, rest) = rest.split_first_chunk::<8>()?;
    let (stored_crc, rest) = rest.split_first_chunk::<4>()?;
    let body = rest.get(..u32::from_le_bytes(*len) as usize)?;
    let start = offset + FRAME_HEADER;
    Some(Frame {
        seq: u64::from_le_bytes(*seq),
        watermark: u64::from_le_bytes(*watermark),
        stored_crc: u32::from_le_bytes(*stored_crc),
        covered: [&data[offset + 4..offset + 20], body],
        payload: start..start + body.len(),
    })
}

/// Walk segment `index`'s frames in `data[..end]`, pushing each valid one
/// onto `out` as a window onto `data`, until the first torn, corrupt or
/// out-of-sequence frame. `expected_seq` carries contiguity from one
/// segment to the next; `None` accepts any starting seq (compaction may have
/// deleted the front of the log). The returned `disk_len` is where the clean
/// prefix ends; `None` means the segment has no valid magic.
///
/// Frames are independent and one CRC is bound by its own dependency chain,
/// so up to [`LANES`] frames are chained by their length fields and
/// checksummed abreast. A length is only a guess until its own frame's CRC
/// has agreed, and a frame is accepted only after every frame before it: the
/// clean prefix is the one a frame-at-a-time walk finds.
///
/// This is the one reader of the frame format: the recovery scan and
/// [`LogStore::read_all`] both go through it.
fn scan_segment(
    index: u64,
    data: &Arc<Vec<u8>>,
    end: usize,
    expected_seq: &mut Option<u64>,
    out: &mut Vec<Record>,
) -> Option<SegmentMeta> {
    let bytes = &data[..end.min(data.len())];
    if !bytes.starts_with(&SEGMENT_MAGIC) {
        return None;
    }
    let mut meta = SegmentMeta::new(index);
    let mut offset = SEGMENT_MAGIC.len();
    'scan: loop {
        let mut next = offset;
        let frames: [Option<Frame>; LANES] = std::array::from_fn(|_| {
            let frame = frame_at(bytes, next)?;
            next = frame.payload.end;
            Some(frame)
        });
        let mut crcs: [Crc32; LANES] = std::array::from_fn(|_| Crc32::new());
        for part in 0..2 {
            let lanes = frames.each_ref().map(|f| f.as_ref().map_or(&[][..], |f| f.covered[part]));
            Crc32::update_abreast(&mut crcs, lanes);
        }
        for (frame, crc) in frames.into_iter().zip(crcs) {
            let Some(Frame { seq, watermark, stored_crc, payload, .. }) = frame else {
                break 'scan;
            };
            if crc.finish() != stored_crc || expected_seq.is_some_and(|e| e != seq) {
                break 'scan;
            }
            offset = payload.end;
            *expected_seq = Some(seq + 1);
            meta.note_record(watermark);
            out.push(Record {
                seq,
                watermark,
                payload: SharedSlice { buf: Arc::clone(data), range: payload },
            });
        }
    }
    meta.disk_len = offset as u64;
    Some(meta)
}

/// How a run of batch records leaves [`LogStore::append_batch`].
enum RunMode {
    /// Copy the frames into the write buffer; no media I/O yet.
    Buffer,
    /// One vectored append + fsync for the whole run (plus anything buffered
    /// or staged before it).
    Flush,
    /// One vectored append, fsync deferred ([`FlushPolicy::Grouped`]).
    Seal,
}

/// The durable segmented log. See the module docs for the format.
///
/// There is deliberately **no** flush-on-drop: a dropped `LogStore` loses its
/// buffered tail exactly as a killed process would, which is what the cold
/// restart tests rely on. Call [`LogStore::flush`] before a graceful
/// shutdown.
pub struct LogStore {
    media: Box<dyn Media>,
    cfg: LogConfig,
    /// All live segments in index order; the last one is active.
    segments: Vec<SegmentMeta>,
    next_seq: u64,
    /// Frames encoded but not yet pushed to the media.
    buf: Vec<u8>,
    buf_records: usize,
    /// Bytes appended to the active segment's file whose fsync is still in
    /// flight ([`FlushPolicy::Grouped`] double buffering). Not durable.
    staged: u64,
    staged_records: usize,
    /// Reusable header scratch for vectored batch appends.
    scratch: Vec<u8>,
    /// What the recovery scan validated, kept so the first
    /// [`LogStore::read_all`] need not read the media again. Taken by that
    /// call, dropped by the first append or compaction — whichever comes
    /// first — so the segment buffers never outlive the restart.
    scan: Cell<Option<Vec<Record>>>,
    /// The kind of the first media error a write met; every later write
    /// fails with it (module docs: "A failed write is final").
    failed: Option<io::ErrorKind>,
    bytes_flushed: u64,
    bytes_appended: u64,
    records_appended: u64,
    segments_compacted: u64,
    recovered_records: u64,
    truncated_bytes: u64,
    removed_segments: u64,
    group_commits: u64,
    records_batched: u64,
}

impl std::fmt::Debug for LogStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogStore")
            .field("cfg", &self.cfg)
            .field("segments", &self.segments.len())
            .field("buffered_bytes", &self.buf.len())
            .field("staged_bytes", &self.staged)
            .field("bytes_flushed", &self.bytes_flushed)
            .field("failed", &self.failed)
            .finish()
    }
}

impl LogStore {
    /// Open a log over `media`, running the recovery scan. Opening writes
    /// nothing: a log with no surviving segment gets a fresh active one
    /// whose magic reaches the media with its first records.
    ///
    /// The scan walks segments in index order and keeps the longest
    /// checksum-clean prefix: an empty file is a segment whose first write
    /// never became durable and is removed as absent; the first segment
    /// with a short/invalid magic or no intact record is removed; the first
    /// torn or CRC-failing frame truncates its segment at that offset; every
    /// segment after the first damage is removed (a later segment cannot be
    /// trusted once an earlier one lost its tail — order across segments
    /// must match append order).
    pub fn open(media: Box<dyn Media>, cfg: LogConfig) -> io::Result<Self> {
        let mut store = LogStore {
            media,
            cfg,
            segments: Vec::new(),
            next_seq: 0,
            buf: Vec::new(),
            buf_records: 0,
            staged: 0,
            staged_records: 0,
            scratch: Vec::new(),
            scan: Cell::new(None),
            failed: None,
            bytes_flushed: 0,
            bytes_appended: 0,
            records_appended: 0,
            segments_compacted: 0,
            recovered_records: 0,
            truncated_bytes: 0,
            removed_segments: 0,
            group_commits: 0,
            records_batched: 0,
        };
        store.recover()?;
        if store.segments.is_empty() {
            store.create_segment(0);
        }
        Ok(store)
    }

    fn recover(&mut self) -> io::Result<()> {
        let mut indices: Vec<u64> =
            self.media.list()?.iter().filter_map(|n| parse_seg_name(n)).collect();
        indices.sort_unstable();
        let mut clean = true;
        // Contiguity across the whole scan; `None` accepts any starting seq
        // (compaction may have deleted the front of the log).
        let mut expected_seq: Option<u64> = None;
        let mut scan = Vec::new();
        for index in indices {
            let name = seg_name(index);
            if !clean {
                self.media.remove(&name)?;
                self.removed_segments += 1;
                continue;
            }
            let data = Arc::new(self.media.read(&name)?);
            let meta = scan_segment(index, &data, data.len(), &mut expected_seq, &mut scan);
            let Some(meta) = meta.filter(|m| m.records > 0) else {
                // Nothing durable: the segment ends the clean prefix. Rotation
                // syncs a segment before the next one is written, so nothing
                // after it can be trusted. An empty file is a new segment
                // whose first sync never happened — absent, not damage.
                if !data.is_empty() {
                    self.truncated_bytes += data.len() as u64;
                    self.removed_segments += 1;
                }
                self.media.remove(&name)?;
                clean = false;
                continue;
            };
            if meta.disk_len < data.len() as u64 {
                // Torn tail (mid-frame crash), corruption, or a sequence gap
                // — in all cases nothing at or past this offset is trusted.
                clean = false;
                self.truncated_bytes += data.len() as u64 - meta.disk_len;
                self.media.truncate(&name, meta.disk_len)?;
            }
            self.segments.push(meta);
        }
        self.recovered_records = scan.len() as u64;
        self.scan.set(Some(scan));
        self.next_seq = expected_seq.unwrap_or(0);
        Ok(())
    }

    /// Make segment `index` the active one. Nothing reaches the media here:
    /// the magic waits in the write buffer and goes down in the same write,
    /// and under the same fsync, as the segment's first frames — so a
    /// segment exists on the media only once it holds a record, and no
    /// header costs a sync of its own.
    fn create_segment(&mut self, index: u64) {
        debug_assert!(self.buf.is_empty() && self.staged == 0);
        self.buf.extend_from_slice(&SEGMENT_MAGIC);
        self.segments.push(SegmentMeta::new(index));
    }

    /// Seal the active segment and open the next one: the sealed segment's
    /// pending frames reach the media (and its fsync) before any byte of
    /// the next, so recovery's order across segments stays append order.
    fn rotate(&mut self) -> io::Result<()> {
        self.drain()?;
        let next = self.active().index + 1;
        self.create_segment(next);
        Ok(())
    }

    fn active(&self) -> &SegmentMeta {
        self.segments.last().expect("log always has an active segment")
    }

    fn active_mut(&mut self) -> &mut SegmentMeta {
        self.segments.last_mut().expect("log always has an active segment")
    }

    /// Per-record accounting shared by every append path. Call once per
    /// record, after its frame bytes are handed to `buf`/`scratch`.
    fn note_appended(&mut self, watermark: u64, frame_len: u64) {
        self.next_seq += 1;
        self.bytes_appended += frame_len;
        self.records_appended += 1;
        self.buf_records += 1;
        self.active_mut().note_record(watermark);
    }

    /// Account `bytes`/`records` as durable (fsync completed) and clear the
    /// staged state.
    fn note_durable(&mut self, bytes: u64, records: usize) {
        self.bytes_flushed += bytes;
        self.active_mut().disk_len += bytes;
        if records >= 2 {
            self.group_commits += 1;
        }
        self.staged = 0;
        self.staged_records = 0;
    }

    /// Append one record; flushing is governed by the configured policy.
    pub fn append(&mut self, watermark: u64, payload: &[u8]) -> io::Result<()> {
        self.append_parts(watermark, &[payload])
    }

    /// Append one record whose payload is scattered across `parts` (e.g. an
    /// encoded metadata prefix plus the data's own bytes): a batch of one, so
    /// the frame is checksummed over the parts as they lie and never
    /// assembled.
    pub fn append_parts(&mut self, watermark: u64, parts: &[&[u8]]) -> io::Result<()> {
        self.unless_failed(|log| log.append_run(&[BatchRecord { watermark, parts }]))
    }

    /// Append a whole group of records with **one** flush decision at the
    /// batch boundary (group commit): when the policy commits, the media
    /// receives a single vectored write spanning every frame — headers from
    /// the scratch encoder, payload bytes straight from the caller's slices
    /// — followed by a single fsync (deferred under
    /// [`FlushPolicy::Grouped`]). Under `PerRecord` the batch itself is the
    /// commit unit: one flush for the group instead of N.
    ///
    /// Segment rotation mid-batch splits the group; each sub-run that a
    /// rotation terminates is flushed by the rotation as usual.
    pub fn append_batch(&mut self, batch: &[BatchRecord<'_>]) -> io::Result<()> {
        self.unless_failed(|log| {
            log.records_batched += batch.len() as u64;
            log.append_run(batch)
        })
    }

    /// Run one write-path operation unless an earlier one failed, and
    /// remember the kind of its error if it fails now.
    fn unless_failed<T>(&mut self, op: impl FnOnce(&mut Self) -> io::Result<T>) -> io::Result<T> {
        if let Some(kind) = self.failed {
            return Err(io::Error::new(
                kind,
                "an earlier write to this log failed; nothing more is written until it is reopened",
            ));
        }
        let result = op(self);
        if let Err(e) = &result {
            self.failed = Some(e.kind());
        }
        result
    }

    /// The one write path: cut `batch` into the runs that fit a segment,
    /// rotating between them, and decide once — at the end of the batch —
    /// whether the policy buffers, flushes or seals.
    fn append_run(&mut self, batch: &[BatchRecord<'_>]) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.scan.set(None);
        let mut i = 0;
        while i < batch.len() {
            let base = self.active().disk_len + self.staged + self.buf.len() as u64;
            let seg_empty = self.active().records == 0;
            let mut end = i;
            let mut run_bytes = 0u64;
            while end < batch.len() {
                let flen = (FRAME_HEADER + batch[end].payload_len()) as u64;
                if base + run_bytes + flen <= self.cfg.segment_bytes {
                    run_bytes += flen;
                    end += 1;
                } else if seg_empty && end == i {
                    // One oversized record lands whole in an empty segment.
                    run_bytes += flen;
                    end += 1;
                    break;
                } else {
                    break;
                }
            }
            if end == i {
                // The next record needs a fresh segment.
                self.rotate()?;
                continue;
            }
            let mode = if end < batch.len() {
                // A rotation follows: this run must reach the media now.
                RunMode::Flush
            } else {
                match self.cfg.flush {
                    FlushPolicy::PerRecord => RunMode::Flush,
                    FlushPolicy::PerBatch { records }
                        if self.buf_records + (end - i) >= records =>
                    {
                        RunMode::Flush
                    }
                    FlushPolicy::Grouped { records } if self.buf_records + (end - i) >= records => {
                        RunMode::Seal
                    }
                    _ => RunMode::Buffer,
                }
            };
            self.emit_run(&batch[i..end], run_bytes, mode)?;
            i = end;
        }
        Ok(())
    }

    /// Write one run of batch records under `mode`. On `Flush`/`Seal` the
    /// media sees a single vectored append: `[buffered tail, hdr0, parts0…,
    /// hdr1, parts1…]` — payload bytes travel from the caller's slices to
    /// the media without an intermediate copy.
    fn emit_run(
        &mut self,
        run: &[BatchRecord<'_>],
        run_bytes: u64,
        mode: RunMode,
    ) -> io::Result<()> {
        self.scratch.clear();
        encode_headers_into(&mut self.scratch, self.next_seq, run);
        for r in run {
            self.note_appended(r.watermark, (FRAME_HEADER + r.payload_len()) as u64);
        }
        if matches!(mode, RunMode::Buffer) {
            for (r, hdr) in run.iter().zip(self.scratch.chunks_exact(FRAME_HEADER)) {
                self.buf.extend_from_slice(hdr);
                for p in r.parts {
                    self.buf.extend_from_slice(p);
                }
            }
            return Ok(());
        }
        let name = seg_name(self.active().index);
        let sealing = matches!(mode, RunMode::Seal);
        if sealing && self.staged > 0 {
            // Complete the previous group's deferred fsync *before* this
            // group's bytes reach the file, so the sync covers exactly the
            // sealed prefix.
            self.media.sync(&name)?;
            let (b, r) = (self.staged, self.staged_records);
            self.note_durable(b, r);
        }
        {
            let LogStore { media, scratch, buf, .. } = self;
            let mut parts: Vec<&[u8]> = Vec::with_capacity(1 + run.len() * 3);
            if !buf.is_empty() {
                parts.push(buf.as_slice());
            }
            for (r, hdr) in run.iter().zip(scratch.chunks_exact(FRAME_HEADER)) {
                parts.push(hdr);
                parts.extend(r.parts.iter().filter(|p| !p.is_empty()));
            }
            media.append_vectored(&name, &parts)?;
        }
        let batch_records = self.buf_records;
        let batch_bytes = self.buf.len() as u64 + run_bytes;
        self.buf.clear();
        self.buf_records = 0;
        if sealing {
            self.staged = batch_bytes;
            self.staged_records = batch_records;
        } else {
            self.media.sync(&name)?;
            let (b, r) = (self.staged + batch_bytes, self.staged_records + batch_records);
            self.note_durable(b, r);
        }
        Ok(())
    }

    /// Push all buffered frames to the media and fsync the active segment,
    /// completing any deferred group sync. After `flush` returns, every
    /// record appended so far is durable. With no record pending it writes
    /// and syncs nothing.
    pub fn flush(&mut self) -> io::Result<()> {
        self.unless_failed(Self::drain)
    }

    fn drain(&mut self) -> io::Result<()> {
        if self.buf_records + self.staged_records == 0 {
            return Ok(());
        }
        let pending = self.staged + self.buf.len() as u64;
        let name = seg_name(self.active().index);
        if !self.buf.is_empty() {
            self.media.append(&name, &self.buf)?;
        }
        self.media.sync(&name)?;
        let records = self.staged_records + self.buf_records;
        self.note_durable(pending, records);
        self.buf.clear();
        self.buf_records = 0;
        Ok(())
    }

    /// Delete leading sealed segments whose every record sits strictly below
    /// `floor` — the on-disk analogue of `wfcr::gc` truncating event queues
    /// under the minimum `W_Chk_ID` mark. Compaction stops at the first
    /// segment it must keep (only a *prefix* is removed, so the surviving
    /// sequence stays contiguous and recovery's gap check keeps its teeth),
    /// and the active segment is never deleted. Returns the number of
    /// segments removed.
    ///
    /// Then, if the active segment holds a record below `floor`, it is
    /// sealed and a fresh one opened, so the next compaction can delete it:
    /// the live log is about one checkpoint interval long, whatever
    /// `segment_bytes` is. Sealing syncs only records still pending (none,
    /// after a commit point) and writes nothing of the new segment.
    pub fn compact_below(&mut self, floor: u64) -> io::Result<usize> {
        self.unless_failed(|log| log.compact(floor))
    }

    fn compact(&mut self, floor: u64) -> io::Result<usize> {
        self.scan.set(None);
        let mut removed = 0usize;
        let last = self.segments.len() - 1;
        while removed < last {
            let seg = &self.segments[removed];
            if seg.max_watermark.is_none_or(|w| w >= floor) {
                break;
            }
            self.media.remove(&seg_name(seg.index))?;
            removed += 1;
        }
        self.segments.drain(..removed);
        self.segments_compacted += removed as u64;
        if self.active().min_watermark.is_some_and(|w| w < floor) {
            self.rotate()?;
        }
        Ok(removed)
    }

    /// Every durable record, in append order. Buffered and staged (unsynced)
    /// records are not included — this reads what a restart would see.
    ///
    /// The first call on a log that has not been appended to or compacted
    /// since [`LogStore::open`] returns what the recovery scan already
    /// validated, without touching the media. Every other call re-reads each
    /// segment and fails with [`io::ErrorKind::InvalidData`] if it no longer
    /// holds the frames this handle made durable.
    pub fn read_all(&self) -> io::Result<Vec<Record>> {
        if let Some(scan) = self.scan.take() {
            return Ok(scan);
        }
        let mut out = Vec::new();
        let mut expected_seq = None;
        // A segment with nothing durable (the active one before its first
        // sync) has no file yet, or one a crash would leave empty.
        for seg in self.segments.iter().filter(|s| s.disk_len > 0) {
            let name = seg_name(seg.index);
            let data = Arc::new(self.media.read(&name)?);
            let end = seg.disk_len as usize;
            // Only the active segment counts records that are not durable yet.
            let durable = if seg.index == self.active().index {
                seg.records - (self.buf_records + self.staged_records) as u64
            } else {
                seg.records
            };
            let found = scan_segment(seg.index, &data, end, &mut expected_seq, &mut out);
            if !found.is_some_and(|f| f.disk_len == seg.disk_len && f.records == durable) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{name}: {durable} durable records in {} bytes no longer read back clean",
                        seg.disk_len
                    ),
                ));
            }
        }
        Ok(out)
    }

    /// Bytes physically flushed and fsynced so far (magic bytes included).
    pub fn bytes_flushed(&self) -> u64 {
        self.bytes_flushed
    }

    /// Bytes appended (framed) so far, flushed or not.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Records appended so far, flushed or not.
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Segments deleted by compaction over this handle's lifetime.
    pub fn segments_compacted(&self) -> u64 {
        self.segments_compacted
    }

    /// Fsyncs that made two or more records durable at once (group commits).
    pub fn group_commits(&self) -> u64 {
        self.group_commits
    }

    /// Records that arrived through [`LogStore::append_batch`].
    pub fn records_batched(&self) -> u64 {
        self.records_batched
    }

    /// Bytes appended to the media whose fsync is still deferred
    /// ([`FlushPolicy::Grouped`]); these do NOT survive a crash.
    pub fn staged_bytes(&self) -> u64 {
        self.staged
    }

    /// Live segments (sealed + active). The active one has no file until its
    /// first write reaches the media.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Intact records found by the opening recovery scan.
    pub fn recovered_records(&self) -> u64 {
        self.recovered_records
    }

    /// Bytes discarded by the opening recovery scan (torn tails + bad-magic
    /// files).
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }

    /// Whole segment files removed by the opening recovery scan.
    pub fn removed_segments(&self) -> u64 {
        self.removed_segments
    }

    /// Did the opening recovery scan find the log byte-perfect?
    pub fn was_clean(&self) -> bool {
        self.truncated_bytes == 0 && self.removed_segments == 0
    }

    /// The configuration this log runs under.
    pub fn config(&self) -> LogConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MemMedia;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn payload(i: u64) -> Vec<u8> {
        format!("record-{i}-{}", "x".repeat((i % 7) as usize)).into_bytes()
    }

    fn filled(mem: &MemMedia, cfg: LogConfig, n: u64) -> LogStore {
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        for i in 0..n {
            log.append(i, &payload(i)).unwrap();
        }
        log
    }

    #[test]
    fn round_trips_records() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::PerRecord, ..LogConfig::default() };
        let log = filled(&mem, cfg, 20);
        let records = log.read_all().unwrap();
        assert_eq!(records.len(), 20);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.watermark, i as u64);
            assert_eq!(*r.payload, payload(i as u64));
        }
        assert_eq!(log.records_appended(), 20);
        assert!(log.bytes_flushed() >= log.bytes_appended());
    }

    #[test]
    fn per_batch_buffers_until_batch_full() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::PerBatch { records: 8 }, ..LogConfig::default() };
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        for i in 0..7 {
            log.append(i, b"abc").unwrap();
        }
        // 7 < 8: nothing is on the media yet, not even the magic.
        assert_eq!(mem.total_bytes(), 0);
        log.append(7, b"abc").unwrap();
        assert!(mem.total_bytes() > SEGMENT_MAGIC.len());
        assert_eq!(mem.synced_bytes(), mem.total_bytes());
        assert_eq!(log.group_commits(), 1, "8 records went durable in one fsync");
    }

    #[test]
    fn grouped_defers_the_fsync_one_group() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::Grouped { records: 4 }, ..LogConfig::default() };
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        for i in 0..4u64 {
            log.append(i, b"abcd").unwrap();
        }
        // Group 0 sealed: its bytes are on the media but NOT yet synced.
        assert!(mem.total_bytes() > SEGMENT_MAGIC.len());
        assert_eq!(mem.synced_bytes(), 0, "fsync is deferred, the magic's too");
        assert!(log.staged_bytes() > 0);
        for i in 4..8u64 {
            log.append(i, b"abcd").unwrap();
        }
        // Group 1 sealed: group 0's deferred fsync completed first.
        assert!(mem.synced_bytes() > SEGMENT_MAGIC.len());
        assert_eq!(mem.total_bytes() - mem.synced_bytes(), log.staged_bytes() as usize);
        // A crash now loses the staged group and nothing else.
        drop(log);
        mem.crash();
        let reopened = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        assert_eq!(reopened.read_all().unwrap().len(), 4, "exactly group 0 survives");
        assert!(reopened.was_clean(), "staged bytes vanish on whole-frame boundaries");
    }

    #[test]
    fn grouped_flush_completes_deferred_sync() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::Grouped { records: 3 }, ..LogConfig::default() };
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        for i in 0..4u64 {
            log.append(i, b"xy").unwrap(); // 3 sealed + staged, 1 buffered
        }
        log.flush().unwrap();
        assert_eq!(mem.synced_bytes(), mem.total_bytes(), "flush drains staged + buffered");
        assert_eq!(log.staged_bytes(), 0);
        assert_eq!(log.read_all().unwrap().len(), 4);
        assert!(log.group_commits() >= 1);
    }

    #[test]
    fn crash_loses_only_the_buffered_tail() {
        let mem = MemMedia::new();
        let cfg =
            LogConfig { flush: FlushPolicy::PerBatch { records: 100 }, ..LogConfig::default() };
        let mut log = filled(&mem, cfg, 10);
        log.flush().unwrap();
        for i in 10..15 {
            log.append(i, &payload(i)).unwrap();
        }
        drop(log); // no flush-on-drop: records 10..15 are volatile
        mem.crash();
        let reopened = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        let records = reopened.read_all().unwrap();
        assert_eq!(records.len(), 10, "exactly the flushed prefix survives");
        assert!(reopened.was_clean());
    }

    #[test]
    fn rotates_segments_at_size_threshold() {
        let mem = MemMedia::new();
        let cfg = LogConfig { segment_bytes: 128, flush: FlushPolicy::PerRecord };
        let log = filled(&mem, cfg, 30);
        assert!(log.segment_count() > 1, "30 records at 128B/segment must rotate");
        assert_eq!(log.read_all().unwrap().len(), 30);
        // Every segment file carries the magic.
        for name in mem.list().unwrap() {
            assert_eq!(&mem.read(&name).unwrap()[..8], &SEGMENT_MAGIC);
        }
    }

    #[test]
    fn oversized_record_lands_whole() {
        let mem = MemMedia::new();
        let cfg = LogConfig { segment_bytes: 64, flush: FlushPolicy::PerRecord };
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        let big = vec![0xCDu8; 500];
        log.append(1, &big).unwrap();
        log.append(2, b"small").unwrap();
        let records = log.read_all().unwrap();
        assert_eq!(*records[0].payload, big);
        assert_eq!(*records[1].payload, *b"small");
    }

    #[test]
    fn multi_part_append_equals_contiguous_append() {
        let a = MemMedia::new();
        let b = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::PerRecord, ..LogConfig::default() };
        let mut la = LogStore::open(Box::new(a.clone()), cfg).unwrap();
        let mut lb = LogStore::open(Box::new(b.clone()), cfg).unwrap();
        la.append(7, b"head-body-tail").unwrap();
        lb.append_parts(7, &[b"head-", b"body", b"", b"-tail"]).unwrap();
        assert_eq!(a.read("seg-00000000.log").unwrap(), b.read("seg-00000000.log").unwrap());
        assert_eq!(la.read_all().unwrap(), lb.read_all().unwrap());
    }

    fn batch_round_trip(cfg: LogConfig, n: u64) {
        let mem = MemMedia::new();
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        let payloads: Vec<Vec<u8>> = (0..n).map(payload).collect();
        let parts: Vec<[&[u8]; 1]> = payloads.iter().map(|p| [p.as_slice()]).collect();
        let batch: Vec<BatchRecord<'_>> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| BatchRecord { watermark: i as u64, parts: p.as_slice() })
            .collect();
        log.append_batch(&batch).unwrap();
        log.flush().unwrap();
        let records = log.read_all().unwrap();
        assert_eq!(records.len(), n as usize, "cfg {cfg:?}");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.watermark, i as u64);
            assert_eq!(*r.payload, payload(i as u64), "cfg {cfg:?} record {i}");
        }
        assert_eq!(log.records_batched(), n);
        // Reopen: the batch-written log recovers like any other.
        drop(log);
        let reopened = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        assert!(reopened.was_clean());
        assert_eq!(reopened.recovered_records(), n);
    }

    #[test]
    fn append_batch_round_trips_under_every_policy() {
        for flush in [
            FlushPolicy::PerRecord,
            FlushPolicy::PerBatch { records: 4 },
            FlushPolicy::PerBatch { records: 100 },
            FlushPolicy::Grouped { records: 4 },
        ] {
            batch_round_trip(LogConfig { segment_bytes: 64 * 1024, flush }, 23);
            // Tiny segments: rotation splits the batch into runs.
            batch_round_trip(LogConfig { segment_bytes: 100, flush }, 23);
        }
    }

    #[test]
    fn append_batch_commits_the_group_in_one_fsync() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::PerRecord, ..LogConfig::default() };
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        let p = vec![0xABu8; 64];
        let parts: [&[u8]; 1] = [p.as_slice()];
        let batch: Vec<BatchRecord<'_>> =
            (0..16).map(|i| BatchRecord { watermark: i, parts: &parts }).collect();
        log.append_batch(&batch).unwrap();
        // PerRecord via append() would fsync 16 times; the batch is one
        // commit unit.
        assert_eq!(log.group_commits(), 1);
        assert_eq!(mem.synced_bytes(), mem.total_bytes());
        assert_eq!(log.read_all().unwrap().len(), 16);
    }

    #[test]
    fn append_batch_zero_copy_parts_round_trip() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::PerRecord, ..LogConfig::default() };
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        // Scattered payloads: meta prefix + data bytes, as the journal
        // layers hand them down.
        let meta: Vec<Vec<u8>> = (0..5u64).map(|i| vec![i as u8; 8]).collect();
        let data: Vec<Vec<u8>> = (0..5u64).map(|i| vec![0x40 | i as u8; 100]).collect();
        let parts: Vec<[&[u8]; 2]> =
            meta.iter().zip(&data).map(|(m, d)| [m.as_slice(), d.as_slice()]).collect();
        let batch: Vec<BatchRecord<'_>> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| BatchRecord { watermark: i as u64, parts: p.as_slice() })
            .collect();
        log.append_batch(&batch).unwrap();
        let records = log.read_all().unwrap();
        assert_eq!(records.len(), 5);
        for (i, r) in records.iter().enumerate() {
            let mut expect = meta[i].clone();
            expect.extend_from_slice(&data[i]);
            assert_eq!(*r.payload, expect);
        }
    }

    #[test]
    fn append_batch_buffers_below_threshold() {
        let mem = MemMedia::new();
        let cfg =
            LogConfig { flush: FlushPolicy::PerBatch { records: 64 }, ..LogConfig::default() };
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        let p = vec![1u8; 16];
        let parts: [&[u8]; 1] = [p.as_slice()];
        let batch: Vec<BatchRecord<'_>> =
            (0..8).map(|i| BatchRecord { watermark: i, parts: &parts }).collect();
        log.append_batch(&batch).unwrap();
        assert_eq!(mem.total_bytes(), 0, "8 < 64: batch and magic ride the buffer");
        // A second batch crosses the threshold: everything goes down at once.
        let batch2: Vec<BatchRecord<'_>> =
            (8..72).map(|i| BatchRecord { watermark: i, parts: &parts }).collect();
        log.append_batch(&batch2).unwrap();
        assert_eq!(mem.synced_bytes(), mem.total_bytes());
        assert_eq!(log.read_all().unwrap().len(), 72);
        assert_eq!(log.group_commits(), 1);
    }

    #[test]
    fn append_batch_grouped_stages_the_tail() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::Grouped { records: 8 }, ..LogConfig::default() };
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        let p = vec![9u8; 32];
        let parts: [&[u8]; 1] = [p.as_slice()];
        let batch: Vec<BatchRecord<'_>> =
            (0..8).map(|i| BatchRecord { watermark: i, parts: &parts }).collect();
        log.append_batch(&batch).unwrap();
        assert!(log.staged_bytes() > 0, "group sealed, fsync deferred");
        assert_eq!(mem.synced_bytes(), 0);
        drop(log);
        mem.crash();
        let reopened = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        assert_eq!(reopened.read_all().unwrap().len(), 0, "staged group dies with the crash");
    }

    #[test]
    fn compaction_removes_only_sealed_below_floor() {
        let mem = MemMedia::new();
        let cfg = LogConfig { segment_bytes: 128, flush: FlushPolicy::PerRecord };
        let mut log = filled(&mem, cfg, 40);
        let before = log.segment_count();
        assert!(before > 2);
        let removed = log.compact_below(20).unwrap();
        assert!(removed > 0);
        assert_eq!(log.segment_count(), before - removed);
        assert_eq!(log.segments_compacted(), removed as u64);
        // Surviving records are exactly those the floor does not cover, plus
        // any sharing a segment with one at/above the floor.
        let survivors = log.read_all().unwrap();
        assert!(survivors.iter().any(|r| r.watermark >= 20));
        let min_surviving = survivors.iter().map(|r| r.watermark).min().unwrap();
        // No record at or above the floor was lost.
        let kept_high: Vec<u64> =
            survivors.iter().map(|r| r.watermark).filter(|&w| w >= 20).collect();
        assert_eq!(kept_high, (20..40).collect::<Vec<u64>>());
        // Compacting everything never deletes the active segment.
        log.compact_below(u64::MAX).unwrap();
        assert!(log.segment_count() >= 1);
        let _ = min_surviving;
    }

    #[test]
    fn recovery_truncates_torn_tail() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::PerRecord, ..LogConfig::default() };
        let log = filled(&mem, cfg, 5);
        drop(log);
        // Tear the last frame: cut 3 bytes off the single segment.
        let name = seg_name(0);
        let len = mem.read(&name).unwrap().len();
        mem.chop(&name, len - 3);
        let reopened = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        assert_eq!(reopened.recovered_records(), 4);
        assert_eq!(reopened.truncated_bytes() as usize, {
            let frame = FRAME_HEADER + payload(4).len();
            frame - 3
        });
        assert!(!reopened.was_clean());
        let records = reopened.read_all().unwrap();
        assert_eq!(records.len(), 4);
        // Appending after recovery works and round-trips.
        let mut reopened = reopened;
        reopened.append(99, b"after").unwrap();
        assert_eq!(reopened.read_all().unwrap().len(), 5);
    }

    #[test]
    fn recovery_detects_bitflips() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::PerRecord, ..LogConfig::default() };
        drop(filled(&mem, cfg, 6));
        // Flip a byte inside the 3rd record's payload region.
        let frame = FRAME_HEADER + payload(0).len();
        mem.flip_byte(&seg_name(0), SEGMENT_MAGIC.len() + 2 * frame + FRAME_HEADER + 1);
        let reopened = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        assert!(reopened.recovered_records() < 6);
        assert!(!reopened.was_clean());
        for (i, r) in reopened.read_all().unwrap().iter().enumerate() {
            assert_eq!(*r.payload, payload(i as u64), "surviving prefix must be clean");
        }
    }

    #[test]
    fn damage_in_early_segment_discards_later_segments() {
        let mem = MemMedia::new();
        let cfg = LogConfig { segment_bytes: 128, flush: FlushPolicy::PerRecord };
        let log = filled(&mem, cfg, 40);
        assert!(log.segment_count() >= 3);
        drop(log);
        // Corrupt segment 1; segments 2.. must be removed wholesale.
        mem.flip_byte(&seg_name(1), SEGMENT_MAGIC.len() + 5);
        let reopened = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        assert!(reopened.removed_segments() > 0);
        let survivors = reopened.read_all().unwrap();
        for (i, r) in survivors.iter().enumerate() {
            assert_eq!(r.watermark, i as u64);
        }
        let on_media = mem.list().unwrap();
        assert_eq!(on_media.len(), reopened.segment_count());
    }

    #[test]
    fn bad_magic_removes_file() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::PerRecord, ..LogConfig::default() };
        drop(filled(&mem, cfg, 3));
        mem.chop(&seg_name(0), 4); // shorter than the magic
        let reopened = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        assert_eq!(reopened.recovered_records(), 0);
        assert_eq!(reopened.removed_segments(), 1);
        // A fresh active segment exists and is writable.
        let mut reopened = reopened;
        reopened.append(1, b"fresh").unwrap();
        assert_eq!(reopened.read_all().unwrap().len(), 1);
    }

    #[test]
    fn reopen_is_idempotent() {
        let mem = MemMedia::new();
        let cfg = LogConfig { segment_bytes: 256, flush: FlushPolicy::PerRecord };
        drop(filled(&mem, cfg, 25));
        let first = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        let records = first.read_all().unwrap();
        drop(first);
        let second = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        assert!(second.was_clean());
        assert_eq!(second.read_all().unwrap(), records);
    }

    /// What a [`ProbedMedia`] has been asked to do.
    #[derive(Default)]
    struct Calls {
        reads: AtomicUsize,
        appends: AtomicUsize,
        syncs: AtomicUsize,
    }

    impl Calls {
        /// `(appends, syncs)` so far.
        fn writes(&self) -> (usize, usize) {
            (self.appends.load(Ordering::Relaxed), self.syncs.load(Ordering::Relaxed))
        }
    }

    /// A shared [`MemMedia`] behind a probe: calls are counted, and the
    /// `fail_at`-th append (counted from 0; a segment's magic rides in its
    /// first) returns an error and writes nothing.
    struct ProbedMedia {
        inner: MemMedia,
        calls: Arc<Calls>,
        fail_at: Option<usize>,
    }

    impl ProbedMedia {
        fn boxed(inner: &MemMedia, calls: &Arc<Calls>, fail_at: Option<usize>) -> Box<dyn Media> {
            Box::new(ProbedMedia { inner: inner.clone(), calls: Arc::clone(calls), fail_at })
        }
    }

    impl Media for ProbedMedia {
        fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
            let nth = self.calls.appends.fetch_add(1, Ordering::Relaxed);
            if self.fail_at == Some(nth) {
                return Err(io::Error::other("injected write failure"));
            }
            self.inner.append(name, data)
        }
        fn sync(&mut self, name: &str) -> io::Result<()> {
            self.calls.syncs.fetch_add(1, Ordering::Relaxed);
            self.inner.sync(name)
        }
        fn read(&self, name: &str) -> io::Result<Vec<u8>> {
            self.calls.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read(name)
        }
        fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
            self.inner.truncate(name, len)
        }
        fn remove(&mut self, name: &str) -> io::Result<()> {
            self.inner.remove(name)
        }
        fn list(&self) -> io::Result<Vec<String>> {
            self.inner.list()
        }
    }

    #[test]
    fn the_recovery_scan_is_the_first_read() {
        let mem = MemMedia::new();
        let cfg = LogConfig { segment_bytes: 128, flush: FlushPolicy::PerRecord };
        drop(filled(&mem, cfg, 30));
        let calls = Arc::<Calls>::default();
        let count = || calls.reads.load(Ordering::Relaxed);
        let mut log = LogStore::open(ProbedMedia::boxed(&mem, &calls, None), cfg).unwrap();
        let segments = log.segment_count();
        assert!(segments >= 3);
        assert_eq!(count(), segments, "the scan reads each surviving segment once");

        let first = log.read_all().unwrap();
        assert_eq!(count(), segments, "the first read_all is served by the scan");
        assert_eq!(first.len() as u64, log.recovered_records());

        let second = log.read_all().unwrap();
        assert_eq!(count(), 2 * segments, "the scan's buffers were released: re-read");
        assert_eq!(second, first);

        log.append(30, &payload(30)).unwrap();
        log.flush().unwrap();
        let third = log.read_all().unwrap();
        assert_eq!(third.len(), 31);
        assert_eq!(third[..30], first[..]);
        assert_eq!(*third[30].payload, payload(30));
    }

    #[test]
    fn an_append_retires_the_retained_scan() {
        let mem = MemMedia::new();
        let cfg = LogConfig { flush: FlushPolicy::PerRecord, ..LogConfig::default() };
        drop(filled(&mem, cfg, 5));
        // No read_all between open and append: the scan's view is stale by
        // one record and must not be what the first read_all returns.
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        log.append(5, &payload(5)).unwrap();
        assert_eq!(log.read_all().unwrap().len(), 6);
        // Likewise a compaction: the scan may cover a deleted segment.
        let cfg = LogConfig { segment_bytes: 128, flush: FlushPolicy::PerRecord };
        let mem = MemMedia::new();
        drop(filled(&mem, cfg, 30));
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        assert!(log.compact_below(20).unwrap() > 0);
        let survivors = log.read_all().unwrap();
        assert!(survivors.len() < 30 && survivors[0].seq > 0);
        assert_eq!(survivors.last().unwrap().seq, 29);
    }

    #[test]
    fn read_all_refuses_a_shorter_history() {
        let mem = MemMedia::new();
        let cfg = LogConfig { segment_bytes: 128, flush: FlushPolicy::PerRecord };
        let mut log = filled(&mem, cfg, 30);
        log.flush().unwrap();
        assert_eq!(log.read_all().unwrap().len(), 30);
        // Damage a sealed segment behind the open handle's back: the walk
        // ends before the bytes this handle made durable.
        mem.flip_byte(&seg_name(1), SEGMENT_MAGIC.len() + FRAME_HEADER + 1);
        let err = log.read_all().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&seg_name(1)), "{err}");
        // A segment cut on a frame boundary still CRCs clean; the record
        // count and the seq gap give it away.
        mem.flip_byte(&seg_name(1), SEGMENT_MAGIC.len() + FRAME_HEADER + 1);
        assert_eq!(log.read_all().unwrap().len(), 30);
        mem.chop(&seg_name(0), SEGMENT_MAGIC.len() + FRAME_HEADER + payload(0).len());
        let err = log.read_all().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&seg_name(0)), "{err}");
    }

    /// A group's sequence numbers are used up before its write, so a failed
    /// write leaves a hole, and the next open truncates every later frame at
    /// it. The first failure is therefore sticky: every later append, flush
    /// and compaction fails with its kind and writes nothing, and no record
    /// is acknowledged that a restart would throw away.
    #[test]
    fn a_failed_write_is_sticky_and_voids_no_acknowledged_record() {
        for flush in [
            FlushPolicy::PerRecord,
            FlushPolicy::PerBatch { records: 4 },
            FlushPolicy::Grouped { records: 4 },
        ] {
            let mem = MemMedia::new();
            let cfg = LogConfig { flush, ..LogConfig::default() };
            // Groups 0 (with the segment's magic) and 1 land, group 2's
            // write fails once.
            let media = ProbedMedia::boxed(&mem, &Arc::default(), Some(2));
            let mut log = LogStore::open(media, cfg).unwrap();
            let payload = [0x5Au8; 20];
            let parts: [&[u8]; 1] = [&payload];
            let mut acknowledged = 0;
            for group in 0..8u64 {
                let batch = [BatchRecord { watermark: group, parts: &parts }; 4];
                match log.append_batch(&batch) {
                    Ok(()) => acknowledged += 4,
                    Err(e) => {
                        assert!(group >= 2, "{flush:?}: group {group} failed");
                        assert_eq!(e.kind(), io::ErrorKind::Other, "{flush:?}: the first kind");
                    }
                }
            }
            assert_eq!(acknowledged, 8, "{flush:?}: only the groups before the failure");
            let on_media = mem.total_bytes();
            let refused = [
                log.append(9, &payload),
                log.append_parts(9, &parts),
                log.flush(),
                log.compact_below(u64::MAX).map(drop),
            ];
            for r in refused {
                assert_eq!(r.unwrap_err().kind(), io::ErrorKind::Other, "{flush:?}");
            }
            assert_eq!(mem.total_bytes(), on_media, "{flush:?}: a refused call writes nothing");
            assert_eq!(log.read_all().unwrap().len(), 8, "{flush:?}: the handle vouches for 8");
            // A restart keeps every acknowledged record, and the log writes again.
            drop(log);
            mem.crash();
            let mut reopened = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
            assert_eq!(reopened.recovered_records(), acknowledged, "{flush:?}");
            assert!(reopened.was_clean(), "{flush:?}");
            reopened.append(9, &payload).unwrap();
            reopened.flush().unwrap();
            assert_eq!(reopened.read_all().unwrap().len(), 9, "{flush:?}");
        }
    }

    /// A segment costs no sync of its own: opening and an empty flush write
    /// nothing, the magic rides in the segment's first write, and neither a
    /// rotation at the size cap nor a compaction's seal adds a write or a
    /// sync — `PerRecord` makes exactly one of each a record.
    #[test]
    fn rotations_and_compaction_seals_add_no_sync() {
        let mem = MemMedia::new();
        let calls = Arc::<Calls>::default();
        let cfg = LogConfig { segment_bytes: 128, flush: FlushPolicy::PerRecord };
        let mut log = LogStore::open(ProbedMedia::boxed(&mem, &calls, None), cfg).unwrap();
        log.flush().unwrap();
        assert_eq!(calls.writes(), (0, 0), "open and an empty flush touch nothing");
        assert!(mem.list().unwrap().is_empty());
        assert_eq!(log.bytes_flushed(), 0);

        for i in 0..30 {
            log.append(i, &payload(i)).unwrap();
        }
        let rotated = log.segment_count();
        assert!(rotated >= 3, "{rotated} segments");
        assert_eq!(calls.writes(), (30, 30), "natural rotations: one write and sync a record");
        assert_eq!(log.bytes_flushed(), log.bytes_appended() + 8 * rotated as u64);

        // A checkpoint's compaction: every sealed segment goes, the active one
        // holds records below the floor and is sealed — for free.
        assert_eq!(log.compact_below(30).unwrap(), rotated - 1);
        assert_eq!(log.segment_count(), 2, "the sealed segment and a fresh active one");
        assert_eq!(mem.list().unwrap().len(), 1, "the fresh one is not on the media");
        assert_eq!(calls.writes(), (30, 30));
        for i in 30..35 {
            log.append(i, &payload(i)).unwrap();
        }
        assert_eq!(calls.writes(), (35, 35));
        // The next checkpoint deletes what the last one sealed, and seals again.
        assert!(log.compact_below(35).unwrap() >= 2);
        assert_eq!(log.segment_count(), 2);
        assert_eq!(calls.writes(), (35, 35));
        let live: Vec<u64> = log.read_all().unwrap().iter().map(|r| r.watermark).collect();
        assert!(!live.is_empty() && live.len() < 5, "{live:?}");
        assert_eq!(live, (35 - live.len() as u64..35).collect::<Vec<u64>>());
        for name in mem.list().unwrap() {
            assert_eq!(&mem.read(&name).unwrap()[..8], &SEGMENT_MAGIC);
        }
    }

    /// A crash between a new segment's opening and its first sync loses the
    /// records that were never synced and nothing else, under every policy:
    /// the segment either never reached the media or was left an empty
    /// file, which the next open reads as absent — the reopened log is
    /// clean and appends again.
    #[test]
    fn a_crash_before_a_new_segments_first_sync_loses_only_unsynced_records() {
        for (flush, durable) in [
            (FlushPolicy::PerRecord, 13),
            (FlushPolicy::PerBatch { records: 4 }, 10),
            // One group of two sealed — written, not synced — and one buffered.
            (FlushPolicy::Grouped { records: 2 }, 10),
        ] {
            let mem = MemMedia::new();
            let cfg = LogConfig { flush, ..LogConfig::default() };
            let mut log = filled(&mem, cfg, 10);
            log.flush().unwrap();
            log.compact_below(10).unwrap();
            assert_eq!(log.segment_count(), 2, "{flush:?}: the checkpoint sealed segment 0");
            for i in 10..13 {
                log.append(i, &payload(i)).unwrap();
            }
            assert_eq!(log.read_all().unwrap().len(), durable, "{flush:?}");
            drop(log);
            mem.crash();
            let mut reopened = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
            assert!(reopened.was_clean(), "{flush:?}");
            let survivors = reopened.read_all().unwrap();
            assert_eq!(survivors.len(), durable, "{flush:?}");
            assert!(survivors.iter().enumerate().all(|(i, r)| r.seq == i as u64));
            assert_eq!(mem.list().unwrap().len(), reopened.segment_count(), "{flush:?}");
            reopened.append(99, b"after").unwrap();
            reopened.flush().unwrap();
            assert_eq!(reopened.read_all().unwrap().len(), durable + 1, "{flush:?}");
            drop(reopened);
            let again = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
            assert!(again.was_clean(), "{flush:?}");
            assert_eq!(again.recovered_records(), durable as u64 + 1, "{flush:?}");
        }
    }

    /// Checkpoints bound the log, not the segment size: with segments far
    /// larger than the whole history, a compaction at each interval's end
    /// leaves at most the last two intervals on the media.
    #[test]
    fn two_checkpoint_compactions_leave_at_most_two_intervals() {
        let mem = MemMedia::new();
        let cfg = LogConfig { segment_bytes: 1 << 20, flush: FlushPolicy::PerBatch { records: 4 } };
        let mut log = LogStore::open(Box::new(mem.clone()), cfg).unwrap();
        for interval in 0..8u64 {
            for i in 0..6 {
                log.append(interval, &payload(i)).unwrap();
            }
            // The interval's checkpoint: a commit point, then the floor it
            // makes every earlier interval dead below.
            log.flush().unwrap();
            log.compact_below(interval).unwrap();
            let live: Vec<u64> = log.read_all().unwrap().iter().map(|r| r.watermark).collect();
            let oldest = interval.saturating_sub(1);
            assert!(live.iter().all(|&w| w >= oldest), "after interval {interval}: {live:?}");
            assert_eq!(live.iter().filter(|&&w| w == interval).count(), 6);
        }
        assert!(log.segments_compacted() >= 3, "{}", log.segments_compacted());
        assert!(mem.total_bytes() < 2 * 6 * (FRAME_HEADER + 16) + 16);
    }

    #[test]
    fn flush_policy_serde_round_trips() {
        for cfg in [
            LogConfig::default(),
            LogConfig { segment_bytes: 1024, flush: FlushPolicy::PerRecord },
            LogConfig { segment_bytes: 4096, flush: FlushPolicy::Grouped { records: 32 } },
        ] {
            let json = serde_json::to_string(&cfg).unwrap();
            let back: LogConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, cfg);
        }
    }
}
