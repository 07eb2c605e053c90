#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # logstore — durable, segmented event/payload log
//!
//! The on-disk twin of the paper's in-memory staging log: everything the
//! crash-consistency layer keeps in process memory (event queues, data log,
//! checkpoint snapshots) can be journaled through this crate so a staging
//! process death loses nothing that was flushed.
//!
//! * [`checksum`] — the shared integrity primitives: the FNV-1a seal used by
//!   `ckpt` snapshots and the CRC32 (IEEE) used to frame log records.
//! * [`media`] — the byte-level I/O seam: [`media::Media`] abstracts
//!   append/sync/read/truncate so real files ([`media::FsMedia`]), in-memory
//!   crash-simulating storage ([`media::MemMedia`]), and fault-injecting
//!   wrappers ([`media::FaultyMedia`], driven by `faultplane` plans) are
//!   interchangeable.
//! * [`store`] — the log itself: [`store::LogStore`] appends length-prefixed
//!   CRC32-framed records into segment files, rotates segments at a size
//!   threshold, flushes under a configurable [`store::FlushPolicy`], recovers
//!   by truncating a torn tail, and compacts whole segments that fall below
//!   a watermark floor (the `W_Chk_ID`-driven GC, on disk). Compaction also
//!   seals the active segment once it holds a record below the floor, so
//!   the live log follows checkpoints; a segment's magic is written with its
//!   first records, never on its own.
//! * [`Journal`] — the minimal sink trait higher layers (wfcr's logging
//!   backend, staging's plain store, ckpt's durable tier) write through.

pub mod checksum;
pub mod media;
pub mod store;

pub use media::{FaultyMedia, FsMedia, Media, MemMedia};
pub use store::{BatchRecord, FlushPolicy, LogConfig, LogStore, Record, SharedSlice};

use std::io;

/// A durable record sink. [`LogStore`] is the production implementation;
/// tests substitute in-memory fakes.
///
/// `watermark` orders records for compaction: once every record in a sealed
/// segment has a watermark strictly below the caller's checkpoint floor, the
/// segment can be deleted wholesale (see [`LogStore::compact_below`]).
pub trait Journal: Send {
    /// Append one record. Durability is governed by the flush policy; call
    /// [`Journal::flush`] to force the tail down.
    fn append(&mut self, watermark: u64, payload: &[u8]) -> io::Result<()>;

    /// Append one record whose payload is scattered across `parts` (for the
    /// zero-copy path: an encoded metadata prefix plus the data's own byte
    /// slice). The default assembles the parts and delegates to
    /// [`Journal::append`]; [`LogStore`] frames them without assembly.
    fn append_parts(&mut self, watermark: u64, parts: &[&[u8]]) -> io::Result<()> {
        let mut joined = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            joined.extend_from_slice(p);
        }
        self.append(watermark, &joined)
    }

    /// Append a whole group of records with one flush decision at the batch
    /// boundary (group commit). The default loops over [`Journal::append_parts`];
    /// [`LogStore`] turns the group into a single vectored write + fsync.
    fn append_batch(&mut self, batch: &[store::BatchRecord<'_>]) -> io::Result<()> {
        for rec in batch {
            self.append_parts(rec.watermark, rec.parts)?;
        }
        Ok(())
    }

    /// Flush and fsync everything appended so far.
    fn flush(&mut self) -> io::Result<()>;

    /// Delete sealed segments whose records all fall strictly below `floor`
    /// (then [`LogStore`] seals its active segment if it holds a record
    /// below `floor`). Returns the number of segments removed.
    fn compact_below(&mut self, floor: u64) -> io::Result<usize>;

    /// Bytes physically flushed (written + synced) to the media so far.
    fn bytes_flushed(&self) -> u64;

    /// Segments deleted by compaction so far.
    fn segments_compacted(&self) -> u64;

    /// Fsyncs that made two or more records durable at once. Sinks without
    /// group commit report 0.
    fn group_commits(&self) -> u64 {
        0
    }

    /// Records that arrived through [`Journal::append_batch`]. Sinks that do
    /// not track batching report 0.
    fn records_batched(&self) -> u64 {
        0
    }
}

impl Journal for LogStore {
    fn append(&mut self, watermark: u64, payload: &[u8]) -> io::Result<()> {
        LogStore::append(self, watermark, payload)
    }

    fn append_parts(&mut self, watermark: u64, parts: &[&[u8]]) -> io::Result<()> {
        LogStore::append_parts(self, watermark, parts)
    }

    fn append_batch(&mut self, batch: &[store::BatchRecord<'_>]) -> io::Result<()> {
        LogStore::append_batch(self, batch)
    }

    fn flush(&mut self) -> io::Result<()> {
        LogStore::flush(self)
    }

    fn compact_below(&mut self, floor: u64) -> io::Result<usize> {
        LogStore::compact_below(self, floor)
    }

    fn bytes_flushed(&self) -> u64 {
        LogStore::bytes_flushed(self)
    }

    fn segments_compacted(&self) -> u64 {
        LogStore::segments_compacted(self)
    }

    fn group_commits(&self) -> u64 {
        LogStore::group_commits(self)
    }

    fn records_batched(&self) -> u64 {
        LogStore::records_batched(self)
    }
}
