//! Binary wire codec primitives for journal entries.
//!
//! Journal entries (`wfcr::journal::JournalEntry`) lay their records out
//! with the length-free little-endian primitives of this module; entries
//! have no other encoding:
//!
//! ```text
//! entry := WIRE_MAGIC  WIRE_VERSION  tag:u8  fields…  [inline payload bytes]
//! ```
//!
//! * The first byte is [`WIRE_MAGIC`] (`0xB1`). A body that starts with
//!   anything else — text, JSON, another format — is not an entry:
//!   [`Reader::for_entry`] refuses it with [`WireError::BadMagic`].
//! * Integers are fixed-width little-endian; no varints, so encode size is
//!   a pure function of the entry shape and the scratch encoder never
//!   reallocates in steady state.
//! * An entry's **inline payload bytes always come last**. That is what makes
//!   the zero-copy path work: the metadata prefix is encoded into a reusable
//!   scratch buffer and the payload's `Bytes` ride to the log as a separate
//!   vectored part — no intermediate assembly. [`put_payload_meta`] writes
//!   the prefix; [`Reader::payload`] consumes the meta and then the trailing
//!   bytes.
//!
//! Framing (length prefix, CRC, sequencing) belongs to `logstore`; this codec
//! only defines the record *body*.

use crate::geometry::{BBox, MAX_DIMS};
use crate::payload::Payload;
use bytes::Bytes;
use std::fmt;

/// First byte of every journal entry.
pub const WIRE_MAGIC: u8 = 0xB1;

/// Binary codec version, bumped on incompatible layout changes.
pub const WIRE_VERSION: u8 = 1;

/// A malformed binary entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before a field was complete.
    Truncated,
    /// The first byte was not [`WIRE_MAGIC`].
    BadMagic(u8),
    /// Unknown codec version.
    BadVersion(u8),
    /// Unknown entry tag for the decoding layer.
    BadTag(u8),
    /// Bytes left over after the entry's last field.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "binary journal entry truncated"),
            WireError::BadMagic(b) => write!(f, "bad wire magic byte 0x{b:02X}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown journal entry tag {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after entry"),
        }
    }
}

impl std::error::Error for WireError {}

/// Write the entry header (magic, version, tag).
pub fn put_header(out: &mut Vec<u8>, tag: u8) {
    out.push(WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(tag);
}

/// Write a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Write a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Write an optional `u32` as a presence byte plus the value (0 when absent).
pub fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    out.push(v.is_some() as u8);
    put_u32(out, v.unwrap_or(0));
}

/// Write a bounding box: `ndim` then all [`MAX_DIMS`] lower and upper bounds
/// (unused dimensions are zero, keeping the size shape-independent).
pub fn put_bbox(out: &mut Vec<u8>, b: &BBox) {
    out.push(b.ndim);
    for d in 0..MAX_DIMS {
        put_u64(out, b.lb[d]);
    }
    for d in 0..MAX_DIMS {
        put_u64(out, b.ub[d]);
    }
}

/// Write a payload's metadata prefix — kind, logical length, digest — but
/// **not** its inline bytes. The zero-copy append path hands the bytes to the
/// log as a separate vectored part; they must land immediately after this
/// prefix (i.e. at the end of the entry) for [`Reader::payload`] to find them.
pub fn put_payload_meta(out: &mut Vec<u8>, p: &Payload) {
    out.push(matches!(p, Payload::Inline(_)) as u8);
    put_u64(out, p.len());
    put_u64(out, p.digest());
}

/// Write a payload in full: metadata prefix plus inline bytes (the
/// contiguous, non-vectored encode path).
pub fn put_payload(out: &mut Vec<u8>, p: &Payload) {
    put_payload_meta(out, p);
    if let Some(b) = p.bytes() {
        out.extend_from_slice(b);
    }
}

/// Little-endian cursor over one entry body.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Open a reader over a binary entry, validating magic and version and
    /// returning the entry tag.
    pub fn for_entry(data: &'a [u8]) -> Result<(u8, Self), WireError> {
        let mut r = Reader { data, pos: 0 };
        let magic = r.u8()?;
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let tag = r.u8()?;
        Ok((tag, r))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.data.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an optional `u32` written by [`put_opt_u32`].
    pub fn opt_u32(&mut self) -> Result<Option<u32>, WireError> {
        let present = self.u8()? != 0;
        let v = self.u32()?;
        Ok(present.then_some(v))
    }

    /// Read a bounding box written by [`put_bbox`].
    pub fn bbox(&mut self) -> Result<BBox, WireError> {
        let ndim = self.u8()?;
        let mut lb = [0u64; MAX_DIMS];
        let mut ub = [0u64; MAX_DIMS];
        for v in lb.iter_mut() {
            *v = self.u64()?;
        }
        for v in ub.iter_mut() {
            *v = self.u64()?;
        }
        Ok(BBox { ndim, lb, ub })
    }

    /// Read a payload: metadata prefix, then — for inline payloads — the
    /// declared number of trailing bytes (copied out of the record body).
    /// The recorded digest is adopted, not recomputed: digest and bytes were
    /// written from one [`Payload`] and share the record's `logstore` frame
    /// CRC, and a re-hash would add a pass over every byte to a journal scan.
    pub fn payload(&mut self) -> Result<Payload, WireError> {
        let inline = self.u8()? != 0;
        let len = self.u64()?;
        let digest = self.u64()?;
        Ok(if inline {
            let data = Bytes::copy_from_slice(self.take(len as usize)?);
            Payload::inline_with_recorded_digest(data, digest)
        } else {
            Payload::Virtual { len, digest }
        })
    }

    /// Assert the entry is fully consumed (decode completeness check).
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos != self.data.len() {
            return Err(WireError::TrailingBytes(self.data.len() - self.pos));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_and_rejects_bad_bytes() {
        let mut buf = Vec::new();
        put_header(&mut buf, 3);
        let (tag, r) = Reader::for_entry(&buf).unwrap();
        assert_eq!(tag, 3);
        r.finish().unwrap();

        assert_eq!(Reader::for_entry(b"{\"json\":1}").unwrap_err(), WireError::BadMagic(b'{'));
        assert_eq!(Reader::for_entry(&[WIRE_MAGIC, 99, 0]).unwrap_err(), WireError::BadVersion(99));
        assert_eq!(Reader::for_entry(&[WIRE_MAGIC]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn ints_and_options_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        put_opt_u32(&mut buf, Some(42));
        put_opt_u32(&mut buf, None);
        let mut r = Reader { data: &buf, pos: 0 };
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.opt_u32().unwrap(), Some(42));
        assert_eq!(r.opt_u32().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn bbox_round_trips() {
        let b = BBox { ndim: 3, lb: [1, 2, 3], ub: [9, 8, 7] };
        let mut buf = Vec::new();
        put_bbox(&mut buf, &b);
        let mut r = Reader { data: &buf, pos: 0 };
        assert_eq!(r.bbox().unwrap(), b);
        r.finish().unwrap();
    }

    #[test]
    fn payloads_round_trip_both_kinds() {
        for p in [
            Payload::inline(vec![7u8; 33]),
            Payload::inline(Vec::new()),
            Payload::virtual_from(1 << 30, &[4, 5]),
        ] {
            let mut buf = Vec::new();
            put_payload(&mut buf, &p);
            let mut r = Reader { data: &buf, pos: 0 };
            let back = r.payload().unwrap();
            r.finish().unwrap();
            assert_eq!(back, p);
            assert_eq!(back.digest(), p.digest());
        }
    }

    #[test]
    fn meta_plus_separate_bytes_equals_contiguous_encode() {
        // The vectored path writes [meta][bytes] as two parts; decoding their
        // concatenation must equal the contiguous put_payload encoding.
        let p = Payload::inline(vec![0x5A; 100]);
        let mut contiguous = Vec::new();
        put_payload(&mut contiguous, &p);
        let mut meta = Vec::new();
        put_payload_meta(&mut meta, &p);
        let mut assembled = meta.clone();
        assembled.extend_from_slice(p.bytes().unwrap());
        assert_eq!(assembled, contiguous);
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let mut buf = Vec::new();
        put_payload(&mut buf, &Payload::inline(vec![1u8; 16]));
        buf.truncate(buf.len() - 1);
        let mut r = Reader { data: &buf, pos: 0 };
        assert_eq!(r.payload().unwrap_err(), WireError::Truncated);
    }
}
