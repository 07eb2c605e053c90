//! Binary wire codec primitives for journal entries.
//!
//! Journal entries (`wfcr::journal::JournalEntry`) lay their records out
//! with the length-free primitives of this module; entries have no other
//! encoding:
//!
//! ```text
//! entry := WIRE_MAGIC  WIRE_VERSION  tag:u8  fields…  [inline payload bytes]
//! ```
//!
//! * The first byte is [`WIRE_MAGIC`] (`0xB1`). A body that starts with
//!   anything else — text, JSON, another format — is not an entry:
//!   [`Reader::for_entry`] refuses it with [`WireError::BadMagic`].
//! * Ids, versions, lengths and coordinates are unsigned LEB128 varints
//!   ([`put_varint`]): seven bits a byte, low group first, the top bit set on
//!   every byte but the last. The small values a journal mostly holds cost
//!   one or two bytes instead of four or eight. The reader accepts only the
//!   shortest form ([`WireError::BadVarint`] otherwise) and flag bytes only
//!   as 0 or 1 ([`WireError::BadFlag`]), so an entry has exactly one byte
//!   form. Digests stay fixed 8-byte little-endian fields: a random `u64`
//!   would cost nine or ten bytes as a varint.
//! * Encode size depends on the values, but the writer's scratch buffer is
//!   cleared, not freed, between hand-offs, so it stops reallocating once it
//!   has held the largest group.
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

/// Binary codec version, bumped on every layout change. There is one reader,
/// for this version: a journal does not outlive the binary that wrote it.
pub const WIRE_VERSION: u8 = 2;

/// The longest varint: ten groups of seven bits hold a `u64`.
const MAX_VARINT_LEN: usize = 10;

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
    /// A varint longer than its shortest form, or holding more than 64 bits.
    BadVarint,
    /// A varint too large for its field.
    OutOfRange(u64),
    /// A flag byte other than 0 or 1.
    BadFlag(u8),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "binary journal entry truncated"),
            WireError::BadMagic(b) => write!(f, "bad wire magic byte 0x{b:02X}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown journal entry tag {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after entry"),
            WireError::BadVarint => write!(f, "over-long or overflowing varint"),
            WireError::OutOfRange(v) => write!(f, "varint {v} does not fit its field"),
            WireError::BadFlag(b) => write!(f, "flag byte {b} is neither 0 nor 1"),
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

/// Write a `u64`, little-endian, in a fixed 8 bytes (digests).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Write `v` as an unsigned LEB128 varint, 1 to 10 bytes.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Write an optional value as a presence flag, then the value as a varint
/// only when present.
pub fn put_opt_varint(out: &mut Vec<u8>, v: Option<u32>) {
    out.push(v.is_some() as u8);
    if let Some(v) = v {
        put_varint(out, u64::from(v));
    }
}

/// Write a bounding box: `ndim` then all [`MAX_DIMS`] lower and upper bounds
/// as varints — unused dimensions too, so a box round-trips whatever they
/// hold (a zero costs one byte).
pub fn put_bbox(out: &mut Vec<u8>, b: &BBox) {
    out.push(b.ndim);
    for &v in b.lb.iter().chain(&b.ub) {
        put_varint(out, v);
    }
}

/// Write a payload's metadata prefix — kind, logical length, digest — but
/// **not** its inline bytes. The zero-copy append path hands the bytes to the
/// log as a separate vectored part; they must land immediately after this
/// prefix (i.e. at the end of the entry) for [`Reader::payload`] to find them.
pub fn put_payload_meta(out: &mut Vec<u8>, p: &Payload) {
    out.push(matches!(p, Payload::Inline(_)) as u8);
    put_varint(out, p.len());
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

/// Cursor over one entry body.
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

    /// Read a little-endian `u64` (a fixed 8-byte field).
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a varint written by [`put_varint`]. Only the shortest form is
    /// accepted: a final group of zero after the first byte, a tenth byte
    /// above 1 (bits past 64) or an eleventh byte is [`WireError::BadVarint`].
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let rest = &self.data[self.pos..];
        let mut v = 0u64;
        for (i, &b) in rest.iter().take(MAX_VARINT_LEN).enumerate() {
            v |= u64::from(b & 0x7F) << (7 * i);
            if b < 0x80 {
                if (b == 0 && i > 0) || (i == MAX_VARINT_LEN - 1 && b > 1) {
                    return Err(WireError::BadVarint);
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(if rest.len() < MAX_VARINT_LEN { WireError::Truncated } else { WireError::BadVarint })
    }

    /// Read a varint into a `u32` field; a larger value is
    /// [`WireError::OutOfRange`].
    pub fn var_u32(&mut self) -> Result<u32, WireError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| WireError::OutOfRange(v))
    }

    /// Read a flag byte: 0 or 1, anything else is [`WireError::BadFlag`].
    pub fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadFlag(b)),
        }
    }

    /// Read an optional `u32` written by [`put_opt_varint`].
    pub fn opt_var_u32(&mut self) -> Result<Option<u32>, WireError> {
        if self.flag()? {
            self.var_u32().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Read a bounding box written by [`put_bbox`].
    pub fn bbox(&mut self) -> Result<BBox, WireError> {
        let ndim = self.u8()?;
        let mut lb = [0u64; MAX_DIMS];
        let mut ub = [0u64; MAX_DIMS];
        for v in lb.iter_mut().chain(ub.iter_mut()) {
            *v = self.varint()?;
        }
        Ok(BBox { ndim, lb, ub })
    }

    /// Read a payload: metadata prefix, then — for inline payloads — the
    /// declared number of trailing bytes (copied out of the record body).
    /// The recorded digest is adopted, not recomputed: digest and bytes were
    /// written from one [`Payload`] and share the record's `logstore` frame
    /// CRC, and a re-hash would add a pass over every byte to a journal scan.
    pub fn payload(&mut self) -> Result<Payload, WireError> {
        let inline = self.flag()?;
        let len = self.varint()?;
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
    use proptest::prelude::*;

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
        put_varint(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        put_opt_varint(&mut buf, Some(42));
        put_opt_varint(&mut buf, None);
        put_opt_varint(&mut buf, Some(u32::MAX));
        let mut r = Reader { data: &buf, pos: 0 };
        assert_eq!(r.var_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.opt_var_u32().unwrap(), Some(42));
        assert_eq!(r.opt_var_u32().unwrap(), None);
        assert_eq!(r.opt_var_u32().unwrap(), Some(u32::MAX));
        r.finish().unwrap();
        assert_eq!(buf.len(), 5 + 8 + 2 + 1 + 6, "a varint costs what its value needs");
    }

    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        buf
    }

    #[test]
    fn varint_lengths_and_refusals() {
        let enc = varint_bytes;
        assert_eq!(enc(0), [0x00]);
        assert_eq!(enc(127), [0x7F]);
        assert_eq!(enc(128), [0x80, 0x01]);
        assert_eq!(enc(16_383), [0xFF, 0x7F]);
        assert_eq!(enc(16_384).len(), 3);
        assert_eq!(enc(u64::MAX).len(), MAX_VARINT_LEN);
        assert_eq!(enc(u64::MAX)[MAX_VARINT_LEN - 1], 0x01, "the tenth byte holds bit 63");

        let read = |bytes: &[u8]| Reader { data: bytes, pos: 0 }.varint();
        assert_eq!(read(&[0x80, 0x00]), Err(WireError::BadVarint), "zero, over-long");
        assert_eq!(read(&[0xFF, 0x80, 0x00]), Err(WireError::BadVarint), "127, over-long");
        let mut eleven = [0x80; MAX_VARINT_LEN + 1];
        eleven[MAX_VARINT_LEN] = 0x01;
        assert_eq!(read(&eleven), Err(WireError::BadVarint));
        let mut past_64_bits = enc(u64::MAX);
        past_64_bits[MAX_VARINT_LEN - 1] = 0x02;
        assert_eq!(read(&past_64_bits), Err(WireError::BadVarint));
        assert_eq!(read(&[0x80]), Err(WireError::Truncated));
        assert_eq!(read(&[]), Err(WireError::Truncated));

        let big = enc(u64::from(u32::MAX) + 1);
        assert_eq!(
            Reader { data: &big, pos: 0 }.var_u32(),
            Err(WireError::OutOfRange(u64::from(u32::MAX) + 1))
        );
        assert_eq!(Reader { data: &[2], pos: 0 }.flag(), Err(WireError::BadFlag(2)));
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

    /// Values spread over every encoded length, not just the ten-byte ones
    /// a uniform `u64` nearly always is.
    fn any_width() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift)
    }

    proptest! {
        #[test]
        fn any_u64_round_trips_in_its_shortest_form(v in any_width()) {
            let buf = varint_bytes(v);
            let mut r = Reader { data: &buf, pos: 0 };
            prop_assert_eq!(r.varint(), Ok(v));
            r.finish().unwrap();
            let groups = (64 - v.leading_zeros()).div_ceil(7).max(1);
            prop_assert_eq!(buf.len(), groups as usize);
        }

        #[test]
        fn every_strict_prefix_is_truncated(v in any_width()) {
            let buf = varint_bytes(v);
            for cut in 0..buf.len() {
                let got = Reader { data: &buf[..cut], pos: 0 }.varint();
                prop_assert_eq!(got, Err(WireError::Truncated));
            }
        }

        /// One more group of zero bits reads as the same value: refused, so
        /// an entry has exactly one byte form. On a ten-byte value it is an
        /// eleventh byte.
        #[test]
        fn an_over_long_form_is_refused(v in any_width(), extra in 1usize..4) {
            let mut buf = varint_bytes(v);
            for _ in 0..extra {
                *buf.last_mut().unwrap() |= 0x80;
                buf.push(0);
            }
            let got = Reader { data: &buf, pos: 0 }.varint();
            prop_assert_eq!(got, Err(WireError::BadVarint));
        }

        #[test]
        fn a_u32_field_refuses_what_does_not_fit(v in any_width()) {
            let buf = varint_bytes(v);
            let got = Reader { data: &buf, pos: 0 }.var_u32();
            match u32::try_from(v) {
                Ok(small) => prop_assert_eq!(got, Ok(small)),
                Err(_) => prop_assert_eq!(got, Err(WireError::OutOfRange(v))),
            }
        }
    }
}
