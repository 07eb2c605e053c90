//! Payloads: real bytes for correctness tests, virtual sizes for scale runs.
//!
//! The paper moves up to 640 GB per run through staging; a laptop reproduction
//! cannot (and need not) hold that. [`Payload`] therefore has two forms:
//!
//! * [`Payload::Inline`] — actual bytes, used by the threaded examples and all
//!   consistency tests, where we verify *content* (digests) across recovery;
//! * [`Payload::Virtual`] — a size and a precomputed digest, used by the
//!   discrete-event scalability runs, where only byte counts and digests flow
//!   through the system.
//!
//! Both forms carry a 64-bit FNV-1a digest so the crash-consistency layer can
//! assert replay equivalence ("the recovering consumer observed exactly the
//! bytes the original execution observed") uniformly.
//!
//! **Invariant:** an inline payload's digest is `fnv1a` of its bytes. It is
//! computed once, by [`Payload::inline`] — in a workflow that is the producer
//! — and travels with the bytes through `clone()`, the transports, the store
//! and the journal; every later [`Payload::digest`] is a field read. `Bytes`
//! is immutable and [`Inline`]'s fields are private, so the carried value
//! cannot go stale, and nothing outside this crate can pair bytes with a
//! digest of its own choosing:
//!
//! ```compile_fail,E0451
//! use staging::payload::{Inline, Payload};
//! let _ = Payload::Inline(Inline { data: bytes::Bytes::new(), digest: 7 });
//! ```

use bytes::Bytes;

/// FNV-1a 64-bit hash.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Combine a digest with additional words (order-sensitive); used to derive
/// deterministic content digests for virtual payloads.
pub fn fnv1a_words(seed: u64, words: &[u64]) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for i in 0..8 {
            h ^= (w >> (i * 8)) & 0xff;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Actual bytes together with their [`fnv1a`] digest (the module's invariant);
/// built only through [`Payload::inline`] and the crate's journal decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inline {
    digest: u64,
    data: Bytes,
}

/// A staged data payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Actual bytes and their digest.
    Inline(Inline),
    /// Size and digest only; content is not materialized.
    Virtual {
        /// Logical size in bytes.
        len: u64,
        /// Digest standing in for the content.
        digest: u64,
    },
}

impl Payload {
    /// Build an inline payload from bytes, digesting them — the one pass
    /// over the content; every later [`Payload::digest`] reads the result.
    pub fn inline(data: impl Into<Bytes>) -> Self {
        let data = data.into();
        Payload::Inline(Inline { digest: fnv1a(&data), data })
    }

    /// Build an inline payload from bytes and the digest recorded beside them
    /// without re-hashing. For [`crate::wire::Reader::payload`] only: there
    /// both sit in one CRC-checked `logstore` frame, written from a payload
    /// that upheld the invariant.
    pub(crate) fn inline_with_recorded_digest(data: Bytes, digest: u64) -> Self {
        Payload::Inline(Inline { digest, data })
    }

    /// Build a virtual payload of `len` bytes whose digest is derived from
    /// the given identity words (e.g. var, version, bbox corner).
    pub fn virtual_from(len: u64, identity: &[u64]) -> Self {
        Payload::Virtual { len, digest: fnv1a_words(len, identity) }
    }

    /// Logical size in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Inline(i) => i.data.len() as u64,
            Payload::Virtual { len, .. } => *len,
        }
    }

    /// True when the logical size is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Content digest: a field read for both forms.
    pub fn digest(&self) -> u64 {
        match self {
            Payload::Inline(Inline { digest, .. }) | Payload::Virtual { digest, .. } => *digest,
        }
    }

    /// The bytes, if inline.
    pub fn bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Inline(i) => Some(&i.data),
            Payload::Virtual { .. } => None,
        }
    }

    /// Memory actually resident for this payload (inline length; virtual
    /// payloads are accounted at their *logical* size because they stand in
    /// for real data in memory-usage experiments).
    pub fn accounted_len(&self) -> u64 {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn inline_len_and_digest() {
        let p = Payload::inline(vec![1u8, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.digest(), fnv1a(&[1, 2, 3]));
        assert_eq!(p.bytes().unwrap().as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn carried_digest_costs_one_word() {
        assert_eq!(std::mem::size_of::<Payload>(), std::mem::size_of::<Bytes>() + 8);
    }

    #[test]
    fn virtual_is_deterministic() {
        let a = Payload::virtual_from(1024, &[7, 8, 9]);
        let b = Payload::virtual_from(1024, &[7, 8, 9]);
        let c = Payload::virtual_from(1024, &[7, 8, 10]);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.len(), 1024);
        assert!(a.bytes().is_none());
    }

    #[test]
    fn size_zero_is_empty() {
        assert!(Payload::inline(Vec::new()).is_empty());
        assert!(Payload::virtual_from(0, &[]).is_empty());
    }

    #[test]
    fn identity_words_order_sensitive() {
        let a = Payload::virtual_from(10, &[1, 2]);
        let b = Payload::virtual_from(10, &[2, 1]);
        assert_ne!(a.digest(), b.digest());
    }
}
