//! Optional durable journal for the plain staging store: the entry type.
//!
//! The baseline staging backend keeps everything in memory; attaching a
//! `logstore::Journal` sink gives it a durable twin of its write history so
//! a cold restart can rebuild the version store from disk. Puts carry their
//! full payload (the journal must be able to repopulate the data, not just
//! describe it); control events are commit points and force the buffered
//! tail down, so the durable prefix always extends at least through the
//! last checkpoint/reset marker.
//!
//! This module holds only what is specific to the plain backend — the
//! [`StoreJournalEntry`] enum, its binary layout ([`crate::wire`] codec) and
//! what an entry does to the store, live or rebuilding from surviving
//! entries. Coalescing, commit-point flushes, compaction and error counting
//! are the shared [`crate::journal::JournalWriter`]. A record body that does
//! not start with [`wire::WIRE_MAGIC`] is not an entry and is rejected.
//!
//! The richer crash-consistency backend (`wfcr::LoggingBackend`) journals a
//! second entry type through the same writer, additionally capturing
//! event-queue and GC history; this one is deliberately minimal — store
//! contents only.

use crate::journal::WireEntry;
use crate::proto::{CtlRequest, ObjDesc};
use crate::store::VersionedStore;
use crate::wire::{self, Reader};
use crate::Payload;
use bytes::Bytes;
use serde::{Deserialize, Serialize};

const TAG_PUT: u8 = 1;
const TAG_CTL: u8 = 2;

const CTL_CHECKPOINT: u8 = 0;
const CTL_RECOVERY: u8 = 1;
const CTL_GLOBAL_RESET: u8 = 2;

/// One durable record of the plain store's history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StoreJournalEntry {
    /// A stored write, payload included.
    Put {
        /// What was written.
        desc: ObjDesc,
        /// The written data (inline bytes or virtual size+digest).
        payload: Payload,
    },
    /// A workflow control event (checkpoint / recovery / global reset).
    Ctl {
        /// The control request, verbatim.
        req: CtlRequest,
    },
}

impl WireEntry for StoreJournalEntry {
    fn watermark(&self) -> u64 {
        u64::from(match *self {
            StoreJournalEntry::Put { desc, .. } => desc.version,
            StoreJournalEntry::Ctl { req } => match req {
                CtlRequest::Checkpoint { upto_version, .. } => upto_version,
                CtlRequest::Recovery { resume_version, .. } => resume_version,
                CtlRequest::GlobalReset { to_version } => to_version,
            },
        })
    }

    /// Control events must be durable before the call returns.
    fn is_commit_point(&self) -> bool {
        matches!(self, StoreJournalEntry::Ctl { .. })
    }

    fn encode_meta_into(&self, out: &mut Vec<u8>) {
        match self {
            StoreJournalEntry::Put { desc, payload } => {
                wire::put_header(out, TAG_PUT);
                wire::put_u32(out, desc.var);
                wire::put_u32(out, desc.version);
                wire::put_bbox(out, &desc.bbox);
                wire::put_payload_meta(out, payload);
            }
            StoreJournalEntry::Ctl { req } => {
                wire::put_header(out, TAG_CTL);
                let (tag, app, version) = match *req {
                    CtlRequest::Checkpoint { app, upto_version } => {
                        (CTL_CHECKPOINT, app, upto_version)
                    }
                    CtlRequest::Recovery { app, resume_version } => {
                        (CTL_RECOVERY, app, resume_version)
                    }
                    CtlRequest::GlobalReset { to_version } => (CTL_GLOBAL_RESET, 0, to_version),
                };
                out.push(tag);
                wire::put_u32(out, app);
                wire::put_u32(out, version);
            }
        }
    }

    fn inline_payload(&self) -> Option<&Bytes> {
        match self {
            StoreJournalEntry::Put { payload, .. } => payload.bytes(),
            StoreJournalEntry::Ctl { .. } => None,
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let (tag, mut r) = Reader::for_entry(bytes).ok()?;
        let entry = match tag {
            TAG_PUT => {
                let var = r.u32().ok()?;
                let version = r.u32().ok()?;
                let bbox = r.bbox().ok()?;
                let payload = r.payload().ok()?;
                StoreJournalEntry::Put { desc: ObjDesc { var, version, bbox }, payload }
            }
            TAG_CTL => {
                let ctl = r.u8().ok()?;
                let app = r.u32().ok()?;
                let version = r.u32().ok()?;
                let req = match ctl {
                    CTL_CHECKPOINT => CtlRequest::Checkpoint { app, upto_version: version },
                    CTL_RECOVERY => CtlRequest::Recovery { app, resume_version: version },
                    CTL_GLOBAL_RESET => CtlRequest::GlobalReset { to_version: version },
                    _ => return None,
                };
                StoreJournalEntry::Ctl { req }
            }
            _ => return None,
        };
        r.finish().ok()?;
        Some(entry)
    }
}

impl StoreJournalEntry {
    /// What this entry does to the plain store — the one transition the live
    /// backend (after journalling the entry) and a rebuild share. Returns the
    /// bytes it freed: a put's evictions, or what a `GlobalReset` cut off;
    /// checkpoint and recovery markers are metadata-only for the plain
    /// backend.
    pub(crate) fn apply(self, store: &mut VersionedStore) -> u64 {
        match self {
            StoreJournalEntry::Put { desc, payload } => store.put(desc, payload),
            StoreJournalEntry::Ctl { req: CtlRequest::GlobalReset { to_version } } => {
                store.remove_newer_than(to_version)
            }
            StoreJournalEntry::Ctl { .. } => 0,
        }
    }
}

/// Rebuild a bounded version store by applying surviving journal entries in
/// order, so it matches what the live store held — a `GlobalReset`'s
/// truncation included.
pub fn replay_into_store(entries: &[StoreJournalEntry], max_versions: usize) -> VersionedStore {
    let mut store = VersionedStore::bounded(max_versions);
    for e in entries {
        e.clone().apply(&mut store);
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::BBox;

    fn put(version: u32) -> StoreJournalEntry {
        StoreJournalEntry::Put {
            desc: ObjDesc { var: 0, version, bbox: BBox::d1(0, 9) },
            payload: Payload::virtual_from(64, &[u64::from(version)]),
        }
    }

    fn inline_put(version: u32) -> StoreJournalEntry {
        StoreJournalEntry::Put {
            desc: ObjDesc { var: 2, version, bbox: BBox::d1(10, 19) },
            payload: Payload::inline(vec![version as u8; 48]),
        }
    }

    fn sample_entries() -> Vec<StoreJournalEntry> {
        vec![
            put(3),
            inline_put(4),
            StoreJournalEntry::Ctl { req: CtlRequest::Checkpoint { app: 0, upto_version: 3 } },
            StoreJournalEntry::Ctl { req: CtlRequest::Recovery { app: 1, resume_version: 2 } },
            StoreJournalEntry::Ctl { req: CtlRequest::GlobalReset { to_version: 1 } },
        ]
    }

    #[test]
    fn entries_round_trip_through_encoding() {
        let entries = sample_entries();
        for e in &entries {
            assert_eq!(StoreJournalEntry::decode(&e.encode()).as_ref(), Some(e));
        }
        assert_eq!(entries[0].watermark(), 3);
        assert_eq!(entries[4].watermark(), 1);
        assert!(!entries[0].is_commit_point());
        assert!(entries[2].is_commit_point());
    }

    #[test]
    fn meta_plus_inline_bytes_is_the_full_encoding() {
        let e = inline_put(9);
        let mut meta = Vec::new();
        e.encode_meta_into(&mut meta);
        meta.extend_from_slice(e.inline_payload().unwrap());
        assert_eq!(meta, e.encode());
    }

    #[test]
    fn replay_applies_global_reset() {
        let entries = vec![
            put(1),
            put(2),
            put(3),
            StoreJournalEntry::Ctl { req: CtlRequest::GlobalReset { to_version: 2 } },
        ];
        let store = replay_into_store(&entries, 8);
        assert!(store.newest_version(0) == Some(2));
    }

    /// The bytes on media are a compatibility surface: existing journals must
    /// stay readable. (Length, FNV-1a digest) of each sample's encoding, as
    /// the codec wrote it before the writer became generic.
    #[test]
    fn encoding_is_pinned() {
        let pinned = [
            (77, 0xC50A_780A_AED5_BAA3),
            (125, 0xA9EB_D16C_5E5B_51D5),
            (12, 0x4C17_8F5A_ED3A_B35E),
            (12, 0xF7B7_FCED_60ED_D1B9),
            (12, 0xE54D_8C8F_1799_4E16),
        ];
        for (entry, want) in sample_entries().iter().zip(pinned) {
            let bytes = entry.encode();
            assert_eq!((bytes.len(), crate::payload::fnv1a(&bytes)), want, "{entry:?}");
        }
    }
}
