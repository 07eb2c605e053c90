//! Property tests for the store-journal wire codec: the binary encoding
//! round-trips every representable entry, and a record body that does not
//! start with the wire magic — a serde_json rendering of the entry included —
//! is rejected without disturbing the records around it.

use proptest::prelude::*;
use staging::geometry::BBox;
use staging::journal::{decode_records, WireEntry};
use staging::payload::{fnv1a, Payload};
use staging::proto::{CtlRequest, ObjDesc};
use staging::store_journal::StoreJournalEntry;
use staging::wire;

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (1u8..=3, any::<[u64; 3]>(), any::<[u64; 3]>()).prop_map(|(ndim, lb, ub)| BBox { ndim, lb, ub })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64).prop_map(Payload::inline),
        (any::<u64>(), any::<u64>()).prop_map(|(len, digest)| Payload::Virtual { len, digest }),
    ]
}

fn arb_desc() -> impl Strategy<Value = ObjDesc> {
    (any::<u32>(), any::<u32>(), arb_bbox()).prop_map(|(var, version, bbox)| ObjDesc {
        var,
        version,
        bbox,
    })
}

fn arb_ctl() -> impl Strategy<Value = CtlRequest> {
    prop_oneof![
        (any::<u32>(), any::<u32>())
            .prop_map(|(app, upto_version)| CtlRequest::Checkpoint { app, upto_version }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(app, resume_version)| CtlRequest::Recovery { app, resume_version }),
        any::<u32>().prop_map(|to_version| CtlRequest::GlobalReset { to_version }),
    ]
}

fn arb_entry() -> impl Strategy<Value = StoreJournalEntry> {
    prop_oneof![
        (arb_desc(), arb_payload())
            .prop_map(|(desc, payload)| StoreJournalEntry::Put { desc, payload }),
        arb_ctl().prop_map(|req| StoreJournalEntry::Ctl { req }),
    ]
}

fn record(seq: u64, payload: Vec<u8>) -> logstore::Record {
    logstore::Record { seq, watermark: 0, payload: payload.into() }
}

proptest! {
    /// Binary encode → decode is the identity for every representable entry.
    #[test]
    fn binary_codec_round_trips(entry in arb_entry()) {
        let encoded = entry.encode();
        prop_assert_eq!(encoded[0], wire::WIRE_MAGIC);
        let back = StoreJournalEntry::decode(&encoded).expect("binary decode");
        // The decoder adopts the recorded digest instead of re-hashing; what
        // it adopted must still be the digest of the bytes it decoded.
        if let StoreJournalEntry::Put { payload, .. } = &back {
            if let Some(bytes) = payload.bytes() {
                prop_assert_eq!(payload.digest(), fnv1a(bytes));
            }
        }
        prop_assert_eq!(back, entry);
    }

    /// A body whose first byte is not the wire magic is not an entry: a
    /// serde_json rendering of the entry, and the binary encoding under any
    /// other first byte, both decode to `None`, and `decode_records` drops
    /// them without disturbing their neighbours.
    #[test]
    fn foreign_bodies_are_rejected(entry in arb_entry(), first in any::<u8>()) {
        prop_assume!(first != wire::WIRE_MAGIC);
        let json = serde_json::to_vec(&entry).expect("entries serialize");
        prop_assert_eq!(json[0], b'{');
        prop_assert_eq!(StoreJournalEntry::decode(&json), None);
        let mut mangled = entry.encode();
        mangled[0] = first;
        prop_assert_eq!(StoreJournalEntry::decode(&mangled), None);
        prop_assert_eq!(StoreJournalEntry::decode(&[]), None);

        let stream = [
            record(0, entry.encode()),
            record(1, json),
            record(2, entry.encode()),
            record(3, mangled),
            record(4, entry.encode()),
        ];
        let kept: Vec<StoreJournalEntry> = decode_records(&stream);
        prop_assert_eq!(kept, vec![entry.clone(), entry.clone(), entry]);
    }

    /// The zero-copy split (meta scratch + payload bytes as a separate
    /// vectored part) concatenates to exactly the contiguous encoding.
    #[test]
    fn meta_plus_payload_equals_contiguous(entry in arb_entry()) {
        let mut split = Vec::new();
        entry.encode_meta_into(&mut split);
        if let Some(b) = entry.inline_payload() {
            split.extend_from_slice(b);
        }
        prop_assert_eq!(split, entry.encode());
    }

    /// Truncating a binary entry anywhere must fail cleanly, never panic or
    /// decode to a different entry.
    #[test]
    fn truncated_binary_never_misdecodes(entry in arb_entry()) {
        let encoded = entry.encode();
        for cut in 0..encoded.len() {
            if let Some(got) = StoreJournalEntry::decode(&encoded[..cut]) {
                prop_assert_eq!(got, entry.clone(), "a prefix decoded to a different entry");
            }
        }
    }
}
