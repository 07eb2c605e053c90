//! Property tests for the wfcr journal wire codec: binary round-trip over
//! every entry variant, rejection of any record body that does not start with
//! the wire magic, and the zero-copy meta/payload split.

use proptest::prelude::*;
use staging::geometry::BBox;
use staging::journal::decode_records;
use staging::payload::{fnv1a, Payload};
use staging::proto::ObjDesc;
use staging::wire;
use wfcr::journal::JournalEntry;

fn arb_bbox() -> impl Strategy<Value = BBox> {
    (1u8..=3, any::<[u64; 3]>(), any::<[u64; 3]>()).prop_map(|(ndim, lb, ub)| BBox { ndim, lb, ub })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64).prop_map(Payload::inline),
        (any::<u64>(), any::<u64>()).prop_map(|(len, digest)| Payload::Virtual { len, digest }),
    ]
}

fn arb_entry() -> impl Strategy<Value = JournalEntry> {
    let desc = (any::<u32>(), any::<u32>(), arb_bbox()).prop_map(|(var, version, bbox)| ObjDesc {
        var,
        version,
        bbox,
    });
    prop_oneof![
        (any::<u32>(), desc, arb_payload()).prop_map(|(app, desc, payload)| JournalEntry::Put {
            app,
            desc,
            digest: payload.digest(),
            payload,
        }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            arb_bbox(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(app, var, requested, served, bbox, bytes, digest)| {
                JournalEntry::Get { app, var, requested, served, bbox, bytes, digest }
            }),
        (any::<u32>(), any::<u64>(), any::<u32>(), prop::option::of(any::<u32>())).prop_map(
            |(app, w_chk_id, upto_version, floor)| JournalEntry::Checkpoint {
                app,
                w_chk_id,
                upto_version,
                floor,
            }
        ),
        (any::<u32>(), any::<u32>())
            .prop_map(|(app, resume_version)| JournalEntry::Recovery { app, resume_version }),
        any::<u32>().prop_map(|to_version| JournalEntry::GlobalReset { to_version }),
    ]
}

fn record(seq: u64, payload: Vec<u8>) -> logstore::Record {
    logstore::Record { seq, watermark: 0, payload: payload.into() }
}

proptest! {
    /// Binary encode → decode is the identity for every entry variant.
    #[test]
    fn binary_codec_round_trips(entry in arb_entry()) {
        let encoded = entry.encode();
        prop_assert_eq!(encoded[0], wire::WIRE_MAGIC);
        let back = JournalEntry::decode(&encoded).expect("binary decode");
        // The decoder adopts the recorded digest instead of re-hashing; what
        // it adopted must still be the digest of the bytes it decoded.
        if let JournalEntry::Put { payload, .. } = &back {
            if let Some(bytes) = payload.bytes() {
                prop_assert_eq!(payload.digest(), fnv1a(bytes));
            }
        }
        prop_assert_eq!(back, entry);
    }

    /// A put records its digest twice — the entry field and the payload meta.
    /// A record whose two copies disagree is not an entry: it decodes to
    /// `None` and `decode_records` drops it without disturbing its neighbours.
    #[test]
    fn put_with_disagreeing_digests_is_rejected(
        entry in arb_entry(),
        payload in arb_payload(),
        flip in 1u64..=u64::MAX,
    ) {
        let torn = JournalEntry::Put {
            app: 0,
            desc: ObjDesc { var: 0, version: 1, bbox: BBox::d1(0, 7) },
            digest: payload.digest() ^ flip,
            payload,
        };
        prop_assert_eq!(JournalEntry::decode(&torn.encode()), None);
        let stream =
            [record(0, entry.encode()), record(1, torn.encode()), record(2, entry.encode())];
        prop_assert_eq!(decode_records::<JournalEntry>(&stream), vec![entry.clone(), entry]);
    }

    /// A body whose first byte is not the wire magic is not an entry: the
    /// binary encoding under any other first byte decodes to `None`, and
    /// `decode_records` drops it without disturbing its neighbours.
    #[test]
    fn foreign_bodies_are_rejected(entry in arb_entry(), first in any::<u8>()) {
        prop_assume!(first != wire::WIRE_MAGIC);
        let mut mangled = entry.encode();
        mangled[0] = first;
        prop_assert_eq!(JournalEntry::decode(&mangled), None);
        prop_assert_eq!(JournalEntry::decode(&[]), None);

        let stream = [
            record(0, entry.encode()),
            record(1, mangled),
            record(2, entry.encode()),
        ];
        let kept = decode_records::<JournalEntry>(&stream);
        prop_assert_eq!(kept, vec![entry.clone(), entry]);
    }

    /// The zero-copy split (meta scratch + inline payload bytes riding as a
    /// separate vectored part) concatenates to the contiguous encoding.
    #[test]
    fn meta_plus_payload_equals_contiguous(entry in arb_entry()) {
        let mut split = Vec::new();
        entry.encode_meta_into(&mut split);
        if let Some(b) = entry.inline_payload() {
            split.extend_from_slice(b);
        }
        prop_assert_eq!(split, entry.encode());
    }

    /// Truncating a binary entry anywhere fails cleanly — no panic, and
    /// never a successful decode to a different entry.
    #[test]
    fn truncated_binary_never_misdecodes(entry in arb_entry()) {
        let encoded = entry.encode();
        for cut in 0..encoded.len() {
            if let Some(got) = JournalEntry::decode(&encoded[..cut]) {
                prop_assert_eq!(got, entry.clone(), "a prefix decoded to a different entry");
            }
        }
    }
}
