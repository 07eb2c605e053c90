//! Serde round trips for wire/storage types (the staging-log snapshot and
//! experiment configs depend on them).

use proptest::prelude::*;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::ObjDesc;

proptest! {
    #[test]
    fn inline_payload_round_trips(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let p = Payload::inline(data.clone());
        let json = serde_json::to_string(&p).unwrap();
        let back: Payload = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.len(), p.len());
        prop_assert_eq!(back.digest(), p.digest());
        prop_assert_eq!(back.bytes().unwrap().as_ref(), &data[..]);
    }

    #[test]
    fn virtual_payload_round_trips(len in 0u64..1_000_000, id in any::<u64>()) {
        let p = Payload::virtual_from(len, &[id]);
        let json = serde_json::to_string(&p).unwrap();
        let back: Payload = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.len(), len);
        prop_assert_eq!(back.digest(), p.digest());
        prop_assert!(back.bytes().is_none());
    }

    #[test]
    fn desc_round_trips(var in 0u32..10, version in 0u32..100, lo in 0u64..50, len in 1u64..50) {
        let d = ObjDesc { var, version, bbox: BBox::d1(lo, lo + len - 1) };
        let json = serde_json::to_string(&d).unwrap();
        let back: ObjDesc = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, d);
    }
}

/// The serde form has no frame CRC around it, so deserializing verifies the
/// digest instead of adopting it: a tuple whose digest is not the FNV-1a of
/// its bytes is refused.
#[test]
fn inline_payload_with_a_foreign_digest_is_refused() {
    let p = Payload::inline(vec![1, 2, 3]);
    let good = serde_json::to_string(&p).unwrap();
    let forged = good.replace(&p.digest().to_string(), &(p.digest() ^ 1).to_string());
    assert_ne!(forged, good);
    assert_eq!(serde_json::from_str::<Payload>(&good).unwrap(), p);
    let err = serde_json::from_str::<Payload>(&forged).unwrap_err();
    assert!(err.to_string().contains("digest"), "{err}");

    let tampered = good.replace("[1,2,3]", "[1,2,4]");
    assert_ne!(tampered, good);
    assert!(serde_json::from_str::<Payload>(&tampered).is_err());
}

#[test]
fn inline_and_virtual_serialize_distinctly() {
    let i = Payload::inline(vec![1, 2, 3]);
    let v = Payload::virtual_from(3, &[9]);
    let ji = serde_json::to_string(&i).unwrap();
    let jv = serde_json::to_string(&v).unwrap();
    assert_ne!(ji, jv);
    assert!(matches!(serde_json::from_str::<Payload>(&ji).unwrap(), Payload::Inline(_)));
    assert!(matches!(serde_json::from_str::<Payload>(&jv).unwrap(), Payload::Virtual { .. }));
}
