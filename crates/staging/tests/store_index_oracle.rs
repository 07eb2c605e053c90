//! Equivalence of the indexed store against the retained linear-scan seed
//! implementation: identical operation sequences must yield byte-identical
//! observable behaviour from `query`, `covers_any`, `covers_fully`, and
//! `latest_version_at`, plus matching accounting.
//!
//! Geometry is deliberately adversarial for the index: a mix of block-aligned
//! 3-D pieces (the production shape), unaligned slivers and oversized pieces
//! (which straddle cells, so the index must widen a query by their reach),
//! and far-away coordinates past the 21-bit Morton mask (which alias cells
//! onto one chain). An index whose reach ignores straddling pieces fails
//! here within the first few cases.

#[path = "support/linear_store.rs"]
mod linear_store;

use linear_store::LinearStore;
use proptest::prelude::*;
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{ObjDesc, VarId, Version};
use staging::store::VersionedStore;

#[derive(Debug, Clone)]
enum Op {
    Put { var: VarId, version: Version, bbox: BBox, len: u64 },
    Query { var: VarId, version: Version, bbox: BBox },
    LatestAt { var: VarId, at_most: Version, bbox: BBox },
    RemoveVersion { var: VarId, version: Version },
    RemoveOlderThan { var: VarId, keep_from: Version },
    RemoveNewerThan { keep: Version },
}

/// Boxes come from a few families so puts collide, tile, and straddle.
fn arb_bbox() -> impl Strategy<Value = BBox> {
    prop_oneof![
        // Block-aligned 3-D pieces on an 8^3 grid (the production shape).
        4 => (0u64..6, 0u64..6, 0u64..6).prop_map(|(bx, by, bz)| {
            BBox::d3([bx * 8, by * 8, bz * 8], [bx * 8 + 7, by * 8 + 7, bz * 8 + 7])
        }),
        // Unaligned 3-D slivers.
        2 => (0u64..40, 1u64..12, 0u64..40, 1u64..6, 0u64..40, 1u64..6).prop_map(
            |(x, xl, y, yl, z, zl)| BBox::d3([x, y, z], [x + xl - 1, y + yl - 1, z + zl - 1])
        ),
        // Oversized pieces spanning many cells.
        1 => (0u64..20, 20u64..60).prop_map(|(x, xl)| {
            BBox::d3([x, 0, 0], [x + xl - 1, 47, 47])
        }),
        // Coordinates past the 21-bit Morton range (bucket aliasing).
        1 => (0u64..4u64, 1u64..9).prop_map(|(k, xl)| {
            let x = (1u64 << 30) + (k << 21);
            BBox::d3([x, 0, 0], [x + xl - 1, 7, 7])
        }),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    fn vv() -> impl Strategy<Value = (VarId, Version)> {
        (0u32..3, 1u32..10)
    }
    prop_oneof![
        5 => (vv(), arb_bbox(), 1u64..100).prop_map(|((var, version), bbox, len)| {
            Op::Put { var, version, bbox, len }
        }),
        3 => (vv(), arb_bbox()).prop_map(|((var, version), bbox)| {
            Op::Query { var, version, bbox }
        }),
        2 => (vv(), arb_bbox()).prop_map(|((var, at_most), bbox)| {
            Op::LatestAt { var, at_most, bbox }
        }),
        1 => vv().prop_map(|(var, version)| Op::RemoveVersion { var, version }),
        1 => vv().prop_map(|(var, keep_from)| Op::RemoveOlderThan { var, keep_from }),
        1 => (1u32..10).prop_map(|keep| Op::RemoveNewerThan { keep }),
    ]
}

/// Puts and queries of one `(var, version)`: spread over many versions a
/// set holds a few pieces and every query walks them all, so only a dense
/// version makes queries go through the cell index.
fn arb_dense_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (arb_bbox(), 1u64..100).prop_map(|(bbox, len)| {
            Op::Put { var: 0, version: 1, bbox, len }
        }),
        2 => arb_bbox().prop_map(|bbox| Op::Query { var: 0, version: 1, bbox }),
    ]
}

/// Fully observable projection of a query result, which must come in
/// ascending `(lb, ub)` order. Overlapping pieces can clip to the same box,
/// and their relative order is the scan's, so ties are broken here.
fn obs(pieces: &[staging::proto::GetPiece]) -> Vec<(BBox, Version, u64, u64)> {
    let key = |p: &staging::proto::GetPiece| (p.bbox.lb, p.bbox.ub);
    assert!(pieces.windows(2).all(|w| key(&w[0]) <= key(&w[1])), "not in (lb, ub) order");
    let mut out: Vec<_> =
        pieces.iter().map(|p| (p.bbox, p.version, p.payload.len(), p.payload.digest())).collect();
    out.sort_by_key(|&(bbox, _, len, digest)| (bbox.lb, bbox.ub, len, digest));
    out
}

/// Apply `op` to both stores and require the same observable answers.
fn step(indexed: &mut VersionedStore, linear: &mut LinearStore, op: Op) -> TestCaseResult {
    match op {
        Op::Put { var, version, bbox, len } => {
            let digest = (var as u64) << 40 ^ (version as u64) << 32 ^ len;
            let payload = Payload::Virtual { len, digest };
            let desc = ObjDesc { var, version, bbox };
            let ei = indexed.put(desc, payload.clone());
            let el = linear.put(desc, payload);
            prop_assert_eq!(ei, el, "eviction bytes diverged");
        }
        Op::Query { var, version, bbox } => {
            prop_assert_eq!(
                obs(&indexed.query(var, version, &bbox)),
                obs(&linear.query(var, version, &bbox)),
                "query diverged"
            );
            prop_assert_eq!(
                indexed.covers_any(var, version, &bbox),
                linear.covers_any(var, version, &bbox),
                "covers_any diverged"
            );
            prop_assert_eq!(
                indexed.covers_fully(var, version, &bbox),
                linear.covers_fully(var, version, &bbox),
                "covers_fully diverged"
            );
        }
        Op::LatestAt { var, at_most, bbox } => {
            prop_assert_eq!(
                indexed.latest_version_at(var, at_most, &bbox),
                linear.latest_version_at(var, at_most, &bbox),
                "latest_version_at diverged"
            );
            prop_assert_eq!(
                indexed.newest_version(var),
                linear.newest_version(var),
                "newest_version diverged"
            );
        }
        Op::RemoveVersion { var, version } => {
            prop_assert_eq!(
                indexed.remove_version(var, version),
                linear.remove_version(var, version),
                "remove_version freed bytes diverged"
            );
        }
        Op::RemoveOlderThan { var, keep_from } => {
            prop_assert_eq!(
                indexed.remove_older_than(var, keep_from),
                linear.remove_older_than(var, keep_from),
                "remove_older_than freed bytes diverged"
            );
        }
        Op::RemoveNewerThan { keep } => {
            prop_assert_eq!(
                indexed.remove_newer_than(keep),
                linear.remove_newer_than(keep),
                "remove_newer_than freed bytes diverged"
            );
        }
    }
    prop_assert_eq!(indexed.bytes(), linear.bytes(), "byte accounting diverged");
    prop_assert_eq!(indexed.piece_count(), linear.piece_count());
    for var in 0..3u32 {
        prop_assert_eq!(indexed.versions(var), linear.versions(var));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexed_store_matches_linear_oracle(
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let mut indexed = VersionedStore::unbounded();
        let mut linear = LinearStore::unbounded();
        for op in ops {
            step(&mut indexed, &mut linear, op)?;
        }
    }

    /// One version filled with up to ~70 pieces, queried as it fills.
    #[test]
    fn a_dense_version_matches_linear_oracle(
        ops in prop::collection::vec(arb_dense_op(), 1..120),
    ) {
        let mut indexed = VersionedStore::unbounded();
        let mut linear = LinearStore::unbounded();
        for op in ops {
            step(&mut indexed, &mut linear, op)?;
        }
    }

    /// The bounded (retention-evicting) configuration also agrees.
    #[test]
    fn bounded_stores_agree(
        maxv in 1usize..4,
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let mut indexed = VersionedStore::bounded(maxv);
        let mut linear = LinearStore::bounded(maxv);
        for op in ops {
            match op {
                Op::Put { var, version, bbox, len } => {
                    let digest = (var as u64) << 40 ^ (version as u64) << 32 ^ len;
                    let payload = Payload::Virtual { len, digest };
                    let desc = ObjDesc { var, version, bbox };
                    prop_assert_eq!(indexed.put(desc, payload.clone()), linear.put(desc, payload));
                }
                Op::Query { var, version, bbox } => {
                    prop_assert_eq!(
                        obs(&indexed.query(var, version, &bbox)),
                        obs(&linear.query(var, version, &bbox))
                    );
                }
                _ => {}
            }
            prop_assert_eq!(indexed.bytes(), linear.bytes());
            for var in 0..3u32 {
                prop_assert_eq!(indexed.versions(var), linear.versions(var));
            }
        }
    }
}
