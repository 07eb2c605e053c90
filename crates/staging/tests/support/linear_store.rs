//! The seed's linear-scan versioned store, kept as an oracle for the
//! indexed [`staging::store::VersionedStore`].
//!
//! [`LinearStore`] is the pre-index store: every lookup walks the full piece
//! vector of its `(var, version)`. It is test-support code, included with
//! `#[path]` by `staging/tests/store_index_oracle.rs`, which drives both
//! stores with identical operation sequences and requires byte-identical
//! answers from `query` / `covers_fully` / `latest_version_at`.
//!
//! Both stores canonicalize `query` output to ascending `(lb, ub)` order so
//! results compare exactly.

use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{GetPiece, ObjDesc, VarId, Version};
use std::collections::BTreeMap;

/// One stored piece.
#[derive(Debug, Clone)]
struct Piece {
    bbox: BBox,
    payload: Payload,
}

/// Linear-scan versioned store (the seed implementation).
#[derive(Debug, Clone, Default)]
pub struct LinearStore {
    /// var → version → pieces, probed linearly. Ordered map to stay
    /// iteration-order-identical with the indexed store it oracles for.
    data: BTreeMap<VarId, BTreeMap<Version, Vec<Piece>>>,
    /// Total resident bytes (payload logical sizes).
    bytes: u64,
    /// Maximum retained versions per variable.
    max_versions: Option<usize>,
}

impl LinearStore {
    /// Store retaining at most `max_versions` versions per variable.
    pub fn bounded(max_versions: usize) -> Self {
        assert!(max_versions > 0, "must retain at least one version");
        LinearStore { max_versions: Some(max_versions), ..Default::default() }
    }

    /// Store with no automatic eviction.
    pub fn unbounded() -> Self {
        LinearStore::default()
    }

    /// Insert a piece, replacing an identical-bbox piece of the same
    /// `(var, version)`. Returns bytes evicted by version retention.
    pub fn put(&mut self, desc: ObjDesc, payload: Payload) -> u64 {
        let versions = self.data.entry(desc.var).or_default();
        let pieces = versions.entry(desc.version).or_default();
        if let Some(existing) = pieces.iter_mut().find(|p| p.bbox == desc.bbox) {
            self.bytes -= existing.payload.accounted_len();
            self.bytes += payload.accounted_len();
            existing.payload = payload;
            return 0;
        }
        self.bytes += payload.accounted_len();
        pieces.push(Piece { bbox: desc.bbox, payload });
        let mut evicted = 0;
        if let Some(maxv) = self.max_versions {
            while versions.len() > maxv {
                let (&oldest, _) = versions.iter().next().expect("nonempty");
                let removed = versions.remove(&oldest).expect("present");
                let freed: u64 = removed.iter().map(|p| p.payload.accounted_len()).sum();
                self.bytes -= freed;
                evicted += freed;
            }
        }
        evicted
    }

    /// True if any piece of `(var, version)` intersects `bbox`.
    pub fn covers_any(&self, var: VarId, version: Version, bbox: &BBox) -> bool {
        self.data
            .get(&var)
            .and_then(|v| v.get(&version))
            .map(|pieces| pieces.iter().any(|p| p.bbox.intersects(bbox)))
            .unwrap_or(false)
    }

    /// Pieces of `(var, version)` intersecting `bbox`, clipped, in canonical
    /// `(lb, ub)` order.
    pub fn query(&self, var: VarId, version: Version, bbox: &BBox) -> Vec<GetPiece> {
        let Some(pieces) = self.data.get(&var).and_then(|v| v.get(&version)) else {
            return Vec::new();
        };
        let mut out: Vec<GetPiece> = pieces
            .iter()
            .filter_map(|p| {
                p.bbox.intersect(bbox).map(|clip| GetPiece {
                    bbox: clip,
                    version,
                    payload: p.payload.clone(),
                })
            })
            .collect();
        out.sort_unstable_by_key(|a| (a.bbox.lb, a.bbox.ub));
        out
    }

    /// Latest version `<= at_most` with a piece intersecting `bbox`.
    pub fn latest_version_at(&self, var: VarId, at_most: Version, bbox: &BBox) -> Option<Version> {
        let versions = self.data.get(&var)?;
        versions
            .range(..=at_most)
            .rev()
            .find(|(_, pieces)| pieces.iter().any(|p| p.bbox.intersects(bbox)))
            .map(|(&v, _)| v)
    }

    /// All stored versions of `var`, ascending.
    pub fn versions(&self, var: VarId) -> Vec<Version> {
        self.data.get(&var).map(|v| v.keys().copied().collect()).unwrap_or_default()
    }

    /// Remove an entire version; returns bytes freed.
    pub fn remove_version(&mut self, var: VarId, version: Version) -> u64 {
        let Some(versions) = self.data.get_mut(&var) else { return 0 };
        let Some(pieces) = versions.remove(&version) else { return 0 };
        let freed: u64 = pieces.iter().map(|p| p.payload.accounted_len()).sum();
        self.bytes -= freed;
        if versions.is_empty() {
            self.data.remove(&var);
        }
        freed
    }

    /// Remove versions strictly older than `keep_from`; returns bytes freed.
    pub fn remove_older_than(&mut self, var: VarId, keep_from: Version) -> u64 {
        let Some(versions) = self.data.get_mut(&var) else { return 0 };
        let old: Vec<Version> = versions.range(..keep_from).map(|(&v, _)| v).collect();
        let mut freed = 0;
        for v in old {
            if let Some(pieces) = versions.remove(&v) {
                freed += pieces.iter().map(|p| p.payload.accounted_len()).sum::<u64>();
            }
        }
        self.bytes -= freed;
        if versions.is_empty() {
            self.data.remove(&var);
        }
        freed
    }

    /// Remove versions strictly newer than `keep_upto` everywhere; returns
    /// bytes freed.
    pub fn remove_newer_than(&mut self, keep_upto: Version) -> u64 {
        let vars: Vec<VarId> = self.data.keys().copied().collect();
        let mut freed = 0;
        for var in vars {
            let Some(versions) = self.data.get_mut(&var) else { continue };
            let newer: Vec<Version> =
                versions.range(keep_upto.saturating_add(1)..).map(|(&v, _)| v).collect();
            for v in newer {
                if let Some(pieces) = versions.remove(&v) {
                    freed += pieces.iter().map(|p| p.payload.accounted_len()).sum::<u64>();
                }
            }
            if versions.is_empty() {
                self.data.remove(&var);
            }
        }
        self.bytes -= freed;
        freed
    }

    /// Newest stored version of `var`.
    pub fn newest_version(&self, var: VarId) -> Option<Version> {
        self.data.get(&var).and_then(|v| v.keys().next_back().copied())
    }

    /// True if the pieces of `(var, version)` fully tile `bbox`.
    pub fn covers_fully(&self, var: VarId, version: Version, bbox: &BBox) -> bool {
        let Some(pieces) = self.data.get(&var).and_then(|v| v.get(&version)) else {
            return false;
        };
        let mut vol = 0u64;
        for p in pieces {
            if let Some(clip) = p.bbox.intersect(bbox) {
                vol += clip.volume();
            }
        }
        vol == bbox.volume()
    }

    /// Total resident bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of stored pieces across all variables/versions.
    pub fn piece_count(&self) -> usize {
        self.data.values().flat_map(|v| v.values()).map(|pieces| pieces.len()).sum()
    }
}
