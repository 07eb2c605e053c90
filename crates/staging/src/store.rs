//! Versioned object store — the per-server storage of the staging area.
//!
//! Objects are keyed by `(variable, version)` and hold block-aligned pieces.
//! The plain staging baseline retains a bounded number of versions per
//! variable (the paper's baseline "only keeps the latest version of data in
//! staging"); the crash-consistency layer builds its log on top of this store
//! by retaining more versions and deleting them under GC control instead of
//! simple version-count eviction.
//!
//! # Indexing
//!
//! Each `(var, version)` holds a `PieceSet`: one vector of its pieces in
//! insertion order, and a map from the Morton code ([`crate::sfc::morton3`])
//! of a quantized lower bound to the newest piece starting in that cell,
//! whose older cell-mates are chained through a parallel `next` vector. A put
//! appends to both vectors; no block has an allocation of its own. A new
//! version starts with room in `pieces`, `next` and the cell map for as many
//! pieces as the variable's newest stored version holds: a coupled workflow
//! writes each step with the decomposition of the step before, so a version
//! is sized once instead of regrown on its way to full. A variable's first
//! version has no predecessor and grows from empty. The cell
//! extents are fixed per set from the first piece's extents (rounded up to a
//! power of two), so block-aligned pieces — the common case, since
//! [`crate::dist::Distribution`] clips every put to block granularity — land
//! in distinct cells, one piece a chain: the put dedup probe is O(1).
//!
//! A region query enumerates the cells its region covers, widened below on
//! each axis by that axis's *reach*: the most cells any stored piece extends
//! past the cell of its own lower bound. The reach is exact for what is
//! stored, so a block-aligned block query probes the one cell its block
//! lives in, and a piece straddling cells widens only the axes it straddles.
//! When the enumeration would be no smaller than the set, the query walks
//! the piece vector instead, so it is never asymptotically worse than a
//! linear scan.
//!
//! Memory accounting is byte-accurate over payload *logical* sizes so the
//! memory-usage experiments (Figure 9(c)/(d)) read directly off the store.

use crate::geometry::BBox;
use crate::payload::Payload;
use crate::proto::{GetPiece, ObjDesc, VarId, Version};
use crate::sfc::morton3;
use std::collections::{BTreeMap, HashMap}; // detlint: allow(hashmap) — CellMap uses a fixed-key hasher; iteration never leaves this module unsorted

/// One stored piece.
#[derive(Debug, Clone)]
struct StoredObj {
    /// Region covered by this piece.
    bbox: BBox,
    /// The data.
    payload: Payload,
}

/// Morton coordinates are limited to 21 bits per axis; cell coordinates are
/// masked down to that range. Collisions only alias distant cells onto the
/// same chain, which costs a redundant intersection test, never correctness.
const CELL_MASK: u64 = (1 << 21) - 1;

/// End of a cell's chain in [`PieceSet::next`].
const NIL: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// `[cells probed, pieces walked]` by [`PieceSet::scan`] on this thread:
    /// the tests count the index's cost instead of timing it.
    static SCANNED: std::cell::Cell<[usize; 2]> = const { std::cell::Cell::new([0; 2]) };
}

#[cfg(test)]
fn note_scanned([cells, pieces]: [usize; 2]) {
    SCANNED.with(|n| {
        let [c, p] = n.get();
        n.set([c + cells, p + pieces]);
    });
}

/// Multiplicative hasher for cell keys. Morton codes are already
/// well-mixed, so a single Fibonacci multiply beats SipHash by an order of
/// magnitude on the put/get hot path.
#[derive(Debug, Default, Clone)]
struct CellHasher(u64);

impl std::hash::Hasher for CellHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

// Fixed-key CellHasher: bucket layout (and thus any iteration) is identical
// on every run, and lookups are point queries anyway.
// detlint: allow(hashmap) — fixed-key hasher, see above
type CellMap = HashMap<u64, u32, std::hash::BuildHasherDefault<CellHasher>>;

/// The pieces of one `(var, version)`, spatially indexed by the Morton code
/// of each piece's quantized lower bound.
#[derive(Debug, Clone)]
struct PieceSet {
    /// log2 of the cell extent per axis; fixed by the first inserted piece.
    shift: [u32; 3],
    /// Per axis, the most cells any stored piece extends past the cell of
    /// its own lower bound: a piece overlapping a query region starts at
    /// most this many cells below the region's first cell.
    reach: [u64; 3],
    /// Cell id → index in `pieces` of the newest piece whose lower bound
    /// quantizes into that cell.
    cells: CellMap,
    /// Every piece of this version, in insertion order. Versions are
    /// dropped whole, so nothing is ever unlinked.
    pieces: Vec<StoredObj>,
    /// `next[i]`: the next older piece in the chain of piece `i`'s cell, or
    /// [`NIL`].
    next: Vec<u32>,
    /// Total accounted payload bytes of this set.
    bytes: u64,
}

impl PieceSet {
    /// An empty set with room for `pieces` pieces, its cell extents fixed
    /// by `first`.
    fn new(first: &BBox, pieces: usize) -> Self {
        let mut shift = [0u32; 3];
        for (a, s) in shift.iter_mut().enumerate() {
            let ext = first.ub[a] - first.lb[a] + 1;
            *s = ext.next_power_of_two().trailing_zeros();
        }
        PieceSet {
            shift,
            reach: [0; 3],
            cells: CellMap::with_capacity_and_hasher(pieces, Default::default()),
            pieces: Vec::with_capacity(pieces),
            next: Vec::with_capacity(pieces),
            bytes: 0,
        }
    }

    fn cell_of(&self, lb: &[u64; 3]) -> u64 {
        morton3(
            (lb[0] >> self.shift[0]) & CELL_MASK,
            (lb[1] >> self.shift[1]) & CELL_MASK,
            (lb[2] >> self.shift[2]) & CELL_MASK,
        )
    }

    /// Insert a piece; an identical bbox replaces the old payload and
    /// returns its accounted length.
    fn insert(&mut self, bbox: BBox, payload: Payload) -> Option<u64> {
        let key = self.cell_of(&bbox.lb);
        let head = self.cells.entry(key).or_insert(NIL);
        let mut i = *head;
        while i != NIL {
            let p = &mut self.pieces[i as usize];
            if p.bbox == bbox {
                let old = p.payload.accounted_len();
                self.bytes = self.bytes - old + payload.accounted_len();
                p.payload = payload;
                return Some(old);
            }
            i = self.next[i as usize];
        }
        for (a, r) in self.reach.iter_mut().enumerate() {
            *r = (*r).max((bbox.ub[a] >> self.shift[a]) - (bbox.lb[a] >> self.shift[a]));
        }
        let index = u32::try_from(self.pieces.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("a version holds fewer than 2^32 - 1 pieces");
        self.next.push(*head);
        *head = index;
        self.bytes += payload.accounted_len();
        self.pieces.push(StoredObj { bbox, payload });
        None
    }

    /// Visit every piece that *may* intersect `bbox` (callers still filter by
    /// actual intersection). Stops early and returns `true` as soon as `f`
    /// does. Enumerates the cells of the query region widened by `reach`, or
    /// walks the piece vector when that enumeration would be no smaller.
    fn scan(&self, bbox: &BBox, mut f: impl FnMut(&StoredObj) -> bool) -> bool {
        let mut clo = [0u64; 3];
        let mut chi = [0u64; 3];
        let mut ncells: u128 = 1;
        for a in 0..3 {
            // A piece overlaps bbox on this axis only if it ends at or past
            // lb[a], so its own first cell is at most reach[a] below lb[a]'s.
            clo[a] = (bbox.lb[a] >> self.shift[a]).saturating_sub(self.reach[a]);
            chi[a] = bbox.ub[a] >> self.shift[a];
            ncells *= (chi[a] - clo[a] + 1) as u128;
        }
        // The 21-bit mask aliases cells 2^21 apart on an axis onto one key,
        // so an enumeration that wide would have to dedup keys to report a
        // shared chain once. It would also cost more than 2^21 probes: walk
        // the pieces instead, which visits each exactly once.
        let may_alias = (0..3).any(|a| chi[a] - clo[a] > CELL_MASK);
        if may_alias || ncells >= self.pieces.len() as u128 {
            return self.pieces.iter().any(|p| {
                #[cfg(test)]
                note_scanned([0, 1]);
                f(p)
            });
        }
        for x in clo[0]..=chi[0] {
            for y in clo[1]..=chi[1] {
                for z in clo[2]..=chi[2] {
                    #[cfg(test)]
                    note_scanned([1, 0]);
                    let key = morton3(x & CELL_MASK, y & CELL_MASK, z & CELL_MASK);
                    let mut i = self.cells.get(&key).copied().unwrap_or(NIL);
                    while i != NIL {
                        if f(&self.pieces[i as usize]) {
                            return true;
                        }
                        i = self.next[i as usize];
                    }
                }
            }
        }
        false
    }
}

/// Per-server versioned store with bounded version retention.
///
/// ```
/// use staging::geometry::BBox;
/// use staging::payload::Payload;
/// use staging::proto::ObjDesc;
/// use staging::store::VersionedStore;
///
/// let mut store = VersionedStore::bounded(2);
/// for v in 1..=3u32 {
///     store.put(
///         ObjDesc { var: 0, version: v, bbox: BBox::d1(0, 9) },
///         Payload::virtual_from(10, &[v as u64]),
///     );
/// }
/// // Retention kept only the latest two versions.
/// assert_eq!(store.versions(0), vec![2, 3]);
/// assert_eq!(store.query(0, 3, &BBox::d1(0, 4)).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct VersionedStore {
    /// var → version → spatially indexed pieces. BTreeMap so whole-store
    /// sweeps (`remove_newer_than`, `piece_count`) iterate in a
    /// platform-independent order.
    data: BTreeMap<VarId, BTreeMap<Version, PieceSet>>,
    /// Total resident bytes (payload logical sizes).
    bytes: u64,
    /// Maximum retained versions per variable (`None` = unbounded; the
    /// logging layer manages deletion itself).
    max_versions: Option<usize>,
}

impl VersionedStore {
    /// Store retaining at most `max_versions` versions per variable.
    pub fn bounded(max_versions: usize) -> Self {
        assert!(max_versions > 0, "must retain at least one version");
        VersionedStore { data: BTreeMap::new(), bytes: 0, max_versions: Some(max_versions) }
    }

    /// Store with no automatic eviction (caller controls deletion).
    pub fn unbounded() -> Self {
        VersionedStore { data: BTreeMap::new(), bytes: 0, max_versions: None }
    }

    /// Insert a piece. If a piece with the identical bbox exists at the same
    /// `(var, version)`, it is replaced (a re-put of the same region).
    /// Returns bytes evicted by version retention (0 if none).
    pub fn put(&mut self, desc: ObjDesc, payload: Payload) -> u64 {
        let versions = self.data.entry(desc.var).or_default();
        let added = payload.accounted_len();
        if !versions.contains_key(&desc.version) {
            // Sized like the newest stored version (see the module doc).
            let hint = versions.values().next_back().map_or(0, |newest| newest.pieces.len());
            versions.insert(desc.version, PieceSet::new(&desc.bbox, hint));
        }
        let set = versions.get_mut(&desc.version).expect("present or just inserted");
        if let Some(replaced) = set.insert(desc.bbox, payload) {
            self.bytes = self.bytes - replaced + added;
            return 0;
        }
        self.bytes += added;
        // Enforce retention.
        let mut evicted = 0;
        if let Some(maxv) = self.max_versions {
            while versions.len() > maxv {
                let (&oldest, _) = versions.iter().next().expect("nonempty");
                let removed = versions.remove(&oldest).expect("present");
                self.bytes -= removed.bytes;
                evicted += removed.bytes;
            }
        }
        evicted
    }

    /// True if any piece exists for `(var, version)` intersecting `bbox`.
    pub fn covers_any(&self, var: VarId, version: Version, bbox: &BBox) -> bool {
        self.data
            .get(&var)
            .and_then(|v| v.get(&version))
            .map(|set| set.scan(bbox, |p| p.bbox.intersects(bbox)))
            .unwrap_or(false)
    }

    /// Query pieces of `(var, version)` intersecting `bbox`. Piece bboxes in
    /// the result are clipped to the query region; results are in canonical
    /// `(lb, ub)` order.
    pub fn query(&self, var: VarId, version: Version, bbox: &BBox) -> Vec<GetPiece> {
        let Some(set) = self.data.get(&var).and_then(|v| v.get(&version)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        set.scan(bbox, |p| {
            if let Some(clip) = p.bbox.intersect(bbox) {
                out.push(GetPiece { bbox: clip, version, payload: p.payload.clone() });
            }
            false
        });
        out.sort_unstable_by_key(|a| (a.bbox.lb, a.bbox.ub));
        out
    }

    /// [`VersionedStore::query`] with the fall-back a lagging reader gets:
    /// the pieces of `version` when any intersect `bbox`, otherwise those of
    /// the newest older version that has some. Returns the version served
    /// (`version` itself when nothing at or below it intersects).
    pub fn query_at_or_below(
        &self,
        var: VarId,
        version: Version,
        bbox: &BBox,
    ) -> (Version, Vec<GetPiece>) {
        let pieces = self.query(var, version, bbox);
        if !pieces.is_empty() {
            return (version, pieces);
        }
        match self.latest_version_at(var, version, bbox) {
            Some(older) => (older, self.query(var, older, bbox)),
            None => (version, pieces),
        }
    }

    /// Latest version `<= at_most` stored for `var` that has at least one
    /// piece intersecting `bbox`.
    pub fn latest_version_at(&self, var: VarId, at_most: Version, bbox: &BBox) -> Option<Version> {
        let versions = self.data.get(&var)?;
        versions
            .range(..=at_most)
            .rev()
            .find(|(_, set)| set.scan(bbox, |p| p.bbox.intersects(bbox)))
            .map(|(&v, _)| v)
    }

    /// All stored versions of `var`, ascending.
    pub fn versions(&self, var: VarId) -> Vec<Version> {
        self.data.get(&var).map(|v| v.keys().copied().collect()).unwrap_or_default()
    }

    /// Remove an entire version of a variable; returns bytes freed.
    pub fn remove_version(&mut self, var: VarId, version: Version) -> u64 {
        let Some(versions) = self.data.get_mut(&var) else { return 0 };
        let Some(set) = versions.remove(&version) else { return 0 };
        self.bytes -= set.bytes;
        if versions.is_empty() {
            self.data.remove(&var);
        }
        set.bytes
    }

    /// Remove all versions strictly older than `keep_from` for `var`;
    /// returns bytes freed.
    pub fn remove_older_than(&mut self, var: VarId, keep_from: Version) -> u64 {
        let Some(versions) = self.data.get_mut(&var) else { return 0 };
        // Split at the boundary: the prefix (older versions) drops as one
        // range instead of per-key removals.
        let kept = versions.split_off(&keep_from);
        let dropped = std::mem::replace(versions, kept);
        let freed: u64 = dropped.values().map(|set| set.bytes).sum();
        self.bytes -= freed;
        if versions.is_empty() {
            self.data.remove(&var);
        }
        freed
    }

    /// Remove all versions strictly newer than `keep_upto` for every
    /// variable (global coordinated rollback); returns bytes freed.
    pub fn remove_newer_than(&mut self, keep_upto: Version) -> u64 {
        let Some(split) = keep_upto.checked_add(1) else { return 0 };
        let mut freed = 0;
        self.data.retain(|_, versions| {
            let dropped = versions.split_off(&split);
            freed += dropped.values().map(|set| set.bytes).sum::<u64>();
            !versions.is_empty()
        });
        self.bytes -= freed;
        freed
    }

    /// Newest stored version of `var` regardless of region.
    pub fn newest_version(&self, var: VarId) -> Option<Version> {
        self.data.get(&var).and_then(|v| v.keys().next_back().copied())
    }

    /// True if the stored pieces of `(var, version)` fully tile `bbox`.
    pub fn covers_fully(&self, var: VarId, version: Version, bbox: &BBox) -> bool {
        let Some(set) = self.data.get(&var).and_then(|v| v.get(&version)) else {
            return false;
        };
        let mut vol = 0u64;
        set.scan(bbox, |p| {
            if let Some(clip) = p.bbox.intersect(bbox) {
                // Stored pieces are block-aligned and disjoint, so summing
                // clipped volumes is exact.
                vol += clip.volume();
            }
            false
        });
        vol == bbox.volume()
    }

    /// Total resident bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Variables currently stored.
    pub fn vars(&self) -> Vec<VarId> {
        let mut v: Vec<VarId> = self.data.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of stored pieces across all variables/versions.
    pub fn piece_count(&self) -> usize {
        self.data.values().flat_map(|v| v.values()).map(|set| set.pieces.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(var: VarId, version: Version, lo: u64, hi: u64) -> ObjDesc {
        ObjDesc { var, version, bbox: BBox::d1(lo, hi) }
    }

    fn pay(n: u64) -> Payload {
        Payload::virtual_from(n, &[n])
    }

    #[test]
    fn put_and_query() {
        let mut s = VersionedStore::bounded(4);
        s.put(desc(0, 1, 0, 9), pay(10));
        s.put(desc(0, 1, 10, 19), pay(10));
        let q = s.query(0, 1, &BBox::d1(5, 14));
        assert_eq!(q.len(), 2);
        assert_eq!(q[0].bbox, BBox::d1(5, 9));
        assert_eq!(q[1].bbox, BBox::d1(10, 14));
        assert_eq!(s.bytes(), 20);
        assert_eq!(s.piece_count(), 2);
    }

    #[test]
    fn missing_version_returns_empty() {
        let mut s = VersionedStore::bounded(4);
        s.put(desc(0, 1, 0, 9), pay(10));
        assert!(s.query(0, 2, &BBox::d1(0, 9)).is_empty());
        assert!(s.query(1, 1, &BBox::d1(0, 9)).is_empty());
        assert!(!s.covers_any(0, 2, &BBox::d1(0, 9)));
        assert!(s.covers_any(0, 1, &BBox::d1(5, 20)));
    }

    #[test]
    fn same_bbox_reput_replaces() {
        let mut s = VersionedStore::bounded(4);
        s.put(desc(0, 1, 0, 9), pay(10));
        s.put(desc(0, 1, 0, 9), pay(20));
        assert_eq!(s.bytes(), 20);
        assert_eq!(s.piece_count(), 1);
        let q = s.query(0, 1, &BBox::d1(0, 9));
        assert_eq!(q[0].payload.len(), 20);
    }

    #[test]
    fn retention_evicts_oldest() {
        let mut s = VersionedStore::bounded(2);
        s.put(desc(0, 1, 0, 9), pay(10));
        s.put(desc(0, 2, 0, 9), pay(10));
        let evicted = s.put(desc(0, 3, 0, 9), pay(10));
        assert_eq!(evicted, 10);
        assert_eq!(s.versions(0), vec![2, 3]);
        assert_eq!(s.bytes(), 20);
    }

    #[test]
    fn unbounded_keeps_everything() {
        let mut s = VersionedStore::unbounded();
        for v in 0..100 {
            s.put(desc(0, v, 0, 9), pay(1));
        }
        assert_eq!(s.versions(0).len(), 100);
        assert_eq!(s.bytes(), 100);
    }

    #[test]
    fn latest_version_at_respects_bound_and_bbox() {
        let mut s = VersionedStore::unbounded();
        s.put(desc(0, 1, 0, 9), pay(10));
        s.put(desc(0, 5, 0, 9), pay(10));
        s.put(desc(0, 9, 100, 109), pay(10)); // elsewhere
        assert_eq!(s.latest_version_at(0, 9, &BBox::d1(0, 9)), Some(5));
        assert_eq!(s.latest_version_at(0, 4, &BBox::d1(0, 9)), Some(1));
        assert_eq!(s.latest_version_at(0, 0, &BBox::d1(0, 9)), None);
        assert_eq!(s.latest_version_at(0, 9, &BBox::d1(100, 105)), Some(9));
        assert_eq!(s.latest_version_at(1, 9, &BBox::d1(0, 9)), None);
    }

    #[test]
    fn remove_version_frees_bytes() {
        let mut s = VersionedStore::unbounded();
        s.put(desc(0, 1, 0, 9), pay(10));
        s.put(desc(0, 2, 0, 9), pay(15));
        assert_eq!(s.remove_version(0, 1), 10);
        assert_eq!(s.bytes(), 15);
        assert_eq!(s.remove_version(0, 1), 0);
        assert_eq!(s.remove_version(9, 9), 0);
    }

    #[test]
    fn remove_older_than_sweeps() {
        let mut s = VersionedStore::unbounded();
        for v in 1..=10 {
            s.put(desc(0, v, 0, 9), pay(1));
        }
        let freed = s.remove_older_than(0, 8);
        assert_eq!(freed, 7);
        assert_eq!(s.versions(0), vec![8, 9, 10]);
    }

    #[test]
    fn remove_newer_than_truncates() {
        let mut s = VersionedStore::unbounded();
        for v in 1..=6 {
            s.put(desc(0, v, 0, 9), pay(10));
            s.put(desc(1, v, 0, 9), pay(10));
        }
        let freed = s.remove_newer_than(4);
        assert_eq!(freed, 40);
        assert_eq!(s.versions(0), vec![1, 2, 3, 4]);
        assert_eq!(s.versions(1), vec![1, 2, 3, 4]);
        assert_eq!(s.bytes(), 80);
        // No-op when nothing newer.
        assert_eq!(s.remove_newer_than(10), 0);
        // Boundary: keeping everything up to Version::MAX never overflows.
        assert_eq!(s.remove_newer_than(Version::MAX), 0);
    }

    #[test]
    fn newest_version_tracks() {
        let mut s = VersionedStore::unbounded();
        assert_eq!(s.newest_version(0), None);
        s.put(desc(0, 3, 0, 9), pay(1));
        s.put(desc(0, 7, 0, 9), pay(1));
        assert_eq!(s.newest_version(0), Some(7));
    }

    #[test]
    fn covers_fully_checks_tiling() {
        let mut s = VersionedStore::unbounded();
        s.put(desc(0, 1, 0, 4), pay(5));
        assert!(!s.covers_fully(0, 1, &BBox::d1(0, 9)));
        s.put(desc(0, 1, 5, 9), pay(5));
        assert!(s.covers_fully(0, 1, &BBox::d1(0, 9)));
        assert!(s.covers_fully(0, 1, &BBox::d1(2, 7)));
        assert!(!s.covers_fully(0, 2, &BBox::d1(0, 9)));
    }

    #[test]
    fn vars_listing() {
        let mut s = VersionedStore::unbounded();
        s.put(desc(3, 1, 0, 9), pay(1));
        s.put(desc(1, 1, 0, 9), pay(1));
        assert_eq!(s.vars(), vec![1, 3]);
        s.remove_version(1, 1);
        assert_eq!(s.vars(), vec![3]);
    }

    #[test]
    fn mixed_piece_sizes_stay_queryable() {
        // Later pieces larger than the first (which fixed the cell size)
        // must still be found: their reach widens the probe window.
        let mut s = VersionedStore::unbounded();
        s.put(desc(0, 1, 0, 3), pay(4)); // cell extent fixed at 4
        s.put(desc(0, 1, 4, 99), pay(96)); // 24 cells wide
        let q = s.query(0, 1, &BBox::d1(90, 95));
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].bbox, BBox::d1(90, 95));
        assert!(s.covers_any(0, 1, &BBox::d1(50, 50)));
        assert!(s.covers_fully(0, 1, &BBox::d1(0, 99)));
    }

    #[test]
    fn coordinates_beyond_cell_mask_still_correct() {
        // Quantized coordinates past 2^21 wrap under the Morton mask; two
        // pieces that alias onto one bucket must still behave as distinct
        // regions (no duplicate or missing results).
        let mut s = VersionedStore::unbounded();
        let far = 1u64 << 40;
        s.put(ObjDesc { var: 0, version: 1, bbox: BBox::d1(0, 0) }, pay(1));
        s.put(ObjDesc { var: 0, version: 1, bbox: BBox::d1(far, far) }, pay(1));
        assert_eq!(s.piece_count(), 2);
        assert_eq!(s.query(0, 1, &BBox::d1(0, 10)).len(), 1);
        assert_eq!(s.query(0, 1, &BBox::d1(far - 5, far + 5)).len(), 1);
        assert_eq!(s.query(0, 1, &BBox::d1(0, far)).len(), 2);
        assert!(!s.covers_any(0, 1, &BBox::d1(100, 200)));
    }

    #[test]
    fn query_spanning_the_cell_mask_reports_an_aliased_bucket_once() {
        // Unit cells: cells 0 and 2^21 are the nearest pair sharing a key, so
        // both pieces sit in one chain. A query over 2^21 + 1 cells is the
        // narrowest that reaches it from two cells; one over 2^21 cells is
        // the widest that cannot.
        let mut s = VersionedStore::unbounded();
        let alias = CELL_MASK + 1;
        s.put(ObjDesc { var: 0, version: 1, bbox: BBox::d1(0, 0) }, pay(1));
        s.put(ObjDesc { var: 0, version: 1, bbox: BBox::d1(alias, alias) }, pay(1));
        let both = s.query(0, 1, &BBox::d1(0, alias));
        assert_eq!(
            both.iter().map(|p| p.bbox).collect::<Vec<_>>(),
            [BBox::d1(0, 0), BBox::d1(alias, alias)]
        );
        assert_eq!(s.query(0, 1, &BBox::d1(0, alias - 1)).len(), 1);
        assert_eq!(s.query(0, 1, &BBox::d1(1, alias)).len(), 1);
    }

    /// Cells probed and pieces walked by the scans `f` makes on this thread.
    fn scanned(f: impl FnOnce()) -> [usize; 2] {
        SCANNED.with(|n| n.set([0; 2]));
        f();
        SCANNED.with(|n| n.get())
    }

    fn block(x: u64, y: u64, z: u64) -> BBox {
        BBox::d3([x * 8, y * 8, z * 8], [x * 8 + 7, y * 8 + 7, z * 8 + 7])
    }

    /// Version 1 of var 0 tiled by a 4 × 4 × 4 grid of 8³ blocks — the
    /// shape `plan_put` produces.
    fn block_grid() -> VersionedStore {
        let mut s = VersionedStore::unbounded();
        for (x, y, z) in (0..64).map(|i| (i / 16, i / 4 % 4, i % 4)) {
            s.put(ObjDesc { var: 0, version: 1, bbox: block(x, y, z) }, pay(512));
        }
        s
    }

    #[test]
    fn probe_cost_is_counted_not_timed() {
        // A block query probes the one cell its block lives in, in both
        // halves of a get: `get_ready`'s coverage check and the query.
        let s = block_grid();
        let q = block(1, 2, 3);
        assert_eq!(scanned(|| assert!(s.covers_fully(0, 1, &q))), [1, 0]);
        assert_eq!(scanned(|| assert_eq!(s.query(0, 1, &q).len(), 1)), [1, 0]);

        // One piece straddling two cells of one axis widens that axis only.
        for a in 0..3 {
            let mut s = block_grid();
            let mut straddler = block(5, 5, 5);
            straddler.ub[a] += 4;
            s.put(ObjDesc { var: 0, version: 1, bbox: straddler }, pay(768));
            let mut past = block(5, 5, 5);
            (past.lb[a], past.ub[a]) = (past.lb[a] + 8, past.ub[a] + 8);
            let found = scanned(|| assert_eq!(s.query(0, 1, &past).len(), 1, "axis {a}"));
            assert_eq!(found, [2, 0], "axis {a}");
            assert_eq!(scanned(|| assert_eq!(s.query(0, 1, &q).len(), 1)), [2, 0], "axis {a}");
        }

        // A query as wide as the set walks the piece vector once.
        let all = BBox::d3([0; 3], [31; 3]);
        assert_eq!(scanned(|| assert_eq!(s.query(0, 1, &all).len(), 64)), [0, 64]);

        // So does one wide enough to alias: the piece sharing block (0, 0,
        // 0)'s chain is walked once, and a block query reads the chain.
        let mut s = block_grid();
        let alias = (CELL_MASK + 1) * 8;
        let far = BBox::d3([alias, 0, 0], [alias + 7, 7, 7]);
        s.put(ObjDesc { var: 0, version: 1, bbox: far }, pay(512));
        let row = BBox::d3([0; 3], [alias + 7, 7, 7]);
        assert_eq!(scanned(|| assert_eq!(s.query(0, 1, &row).len(), 5)), [0, 65]);
        assert_eq!(scanned(|| assert_eq!(s.query(0, 1, &block(0, 0, 0)).len(), 1)), [1, 0]);
    }

    /// `[pieces, next, cells]` capacities of `(var, version)`'s set.
    fn capacities(s: &VersionedStore, var: VarId, version: Version) -> [usize; 3] {
        let set = &s.data[&var][&version];
        [set.pieces.capacity(), set.next.capacity(), set.cells.capacity()]
    }

    /// What a set sized for `n` pieces reserves.
    fn sized_for(n: usize) -> [usize; 3] {
        let cells = CellMap::with_capacity_and_hasher(n, Default::default()).capacity();
        [
            Vec::<StoredObj>::with_capacity(n).capacity(),
            Vec::<u32>::with_capacity(n).capacity(),
            cells,
        ]
    }

    /// Put blocks `0..n` of [`block_grid`]'s grid into `(var, version)`,
    /// returning the set's capacities after each put.
    fn fill(s: &mut VersionedStore, var: VarId, version: Version, n: u64) -> Vec<[usize; 3]> {
        (0..n)
            .map(|i| {
                let bbox = block(i / 16, i / 4 % 4, i % 4);
                s.put(ObjDesc { var, version, bbox }, pay(512));
                capacities(s, var, version)
            })
            .collect()
    }

    #[test]
    fn a_new_version_is_sized_once_by_its_predecessor() {
        // Mutant caught: a new set sized at 0 (grown from empty) regrows
        // `pieces`, `next` and `cells` on its way to 64 pieces.
        let mut s = block_grid();
        let grown = fill(&mut s, 0, 2, 64);
        assert_eq!(grown[0], sized_for(64), "reserved at creation");
        assert!(grown.iter().all(|&c| c == grown[0]), "never regrown: {grown:?}");
        assert_eq!(s.query(0, 2, &BBox::d3([0; 3], [31; 3])).len(), 64);
    }

    #[test]
    fn a_first_version_grows_from_empty() {
        // Mutant caught: a hint read from another variable (or from the
        // store as a whole) sizes a variable's first version.
        let mut s = block_grid();
        let grown = fill(&mut s, 1, 1, 64);
        assert!(grown[0][0] < 64 && grown[0][2] < sized_for(64)[2], "{:?}", grown[0]);
        assert_eq!(grown[63][0], 64, "grown to hold every piece");
    }

    #[test]
    fn a_smaller_successor_reserves_no_more_than_its_predecessor_held() {
        // Mutant caught: a hint read from the oldest or the largest stored
        // version instead of the newest. Version 2 holds 8 pieces (in room
        // for 64, sized by version 1); version 3 is sized for those 8.
        let mut s = block_grid();
        fill(&mut s, 0, 2, 8);
        let grown = fill(&mut s, 0, 3, 8);
        assert_eq!(grown[0], sized_for(8));
        assert!(grown.iter().all(|&c| c == grown[0]), "{grown:?}");
    }
}
