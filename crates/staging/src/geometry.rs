//! Axis-aligned bounding boxes over an integer grid (up to 3 dimensions).
//!
//! DataSpaces descriptors address data by variable name, version, and an
//! N-dimensional rectangular region. Scientific coupling domains in the paper
//! are 3-D volumes (e.g. 512×512×256), so we fix the maximum dimensionality
//! at 3 and carry an explicit `ndim`; 1-D and 2-D regions simply leave the
//! upper coordinates at zero.
//!
//! Bounds are **inclusive** on both ends, matching the DataSpaces convention
//! (`lb`/`ub`).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum supported dimensionality.
pub const MAX_DIMS: usize = 3;

/// An axis-aligned box with inclusive integer bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BBox {
    /// Number of meaningful dimensions (1..=3).
    pub ndim: u8,
    /// Lower bounds (inclusive).
    pub lb: [u64; MAX_DIMS],
    /// Upper bounds (inclusive).
    pub ub: [u64; MAX_DIMS],
}

impl BBox {
    /// A 1-D box over `[lo, hi]`.
    pub fn d1(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "empty 1-D box");
        BBox { ndim: 1, lb: [lo, 0, 0], ub: [hi, 0, 0] }
    }

    /// A 2-D box.
    pub fn d2(lo: [u64; 2], hi: [u64; 2]) -> Self {
        assert!(lo[0] <= hi[0] && lo[1] <= hi[1], "empty 2-D box");
        BBox { ndim: 2, lb: [lo[0], lo[1], 0], ub: [hi[0], hi[1], 0] }
    }

    /// A 3-D box.
    pub fn d3(lo: [u64; 3], hi: [u64; 3]) -> Self {
        assert!(lo[0] <= hi[0] && lo[1] <= hi[1] && lo[2] <= hi[2], "empty 3-D box");
        BBox { ndim: 3, lb: lo, ub: hi }
    }

    /// The whole domain `[0, dims-1]` in each axis, for a volume given by its
    /// extents (e.g. `[512, 512, 256]`).
    pub fn whole(dims: [u64; 3]) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "zero-extent domain");
        BBox::d3([0, 0, 0], [dims[0] - 1, dims[1] - 1, dims[2] - 1])
    }

    /// Number of grid points contained (product of extents).
    pub fn volume(&self) -> u64 {
        let mut v: u64 = 1;
        for d in 0..self.ndim as usize {
            v = v.saturating_mul(self.ub[d] - self.lb[d] + 1);
        }
        v
    }

    /// Extent along axis `d` (1 for axes beyond `ndim`).
    pub fn extent(&self, d: usize) -> u64 {
        if d < self.ndim as usize {
            self.ub[d] - self.lb[d] + 1
        } else {
            1
        }
    }

    /// Intersection, or `None` if disjoint. Both boxes must have equal `ndim`.
    pub fn intersect(&self, other: &BBox) -> Option<BBox> {
        assert_eq!(self.ndim, other.ndim, "dimension mismatch");
        let mut lb = [0u64; MAX_DIMS];
        let mut ub = [0u64; MAX_DIMS];
        for d in 0..self.ndim as usize {
            let lo = self.lb[d].max(other.lb[d]);
            let hi = self.ub[d].min(other.ub[d]);
            if lo > hi {
                return None;
            }
            lb[d] = lo;
            ub[d] = hi;
        }
        Some(BBox { ndim: self.ndim, lb, ub })
    }

    /// True if the boxes share at least one grid point.
    pub fn intersects(&self, other: &BBox) -> bool {
        self.intersect(other).is_some()
    }

    /// True if `other` lies entirely within `self`.
    pub fn contains(&self, other: &BBox) -> bool {
        assert_eq!(self.ndim, other.ndim, "dimension mismatch");
        (0..self.ndim as usize).all(|d| self.lb[d] <= other.lb[d] && other.ub[d] <= self.ub[d])
    }
}

impl fmt::Display for BBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for d in 0..self.ndim as usize {
            if d > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}..{}", self.lb[d], self.ub[d])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_extent() {
        let b = BBox::d3([0, 0, 0], [511, 511, 255]);
        assert_eq!(b.volume(), 512 * 512 * 256);
        assert_eq!(b.extent(0), 512);
        assert_eq!(b.extent(2), 256);
        assert_eq!(BBox::d1(5, 5).volume(), 1);
    }

    #[test]
    fn whole_domain() {
        let b = BBox::whole([10, 20, 30]);
        assert_eq!(b.lb, [0, 0, 0]);
        assert_eq!(b.ub, [9, 19, 29]);
        assert_eq!(b.volume(), 6000);
    }

    #[test]
    fn intersection_basic() {
        let a = BBox::d2([0, 0], [9, 9]);
        let b = BBox::d2([5, 5], [14, 14]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, BBox::d2([5, 5], [9, 9]));
        assert!(a.intersects(&b));
    }

    #[test]
    fn disjoint_boxes() {
        let a = BBox::d1(0, 4);
        let b = BBox::d1(5, 9);
        assert!(a.intersect(&b).is_none());
        assert!(!a.intersects(&b));
    }

    #[test]
    fn touching_is_intersecting() {
        // Inclusive bounds: [0,5] and [5,9] share point 5.
        let a = BBox::d1(0, 5);
        let b = BBox::d1(5, 9);
        assert_eq!(a.intersect(&b).unwrap(), BBox::d1(5, 5));
    }

    #[test]
    fn contains_is_reflexive_and_one_way() {
        let a = BBox::d3([0, 0, 0], [9, 9, 9]);
        let b = BBox::d3([1, 1, 1], [8, 8, 8]);
        assert!(a.contains(&b));
        assert!(!b.contains(&a));
        assert!(a.contains(&a));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mixed_ndim_panics() {
        let _ = BBox::d1(0, 1).intersect(&BBox::d2([0, 0], [1, 1]));
    }

    #[test]
    #[should_panic(expected = "empty 1-D box")]
    fn inverted_bounds_panic() {
        let _ = BBox::d1(3, 2);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_bbox() -> impl Strategy<Value = BBox> {
        (0u64..100, 0u64..100, 0u64..100, 1u64..40, 1u64..40, 1u64..40).prop_map(
            |(x, y, z, dx, dy, dz)| BBox::d3([x, y, z], [x + dx - 1, y + dy - 1, z + dz - 1]),
        )
    }

    proptest! {
        #[test]
        fn intersection_commutative(a in arb_bbox(), b in arb_bbox()) {
            prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        }

        #[test]
        fn intersection_contained_in_both(a in arb_bbox(), b in arb_bbox()) {
            if let Some(i) = a.intersect(&b) {
                prop_assert!(a.contains(&i));
                prop_assert!(b.contains(&i));
                prop_assert!(i.volume() <= a.volume().min(b.volume()));
            }
        }

        #[test]
        fn intersection_idempotent(a in arb_bbox()) {
            prop_assert_eq!(a.intersect(&a), Some(a));
        }

        #[test]
        fn contains_transitive(a in arb_bbox(), b in arb_bbox(), c in arb_bbox()) {
            if a.contains(&b) && b.contains(&c) {
                prop_assert!(a.contains(&c));
            }
        }
    }
}
