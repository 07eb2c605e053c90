//! Domain distribution: global domain → fixed-size blocks → server ownership.
//!
//! The global domain is decomposed into a regular grid of blocks. Each block's
//! coordinate is Morton-encoded ([`crate::sfc`]) and the sorted sequence of
//! codes is range-partitioned across the staging servers, mirroring
//! DataSpaces' space-filling-curve distribution: every server owns a
//! contiguous SFC segment, so spatially adjacent blocks usually share a
//! server.

use crate::geometry::{BBox, MAX_DIMS};
use crate::sfc::morton3;

/// Staging server index.
pub type ServerIdx = usize;

/// Immutable description of how the domain is partitioned.
#[derive(Debug, Clone)]
pub struct Distribution {
    /// The global domain.
    pub domain: BBox,
    /// Block extent per axis (axes beyond `domain.ndim` must be 1).
    pub block: [u64; MAX_DIMS],
    /// Number of staging servers.
    pub nservers: usize,
    /// Sorted SFC codes of every block in the grid.
    codes: Vec<u64>,
}

impl Distribution {
    /// Build a Morton-distributed decomposition. `block` extents are clamped
    /// to the domain.
    #[allow(clippy::needless_range_loop)] // indexes two arrays by dimension
    pub fn new(domain: BBox, mut block: [u64; MAX_DIMS], nservers: usize) -> Self {
        assert!(nservers > 0, "need at least one server");
        for d in 0..MAX_DIMS {
            if d < domain.ndim as usize {
                assert!(block[d] > 0, "zero block extent");
                block[d] = block[d].min(domain.extent(d));
            } else {
                block[d] = 1;
            }
        }
        let counts = Self::grid_counts(&domain, &block);
        let mut codes = Vec::with_capacity((counts[0] * counts[1] * counts[2]) as usize);
        for bz in 0..counts[2] {
            for by in 0..counts[1] {
                for bx in 0..counts[0] {
                    codes.push(morton3(bx, by, bz));
                }
            }
        }
        codes.sort_unstable();
        Distribution { domain, block, nservers, codes }
    }

    fn grid_counts(domain: &BBox, block: &[u64; MAX_DIMS]) -> [u64; MAX_DIMS] {
        let mut c = [1u64; MAX_DIMS];
        for d in 0..domain.ndim as usize {
            c[d] = domain.extent(d).div_ceil(block[d]);
        }
        c
    }

    /// Number of blocks in the grid.
    pub fn nblocks(&self) -> usize {
        self.codes.len()
    }

    /// Blocks per axis.
    pub fn counts(&self) -> [u64; MAX_DIMS] {
        Self::grid_counts(&self.domain, &self.block)
    }

    /// The block coordinate containing a grid point.
    fn block_of_point(&self, p: [u64; MAX_DIMS]) -> [u64; MAX_DIMS] {
        let mut b = [0u64; MAX_DIMS];
        for d in 0..self.domain.ndim as usize {
            debug_assert!(p[d] >= self.domain.lb[d]);
            b[d] = (p[d] - self.domain.lb[d]) / self.block[d];
        }
        b
    }

    /// The region covered by block `coord`, clipped to the domain.
    pub fn block_bbox(&self, coord: [u64; MAX_DIMS]) -> BBox {
        let mut lb = [0u64; MAX_DIMS];
        let mut ub = [0u64; MAX_DIMS];
        for d in 0..self.domain.ndim as usize {
            lb[d] = self.domain.lb[d] + coord[d] * self.block[d];
            ub[d] = (lb[d] + self.block[d] - 1).min(self.domain.ub[d]);
        }
        BBox { ndim: self.domain.ndim, lb, ub }
    }

    /// The SFC code of block `coord` — the block's key in partition maps
    /// (`shardmap`) and spatial indexes.
    pub fn block_code(&self, coord: [u64; MAX_DIMS]) -> u64 {
        morton3(coord[0], coord[1], coord[2])
    }

    /// The sorted SFC codes of every block in the grid (the key universe a
    /// range partition map is built over).
    pub fn codes(&self) -> &[u64] {
        &self.codes
    }

    /// Server owning block `coord`, by rank of its SFC code.
    pub fn server_of_block(&self, coord: [u64; MAX_DIMS]) -> ServerIdx {
        let code = self.block_code(coord);
        let rank = self.codes.binary_search(&code).expect("block coordinate outside the grid");
        rank * self.nservers / self.codes.len()
    }

    /// Enumerate `(block_coord, clipped_bbox, owner_of(block_coord))` for every
    /// block that intersects `bbox`, grid-major. The clipped bbox is the
    /// intersection of the block with both the domain and `bbox`.
    pub fn blocks_with(
        &self,
        bbox: &BBox,
        owner_of: impl Fn([u64; MAX_DIMS]) -> ServerIdx,
    ) -> Vec<([u64; MAX_DIMS], BBox, ServerIdx)> {
        let q = bbox.intersect(&self.domain).expect("query bbox outside the domain");
        let lo = self.block_of_point(q.lb);
        let hi = self.block_of_point(q.ub);
        let n: u64 = (0..MAX_DIMS).map(|d| hi[d] - lo[d] + 1).product();
        let mut out = Vec::with_capacity(n as usize);
        for bz in lo[2]..=hi[2] {
            for by in lo[1]..=hi[1] {
                for bx in lo[0]..=hi[0] {
                    let coord = [bx, by, bz];
                    let clipped = self.block_bbox(coord).intersect(&q).expect("grid arithmetic");
                    out.push((coord, clipped, owner_of(coord)));
                }
            }
        }
        out
    }

    /// [`Self::blocks_with`] the built-in range partition as owner:
    /// `(block_coord, clipped_bbox, server)`.
    pub fn blocks_overlapping(&self, bbox: &BBox) -> Vec<([u64; MAX_DIMS], BBox, ServerIdx)> {
        self.blocks_with(bbox, |coord| self.server_of_block(coord))
    }

    /// All blocks owned by `server` (inspection / rebalance tooling).
    pub fn blocks_of_server(&self, server: ServerIdx) -> Vec<u64> {
        let n = self.codes.len();
        self.codes
            .iter()
            .enumerate()
            .filter(|(rank, _)| rank * self.nservers / n == server)
            .map(|(_, &c)| c)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d3(dims: [u64; 3]) -> BBox {
        BBox::whole(dims)
    }

    #[test]
    fn grid_counts_round_up() {
        let dist = Distribution::new(d3([100, 100, 10]), [32, 32, 32], 4);
        assert_eq!(dist.counts(), [4, 4, 1]);
        assert_eq!(dist.nblocks(), 16);
    }

    #[test]
    fn block_bbox_clipped_at_edges() {
        let dist = Distribution::new(d3([100, 1, 1]), [32, 1, 1], 2);
        assert_eq!(dist.block_bbox([3, 0, 0]).ub[0], 99);
        assert_eq!(dist.block_bbox([0, 0, 0]), BBox::d3([0, 0, 0], [31, 0, 0]));
    }

    #[test]
    fn every_block_has_exactly_one_server() {
        let dist = Distribution::new(d3([64, 64, 64]), [16, 16, 16], 5);
        let mut per_server = vec![0usize; 5];
        let counts = dist.counts();
        for bz in 0..counts[2] {
            for by in 0..counts[1] {
                for bx in 0..counts[0] {
                    per_server[dist.server_of_block([bx, by, bz])] += 1;
                }
            }
        }
        assert_eq!(per_server.iter().sum::<usize>(), dist.nblocks());
        // Range partition of 64 blocks over 5 servers: sizes 12..=13.
        for &c in &per_server {
            assert!((12..=13).contains(&c), "imbalanced: {per_server:?}");
        }
    }

    #[test]
    fn overlap_enumeration_covers_query() {
        let dist = Distribution::new(d3([100, 80, 60]), [32, 32, 32], 3);
        let q = BBox::d3([10, 10, 10], [70, 50, 40]);
        let blocks = dist.blocks_overlapping(&q);
        let vol: u64 = blocks.iter().map(|(_, b, _)| b.volume()).sum();
        assert_eq!(vol, q.volume(), "clipped blocks must tile the query");
        // All pieces inside the query.
        for (_, b, _) in &blocks {
            assert!(q.contains(b));
        }
    }

    #[test]
    fn single_point_query() {
        let dist = Distribution::new(d3([100, 100, 100]), [10, 10, 10], 7);
        let q = BBox::d3([55, 55, 55], [55, 55, 55]);
        let blocks = dist.blocks_overlapping(&q);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].0, [5, 5, 5]);
        assert_eq!(blocks[0].1, q);
    }

    #[test]
    fn sfc_locality_neighbours_often_colocated() {
        // With 512 blocks over 8 servers, the SFC should keep most
        // face-neighbours on the same server (locality property).
        let dist = Distribution::new(d3([128, 128, 128]), [16, 16, 16], 8);
        let mut same = 0;
        let mut total = 0;
        for bz in 0..8u64 {
            for by in 0..8u64 {
                for bx in 0..7u64 {
                    total += 1;
                    if dist.server_of_block([bx, by, bz]) == dist.server_of_block([bx + 1, by, bz])
                    {
                        same += 1;
                    }
                }
            }
        }
        assert!(same * 2 > total, "expected >50% x-neighbours colocated, got {same}/{total}");
    }

    #[test]
    fn blocks_of_server_partition() {
        let dist = Distribution::new(d3([64, 64, 1]), [16, 16, 1], 3);
        let all: usize = (0..3).map(|s| dist.blocks_of_server(s).len()).sum();
        assert_eq!(all, dist.nblocks());
    }

    #[test]
    fn oversized_block_clamped() {
        let dist = Distribution::new(d3([10, 10, 10]), [100, 100, 100], 2);
        assert_eq!(dist.nblocks(), 1);
        assert_eq!(dist.block_bbox([0, 0, 0]), d3([10, 10, 10]));
    }

    #[test]
    #[should_panic(expected = "outside the domain")]
    fn query_outside_domain_panics() {
        let dist = Distribution::new(d3([10, 10, 10]), [5, 5, 5], 2);
        let _ = dist.blocks_overlapping(&BBox::d3([20, 20, 20], [30, 30, 30]));
    }
}
