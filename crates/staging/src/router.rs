//! Shard-aware request routing: [`Distribution`] geometry composed with an
//! explicit, versioned partition map.
//!
//! The [`Distribution`] answers *what* blocks a region touches; the
//! [`Router`] answers *which shard serves each block for a given data
//! version*: every block's Morton/Hilbert code is looked up in a
//! [`shardmap::MapHistory`] keyed by the data version, so historical reads
//! and journal replay keep landing on the shard that holds the data even
//! after a live rebalance moved the block's *current* owner. An unsharded
//! fleet is the one-epoch range map over the distribution's codes — the
//! classic SFC range partition, as [`Distribution::server_of_block`]
//! computes it.

use crate::dist::{Distribution, ServerIdx};
use crate::geometry::{BBox, MAX_DIMS};
use crate::proto::Version;
use shardmap::{MapHistory, ShardMap};

/// Deterministic block → shard routing for a staging fleet.
#[derive(Debug, Clone)]
pub struct Router {
    dist: Distribution,
    /// Partition-map epochs.
    history: MapHistory,
}

impl Router {
    /// Route by the distribution's range partition: a single epoch whose
    /// map reproduces [`Distribution::server_of_block`].
    pub fn unsharded(dist: Distribution) -> Router {
        let map = ShardMap::range_over(dist.codes(), dist.nservers);
        Router { dist, history: MapHistory::single(map) }
    }

    /// Route through an explicit partition-map history.
    ///
    /// # Panics
    /// If the map's shard count differs from the distribution's server
    /// count — the map partitions exactly the fleet it routes to.
    pub fn sharded(dist: Distribution, history: MapHistory) -> Router {
        assert_eq!(
            history.nshards(),
            dist.nservers,
            "partition map shard count must match the fleet size"
        );
        Router { dist, history }
    }

    /// The wrapped domain decomposition.
    pub fn dist(&self) -> &Distribution {
        &self.dist
    }

    /// The partition-map history. Always `Some` — every router holds one;
    /// the `Option` (like the `_routed` suffix of the planners in
    /// [`crate::server`]) dates from when unsharded routing bypassed the
    /// map, and stays because `hostbench/` compiles against this signature.
    pub fn history(&self) -> Option<&MapHistory> {
        Some(&self.history)
    }

    /// Fleet size.
    pub fn nservers(&self) -> usize {
        self.dist.nservers
    }

    /// The shard serving block `coord` for data version `version`.
    pub fn owner_of_block(&self, coord: [u64; MAX_DIMS], version: Version) -> ServerIdx {
        self.history.owner_at(self.dist.block_code(coord), u64::from(version))
    }

    /// Enumerate `(block_coord, clipped_bbox, shard)` for every block of
    /// `bbox`, routed for data version `version`. Deterministic block order
    /// (grid-major, as [`Distribution::blocks_with`]) — the client's fan-out
    /// and merge order is a pure function of the query.
    pub fn blocks_overlapping(
        &self,
        bbox: &BBox,
        version: Version,
    ) -> Vec<([u64; MAX_DIMS], BBox, ServerIdx)> {
        let map = self.history.map_at(u64::from(version));
        self.dist.blocks_with(bbox, |coord| map.owner_of(self.dist.block_code(coord)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> Distribution {
        Distribution::new(BBox::whole([64, 64, 64]), [16, 16, 16], 4)
    }

    #[test]
    fn unsharded_matches_distribution() {
        let d = dist();
        let r = Router::unsharded(d.clone());
        let q = BBox::whole([64, 64, 64]);
        let a = d.blocks_overlapping(&q);
        let b = r.blocks_overlapping(&q, 3);
        assert_eq!(a, b);
        assert_eq!(r.owner_of_block([1, 2, 3], 9), d.server_of_block([1, 2, 3]));
    }

    #[test]
    fn range_map_reproduces_distribution_routing() {
        let d = dist();
        let map = ShardMap::range_over(d.codes(), d.nservers);
        let r = Router::sharded(d.clone(), MapHistory::single(map));
        let counts = d.counts();
        for bz in 0..counts[2] {
            for by in 0..counts[1] {
                for bx in 0..counts[0] {
                    let c = [bx, by, bz];
                    assert_eq!(r.owner_of_block(c, 1), d.server_of_block(c), "block {c:?}");
                }
            }
        }
    }

    #[test]
    fn rebalance_epoch_routes_by_version() {
        let d = dist();
        let base = ShardMap::range_over(d.codes(), d.nservers);
        let coord = [0, 0, 0];
        let key = d.block_code(coord);
        let from = base.owner_of(key);
        let to = (from + 1) % d.nservers;
        let hist = MapHistory::single(base.clone()).with_epoch(5, base.migrate(&[key], to));
        let r = Router::sharded(d, hist);
        assert_eq!(r.owner_of_block(coord, 4), from);
        assert_eq!(r.owner_of_block(coord, 5), to);
        // Other blocks are untouched in both epochs.
        assert_eq!(r.owner_of_block([3, 3, 3], 4), r.owner_of_block([3, 3, 3], 5));
    }

    #[test]
    #[should_panic(expected = "match the fleet size")]
    fn shard_count_mismatch_rejected() {
        let d = dist();
        let _ = Router::sharded(d, MapHistory::single(ShardMap::hashed(3, 0)));
    }
}
