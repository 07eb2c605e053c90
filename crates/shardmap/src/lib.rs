#![forbid(unsafe_code)]

//! Deterministic, versioned partition maps for the sharded staging fleet.
//!
//! A [`ShardMap`] is a pure function from a block key (the Morton
//! code of a staging block) to the shard that owns it. It is explicitly
//! serializable — the map is configuration, not emergent state — and every
//! mutation produces a *new* map with a bumped [`ShardMap::version`], so two
//! processes holding the same version route identically by construction.
//!
//! Two assignment modes cover the fleet's needs:
//!
//! * [`AssignMode::Range`] — contiguous SFC-code ranges, reproducing the
//!   staging tier's classic `rank * nservers / nblocks` partition exactly
//!   (spatial locality preserved: adjacent blocks usually share a shard);
//! * [`AssignMode::Hashed`] — rendezvous (highest-random-weight) hashing,
//!   trading locality for placement that stays stable when shards are
//!   added: moving from N to N+1 shards relocates only ~1/(N+1) of keys.
//!
//! Either mode is refined by an explicit **override table** consulted
//! first: [`ShardMap::migrate`] records per-key exceptions, which is how
//! live rebalancing moves a block range to a new owner without recomputing
//! (or redistributing) the base assignment.
//!
//! Routing must also be correct *across time*: once a block's pieces for
//! data version `v` have been journaled on shard `s`, gets and replays of
//! version `v` must keep going to `s` even after the block migrates. A
//! [`MapHistory`] holds the map epochs keyed by the first data version each
//! governs, and [`MapHistory::owner_at`] routes by `(key, version)` — the
//! rebalance cutover is then just a new epoch, with no data copied and no
//! consistency window.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A shard index (a staging server in the fleet).
pub type ShardIdx = usize;

/// How a map assigns keys that have no override entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AssignMode {
    /// Contiguous key ranges: `boundaries[i]` is the smallest key owned by
    /// shard `i + 1`; keys below `boundaries[0]` belong to shard 0. Sorted,
    /// `nshards - 1` entries (an empty tail shard is encoded by
    /// `u64::MAX`).
    Range {
        /// Ascending lower bounds of shards `1..nshards`.
        boundaries: Vec<u64>,
    },
    /// Rendezvous (highest-random-weight) hashing seeded by `seed`: the
    /// owner of `key` is the shard maximizing `mix(seed, key, shard)`.
    Hashed {
        /// Hash seed; maps with different seeds are different placements.
        seed: u64,
    },
}

/// SplitMix64 finalizer: the deterministic mixing function behind
/// [`AssignMode::Hashed`]. Public so tests and tooling can predict
/// placements.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A versioned, serializable partition map over block keys.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    /// Monotonic map version; bumped by every [`ShardMap::migrate`].
    version: u64,
    /// Number of shards keys are partitioned across.
    nshards: usize,
    /// Base assignment for keys without an override.
    mode: AssignMode,
    /// Explicit exceptions, consulted before `mode`. BTreeMap: iteration
    /// order is part of the serialized form and must be stable.
    overrides: BTreeMap<u64, ShardIdx>,
}

impl ShardMap {
    /// A range map over the sorted key universe `codes`, reproducing the
    /// `rank * nshards / codes.len()` partition: the key of rank `r` is
    /// owned by shard `r * nshards / codes.len()`.
    ///
    /// # Panics
    /// If `nshards` is zero or `codes` is not strictly ascending.
    pub fn range_over(codes: &[u64], nshards: usize) -> ShardMap {
        assert!(nshards > 0, "need at least one shard");
        assert!(codes.windows(2).all(|w| w[0] < w[1]), "codes must be strictly ascending");
        let n = codes.len();
        let boundaries = (1..nshards)
            .map(|s| {
                // First rank owned by shard s: smallest r with r*nshards/n >= s.
                let first = (s * n).div_ceil(nshards);
                codes.get(first).copied().unwrap_or(u64::MAX)
            })
            .collect();
        ShardMap {
            version: 1,
            nshards,
            mode: AssignMode::Range { boundaries },
            overrides: BTreeMap::new(),
        }
    }

    /// A rendezvous-hashed map: placement is a pure function of
    /// `(seed, key, shard)`, needs no key universe, and stays mostly stable
    /// as `nshards` grows.
    ///
    /// # Panics
    /// If `nshards` is zero.
    pub fn hashed(nshards: usize, seed: u64) -> ShardMap {
        assert!(nshards > 0, "need at least one shard");
        ShardMap {
            version: 1,
            nshards,
            mode: AssignMode::Hashed { seed },
            overrides: BTreeMap::new(),
        }
    }

    /// The map version (bumped on every migration).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.nshards
    }

    /// The shard owning `key`: the override table first, then the base
    /// assignment. Always in `0..nshards`.
    pub fn owner_of(&self, key: u64) -> ShardIdx {
        if let Some(&s) = self.overrides.get(&key) {
            return s;
        }
        match &self.mode {
            AssignMode::Range { boundaries } => boundaries.partition_point(|&b| b <= key),
            AssignMode::Hashed { seed } => {
                let mut best = 0;
                let mut best_w = 0u64;
                for s in 0..self.nshards {
                    let w =
                        mix64(seed ^ mix64(key) ^ (s as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                    if s == 0 || w > best_w {
                        best = s;
                        best_w = w;
                    }
                }
                best
            }
        }
    }

    /// A new map (version + 1) with `keys` reassigned to shard `to` via the
    /// override table. Overrides that become redundant are still recorded —
    /// the table is an explicit audit trail of migrations.
    ///
    /// # Panics
    /// If `to` is out of range.
    pub fn migrate(&self, keys: &[u64], to: ShardIdx) -> ShardMap {
        assert!(to < self.nshards, "destination shard {to} out of range ({})", self.nshards);
        let mut next = self.clone();
        next.version += 1;
        for &k in keys {
            next.overrides.insert(k, to);
        }
        next
    }

    /// Serialize to a canonical JSON document (stable field and override
    /// order — byte-identical for equal maps).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("shard map serializes")
    }

    /// Parse a map serialized by [`ShardMap::to_json`].
    pub fn from_json(doc: &str) -> Result<ShardMap, String> {
        let map: ShardMap = serde_json::from_str(doc).map_err(|e| e.to_string())?;
        if map.nshards == 0 {
            return Err("shard map with zero shards".into());
        }
        for (&k, &s) in &map.overrides {
            if s >= map.nshards {
                return Err(format!("override {k} -> {s} out of range ({})", map.nshards));
            }
        }
        Ok(map)
    }
}

/// One epoch of a [`MapHistory`]: `map` governs all data versions at or
/// above `from_version` (until the next epoch starts).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Epoch {
    /// First data version routed by this epoch's map.
    pub from_version: u64,
    /// The partition map in force.
    pub map: ShardMap,
}

/// The full routing history: map epochs keyed by the data version at which
/// each took effect. Routing a `(key, version)` pair through the epoch that
/// governed `version` keeps historical reads and journal replay pointed at
/// the shard that actually holds the data, across any number of
/// rebalances.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MapHistory {
    epochs: Vec<Epoch>,
}

impl MapHistory {
    /// A history with a single epoch governing every version.
    pub fn single(map: ShardMap) -> MapHistory {
        MapHistory { epochs: vec![Epoch { from_version: 0, map }] }
    }

    /// Append an epoch taking effect at data version `from_version`.
    ///
    /// # Panics
    /// If `from_version` does not increase, the map version does not
    /// increase, or the shard count changes (growing the fleet is a new
    /// history, not an epoch).
    pub fn with_epoch(mut self, from_version: u64, map: ShardMap) -> MapHistory {
        let last = self.epochs.last().expect("history always has an epoch");
        assert!(from_version > last.from_version, "epochs must start at increasing versions");
        assert!(map.version() > last.map.version(), "map version must increase across epochs");
        assert_eq!(map.nshards(), last.map.nshards(), "epochs must keep the shard count");
        self.epochs.push(Epoch { from_version, map });
        MapHistory { epochs: self.epochs }
    }

    /// The map governing data version `version`.
    pub fn map_at(&self, version: u64) -> &ShardMap {
        let idx = self.epochs.partition_point(|e| e.from_version <= version);
        &self.epochs[idx.saturating_sub(1)].map
    }

    /// The newest map (routes writes of new versions).
    pub fn current(&self) -> &ShardMap {
        &self.epochs.last().expect("history always has an epoch").map
    }

    /// The shard owning `key` for data version `version`.
    pub fn owner_at(&self, key: u64, version: u64) -> ShardIdx {
        self.map_at(version).owner_of(key)
    }

    /// Number of shards (constant across epochs).
    pub fn nshards(&self) -> usize {
        self.current().nshards()
    }

    /// Number of rebalance transitions recorded (epochs beyond the first).
    pub fn rebalances(&self) -> u64 {
        (self.epochs.len() - 1) as u64
    }

    /// The epochs, oldest first.
    pub fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(n: u64) -> Vec<u64> {
        (0..n).map(|i| i * 3 + 1).collect()
    }

    #[test]
    fn range_map_reproduces_rank_partition() {
        let cs = codes(64);
        for nshards in [1usize, 2, 3, 5, 8] {
            let map = ShardMap::range_over(&cs, nshards);
            for (rank, &c) in cs.iter().enumerate() {
                assert_eq!(
                    map.owner_of(c),
                    rank * nshards / cs.len(),
                    "rank {rank} of {} over {nshards}",
                    cs.len()
                );
            }
        }
    }

    #[test]
    fn range_map_with_more_shards_than_keys() {
        let cs = codes(3);
        let map = ShardMap::range_over(&cs, 8);
        for &c in &cs {
            assert!(map.owner_of(c) < 8);
        }
        // All three keys placed, each on its own shard.
        let owners: Vec<_> = cs.iter().map(|&c| map.owner_of(c)).collect();
        assert_eq!(owners.len(), 3);
        assert!(owners.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn hashed_owner_total_and_stable() {
        let map = ShardMap::hashed(5, 42);
        for key in 0..1000u64 {
            let o = map.owner_of(key);
            assert!(o < 5);
            assert_eq!(o, map.owner_of(key), "pure function of the key");
        }
        // All shards get some keys (rendezvous balance over 1000 keys).
        let mut counts = [0usize; 5];
        for key in 0..1000u64 {
            counts[map.owner_of(key)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 100, "shard {s} starved: {counts:?}");
        }
    }

    #[test]
    fn rendezvous_is_mostly_stable_under_growth() {
        let small = ShardMap::hashed(4, 7);
        let large = ShardMap::hashed(5, 7);
        let moved = (0..2000u64).filter(|&k| small.owner_of(k) != large.owner_of(k)).count();
        // Ideal churn is 1/5 = 400 keys; allow a wide band.
        assert!(moved < 700, "expected ~1/5 of keys to move, got {moved}/2000");
    }

    #[test]
    fn migrate_overrides_and_bumps_version() {
        let base = ShardMap::range_over(&codes(16), 4);
        let from = base.owner_of(1);
        let to = (from + 1) % 4;
        let next = base.migrate(&[1], to);
        assert_eq!(next.version(), base.version() + 1);
        assert_eq!(next.owner_of(1), to);
        assert_eq!(base.owner_of(1), from, "the source map is unchanged");
        // Unmigrated keys keep their owner.
        for &c in &codes(16)[1..] {
            assert_eq!(next.owner_of(c), base.owner_of(c));
        }
    }

    #[test]
    fn json_round_trip_is_byte_stable() {
        let map = ShardMap::range_over(&codes(16), 4).migrate(&[4, 7], 2);
        let doc = map.to_json();
        let back = ShardMap::from_json(&doc).unwrap();
        assert_eq!(back, map);
        assert_eq!(back.to_json(), doc, "canonical form survives the round trip");
    }

    #[test]
    fn from_json_rejects_bad_overrides() {
        let map = ShardMap::hashed(2, 1).migrate(&[9], 1);
        let doc = map.to_json().replace("\"9\":1", "\"9\":5");
        assert!(ShardMap::from_json(&doc).unwrap_err().contains("out of range"));
    }

    #[test]
    fn history_routes_by_version() {
        let cs = codes(8);
        let base = ShardMap::range_over(&cs, 4);
        let key = cs[0];
        let from = base.owner_of(key);
        let to = (from + 2) % 4;
        let hist = MapHistory::single(base.clone()).with_epoch(6, base.migrate(&[key], to));
        for v in 0..6u64 {
            assert_eq!(hist.owner_at(key, v), from, "pre-cutover version {v}");
        }
        for v in 6..12u64 {
            assert_eq!(hist.owner_at(key, v), to, "post-cutover version {v}");
        }
        assert_eq!(hist.rebalances(), 1);
        assert_eq!(hist.current().version(), 2);
    }

    #[test]
    fn history_untouched_keys_route_identically_across_epochs() {
        let cs = codes(8);
        let base = ShardMap::range_over(&cs, 4);
        let hist = MapHistory::single(base.clone()).with_epoch(6, base.migrate(&[cs[0]], 3));
        for &c in &cs[1..] {
            assert_eq!(hist.owner_at(c, 0), hist.owner_at(c, 100));
        }
    }

    #[test]
    #[should_panic(expected = "increasing versions")]
    fn history_rejects_non_monotonic_epochs() {
        let base = ShardMap::hashed(2, 0);
        let later = ShardMap::hashed(2, 0).migrate(&[1], 1).migrate(&[2], 1);
        let _ = MapHistory::single(base.clone())
            .with_epoch(5, base.migrate(&[1], 1))
            .with_epoch(5, later);
    }

    #[test]
    fn mix64_spreads() {
        // Adjacent inputs land far apart (sanity, not a statistical test).
        assert_ne!(mix64(0), mix64(1));
        assert_ne!(mix64(1) & 0xFFFF, mix64(2) & 0xFFFF);
    }
}
