//! The seeded request generator. Everything a workload feeds the program —
//! payload bytes, which component rolls back when, the simulator's seeds —
//! is a pure function of `--seed` and is generated before timing starts; the
//! program under test only ever sees the generated requests.

use crate::spec::Shape;
use bytes::Bytes;
use shardmap::mix64;
use sim_core::rng::{SplitMix64, Xoshiro256StarStar};
use staging::geometry::BBox;
use staging::payload::Payload;
use staging::proto::{GetPiece, Version};
use wfcr::backend::pieces_digest;

/// Pre-generated payloads: `pool_versions` versions of every block of the
/// domain. Version `v` uses slot `v % pool_versions`, so a re-put after a
/// rollback is bit-identical to the original and costs one refcount bump.
pub struct Pool {
    block: u64,
    per_side: u64,
    slots: Vec<Vec<Payload>>,
    /// `pieces_digest` of a whole-domain get of each slot.
    expected: Vec<u64>,
}

impl Pool {
    pub fn generate(seed: u64, shape: &Shape) -> Pool {
        let per_side = shape.domain / shape.block;
        let nblocks = (per_side * per_side * per_side) as usize;
        let block_bytes = (shape.block.pow(3) * shape.bytes_per_point) as usize;
        let mut slots = Vec::with_capacity(shape.pool_versions as usize);
        let mut expected = Vec::with_capacity(shape.pool_versions as usize);
        for slot in 0..u64::from(shape.pool_versions) {
            let mut payloads = Vec::with_capacity(nblocks);
            let mut pieces = Vec::with_capacity(nblocks);
            for b in 0..nblocks as u64 {
                let mut rng = SplitMix64::new(mix64(seed ^ mix64(slot << 32 | b)));
                let mut data = Vec::with_capacity(block_bytes);
                while data.len() < block_bytes {
                    data.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                data.truncate(block_bytes);
                let payload = Payload::inline(Bytes::from(data));
                pieces.push(GetPiece {
                    bbox: block_bbox(b, per_side, shape.block),
                    version: 0,
                    payload: payload.clone(),
                });
                payloads.push(payload);
            }
            expected.push(pieces_digest(&pieces));
            slots.push(payloads);
        }
        Pool { block: shape.block, per_side, slots, expected }
    }

    fn slot(&self, version: Version) -> usize {
        version as usize % self.slots.len()
    }

    /// The `fill` closure `SyncClient::put` wants for `version`.
    pub fn fill(&self, version: Version) -> impl FnMut(&BBox) -> Payload + '_ {
        let payloads = &self.slots[self.slot(version)];
        move |b: &BBox| {
            let c = [b.lb[0] / self.block, b.lb[1] / self.block, b.lb[2] / self.block];
            payloads[(c[0] + self.per_side * (c[1] + self.per_side * c[2])) as usize].clone()
        }
    }

    /// Digest a whole-domain get of `version` must have.
    pub fn expected_digest(&self, version: Version) -> u64 {
        self.expected[self.slot(version)]
    }

    /// Payload bytes one step puts.
    pub fn bytes_per_step(&self) -> u64 {
        self.slots[0].iter().map(Payload::len).sum()
    }

    /// Block-puts one step issues.
    pub fn blocks_per_step(&self) -> usize {
        self.slots[0].len()
    }

    /// Every payload of one slot (the probes push these through one layer).
    pub fn slot_payloads(&self, slot: usize) -> &[Payload] {
        &self.slots[slot % self.slots.len()]
    }
}

fn block_bbox(index: u64, per_side: u64, block: u64) -> BBox {
    let c = [index % per_side, (index / per_side) % per_side, index / (per_side * per_side)];
    BBox::d3(
        [c[0] * block, c[1] * block, c[2] * block],
        [(c[0] + 1) * block - 1, (c[1] + 1) * block - 1, (c[2] + 1) * block - 1],
    )
}

/// Which component a rollback hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Victim {
    Producer,
    Consumer,
}

/// What, besides the coupled step itself, happens after a timed step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disturbance {
    Rollback(Victim),
    ColdRestart,
}

/// The failure schedule of one round: positions are fixed by the shape (so
/// every round re-executes the same number of steps), the victim order is a
/// seeded balanced shuffle.
pub fn schedule(seed: u64, round: u64, shape: &Shape) -> Vec<(u32, Disturbance)> {
    let mut out = Vec::new();
    // A zero interval means "never": `checked_div` yields no events.
    let rollbacks = shape.timed_steps.checked_div(shape.rollback_every).unwrap_or(0);
    let mut victims: Vec<Victim> = (0..rollbacks)
        .map(|i| if i % 2 == 0 { Victim::Consumer } else { Victim::Producer })
        .collect();
    Xoshiro256StarStar::seed_from_u64(mix64(seed ^ mix64(round))).shuffle(&mut victims);
    for (i, v) in victims.into_iter().enumerate() {
        out.push(((i as u32 + 1) * shape.rollback_every, Disturbance::Rollback(v)));
    }
    for i in 1..=shape.timed_steps.checked_div(shape.cold_every).unwrap_or(0) {
        out.push((i * shape.cold_every, Disturbance::ColdRestart));
    }
    out.sort_by_key(|&(step, d)| (step, d == Disturbance::ColdRestart));
    out
}

/// Simulator seed of sweep `k`.
pub fn des_seed(seed: u64, k: u64) -> u64 {
    // Kept below 2^32: the workflow configs add small offsets to their seed.
    mix64(seed ^ mix64(k ^ 0x000F_1610)) >> 32
}

/// Digest of everything the generator would hand a threaded workload's first
/// two rounds: payload digests in step order plus the failure schedule.
#[cfg(test)]
fn stream_digest(seed: u64, shape: &Shape) -> u64 {
    let pool = Pool::generate(seed, shape);
    let mut words = Vec::new();
    for round in 0..2u64 {
        for v in 1..=shape.warmup_steps + shape.timed_steps {
            words.push(u64::from(v));
            words.push(pool.expected_digest(v));
        }
        for (step, d) in schedule(seed, round, shape) {
            words.push(u64::from(step));
            words.push(match d {
                Disturbance::Rollback(Victim::Producer) => 1,
                Disturbance::Rollback(Victim::Consumer) => 2,
                Disturbance::ColdRestart => 3,
            });
        }
    }
    staging::payload::fnv1a_words(seed, &words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, DEV_SEED, HELD_BACK_SEED};

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for name in ["stream_mem", "recover_replay"] {
            let shape = workload(name).unwrap().shape.unwrap();
            let a = stream_digest(DEV_SEED, &shape);
            assert_eq!(a, stream_digest(DEV_SEED, &shape), "{name}: seed must fix the stream");
            assert_ne!(a, stream_digest(HELD_BACK_SEED, &shape), "{name}: seeds must differ");
        }
        let sims: Vec<u64> = (0..8).map(|k| des_seed(DEV_SEED, k)).collect();
        assert_eq!(sims, (0..8).map(|k| des_seed(DEV_SEED, k)).collect::<Vec<_>>());
        assert_ne!(sims, (0..8).map(|k| des_seed(HELD_BACK_SEED, k)).collect::<Vec<_>>());
    }

    #[test]
    fn reput_is_bit_identical_and_fill_finds_every_block() {
        let shape = workload("stream_mem").unwrap().shape.unwrap();
        let pool = Pool::generate(3, &shape);
        assert_eq!(pool.blocks_per_step(), 64);
        assert_eq!(pool.bytes_per_step(), 32 * 32 * 32);
        let mut fill_a = pool.fill(5);
        let mut fill_b = pool.fill(5);
        let mut pieces = Vec::new();
        for b in 0..64 {
            let bbox = block_bbox(b, 4, 8);
            let p = fill_a(&bbox);
            assert_eq!(p, fill_b(&bbox));
            pieces.push(GetPiece { bbox, version: 5, payload: p });
        }
        assert_eq!(pieces_digest(&pieces), pool.expected_digest(5));
        assert_ne!(pool.expected_digest(5), pool.expected_digest(6));
    }

    #[test]
    fn schedule_is_balanced_and_ordered() {
        let shape = workload("recover_replay").unwrap().shape.unwrap();
        let s = schedule(DEV_SEED, 0, &shape);
        let rollbacks: Vec<_> =
            s.iter().filter(|(_, d)| matches!(d, Disturbance::Rollback(_))).collect();
        assert_eq!(rollbacks.len(), 9);
        let consumers =
            rollbacks.iter().filter(|(_, d)| *d == Disturbance::Rollback(Victim::Consumer)).count();
        assert_eq!(consumers, 5);
        assert_eq!(s.iter().filter(|(_, d)| *d == Disturbance::ColdRestart).count(), 3);
        assert!(s.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
