//! Deterministic pseudo-random number generation.
//!
//! The simulation must produce identical event orderings for identical seeds
//! on every platform and across dependency upgrades, so we implement the
//! generators ourselves from the reference specifications instead of pulling
//! in the `rand` crate:
//!
//! * [`SplitMix64`] — Steele/Lea/Flood's 64-bit mixer; used for seeding.
//! * [`Xoshiro256StarStar`] — Blackman/Vigna's general-purpose generator.
//!
//! Both are tested against reference output vectors below.

/// SplitMix64 generator (used primarily to expand a single `u64` seed into
/// the 256-bit state of [`Xoshiro256StarStar`]).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\* 1.0 — the all-purpose generator recommended by its authors
/// for 64-bit output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed via SplitMix64 expansion, per the authors' recommendation.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is a fixed point; SplitMix64 cannot emit four
        // consecutive zeros in practice, but guard anyway.
        if s.iter().all(|&w| w == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift with
    /// rejection to remove modulo bias.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Sample an exponential distribution with the given mean.
    ///
    /// Used for MTBF-driven failure injection: inter-failure times on large
    /// systems are classically modeled as exponential.
    pub fn next_exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
        // Avoid ln(0) by mapping u in [0,1) to (0,1].
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Bernoulli trial with probability `p` of returning `true`.
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        if xs.len() < 2 {
            return;
        }
        for i in (1..xs.len()).rev() {
            let j = self.next_bounded(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Split off an independent generator stream (for per-actor RNGs).
    ///
    /// Uses the current stream to derive a fresh seed; the child is then
    /// statistically independent of further draws from `self`.
    pub fn split(&mut self) -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector for SplitMix64 with seed 1234567, from the public
    /// reference implementation (used by many test suites).
    #[test]
    fn splitmix_reference_vector() {
        let mut g = SplitMix64::new(1234567);
        let expected: [u64; 5] = [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expected {
            assert_eq!(g.next_u64(), e);
        }
    }

    /// Reference vector for xoshiro256** with state [1,2,3,4], from the
    /// generator authors' reference C code.
    #[test]
    fn xoshiro_reference_vector() {
        let mut g = Xoshiro256StarStar { s: [1, 2, 3, 4] };
        let expected: [u64; 10] = [
            11520,
            0,
            1509978240,
            1215971899390074240,
            1216172134540287360,
            607988272756665600,
            16172922978634559625,
            8476171486693032832,
            10595114339597558777,
            2904607092377533576,
        ];
        for &e in &expected {
            assert_eq!(g.next_u64(), e);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256StarStar::seed_from_u64(99);
        let mut b = Xoshiro256StarStar::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be nearly disjoint, {same} collisions");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_is_in_bounds_and_covers() {
        let mut g = Xoshiro256StarStar::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = g.next_bounded(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn exponential_mean_close() {
        let mut g = Xoshiro256StarStar::seed_from_u64(8);
        let n = 100_000;
        let mean = 600.0;
        let sum: f64 = (0..n).map(|_| g.next_exponential(mean)).sum();
        let est = sum / n as f64;
        assert!((est - mean).abs() / mean < 0.02, "sample mean {est} too far from {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut g = Xoshiro256StarStar::seed_from_u64(9);
        let mut xs: Vec<u32> = (0..100).collect();
        g.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn split_streams_independent_of_parent_reuse() {
        let mut parent = Xoshiro256StarStar::seed_from_u64(10);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
