//! Deterministic pseudo-random number generation built on the repo's
//! [`splitmix64`] mixing function.
//!
//! The workspace builds with no external crates, so tests, benches and the
//! sweep executor use this generator instead of `rand`. It is a plain
//! splitmix64 counter stream: fast, `Send`, trivially seedable, and —
//! crucially for the parallel sweep's determinism contract — a pure
//! function of the seed, independent of thread scheduling.

use crate::topology::splitmix64;

/// A splitmix64-stream pseudo-random generator.
#[derive(Debug, Clone)]
pub struct SplitMixRng {
    state: u64,
}

impl SplitMixRng {
    /// Seed the generator. Equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMixRng { state: seed }
    }

    /// Derive an independent per-job generator from a base seed and a job
    /// index (the sweep executor's per-job seeding rule).
    pub fn for_job(base_seed: u64, job_index: u64) -> Self {
        SplitMixRng {
            state: splitmix64(base_seed ^ job_index.rotate_left(32)),
        }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `u64` in `[lo, hi)`. Panics when the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range_usize(0, i + 1);
            v.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMixRng::seed_from_u64(42);
        let mut b = SplitMixRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMixRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = SplitMixRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_roughly_uniform() {
        let mut r = SplitMixRng::seed_from_u64(1);
        let mut counts = [0usize; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[r.range_usize(0, 8)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.125).abs() < 0.01, "bucket {i}: {frac}");
        }
    }

    #[test]
    fn job_streams_are_independent() {
        let a: Vec<u64> = {
            let mut r = SplitMixRng::for_job(0xBE7C, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMixRng::for_job(0xBE7C, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
        // And reproducible.
        let a2: Vec<u64> = {
            let mut r = SplitMixRng::for_job(0xBE7C, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, a2);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMixRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle left the slice sorted (astronomically unlikely)"
        );
    }
}
