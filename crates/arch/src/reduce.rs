//! Exact `n mod d` without a division, for a divisor fixed at construction.
//!
//! The simulator reduces a 64-bit hash by a run-time length on every
//! access: a cluster's tile list and EDC list in [`crate::AddressMap`], the
//! jitter span in the engine. A hardware `u64` division costs tens of
//! cycles; [`Reducer`] precomputes a multiplier once and then costs one
//! widening multiply, an add, a shift and a multiply-subtract.
//!
//! It is exact for every `u64` numerator and every divisor — not an
//! approximation that happens to agree on the hashes we feed it. With
//! `l = ⌊log₂ d⌋` and `K = 64 + l`, a divisor that is not a power of two
//! leaves `2^K mod d` and `d − 2^K mod d` both nonzero, and one of them is at
//! most `2^l` (they sum to `d < 2^(l+1)`):
//!
//! * if `d − 2^K mod d ≤ 2^l`, the multiplier `m = ⌈2^K / d⌉` gives
//!   `⌊n/d⌋ = ⌊m·n / 2^K⌋` (Granlund & Montgomery, *Division by Invariant
//!   Integers using Multiplication*, PLDI 1994, Thm. 4.2);
//! * otherwise `m = ⌊2^K / d⌋` gives `⌊n/d⌋ = ⌊m·(n + 1) / 2^K⌋`
//!   (Robison, *N-Bit Unsigned Division via N-Bit Multiply-Add*, ARITH
//!   2005): the error `(2^K mod d)·(n + 1) / (d·2^K)` is at most `1/d`.
//!
//! Either way `m < 2^64`, so the quotient is the high half of one
//! `64 × 64` multiply plus an add (`m` itself in the second case), shifted
//! right by `l`. A power of two `2^j` takes `m = 2^63` and a shift of
//! `j − 1`; `d = 1` takes the second form with `m = 2^64 − 1`.
//! `crates/arch/tests/proptests.rs` holds it to `%` at every divisor the
//! simulator can use and at the edges of every numerator range it passes.

/// Precomputed `n mod d` (and `n / d`) for one divisor `d ≥ 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reducer {
    d: u64,
    /// The multiplier.
    m: u64,
    /// Added to the product: `m` when it rounds down, 0 when it rounds up.
    add: u64,
    /// Shift of the product's high half.
    shift: u32,
}

impl Reducer {
    /// The reducer for divisor `d`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "a reducer needs a positive divisor");
        let (m, add, shift) = if d == 1 {
            (u64::MAX, u64::MAX, 0)
        } else if d.is_power_of_two() {
            (1 << 63, 0, d.trailing_zeros() - 1)
        } else {
            let l = d.ilog2();
            let k = 1u128 << (64 + l);
            let (down, rem) = ((k / d as u128) as u64, (k % d as u128) as u64);
            if d - rem <= 1 << l {
                (down + 1, 0, l)
            } else {
                (down, down, l)
            }
        };
        Reducer { d, m, add, shift }
    }

    /// The divisor.
    pub fn divisor(self) -> u64 {
        self.d
    }

    /// `n / d`.
    #[inline]
    pub fn quotient(self, n: u64) -> u64 {
        let product = self.m as u128 * n as u128 + self.add as u128;
        ((product >> 64) as u64) >> self.shift
    }

    /// `n % d`.
    #[inline]
    pub fn remainder(self, n: u64) -> u64 {
        n - self.quotient(n) * self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_divisors_agree_with_the_operators() {
        for d in 1..=300u64 {
            let r = Reducer::new(d);
            assert_eq!(r.divisor(), d);
            for n in (0..2_000u64).chain([u64::MAX, u64::MAX - 1, 1 << 63, (1 << 56) - 1]) {
                assert_eq!(r.quotient(n), n / d, "{n} / {d}");
                assert_eq!(r.remainder(n), n % d, "{n} % {d}");
            }
        }
    }

    #[test]
    fn extreme_divisors() {
        for d in [1u64 << 63, (1 << 63) + 1, u64::MAX - 1, u64::MAX] {
            let r = Reducer::new(d);
            for n in [0, 1, d - 1, d, u64::MAX - 1, u64::MAX] {
                assert_eq!(r.remainder(n), n % d, "{n} % {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive divisor")]
    fn zero_divisor_is_refused() {
        Reducer::new(0);
    }
}
