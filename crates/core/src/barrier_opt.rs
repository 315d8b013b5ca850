//! Model-tuned dissemination barrier (Eq. 2 of the paper):
//!
//! ```text
//! minimize  T_diss(r, m) = r · (R_I + m·R_R)
//! subject to r = ⌈log_{m+1}(n)⌉,  (m+1)^r ≥ n
//! ```
//!
//! Each of the `r` rounds has every thread communicate with `m` partners;
//! `R_R` is the remote-tile cost because "in each round there is at least
//! one thread communicating with a remote tile". The paper also notes that
//! a hierarchical (intra-tile + inter-tile) dissemination does *not* pay
//! off: it would add an intra-tile gather and broadcast stage.

use crate::model::CapabilityModel;

/// Chosen barrier parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BarrierPlan {
    /// Threads the barrier synchronizes.
    pub n: usize,
    /// Rounds.
    pub r: usize,
    /// Partners contacted per round (radix − 1).
    pub m: usize,
    /// Modeled best-case cost, ns.
    pub cost_ns: f64,
}

/// Rounds needed for radix `m+1` over `n` threads.
///
/// # Panics
/// If `m == 0` and `n ≥ 2`: radix 1 never reaches a second thread.
pub fn rounds(n: usize, m: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    assert!(
        m >= 1,
        "dissemination radix m+1 must be at least 2 to reach {n} threads (m = 0)"
    );
    let mut r = 0usize;
    let mut reach = 1u128;
    while reach < n as u128 {
        reach *= (m + 1) as u128;
        r += 1;
    }
    r
}

/// Optimize Eq. 2 over `m`.
pub fn optimize_barrier(model: &CapabilityModel, n: usize) -> BarrierPlan {
    assert!(n >= 1);
    if n == 1 {
        return BarrierPlan {
            n,
            r: 0,
            m: 0,
            cost_ns: 0.0,
        };
    }
    let mut best = BarrierPlan {
        n,
        r: rounds(n, 1),
        m: 1,
        cost_ns: f64::INFINITY,
    };
    for m in 1..n {
        let r = rounds(n, m);
        let cost = r as f64 * (model.ri_ns + m as f64 * model.rr_ns);
        if cost < best.cost_ns {
            best = BarrierPlan {
                n,
                r,
                m,
                cost_ns: cost,
            };
        }
        if r == 1 {
            break; // larger m only costs more at a single round
        }
    }
    best
}

/// Cost of a given (r, m) under the model (for baselines/what-if).
pub fn barrier_cost(model: &CapabilityModel, n: usize, m: usize) -> f64 {
    rounds(n, m) as f64 * (model.ri_ns + m as f64 * model.rr_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CapabilityModel;

    #[test]
    fn rounds_formula() {
        assert_eq!(rounds(1, 1), 0);
        assert_eq!(rounds(2, 1), 1);
        assert_eq!(rounds(64, 1), 6); // log2
        assert_eq!(rounds(64, 3), 3); // log4
        assert_eq!(rounds(65, 3), 4);
        assert_eq!(rounds(64, 63), 1);
        assert_eq!(rounds(1, 0), 0);
    }

    #[test]
    #[should_panic(expected = "radix m+1 must be at least 2")]
    fn radix_one_is_refused() {
        rounds(2, 0);
    }

    #[test]
    fn coverage_constraint_holds() {
        let m = CapabilityModel::paper_reference();
        for n in [2usize, 5, 17, 64, 256] {
            let p = optimize_barrier(&m, n);
            assert!((p.m + 1).pow(p.r as u32) >= n, "{p:?}");
            // One fewer round must not cover n.
            if p.r > 1 {
                assert!((p.m + 1).pow(p.r as u32 - 1) < n, "{p:?}");
            }
        }
    }

    #[test]
    fn optimum_beats_radix2_and_flat() {
        let model = CapabilityModel::paper_reference();
        for n in [16usize, 64, 256] {
            let p = optimize_barrier(&model, n);
            let radix2 = barrier_cost(&model, n, 1);
            let flat = barrier_cost(&model, n, n - 1);
            assert!(p.cost_ns <= radix2 + 1e-9, "n={n}");
            assert!(p.cost_ns <= flat + 1e-9, "n={n}");
        }
    }

    #[test]
    fn tuned_radix_is_interior_for_64() {
        // With R_I ≈ 168 and R_R ≈ 110, radix 2 pays 6 rounds and flat pays
        // 63·R_R; the optimum sits in between.
        let model = CapabilityModel::paper_reference();
        let p = optimize_barrier(&model, 64);
        assert!(p.m >= 2 && p.m <= 16, "{p:?}");
        assert!(p.r >= 2 && p.r <= 4, "{p:?}");
    }

    #[test]
    fn singleton_barrier_free() {
        let model = CapabilityModel::paper_reference();
        let p = optimize_barrier(&model, 1);
        assert_eq!(p.cost_ns, 0.0);
        assert_eq!(p.r, 0);
    }
}
