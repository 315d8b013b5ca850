//! Min–max predictions for the collectives (the black "model shadow" of the
//! paper's Figs. 6–8).
//!
//! Best case: flag lines are found in S/F state and contention resolves in
//! arrival order. Worst case: every poll read finds the line Modified at
//! the writer and triggers an extra ownership bounce before the value is
//! visible; we charge one additional remote transfer plus the contention
//! intercept per polled line.

use crate::barrier_opt::optimize_barrier;
use crate::minmax::MinMax;
use crate::model::CapabilityModel;
use crate::tree_opt::{optimize_tree, Eq1Terms, TreeKind};

/// Pessimization applied to R_R and T_C for the worst case: every poll
/// finds the flag line Modified at the writer and pays a full extra bounce
/// (the contention intercept), and serialization is half again as bad.
fn worst_terms(model: &CapabilityModel) -> Eq1Terms {
    let mut w = Eq1Terms::of(model);
    let m_state = model.remote_ns.get(&'M').copied().unwrap_or(w.rr_ns);
    w.rr_ns = m_state + w.alpha.max(0.0);
    w.beta *= 1.5;
    w
}

/// The tuned tree's Eq. 1 cost, and the same tree re-costed under
/// [`worst_terms`].
fn predict_tree(model: &CapabilityModel, tiles: usize, kind: TreeKind) -> MinMax {
    let best_plan = optimize_tree(model, tiles, kind);
    let worst = worst_terms(model).tree_cost(&best_plan.tree, kind);
    MinMax::new(best_plan.cost_ns.min(worst), worst)
}

/// Predicted broadcast envelope over `tiles` participants (ns).
///
/// # Panics
///
/// As [`optimize_tree`]: on a non-finite Eq. 1 term.
pub fn predict_broadcast(model: &CapabilityModel, tiles: usize) -> MinMax {
    predict_tree(model, tiles, TreeKind::Broadcast)
}

/// Predicted reduce envelope over `tiles` participants (ns).
///
/// # Panics
///
/// As [`optimize_tree`]: on a non-finite Eq. 1 term.
pub fn predict_reduce(model: &CapabilityModel, tiles: usize) -> MinMax {
    predict_tree(model, tiles, TreeKind::Reduce)
}

/// Predicted dissemination-barrier envelope over `threads` (ns).
pub fn predict_barrier(model: &CapabilityModel, threads: usize) -> MinMax {
    let best = optimize_barrier(model, threads);
    let w = worst_terms(model);
    let worst = best.r as f64 * (w.ri_ns + best.m as f64 * w.rr_ns);
    MinMax::new(best.cost_ns.min(worst), worst.max(best.cost_ns))
}

/// Intra-tile flat stage cost for `k` extra threads in the same tile
/// (used when more threads than tiles participate: the paper's hierarchical
/// plan does a flat tree within the tile, polling local lines).
pub fn intra_tile_stage(model: &CapabilityModel, k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let tile_sf = model.tile_ns.get(&'S').copied().unwrap_or(model.l2_ns);
    // Publish + k polls on the tile's L2 + gather of k acks.
    model.rl_ns + model.tc_ns(k).min(k as f64 * tile_sf) + k as f64 * tile_sf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CapabilityModel {
        CapabilityModel::paper_reference()
    }

    #[test]
    fn envelopes_are_ordered() {
        let m = model();
        for n in [2usize, 8, 32] {
            for f in [predict_broadcast, predict_reduce, predict_barrier] {
                let e = f(&m, n);
                assert!(e.best <= e.worst, "n={n}: {e:?}");
                assert!(e.best > 0.0);
            }
        }
    }

    #[test]
    fn broadcast_grows_with_n() {
        let m = model();
        let a = predict_broadcast(&m, 4);
        let b = predict_broadcast(&m, 32);
        assert!(b.best > a.best);
    }

    #[test]
    fn barrier_at_64_threads_in_microsecond_range() {
        // Sanity: the paper's Fig. 6 shows model-tuned barriers at 64
        // threads around a few microseconds.
        let e = predict_barrier(&model(), 64);
        assert!(
            e.best > 300.0 && e.best < 10_000.0,
            "barrier best {} ns out of plausibility band",
            e.best
        );
    }

    #[test]
    fn intra_tile_stage_cheaper_than_remote_round() {
        let m = model();
        assert!(intra_tile_stage(&m, 1) < m.rr_ns);
        assert_eq!(intra_tile_stage(&m, 0), 0.0);
    }
}
