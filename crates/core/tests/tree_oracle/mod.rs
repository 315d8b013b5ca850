//! The reference the Eq. 1 optimizer is tested against.
//!
//! This is the solver as it stood before a [`CapabilityModel`] kept its
//! solved tables: every call rebuilds `best_cost[2..=n]` from nothing, every
//! level tries every fan-out, and each Eq. 1 term is recomputed from the
//! model wherever it is read. Slow and obviously independent of request
//! order. `proptests.rs` requires the same cost bits and the same [`Tree`]
//! from `knl_core::optimize_tree` over seeded models.

use knl_core::{CapabilityModel, Tree, TreeKind};

const REDOP_NS: f64 = 1.6;

/// `(tree, cost_ns)` of the optimal tree over `n` participants.
pub fn optimize_tree(model: &CapabilityModel, n: usize, kind: TreeKind) -> (Tree, f64) {
    assert!(n >= 1, "need at least the root");
    let mut best_cost = vec![0.0f64; n + 1];
    let mut best_split: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for m in 2..=n {
        let (cost, sizes) = best_level(model, m, &best_cost, kind);
        best_cost[m] = cost;
        best_split[m] = sizes;
    }
    (build_tree(n, &best_split), best_cost[n])
}

fn child_start(model: &CapabilityModel, i: usize) -> f64 {
    model.ri_ns + model.rl_ns + model.tc_ns(i)
}

fn level_cost(model: &CapabilityModel, k: usize, kind: TreeKind) -> f64 {
    let redop = match kind {
        TreeKind::Broadcast => 0.0,
        TreeKind::Reduce => REDOP_NS * k as f64,
    };
    model.ri_ns + model.rl_ns + model.tc_ns(k) + model.ri_ns + k as f64 * model.rr_ns + redop
}

fn best_level(
    model: &CapabilityModel,
    m: usize,
    best_cost: &[f64],
    kind: TreeKind,
) -> (f64, Vec<usize>) {
    let to_place = m - 1;
    let mut best = (f64::INFINITY, Vec::new());
    for k in 1..=to_place {
        let mut lo = level_cost(model, k, kind);
        let mut hi = lo + child_start(model, k) + best_cost[to_place] + 1.0;
        let feasible = |t: f64| -> bool {
            let mut total = 0usize;
            for i in 1..=k {
                let s = child_start(model, i);
                let budget = t - s;
                if budget < 0.0 {
                    return false;
                }
                let cap = largest_within(best_cost, to_place, budget);
                if cap == 0 {
                    return false;
                }
                total += cap;
                if total >= to_place {
                    return true;
                }
            }
            total >= to_place
        };
        if !feasible(hi) {
            continue;
        }
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let t = hi;
        let mut sizes = Vec::with_capacity(k);
        let mut remaining = to_place;
        for i in 1..=k {
            let s = child_start(model, i);
            let cap = largest_within(best_cost, remaining, (t - s).max(0.0)).max(1);
            let take = cap.min(remaining.saturating_sub(k - i));
            sizes.push(take.max(1));
            remaining -= take.max(1);
        }
        assert_eq!(remaining, 0, "k={k} m={m}");
        let mut cost = level_cost(model, k, kind);
        for (i, &sz) in sizes.iter().enumerate() {
            cost = cost.max(child_start(model, i + 1) + best_cost[sz]);
        }
        if cost < best.0 {
            best = (cost, sizes);
        }
    }
    best
}

fn largest_within(best_cost: &[f64], cap: usize, budget: f64) -> usize {
    let mut lo = 0usize;
    let mut hi = cap;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if best_cost[mid] <= budget {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

fn build_tree(n: usize, split: &[Vec<usize>]) -> Tree {
    if n <= 1 {
        return Tree::leaf();
    }
    Tree::new(split[n].iter().map(|&sz| build_tree(sz, split)).collect())
}
