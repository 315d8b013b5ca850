//! Model-tuned broadcast/reduce trees (Eq. 1 of the paper).
//!
//! The paper's cost model for an inter-tile broadcast tree:
//!
//! ```text
//! minimize  T_bc(tree) = T_lev(k0) + max_i T_bc(subtree_i)
//! T_lev(k0) = R_I + R_L + T_C(k0) + R_I + k0·R_R
//! ```
//!
//! Following the methodology the paper builds on (Ramos & Hoefler, HPDC'13),
//! children do not all start at the same instant: the i-th child's read of
//! the parent's line completes after contention over i requests,
//! `s_i = R_I + R_L + T_C(i)`, and may start its own subtree then. This
//! staggering is what makes the optimal trees *non-trivial* (Fig. 1):
//! early children receive larger subtrees than late ones.
//!
//! The optimizer is an exact DP over subtree sizes with a makespan
//! water-filling inner step: for a fan-out `k` and a candidate deadline `T`,
//! child `i` can host at most the largest `m` with `s_i + best(m) ≤ T`, and
//! the smallest feasible `T` is bracketed by 48 halvings of a float interval
//! that starts at `[T_lev(k), T_lev(k) + s_k + best(m−1) + 1]`. The
//! bisection stays, in place of a search over the finite set of candidate
//! sums `s_i + best(m)`: the deadline it lands on decides how the surplus is
//! trimmed, two fan-outs whose makespans sit one ulp apart are told apart by
//! the strict `<`, and the pinned plans (`tests/golden/tree_plans.txt`)
//! hold every one of those ties.
//!
//! **Prefix property.** Level `m` reads only `best(1..m)`, `s_1..s_{m−1}`
//! and `T_lev(1..m−1)`, so the table solved for `n` *is* the table for every
//! smaller `n`, and a larger `n` only appends rows. Each
//! [`CapabilityModel`] therefore keeps one table per [`TreeKind`]
//! (`TreeTables`) and [`optimize_tree`] only rebuilds the [`Tree`] from
//! it for any `n` already reached.
//!
//! **Memo key.** Eq. 1 reads five numbers of the model — `R_I`, `R_L`,
//! `R_R` and the contention law's `α`, `β` (`Eq1Terms`). A table is
//! stamped with their bit patterns and the stamp is compared on every
//! call, so editing a field in place, or cloning a model and editing the
//! clone, can never serve a stale plan; editing anything else keeps it.

use crate::model::CapabilityModel;
use crate::tree::Tree;
use std::sync::Mutex;

/// Broadcast or reduce flavour of Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Data flows root → leaves.
    Broadcast,
    /// Reduce adds per-child buffering + the reduction operation itself.
    Reduce,
}

/// Result of tree optimization.
#[derive(Debug, Clone)]
pub struct TreePlan {
    /// Operation the tree was optimized for.
    pub kind: TreeKind,
    /// Participants (root included).
    pub n: usize,
    /// The optimized shape.
    pub tree: Tree,
    /// Modeled best-case completion time, ns.
    pub cost_ns: f64,
}

/// Cost of applying the reduction operator to one cache line of operands
/// (vectorized integer/float add: ~2 cycles at 1.3 GHz).
const REDOP_NS: f64 = 1.6;

/// The five numbers Eq. 1 reads from a [`CapabilityModel`].
#[derive(Clone, Copy)]
pub(crate) struct Eq1Terms {
    /// R_I, ns.
    pub(crate) ri_ns: f64,
    /// R_L, ns.
    pub(crate) rl_ns: f64,
    /// R_R, ns.
    pub(crate) rr_ns: f64,
    /// Contention intercept α of T_C(N) = α + β·N, ns.
    pub(crate) alpha: f64,
    /// Contention slope β, ns per request.
    pub(crate) beta: f64,
}

impl Eq1Terms {
    pub(crate) fn of(model: &CapabilityModel) -> Self {
        Eq1Terms {
            ri_ns: model.ri_ns,
            rl_ns: model.rl_ns,
            rr_ns: model.rr_ns,
            alpha: model.contention.alpha,
            beta: model.contention.beta,
        }
    }

    fn fields(&self) -> [(&'static str, f64); 5] {
        [
            ("ri_ns", self.ri_ns),
            ("rl_ns", self.rl_ns),
            ("rr_ns", self.rr_ns),
            ("contention.alpha", self.alpha),
            ("contention.beta", self.beta),
        ]
    }

    /// The memo key: the terms' bit patterns.
    fn key(&self) -> [u64; 5] {
        self.fields().map(|(_, v)| v.to_bits())
    }

    /// T_C(n) for n ≥ 1, as [`CapabilityModel::tc_ns`] computes it.
    fn tc_ns(&self, n: usize) -> f64 {
        (self.alpha + self.beta * n as f64).max(0.0)
    }

    /// Completion time of child `i` (1-based) reading the parent's data
    /// under contention from `i` earlier-or-equal requests.
    fn child_start(&self, i: usize) -> f64 {
        self.ri_ns + self.rl_ns + self.tc_ns(i)
    }

    /// Level cost excluding subtrees: parent publishes (R_I + R_L), children
    /// read under contention (T_C(k)), children ack and the parent collects
    /// (R_I + k·R_R); reduce pays the operator per child.
    fn level_cost(&self, k: usize, kind: TreeKind) -> f64 {
        let redop = match kind {
            TreeKind::Broadcast => 0.0,
            TreeKind::Reduce => REDOP_NS * k as f64,
        };
        self.ri_ns + self.rl_ns + self.tc_ns(k) + self.ri_ns + k as f64 * self.rr_ns + redop
    }

    /// Eq. 1 for an arbitrary tree under these terms.
    pub(crate) fn tree_cost(&self, tree: &Tree, kind: TreeKind) -> f64 {
        if tree.children.is_empty() {
            return 0.0;
        }
        let mut cost = self.level_cost(tree.children.len(), kind);
        for (i, c) in tree.children.iter().enumerate() {
            cost = cost.max(self.child_start(i + 1) + self.tree_cost(c, kind));
        }
        cost
    }
}

/// One solved DP table: row `m` holds the optimum for a tree of `m` nodes
/// (rows 0 and 1: a lone node already holds the data) and the two Eq. 1
/// terms of fan-out `m`, all under the terms whose bits are `key`. The
/// default table has no rows, so its key is never read as anyone's.
#[derive(Default)]
struct TreeTable {
    key: [u64; 5],
    best_cost: Vec<f64>,
    best_split: Vec<Vec<usize>>,
    child_start: Vec<f64>,
    level_cost: Vec<f64>,
}

impl TreeTable {
    /// Discard rows solved under other terms, then append rows up to `n`.
    fn solve_to(&mut self, terms: &Eq1Terms, n: usize, kind: TreeKind) {
        let key = terms.key();
        if self.key != key {
            *self = TreeTable {
                key,
                ..TreeTable::default()
            };
        }
        for m in self.best_cost.len()..=n {
            let (cost, sizes) = if m < 2 {
                (0.0, Vec::new())
            } else {
                best_level(m, &self.best_cost, &self.child_start, &self.level_cost)
            };
            self.best_cost.push(cost);
            self.best_split.push(sizes);
            self.child_start.push(terms.child_start(m));
            self.level_cost.push(terms.level_cost(m, kind));
        }
    }

    fn build_tree(&self, n: usize) -> Tree {
        if n <= 1 {
            return Tree::leaf();
        }
        Tree::new(
            self.best_split[n]
                .iter()
                .map(|&sz| self.build_tree(sz))
                .collect(),
        )
    }
}

/// The solved Eq. 1 tables a [`CapabilityModel`] carries, one per
/// [`TreeKind`], grown on demand behind a lock so that `&CapabilityModel`
/// stays `Sync`.
#[derive(Default)]
pub(crate) struct TreeTables(Mutex<[TreeTable; 2]>);

/// A clone starts unsolved: models are cloned to be edited, and an edit to
/// any Eq. 1 term would discard a copied table at its first use.
impl Clone for TreeTables {
    fn clone(&self) -> Self {
        TreeTables::default()
    }
}

/// Optimize a tree over `n` participants (root included) for the given
/// model. `n` counts inter-tile participants (one per tile); intra-tile
/// fan-out is flat and handled by the collectives layer.
///
/// # Panics
///
/// If `n` is 0, or if one of the five model fields Eq. 1 reads (`ri_ns`,
/// `rl_ns`, `rr_ns`, `contention.alpha`, `contention.beta`) is NaN or
/// infinite — [`CapabilityModel::from_suite`] leaves NaN where the suite
/// lacks the measurement. The message names the field.
pub fn optimize_tree(model: &CapabilityModel, n: usize, kind: TreeKind) -> TreePlan {
    assert!(n >= 1, "need at least the root");
    let terms = Eq1Terms::of(model);
    for (field, value) in terms.fields() {
        assert!(
            value.is_finite(),
            "CapabilityModel::{field} is {value}: Eq. 1 has no optimum over a non-finite term"
        );
    }
    let (tree, cost_ns) = {
        let mut tables = model
            .tree_tables
            .0
            .lock()
            .expect("no panic while an Eq. 1 table is held");
        let table = &mut tables[kind as usize];
        table.solve_to(&terms, n, kind);
        (table.build_tree(n), table.best_cost[n])
    };
    assert_eq!(tree.size(), n, "Eq. 1 plan does not span its participants");
    TreePlan {
        kind,
        n,
        tree,
        cost_ns,
    }
}

/// Best (cost, child subtree sizes) for a tree of `m` nodes given the
/// optimal costs of all smaller trees and the Eq. 1 terms of all smaller
/// fan-outs (`child_start[i]`, `level_cost[k]`; index 0 unused).
fn best_level(
    m: usize,
    best_cost: &[f64],
    child_start: &[f64],
    level_cost: &[f64],
) -> (f64, Vec<usize>) {
    let to_place = m - 1;
    let mut best = (f64::INFINITY, Vec::new());
    for k in 1..=to_place {
        // The makespan of fan-out k is at least T_lev(k) and at least s_k
        // (subtree costs are not negative), and only a strictly smaller one
        // replaces the best. `continue`, not `break`: nothing here assumes
        // either term monotone in k.
        if level_cost[k] >= best.0 || child_start[k] >= best.0 {
            continue;
        }
        // Bisect for the smallest feasible deadline.
        let mut lo = level_cost[k];
        let mut hi = lo + child_start[k] + best_cost[to_place] + 1.0;
        // Feasibility under deadline t: sum of max sizes ≥ to_place.
        let feasible = |t: f64| -> bool {
            let mut total = 0usize;
            for &s in &child_start[1..=k] {
                // Largest m' with best_cost[m'] ≤ t - s.
                let budget = t - s;
                if budget < 0.0 {
                    return false; // children are ordered; later ones worse
                }
                let cap = largest_within(best_cost, to_place, budget);
                if cap == 0 {
                    return false; // every child must host ≥ 1 node
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
        // Reconstruct sizes: earlier children take the largest feasible
        // subtree; trim the surplus from the later children.
        let mut sizes = Vec::with_capacity(k);
        let mut remaining = to_place;
        for (earlier, &s) in child_start[1..=k].iter().enumerate() {
            let later = k - 1 - earlier;
            let cap = largest_within(best_cost, remaining, (t - s).max(0.0)).max(1);
            let take = cap.min(remaining.saturating_sub(later)); // leave ≥1 per later child
            sizes.push(take.max(1));
            remaining -= take.max(1);
        }
        debug_assert_eq!(remaining, 0, "k={k} m={m}");
        // True makespan for these sizes.
        let mut cost = level_cost[k];
        for (i, &sz) in sizes.iter().enumerate() {
            cost = cost.max(child_start[i + 1] + best_cost[sz]);
        }
        if cost < best.0 {
            best = (cost, sizes);
        }
    }
    best
}

/// Largest m ≤ cap with best_cost[m] ≤ budget (best_cost is nondecreasing).
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

/// Evaluate Eq. 1 for an *arbitrary* tree (used to compare model-tuned
/// shapes against fixed baselines such as binomial trees).
pub fn tree_cost(model: &CapabilityModel, tree: &Tree, kind: TreeKind) -> f64 {
    Eq1Terms::of(model).tree_cost(tree, kind)
}

/// A binomial tree of `n` nodes (the classic MPI shape, used as baseline).
pub fn binomial_tree(n: usize) -> Tree {
    assert!(n >= 1);
    // Recursive doubling: a binomial tree of 2^k nodes has children of
    // sizes 2^(k-1), ..., 2, 1. For non-powers of two, split greedily.
    if n == 1 {
        return Tree::leaf();
    }
    let mut children = Vec::new();
    let mut remaining = n - 1;
    while remaining > 0 {
        let mut sz = 1;
        while sz * 2 <= remaining {
            sz *= 2;
        }
        children.push(binomial_tree(sz));
        remaining -= sz;
    }
    // Children are built largest-first, matching the earliest start slot.
    Tree::new(children)
}

/// A flat tree (root with n−1 leaves; the "centralized" baseline).
pub fn flat_tree(n: usize) -> Tree {
    assert!(n >= 1);
    Tree::new((1..n).map(|_| Tree::leaf()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CapabilityModel {
        CapabilityModel::paper_reference()
    }

    #[test]
    fn sizes_are_exact() {
        let m = model();
        for n in [1usize, 2, 3, 5, 8, 17, 32, 36, 64] {
            let plan = optimize_tree(&m, n, TreeKind::Broadcast);
            assert_eq!(plan.tree.size(), n, "n={n}");
        }
    }

    #[test]
    fn cost_monotone_in_n() {
        let m = model();
        let mut prev = 0.0;
        for n in 2..=40 {
            let plan = optimize_tree(&m, n, TreeKind::Broadcast);
            assert!(
                plan.cost_ns >= prev - 1e-6,
                "cost must not decrease: n={n} {} < {prev}",
                plan.cost_ns
            );
            prev = plan.cost_ns;
        }
    }

    #[test]
    fn beats_or_matches_fixed_shapes() {
        let m = model();
        for n in [8usize, 16, 32, 36] {
            let tuned = optimize_tree(&m, n, TreeKind::Broadcast).cost_ns;
            let binom = tree_cost(&m, &binomial_tree(n), TreeKind::Broadcast);
            let flat = tree_cost(&m, &flat_tree(n), TreeKind::Broadcast);
            assert!(
                tuned <= binom + 1e-6,
                "n={n}: tuned {tuned} vs binomial {binom}"
            );
            assert!(tuned <= flat + 1e-6, "n={n}: tuned {tuned} vs flat {flat}");
        }
    }

    #[test]
    fn nontrivial_shape_at_32() {
        // The tuned tree is neither flat nor binary/binomial (Fig. 1 shows
        // an irregular multi-level shape).
        let plan = optimize_tree(&model(), 32, TreeKind::Broadcast);
        let deg = plan.tree.degree();
        assert!(deg > 1 && deg < 31, "degree {deg}");
        assert!(plan.tree.height() >= 2, "height {}", plan.tree.height());
        // Earlier children host subtrees at least as large as later ones.
        let sizes: Vec<usize> = plan.tree.children.iter().map(Tree::size).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(
            sizes, sorted,
            "earlier children must get larger subtrees: {sizes:?}"
        );
    }

    #[test]
    fn reduce_costs_more_than_broadcast() {
        let m = model();
        let b = optimize_tree(&m, 32, TreeKind::Broadcast).cost_ns;
        let r = optimize_tree(&m, 32, TreeKind::Reduce).cost_ns;
        assert!(r >= b, "reduce {r} ≥ broadcast {b}");
    }

    #[test]
    fn binomial_tree_shape() {
        let t = binomial_tree(8);
        assert_eq!(t.size(), 8);
        let sizes: Vec<usize> = t.children.iter().map(Tree::size).collect();
        assert_eq!(sizes, vec![4, 2, 1]);
        assert_eq!(binomial_tree(1).size(), 1);
        assert_eq!(binomial_tree(6).size(), 6);
    }

    #[test]
    fn flat_tree_shape() {
        let t = flat_tree(5);
        assert_eq!(t.size(), 5);
        assert_eq!(t.degree(), 4);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn tree_cost_of_leaf_is_zero() {
        assert_eq!(tree_cost(&model(), &Tree::leaf(), TreeKind::Broadcast), 0.0);
    }

    #[test]
    fn singleton_plan() {
        let p = optimize_tree(&model(), 1, TreeKind::Reduce);
        assert_eq!(p.cost_ns, 0.0);
        assert_eq!(p.tree.size(), 1);
    }

    /// Rows solved so far for `kind` (row 0 included).
    fn rows(m: &CapabilityModel, kind: TreeKind) -> usize {
        m.tree_tables.0.lock().unwrap()[kind as usize]
            .best_cost
            .len()
    }

    fn assert_same_plans(a: &CapabilityModel, b: &CapabilityModel, what: &str) {
        for kind in [TreeKind::Broadcast, TreeKind::Reduce] {
            for n in [48usize, 7, 64] {
                let (pa, pb) = (optimize_tree(a, n, kind), optimize_tree(b, n, kind));
                assert_eq!(
                    pa.cost_ns.to_bits(),
                    pb.cost_ns.to_bits(),
                    "{what} n={n} {kind:?}"
                );
                assert_eq!(pa.tree, pb.tree, "{what} n={n} {kind:?}");
            }
        }
    }

    #[test]
    fn a_table_serves_every_smaller_n_and_grows_for_a_larger_one() {
        let m = model();
        optimize_tree(&m, 40, TreeKind::Broadcast);
        assert_eq!(rows(&m, TreeKind::Broadcast), 41);
        assert_eq!(rows(&m, TreeKind::Reduce), 0);
        optimize_tree(&m, 12, TreeKind::Broadcast);
        assert_eq!(rows(&m, TreeKind::Broadcast), 41);
        optimize_tree(&m, 64, TreeKind::Broadcast);
        assert_eq!(rows(&m, TreeKind::Broadcast), 65);
        assert_same_plans(&m, &model(), "grown in steps");
    }

    /// An edit to any field Eq. 1 reads — in place after a solve, or on a
    /// clone (how a pessimised or ablated model is made) — gives the plans
    /// of a model that never solved anything.
    #[test]
    fn editing_an_eq1_field_discards_the_table() {
        type Edit = fn(&mut CapabilityModel);
        let edits: [(&str, Edit); 5] = [
            ("ri_ns", |m| m.ri_ns += 40.0),
            ("rl_ns", |m| m.rl_ns *= 3.0),
            ("rr_ns", |m| m.rr_ns = 61.5),
            ("contention.alpha", |m| m.contention.alpha = 12.0),
            ("contention.beta", |m| m.contention.beta *= 1.5),
        ];
        let reference = optimize_tree(&model(), 64, TreeKind::Broadcast).cost_ns;
        for (field, edit) in edits {
            let mut fresh = model();
            edit(&mut fresh);

            let mut in_place = model();
            optimize_tree(&in_place, 64, TreeKind::Broadcast);
            optimize_tree(&in_place, 64, TreeKind::Reduce);
            let mut cloned = in_place.clone();
            edit(&mut in_place);
            edit(&mut cloned);
            assert_ne!(
                optimize_tree(&in_place, 64, TreeKind::Broadcast).cost_ns,
                reference,
                "{field}: the edit must matter for the test to"
            );
            assert_same_plans(&in_place, &fresh, field);
            assert_same_plans(&cloned, &fresh, field);
        }
        // The key is the bit pattern: −0.0 is another key than 0.0.
        let mut m = model();
        m.contention.alpha = 0.0;
        optimize_tree(&m, 32, TreeKind::Broadcast);
        m.contention.alpha = -0.0;
        optimize_tree(&m, 8, TreeKind::Broadcast);
        assert_eq!(rows(&m, TreeKind::Broadcast), 9);
    }

    #[test]
    fn editing_any_other_field_keeps_the_table() {
        let mut m = model();
        let solved = optimize_tree(&m, 64, TreeKind::Reduce);
        m.l2_ns = 99.0;
        m.l1_ns = 1.0;
        m.mem = Default::default();
        m.tile_ns.clear();
        m.remote_ns.clear();
        m.multiline.beta = 0.0;
        m.contention.r2 = 0.5;
        m.config.push_str(" (edited)");
        let again = optimize_tree(&m, 8, TreeKind::Reduce);
        assert_eq!(rows(&m, TreeKind::Reduce), 65);
        assert_eq!(
            again.tree,
            optimize_tree(&model(), 8, TreeKind::Reduce).tree
        );
        assert_eq!(optimize_tree(&m, 64, TreeKind::Reduce).tree, solved.tree);
    }

    #[test]
    fn model_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CapabilityModel>();
    }

    /// `from_suite` leaves NaN where the suite lacks a measurement; the
    /// optimizer and the envelopes name the field at any n, solved or not.
    #[test]
    fn a_non_finite_eq1_field_is_refused_by_name() {
        type Edit = fn(&mut CapabilityModel);
        let poison: [(&str, Edit); 5] = [
            ("ri_ns", |m| m.ri_ns = f64::NAN),
            ("rl_ns", |m| m.rl_ns = f64::INFINITY),
            ("rr_ns", |m| m.rr_ns = f64::NAN),
            ("contention.alpha", |m| {
                m.contention.alpha = f64::NEG_INFINITY
            }),
            ("contention.beta", |m| m.contention.beta = f64::NAN),
        ];
        type Call = fn(&CapabilityModel, usize);
        let calls: [Call; 2] = [
            |m, n| drop(optimize_tree(m, n, TreeKind::Reduce)),
            |m, n| {
                crate::predict::predict_broadcast(m, n);
            },
        ];
        for (field, edit) in poison {
            for n in [1usize, 2, 32] {
                for call in calls {
                    let mut m = model();
                    optimize_tree(&m, 32, TreeKind::Broadcast);
                    edit(&mut m);
                    let caught = std::panic::catch_unwind(|| call(&m, n))
                        .expect_err("a non-finite term must be refused");
                    let message = caught.downcast_ref::<String>().expect("a formatted panic");
                    assert!(
                        message.starts_with(&format!("CapabilityModel::{field} is ")),
                        "n={n}: {message}"
                    );
                }
            }
        }
    }

    /// The size check is a real assertion: a table whose rows do not add up
    /// (planted here; a level with no feasible fan-out would leave one) is
    /// refused in release builds too.
    #[test]
    #[should_panic(expected = "does not span its participants")]
    fn a_plan_that_does_not_span_n_is_refused() {
        let m = model();
        m.tree_tables.0.lock().unwrap()[TreeKind::Broadcast as usize] = TreeTable {
            key: Eq1Terms::of(&m).key(),
            best_cost: vec![0.0; 4],
            best_split: vec![Vec::new(); 4],
            child_start: vec![0.0; 4],
            level_cost: vec![0.0; 4],
        };
        optimize_tree(&m, 3, TreeKind::Broadcast);
    }
}
