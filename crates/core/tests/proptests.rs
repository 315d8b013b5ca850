//! Property tests on the model layer: optimizers must emit valid plans
//! with sane costs for any plausible capability model.
//!
//! Randomized but deterministic: cases are drawn from [`SplitMixRng`] with
//! fixed seeds (the workspace builds offline with no external crates, so
//! these are hand-rolled property loops rather than `proptest` macros).

use knl_arch::SplitMixRng;
use knl_core::barrier_opt::{barrier_cost, optimize_barrier, rounds};
use knl_core::sortmodel::{CostBasis, SortModel};
use knl_core::tree_opt::{binomial_tree, flat_tree, optimize_tree, tree_cost, TreeKind};
use knl_core::{CapabilityModel, MinMax};

mod tree_oracle;

const CASES: u64 = 64;

fn range_f64(rng: &mut SplitMixRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// A random-but-plausible capability model (latencies in the manycore
/// regime, positive contention law).
fn arb_model(rng: &mut SplitMixRng) -> CapabilityModel {
    let mut m = CapabilityModel::paper_reference();
    m.rl_ns = range_f64(rng, 2.0, 8.0);
    m.rr_ns = range_f64(rng, 60.0, 200.0);
    m.ri_ns = range_f64(rng, 90.0, 260.0);
    m.contention = knl_stats::LinearFit {
        alpha: range_f64(rng, 50.0, 400.0),
        beta: range_f64(rng, 5.0, 80.0),
        r2: 1.0,
        n: 8,
    };
    m
}

/// The tuned tree always spans exactly n nodes and never loses to the
/// classic fixed shapes under its own cost model.
#[test]
fn tree_optimizer_valid_and_dominant() {
    let mut rng = SplitMixRng::seed_from_u64(0xC001);
    for _ in 0..CASES {
        let model = arb_model(&mut rng);
        let n = rng.range_usize(1, 48);
        for kind in [TreeKind::Broadcast, TreeKind::Reduce] {
            let plan = optimize_tree(&model, n, kind);
            assert_eq!(plan.tree.size(), n);
            assert!(plan.cost_ns >= 0.0);
            if n >= 2 {
                let binom = tree_cost(&model, &binomial_tree(n), kind);
                let flat = tree_cost(&model, &flat_tree(n), kind);
                assert!(
                    plan.cost_ns <= binom + 1e-6,
                    "binomial better: {} vs {binom}",
                    plan.cost_ns
                );
                assert!(
                    plan.cost_ns <= flat + 1e-6,
                    "flat better: {} vs {flat}",
                    plan.cost_ns
                );
            }
        }
    }
}

/// Tree cost is monotone in n for a fixed model.
#[test]
fn tree_cost_monotone() {
    let mut rng = SplitMixRng::seed_from_u64(0xC002);
    for _ in 0..CASES {
        let model = arb_model(&mut rng);
        let mut prev = -1.0f64;
        for n in 1..=24usize {
            let c = optimize_tree(&model, n, TreeKind::Broadcast).cost_ns;
            assert!(c >= prev - 1e-6, "n={n}: {c} < {prev}");
            prev = c;
        }
    }
}

/// The solved tables answer what the table-free solver answers — the same
/// cost bits and the same shape — whatever order the requests come in.
#[test]
fn tree_optimizer_matches_the_oracle_in_any_request_order() {
    const MAX_N: usize = 64;
    const KINDS: [TreeKind; 2] = [TreeKind::Broadcast, TreeKind::Reduce];
    let mut rng = SplitMixRng::seed_from_u64(0xC007);
    for case in 0..CASES {
        let mut model = arb_model(&mut rng);
        if case % 4 == 3 {
            // T_C falls with the request count until it clamps at zero:
            // child starts and level costs are not monotone in the fan-out.
            model.contention.alpha = range_f64(&mut rng, 0.0, 20.0);
            model.contention.beta = range_f64(&mut rng, -5.0, 0.0);
        }
        let want: Vec<[_; 2]> = (0..=MAX_N)
            .map(|n| KINDS.map(|kind| tree_oracle::optimize_tree(&model, n.max(1), kind)))
            .collect();
        let check = |m: &CapabilityModel, n: usize, kind: TreeKind, order: &str| {
            let plan = optimize_tree(m, n, kind);
            let (tree, cost) = &want[n][kind as usize];
            assert_eq!(
                plan.cost_ns.to_bits(),
                cost.to_bits(),
                "case {case} {order} n={n} {kind:?}: {} vs {cost}",
                plan.cost_ns
            );
            assert_eq!(&plan.tree, tree, "case {case} {order} n={n} {kind:?}");
        };
        // A clone starts unsolved, so each order meets cold tables.
        let descending = model.clone();
        let ascending = model.clone();
        for kind in KINDS {
            for n in (1..=MAX_N).rev() {
                check(&descending, n, kind, "descending");
            }
            for n in 1..=MAX_N {
                check(&ascending, n, kind, "ascending");
            }
        }
        let mut ns: Vec<usize> = (1..=MAX_N).collect();
        rng.shuffle(&mut ns);
        for (i, &n) in ns.iter().enumerate() {
            check(&model, n, KINDS[i % 2], "interleaved");
            check(&model, n, KINDS[(i + 1) % 2], "interleaved");
        }
    }
}

/// The barrier optimizer respects the coverage constraint and
/// dominates every fixed radix.
#[test]
fn barrier_optimizer_dominant() {
    let mut rng = SplitMixRng::seed_from_u64(0xC003);
    for _ in 0..CASES {
        let model = arb_model(&mut rng);
        let n = rng.range_usize(2, 300);
        let plan = optimize_barrier(&model, n);
        assert!((plan.m + 1).pow(plan.r as u32) >= n);
        for m_fixed in [1usize, 2, 3, 7, 15, n - 1] {
            let c = barrier_cost(&model, n, m_fixed);
            assert!(
                plan.cost_ns <= c + 1e-6,
                "radix m={m_fixed} better: {} vs {c}",
                plan.cost_ns
            );
        }
    }
}

/// rounds() is the minimal r with (m+1)^r >= n.
#[test]
fn rounds_minimal() {
    let mut rng = SplitMixRng::seed_from_u64(0xC004);
    for _ in 0..CASES {
        let n = rng.range_usize(1, 10_000);
        let m = rng.range_usize(1, 64);
        let r = rounds(n, m);
        assert!((m as u128 + 1).pow(r as u32) >= n as u128);
        if r > 0 {
            assert!((m as u128 + 1).pow(r as u32 - 1) < n as u128);
        }
    }
}

/// MinMax composition preserves the envelope ordering.
#[test]
fn minmax_composition() {
    let mut rng = SplitMixRng::seed_from_u64(0xC005);
    for _ in 0..CASES {
        let a = range_f64(&mut rng, 0.0, 1e6);
        let b = range_f64(&mut rng, 0.0, 1e6);
        let c = range_f64(&mut rng, 0.0, 1e6);
        let d = range_f64(&mut rng, 0.0, 1e6);
        let x = MinMax::new(a.min(b), a.max(b));
        let y = MinMax::new(c.min(d), c.max(d));
        let sum = x.add(y);
        assert!(sum.best <= sum.worst);
        let mx = x.max(y);
        assert!(mx.best <= mx.worst);
        assert!(mx.worst >= x.worst && mx.worst >= y.worst);
    }
}

/// Sort model: cost grows with input size and never goes negative;
/// the latency basis dominates the bandwidth basis at scale.
#[test]
fn sortmodel_sane() {
    let mut rng = SplitMixRng::seed_from_u64(0xC006);
    for _ in 0..CASES {
        let threads_pow = rng.range_u32(0, 7);
        let size_pow = rng.range_u32(10, 28);
        let model = CapabilityModel::paper_reference();
        let sm = SortModel::new(&model, "DRAM");
        let threads = 1usize << threads_pow;
        let bytes = 1u64 << size_pow;
        let bw = sm.sort_seconds(bytes, threads, CostBasis::Bandwidth);
        let lat = sm.sort_seconds(bytes, threads, CostBasis::Latency);
        assert!(bw >= 0.0 && lat >= 0.0);
        assert!(
            lat >= bw * 0.9,
            "latency basis must not undercut bandwidth: {lat} vs {bw}"
        );
        let bigger = sm.sort_seconds(bytes * 4, threads, CostBasis::Bandwidth);
        assert!(bigger > bw, "4x input must cost more: {bigger} vs {bw}");
    }
}
