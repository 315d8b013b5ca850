//! The Eq. 1 optimizer's answers, pinned as data.
//!
//! For three capability models — the paper's own numbers
//! (`paper_reference()`) and the models fitted from the checked-in
//! calibration snapshots `tests/golden/suite_quadrant_{flat,cache}.json` —
//! every participant count 1..=64 and both tree kinds, one line:
//!
//! ```text
//! <model> <kind> n=<n> cost=<bits> env=<best bits>..<worst bits> tree=<shape>
//! ```
//!
//! Costs are the `f64` bit patterns in hex (a tie one ulp apart decides a
//! shape, so nothing is rounded), the envelope is `predict_broadcast` /
//! `predict_reduce`, and the shape is `Tree::compact`. The file
//! `tests/golden/tree_plans.txt` was blessed from the optimizer that
//! re-solved the whole DP on every call; any byte of drift is a changed
//! plan. Regenerate after an *intentional* change to Eq. 1 with
//!
//! ```text
//! KNL_UPDATE_GOLDEN=1 cargo test --test tree_plans
//! ```
//!
//! and review the diff like source.

use knl::benchsuite::decode_suite;
use knl::model::predict::{predict_broadcast, predict_reduce};
use knl::model::{optimize_tree, CapabilityModel, TreeKind};
use std::fmt::Write as _;
use std::path::PathBuf;

const MAX_N: usize = 64;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn fitted(snapshot: &str) -> CapabilityModel {
    let text = std::fs::read_to_string(golden(snapshot)).expect("calibration snapshot is present");
    CapabilityModel::from_suite(&decode_suite(&text).expect("calibration snapshot parses"))
}

fn plans() -> String {
    let models = [
        ("paper", CapabilityModel::paper_reference()),
        ("quadrant-flat", fitted("suite_quadrant_flat.json")),
        ("quadrant-cache", fitted("suite_quadrant_cache.json")),
    ];
    let mut out = String::new();
    for (name, model) in &models {
        for (kind, label) in [
            (TreeKind::Broadcast, "broadcast"),
            (TreeKind::Reduce, "reduce"),
        ] {
            for n in 1..=MAX_N {
                let plan = optimize_tree(model, n, kind);
                assert_eq!((plan.kind, plan.n), (kind, n));
                let env = match kind {
                    TreeKind::Broadcast => predict_broadcast(model, n),
                    TreeKind::Reduce => predict_reduce(model, n),
                };
                writeln!(
                    out,
                    "{name} {label} n={n} cost={:016x} env={:016x}..{:016x} tree={}",
                    plan.cost_ns.to_bits(),
                    env.best.to_bits(),
                    env.worst.to_bits(),
                    plan.tree.compact(),
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn tree_plans_match_the_golden_file() {
    let path = golden("tree_plans.txt");
    let plans = plans();
    if std::env::var_os("KNL_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &plans).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `KNL_UPDATE_GOLDEN=1 cargo test --test tree_plans` to create it",
            path.display()
        )
    });
    for (n, (got, want)) in plans.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "tree plan drifted at line {}", n + 1);
    }
    assert_eq!(
        plans.lines().count(),
        golden.lines().count(),
        "row count drifted"
    );
}
