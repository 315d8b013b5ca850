//! Counterexample replay: the bridge between the static model checker
//! (`knl::sim::modelcheck`) and the dynamic runtime checker
//! (`knl::sim::invariants`).
//!
//! For every protocol and every catalogued mutation, the mutation-kill
//! gate (`modelcheck::kill`, the routine behind `knl mc --mutants`) must
//! find a minimal counterexample trace — and that trace, replayed on a full
//! [`Machine`](knl::sim::Machine) with the same mutation injected under
//! `--check full`, must make the runtime `CoherenceChecker` panic with a
//! coherence violation. The identical trace replayed with the shipped
//! (unmutated) tables must run clean: the model checker found a defect,
//! not a quirk of its own encoding. Every kill's step and property class
//! is pinned in `tests/golden/mutation_kills.txt`; re-bless after an
//! intentional change with
//!
//! ```text
//! KNL_UPDATE_GOLDEN=1 cargo test --test modelcheck_replay
//! ```

use std::fmt::Write;

use knl::arch::ProtocolKind;
use knl::sim::modelcheck::{kill, replay_trace, KillFailure, McConfig};
use knl::sim::mutation::Mutation;

#[path = "common/golden.rs"]
mod golden;

/// The bound the kill matrix is pinned at: 3 caches × 1 line.
const KILL_BOUND: McConfig = McConfig {
    caches: 3,
    lines: 1,
    max_states: 500_000,
};

#[test]
fn every_mutant_counterexample_replays_to_a_runtime_violation() {
    // Replaying 11 mutants × 4 protocols panics on purpose 44 times; keep
    // the default hook from spraying backtraces over the test output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut kills = String::new();
    let mut failures = Vec::new();
    for kind in ProtocolKind::ALL {
        for mu in Mutation::catalog(kind) {
            match kill(kind, &KILL_BOUND, mu) {
                Ok(v) => writeln!(
                    kills,
                    "{kind}/{} step={} by={}",
                    mu.name(),
                    v.trace.len(),
                    v.class()
                )
                .unwrap(),
                Err(f) => failures.push(format!("{kind}/{}: {f:?}", mu.name())),
            }
        }
    }
    std::panic::set_hook(prev_hook);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    golden::assert_golden("mutation_kills.txt", &kills);
}

#[test]
fn every_mutant_left_out_of_a_catalog_survives() {
    // The catalog is exactly the killable set: a defect a protocol's
    // catalog excludes must pass that protocol's sweep unseen (its
    // mechanism is absent there), so a killable defect missing from the
    // gate fails here. No replay runs for a survivor.
    let mut wrong = Vec::new();
    for kind in ProtocolKind::ALL {
        for mu in Mutation::ALL {
            if Mutation::catalog(kind).any(|c| c == mu) {
                continue;
            }
            match kill(kind, &KILL_BOUND, mu) {
                Err(KillFailure::Survived { .. }) => {}
                other => wrong.push(format!("{kind}/{}: {other:?}", mu.name())),
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn shipped_tables_replay_sample_traces_clean() {
    // A handful of hand-picked trace shapes (upgrade, migratory sharing,
    // write-back, NT-store sweep) replay clean under the full oracle for
    // every protocol — no mutation, no violation.
    use knl::sim::modelcheck::{McOp, McOpKind};
    let op = |kind, tile, line| McOp { kind, tile, line };
    let traces: Vec<Vec<McOp>> = vec![
        vec![
            op(McOpKind::Read, 0, 0),
            op(McOpKind::Read, 1, 0),
            op(McOpKind::Write, 0, 0),
            op(McOpKind::Read, 2, 0),
        ],
        vec![
            op(McOpKind::Write, 0, 0),
            op(McOpKind::Evict, 0, 0),
            op(McOpKind::Read, 1, 0),
            op(McOpKind::Write, 2, 1),
            op(McOpKind::Read, 0, 1),
        ],
        vec![
            op(McOpKind::Read, 0, 0),
            op(McOpKind::NtStore, 1, 0),
            op(McOpKind::Read, 2, 0),
            op(McOpKind::Evict, 2, 0),
            op(McOpKind::Read, 2, 0),
        ],
    ];
    for kind in ProtocolKind::ALL {
        for trace in &traces {
            replay_trace(kind, trace, None);
        }
    }
}
