//! Counterexample replay: the bridge between the static model checker
//! (`knl::sim::modelcheck`) and the dynamic runtime checker
//! (`knl::sim::invariants`).
//!
//! For every protocol and every catalogued mutation, `knl mc` must find a
//! minimal counterexample trace — and that trace, replayed on a full
//! [`Machine`](knl::sim::Machine) with the same mutation injected under
//! `--check full`, must make the runtime `CoherenceChecker` panic with a
//! coherence violation. The identical trace replayed with the shipped
//! (unmutated) tables must run clean: the model checker found a defect,
//! not a quirk of its own encoding.

use std::panic::{catch_unwind, AssertUnwindSafe};

use knl::arch::{ClusterMode, MachineConfig, MemoryMode, ProtocolKind};
use knl::sim::fuzz::replay_trace;
use knl::sim::modelcheck::{check, format_trace, McConfig};
use knl::sim::mutation::Mutation;
use knl::sim::CheckLevel;

fn replay_cfg(kind: ProtocolKind) -> MachineConfig {
    MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat).with_protocol(kind)
}

/// Run `f`, expecting a panic; return the panic payload as a string.
fn expect_panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let err = catch_unwind(f).expect_err("expected a runtime coherence panic");
    if let Some(s) = err.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = err.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        String::from("<non-string panic payload>")
    }
}

#[test]
fn every_mutant_counterexample_replays_to_a_runtime_violation() {
    // Replaying 11 mutants × 4 protocols panics on purpose 44 times; keep
    // the default hook from spraying backtraces over the test output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mc = McConfig {
        caches: 3,
        lines: 1,
        max_states: 500_000,
    };
    let mut result: Result<(), String> = Ok(());
    for kind in ProtocolKind::ALL {
        for mu in Mutation::catalog(kind) {
            let report = match check(kind, &mc, Some(mu)) {
                Ok(r) => r,
                Err(e) => {
                    result = Err(format!("{kind:?}/{}: checker error: {e}", mu.name()));
                    break;
                }
            };
            let Some(violation) = report.violation else {
                result = Err(format!("{kind:?}/{}: mutant survived the sweep", mu.name()));
                break;
            };
            let trace = violation.trace.clone();

            // The mutated machine must die with a coherence violation…
            let cfg = replay_cfg(kind);
            let t = trace.clone();
            let msg = expect_panic_message(AssertUnwindSafe(move || {
                replay_trace(&cfg, &t, CheckLevel::FullOracle, Some(mu));
            }));
            if !msg.contains("coherence violation") {
                result = Err(format!(
                    "{kind:?}/{}: replay of `{}` panicked without a coherence \
                     violation: {msg}",
                    mu.name(),
                    format_trace(&trace),
                ));
                break;
            }

            // …and the same trace on the shipped tables must run clean.
            let cfg = replay_cfg(kind);
            let t = trace.clone();
            if let Err(err) = catch_unwind(AssertUnwindSafe(move || {
                replay_trace(&cfg, &t, CheckLevel::FullOracle, None);
            })) {
                let msg = err
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_else(|| String::from("<non-string panic payload>"));
                result = Err(format!(
                    "{kind:?}/{}: counterexample `{}` is not mutation-specific; \
                     shipped tables also panicked: {msg}",
                    mu.name(),
                    format_trace(&trace),
                ));
                break;
            }
        }
        if result.is_err() {
            break;
        }
    }

    std::panic::set_hook(prev_hook);
    if let Err(e) = result {
        panic!("{e}");
    }
}

#[test]
fn shipped_tables_replay_sample_traces_clean() {
    // A handful of hand-picked trace shapes (upgrade, migratory sharing,
    // write-back, NT-store sweep) replay clean under the full oracle for
    // every protocol — no mutation, no violation.
    use knl::sim::modelcheck::{McOp, McOpKind};
    let op = |kind, tile, line| McOp { kind, tile, line };
    let traces: Vec<Vec<knl::sim::modelcheck::McOp>> = vec![
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
            replay_trace(&replay_cfg(kind), trace, CheckLevel::FullOracle, None);
        }
    }
}
