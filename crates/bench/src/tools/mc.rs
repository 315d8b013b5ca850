//! `knl mc` — exhaustive explicit-state model checker for the coherence
//! protocol tables (DESIGN.md §5h).
//!
//! Enumerates every reachable (directory entry × per-cache line state ×
//! symbolic currency) configuration of a bounded system and checks the
//! shipped transition table — the *same* `protocol::transition` the
//! simulator executes — under each protocol for structural soundness, SWMR,
//! data-value currency, and quiescence. With `--mutants` it runs the
//! mutation-kill gate (`modelcheck::kill`) on every catalogued
//! single-transition defect: the sweep must kill it with a minimal
//! counterexample that replays on a full `Machine` to a runtime
//! `CoherenceChecker` panic. Exit status is non-zero on any violation,
//! surviving mutant, failed replay, or cross-protocol divergence.

use std::ops::RangeInclusive;
use std::process::exit;
use std::str::FromStr;

use crate::flags::{self, Arg, Flag, Stop};
use knl_arch::ProtocolKind;
use knl_sim::modelcheck::{
    check, cross_protocol_equivalence, format_trace, kill, EquivConfig, KillFailure, McConfig,
};
use knl_sim::mutation::Mutation;

const USAGE: &str = "\
usage: knl mc [flags]

Exhaustively model-check the coherence protocol tables over a bounded
system and (optionally) the mutation-kill matrix and the cross-protocol
observational-equivalence sweep.";

#[derive(Debug, PartialEq)]
struct Args {
    protocols: Vec<ProtocolKind>,
    mc: McConfig,
    mutants: bool,
    equiv: bool,
    depth: usize,
}

/// Parse a bound into its field's own type and hold it to the range the
/// flag documents: a value the field cannot hold is rejected instead of
/// wrapping into a legal one, and one the sweep would refuse is a usage
/// error (exit 2), not a failed check (exit 1).
fn bounded<T: FromStr + PartialOrd>(v: &str, range: RangeInclusive<T>) -> Option<T> {
    v.parse().ok().filter(|n| range.contains(n))
}

const FLAGS: &[Flag<Args>] = &[
    Flag {
        names: &["--protocol"],
        env: None,
        arg: Arg::Value("mesif|mesi|moesi|dragon|all"),
        help: "protocols to check (default all)",
        set: |a, v| {
            a.protocols = if v.eq_ignore_ascii_case("all") {
                ProtocolKind::ALL.to_vec()
            } else {
                vec![ProtocolKind::parse(v)?]
            };
            Some(())
        },
    },
    Flag {
        names: &["--caches"],
        env: None,
        arg: Arg::Value("2..=4"),
        help: "tile caches in the bounded system (default 3)",
        set: |a, v| bounded(v, 2..=4).map(|n| a.mc.caches = n),
    },
    Flag {
        names: &["--lines"],
        env: None,
        arg: Arg::Value("1..=4"),
        help: "directory lines (default 2)",
        set: |a, v| bounded(v, 1..=4).map(|n| a.mc.lines = n),
    },
    Flag {
        names: &["--max-states"],
        env: None,
        arg: Arg::Value("N"),
        help: "state budget per sweep (default 2000000)",
        set: |a, v| v.parse().ok().map(|n| a.mc.max_states = n),
    },
    Flag {
        names: &["--mutants"],
        env: None,
        arg: Arg::Switch,
        help: "also run the mutation-kill matrix",
        set: |a, _| {
            a.mutants = true;
            Some(())
        },
    },
    Flag {
        names: &["--equiv"],
        env: None,
        arg: Arg::Switch,
        help: "also run the cross-protocol equivalence sweep",
        set: |a, _| {
            a.equiv = true;
            Some(())
        },
    },
    Flag {
        names: &["--depth"],
        env: None,
        arg: Arg::Value("1..=8"),
        help: "equivalence sweep depth (default 6)",
        set: |a, v| bounded(v, 1..=8).map(|n| a.depth = n),
    },
];

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, Stop> {
    let mut a = Args {
        protocols: ProtocolKind::ALL.to_vec(),
        mc: McConfig::default(),
        mutants: false,
        equiv: false,
        depth: EquivConfig::default().depth,
    };
    flags::parse(FLAGS, &mut a, args, |_| None, &[])?;
    Ok(a)
}

/// Say why the mutant `label` was not killed: one line, two for a
/// counterexample whose replay failed.
fn print_failure(label: &str, failure: KillFailure) {
    let (v, why) = match failure {
        KillFailure::CheckerError(e) => return println!("{label} ERROR {e}"),
        KillFailure::Survived {
            states,
            transitions,
        } => return println!("{label} SURVIVED ({states} states, {transitions} transitions)"),
        KillFailure::ReplayDidNotFire {
            violation,
            panic: None,
        } => (
            violation,
            "runtime checker did not fire on the mutated replay".to_string(),
        ),
        KillFailure::ReplayDidNotFire {
            violation,
            panic: Some(msg),
        } => (
            violation,
            format!("mutated replay panicked off-oracle: {msg}"),
        ),
        KillFailure::NotMutationSpecific { violation, panic } => (
            violation,
            format!("shipped tables also panicked on this trace: {panic}"),
        ),
    };
    println!(
        "{label} KILLED step={} by={} REPLAY-FAILED: {why}",
        v.trace.len(),
        v.class()
    );
    println!("  trace: {}", format_trace(&v.trace));
}

pub fn run(args: impl IntoIterator<Item = String>) {
    let args = flags::or_exit(parse(args), USAGE, FLAGS);
    let mut failed = false;

    println!(
        "knl-mc: {} caches x {} lines, budget {} states",
        args.mc.caches, args.mc.lines, args.mc.max_states
    );

    // Shipped-table sweep: every protocol must be violation-free and
    // quiescent over the full reachable space.
    for &kind in &args.protocols {
        match check(kind, &args.mc, None) {
            Ok(r) => match r.violation {
                None => println!(
                    "{kind}: states={} transitions={} violations=0 quiescent=yes",
                    r.states, r.transitions
                ),
                Some(v) => {
                    failed = true;
                    println!(
                        "{kind}: states={} transitions={} VIOLATION [{}]",
                        r.states, r.transitions, v.property
                    );
                    println!("  trace: {}", format_trace(&v.trace));
                }
            },
            Err(e) => {
                failed = true;
                println!("{kind}: ERROR {e}");
            }
        }
    }

    // Mutation-kill matrix: every catalogued defect must die with a
    // minimal counterexample that reproduces a runtime coherence
    // violation on the full machine.
    if args.mutants {
        // Replays panic on purpose; keep the hook from spraying traces.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (mut killed, mut total) = (0u32, 0u32);
        for &kind in &args.protocols {
            for mu in Mutation::catalog(kind) {
                total += 1;
                let label = format!("{kind}/{}", mu.name());
                match kill(kind, &args.mc, mu) {
                    Ok(v) => {
                        killed += 1;
                        println!(
                            "{label} KILLED step={} by={} replay=confirmed",
                            v.trace.len(),
                            v.class()
                        );
                    }
                    Err(f) => print_failure(&label, f),
                }
            }
        }
        std::panic::set_hook(hook);
        println!("kill rate: {killed}/{total}");
        if killed != total {
            failed = true;
        }
    }

    // Cross-protocol observational equivalence: all four protocols must
    // observe identical read values on every bounded op sequence.
    if args.equiv {
        let ec = EquivConfig {
            depth: args.depth,
            ..EquivConfig::default()
        };
        match cross_protocol_equivalence(&ec) {
            Ok(r) => match r.divergence {
                None => println!(
                    "equivalence: depth={} paths={} reads={} divergence=none",
                    ec.depth, r.paths, r.reads
                ),
                Some(v) => {
                    failed = true;
                    println!("equivalence: DIVERGENCE [{}]", v.property);
                    println!("  trace: {}", format_trace(&v.trace));
                }
            },
            Err(e) => {
                failed = true;
                println!("equivalence: ERROR {e}");
            }
        }
    }

    if failed {
        eprintln!("knl-mc: FAILED");
        exit(1);
    }
    println!("knl-mc: all checks passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Args, Stop> {
        super::parse(args.split_whitespace().map(str::to_string))
    }

    #[test]
    fn numbers_that_do_not_fit_their_field_are_errors_not_wraps() {
        let bad = "--caches 65539 | --lines 258 | --caches x | --depth | --protocol=firefly \
                   | --caches 0 | --caches 5 | --lines 0 | --lines 99 | --depth 0 | --depth 9";
        for args in bad.split('|') {
            let Err(Stop::Bad(msg)) = parse(args) else {
                panic!("{args:?} must be rejected");
            };
            let flag = args.split_whitespace().next().unwrap();
            assert!(msg.starts_with(flag.split('=').next().unwrap()), "{msg}");
        }
        let mut want = parse("").unwrap();
        assert_eq!(want.protocols, ProtocolKind::ALL);
        assert!(!want.mutants && !want.equiv);
        assert_eq!(want.mc, McConfig::default());
        assert_eq!(want.depth, EquivConfig::default().depth);
        (want.mc.caches, want.mc.lines, want.mutants) = (4, 2, true);
        let got = parse("--caches 4 --lines 2 --mutants");
        assert_eq!(got, Ok(want));
        let gone = Stop::Bad("unknown argument: --no-replay".into());
        assert_eq!(parse("--mutants --no-replay"), Err(gone));
        let a = parse("--protocol ALL --equiv --depth=3").unwrap();
        assert_eq!((a.protocols.len(), a.equiv, a.depth), (4, true, 3));
        let a = parse("--protocol=moesi").unwrap();
        assert_eq!(a.protocols, [ProtocolKind::Moesi]);
    }
}
