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
//! surviving mutant, or failed replay.
//!
//! The data-value property makes every read observe the latest write under
//! each protocol, so a clean sweep also proves that all four protocols
//! observe identical read values.

use std::ops::RangeInclusive;
use std::process::exit;
use std::str::FromStr;

use crate::flags::{self, Arg, Flag, Stop};
use crate::modelcheck::{check, format_trace, kill, KillFailure, McConfig};
use crate::mutation::Mutation;
use knl_arch::ProtocolKind;

const USAGE: &str = "\
usage: knl mc [flags]

Exhaustively model-check the coherence protocol tables over a bounded
system, and (optionally) run the mutation-kill matrix. A clean sweep proves
every read observes the latest write, so all protocols observe identical
values.";

#[derive(Debug, PartialEq)]
struct Args {
    protocols: Vec<ProtocolKind>,
    mc: McConfig,
    mutants: bool,
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
];

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, Stop> {
    let mut a = Args {
        protocols: ProtocolKind::ALL.to_vec(),
        mc: McConfig::default(),
        mutants: false,
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
        let bad = "--caches 65539 | --lines 258 | --caches x | --protocol=firefly \
                   | --caches 0 | --caches 5 | --lines 0 | --lines 99 \
                   | --max-states -1 | --lines";
        for args in bad.split('|') {
            let Err(Stop::Bad(msg)) = parse(args) else {
                panic!("{args:?} must be rejected");
            };
            let flag = args.split_whitespace().next().unwrap();
            assert!(msg.starts_with(flag.split('=').next().unwrap()), "{msg}");
        }
        let mut want = parse("").unwrap();
        assert_eq!(want.protocols, ProtocolKind::ALL);
        assert!(!want.mutants);
        assert_eq!(want.mc, McConfig::default());
        (want.mc.caches, want.mc.lines, want.mutants) = (4, 2, true);
        let got = parse("--caches 4 --lines 2 --mutants");
        assert_eq!(got, Ok(want));
        for gone in ["--no-replay", "--equiv", "--depth"] {
            let want = Stop::Bad(format!("unknown argument: {gone}"));
            assert_eq!(parse(&format!("--mutants {gone} 3")), Err(want));
        }
        let a = parse("--protocol ALL").unwrap();
        assert_eq!(a.protocols, ProtocolKind::ALL);
        let a = parse("--protocol=moesi").unwrap();
        assert_eq!(a.protocols, [ProtocolKind::Moesi]);
    }
}
