//! `knl-mc` — exhaustive explicit-state model checker for the coherence
//! protocol tables (DESIGN.md §5h).
//!
//! Enumerates every reachable (directory entry × per-cache line state ×
//! symbolic currency) configuration of a bounded system and checks the
//! shipped transition table — the *same* `protocol::transition` the
//! simulator executes — under each protocol for structural soundness, SWMR, data-value currency, and quiescence. With `--mutants`
//! it injects every catalogued single-transition defect and requires the
//! sweep to kill each one with a minimal counterexample, then replays that
//! counterexample on a full `Machine` to confirm the runtime
//! `CoherenceChecker` fires too. Exit status is non-zero on any violation,
//! surviving mutant, failed replay, or cross-protocol divergence.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;

use knl_arch::{ClusterMode, MachineConfig, MemoryMode, ProtocolKind};
use knl_sim::fuzz::replay_trace;
use knl_sim::modelcheck::{check, cross_protocol_equivalence, format_trace, EquivConfig, McConfig};
use knl_sim::mutation::Mutation;
use knl_sim::CheckLevel;

const USAGE: &str = "\
usage: knl-mc [options]

Exhaustively model-check the coherence protocol tables over a bounded
system and (optionally) the mutation-kill matrix and the cross-protocol
observational-equivalence sweep.

options:
  --protocol P   mesif | mesi | moesi | dragon | all   (default all)
  --caches N     tile caches in the bounded system, 2..=4 (default 3)
  --lines N      directory lines, 1..=4                 (default 2)
  --max-states N state budget per sweep (default 2000000)
  --mutants      also run the mutation-kill matrix
  --no-replay    with --mutants: skip the runtime counterexample replay
  --equiv        also run the cross-protocol equivalence sweep
  --depth D      equivalence sweep depth, 1..=8         (default 6)
  -h, --help     this text
";

struct Args {
    protocols: Vec<ProtocolKind>,
    mc: McConfig,
    mutants: bool,
    replay: bool,
    equiv: bool,
    depth: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        protocols: ProtocolKind::ALL.to_vec(),
        mc: McConfig::default(),
        mutants: false,
        replay: true,
        equiv: false,
        depth: EquivConfig::default().depth,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n\n{USAGE}");
                exit(2);
            })
        };
        let parse_num = |flag: &str, v: String| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} needs an integer, got {v:?}\n\n{USAGE}");
                exit(2);
            })
        };
        match a.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                exit(0);
            }
            "--protocol" => {
                let v = value("--protocol");
                if v.eq_ignore_ascii_case("all") {
                    args.protocols = ProtocolKind::ALL.to_vec();
                } else {
                    match ProtocolKind::parse(&v) {
                        Some(p) => args.protocols = vec![p],
                        None => {
                            eprintln!("unknown protocol {v:?}\n\n{USAGE}");
                            exit(2);
                        }
                    }
                }
            }
            "--caches" => args.mc.caches = parse_num("--caches", value("--caches")) as u16,
            "--lines" => args.mc.lines = parse_num("--lines", value("--lines")) as u8,
            "--max-states" => {
                args.mc.max_states = parse_num("--max-states", value("--max-states")) as usize;
            }
            "--mutants" => args.mutants = true,
            "--no-replay" => args.replay = false,
            "--equiv" => args.equiv = true,
            "--depth" => args.depth = parse_num("--depth", value("--depth")) as usize,
            other => {
                eprintln!("unknown option {other:?}\n\n{USAGE}");
                exit(2);
            }
        }
    }
    args
}

/// Short label for the property class a violation was caught by.
fn property_class(property: &str) -> &'static str {
    if property.starts_with("structural") {
        "structural"
    } else if property.starts_with("swmr") {
        "swmr"
    } else if property.starts_with("version") {
        "version"
    } else if property.starts_with("value") {
        "value"
    } else {
        "liveness"
    }
}

fn replay_cfg(kind: ProtocolKind) -> MachineConfig {
    MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat).with_protocol(kind)
}

/// Replay a counterexample on the full machine: the mutated run must panic
/// with a coherence violation and the shipped tables must run it clean.
fn replay_confirms(
    kind: ProtocolKind,
    mu: Mutation,
    trace: &[knl_sim::modelcheck::McOp],
) -> Result<(), String> {
    let cfg = replay_cfg(kind);
    let t = trace.to_vec();
    let mutated = catch_unwind(AssertUnwindSafe(move || {
        replay_trace(&cfg, &t, CheckLevel::FullOracle, Some(mu));
    }));
    match mutated {
        Ok(_) => return Err("runtime checker did not fire on the mutated replay".into()),
        Err(err) => {
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            if !msg.contains("coherence violation") {
                return Err(format!("mutated replay panicked off-oracle: {msg}"));
            }
        }
    }
    let cfg = replay_cfg(kind);
    let t = trace.to_vec();
    catch_unwind(AssertUnwindSafe(move || {
        replay_trace(&cfg, &t, CheckLevel::FullOracle, None);
    }))
    .map_err(|_| String::from("shipped tables also panicked on this trace"))?;
    Ok(())
}

fn main() {
    let args = parse_args();
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
    // minimal counterexample, and (unless --no-replay) that trace must
    // reproduce a runtime coherence violation on the full machine.
    if args.mutants {
        // Replays panic on purpose; keep the hook from spraying traces.
        let hook = std::panic::take_hook();
        if args.replay {
            std::panic::set_hook(Box::new(|_| {}));
        }
        let (mut killed, mut total) = (0u32, 0u32);
        for &kind in &args.protocols {
            for mu in Mutation::catalog(kind) {
                total += 1;
                let label = format!("{kind}/{}", mu.name());
                match check(kind, &args.mc, Some(mu)) {
                    Ok(r) => match r.violation {
                        Some(v) => {
                            let replay = if args.replay {
                                match replay_confirms(kind, mu, &v.trace) {
                                    Ok(()) => "confirmed",
                                    Err(e) => {
                                        failed = true;
                                        println!(
                                            "{label} KILLED step={} by={} REPLAY-FAILED: {e}",
                                            v.trace.len(),
                                            property_class(&v.property)
                                        );
                                        println!("  trace: {}", format_trace(&v.trace));
                                        continue;
                                    }
                                }
                            } else {
                                "skipped"
                            };
                            killed += 1;
                            println!(
                                "{label} KILLED step={} by={} replay={replay}",
                                v.trace.len(),
                                property_class(&v.property)
                            );
                        }
                        None => {
                            failed = true;
                            println!(
                                "{label} SURVIVED ({} states, {} transitions)",
                                r.states, r.transitions
                            );
                        }
                    },
                    Err(e) => {
                        failed = true;
                        println!("{label} ERROR {e}");
                    }
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
