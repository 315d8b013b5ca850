//! `knl` — the one front door: `knl run <id>|all [flags]` regenerates the
//! paper's tables and figures from the experiment registry, `knl list`
//! prints it, and `knl trace|report|mc|provenance` are the tools.

use knl_bench::experiments::{self, EXPERIMENTS};
use knl_bench::runconf::RunConf;
use knl_bench::tools;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;

const USAGE: &str = "\
usage: knl run <id>|all [flags]   regenerate one table/figure, or all in order
       knl list                   the experiment ids and what they regenerate
       knl trace TRACE [flags]    aggregate a trace file into a text report
       knl report TELEMETRY [flags]   render a telemetry series as a dashboard
       knl mc [flags]             model-check the coherence protocol tables
       knl provenance [--regen]   check results/ against results/INDEX
`knl <subcommand> --help` lists a subcommand's flags.";

/// Exit 2 with `problem`, the usage and the experiment ids.
fn usage_error(problem: &str) -> ! {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    eprintln!("{problem}\n\n{USAGE}\n\nids: {}", ids.join(" "));
    exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        usage_error("missing subcommand");
    };
    match command.as_str() {
        "run" => run(args),
        "list" => {
            no_more(args);
            for e in EXPERIMENTS {
                println!("{:<18}{:<19}{}", e.id, e.paper_ref, e.about);
            }
        }
        "trace" => tools::trace::run(args),
        "report" => tools::report::run(args),
        "mc" => tools::mc::run(args),
        "provenance" => tools::provenance::run(args),
        "-h" | "--help" => {
            no_more(args);
            println!("{USAGE}");
        }
        other => usage_error(&format!("unknown subcommand: {other}")),
    }
}

/// A subcommand that takes no arguments refuses any it is given.
fn no_more(mut args: impl Iterator<Item = String>) {
    if let Some(extra) = args.next() {
        usage_error(&format!("unknown argument: {extra}"));
    }
}

/// `knl run <id>|all [flags]`: the flags are parsed once; `all` walks the
/// registry in this process, and an experiment that panics does not stop
/// the ones after it.
fn run(args: impl Iterator<Item = String>) {
    // The id comes first; `knl run --help` has none to take.
    let mut args = args.peekable();
    let id = args.next_if(|a| !a.starts_with('-')).unwrap_or_default();
    let conf = RunConf::from_args(args);
    if id != "all" {
        return match experiments::find(&id) {
            Some(exp) => experiments::run(exp, &conf),
            None => usage_error(&format!("unknown experiment: {id:?}")),
        };
    }
    let mut failed = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n######## {} ########", exp.id);
        if catch_unwind(AssertUnwindSafe(|| experiments::run(exp, &conf))).is_err() {
            failed.push(exp.id);
        }
    }
    if failed.is_empty() {
        println!("\nall experiments completed; CSVs under results/");
    } else {
        eprintln!("\nFAILED: {failed:?}");
        exit(1);
    }
}
