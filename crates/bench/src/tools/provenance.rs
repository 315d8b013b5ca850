//! `knl provenance [--regen]`: check `results/` against its INDEX (see
//! [`crate::provenance`]); each problem is one stderr line, and exit 1.

use crate::experiments::{self, EXPERIMENTS};
use crate::output::results_dir;
use crate::provenance::{parse_command, problems, read_index, Index, INDEX};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;

const USAGE: &str = "usage: knl provenance [--regen]   check results/ against results/INDEX;
  --regen re-runs every recorded command into a scratch dir and checks that";

pub fn run(args: impl IntoIterator<Item = String>) {
    let regen = match &args.into_iter().collect::<Vec<_>>()[..] {
        [] => false,
        [a] if a == "--regen" => true,
        [a] if a == "--help" || a == "-h" => return println!("{USAGE}"),
        other => {
            eprintln!("unknown arguments: {other:?}\n{USAGE}");
            exit(2);
        }
    };
    let results = results_dir();
    let found = match read_index(&results.join(INDEX)) {
        Ok(lines) if regen => regenerate(&lines),
        Ok(lines) => problems(&lines, &results),
        Err(e) => vec![e],
    };
    found.iter().for_each(|problem| eprintln!("{problem}"));
    if !found.is_empty() {
        eprintln!("provenance: {} problem(s)", found.len());
        exit(1);
    }
    eprintln!("every artifact matches {}", results.join(INDEX).display());
}

/// Run each distinct recorded command once, in registry order, into a fresh
/// scratch results dir (removed if it matches), and check the INDEX there.
fn regenerate(lines: &Index) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("knl-regen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("regenerating into {}", dir.display());
    std::env::set_var("KNL_RESULTS_DIR", &dir);
    let commands: BTreeSet<&str> = lines.values().map(|(_, c)| c.as_str()).collect();
    for exp in EXPERIMENTS {
        for &command in commands
            .iter()
            .filter(|c| c.split(' ').next() == Some(exp.id))
        {
            let (_, conf) = parse_command(command).expect("read_index parsed it");
            eprintln!("knl run {command}");
            if catch_unwind(AssertUnwindSafe(|| experiments::run(exp, &conf))).is_err() {
                eprintln!("knl run {command}: panicked");
            }
        }
    }
    let found = problems(lines, &dir);
    if found.is_empty() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    found
}
