//! `knl-bench-record` — run the full `simulator_throughput` suite, write
//! the results as a `BENCH_<pr>.json` trajectory, and diff against the
//! previous recorded trajectory (DESIGN.md §6).
//!
//! The trajectory file is canonical JSON from `knl_stats::json` (sorted
//! keys, shortest-round-trip floats), so re-rendering an unchanged run is
//! byte-identical and checked-in trajectories diff cleanly.
//!
//! Regressions (a case slower than baseline by more than `--threshold`)
//! are warnings by default, because ns-scale medians on a shared runner
//! are noisy; set `KNL_BENCH_STRICT=1` to make them fatal (exit 1), which
//! is what the CI bench-record job does on the dedicated runner.

use knl_bench::benchcases::{simulator_throughput_suite, SUITE};
use knl_bench::microbench::{
    diff_trajectories, measure, parse_trajectory, report, trajectory_json, BenchResult,
};
use knl_stats::json::Json;
use std::path::{Path, PathBuf};
use std::process::exit;

const USAGE: &str = "\
usage: knl-bench-record [options]

Run the simulator_throughput suite, write BENCH_<pr>.json, and diff
against the previous trajectory.

options:
  --pr N           trajectory number (default 13); names the output file
  --out PATH       output path (default BENCH_<pr>.json in the repo root)
  --baseline PATH  previous trajectory to diff against (default: the
                   highest-numbered BENCH_*.json below --pr next to the
                   output file; none found means no diff)
  --threshold F    slowdown fraction that counts as a regression
                   (default 0.25, i.e. >25% slower than baseline)
  -h, --help       this text

environment:
  KNL_BENCH_STRICT=1  exit 1 on regression instead of warning
  KNL_BENCH_BATCH=N   fixed timing batch size (CI reproducibility)
";

struct Args {
    pr: u64,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    threshold: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        pr: 13,
        out: None,
        baseline: None,
        threshold: 0.25,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n\n{USAGE}");
                exit(2);
            })
        };
        match a.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                exit(0);
            }
            "--pr" => {
                args.pr = value("--pr").parse().unwrap_or_else(|_| {
                    eprintln!("--pr needs an integer\n\n{USAGE}");
                    exit(2);
                });
            }
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline"))),
            "--threshold" => {
                args.threshold = value("--threshold").parse().unwrap_or_else(|_| {
                    eprintln!("--threshold needs a number\n\n{USAGE}");
                    exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?}\n\n{USAGE}");
                exit(2);
            }
        }
    }
    args
}

/// The highest-numbered `BENCH_<n>.json` with `n < pr` in `dir`.
fn find_baseline(dir: &Path, pr: u64) -> Option<PathBuf> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let path = entry.path();
        let Some(n) = path
            .file_name()
            .and_then(|s| s.to_str())
            .and_then(|s| s.strip_prefix("BENCH_"))
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if n < pr && best.as_ref().is_none_or(|(b, _)| n > *b) {
            best = Some((n, path));
        }
    }
    best.map(|(_, p)| p)
}

fn load_trajectory(path: &Path) -> Option<Vec<BenchResult>> {
    let text = std::fs::read_to_string(path).ok()?;
    parse_trajectory(&Json::parse(&text)?)
}

fn main() {
    let args = parse_args();
    let out = args
        .out
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", args.pr)));

    let mut results = Vec::new();
    for mut c in simulator_throughput_suite() {
        let ns = measure(&mut c.run);
        report(c.group, c.name, ns, c.bytes);
        results.push(BenchResult {
            group: c.group.to_string(),
            name: c.name.to_string(),
            ns_per_iter: ns,
            bytes: c.bytes,
        });
    }

    let doc = trajectory_json(args.pr, SUITE, &results);
    let rendered = format!("{}\n", doc.render());
    if let Err(e) = std::fs::write(&out, &rendered) {
        eprintln!("error: cannot write {}: {e}", out.display());
        exit(1);
    }
    println!("\nwrote {} ({} cases)", out.display(), results.len());

    let baseline = args.baseline.or_else(|| {
        let dir = out.parent().filter(|p| !p.as_os_str().is_empty());
        find_baseline(dir.unwrap_or(Path::new(".")), args.pr)
    });
    let Some(baseline) = baseline else {
        println!("no previous BENCH_*.json trajectory found; skipping diff");
        return;
    };
    let Some(old) = load_trajectory(&baseline) else {
        eprintln!(
            "warning: {} is not a readable trajectory; skipping diff",
            baseline.display()
        );
        return;
    };

    println!("\ndiff vs {}:", baseline.display());
    let deltas = diff_trajectories(&old, &results);
    let mut regressions = Vec::new();
    for d in &deltas {
        let pct = (d.ratio() - 1.0) * 100.0;
        let flag = if d.ratio() > 1.0 + args.threshold {
            regressions.push(d.key.clone());
            "  <-- REGRESSION"
        } else {
            ""
        };
        println!(
            "  {:45} {:12.1} -> {:12.1} ns/iter  {pct:+7.1}%{flag}",
            d.key, d.old_ns, d.new_ns
        );
    }
    for o in &old {
        if !results.iter().any(|n| n.key() == o.key()) {
            println!(
                "  {:45} removed (was {:.1} ns/iter)",
                o.key(),
                o.ns_per_iter
            );
        }
    }
    for n in &results {
        if !old.iter().any(|o| o.key() == n.key()) {
            println!("  {:45} new ({:.1} ns/iter)", n.key(), n.ns_per_iter);
        }
    }

    if regressions.is_empty() {
        println!(
            "no regressions beyond {:.0}% threshold",
            args.threshold * 100.0
        );
    } else if std::env::var("KNL_BENCH_STRICT").as_deref() == Ok("1") {
        eprintln!(
            "error: {} case(s) regressed beyond {:.0}%: {}",
            regressions.len(),
            args.threshold * 100.0,
            regressions.join(", ")
        );
        exit(1);
    } else {
        println!(
            "warning: {} case(s) beyond {:.0}% threshold (set KNL_BENCH_STRICT=1 to fail): {}",
            regressions.len(),
            args.threshold * 100.0,
            regressions.join(", ")
        );
    }
}
