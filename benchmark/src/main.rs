//! The repo benchmark (see `README.md` beside this crate and `BENCHMARK.json`
//! at the repository root).
//!
//! ```text
//! knl-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! knl-benchmark --all           [--seed N] [--seconds S]               [--smoke] [--out FILE]
//! knl-benchmark --compare A.json B.json
//! ```

mod compare;
mod harness;
mod probes;
mod run;
mod schema;
mod workloads;

use knl_stats::json::Json;
use std::process::ExitCode;

/// Seed used when `--seed` is absent (the suite's own default).
const DEFAULT_SEED: u64 = 0xBE7C;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub all: bool,
    pub compare: Option<(String, String)>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<String>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        compare: None,
        seed: DEFAULT_SEED,
        seconds: schema::run_seconds(),
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = Some(value()?),
            "--out" => args.out = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = parse_u64(&v).ok_or(format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes = [args.all, args.workload.is_some(), args.compare.is_some()];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of --all, --workload NAME, --compare A B".into());
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; known: {}",
                workloads::NAMES.join(" ")
            ));
        }
    }
    Ok(args)
}

/// Run every workload as a child process — so `peak_rss_mb` is per workload —
/// untraced, then traced, and merge the children's result files.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let tmp = harness::TempDir::create("all").map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut correct = true;
    for name in workloads::NAMES {
        for trace in ["0", "1"] {
            let out = tmp.path().join(format!("{name}.{trace}.json"));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&out);
            if args.smoke {
                cmd.arg("--smoke");
            }
            println!("== {name} (trace {trace}) ==");
            let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
            correct &= status.success();
            let text = std::fs::read_to_string(&out).map_err(|e| format!("{name}: {e}"))?;
            runs.push(Json::parse(&text).ok_or(format!("{name}: unreadable result file"))?);
        }
    }
    if let Some(path) = &args.out {
        let doc = Json::obj(vec![
            ("format", Json::Str(run::FORMAT.to_string())),
            ("fingerprint", harness::fingerprint()),
            ("runs", Json::Arr(runs)),
        ]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "all: {} workloads, correct: {correct}",
        workloads::NAMES.len()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("knl-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare::compare_files(a, b)
    } else if args.all {
        run_all(&args)
    } else {
        run::run_workload(&args)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("knl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv("--workload mem_fig9 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("mem_fig9"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 10.0, true, false)
        );
        let d = parse_args(&argv("--all")).unwrap();
        assert_eq!((d.seed, d.seconds), (DEFAULT_SEED, schema::run_seconds()));
        assert_eq!(parse_args(&argv("--all --seed 0x10")).unwrap().seed, 16);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--all --workload mem_fig9",
            "--workload nope",
            "--workload mem_fig9 --trace 2",
            "--workload mem_fig9 --seconds 0",
            "--workload mem_fig9 --seed",
            "--compare a.json",
            "--all --shards 4",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }
}
