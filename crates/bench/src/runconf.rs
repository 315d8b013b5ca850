//! The command line of `knl run`: sweep effort, worker count, protocol and
//! the observer flags, shared by every experiment.

use crate::analyze::AnalyzeLevel;
use crate::flags::{self, Arg, Flag, Stop};
use knl_arch::ProtocolKind;
use knl_benchsuite::{ProgressMode, SuiteParams};
use knl_sim::{CheckLevel, ObserverConfig, TelemetryConfig, TraceLevel};

/// Effort level of a regeneration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small sweeps, fast (~seconds per artifact). Default.
    Quick,
    /// The paper's sweeps (minutes per artifact).
    Paper,
}

impl Effort {
    /// The flag that selects this effort.
    pub fn flag(self) -> &'static str {
        match self {
            Effort::Quick => "--quick",
            Effort::Paper => "--paper",
        }
    }

    pub fn suite_params(self) -> SuiteParams {
        match self {
            Effort::Quick => SuiteParams::quick(),
            Effort::Paper => SuiteParams::paper(),
        }
    }

    /// Iterations for collective measurements.
    pub fn collective_iters(self) -> usize {
        match self {
            Effort::Quick => 9,
            Effort::Paper => 41,
        }
    }

    /// Thread counts for the collective figures (Figs. 6–8).
    pub fn collective_threads(self) -> Vec<usize> {
        match self {
            Effort::Quick => vec![4, 16, 64],
            Effort::Paper => vec![2, 4, 8, 16, 32, 64],
        }
    }
}

/// Parsed command line shared by every experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConf {
    /// Sweep sizes: `--quick` (default) or `--paper`.
    pub effort: Effort,
    /// Worker threads for independent sweep jobs (`--jobs N`, `KNL_JOBS`,
    /// or the machine's available parallelism). `1` forces the serial
    /// path; results are bit-identical either way.
    pub jobs: usize,
    /// Coherence checking level (`--check off|invariants|full`, or
    /// `KNL_CHECK`). A pure observer: results are bit-identical at every
    /// level; non-`off` levels panic on any protocol violation.
    pub check: CheckLevel,
    /// Structured event tracing level (`--trace-level off|summary|full`,
    /// or `KNL_TRACE`). Like `check`, a pure observer.
    pub trace: TraceLevel,
    /// Trace output path (`--trace PATH`). `--trace` without an explicit
    /// `--trace-level` implies `full`; a non-off level without a path
    /// writes `results/<label>.trace`.
    pub trace_path: Option<String>,
    /// Static workload analysis level (`--analyze off|error|warn`, or
    /// `KNL_ANALYZE`). A pure pre-pass over the programs each run
    /// executes: panics on `Error` findings (races, duplicate pins),
    /// prints warnings at `warn`; never changes results.
    pub analyze: AnalyzeLevel,
    /// Coherence protocol the simulated directories run
    /// (`--protocol mesif|mesi|moesi|dragon` or `KNL_PROTOCOL`; MESIF, the
    /// real KNL protocol, is the default).
    pub protocol: ProtocolKind,
    /// Time-resolved telemetry sampling (`--telemetry` for the default
    /// 100 µs bin, `--telemetry=off|on|N[ps|ns|us|ms]` for an explicit
    /// interval, or `KNL_TELEMETRY`). Another pure observer.
    pub telemetry: TelemetryConfig,
    /// Telemetry output path (`--telemetry-out PATH`); defaults to
    /// `results/<label>.telemetry` when sampling is on.
    pub telemetry_out: Option<String>,
    /// Sweep progress reporting on stderr (`--progress off|text|json`, or
    /// `KNL_PROGRESS`; text is the default).
    pub progress: ProgressMode,
}

impl Default for RunConf {
    /// What `knl run <id>` with no flags and no `KNL_*` variables runs.
    fn default() -> RunConf {
        RunConf {
            effort: Effort::Quick,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            check: CheckLevel::Off,
            trace: TraceLevel::Off,
            trace_path: None,
            analyze: AnalyzeLevel::Off,
            protocol: ProtocolKind::Mesif,
            telemetry: TelemetryConfig::off(),
            telemetry_out: None,
            progress: ProgressMode::Text,
        }
    }
}

/// First line of `knl run --help`.
pub const USAGE: &str = "usage: knl run <id>|all [flags]   (`knl list` shows the ids)";

const TRACE_LEVEL: &str = "--trace-level";

/// Every flag of `knl run`, declared once (see [`crate::flags`]). The
/// observers (`--check`, `--trace-level`, `--telemetry`) and the
/// `--analyze` pre-pass never change results.
pub const FLAGS: &[Flag<RunConf>] = &[
    Flag {
        names: &["--quick", "--paper", "--full"],
        env: None,
        arg: Arg::Switch,
        help: "sweep sizes: quick (default, seconds to minutes per artifact) or the\n\
               paper's (much longer; --full is --paper)",
        set: |c, v| {
            c.effort = if v == "--quick" {
                Effort::Quick
            } else {
                Effort::Paper
            };
            Some(())
        },
    },
    Flag {
        names: &["--jobs", "-j"],
        env: Some("KNL_JOBS"),
        arg: Arg::Value("N>=1"),
        help: "worker threads for independent sweep jobs (default: the available\n\
               parallelism; 1 runs serially; results are bit-identical for every N)",
        set: |c, v| v.parse().ok().filter(|&n| n >= 1).map(|n| c.jobs = n),
    },
    Flag {
        names: &["--check"],
        env: Some("KNL_CHECK"),
        arg: Arg::Value("off|invariants|full"),
        help: "coherence invariant checker / memory oracle (default off); panics on a\n\
               protocol violation",
        set: |c, v| CheckLevel::parse(v).map(|x| c.check = x),
    },
    Flag {
        names: &["--trace"],
        env: None,
        arg: Arg::Value("PATH"),
        help: "trace output file (default results/<id>.trace); implies --trace-level\n\
               full unless a level is given; aggregate with `knl trace`",
        set: |c, v| {
            c.trace_path = Some(v.to_string());
            Some(())
        },
    },
    Flag {
        names: &[TRACE_LEVEL],
        env: Some("KNL_TRACE"),
        arg: Arg::Value("off|summary|full"),
        help: "record structured protocol events (default off)",
        set: |c, v| TraceLevel::parse(v).map(|x| c.trace = x),
    },
    Flag {
        names: &["--analyze"],
        env: Some("KNL_ANALYZE"),
        arg: Arg::Value("off|error|warn"),
        help: "statically check workloads for races, flag-line sharing, shared\n\
               hardware threads and lost intervals before they run (default off);\n\
               panics on error findings",
        set: |c, v| AnalyzeLevel::parse(v).map(|x| c.analyze = x),
    },
    Flag {
        names: &["--protocol"],
        env: Some("KNL_PROTOCOL"),
        arg: Arg::Value("mesif|mesi|moesi|dragon"),
        help: "coherence protocol of the simulated tag directories (default mesif,\n\
               the real KNL's)",
        set: |c, v| ProtocolKind::parse(v).map(|x| c.protocol = x),
    },
    Flag {
        names: &["--telemetry"],
        env: Some("KNL_TELEMETRY"),
        arg: Arg::OptValue("off|on|N[ps|ns|us|ms]"),
        help: "sample time-resolved machine series per sim-time bin (default off;\n\
               on = 100us; a plain N is picoseconds)",
        set: |c, v| parse_telemetry(v).map(|x| c.telemetry = x),
    },
    Flag {
        names: &["--telemetry-out"],
        env: None,
        arg: Arg::Value("PATH"),
        help: "telemetry series file (default results/<id>.telemetry); render with\n\
               `knl report`",
        set: |c, v| {
            c.telemetry_out = Some(v.to_string());
            Some(())
        },
    },
    Flag {
        names: &["--progress"],
        env: Some("KNL_PROGRESS"),
        arg: Arg::Value("off|text|json"),
        help: "sweep progress on stderr (default text); json emits per-job timing,\n\
               utilization, ETA and straggler records in canonical job order",
        set: |c, v| {
            c.progress = match v {
                "off" => ProgressMode::Off,
                "text" | "on" => ProgressMode::Text,
                "json" => ProgressMode::Json,
                _ => return None,
            };
            Some(())
        },
    },
];

impl RunConf {
    /// Parse `knl run`'s flags against the process environment; prints the
    /// help (exit 0) or the error (exit 2) itself.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> RunConf {
        flags::or_exit(
            Self::parse(args, |var| std::env::var(var).ok()),
            USAGE,
            FLAGS,
        )
    }

    /// Parse an argument list; `env` looks up the `KNL_*` fallbacks.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<RunConf, Stop> {
        let mut conf = RunConf::default();
        let parsed = flags::parse(FLAGS, &mut conf, args, env, &[])?;
        // `--trace PATH` alone asks for the full trace; a level given on
        // the command line wins.
        if conf.trace_path.is_some()
            && conf.trace == TraceLevel::Off
            && !parsed.seen.contains(&TRACE_LEVEL)
        {
            conf.trace = TraceLevel::Full;
        }
        Ok(conf)
    }

    /// The observer set this command line asks for, as one
    /// [`ObserverConfig`] for [`knl_sim::Machine::with_observer_config`]
    /// (`--analyze` is not an observer: [`crate::sweep::machine`] installs
    /// it).
    pub fn observer_config(&self) -> ObserverConfig {
        ObserverConfig::default()
            .check(self.check)
            .trace(self.trace)
            .telemetry(self.telemetry)
    }
}

/// Parse a telemetry value: `off`, `on` (default interval), or a sim-time
/// interval with an optional `ps`/`ns`/`us`/`ms` suffix (plain numbers are
/// picoseconds).
fn parse_telemetry(v: &str) -> Option<TelemetryConfig> {
    match v {
        "off" | "0" => return Some(TelemetryConfig::off()),
        "on" => return Some(TelemetryConfig::on()),
        _ => {}
    }
    let (digits, scale) = if let Some(d) = v.strip_suffix("ps") {
        (d, 1)
    } else if let Some(d) = v.strip_suffix("ns") {
        (d, 1_000)
    } else if let Some(d) = v.strip_suffix("us") {
        (d, 1_000_000)
    } else if let Some(d) = v.strip_suffix("ms") {
        (d, 1_000_000_000)
    } else {
        (v, 1)
    };
    let n = digits.parse::<u64>().ok().filter(|&n| n >= 1)?;
    Some(TelemetryConfig::every(n.checked_mul(scale)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::telemetry::DEFAULT_INTERVAL_PS;
    use {AnalyzeLevel as An, CheckLevel as Ck, ProtocolKind as Pk, TraceLevel as Tr};

    /// Parse `args` (split at spaces) under the given environment.
    fn parse_env(args: &str, env: &[(&str, &str)]) -> Result<RunConf, Stop> {
        let lookup = |var: &str| {
            let hit = env.iter().find(|(k, _)| *k == var);
            hit.map(|(_, v)| v.to_string())
        };
        RunConf::parse(args.split_whitespace().map(str::to_string), lookup)
    }

    fn parse(args: &str) -> Result<RunConf, Stop> {
        parse_env(args, &[])
    }

    #[test]
    fn paper_is_bigger() {
        assert!(Effort::Paper.collective_iters() > Effort::Quick.collective_iters());
        assert!(
            Effort::Paper.collective_threads().len() > Effort::Quick.collective_threads().len()
        );
        assert!(Effort::Paper.suite_params().iters > Effort::Quick.suite_params().iters);
    }

    /// Arguments and what they change in the defaults.
    type Form = (&'static str, fn(&mut RunConf));

    /// Every accepted form. The rows that change nothing pin the defaults.
    const FLAG_FORMS: &[Form] = &[
        ("", |_| {}),
        ("--paper", |c| c.effort = Effort::Paper),
        ("--full", |c| c.effort = Effort::Paper),
        ("--paper --quick", |_| {}),
        ("--jobs 4", |c| c.jobs = 4),
        ("--jobs=2", |c| c.jobs = 2),
        ("-j 8", |c| c.jobs = 8),
        ("--paper --jobs 3", |c| {
            (c.effort, c.jobs) = (Effort::Paper, 3)
        }),
        ("--trace-level summary", |c| c.trace = Tr::Summary),
        ("--trace-level=full", |c| c.trace = Tr::Full),
        ("--trace-level=off", |_| {}),
        // `--trace` implies full; a level on the command line wins, in
        // either order.
        ("--trace out.trace", |c| {
            (c.trace_path, c.trace) = (Some("out.trace".into()), Tr::Full)
        }),
        ("--trace=x.trace --trace-level summary", |c| {
            (c.trace_path, c.trace) = (Some("x.trace".into()), Tr::Summary)
        }),
        ("--trace-level=off --trace=x.trace", |c| {
            c.trace_path = Some("x.trace".into())
        }),
        ("--check invariants", |c| c.check = Ck::Invariants),
        ("--check=full", |c| c.check = Ck::FullOracle),
        ("--check=off", |_| {}),
        ("--analyze error", |c| c.analyze = An::Error),
        ("--analyze=warn", |c| c.analyze = An::Warn),
        ("--analyze=on", |c| c.analyze = An::Warn),
        ("--analyze=off", |_| {}),
        ("--protocol moesi", |c| c.protocol = Pk::Moesi),
        ("--protocol=dragon", |c| c.protocol = Pk::Dragon),
        ("--protocol=MESI", |c| c.protocol = Pk::Mesi),
        ("--protocol=mesif", |_| {}),
        ("--telemetry", |c| c.telemetry = TelemetryConfig::on()),
        ("--telemetry=on", |c| c.telemetry = TelemetryConfig::on()),
        ("--telemetry=off", |_| {}),
        ("--telemetry=250", |c| c.telemetry.interval_ps = 250),
        ("--telemetry=10us", |c| c.telemetry.interval_ps = 10_000_000),
        ("--telemetry=1ms", |c| {
            c.telemetry.interval_ps = 1_000_000_000
        }),
        // Bare `--telemetry` leaves the next argument alone.
        ("--telemetry --telemetry-out t.telemetry", |c| {
            c.telemetry_out = Some("t.telemetry".into());
            c.telemetry.interval_ps = DEFAULT_INTERVAL_PS;
        }),
        ("--telemetry-out=x.telemetry", |c| {
            c.telemetry_out = Some("x.telemetry".into())
        }),
        ("--progress off", |c| c.progress = ProgressMode::Off),
        ("--progress=json", |c| c.progress = ProgressMode::Json),
        ("--progress=text", |_| {}),
    ];

    #[test]
    fn flag_forms() {
        for (args, change) in FLAG_FORMS {
            let mut want = RunConf::default();
            change(&mut want);
            assert_eq!(parse(args), Ok(want), "{args:?}");
        }
        let defaults = RunConf::default();
        assert!(defaults.jobs >= 1 && !defaults.telemetry.enabled());
        assert_eq!(defaults.observer_config(), ObserverConfig::default());
    }

    #[test]
    fn bad_arguments_rejected() {
        let bad = "--trace | --trace-level | --trace-level verbose | --trace-level=chatty \
                   | --check | --check sometimes | --check=maybe \
                   | --analyze | --analyze loudly | --analyze=deep | --analyze=info \
                   | --protocol | --protocol mosey | --protocol=firefly \
                   | --telemetry=often | --telemetry=10s | --telemetry=-5 | --telemetry-out \
                   | --telemetry=99999999999999999999ms | --progress=loud | --progress \
                   | --jobs | --jobs 0 | --jobs many | --paper=yes | table1";
        for args in bad.split('|') {
            assert!(matches!(parse(args), Err(Stop::Bad(_))), "{args:?}");
        }
        let unknown = Stop::Bad("unknown argument: --bogus".into());
        assert_eq!(parse("--bogus"), Err(unknown));
        assert_eq!(parse("--jobs 2 -h"), Err(Stop::Help));
    }

    #[test]
    fn env_values_go_through_the_flag_parsers() {
        // (row, a good value, its flag form, a bad value)
        let rows = [
            ("KNL_JOBS", "3", "--jobs=3", "0"),
            ("KNL_CHECK", "full", "--check=full", "ful"),
            ("KNL_TRACE", "summary", "--trace-level=summary", "verbose"),
            ("KNL_ANALYZE", "warn", "--analyze=warn", "deep"),
            ("KNL_PROTOCOL", "dragon", "--protocol=dragon", "firefly"),
            ("KNL_TELEMETRY", "2us", "--telemetry=2us", "often"),
            ("KNL_PROGRESS", "json", "--progress=json", "loud"),
        ];
        let with_env: Vec<&str> = FLAGS.iter().filter_map(|f| f.env).collect();
        assert_eq!(with_env, rows.map(|r| r.0), "one case per KNL_* row");
        for (var, good, flag, bad) in rows {
            assert_eq!(parse_env("", &[(var, good)]), parse(flag), "{var}");
            assert_ne!(parse(flag), parse(""), "{flag} changes something");
            let Err(Stop::Bad(msg)) = parse_env("", &[(var, bad)]) else {
                panic!("{var}={bad} must be rejected");
            };
            assert!(msg.starts_with(&format!("{var}: expects ")), "{msg}");
            assert!(msg.ends_with(&format!("got {bad:?}")), "{msg}");
        }
        // The command line overrides the environment; only a level given
        // there keeps `--trace PATH` from implying full.
        let c = parse_env("--check=off", &[("KNL_CHECK", "full")]).unwrap();
        assert_eq!(c.check, Ck::Off);
        let c = parse_env("--trace=t", &[("KNL_TRACE", "off")]).unwrap();
        assert_eq!(c.trace, Tr::Full);
        let c = parse_env("--trace=t", &[("KNL_TRACE", "summary")]).unwrap();
        assert_eq!(c.trace, Tr::Summary);
    }

    #[test]
    fn observer_config_carries_telemetry() {
        let c = parse("--telemetry=2us").unwrap();
        assert_eq!(c.observer_config().telemetry.interval_ps, 2_000_000);
    }

    #[test]
    fn help_names_every_row() {
        let text = flags::help(USAGE, FLAGS);
        assert!(text.starts_with(USAGE));
        for f in FLAGS {
            let operand = match f.arg {
                Arg::Switch => "",
                Arg::Value(what) | Arg::OptValue(what) => what,
            };
            let (names, env) = (f.names.join("|"), f.env.unwrap_or(""));
            for part in [&names, operand, env, f.help.lines().next().unwrap()] {
                assert!(text.contains(part), "{part} missing from --help");
            }
        }
    }
}
