//! Command-line handling shared by the figure/table binaries.

use knl_arch::ProtocolKind;
use knl_benchsuite::{ProgressMode, SuiteParams};
use knl_sim::{AnalyzeLevel, CheckLevel, ObserverConfig, TelemetryConfig, TraceLevel};

/// Effort level of a regeneration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small sweeps, fast (~seconds per artifact). Default.
    Quick,
    /// The paper's sweeps (minutes per artifact).
    Paper,
}

impl Effort {
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

/// Parsed command line shared by every figure/table binary.
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
    /// Static workload analysis level (`--analyze off|error|warn|info`,
    /// or `KNL_ANALYZE`). A pure pre-pass over the programs each run
    /// executes: panics on `Error` findings (races, deadlocks, pairing
    /// errors), prints lower severities; never changes results.
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

impl RunConf {
    /// Parse argv; exits on `--help` or unknown arguments. The parsed
    /// configuration is registered with [`crate::provenance`] so results
    /// manifests record how their artifacts were produced.
    pub fn from_args() -> RunConf {
        let conf = Self::parse(std::env::args().skip(1)).unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(2);
        });
        crate::provenance::register_run(&conf);
        conf
    }

    /// Parse an argument list (testable core of [`from_args`]).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<RunConf, String> {
        let mut conf = RunConf {
            effort: Effort::Quick,
            jobs: knl_benchsuite::default_jobs(),
            check: default_check(),
            trace: default_trace(),
            trace_path: None,
            analyze: default_analyze(),
            protocol: default_protocol(),
            telemetry: default_telemetry(),
            telemetry_out: None,
            progress: default_progress(),
        };
        let mut explicit_level = false;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--paper" | "--full" => conf.effort = Effort::Paper,
                "--quick" => conf.effort = Effort::Quick,
                "--jobs" | "-j" => {
                    let v = args.next().ok_or("--jobs requires a value")?;
                    conf.jobs = parse_jobs(&v)?;
                }
                "--check" => {
                    let v = args.next().ok_or("--check requires a value")?;
                    conf.check = parse_check(&v)?;
                }
                "--trace" => {
                    let v = args.next().ok_or("--trace requires a path")?;
                    conf.trace_path = Some(v);
                }
                "--trace-level" => {
                    let v = args.next().ok_or("--trace-level requires a value")?;
                    conf.trace = parse_trace(&v)?;
                    explicit_level = true;
                }
                "--analyze" => {
                    let v = args.next().ok_or("--analyze requires a value")?;
                    conf.analyze = parse_analyze(&v)?;
                }
                "--protocol" => {
                    let v = args.next().ok_or("--protocol requires a value")?;
                    conf.protocol = parse_protocol(&v)?;
                }
                // Bare `--telemetry` turns sampling on at the default
                // interval; explicit values use the `--telemetry=...` form
                // so the flag composes with positional-free argv.
                "--telemetry" => conf.telemetry = TelemetryConfig::on(),
                "--telemetry-out" => {
                    let v = args.next().ok_or("--telemetry-out requires a path")?;
                    conf.telemetry_out = Some(v);
                }
                "--progress" => {
                    let v = args.next().ok_or("--progress requires a value")?;
                    conf.progress = parse_progress(&v)?;
                }
                other => {
                    if let Some(v) = other.strip_prefix("--jobs=") {
                        conf.jobs = parse_jobs(v)?;
                    } else if let Some(v) = other.strip_prefix("--check=") {
                        conf.check = parse_check(v)?;
                    } else if let Some(v) = other.strip_prefix("--trace-level=") {
                        conf.trace = parse_trace(v)?;
                        explicit_level = true;
                    } else if let Some(v) = other.strip_prefix("--trace=") {
                        conf.trace_path = Some(v.to_string());
                    } else if let Some(v) = other.strip_prefix("--analyze=") {
                        conf.analyze = parse_analyze(v)?;
                    } else if let Some(v) = other.strip_prefix("--protocol=") {
                        conf.protocol = parse_protocol(v)?;
                    } else if let Some(v) = other.strip_prefix("--telemetry=") {
                        conf.telemetry = parse_telemetry(v)?;
                    } else if let Some(v) = other.strip_prefix("--telemetry-out=") {
                        conf.telemetry_out = Some(v.to_string());
                    } else if let Some(v) = other.strip_prefix("--progress=") {
                        conf.progress = parse_progress(v)?;
                    } else if other == "--help" || other == "-h" {
                        eprintln!(
                            "usage: [--quick|--paper] [--jobs N]\n\
                             \x20       [--check LEVEL] [--trace PATH] [--trace-level LEVEL]\n\
                             \x20       [--analyze LEVEL] [--protocol NAME]\n\
                             \x20       [--telemetry[=INTERVAL]] [--telemetry-out PATH] [--progress MODE]\n\
                             \x20 quick sweeps are the default; --jobs defaults to KNL_JOBS\n\
                             \x20 or the available parallelism (--jobs 1 runs serially;\n\
                             \x20 results are bit-identical for every N)\n\
                             \x20 --check off|invariants|full (default KNL_CHECK or off)\n\
                             \x20 runs the coherence invariant checker / memory oracle;\n\
                             \x20 it never changes results, only panics on violations\n\
                             \x20 --trace-level off|summary|full (default KNL_TRACE or off)\n\
                             \x20 records structured protocol events; a pure observer,\n\
                             \x20 never changes results. --trace PATH sets the output file\n\
                             \x20 (default results/<name>.trace) and implies --trace-level\n\
                             \x20 full; aggregate with the knl-trace tool\n\
                             \x20 --analyze off|error|warn|info (default KNL_ANALYZE or off)\n\
                             \x20 statically checks workloads for races/deadlocks before\n\
                             \x20 running; a pure pre-pass, never changes results\n\
                             \x20 --protocol mesif|mesi|moesi|dragon (default KNL_PROTOCOL\n\
                             \x20 or mesif) selects the coherence protocol the simulated\n\
                             \x20 tag directories run (mesif matches the real KNL)\n\
                             \x20 --telemetry samples time-resolved machine series at the\n\
                             \x20 default 100us sim-time bin; --telemetry=off|on|N[ps|ns|us|ms]\n\
                             \x20 sets an explicit interval (default KNL_TELEMETRY or off);\n\
                             \x20 a pure observer, never changes results. --telemetry-out\n\
                             \x20 PATH sets the series file (default results/<name>.telemetry);\n\
                             \x20 render with the knl-report tool\n\
                             \x20 --progress off|text|json (default KNL_PROGRESS or text)\n\
                             \x20 selects sweep progress reporting on stderr; json emits\n\
                             \x20 structured per-job timing, utilization, ETA, and straggler\n\
                             \x20 records merged in canonical job order"
                        );
                        std::process::exit(0);
                    } else {
                        return Err(format!("unknown argument: {other}"));
                    }
                }
            }
        }
        if conf.trace_path.is_some() && !explicit_level && conf.trace == TraceLevel::Off {
            conf.trace = TraceLevel::Full;
        }
        Ok(conf)
    }

    /// The observer set this command line asks for, as one
    /// [`ObserverConfig`] for [`knl_sim::Machine::with_observer_config`].
    pub fn observer_config(&self) -> ObserverConfig {
        ObserverConfig::default()
            .check(self.check)
            .trace(self.trace)
            .analyze(self.analyze)
            .telemetry(self.telemetry)
    }
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs expects a positive integer, got {v:?}")),
    }
}

fn parse_check(v: &str) -> Result<CheckLevel, String> {
    CheckLevel::parse(v).ok_or_else(|| format!("--check expects off|invariants|full, got {v:?}"))
}

/// The `KNL_CHECK` environment default (`off` when unset or unparsable).
fn default_check() -> CheckLevel {
    std::env::var("KNL_CHECK")
        .ok()
        .and_then(|v| CheckLevel::parse(&v))
        .unwrap_or(CheckLevel::Off)
}

fn parse_trace(v: &str) -> Result<TraceLevel, String> {
    TraceLevel::parse(v).ok_or_else(|| format!("--trace-level expects off|summary|full, got {v:?}"))
}

/// The `KNL_TRACE` environment default (`off` when unset or unparsable).
fn default_trace() -> TraceLevel {
    std::env::var("KNL_TRACE")
        .ok()
        .and_then(|v| TraceLevel::parse(&v))
        .unwrap_or(TraceLevel::Off)
}

fn parse_analyze(v: &str) -> Result<AnalyzeLevel, String> {
    AnalyzeLevel::parse(v)
        .ok_or_else(|| format!("--analyze expects off|error|warn|info, got {v:?}"))
}

/// The `KNL_ANALYZE` environment default (`off` when unset or unparsable).
fn default_analyze() -> AnalyzeLevel {
    std::env::var("KNL_ANALYZE")
        .ok()
        .and_then(|v| AnalyzeLevel::parse(&v))
        .unwrap_or(AnalyzeLevel::Off)
}

fn parse_protocol(v: &str) -> Result<ProtocolKind, String> {
    ProtocolKind::parse(v)
        .ok_or_else(|| format!("--protocol expects mesif|mesi|moesi|dragon, got {v:?}"))
}

/// The `KNL_PROTOCOL` environment default (MESIF when unset or unparsable).
fn default_protocol() -> ProtocolKind {
    std::env::var("KNL_PROTOCOL")
        .ok()
        .and_then(|v| ProtocolKind::parse(&v))
        .unwrap_or(ProtocolKind::Mesif)
}

/// Parse a telemetry value: `off`, `on` (default interval), or a sim-time
/// interval with an optional `ps`/`ns`/`us`/`ms` suffix (plain numbers are
/// picoseconds).
fn parse_telemetry(v: &str) -> Result<TelemetryConfig, String> {
    let err = || format!("--telemetry expects off|on|N[ps|ns|us|ms], got {v:?}");
    match v {
        "off" | "0" => return Ok(TelemetryConfig::off()),
        "on" => return Ok(TelemetryConfig::on()),
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
    match digits.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(TelemetryConfig::every(n * scale)),
        _ => Err(err()),
    }
}

/// The `KNL_TELEMETRY` environment default (off when unset or unparsable).
fn default_telemetry() -> TelemetryConfig {
    std::env::var("KNL_TELEMETRY")
        .ok()
        .and_then(|v| parse_telemetry(&v).ok())
        .unwrap_or_default()
}

fn parse_progress(v: &str) -> Result<ProgressMode, String> {
    match v {
        "off" => Ok(ProgressMode::Off),
        "text" | "on" => Ok(ProgressMode::Text),
        "json" => Ok(ProgressMode::Json),
        _ => Err(format!("--progress expects off|text|json, got {v:?}")),
    }
}

/// The `KNL_PROGRESS` environment default (text when unset or unparsable).
fn default_progress() -> ProgressMode {
    match std::env::var("KNL_PROGRESS") {
        Ok(v) => parse_progress(&v).unwrap_or(ProgressMode::Text),
        Err(_) => ProgressMode::Text,
    }
}

/// Parse `--paper` / `--quick` from argv (quick is the default).
pub fn effort_from_args() -> Effort {
    RunConf::from_args().effort
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunConf, String> {
        RunConf::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn paper_is_bigger() {
        assert!(Effort::Paper.collective_iters() > Effort::Quick.collective_iters());
        assert!(
            Effort::Paper.collective_threads().len() > Effort::Quick.collective_threads().len()
        );
        assert!(Effort::Paper.suite_params().iters > Effort::Quick.suite_params().iters);
    }

    #[test]
    fn jobs_flag_forms() {
        assert_eq!(parse(&["--jobs", "4"]).unwrap().jobs, 4);
        assert_eq!(parse(&["--jobs=2"]).unwrap().jobs, 2);
        assert_eq!(parse(&["-j", "8"]).unwrap().jobs, 8);
        assert_eq!(
            parse(&["--paper", "--jobs", "3"]).unwrap(),
            RunConf {
                effort: Effort::Paper,
                jobs: 3,
                check: CheckLevel::Off,
                trace: TraceLevel::Off,
                trace_path: None,
                analyze: AnalyzeLevel::Off,
                protocol: ProtocolKind::Mesif,
                telemetry: TelemetryConfig::off(),
                telemetry_out: None,
                progress: ProgressMode::Text,
            }
        );
    }

    #[test]
    fn trace_flag_forms() {
        assert_eq!(parse(&[]).unwrap().trace, TraceLevel::Off);
        assert_eq!(
            parse(&["--trace-level", "summary"]).unwrap().trace,
            TraceLevel::Summary
        );
        assert_eq!(
            parse(&["--trace-level=full"]).unwrap().trace,
            TraceLevel::Full
        );
        let c = parse(&["--trace", "out.trace"]).unwrap();
        assert_eq!(c.trace_path.as_deref(), Some("out.trace"));
        assert_eq!(c.trace, TraceLevel::Full, "--trace implies full");
        let c = parse(&["--trace=x.trace", "--trace-level", "summary"]).unwrap();
        assert_eq!(c.trace, TraceLevel::Summary, "explicit level wins");
        assert_eq!(c.trace_path.as_deref(), Some("x.trace"));
    }

    #[test]
    fn bad_trace_rejected() {
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--trace-level"]).is_err());
        assert!(parse(&["--trace-level", "verbose"]).is_err());
        assert!(parse(&["--trace-level=chatty"]).is_err());
    }

    #[test]
    fn check_flag_forms() {
        assert_eq!(parse(&[]).unwrap().check, CheckLevel::Off);
        assert_eq!(
            parse(&["--check", "invariants"]).unwrap().check,
            CheckLevel::Invariants
        );
        assert_eq!(
            parse(&["--check=full"]).unwrap().check,
            CheckLevel::FullOracle
        );
        assert_eq!(parse(&["--check=off"]).unwrap().check, CheckLevel::Off);
    }

    #[test]
    fn bad_check_rejected() {
        assert!(parse(&["--check"]).is_err());
        assert!(parse(&["--check", "sometimes"]).is_err());
        assert!(parse(&["--check=maybe"]).is_err());
    }

    #[test]
    fn analyze_flag_forms() {
        assert_eq!(parse(&[]).unwrap().analyze, AnalyzeLevel::Off);
        assert_eq!(
            parse(&["--analyze", "error"]).unwrap().analyze,
            AnalyzeLevel::Error
        );
        assert_eq!(
            parse(&["--analyze=warn"]).unwrap().analyze,
            AnalyzeLevel::Warn
        );
        assert_eq!(
            parse(&["--analyze=on"]).unwrap().analyze,
            AnalyzeLevel::Warn
        );
        assert_eq!(
            parse(&["--analyze=info"]).unwrap().analyze,
            AnalyzeLevel::Info
        );
    }

    #[test]
    fn bad_analyze_rejected() {
        assert!(parse(&["--analyze"]).is_err());
        assert!(parse(&["--analyze", "loudly"]).is_err());
        assert!(parse(&["--analyze=deep"]).is_err());
    }

    #[test]
    fn protocol_flag_forms() {
        assert_eq!(parse(&[]).unwrap().protocol, ProtocolKind::Mesif);
        assert_eq!(
            parse(&["--protocol", "moesi"]).unwrap().protocol,
            ProtocolKind::Moesi
        );
        assert_eq!(
            parse(&["--protocol=dragon"]).unwrap().protocol,
            ProtocolKind::Dragon
        );
        assert_eq!(
            parse(&["--protocol=MESI"]).unwrap().protocol,
            ProtocolKind::Mesi
        );
    }

    #[test]
    fn bad_protocol_rejected() {
        assert!(parse(&["--protocol"]).is_err());
        assert!(parse(&["--protocol", "mosey"]).is_err());
        assert!(parse(&["--protocol=firefly"]).is_err());
    }

    #[test]
    fn telemetry_flag_forms() {
        assert!(!parse(&[]).unwrap().telemetry.enabled());
        assert_eq!(
            parse(&["--telemetry"]).unwrap().telemetry,
            TelemetryConfig::on()
        );
        assert_eq!(
            parse(&["--telemetry=on"]).unwrap().telemetry,
            TelemetryConfig::on()
        );
        assert_eq!(
            parse(&["--telemetry=off"]).unwrap().telemetry,
            TelemetryConfig::off()
        );
        assert_eq!(
            parse(&["--telemetry=250"]).unwrap().telemetry.interval_ps,
            250
        );
        assert_eq!(
            parse(&["--telemetry=10us"]).unwrap().telemetry.interval_ps,
            10_000_000
        );
        assert_eq!(
            parse(&["--telemetry=1ms"]).unwrap().telemetry.interval_ps,
            1_000_000_000
        );
        let c = parse(&["--telemetry", "--telemetry-out", "t.telemetry"]).unwrap();
        assert_eq!(c.telemetry_out.as_deref(), Some("t.telemetry"));
        assert_eq!(
            parse(&["--telemetry-out=x.telemetry"])
                .unwrap()
                .telemetry_out
                .as_deref(),
            Some("x.telemetry")
        );
    }

    #[test]
    fn bad_telemetry_rejected() {
        assert!(parse(&["--telemetry=often"]).is_err());
        assert!(parse(&["--telemetry=10s"]).is_err());
        assert!(parse(&["--telemetry=-5"]).is_err());
        assert!(parse(&["--telemetry-out"]).is_err());
    }

    #[test]
    fn progress_flag_forms() {
        assert_eq!(parse(&[]).unwrap().progress, ProgressMode::Text);
        assert_eq!(
            parse(&["--progress", "off"]).unwrap().progress,
            ProgressMode::Off
        );
        assert_eq!(
            parse(&["--progress=json"]).unwrap().progress,
            ProgressMode::Json
        );
        assert!(parse(&["--progress=loud"]).is_err());
        assert!(parse(&["--progress"]).is_err());
    }

    #[test]
    fn observer_config_carries_telemetry() {
        let c = parse(&["--telemetry=2us"]).unwrap();
        assert_eq!(c.observer_config().telemetry.interval_ps, 2_000_000);
        let c = parse(&[]).unwrap();
        assert_eq!(c.observer_config(), ObserverConfig::default());
    }

    #[test]
    fn shards_option_is_gone() {
        let unset = parse(&[]).unwrap();
        std::env::set_var("KNL_SHARDS", "4");
        assert_eq!(parse(&[]).unwrap(), unset, "KNL_SHARDS is not read");
        for argv in [&["--shards", "2"][..], &["--shards=2"]] {
            let err = parse(argv).unwrap_err();
            assert_eq!(err, format!("unknown argument: {}", argv[0]));
        }
        std::env::remove_var("KNL_SHARDS");
    }

    #[test]
    fn bad_jobs_rejected() {
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn default_jobs_positive() {
        assert!(parse(&[]).unwrap().jobs >= 1);
    }
}
