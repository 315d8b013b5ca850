//! Shared sweep plumbing for the experiments: an executor built from the
//! parsed command line, machines honouring the observer flags (`--check`,
//! `--trace-level`, `--telemetry`) and `--analyze`, the per-configuration
//! hardware-counter summary every experiment prints after its sweep, and
//! the [`TraceSink`] that merges per-job trace and telemetry sections
//! deterministically — one sink per experiment, written once by the
//! driver ([`crate::experiments::run`]).

use crate::analyze::{analyze, AnalyzeLevel};
use crate::output::results_dir;
use crate::provenance::write_artifact;
use crate::runconf::RunConf;
use knl_arch::MachineConfig;
use knl_benchsuite::SweepExecutor;
use knl_sim::{Counters, Machine, TelemetrySampler, TraceLevel, Tracer};
use std::path::PathBuf;
use std::sync::Mutex;

/// Executor honouring `--jobs` / `KNL_JOBS` and `--progress` /
/// `KNL_PROGRESS`.
pub fn executor(conf: &RunConf) -> SweepExecutor {
    SweepExecutor::new(conf.jobs).progress_mode(conf.progress)
}

/// A machine honouring `--check` / `KNL_CHECK`, `--trace-level` /
/// `KNL_TRACE`, `--analyze` / `KNL_ANALYZE` and `--protocol` /
/// `KNL_PROTOCOL`. Jobs that build their machine through this helper
/// run under the requested observer levels; call
/// [`Machine::finish_check`] before dropping the machine so the final
/// counter/oracle reconciliation runs, and hand the machine to
/// [`TraceSink::submit`] so its trace section is collected.
pub fn machine(conf: &RunConf, cfg: MachineConfig) -> Machine {
    machine_as_configured(conf, cfg.with_protocol(conf.protocol))
}

/// [`machine`] keeping `cfg`'s own protocol: for the suite sweeps whose
/// configurations choose it (`protocols`, and the fitted model, whose
/// suite cache is named by it). The one place `--analyze` is installed,
/// as the machine's run-start hook.
pub(crate) fn machine_as_configured(conf: &RunConf, cfg: MachineConfig) -> Machine {
    let mut m = Machine::with_observer_config(cfg, conf.observer_config());
    let level = conf.analyze;
    if level != AnalyzeLevel::Off {
        m.set_run_start_hook(Some(Box::new(move |programs, flags| {
            analyze(programs, flags).enforce(level)
        })));
    }
    m
}

/// One merged artifact: its header line, where it goes (`None` when that
/// observer is off) and the per-job sections collected so far.
struct Sections {
    header: String,
    path: Option<PathBuf>,
    parts: Mutex<Vec<(usize, String)>>,
}

impl Sections {
    /// `on` decides whether there is a file at all; `explicit` is the
    /// `--trace` / `--telemetry-out` path, else `results/<label>.<ext>`.
    fn new(header: String, on: bool, explicit: &Option<String>, label: &str, ext: &str) -> Self {
        let path = on.then(|| match explicit {
            Some(p) => PathBuf::from(p),
            None => results_dir().join(format!("{label}.{ext}")),
        });
        Sections {
            header,
            path,
            parts: Mutex::new(Vec::new()),
        }
    }

    /// Store one job's section: `# job N`, then whatever `body` writes.
    fn push(&self, job: usize, body: impl FnOnce(&mut String)) {
        let mut s = format!("# job {job}\n");
        body(&mut s);
        self.parts.lock().expect("sink poisoned").push((job, s));
    }

    /// Write header and sections, sorted by job index; returns the path.
    fn write(&self) -> std::io::Result<Option<PathBuf>> {
        let Some(path) = self.path.as_ref() else {
            return Ok(None);
        };
        let mut parts = self.parts.lock().expect("sink poisoned");
        parts.sort_by_key(|&(job, _)| job);
        let mut out = self.header.clone();
        for (_, s) in parts.iter() {
            out.push_str(s);
        }
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let verb = if write_artifact(path, out.as_bytes())? {
            "wrote"
        } else {
            "unchanged"
        };
        eprintln!("{verb} {}", path.display());
        Ok(Some(path.clone()))
    }
}

/// Collects per-job serialized trace sections and telemetry series and
/// writes one merged file of each. Jobs may finish in any order on the
/// worker pool; sections are sorted by job index before writing, so the
/// merged files are byte-identical for every `--jobs` value (the same
/// contract the sweep results obey). One experiment has one sink, however
/// many sweeps it runs (later sweeps offset their job indices by the
/// earlier ones' point counts).
pub struct TraceSink {
    trace: Sections,
    telemetry: Sections,
}

impl TraceSink {
    /// Sink for one experiment's run; `label` names the default output files
    /// (`results/<label>.trace`, `results/<label>.telemetry`) when
    /// `--trace PATH` / `--telemetry-out PATH` were not given.
    pub fn new(conf: &RunConf, label: &str) -> TraceSink {
        TraceSink {
            trace: Sections::new(
                format!("# knl-trace v1 level={}\n", conf.trace.name()),
                conf.trace != TraceLevel::Off,
                &conf.trace_path,
                label,
                "trace",
            ),
            telemetry: Sections::new(
                format!(
                    "# knl-telemetry v1 interval_ps={}\n",
                    conf.telemetry.interval_ps
                ),
                conf.telemetry.enabled(),
                &conf.telemetry_out,
                label,
                "telemetry",
            ),
        }
    }

    /// Detach `m`'s tracer and telemetry sampler and store their
    /// serialized sections under `job`. No-op (and allocation-free) when
    /// both observers are off.
    pub fn submit(&self, job: usize, m: &mut Machine) {
        self.submit_detached(job, m.take_tracer(), m.take_telemetry());
    }

    /// Store already-detached observers' sections under `job` (the shape
    /// the suite's `run_configs_with` hands back).
    pub fn submit_detached(
        &self,
        job: usize,
        tracer: Option<Box<Tracer>>,
        telemetry: Option<Box<TelemetrySampler>>,
    ) {
        if let Some(tr) = tracer {
            self.trace.push(job, |s| tr.serialize_into(s));
        }
        if let Some(ts) = telemetry {
            self.telemetry.push(job, |s| ts.serialize_into(s));
        }
    }

    /// Write the merged telemetry and trace files (each only when its
    /// observer was on); returns the trace file's path. Sections appear in
    /// canonical job order regardless of the completion order under
    /// `--jobs N`.
    pub fn write(&self) -> std::io::Result<Option<PathBuf>> {
        self.telemetry.write()?;
        self.trace.write()
    }
}

/// One-line hardware-counter summary for a finished configuration.
pub fn print_counters(label: &str, c: &Counters) {
    eprintln!("[{label}] counters: {c}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::CheckLevel;

    fn conf(jobs: usize, check: CheckLevel, trace: TraceLevel) -> RunConf {
        RunConf {
            jobs,
            check,
            trace,
            progress: knl_benchsuite::ProgressMode::Off,
            ..Default::default()
        }
    }

    #[test]
    fn executor_respects_jobs() {
        let c = conf(3, CheckLevel::Off, TraceLevel::Off);
        assert_eq!(executor(&c).jobs(), 3);
    }

    #[test]
    fn machine_helper_carries_observer_levels() {
        use knl_arch::{ClusterMode, MemoryMode};
        let mut c = conf(1, CheckLevel::Invariants, TraceLevel::Summary);
        let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
        let m = machine(&c, cfg.clone());
        assert_eq!(m.check_level(), CheckLevel::Invariants);
        assert_eq!(m.trace_level(), TraceLevel::Summary);
        c.check = CheckLevel::Off;
        c.trace = TraceLevel::Off;
        let m = machine(&c, cfg.clone());
        assert_eq!(m.check_level(), CheckLevel::Off);
        assert_eq!(m.trace_level(), TraceLevel::Off);
        // Unsynchronized writers of one line run; `--analyze error`
        // refuses them before the first op.
        let run = |c: &RunConf| {
            let racy = (0..2).map(|t| {
                let mut p = knl_sim::Program::new(knl_arch::HwThreadId(4 * t));
                p.push(knl_sim::Op::Write(4096));
                p
            });
            knl_sim::Runner::new(&mut machine(c, cfg.clone()), racy.collect()).run()
        };
        run(&c);
        c.analyze = AnalyzeLevel::Error;
        let refused = std::panic::catch_unwind(|| run(&c));
        assert!(refused.is_err());
    }

    #[test]
    fn sink_merges_sections_in_job_order() {
        use knl_arch::{ClusterMode, MemoryMode};
        let dir = std::env::temp_dir().join("knl_trace_sink_test");
        let path = dir.join("out.trace");
        let mut c = conf(1, CheckLevel::Off, TraceLevel::Summary);
        c.trace_path = Some(path.to_string_lossy().into_owned());
        let sink = TraceSink::new(&c, "unused");
        let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
        // Submit out of order; the file must come out in job order.
        for job in [2usize, 0, 1] {
            let mut m = machine(&c, cfg.clone());
            m.access(
                knl_arch::CoreId(0),
                4096,
                knl_sim::AccessKind::Read,
                job as u64,
            );
            sink.submit(job, &mut m);
        }
        let written = sink.write().unwrap().unwrap();
        let text = std::fs::read_to_string(&written).unwrap();
        let jobs: Vec<&str> = text.lines().filter(|l| l.starts_with("# job ")).collect();
        assert_eq!(jobs, ["# job 0", "# job 1", "# job 2"]);
        assert!(text.starts_with("# knl-trace v1 level=summary\n"));
        // Written again, the same bytes leave the file alone.
        let old = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        let f = std::fs::File::options().write(true).open(&written).unwrap();
        f.set_modified(old).unwrap();
        assert_eq!(sink.write().unwrap(), Some(written.clone()));
        let mtime = std::fs::metadata(&written).unwrap().modified().unwrap();
        assert_eq!(mtime, old);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_off_writes_nothing() {
        let c = conf(1, CheckLevel::Off, TraceLevel::Off);
        let sink = TraceSink::new(&c, "off-test");
        assert_eq!(sink.write().unwrap(), None);
    }
}
