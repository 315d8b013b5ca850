//! Shared sweep plumbing for the figure/table binaries: an executor
//! built from the parsed command line, machines honouring the observer
//! flags (`--check`, `--trace-level`), the per-configuration
//! hardware-counter summary every binary prints after its sweep, and the
//! [`TraceSink`] that merges per-job trace sections deterministically.

use crate::output::results_dir;
use crate::runconf::RunConf;
use knl_arch::MachineConfig;
use knl_benchsuite::SweepExecutor;
use knl_sim::{Counters, Machine, TelemetrySampler, TraceLevel};
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
    Machine::with_observer_config(cfg.with_protocol(conf.protocol), conf.observer_config())
}

/// Collects per-job serialized trace sections and telemetry series and
/// writes one merged file of each. Jobs may finish in any order on the
/// worker pool; sections are sorted by job index before writing, so the
/// merged files are byte-identical for every `--jobs` value (the same
/// contract the sweep results obey).
pub struct TraceSink {
    level: TraceLevel,
    path: Option<PathBuf>,
    parts: Mutex<Vec<(usize, String)>>,
    tel_interval: u64,
    tel_path: Option<PathBuf>,
    tel_parts: Mutex<Vec<(usize, String)>>,
}

impl TraceSink {
    /// Sink for one binary's sweep; `label` names the default output files
    /// (`results/<label>.trace`, `results/<label>.telemetry`) when
    /// `--trace PATH` / `--telemetry-out PATH` were not given.
    pub fn new(conf: &RunConf, label: &str) -> TraceSink {
        let path = match conf.trace {
            TraceLevel::Off => None,
            _ => Some(
                conf.trace_path
                    .as_ref()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| results_dir().join(format!("{label}.trace"))),
            ),
        };
        let tel_path = conf.telemetry.enabled().then(|| {
            conf.telemetry_out
                .as_ref()
                .map(PathBuf::from)
                .unwrap_or_else(|| results_dir().join(format!("{label}.telemetry")))
        });
        TraceSink {
            level: conf.trace,
            path,
            parts: Mutex::new(Vec::new()),
            tel_interval: conf.telemetry.interval_ps,
            tel_path,
            tel_parts: Mutex::new(Vec::new()),
        }
    }

    /// Detach `m`'s tracer and telemetry sampler and store their
    /// serialized sections under `job`. No-op (and allocation-free) when
    /// both observers are off.
    pub fn submit(&self, job: usize, m: &mut Machine) {
        let tracer = m.take_tracer();
        self.submit_tracer(job, tracer);
        let telemetry = m.take_telemetry();
        self.submit_telemetry(job, telemetry);
    }

    /// Store an already-detached tracer's section under `job` (the shape
    /// the suite's `run_configs_observed` hands back).
    pub fn submit_tracer(&self, job: usize, tracer: Option<Box<knl_sim::Tracer>>) {
        if let Some(tr) = tracer {
            let mut s = String::new();
            use std::fmt::Write as _;
            let _ = writeln!(s, "# job {job}");
            tr.serialize_into(&mut s);
            self.parts
                .lock()
                .expect("trace sink poisoned")
                .push((job, s));
        }
    }

    /// Store an already-detached telemetry sampler's section under `job`
    /// (the shape the suite's `run_configs_with` hands back).
    pub fn submit_telemetry(&self, job: usize, sampler: Option<Box<TelemetrySampler>>) {
        if let Some(ts) = sampler {
            let mut s = String::new();
            use std::fmt::Write as _;
            let _ = writeln!(s, "# job {job}");
            ts.serialize_into(&mut s);
            self.tel_parts
                .lock()
                .expect("telemetry sink poisoned")
                .push((job, s));
        }
    }

    /// Write the merged trace file; returns its path (None when tracing is
    /// off). Sections appear in canonical job order regardless of the
    /// completion order under `--jobs N`. Also writes the merged telemetry
    /// file when sampling was on.
    pub fn write(&self) -> std::io::Result<Option<PathBuf>> {
        self.write_telemetry()?;
        let Some(path) = self.path.as_ref() else {
            return Ok(None);
        };
        let mut parts = self.parts.lock().expect("trace sink poisoned");
        parts.sort_by_key(|&(job, _)| job);
        let mut out = format!("# knl-trace v1 level={}\n", self.level.name());
        for (_, s) in parts.iter() {
            out.push_str(s);
        }
        write_merged(path, &out)?;
        Ok(Some(path.clone()))
    }

    /// Write the merged telemetry series file; returns its path (None when
    /// sampling is off). Same canonical-job-order contract as traces.
    pub fn write_telemetry(&self) -> std::io::Result<Option<PathBuf>> {
        let Some(path) = self.tel_path.as_ref() else {
            return Ok(None);
        };
        let mut parts = self.tel_parts.lock().expect("telemetry sink poisoned");
        parts.sort_by_key(|&(job, _)| job);
        let mut out = format!("# knl-telemetry v1 interval_ps={}\n", self.tel_interval);
        for (_, s) in parts.iter() {
            out.push_str(s);
        }
        write_merged(path, &out)?;
        Ok(Some(path.clone()))
    }
}

fn write_merged(path: &PathBuf, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// One-line hardware-counter summary for a finished configuration.
pub fn print_counters(label: &str, c: &Counters) {
    eprintln!("[{label}] counters: {c}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runconf::Effort;
    use knl_sim::CheckLevel;

    fn conf(jobs: usize, check: CheckLevel, trace: TraceLevel) -> RunConf {
        RunConf {
            effort: Effort::Quick,
            jobs,
            check,
            trace,
            trace_path: None,
            analyze: knl_sim::AnalyzeLevel::Off,
            protocol: knl_arch::ProtocolKind::Mesif,
            telemetry: knl_sim::TelemetryConfig::off(),
            telemetry_out: None,
            progress: knl_benchsuite::ProgressMode::Off,
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
        assert_eq!(m.analyze_level(), knl_sim::AnalyzeLevel::Off);
        c.analyze = knl_sim::AnalyzeLevel::Error;
        let m = machine(&c, cfg);
        assert_eq!(m.analyze_level(), knl_sim::AnalyzeLevel::Error);
    }

    #[test]
    fn sink_merges_sections_in_job_order() {
        use knl_arch::{ClusterMode, MemoryMode};
        let dir = std::env::temp_dir().join("knl-trace-sink-test");
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
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_off_writes_nothing() {
        let c = conf(1, CheckLevel::Off, TraceLevel::Off);
        let sink = TraceSink::new(&c, "off-test");
        assert_eq!(sink.write().unwrap(), None);
    }
}
