//! Fitting a capability model from a (possibly reduced) suite run.

use crate::runconf::RunConf;
use crate::sweep::{print_counters, TraceSink};
use knl_arch::{ClusterMode, MachineConfig, MemoryMode};
use knl_benchsuite::{run_configs_with, run_full_suite, SuiteParams, SuiteResults};
use knl_core::CapabilityModel;
use knl_sim::ObserverConfig;
use std::path::PathBuf;

/// Run the capability suite for `cfg` and fit the model. Results are
/// cached as JSON under `results/suite-cache/` (rerunning an experiment
/// skips the simulation pass).
pub fn fit_model(cfg: &MachineConfig, params: &SuiteParams) -> CapabilityModel {
    CapabilityModel::from_suite(&suite_results(cfg, params))
}

/// [`fit_model`] honouring a parsed command line: the suite run executes
/// on the `--jobs` worker pool under the `--check` / `--trace-level` /
/// `--analyze` observer set, with its trace section submitted to the
/// caller's `sink` as job 0. Because cached suite results skip the
/// simulation pass entirely, the JSON cache is bypassed (but still
/// refreshed) whenever any observer is on — asking for a checked or traced
/// run means asking for the simulation to actually happen.
pub fn fit_model_observed(
    cfg: &MachineConfig,
    params: &SuiteParams,
    conf: &RunConf,
    sink: &TraceSink,
) -> CapabilityModel {
    let observers = conf.observer_config();
    if observers == ObserverConfig::default() {
        return fit_model(cfg, params);
    }
    let mut runs = run_configs_with(std::slice::from_ref(cfg), params, conf.jobs, observers);
    let run = runs.remove(0);
    print_counters(&cfg.label(), &run.counters);
    sink.submit_detached(0, run.tracer, run.telemetry);
    write_cache(cfg, params, &run.results);
    CapabilityModel::from_suite(&run.results)
}

/// Suite results, cached as JSON under `results/suite-cache/`.
pub fn suite_results(cfg: &MachineConfig, params: &SuiteParams) -> SuiteResults {
    // Unreadable or old-format files fall through to a re-run that
    // overwrites them.
    let cached = std::fs::read_to_string(cache_path(cfg, params)).ok();
    if let Some(r) = cached.and_then(|text| knl_benchsuite::decode_suite(&text)) {
        return r;
    }
    let r = run_full_suite(cfg, params);
    write_cache(cfg, params, &r);
    r
}

fn write_cache(cfg: &MachineConfig, params: &SuiteParams, r: &SuiteResults) {
    let path = cache_path(cfg, params);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    // A cache that could not be written gets no INDEX line.
    let _ = crate::provenance::write_artifact(&path, knl_benchsuite::encode_suite(r).as_bytes());
}

fn cache_path(cfg: &MachineConfig, params: &SuiteParams) -> PathBuf {
    // Non-MESIF protocols get their own cache files; the MESIF name is
    // unchanged so existing caches stay valid.
    let proto = match cfg.protocol {
        knl_arch::ProtocolKind::Mesif => String::new(),
        p => format!("-{}", p.name()),
    };
    crate::output::results_dir()
        .join("suite-cache")
        .join(format!("{}{proto}-i{}.json", cfg.label(), params.iters))
}

/// The standard machine of the paper's collective figures: SNC4-flat.
pub fn snc4_flat() -> MachineConfig {
    MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_quick_model() {
        let _dir =
            crate::output::ResultsDirGuard::set(&std::env::temp_dir().join("knl_modelfit_test"));
        let cfg = snc4_flat();
        let mut p = SuiteParams::quick();
        p.iters = 3;
        p.mem_threads = vec![1, 8];
        p.mem_lines_per_thread = 256;
        p.memlat_lines = 8 << 10;
        let m1 = fit_model(&cfg, &p);
        assert!(m1.rr_ns > 50.0);
        // Second call hits the cache (must produce identical numbers).
        let m2 = fit_model(&cfg, &p);
        assert_eq!(m1.rr_ns, m2.rr_ns);
        assert_eq!(m1.contention.beta, m2.contention.beta);

        // A cache file that cannot be written (a directory is in its way)
        // gets no INDEX line, even under a producer.
        let results = suite_results(&cfg, &p);
        drop(_dir);
        let dir = std::env::temp_dir().join("knl_modelfit_unwritable_test");
        let _ = std::fs::remove_dir_all(&dir);
        let _dir = crate::output::ResultsDirGuard::set(&dir);
        let path = cache_path(&cfg, &p);
        std::fs::create_dir_all(&path).unwrap();
        let write = || {
            let conf = Default::default();
            crate::provenance::producing("fig6_barrier", &conf, || write_cache(&cfg, &p, &results))
        };
        write();
        assert!(path.is_dir());
        assert!(!dir.join(crate::provenance::INDEX).exists());
        // Once it can be written, it gets its line.
        std::fs::remove_dir(&path).unwrap();
        write();
        let index = std::fs::read_to_string(dir.join(crate::provenance::INDEX)).unwrap();
        assert!(
            index.starts_with("suite-cache/SNC4-flat-i3.json "),
            "{index}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
