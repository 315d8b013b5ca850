//! End-to-end guarantees of the telemetry sampler: sampling must never
//! perturb the simulation (telemetry-on results are bit-identical to a
//! machine that never had the sampler attached), and the merged series
//! file must come out byte-identical for any `--jobs` value.

use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode, ProtocolKind};
use knl_bench::runconf::RunConf;
use knl_bench::sweep::{machine, TraceSink};
use knl_benchsuite::pointer_chase::transfer_latency;
use knl_benchsuite::SweepExecutor;
use knl_sim::{LineState, TelemetryConfig};
use std::path::{Path, PathBuf};

fn conf(jobs: usize, telemetry: TelemetryConfig, out: Option<&Path>) -> RunConf {
    RunConf {
        jobs,
        telemetry,
        telemetry_out: out.map(|p| p.to_string_lossy().into_owned()),
        progress: knl_benchsuite::ProgressMode::Off,
        ..Default::default()
    }
}

/// The same shape the experiments use: independent machines per sweep
/// point, samplers submitted under the job index, merged at the end.
fn run_sweep(cfg: &MachineConfig, conf: &RunConf) -> (Vec<u64>, Option<String>) {
    let partners: Vec<u16> = vec![1, 2, 5, 9];
    let origin = CoreId(0);
    let sink = TraceSink::new(conf, "tel-determinism");
    let results = SweepExecutor::new(conf.jobs).run("tel", &partners, |i, &p| {
        let mut m = machine(conf, cfg.clone());
        let owner = CoreId(p);
        let helper = (0..m.config().num_cores() as u16)
            .map(CoreId)
            .find(|c| c.tile() != owner.tile() && c.tile() != origin.tile())
            .expect("helper tile");
        let s = transfer_latency(&mut m, owner, origin, helper, LineState::Modified, 3);
        m.finish_check();
        sink.submit(i, &mut m);
        s.median().to_bits()
    });
    sink.write().expect("write telemetry");
    let text = conf
        .telemetry_out
        .as_ref()
        .map(|p| std::fs::read_to_string(p).expect("read series back"));
    (results, text)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("knl-telemetry-determinism");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// ≥3 machine configurations × ≥2 protocols, shared by both tests.
fn configs() -> Vec<MachineConfig> {
    vec![
        MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat),
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Cache),
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat)
            .with_protocol(ProtocolKind::Moesi),
        MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat)
            .with_protocol(ProtocolKind::Dragon),
    ]
}

#[test]
fn sampling_never_perturbs_the_simulation() {
    for (ci, cfg) in configs().iter().enumerate() {
        let mut c_on = conf(
            1,
            TelemetryConfig::on(),
            Some(&tmp(&format!("perturb-{ci}.telemetry"))),
        );
        let mut c_off = conf(1, TelemetryConfig::off(), None);
        // `machine()` applies conf.protocol on top of the config; keep the
        // per-config protocol authoritative.
        c_on.protocol = cfg.protocol;
        c_off.protocol = cfg.protocol;
        let (on, series) = run_sweep(cfg, &c_on);
        let (off, none) = run_sweep(cfg, &c_off);
        assert_eq!(on, off, "cfg {ci}: telemetry sampling changed results");
        assert!(none.is_none(), "cfg {ci}: off run wrote a series file");
        let series = series.expect("on run writes a series file");
        assert!(
            series.starts_with("# knl-telemetry v1 interval_ps="),
            "cfg {ci}: bad header"
        );
        assert!(
            series.lines().any(|l| l.starts_with("Z ")),
            "cfg {ci}: series has no event totals"
        );
    }
}

#[test]
fn merged_series_is_byte_identical_across_jobs() {
    for (ci, cfg) in configs().iter().enumerate() {
        let p1 = tmp(&format!("c{ci}-j1.telemetry"));
        let p2 = tmp(&format!("c{ci}-j2.telemetry"));
        let mut c1 = conf(1, TelemetryConfig::on(), Some(&p1));
        let mut c2 = conf(2, TelemetryConfig::on(), Some(&p2));
        c1.protocol = cfg.protocol;
        c2.protocol = cfg.protocol;
        let (r1, t1) = run_sweep(cfg, &c1);
        let (r2, t2) = run_sweep(cfg, &c2);
        assert_eq!(r1, r2, "cfg {ci}: results diverge across --jobs");
        let t1 = t1.expect("jobs=1 series written");
        let t2 = t2.expect("jobs=2 series written");
        assert!(!t1.is_empty());
        assert_eq!(t1, t2, "cfg {ci}: series bytes diverge across --jobs");
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }
}
