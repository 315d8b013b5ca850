//! End-to-end determinism of the merged trace files: the sweep drivers
//! must produce byte-identical traces for any `--jobs` value, and running
//! with `--trace-level off` must be bit-identical to a machine that never
//! had observers attached.

use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode};
use knl_bench::runconf::RunConf;
use knl_bench::sweep::{machine, TraceSink};
use knl_benchsuite::pointer_chase::transfer_latency;
use knl_benchsuite::SweepExecutor;
use knl_sim::{LineState, Machine, TraceLevel};
use std::path::{Path, PathBuf};

fn conf(jobs: usize, trace: TraceLevel, path: &Path) -> RunConf {
    RunConf {
        jobs,
        trace,
        trace_path: Some(path.to_string_lossy().into_owned()),
        progress: knl_benchsuite::ProgressMode::Off,
        ..Default::default()
    }
}

/// The same shape the experiments use: independent machines per sweep
/// point, traces submitted under the job index, merged at the end.
fn run_sweep(cfg: &MachineConfig, conf: &RunConf) -> (Vec<u64>, Option<String>) {
    let partners: Vec<u16> = vec![1, 2, 5, 9];
    let origin = CoreId(0);
    let sink = TraceSink::new(conf, "determinism");
    let results = SweepExecutor::new(conf.jobs).run("det", &partners, |i, &p| {
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
    let text = sink
        .write()
        .expect("write trace")
        .map(|p| std::fs::read_to_string(p).expect("read trace back"));
    (results, text)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("knl_trace_determinism");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn merged_trace_is_byte_identical_across_jobs() {
    let configs = [
        MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat),
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Cache),
    ];
    for (ci, cfg) in configs.iter().enumerate() {
        for level in [TraceLevel::Summary, TraceLevel::Full] {
            let p1 = tmp(&format!("c{ci}-{}-j1.trace", level.name()));
            let p2 = tmp(&format!("c{ci}-{}-j2.trace", level.name()));
            let (r1, t1) = run_sweep(cfg, &conf(1, level, &p1));
            let (r2, t2) = run_sweep(cfg, &conf(2, level, &p2));
            assert_eq!(r1, r2, "cfg {ci} {}: results diverge", level.name());
            let t1 = t1.expect("jobs=1 trace written");
            let t2 = t2.expect("jobs=2 trace written");
            assert!(!t1.is_empty());
            assert_eq!(t1, t2, "cfg {ci} {}: trace bytes diverge", level.name());
            let _ = std::fs::remove_file(&p1);
            let _ = std::fs::remove_file(&p2);
        }
    }
}

#[test]
fn trace_off_is_bit_identical_to_untraced_machine() {
    let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
    let path = tmp("off.trace");
    let (traced_off, text) = run_sweep(&cfg, &conf(2, TraceLevel::Off, &path));
    assert_eq!(text, None, "off level must write no trace file");
    assert!(!path.exists());

    // Reference run on machines that never had observers attached.
    let origin = CoreId(0);
    let reference: Vec<u64> = [1u16, 2, 5, 9]
        .iter()
        .map(|&p| {
            #[expect(clippy::disallowed_methods, reason = "a machine with no observer hub")]
            let mut m = Machine::new(cfg.clone());
            let owner = CoreId(p);
            let helper = (0..m.config().num_cores() as u16)
                .map(CoreId)
                .find(|c| c.tile() != owner.tile() && c.tile() != origin.tile())
                .expect("helper tile");
            transfer_latency(&mut m, owner, origin, helper, LineState::Modified, 3)
                .median()
                .to_bits()
        })
        .collect();
    assert_eq!(traced_off, reference);
}
