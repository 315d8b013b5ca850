//! Compare coherence-protocol back ends: run the calibration suite under
//! each of MESIF (the real KNL protocol), MESI, MOESI and Dragon on the
//! same machine, fit a capability model per protocol, and print
//! differential Table I/II views plus the model-tuned collective choice
//! each protocol implies.
//!
//! The interesting deltas this surfaces:
//!
//! * **MESIF vs MESI** — MESI has no F holder, so shared lines are served
//!   by memory instead of cache-to-cache (remote S latency rises toward
//!   the memory row).
//! * **MOESI** — a dirty line read remotely stays dirty in an O holder
//!   (no write-back on first sharing; the owner supplies).
//! * **Dragon** — writes *update* remote copies instead of invalidating
//!   them: the invalidation counter is zero, the update counter is not,
//!   and re-readers keep hitting their own cache after remote writes.
//!
//! The default sweep runs Quadrant-flat (the paper's headline
//! configuration); `--paper` widens the suite like the other experiments.

use crate::output::{f1, Table};
use crate::runconf::RunConf;
use crate::sweep::{print_counters, TraceSink};
use knl_arch::{ClusterMode, MachineConfig, MemoryMode, ProtocolKind};
use knl_benchsuite::run_configs_with;
use knl_core::{optimize_barrier, optimize_tree, CapabilityModel, TreeKind};
use knl_sim::StreamKind;

pub fn run(conf: &RunConf, sink: &TraceSink) {
    let params = conf.effort.suite_params();

    let base = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
    let configs: Vec<MachineConfig> = ProtocolKind::ALL
        .into_iter()
        .map(|p| base.clone().with_protocol(p))
        .collect();

    eprintln!(
        "running calibration suite under {} protocols on {} ({} jobs) ...",
        configs.len(),
        base.label(),
        conf.jobs
    );
    let runs = run_configs_with(&configs, &params, conf.jobs, conf.observer_config());

    let mut models = Vec::new();
    let mut counters = Vec::new();
    let mut results = Vec::new();
    for (i, (p, run)) in ProtocolKind::ALL.into_iter().zip(runs).enumerate() {
        print_counters(p.name(), &run.counters);
        sink.submit_detached(i, run.tracer, run.telemetry);
        models.push(CapabilityModel::from_suite(&run.results));
        counters.push(run.counters);
        results.push(run.results);
    }

    let header: Vec<&str> = std::iter::once("metric")
        .chain(ProtocolKind::ALL.iter().map(|p| p.name()))
        .collect();

    // ---- differential Table I (cache-to-cache capabilities) ----
    let mut t1 = Table::new(
        "Protocol comparison — Table I capabilities (Quadrant-flat)",
        &header,
    );
    let row = |name: &str, f: &dyn Fn(usize) -> String| -> Vec<String> {
        let mut r = vec![name.to_string()];
        r.extend((0..ProtocolKind::ALL.len()).map(f));
        r
    };
    t1.row(row("Latency local L1 [ns]", &|i| f1(models[i].rl_ns)));
    for st in ['M', 'E', 'S', 'F'] {
        t1.row(row(&format!("Latency tile {st}-prep [ns]"), &|i| {
            f1(results[i].tile_ns(st).unwrap_or(f64::NAN))
        }));
    }
    for st in ['M', 'E', 'S', 'F'] {
        t1.row(row(&format!("Latency remote {st}-prep [ns]"), &|i| {
            f1(results[i].remote_ns(st).unwrap_or(f64::NAN))
        }));
    }
    t1.row(row("BW read [GB/s]", &|i| {
        f1(results[i].cache.read_bw_gbps)
    }));
    t1.row(row("Contention α [ns]", &|i| {
        f1(models[i].contention.alpha)
    }));
    t1.row(row("Contention β [ns/thread]", &|i| {
        f1(models[i].contention.beta)
    }));
    t1.row(row("Invalidation msgs", &|i| {
        format!("{}", counters[i].invalidations)
    }));
    t1.row(row("Update msgs", &|i| format!("{}", counters[i].updates)));
    t1.row(row("Write-backs", &|i| {
        format!("{}", counters[i].writebacks)
    }));
    t1.print();
    let p1 = t1.write_csv("protocols_table1");
    eprintln!("csv: {}", p1.display());

    // ---- differential Table II (memory capabilities) ----
    let mut t2 = Table::new(
        "Protocol comparison — Table II capabilities (Quadrant-flat)",
        &header,
    );
    for target in ["DRAM", "MCDRAM"] {
        t2.row(row(&format!("Latency {target} [ns]"), &|i| {
            f1(results[i].mem.latency(target).unwrap_or(f64::NAN))
        }));
        for kind in [StreamKind::Read, StreamKind::Copy, StreamKind::Triad] {
            t2.row(row(&format!("BW {} {target} [GB/s]", kind.name()), &|i| {
                f1(results[i].mem.table_cell(kind, target).unwrap_or(f64::NAN))
            }));
        }
    }
    t2.print();
    let p2 = t2.write_csv("protocols_table2");
    eprintln!("csv: {}", p2.display());

    // ---- per-protocol model-tuned collective choice ----
    let n = 32; // one participant per tile
    let mut t3 = Table::new(
        "Protocol comparison — model-tuned collectives (32 tiles)",
        &header,
    );
    let bcast: Vec<_> = models
        .iter()
        .map(|m| optimize_tree(m, n, TreeKind::Broadcast))
        .collect();
    t3.row(row("Broadcast tree cost [ns]", &|i| f1(bcast[i].cost_ns)));
    t3.row(row("Broadcast root fan-out", &|i| {
        format!("{}", bcast[i].tree.degree())
    }));
    t3.row(row("Reduce tree cost [ns]", &|i| {
        f1(optimize_tree(&models[i], n, TreeKind::Reduce).cost_ns)
    }));
    t3.row(row("Barrier cost [ns]", &|i| {
        f1(optimize_barrier(&models[i], n).cost_ns)
    }));
    t3.row(row("Barrier fan-in m", &|i| {
        format!("{}", optimize_barrier(&models[i], n).m)
    }));
    t3.print();
    let p3 = t3.write_csv("protocols_collectives");
    eprintln!("csv: {}", p3.display());
}
