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

use crate::output::{cell, f1, metric_rows, Table};
use crate::runconf::RunConf;
use crate::sweep::{machine_as_configured, print_counters, TraceSink};
use knl_arch::{ClusterMode, MachineConfig, MemoryMode, ProtocolKind};
use knl_benchsuite::{run_configs_with, CacheResults, MemResults};
use knl_core::{optimize_barrier, optimize_tree, CapabilityModel, TreeKind};
use knl_sim::{Counters, StreamKind};

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
    let runs = run_configs_with(&configs, &params, conf.jobs, |c| {
        machine_as_configured(conf, c.clone())
    });

    let header: Vec<&str> = std::iter::once("metric")
        .chain(ProtocolKind::ALL.iter().map(|p| p.name()))
        .collect();
    let mut columns = [Vec::new(), Vec::new(), Vec::new()];
    for (i, (p, run)) in ProtocolKind::ALL.into_iter().zip(runs).enumerate() {
        print_counters(p.name(), &run.counters);
        sink.submit_detached(i, run.tracer, run.telemetry);
        let model = CapabilityModel::from_suite(&run.results);
        columns[0].push(cache_column(&model, &run.results.cache, &run.counters));
        columns[1].push(memory_column(&run.results.mem));
        columns[2].push(collectives_column(&model));
    }
    for (columns, (title, name)) in columns.iter().zip([
        ("Table I capabilities (Quadrant-flat)", "protocols_table1"),
        ("Table II capabilities (Quadrant-flat)", "protocols_table2"),
        (
            "model-tuned collectives (32 tiles)",
            "protocols_collectives",
        ),
    ]) {
        let mut table = Table::new(&format!("Protocol comparison — {title}"), &header);
        for row in metric_rows(columns) {
            table.row(row);
        }
        table.emit(name);
    }
}

/// One protocol's differential Table I column (cache-to-cache
/// capabilities and the coherence traffic that produced them).
fn cache_column(model: &CapabilityModel, c: &CacheResults, n: &Counters) -> Vec<(String, String)> {
    let mut cells = vec![("Latency local L1 [ns]".to_string(), cell(c.local_ns(), f1))];
    for st in ['M', 'E', 'S', 'F'] {
        cells.push((
            format!("Latency tile {st}-prep [ns]"),
            cell(c.tile_ns(st), f1),
        ));
    }
    for st in ['M', 'E', 'S', 'F'] {
        cells.push((
            format!("Latency remote {st}-prep [ns]"),
            cell(c.remote_ns(st), f1),
        ));
    }
    cells.extend([
        ("BW read [GB/s]".to_string(), f1(c.read_bw_gbps)),
        ("Contention α [ns]".to_string(), f1(model.contention.alpha)),
        (
            "Contention β [ns/thread]".to_string(),
            f1(model.contention.beta),
        ),
        ("Invalidation msgs".to_string(), n.invalidations.to_string()),
        ("Update msgs".to_string(), n.updates.to_string()),
        ("Write-backs".to_string(), n.writebacks.to_string()),
    ]);
    cells
}

/// One protocol's differential Table II column (memory capabilities).
fn memory_column(mem: &MemResults) -> Vec<(String, String)> {
    let mut cells = Vec::new();
    for target in ["DRAM", "MCDRAM"] {
        cells.push((
            format!("Latency {target} [ns]"),
            cell(mem.latency(target), f1),
        ));
        for kind in [StreamKind::Read, StreamKind::Copy, StreamKind::Triad] {
            let bw = cell(mem.table_cell(kind, target), f1);
            cells.push((format!("BW {} {target} [GB/s]", kind.name()), bw));
        }
    }
    cells
}

/// The collective plans one protocol's fitted model implies, with one
/// participant per tile.
fn collectives_column(model: &CapabilityModel) -> Vec<(String, String)> {
    let n = 32;
    let bcast = optimize_tree(model, n, TreeKind::Broadcast);
    let reduce = optimize_tree(model, n, TreeKind::Reduce);
    let barrier = optimize_barrier(model, n);
    vec![
        ("Broadcast tree cost [ns]".to_string(), f1(bcast.cost_ns)),
        (
            "Broadcast root fan-out".to_string(),
            bcast.tree.degree().to_string(),
        ),
        ("Reduce tree cost [ns]".to_string(), f1(reduce.cost_ns)),
        ("Barrier cost [ns]".to_string(), f1(barrier.cost_ns)),
        ("Barrier fan-in m".to_string(), barrier.m.to_string()),
    ]
}
