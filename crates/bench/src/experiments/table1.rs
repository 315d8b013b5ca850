//! Regenerates **Table I**: cache-to-cache benchmark results across the
//! five cluster modes (flat memory mode, as the latency rows do not depend
//! on the memory mode per the paper).

use crate::output::{f1, f2, Table};
use crate::runconf::RunConf;
use crate::sweep::{executor, machine, print_counters, TraceSink};
use knl_arch::{ClusterMode, MachineConfig, MemoryMode};
use knl_benchsuite::run_cache_suite;
use knl_stats::fit_linear;

pub fn run(conf: &RunConf, sink: &TraceSink) {
    let params = conf.effort.suite_params();

    let mut table = Table::new(
        "Table I — cache-to-cache capabilities (medians; paper values in EXPERIMENTS.md)",
        &["metric", "SNC4", "SNC2", "QUAD", "HEM", "A2A"],
    );

    eprintln!(
        "running cache suite for {} cluster modes ({} jobs) ...",
        ClusterMode::ALL.len(),
        conf.jobs
    );
    let results = executor(conf).run("table1", &ClusterMode::ALL, |i, &cm| {
        let cfg = MachineConfig::knl7210(cm, MemoryMode::Flat);
        let mut m = machine(conf, cfg);
        let res = run_cache_suite(&mut m, &params);
        m.finish_check();
        sink.submit(i, &mut m);
        (res, m.counters())
    });
    let mut columns = Vec::new();
    for (cm, (res, counters)) in ClusterMode::ALL.into_iter().zip(results) {
        print_counters(cm.name(), &counters);
        columns.push(res);
    }

    let metric = |name: &str, f: &dyn Fn(&knl_benchsuite::CacheResults) -> String| -> Vec<String> {
        let mut row = vec![name.to_string()];
        row.extend(columns.iter().map(f));
        row
    };

    table.row(metric("Latency local L1 [ns]", &|c| {
        f1(c.local_ns
            .as_ref()
            .map(|l| l.median_ns())
            .unwrap_or(f64::NAN))
    }));
    for st in ['M', 'E', 'S', 'F'] {
        table.row(metric(&format!("Latency tile {st} [ns]"), &|c| {
            f1(c.tile_ns
                .iter()
                .find(|(s, _)| *s == st)
                .map(|(_, l)| l.median_ns())
                .unwrap_or(f64::NAN))
        }));
    }
    for st in ['M', 'E', 'S', 'F'] {
        table.row(metric(&format!("Latency remote {st} [ns]"), &|c| {
            f1(c.remote_ns
                .iter()
                .find(|(s, _)| *s == st)
                .map(|(_, l)| l.median_ns())
                .unwrap_or(f64::NAN))
        }));
    }
    table.row(metric("BW read [GB/s]", &|c| f1(c.read_bw_gbps)));
    for (loc, st) in [
        ("tile", 'M'),
        ("tile", 'E'),
        ("remote", 'M'),
        ("remote", 'E'),
    ] {
        table.row(metric(&format!("BW copy {loc} {st} [GB/s]"), &|c| {
            f1(c.copy_bw_gbps
                .iter()
                .find(|(l, s, _)| l == loc && *s == st)
                .map(|(_, _, g)| *g)
                .unwrap_or(f64::NAN))
        }));
    }
    table.row(metric("Contention α [ns]", &|c| {
        let xs: Vec<f64> = c.contention.iter().map(|(n, _)| *n as f64).collect();
        let ys: Vec<f64> = c.contention.iter().map(|(_, s)| s.median()).collect();
        f1(fit_linear(&xs, &ys).alpha)
    }));
    table.row(metric("Contention β [ns/thread]", &|c| {
        let xs: Vec<f64> = c.contention.iter().map(|(n, _)| *n as f64).collect();
        let ys: Vec<f64> = c.contention.iter().map(|(_, s)| s.median()).collect();
        f1(fit_linear(&xs, &ys).beta)
    }));
    table.row(metric("Congestion (max/min pairs ratio)", &|c| {
        let lo = c
            .congestion
            .iter()
            .map(|(_, l)| *l)
            .fold(f64::INFINITY, f64::min);
        let hi = c.congestion.iter().map(|(_, l)| *l).fold(0.0, f64::max);
        format!("{} (none)", f2(hi / lo))
    }));

    table.print();
    let path = table.write_csv("table1");
    eprintln!("csv: {}", path.display());
}
