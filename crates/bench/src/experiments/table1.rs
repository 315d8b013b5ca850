//! Regenerates **Table I**: cache-to-cache benchmark results across the
//! five cluster modes (flat memory mode, as the latency rows do not depend
//! on the memory mode per the paper).

use crate::output::{cell, f1, f2, metric_rows, Table};
use crate::runconf::RunConf;
use crate::sweep::{executor, machine, print_counters, TraceSink};
use knl_arch::{ClusterMode, MachineConfig, MemoryMode};
use knl_benchsuite::congestion::NO_CONGESTION_BELOW;
use knl_benchsuite::{contention, run_cache_suite, CacheResults};

pub fn run(conf: &RunConf, sink: &TraceSink) {
    let params = conf.effort.suite_params();
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
    table(&ClusterMode::ALL, &columns).emit("table1");
}

/// The table: one column per cluster mode.
fn table(modes: &[ClusterMode], columns: &[CacheResults]) -> Table {
    let header: Vec<&str> = std::iter::once("metric")
        .chain(modes.iter().map(|cm| cm.name()))
        .collect();
    let mut table = Table::new(
        "Table I — cache-to-cache capabilities (medians; paper values in EXPERIMENTS.md)",
        &header,
    );
    let columns: Vec<_> = columns.iter().map(column).collect();
    for row in metric_rows(&columns) {
        table.row(row);
    }
    table
}

/// One cluster mode's column: (metric, cell) from top to bottom.
fn column(c: &CacheResults) -> Vec<(String, String)> {
    let mut cells = vec![("Latency local L1 [ns]".to_string(), cell(c.local_ns(), f1))];
    for st in ['M', 'E', 'S', 'F'] {
        cells.push((format!("Latency tile {st} [ns]"), cell(c.tile_ns(st), f1)));
    }
    for st in ['M', 'E', 'S', 'F'] {
        cells.push((
            format!("Latency remote {st} [ns]"),
            cell(c.remote_ns(st), f1),
        ));
    }
    cells.push(("BW read [GB/s]".to_string(), f1(c.read_bw_gbps)));
    for (loc, st) in [
        ("tile", 'M'),
        ("tile", 'E'),
        ("remote", 'M'),
        ("remote", 'E'),
    ] {
        cells.push((
            format!("BW copy {loc} {st} [GB/s]"),
            cell(c.copy_bw(loc, st), f1),
        ));
    }
    let fit = contention::fit(&c.contention);
    cells.push(("Contention α [ns]".to_string(), f1(fit.alpha)));
    cells.push(("Contention β [ns/thread]".to_string(), f1(fit.beta)));
    let ratio = c.congestion_ratio();
    let verdict = if ratio < NO_CONGESTION_BELOW {
        "none"
    } else {
        "congested"
    };
    cells.push((
        "Congestion (max/min pairs ratio)".to_string(),
        format!("{} ({verdict})", f2(ratio)),
    ));
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_benchsuite::LatencyStat;
    use knl_stats::Sample;

    #[test]
    fn column_renders_exactly_with_its_congestion_verdict() {
        let lat = |ns: f64| LatencyStat::from_sample(Sample::from_values(vec![ns]));
        let c = CacheResults {
            local_ns: Some(lat(3.84)),
            tile_ns: vec![('M', lat(34.0))],
            remote_ns: vec![('M', lat(119.25))],
            read_bw_gbps: 2.5,
            copy_bw_gbps: vec![("tile".to_string(), 'M', 7.45)],
            contention: vec![
                (1, Sample::from_values(vec![234.0])),
                (8, Sample::from_values(vec![472.0])),
            ],
            congestion: vec![(1, 100.0), (8, 150.0)],
            ..CacheResults::default()
        };
        assert_eq!(c.congestion_ratio(), 1.5);
        let t = table(&[ClusterMode::Quadrant], &[c]);
        assert_eq!(
            t.render(),
            concat!(
                "== Table I — cache-to-cache capabilities (medians; paper values in EXPERIMENTS.md) ==\n",
                "metric                            QUAD              \n",
                "----------------------------------------------------\n",
                "Latency local L1 [ns]             3.8               \n",
                "Latency tile M [ns]               34.0              \n",
                "Latency tile E [ns]               -                 \n",
                "Latency tile S [ns]               -                 \n",
                "Latency tile F [ns]               -                 \n",
                "Latency remote M [ns]             119.2             \n",
                "Latency remote E [ns]             -                 \n",
                "Latency remote S [ns]             -                 \n",
                "Latency remote F [ns]             -                 \n",
                "BW read [GB/s]                    2.5               \n",
                "BW copy tile M [GB/s]             7.5               \n",
                "BW copy tile E [GB/s]             -                 \n",
                "BW copy remote M [GB/s]           -                 \n",
                "BW copy remote E [GB/s]           -                 \n",
                "Contention α [ns]                 200.0             \n",
                "Contention β [ns/thread]          34.0              \n",
                "Congestion (max/min pairs ratio)  1.50 (congested)  \n",
            )
        );
        assert_eq!(
            t.csv(),
            concat!(
                "metric,QUAD\n",
                "Latency local L1 [ns],3.8\n",
                "Latency tile M [ns],34.0\n",
                "Latency tile E [ns],-\n",
                "Latency tile S [ns],-\n",
                "Latency tile F [ns],-\n",
                "Latency remote M [ns],119.2\n",
                "Latency remote E [ns],-\n",
                "Latency remote S [ns],-\n",
                "Latency remote F [ns],-\n",
                "BW read [GB/s],2.5\n",
                "BW copy tile M [GB/s],7.5\n",
                "BW copy tile E [GB/s],-\n",
                "BW copy remote M [GB/s],-\n",
                "BW copy remote E [GB/s],-\n",
                "Contention α [ns],200.0\n",
                "Contention β [ns/thread],34.0\n",
                "Congestion (max/min pairs ratio),1.50 (congested)\n",
            )
        );
    }
}
