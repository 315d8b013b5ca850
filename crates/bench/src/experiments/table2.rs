//! Regenerates **Table II**: memory latency and bandwidth per cluster mode,
//! flat and cache memory modes (medians; "peak" = best iteration anywhere
//! in the sweep, the STREAM column analogue).

use crate::output::{cell, f1, metric_rows, Table};
use crate::runconf::RunConf;
use crate::sweep::{executor, machine, print_counters, TraceSink};
use knl_arch::{ClusterMode, MachineConfig, MemoryMode};
use knl_benchsuite::{run_memory_suite, MemResults};
use knl_sim::StreamKind;

pub fn run(conf: &RunConf, sink: &TraceSink) {
    let params = conf.effort.suite_params();

    const MEM_MODES: [MemoryMode; 2] = [MemoryMode::Flat, MemoryMode::Cache];
    let points: Vec<(MemoryMode, ClusterMode)> = MEM_MODES
        .into_iter()
        .flat_map(|mm| ClusterMode::ALL.into_iter().map(move |cm| (mm, cm)))
        .collect();
    eprintln!(
        "running memory suite for {} configurations ({} jobs) ...",
        points.len(),
        conf.jobs
    );
    let results = executor(conf).run("table2", &points, |i, &(mm, cm)| {
        let cfg = MachineConfig::knl7210(cm, mm);
        let mut m = machine(conf, cfg);
        let res = run_memory_suite(&mut m, &params);
        m.finish_check();
        sink.submit(i, &mut m);
        (res, m.counters())
    });
    let mut results = results.into_iter();

    for mm in MEM_MODES {
        let mut columns = Vec::new();
        for cm in ClusterMode::ALL {
            let (res, counters) = results.next().expect("one result per configuration");
            print_counters(&format!("{}-{}", cm.name(), mm.name()), &counters);
            columns.push(column(mm, &res));
        }
        let mut table = Table::new(
            &format!("Table II ({} mode) — memory capabilities", mm.name()),
            &["metric", "SNC4", "SNC2", "QUAD", "HEM", "A2A"],
        );
        for row in metric_rows(&columns) {
            table.row(row);
        }
        table.emit(&format!("table2_{}", mm.name()));
        println!();
    }
}

/// One cluster mode's column in memory mode `mm`: (metric, cell) from top
/// to bottom.
fn column(mm: MemoryMode, c: &MemResults) -> Vec<(String, String)> {
    let targets: &[&str] = match mm {
        MemoryMode::Flat => &["DRAM", "MCDRAM"],
        _ => &["cache"],
    };
    let mut cells = Vec::new();
    for t in targets {
        cells.push((format!("Latency {t} [ns]"), cell(c.latency(t), f1)));
    }
    for kind in StreamKind::ALL {
        let name = kind.name();
        for t in targets {
            let (median, peak) = (c.table_cell(kind, t), c.peak_cell(kind, t));
            cells.push((format!("BW {name} {t} median [GB/s]"), cell(median, f1)));
            cells.push((format!("BW {name} {t} peak [GB/s]"), cell(peak, f1)));
        }
    }
    cells
}
