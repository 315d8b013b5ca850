//! Regenerates **Table II**: memory latency and bandwidth per cluster mode,
//! flat and cache memory modes (medians; "peak" = best iteration anywhere
//! in the sweep, the STREAM column analogue).

use crate::output::{f1, Table};
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
        let mut columns: Vec<MemResults> = Vec::new();
        for cm in ClusterMode::ALL {
            let (res, counters) = results.next().expect("one result per configuration");
            print_counters(&format!("{}-{}", cm.name(), mm.name()), &counters);
            columns.push(res);
        }

        let mut table = Table::new(
            &format!("Table II ({} mode) — memory capabilities", mm.name()),
            &["metric", "SNC4", "SNC2", "QUAD", "HEM", "A2A"],
        );
        let metric = |name: &str, f: &dyn Fn(&MemResults) -> f64| -> Vec<String> {
            let mut row = vec![name.to_string()];
            row.extend(columns.iter().map(|c| f1(f(c))));
            row
        };

        let targets: &[&str] = match mm {
            MemoryMode::Flat => &["DRAM", "MCDRAM"],
            _ => &["cache"],
        };
        for t in targets {
            table.row(metric(&format!("Latency {t} [ns]"), &|c| {
                c.latency(t).unwrap_or(f64::NAN)
            }));
        }
        for kind in StreamKind::ALL {
            for t in targets {
                table.row(metric(
                    &format!("BW {} {t} median [GB/s]", kind.name()),
                    &|c| c.table_cell(kind, t).unwrap_or(f64::NAN),
                ));
                table.row(metric(
                    &format!("BW {} {t} peak [GB/s]", kind.name()),
                    &|c| c.peak_cell(kind, t).unwrap_or(f64::NAN),
                ));
            }
        }
        table.print();
        let path = table.write_csv(&format!("table2_{}", mm.name()));
        eprintln!("csv: {}", path.display());
        println!();
    }
}
