//! Regenerates **Fig. 9**: memory bandwidth of the triad kernel in
//! SNC4-flat mode vs thread count, for MCDRAM and DRAM, under the
//! filling-cores (compact, 4 HT/core) and filling-tiles schedules.

use crate::output::{f1, Table};
use crate::runconf::{Effort, RunConf};
use crate::sweep::{executor, machine, print_counters, TraceSink};
use knl_arch::{ClusterMode, MachineConfig, MemoryMode, Schedule};
use knl_benchsuite::membw::{bandwidth_sample, Target};
use knl_sim::StreamKind;

pub fn run(conf: &RunConf, sink: &TraceSink) {
    let effort = conf.effort;
    let mut params = effort.suite_params();
    if effort == Effort::Quick {
        params.mem_lines_per_thread = 1024;
        params.iters = 5;
    }
    // The paper's x-axis: 1/1, 4/1, 8/2 ... 256/64 for filling cores and
    // 1/1, 4/4 ... 256/64 for filling tiles.
    let threads: Vec<usize> = match effort {
        Effort::Paper => vec![1, 4, 8, 16, 32, 64, 128, 256],
        Effort::Quick => vec![1, 8, 32, 64],
    };
    let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);

    let points: Vec<(Schedule, usize)> = [Schedule::FillCores, Schedule::FillTiles]
        .into_iter()
        .flat_map(|sched| {
            threads
                .iter()
                .filter(|&&t| t <= cfg.num_hw_threads())
                .map(move |&t| (sched, t))
        })
        .collect();
    eprintln!(
        "fig9: {} sweep points ({} jobs) ...",
        points.len(),
        conf.jobs
    );
    let results = executor(conf).run("fig9", &points, |i, &(sched, t)| {
        let mut m = machine(conf, cfg.clone());
        let mc = bandwidth_sample(&mut m, StreamKind::Triad, Target::Mcdram, t, sched, &params);
        m.reset_devices();
        m.reset_caches();
        let dd = bandwidth_sample(&mut m, StreamKind::Triad, Target::Ddr, t, sched, &params);
        m.finish_check();
        sink.submit(i, &mut m);
        (mc.median(), dd.median(), m.counters())
    });

    let mut table = Table::new(
        "Fig. 9 — triad bandwidth, SNC4-flat [GB/s]",
        &["schedule", "threads", "cores", "MCDRAM", "DRAM"],
    );
    for (&(sched, t), (mc, dd, counters)) in points.iter().zip(results) {
        let cores = sched.cores_used(t, cfg.num_cores());
        print_counters(&format!("{}-{t}", sched.name()), &counters);
        table.row(vec![
            sched.name().to_string(),
            t.to_string(),
            cores.to_string(),
            f1(mc),
            f1(dd),
        ]);
    }
    table.emit("fig9_triad");
}
