//! Extension beyond the paper's evaluation: the **hybrid** memory mode
//! (§II-C describes it; the evaluation never benchmarks it). The MCDRAM is
//! part direct-mapped memory-side cache (4 or 8 GB) and part flat NUMA
//! node. This experiment measures both halves of both splits and answers the
//! practical question the mode poses: *how much flat MCDRAM does an
//! application need before hybrid beats pure cache or pure flat?*

use crate::output::{cell, f1, Table};
use crate::runconf::RunConf;
use crate::sweep::{executor, machine, print_counters, TraceSink};
use knl_arch::{ClusterMode, CoreId, HybridSplit, MachineConfig, MemoryMode, NumaKind, Schedule};
use knl_benchsuite::membw::{bandwidth_sample, Target};
use knl_benchsuite::memlat;
use knl_sim::{Machine, StreamKind};

pub fn run(conf: &RunConf, sink: &TraceSink) {
    let mut params = conf.effort.suite_params();
    params.mem_threads = vec![32];
    params.iters = params.iters.min(9);
    params.mem_lines_per_thread = params.mem_lines_per_thread.min(1024);

    let modes = [
        ("flat", MemoryMode::Flat),
        ("hybrid25", MemoryMode::Hybrid(HybridSplit::Quarter)),
        ("hybrid50", MemoryMode::Hybrid(HybridSplit::Half)),
        ("cache", MemoryMode::Cache),
    ];
    eprintln!(
        "exploring {} memory modes ({} jobs) ...",
        modes.len(),
        conf.jobs
    );
    let rows = executor(conf).run("hybrid", &modes, |i, &(_, mm)| {
        let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, mm);
        let mut m = machine(conf, cfg.clone());

        // Latency of the flat MCDRAM portion (if any).
        let mc_lat = mm.has_flat_mcdram().then(|| {
            let s = memlat::memory_latency(&mut m, CoreId(0), NumaKind::Mcdram, 8 << 10, 60);
            m.reset_caches();
            s.median()
        });
        // Latency of a DDR-backed access (through the memory-side cache
        // when one exists).
        let ddr_lat = {
            let base = m.arena().alloc(NumaKind::Ddr, (8u64 << 10) * 64);
            if mm.has_mcdram_cache() {
                let _ = memlat::chase_latency(&mut m, CoreId(0), base, 8 << 10, 120);
                m.reset_tile_caches();
            }
            let s = memlat::chase_latency(&mut m, CoreId(0), base, 8 << 10, 120);
            m.reset_caches();
            s.median()
        };

        // Bandwidths.
        let read = |m: &mut Machine, target| {
            bandwidth_sample(
                m,
                StreamKind::Read,
                target,
                32,
                Schedule::FillTiles,
                &params,
            )
            .median()
        };
        let mc_bw = mm.has_flat_mcdram().then(|| {
            let gbps = read(&mut m, Target::Mcdram);
            m.reset_devices();
            m.reset_caches();
            gbps
        });
        let ddr_bw = if mm.has_mcdram_cache() {
            read(&mut m, Target::CacheMode)
        } else {
            read(&mut m, Target::Ddr)
        };

        // Capacities at the real machine's scale (64x the simulated one).
        let gb = |bytes: u64| bytes as f64 / (1 << 30) as f64 * 64.0;
        let cache_gb = gb(mm.mcdram_cache_bytes(cfg.mcdram_bytes));
        let flat_gb = gb(mm.mcdram_flat_bytes(cfg.mcdram_bytes));
        m.finish_check();
        sink.submit(i, &mut m);
        let row = (mc_lat, ddr_lat, mc_bw, ddr_bw, cache_gb, flat_gb);
        (row, m.counters())
    });

    let mut table = Table::new(
        "Hybrid-mode exploration (Quadrant, 32 threads) — latency [ns] / read BW [GB/s]",
        &[
            "memory mode",
            "flat-MCDRAM lat",
            "DDR-path lat",
            "flat-MCDRAM read",
            "DDR-path read",
            "cache GB",
            "flat GB",
        ],
    );
    for ((label, _), (row, counters)) in modes.iter().zip(rows) {
        print_counters(label, &counters);
        let (mc_lat, ddr_lat, mc_bw, ddr_bw, cache_gb, flat_gb) = row;
        table.row(vec![
            label.to_string(),
            cell(mc_lat, f1),
            f1(ddr_lat),
            cell(mc_bw, f1),
            f1(ddr_bw),
            format!("{cache_gb:.0}"),
            format!("{flat_gb:.0}"),
        ]);
    }
    table.emit("hybrid_explorer");
    println!();
    println!("Reading: hybrid keeps flat-MCDRAM bandwidth for data the programmer places");
    println!("explicitly while DDR-backed data still gets (a smaller) memory-side cache —");
    println!("the cache half behaves like cache mode with proportionally lower hit rates.");
    println!("(capacities shown at the real machine's scale: 16 GB MCDRAM)");
}
