//! Regenerates **Fig. 10**: merge-sort performance vs thread count for
//! 1 KB / 4 MB / "1 GB" inputs in SNC4-flat, compared against the four
//! model lines (memory model with latency / bandwidth cost, full model =
//! memory + overhead), with the 10% efficiency marker, and the MCDRAM vs
//! DRAM comparison the paper's headline insight rests on.
//!
//! Capacity note: the simulated machine scales capacities by 1/64 (1 GiB
//! DDR, 256 MiB MCDRAM), so the paper's 1 GB panel is regenerated at
//! 128 MiB ("1GB/8" label) unless --paper is given (256 MiB); shapes are
//! size-relative so the crossovers are preserved.

use crate::modelfit::fit_model;
use crate::output::{secs, Table};
use crate::runconf::{Effort, RunConf};
use crate::sweep::{executor, machine, TraceSink};
use knl_arch::{ClusterMode, MachineConfig, MemoryMode, NumaKind, Schedule};
use knl_core::efficiency::{efficiency_sweep, EFFICIENCY_THRESHOLD};
use knl_core::overhead::OverheadModel;
use knl_core::sortmodel::{CostBasis, SortModel};
use knl_sort::simsort::{run_simsort, SimSortSpec};

pub fn run(conf: &RunConf, sink: &TraceSink) {
    let effort = conf.effort;
    let exec = executor(conf);
    let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
    eprintln!("fitting capability model on {} ...", cfg.label());
    let model = fit_model(&cfg, &effort.suite_params());

    let threads: Vec<usize> = match effort {
        Effort::Paper => vec![1, 2, 4, 8, 16, 32, 64, 128, 256],
        Effort::Quick => vec![1, 4, 16, 64],
    };
    let sizes: Vec<(&str, u64)> = match effort {
        Effort::Paper => vec![("1KB", 1 << 10), ("4MB", 4 << 20), ("1GB/4", 256 << 20)],
        Effort::Quick => vec![("1KB", 1 << 10), ("4MB", 4 << 20), ("64MB", 64 << 20)],
    };

    // One merged trace across the sort sweeps; each sweep claims a disjoint
    // job-index range so sections stay in canonical order.
    // Measure (simulate) the 1 KB sorts to fit the overhead model, exactly
    // as §V-B.2 prescribes.
    let measure = |job: usize, bytes: u64, threads: usize, mem: NumaKind| -> f64 {
        let mut m = machine(conf, cfg.clone());
        let spec = SimSortSpec {
            bytes,
            threads,
            schedule: Schedule::FillTiles,
            memory: mem,
        };
        let secs = run_simsort(&mut m, &spec);
        m.finish_check();
        sink.submit(job, &mut m);
        secs
    };
    let mut next_job = 0usize;

    let dram_model = SortModel::new(&model, "DRAM");
    // Fit on one measurement per distinct worker count (beyond 64 the sort
    // uses 64 workers; duplicating those points would flatten the slope).
    let fit_threads: Vec<usize> = threads.iter().copied().filter(|&t| t <= 64).collect();
    let fit_base = next_job;
    next_job += fit_threads.len();
    let fit_secs = exec.run("fig10_fit", &fit_threads, |i, &t| {
        measure(fit_base + i, 1 << 10, t, NumaKind::Ddr)
    });
    let small: Vec<(usize, f64)> = fit_threads.iter().copied().zip(fit_secs).collect();
    let overhead = OverheadModel::fit(&small, |t| {
        dram_model.sort_seconds(1 << 10, t.next_power_of_two(), CostBasis::Bandwidth)
    });
    eprintln!(
        "overhead model: {:.2} µs + {:.3} µs/thread (r² {:.3})",
        overhead.fit.alpha * 1e6,
        overhead.fit.beta * 1e6,
        overhead.fit.r2
    );

    for (label, bytes) in &sizes {
        let mut table = Table::new(
            &format!("Fig. 10 — sorting {label} of integers, SNC4-flat"),
            &[
                "threads",
                "measured DRAM",
                "measured MCDRAM",
                "mem model (lat)",
                "mem model (BW)",
                "full model (BW)",
                "overhead/mem",
                "efficient?",
            ],
        );
        let usable: Vec<usize> = threads.iter().copied().filter(|&t| t <= 64).collect();
        let mem_model = |t: usize| dram_model.sort_seconds(*bytes, t, CostBasis::Bandwidth);
        let (effs, last_eff) = efficiency_sweep(mem_model, &overhead, &usable);
        let base = next_job;
        next_job += usable.len();
        let measured = exec.run(&format!("fig10_{label}"), &usable, |i, &t| {
            let meas_d = measure(base + i, *bytes, t, NumaKind::Ddr);
            let meas_m = if (*bytes as u128) < (200u128 << 20) {
                measure(base + i, *bytes, t, NumaKind::Mcdram)
            } else {
                f64::NAN // exceeds scaled MCDRAM capacity
            };
            (meas_d, meas_m)
        });
        for (i, (&t, (meas_d, meas_m))) in usable.iter().zip(measured).enumerate() {
            let lat = dram_model.sort_seconds(*bytes, t, CostBasis::Latency);
            let bw = mem_model(t);
            let full = overhead.full(bw, t);
            table.row(vec![
                t.to_string(),
                secs(meas_d),
                if meas_m.is_nan() {
                    "-".into()
                } else {
                    secs(meas_m)
                },
                secs(lat),
                secs(bw),
                secs(full),
                format!("{:.0}%", effs[i].ratio() * 100.0),
                if effs[i].is_efficient() {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
        table.print();
        match last_eff {
            Some(t) => println!(
                "memory-bound (overhead ≤ {:.0}%) up to {t} threads",
                EFFICIENCY_THRESHOLD * 100.0
            ),
            None => println!("never memory-bound at this size"),
        }
        let path = table.write_csv(&format!("fig10_sort_{label}").replace('/', "_"));
        eprintln!("csv: {}", path.display());
        println!();
    }

    // Headline check: MCDRAM vs DRAM at the largest size that fits both.
    let bytes = 64u64 << 20;
    let d = measure(next_job, bytes, 32, NumaKind::Ddr);
    let c = measure(next_job + 1, bytes, 32, NumaKind::Mcdram);
    println!(
        "MCDRAM speedup for the sort (64 MiB, 32 threads): {:.2}x — the paper predicts ≈1 \
         (no benefit despite 4-5x bandwidth)",
        d / c
    );
}
