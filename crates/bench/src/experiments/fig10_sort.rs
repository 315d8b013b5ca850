//! Regenerates **Fig. 10**: merge-sort performance vs thread count for
//! 1 KB / 4 MB / "1 GB" inputs in SNC4-flat, compared against the four
//! model lines (memory model with latency / bandwidth cost, full model =
//! memory + overhead), with the 10% efficiency marker, and the MCDRAM vs
//! DRAM comparison the paper's headline insight rests on.
//!
//! Capacity note: the simulated machine scales capacities by 1/64 (1 GiB
//! DDR, 256 MiB MCDRAM), so `--paper` regenerates the paper's 1 GB panel at
//! 256 MiB ("1GB/4" label) and `--quick` runs a 64 MiB panel ("64MB") in
//! its place; shapes are size-relative so the crossovers are preserved.

use crate::modelfit::fit_model;
use crate::output::{cell, secs, Table};
use crate::runconf::{Effort, RunConf};
use crate::sweep::{executor, machine, TraceSink};
use knl_arch::{ClusterMode, MachineConfig, MemoryMode, NumaKind, Schedule};
use knl_core::efficiency::{efficiency_sweep, Efficiency, EFFICIENCY_THRESHOLD};
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
    // Beyond 64 threads the sort uses 64 workers, so every sweep (and the
    // fit: duplicated points would flatten its slope) runs one point per
    // distinct worker count.
    let usable: Vec<usize> = threads.iter().copied().filter(|&t| t <= 64).collect();
    let fit_base = next_job;
    next_job += usable.len();
    let fit_secs = exec.run("fig10_fit", &usable, |i, &t| {
        measure(fit_base + i, 1 << 10, t, NumaKind::Ddr)
    });
    let small: Vec<(usize, f64)> = usable.iter().copied().zip(fit_secs).collect();
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
        let mem_model = |t: usize| dram_model.sort_seconds(*bytes, t, CostBasis::Bandwidth);
        let (effs, last_eff) = efficiency_sweep(mem_model, &overhead, &usable);
        let base = next_job;
        next_job += usable.len();
        let measured = exec.run(&format!("fig10_{label}"), &usable, |i, &t| {
            let ddr_s = measure(base + i, *bytes, t, NumaKind::Ddr);
            let mcdram_s = (2 * bytes < cfg.mcdram_bytes)
                .then(|| measure(base + i, *bytes, t, NumaKind::Mcdram));
            (ddr_s, mcdram_s)
        });
        let rows: Vec<SortRow> = measured
            .into_iter()
            .zip(effs)
            .map(|((ddr_s, mcdram_s), eff)| SortRow {
                ddr_s,
                mcdram_s,
                mem_lat_s: dram_model.sort_seconds(*bytes, eff.threads, CostBasis::Latency),
                eff,
            })
            .collect();
        table(label, &rows).emit(&format!("fig10_sort_{label}").replace('/', "_"));
        match last_eff {
            Some(t) => println!(
                "memory-bound (overhead ≤ {:.0}%) up to {t} threads",
                EFFICIENCY_THRESHOLD * 100.0
            ),
            None => println!("never memory-bound at this size"),
        }
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

/// One thread count of a panel: the measured sorts and the model lines.
struct SortRow {
    /// Measured (simulated) seconds with the data in DRAM.
    ddr_s: f64,
    /// The same in MCDRAM, or `None` (printed "-") where the sort's two
    /// buffers of the panel's size do not fit the scaled 256 MiB MCDRAM:
    /// the 256 MiB panel of `--paper`.
    mcdram_s: Option<f64>,
    /// Memory model with the latency cost, seconds.
    mem_lat_s: f64,
    /// Memory model with the bandwidth cost, the modeled overhead and the
    /// 10 % verdict, at this row's thread count.
    eff: Efficiency,
}

/// One panel's table.
fn table(label: &str, rows: &[SortRow]) -> Table {
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
    for r in rows {
        table.row(vec![
            r.eff.threads.to_string(),
            secs(r.ddr_s),
            cell(r.mcdram_s, secs),
            secs(r.mem_lat_s),
            secs(r.eff.memory_s),
            secs(r.eff.memory_s + r.eff.overhead_s),
            format!("{:.0}%", r.eff.ratio() * 100.0),
            if r.eff.is_efficient() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_render_exactly() {
        let row = |threads, ddr_s, mcdram_s, mem_lat_s, memory_s, overhead_s| SortRow {
            ddr_s,
            mcdram_s,
            mem_lat_s,
            eff: Efficiency {
                threads,
                memory_s,
                overhead_s,
            },
        };
        let rows = [
            row(1, 1.5e-6, Some(1.25e-3), 2.0, 0.5, 0.025),
            row(64, 3.0, None, 4e-7, 1e-3, 5e-4),
        ];
        let t = table("1GB/4", &rows);
        assert_eq!(
            t.render(),
            concat!(
                "== Fig. 10 — sorting 1GB/4 of integers, SNC4-flat ==\n",
                "threads  measured DRAM  measured MCDRAM  mem model (lat)  mem model (BW)  full model (BW)  overhead/mem  efficient?  \n",
                "---------------------------------------------------------------------------------------------------------------------\n",
                "1        1.50 µs        1.25 ms          2.00 s           500.00 ms       525.00 ms        5%            yes         \n",
                "64       3.00 s         -                400 ns           1.00 ms         1.50 ms          50%           NO          \n",
            )
        );
        assert_eq!(
            t.csv(),
            concat!(
                "threads,measured DRAM,measured MCDRAM,mem model (lat),mem model (BW),full model (BW),overhead/mem,efficient?\n",
                "1,1.50 µs,1.25 ms,2.00 s,500.00 ms,525.00 ms,5%,yes\n",
                "64,3.00 s,-,400 ns,1.00 ms,1.50 ms,50%,NO\n",
            )
        );
    }
}
