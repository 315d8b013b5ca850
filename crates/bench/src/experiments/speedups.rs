//! Regenerates the §IV-B.3 headline speedups: "Our model-tuned algorithms
//! provide speedups of up to 7x (barrier) and 5x (reduce) over OpenMP, and
//! up to 24x (barrier), 13x (broadcast) and 14x (reduce) over Intel's MPI".

use crate::collective_fig::{best, run_figure, CollectiveKind, SeriesPoint};
use crate::modelfit::{fit_model, snc4_flat};
use crate::output::{x1, Table};
use crate::runconf::RunConf;
use crate::sweep::TraceSink;
use knl_arch::Schedule;

pub fn run(conf: &RunConf, sink: &TraceSink) {
    let effort = conf.effort;
    let cfg = snc4_flat();
    eprintln!("fitting capability model on {} ...", cfg.label());
    let model = fit_model(&cfg, &effort.suite_params());
    let threads = effort.collective_threads();
    let iters = effort.collective_iters();
    // One sink for the whole experiment: the three sweeps' points, then
    // the what-if machine, in one trace / telemetry file.
    let mut base = 0;

    let mut table = Table::new(
        "Max speedups of model-tuned collectives (paper: barrier 7x/24x, bcast -/13x, reduce 5x/14x)",
        &["collective", "vs OpenMP-like", "at threads", "vs MPI-like", "at threads"],
    );
    for kind in [
        CollectiveKind::Barrier,
        CollectiveKind::Broadcast,
        CollectiveKind::Reduce,
    ] {
        eprintln!("running {} ...", kind.name());
        let pts = run_figure(
            &cfg,
            &model,
            kind,
            &threads,
            &[Schedule::FillTiles, Schedule::Scatter],
            iters,
            conf,
            sink,
            base,
        );
        base += pts.len();
        table.row(row(kind, &pts));
    }
    table.emit("speedups");

    // §IV-B.3's "not fundamental" aside: an XPMEM-style single-copy MPI
    // closes part of the gap; the model-tuned tree still wins.
    whatif_single_copy_mpi(conf, &model, iters, sink, base);
}

/// One collective's row: its figure's best speedup over each baseline and
/// the thread count it was reached at.
fn row(kind: CollectiveKind, pts: &[SeriesPoint]) -> Vec<String> {
    let omp = best(pts, SeriesPoint::openmp_speedup);
    let mpi = best(pts, SeriesPoint::mpi_speedup);
    vec![
        kind.name().to_string(),
        x1(omp.openmp_speedup()),
        omp.threads.to_string(),
        x1(mpi.mpi_speedup()),
        mpi.threads.to_string(),
    ]
}

fn whatif_single_copy_mpi(
    conf: &RunConf,
    model: &knl_core::CapabilityModel,
    iters: usize,
    sink: &TraceSink,
    job: usize,
) {
    use crate::sweep::machine;
    use knl_arch::NumaKind;
    use knl_collectives::plan::RankPlan;
    use knl_collectives::simspec;
    use knl_core::tree_opt::binomial_tree;
    use knl_core::{optimize_tree, TreeKind};
    use knl_stats::median;

    let cfg = snc4_flat();
    let n = 64;
    let mut m = machine(conf, cfg);
    let mut arena = m.arena();
    let lay = simspec::SimLayout::alloc(&mut arena, NumaKind::Mcdram, n);
    let bplan = RankPlan::direct(&binomial_tree(n));
    let double = median(&simspec::run_collective(
        &mut m,
        simspec::mpi_broadcast_programs(&bplan, &lay, Schedule::Scatter, 64, iters),
        iters,
    ));
    m.reset_caches();
    let single = median(&simspec::run_collective(
        &mut m,
        simspec::mpi_broadcast_single_copy_programs(&bplan, &lay, Schedule::Scatter, 64, iters),
        iters,
    ));
    m.reset_caches();
    let tuned_plan = RankPlan::direct(&optimize_tree(model, n, TreeKind::Broadcast).tree);
    let tuned = median(&simspec::run_collective(
        &mut m,
        simspec::tree_broadcast_programs(&tuned_plan, &lay, Schedule::Scatter, 64, iters),
        iters,
    ));
    m.finish_check();
    sink.submit(job, &mut m);
    println!();
    println!("what-if (§IV-B.3): broadcast at 64 threads —");
    println!("  MPI-like, double copy      : {double:.0} ns");
    println!(
        "  MPI-like, single copy      : {single:.0} ns ({:.2}x — at one-line payloads the \
         per-message matching overhead, not the copy, dominates)",
        double / single
    );
    println!(
        "  model-tuned tree           : {tuned:.0} ns ({:.1}x ahead of even single-copy MPI: \
         the win comes from the algorithm shape and the lean flag protocol, supporting the \
         paper's point that address-space mapping alone would not close the gap)",
        single / tuned
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective_fig::summary;
    use knl_core::CapabilityModel;

    #[test]
    fn rows_are_each_figures_fold() {
        let conf = RunConf {
            jobs: 2,
            progress: knl_benchsuite::ProgressMode::Off,
            ..Default::default()
        };
        let sink = TraceSink::new(&conf, "unused");
        let (cfg, model) = (snc4_flat(), CapabilityModel::paper_reference());
        for kind in [CollectiveKind::Barrier, CollectiveKind::Broadcast] {
            let scheds = [Schedule::Scatter];
            let pts = run_figure(&cfg, &model, kind, &[4, 8], &scheds, 2, &conf, &sink, 0);
            let r = row(kind, &pts);
            // The figure's own last line prints the same two numbers ...
            let line = format!(
                "max speedup of model-tuned {} over OpenMP-like: {}, over MPI-like: {}",
                kind.name(),
                r[1],
                r[3]
            );
            assert_eq!(summary(kind, &pts), line);
            // ... and they are the maxima over the points, at the thread
            // count of the last point that reaches each.
            let fold = |speedup: fn(&SeriesPoint) -> f64| {
                let max = pts.iter().map(speedup).fold(f64::NEG_INFINITY, f64::max);
                let at = pts.iter().rfind(|p| speedup(p) == max).expect("a maximum");
                [x1(max), at.threads.to_string()]
            };
            assert_eq!(r[1..3], fold(SeriesPoint::openmp_speedup));
            assert_eq!(r[3..5], fold(SeriesPoint::mpi_speedup));
        }
    }
}
