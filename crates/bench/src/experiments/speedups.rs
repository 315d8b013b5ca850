//! Regenerates the §IV-B.3 headline speedups: "Our model-tuned algorithms
//! provide speedups of up to 7x (barrier) and 5x (reduce) over OpenMP, and
//! up to 24x (barrier), 13x (broadcast) and 14x (reduce) over Intel's MPI".

use crate::collective_fig::{run_figure, CollectiveKind};
use crate::modelfit::{fit_model, snc4_flat};
use crate::output::Table;
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
        let best_omp = pts
            .iter()
            .max_by(|a, b| a.openmp_speedup().total_cmp(&b.openmp_speedup()))
            .expect("points");
        let best_mpi = pts
            .iter()
            .max_by(|a, b| a.mpi_speedup().total_cmp(&b.mpi_speedup()))
            .expect("points");
        table.row(vec![
            kind.name().to_string(),
            format!("{:.1}x", best_omp.openmp_speedup()),
            best_omp.threads.to_string(),
            format!("{:.1}x", best_mpi.mpi_speedup()),
            best_mpi.threads.to_string(),
        ]);
    }
    table.print();
    let path = table.write_csv("speedups");
    eprintln!("csv: {}", path.display());

    // §IV-B.3's "not fundamental" aside: an XPMEM-style single-copy MPI
    // closes part of the gap; the model-tuned tree still wins.
    whatif_single_copy_mpi(conf, &model, iters, sink, base);
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
