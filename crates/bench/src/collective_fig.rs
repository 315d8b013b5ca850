//! Shared driver for Figs. 6–8: model-tuned collectives vs OpenMP-like and
//! MPI-like baselines on the simulated KNL, with the min–max model band.

use crate::runconf::RunConf;
use crate::sweep::{executor, machine, TraceSink};
use knl_arch::{MachineConfig, NumaKind, Schedule};
use knl_collectives::plan::{tile_groups, RankPlan};
use knl_collectives::simspec::{self, SimLayout};
use knl_core::predict::{intra_tile_stage, predict_barrier, predict_broadcast, predict_reduce};
use knl_core::tree_opt::binomial_tree;
use knl_core::{optimize_barrier, optimize_tree, CapabilityModel, MinMax, TreeKind};
use knl_sim::Program;
use knl_stats::{boxplot, median, BoxplotSummary, Sample};

/// Which collective the figure shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    Barrier,
    Broadcast,
    Reduce,
}

impl CollectiveKind {
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Reduce => "reduce",
        }
    }
}

/// One point of the figure.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    pub threads: usize,
    pub schedule: Schedule,
    /// Model-tuned implementation, per-iteration maxima (ns).
    pub tuned: BoxplotSummary,
    pub tuned_sample: Sample,
    /// OpenMP-like baseline median (ns).
    pub openmp_ns: f64,
    /// MPI-like baseline median (ns).
    pub mpi_ns: f64,
    /// Min–max model envelope (ns).
    pub model: MinMax,
}

impl SeriesPoint {
    pub fn openmp_speedup(&self) -> f64 {
        self.openmp_ns / self.tuned.median
    }

    pub fn mpi_speedup(&self) -> f64 {
        self.mpi_ns / self.tuned.median
    }
}

/// Run one collective figure on `cfg` (the paper: SNC4-flat, MCDRAM).
///
/// Every (schedule, thread-count) point builds its own `Machine` via the
/// observer-honouring `sweep::machine` helper, so the points are
/// independent jobs; `conf.jobs` workers run them in parallel with results
/// merged back into the canonical (schedule-major) order — the output is
/// bit-identical to a serial run (`--jobs 1`). Point `i` submits its
/// machine to the caller's `sink` as job `base + i`, so an experiment
/// running several figures collects them all in one trace / telemetry file.
#[allow(clippy::too_many_arguments)]
pub fn run_figure(
    cfg: &MachineConfig,
    model: &CapabilityModel,
    kind: CollectiveKind,
    threads_list: &[usize],
    schedules: &[Schedule],
    iters: usize,
    conf: &RunConf,
    sink: &TraceSink,
    base: usize,
) -> Vec<SeriesPoint> {
    let num_cores = cfg.num_cores();
    let points: Vec<(Schedule, usize)> = schedules
        .iter()
        .flat_map(|&sched| {
            threads_list
                .iter()
                .filter(|&&n| n <= num_cores)
                .map(move |&n| (sched, n))
        })
        .collect();
    executor(conf).run(kind.name(), &points, |i, &(sched, n)| {
        let mut m = machine(conf, cfg.clone());
        let mut arena = m.arena();
        let layout = SimLayout::alloc(&mut arena, NumaKind::Mcdram, n);

        // Caches are reset between runs only: a reset emits observer events.
        let [tuned, openmp, mpi] = programs(model, kind, n, sched, num_cores, &layout, iters);
        let tuned_vals = simspec::run_collective(&mut m, tuned, iters);
        m.reset_caches();
        let openmp = simspec::run_collective(&mut m, openmp, iters);
        m.reset_caches();
        let mpi = simspec::run_collective(&mut m, mpi, iters);

        let envelope = model_envelope(model, kind, n, sched, num_cores);
        let sample = Sample::from_values(tuned_vals.clone());
        let point = SeriesPoint {
            threads: n,
            schedule: sched,
            tuned: boxplot(&tuned_vals),
            tuned_sample: sample,
            openmp_ns: median(&openmp),
            mpi_ns: median(&mpi),
            model: envelope,
        };
        m.finish_check();
        sink.submit(base + i, &mut m);
        point
    })
}

/// The three implementations of `kind` at one point, in the order they
/// run: model-tuned, OpenMP-like, MPI-like (over a binomial tree).
fn programs(
    model: &CapabilityModel,
    kind: CollectiveKind,
    n: usize,
    sched: Schedule,
    cores: usize,
    lay: &SimLayout,
    iters: usize,
) -> [Vec<Program>; 3] {
    let plan = |tree| tuned_tree_plan(model, tree, n, sched, cores);
    let binomial = RankPlan::direct(&binomial_tree(n));
    match kind {
        CollectiveKind::Barrier => {
            let m = optimize_barrier(model, n).m;
            [
                simspec::dissemination_barrier_programs(n, m, lay, sched, cores, iters),
                simspec::central_barrier_programs(n, lay, sched, cores, iters),
                simspec::mpi_barrier_programs(&binomial, lay, sched, cores, iters),
            ]
        }
        CollectiveKind::Broadcast => [
            simspec::tree_broadcast_programs(&plan(TreeKind::Broadcast), lay, sched, cores, iters),
            simspec::flat_broadcast_programs(n, lay, sched, cores, iters),
            simspec::mpi_broadcast_programs(&binomial, lay, sched, cores, iters),
        ],
        CollectiveKind::Reduce => [
            simspec::tree_reduce_programs(&plan(TreeKind::Reduce), lay, sched, cores, iters),
            simspec::central_reduce_programs(n, lay, sched, cores, iters),
            simspec::mpi_reduce_programs(&binomial, lay, sched, cores, iters),
        ],
    }
}

/// Model-tuned hierarchical plan: inter-tile tree over tile-leader ranks,
/// flat fan-out within a tile.
pub fn tuned_tree_plan(
    model: &CapabilityModel,
    kind: TreeKind,
    n: usize,
    sched: Schedule,
    num_cores: usize,
) -> RankPlan {
    let groups = tile_groups(n, sched, num_cores);
    let tree = optimize_tree(model, groups.len(), kind).tree;
    RankPlan::hierarchical(&tree, n, sched, num_cores)
}

fn model_envelope(
    model: &CapabilityModel,
    kind: CollectiveKind,
    n: usize,
    sched: Schedule,
    num_cores: usize,
) -> MinMax {
    match kind {
        CollectiveKind::Barrier => predict_barrier(model, n),
        CollectiveKind::Broadcast | CollectiveKind::Reduce => {
            let groups = tile_groups(n, sched, num_cores);
            let base = if kind == CollectiveKind::Broadcast {
                predict_broadcast(model, groups.len())
            } else {
                predict_reduce(model, groups.len())
            };
            let widest = groups.iter().map(|g| g.len() - 1).max().unwrap_or(0);
            let intra = intra_tile_stage(model, widest);
            base.add(MinMax::point(intra))
        }
    }
}

/// The experiment body shared by Figs. 6–8 (`name` is the registry id):
/// fit the model, run both schedules, print the table, dump the CSV,
/// summarize speedups.
pub fn run(name: &str, kind: CollectiveKind, conf: &RunConf, sink: &TraceSink) {
    use crate::output::{f1, Table};
    let effort = conf.effort;
    let cfg = crate::modelfit::snc4_flat();
    eprintln!("fitting capability model on {} ...", cfg.label());
    let model = crate::modelfit::fit_model(&cfg, &effort.suite_params());
    let threads = effort.collective_threads();
    let iters = effort.collective_iters();
    eprintln!(
        "running {} figure ({} iters, {} jobs) ...",
        kind.name(),
        iters,
        conf.jobs
    );
    let pts = run_figure(
        &cfg,
        &model,
        kind,
        &threads,
        &[Schedule::FillTiles, Schedule::Scatter],
        iters,
        conf,
        sink,
        0,
    );

    let mut table = Table::new(
        &format!("{name} — {} in SNC4-flat (MCDRAM) [ns]", kind.name()),
        &[
            "schedule",
            "threads",
            "tuned q1",
            "tuned med",
            "tuned q3",
            "OpenMP-like",
            "MPI-like",
            "model best",
            "model worst",
            "x OpenMP",
            "x MPI",
        ],
    );
    for p in &pts {
        table.row(vec![
            p.schedule.name().to_string(),
            p.threads.to_string(),
            f1(p.tuned.q1),
            f1(p.tuned.median),
            f1(p.tuned.q3),
            f1(p.openmp_ns),
            f1(p.mpi_ns),
            f1(p.model.best),
            f1(p.model.worst),
            format!("{:.1}x", p.openmp_speedup()),
            format!("{:.1}x", p.mpi_speedup()),
        ]);
    }
    table.print();
    let path = table.write_csv(name);
    eprintln!("csv: {}", path.display());

    // Terminal chart of the scatter-schedule series (threads vs ns).
    let scatter: Vec<&SeriesPoint> = pts
        .iter()
        .filter(|p| p.schedule == Schedule::Scatter)
        .collect();
    if scatter.len() >= 2 {
        let series = vec![
            crate::plot::Series::new(
                "model-tuned (median)",
                scatter
                    .iter()
                    .map(|p| (p.threads as f64, p.tuned.median))
                    .collect(),
            ),
            crate::plot::Series::new(
                "OpenMP-like",
                scatter
                    .iter()
                    .map(|p| (p.threads as f64, p.openmp_ns))
                    .collect(),
            ),
            crate::plot::Series::new(
                "MPI-like",
                scatter
                    .iter()
                    .map(|p| (p.threads as f64, p.mpi_ns))
                    .collect(),
            ),
            crate::plot::Series::new(
                "model worst",
                scatter
                    .iter()
                    .map(|p| (p.threads as f64, p.model.worst))
                    .collect(),
            ),
        ];
        println!();
        print!(
            "{}",
            crate::plot::ascii_plot(
                &format!("{} latency [ns] vs threads (scatter)", kind.name()),
                &series,
                56,
                14,
            )
        );
    }

    let best_omp = pts
        .iter()
        .map(SeriesPoint::openmp_speedup)
        .fold(0.0, f64::max);
    let best_mpi = pts.iter().map(SeriesPoint::mpi_speedup).fold(0.0, f64::max);
    println!();
    println!(
        "max speedup of model-tuned {} over OpenMP-like: {best_omp:.1}x, over MPI-like: {best_mpi:.1}x",
        kind.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modelfit::snc4_flat;

    fn conf(jobs: usize) -> RunConf {
        RunConf {
            jobs,
            progress: knl_benchsuite::ProgressMode::Off,
            ..Default::default()
        }
    }

    #[test]
    fn figure_points_ordering_holds() {
        let cfg = snc4_flat();
        let model = CapabilityModel::paper_reference();
        let pts = run_figure(
            &cfg,
            &model,
            CollectiveKind::Broadcast,
            &[8, 32],
            &[Schedule::Scatter],
            5,
            &conf(1),
            &TraceSink::new(&conf(1), "unused"),
            0,
        );
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(
                p.openmp_speedup() > 1.0,
                "tuned must beat OpenMP-like: {p:?}"
            );
            assert!(p.mpi_speedup() > 1.0, "tuned must beat MPI-like: {p:?}");
            assert!(p.model.best > 0.0);
        }
        assert!(
            pts[1].tuned.median > pts[0].tuned.median,
            "cost grows with threads"
        );
    }

    #[test]
    fn barrier_figure_runs_both_schedules() {
        let cfg = snc4_flat();
        let model = CapabilityModel::paper_reference();
        let pts = run_figure(
            &cfg,
            &model,
            CollectiveKind::Barrier,
            &[16],
            &[Schedule::Scatter, Schedule::FillTiles],
            5,
            &conf(2),
            &TraceSink::new(&conf(2), "unused"),
            0,
        );
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.mpi_ns > p.tuned.median, "MPI-like barrier must lag");
        }
    }

    #[test]
    fn two_figures_share_one_sink() {
        // `speedups` runs three figures under one command line: every
        // point of every figure must land in the one trace file, in order.
        let dir = std::env::temp_dir().join("knl-collective-fig-sink-test");
        let path = dir.join("two.trace");
        let mut c = conf(2);
        c.trace = knl_sim::TraceLevel::Summary;
        c.trace_path = Some(path.to_string_lossy().into_owned());
        let sink = TraceSink::new(&c, "unused");
        let cfg = snc4_flat();
        let model = CapabilityModel::paper_reference();
        let mut base = 0;
        for kind in [CollectiveKind::Barrier, CollectiveKind::Broadcast] {
            let scheds = [Schedule::Scatter];
            base += run_figure(&cfg, &model, kind, &[4, 8], &scheds, 2, &c, &sink, base).len();
        }
        assert_eq!(base, 4);
        let written = sink.write().unwrap().unwrap();
        let text = std::fs::read_to_string(written).unwrap();
        let jobs: Vec<&str> = text.lines().filter(|l| l.starts_with("# job ")).collect();
        assert_eq!(jobs, ["# job 0", "# job 1", "# job 2", "# job 3"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tuned_plan_hierarchy_counts() {
        let model = CapabilityModel::paper_reference();
        // 64 ranks fill-tiles → 32 tile groups of 2.
        let plan = tuned_tree_plan(&model, TreeKind::Broadcast, 64, Schedule::FillTiles, 64);
        plan.assert_valid();
        assert_eq!(plan.num_ranks(), 64);
        // Every odd rank (tile mate) hangs under its even leader.
        assert_eq!(plan.parent[1], Some(0));
        assert_eq!(plan.parent[3], Some(2));
    }
}
