//! The six workloads. Each builds its inputs from the seed and then runs
//! identical repetitions; why each is here is recorded in `BENCHMARK.json`
//! and `README.md`.
//!
//! Only crate-root re-exports and the public functions listed in the README
//! are called, so the simplification PRs the ROADMAP plans (items 2–3) can
//! rename everything else without touching this directory.

use crate::harness::{Cx, Fnv};
use knl_arch::{ClusterMode, MachineConfig, MemoryMode, NumaKind, Schedule, SplitMixRng};
use knl_bench::output::Table;
use knl_benchsuite::membw::{bandwidth_sample, Target};
use knl_benchsuite::{
    decode_suite, encode_suite, run_cache_suite, run_memory_suite, CacheResults, SuiteParams,
    SuiteResults,
};
use knl_collectives::plan::tile_groups;
use knl_collectives::simspec::{self, SimLayout};
use knl_collectives::RankPlan;
use knl_core::advisor::{advise, PhaseProfile};
use knl_core::efficiency::efficiency_sweep;
use knl_core::overhead::OverheadModel;
use knl_core::predict::{intra_tile_stage, predict_barrier, predict_broadcast, predict_reduce};
use knl_core::sortmodel::CostBasis;
use knl_core::tree_opt::binomial_tree;
use knl_core::{optimize_barrier, optimize_tree, CapabilityModel, MinMax, SortModel, TreeKind};
use knl_sim::{
    CheckLevel, Machine, ObserverConfig, Program, Runner, StreamKind, TelemetryConfig, TraceLevel,
};
use knl_sort::simsort::{simsort_programs, SimSortSpec};
use knl_stats::{fit_linear, median};
use std::path::{Path, PathBuf};

pub const NAMES: [&str; 6] = [
    "c2c_table1",
    "mem_fig9",
    "mem_fig9_observed",
    "tune_pipeline",
    "sort_fig10",
    "model_sweep",
];

pub trait Workload {
    /// One repetition: closed loop, single-threaded, same inputs every time.
    fn rep(&mut self, cx: &mut Cx);
}

/// The suite parameters every workload starts from: the quick sweep, seeded.
pub fn suite_params(seed: u64, smoke: bool) -> SuiteParams {
    let mut params = SuiteParams::quick();
    params.seed = seed;
    if smoke {
        params.iters = 3;
        params.c2c_sizes.truncate(2);
        params.contention_n.truncate(2);
        params.congestion_pairs.truncate(2);
        params.mem_threads.truncate(2);
        params.mem_lines_per_thread = 256;
        params.memlat_lines = 8 << 10;
    }
    params
}

/// Generate the inputs of workload `name` from `seed`. `smoke` cuts every
/// sweep to two points; `tmp` is the only directory a workload writes to.
pub fn build(name: &str, seed: u64, smoke: bool, tmp: &Path) -> Option<Box<dyn Workload>> {
    let params = suite_params(seed, smoke);
    Some(match name {
        "c2c_table1" => Box::new(C2cTable1 {
            modes: cut(ClusterMode::ALL.to_vec(), smoke),
            params,
        }),
        "mem_fig9" => Box::new(Triad::new(params, smoke, None)),
        "mem_fig9_observed" => {
            // The unobserved reference the purity check compares against.
            let mut reference = Cx::new();
            Triad::new(params.clone(), smoke, None).rep(&mut reference);
            let mut w = Triad::new(params, smoke, Some(tmp.to_path_buf()));
            w.unobserved = Some(reference.tally.shared_digest);
            Box::new(w)
        }
        "tune_pipeline" => Box::new(TunePipeline {
            params,
            threads: cut(vec![4, 16, 32, 64], smoke),
            iters: if smoke { 5 } else { 15 },
            cache_file: tmp.join("suite-cache.json"),
        }),
        "sort_fig10" => Box::new(SortFig10 {
            points: sort_points(smoke),
            model: CapabilityModel::paper_reference(),
        }),
        "model_sweep" => {
            // Set-up is the cold suite run: what a cold suite-cache costs.
            let suite = measure_suite(&mut Cx::new(), &snc4_flat(), &params);
            let mut rng = SplitMixRng::seed_from_u64(seed);
            let phases = (0..6)
                .map(|_| PhaseProfile {
                    kind: StreamKind::ALL[rng.range_usize(0, 4)],
                    threads: 1 << rng.range_usize(0, 7),
                    weight: 0.1 + rng.next_f64(),
                    latency_bound: rng.range_usize(0, 4) == 0,
                })
                .collect();
            Box::new(ModelSweep {
                cache_text: encode_suite(&suite),
                suite,
                phases,
                passes: if smoke { 1 } else { MODEL_SWEEP_PASSES },
                max_tree: if smoke { 16 } else { 64 },
                max_barrier: if smoke { 32 } else { 256 },
            })
        }
        _ => return None,
    })
}

/// Smoke runs keep the first and the last point of a sweep.
fn cut<T: Clone>(v: Vec<T>, smoke: bool) -> Vec<T> {
    if smoke && v.len() > 2 {
        vec![v[0].clone(), v[v.len() - 1].clone()]
    } else {
        v
    }
}

fn snc4_flat() -> MachineConfig {
    MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat)
}

fn build_machine(cx: &mut Cx, cfg: &MachineConfig) -> Machine {
    cx.span("sim.machine_build", |_| Machine::new(cfg.clone()))
}

fn reset(cx: &mut Cx, m: &mut Machine) {
    cx.span("sim.reset", |_| {
        m.reset_devices();
        m.reset_caches();
    });
}

/// `α` and `β` of the 1:N contention law, as Table I reports them.
fn contention_fit(c: &CacheResults) -> [f64; 2] {
    let xs: Vec<f64> = c.contention.iter().map(|(n, _)| *n as f64).collect();
    let ys: Vec<f64> = c.contention.iter().map(|(_, s)| s.median()).collect();
    let fit = fit_linear(&xs, &ys);
    [fit.alpha, fit.beta]
}

/// Every simulated duration a cache-suite result carries, ns.
fn cache_suite_ns(cx: &mut Cx, c: &CacheResults) {
    let stats = c
        .local_ns
        .iter()
        .chain(c.tile_ns.iter().chain(&c.remote_ns).map(|(_, l)| l));
    for l in stats {
        cx.sim_ns(l.sample.values());
    }
    for (_, s) in &c.contention {
        cx.sim_ns(s.values());
    }
}

// ---------------------------------------------------------------- c2c_table1

struct C2cTable1 {
    modes: Vec<ClusterMode>,
    params: SuiteParams,
}

impl Workload for C2cTable1 {
    fn rep(&mut self, cx: &mut Cx) {
        let mut rows = Vec::new();
        for &mode in &self.modes {
            let mut m = build_machine(cx, &MachineConfig::knl7210(mode, MemoryMode::Flat));
            let res = cx.sim_span("benchsuite.cache_suite", &mut m, |m| {
                run_cache_suite(m, &self.params)
            });
            cx.absorb(&m);
            // The Table I column: latencies, bandwidths, contention fit, congestion.
            rows.extend(res.local_ns.iter().map(|l| l.median_ns()));
            rows.extend(
                res.tile_ns
                    .iter()
                    .chain(&res.remote_ns)
                    .map(|(_, l)| l.median_ns()),
            );
            rows.push(res.read_bw_gbps);
            rows.extend(res.copy_bw_gbps.iter().map(|(_, _, g)| *g));
            rows.extend(contention_fit(&res));
            rows.extend(res.congestion.iter().map(|(_, ns)| *ns));
            cache_suite_ns(cx, &res);
            cx.tally.digest.debug(&(res, m.counters()));
        }
        cx.tally.digest.f64s(&rows);
    }
}

// ------------------------------------------------ mem_fig9, mem_fig9_observed

/// Fig. 9. `results_dir = Some(..)` is the observed variant: identical
/// simulated work under checker + tracer + telemetry, artifacts written out.
struct Triad {
    points: Vec<(Schedule, usize)>,
    params: SuiteParams,
    results_dir: Option<PathBuf>,
    unobserved: Option<Fnv>,
}

impl Triad {
    fn new(mut params: SuiteParams, smoke: bool, results_dir: Option<PathBuf>) -> Self {
        if !smoke {
            params.mem_lines_per_thread = 1024;
            params.iters = 5;
        }
        let threads = cut(vec![1, 8, 32, 64], smoke);
        let points = [Schedule::FillCores, Schedule::FillTiles]
            .into_iter()
            .flat_map(|s| threads.iter().map(move |&t| (s, t)))
            .collect();
        Triad {
            points,
            params,
            results_dir,
            unobserved: None,
        }
    }
}

impl Workload for Triad {
    fn rep(&mut self, cx: &mut Cx) {
        let cfg = snc4_flat();
        let observers = ObserverConfig::default()
            .check(CheckLevel::Invariants)
            .trace(TraceLevel::Summary)
            .telemetry(TelemetryConfig::on());
        let mut table = Table::new(
            "Fig. 9 — triad bandwidth, SNC4-flat [GB/s]",
            &["schedule", "threads", "MCDRAM", "DRAM"],
        );
        let (mut trace, mut telemetry) = (String::new(), String::new());
        for &(sched, t) in &self.points {
            let mut m = match self.results_dir {
                None => build_machine(cx, &cfg),
                Some(_) => cx.span("sim.machine_build", |_| {
                    Machine::with_observer_config(cfg.clone(), observers)
                }),
            };
            let mut medians = [0.0; 2];
            for (i, target) in [Target::Mcdram, Target::Ddr].into_iter().enumerate() {
                if i > 0 {
                    reset(cx, &mut m);
                }
                let s = cx.sim_span("benchsuite.bandwidth_sample", &mut m, |m| {
                    bandwidth_sample(m, StreamKind::Triad, target, t, sched, &self.params)
                });
                // GB/s back to the simulated duration of each iteration.
                let bytes = (t as u64 * self.params.mem_lines_per_thread) as f64
                    * StreamKind::Triad.bytes_per_line() as f64;
                let ns: Vec<f64> = s.values().iter().map(|gbps| bytes / gbps).collect();
                cx.sim_ns(&ns);
                cx.tally.shared_digest.f64s(s.values());
                medians[i] = s.median();
            }
            cx.absorb(&m);
            cx.tally.shared_digest.debug(&m.counters());
            table.row(vec![
                sched.name().to_string(),
                t.to_string(),
                format!("{:.1}", medians[0]),
                format!("{:.1}", medians[1]),
            ]);
            if self.results_dir.is_some() {
                // Check 3: the final reconciliation returns (it panics on a violation).
                cx.span("sim.finish_check", |_| m.finish_check());
                cx.check(true, "finish_check returned");
                cx.span("sim.observers.serialize", |_| {
                    if let Some(tracer) = m.take_tracer() {
                        tracer.serialize_into(&mut trace);
                    }
                    if let Some(sampler) = m.take_telemetry() {
                        sampler.serialize_into(&mut telemetry);
                    }
                });
            }
        }
        cx.tally.digest = cx.tally.shared_digest;
        if let Some(dir) = &self.results_dir {
            cx.tally.digest.bytes(trace.as_bytes());
            cx.tally.digest.bytes(telemetry.as_bytes());
            cx.tally.observer_bytes = (trace.len() + telemetry.len()) as u64;
            let files = [("fig9.trace", &trace), ("fig9.telemetry", &telemetry)];
            cx.span("bench.io.file_write", |_| {
                for (name, text) in files {
                    std::fs::write(dir.join(name), text).expect("write observer artifact");
                }
            });
            let csv = cx.span("bench.io.csv", |_| table.write_csv("fig9_triad"));
            let manifest = knl_bench::provenance::manifest_path(&csv);
            let on_disk = |p: &Path| std::fs::metadata(p).map_or(0, |md| md.len());
            cx.tally.io_bytes = cx.tally.observer_bytes + on_disk(&csv) + on_disk(&manifest);
            // Check 2: observers are pure — same simulated results as `mem_fig9`.
            let same = Some(cx.tally.shared_digest) == self.unobserved;
            cx.check(same, "observed triad equals the unobserved reference");
        }
    }
}

// ------------------------------------------------------------- tune_pipeline

/// `run_full_suite_with` taken apart into its public steps, so the cache and
/// the memory suite get a span each.
fn measure_suite(cx: &mut Cx, cfg: &MachineConfig, params: &SuiteParams) -> SuiteResults {
    let mut m = build_machine(cx, cfg);
    let cache = cx.sim_span("benchsuite.cache_suite", &mut m, |m| {
        run_cache_suite(m, params)
    });
    reset(cx, &mut m);
    let mem = cx.sim_span("benchsuite.memory_suite", &mut m, |m| {
        run_memory_suite(m, params)
    });
    cx.absorb(&m);
    cache_suite_ns(cx, &cache);
    for (_, l) in &mem.latency_ns {
        cx.sim_ns(l.sample.values());
    }
    cx.tally.digest.debug(&m.counters());
    SuiteResults {
        cluster: cfg.cluster,
        memory: cfg.memory,
        cache,
        mem,
    }
}

/// Check 4: the suite-cache encoding round-trips exactly.
fn decode_checked(cx: &mut Cx, text: &str, original: &SuiteResults) -> SuiteResults {
    let decoded = cx.span("benchsuite.serial.decode", |_| decode_suite(text));
    cx.check(
        decoded.as_ref() == Some(original),
        "decode_suite(encode_suite(r)) == r",
    );
    decoded.unwrap_or_else(|| original.clone())
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Collective {
    Barrier,
    Broadcast,
    Reduce,
}

struct TunePipeline {
    params: SuiteParams,
    threads: Vec<usize>,
    iters: usize,
    cache_file: PathBuf,
}

impl TunePipeline {
    /// One (collective, n, schedule) point on a fresh machine: the tuned
    /// algorithm against the OpenMP-like and MPI-like baselines, and the
    /// model's envelope. Returns (tuned, openmp, mpi) medians in ns.
    fn point(
        &self,
        cx: &mut Cx,
        model: &CapabilityModel,
        kind: Collective,
        n: usize,
        sched: Schedule,
    ) -> ([f64; 3], MinMax) {
        let cfg = snc4_flat();
        let cores = cfg.num_cores();
        let iters = self.iters;
        let mut m = build_machine(cx, &cfg);
        let layout = SimLayout::alloc(&mut m.arena(), NumaKind::Mcdram, n);
        let groups = tile_groups(n, sched, cores);

        let tuned = match kind {
            Collective::Barrier => {
                let plan = cx.span("core.barrier_opt", |_| optimize_barrier(model, n));
                cx.check(plan.n == n, "barrier plan spans n ranks");
                cx.span("collectives.simspec.build", |_| {
                    simspec::dissemination_barrier_programs(n, plan.m, &layout, sched, cores, iters)
                })
            }
            Collective::Broadcast | Collective::Reduce => {
                let tree_kind = if kind == Collective::Broadcast {
                    TreeKind::Broadcast
                } else {
                    TreeKind::Reduce
                };
                let tree = cx
                    .span("core.tree_opt", |_| {
                        optimize_tree(model, groups.len(), tree_kind)
                    })
                    .tree;
                cx.span("collectives.simspec.build", |cx| {
                    let plan = RankPlan::hierarchical(&tree, n, sched, cores);
                    cx.check(plan.num_ranks() == n, "tree plan spans n ranks");
                    if kind == Collective::Broadcast {
                        simspec::tree_broadcast_programs(&plan, &layout, sched, cores, iters)
                    } else {
                        simspec::tree_reduce_programs(&plan, &layout, sched, cores, iters)
                    }
                })
            }
        };
        let openmp = cx.span("collectives.simspec.build", |_| match kind {
            Collective::Barrier => {
                simspec::central_barrier_programs(n, &layout, sched, cores, iters)
            }
            Collective::Broadcast => {
                simspec::flat_broadcast_programs(n, &layout, sched, cores, iters)
            }
            Collective::Reduce => simspec::central_reduce_programs(n, &layout, sched, cores, iters),
        });
        let mpi = cx.span("collectives.simspec.build", |_| {
            let plan = RankPlan::direct(&binomial_tree(n));
            match kind {
                Collective::Barrier => {
                    simspec::mpi_barrier_programs(&plan, &layout, sched, cores, iters)
                }
                Collective::Broadcast => {
                    simspec::mpi_broadcast_programs(&plan, &layout, sched, cores, iters)
                }
                Collective::Reduce => {
                    simspec::mpi_reduce_programs(&plan, &layout, sched, cores, iters)
                }
            }
        });

        let mut medians = [0.0; 3];
        for (i, programs) in [tuned, openmp, mpi].into_iter().enumerate() {
            if i > 0 {
                cx.span("sim.reset", |_| m.reset_caches());
            }
            let ns = cx.sim_span("collectives.simspec.run", &mut m, |m| {
                simspec::run_collective(m, programs, iters)
            });
            cx.sim_ns(&ns);
            cx.tally.digest.f64s(&ns);
            medians[i] = median(&ns);
        }
        cx.absorb(&m);
        cx.tally.digest.debug(&m.counters());

        let envelope = cx.span("core.predict", |_| match kind {
            Collective::Barrier => predict_barrier(model, n),
            Collective::Broadcast | Collective::Reduce => {
                let base = if kind == Collective::Broadcast {
                    predict_broadcast(model, groups.len())
                } else {
                    predict_reduce(model, groups.len())
                };
                let widest = groups.iter().map(|g| g.len() - 1).max().unwrap_or(0);
                base.add(MinMax::point(intra_tile_stage(model, widest)))
            }
        });
        cx.tally.digest.f64s(&[envelope.best, envelope.worst]);
        (medians, envelope)
    }
}

/// Largest relative deviation of the fitted latencies from the paper's
/// SNC4-flat column, percent.
fn calib_err_pct(model: &CapabilityModel) -> f64 {
    let paper = CapabilityModel::paper_reference();
    let mut pairs = Vec::new();
    for st in ['M', 'E', 'S', 'F'] {
        pairs.push((model.tile_ns.get(&st), paper.tile_ns.get(&st)));
        pairs.push((model.remote_ns.get(&st), paper.remote_ns.get(&st)));
    }
    for target in ["DRAM", "MCDRAM"] {
        pairs.push((
            model.mem.latency_ns.get(target),
            paper.mem.latency_ns.get(target),
        ));
    }
    pairs
        .into_iter()
        .map(|(fitted, paper)| match (fitted, paper) {
            (Some(f), Some(p)) => (f - p).abs() / p * 100.0,
            _ => f64::INFINITY,
        })
        .fold(0.0, f64::max)
}

impl Workload for TunePipeline {
    fn rep(&mut self, cx: &mut Cx) {
        // Measure, cold: nothing is cached between repetitions.
        let suite = measure_suite(cx, &snc4_flat(), &self.params);
        let text = cx.span("benchsuite.serial.encode", |_| encode_suite(&suite));
        cx.span("bench.io.file_write", |_| {
            std::fs::write(&self.cache_file, &text).expect("write suite cache");
        });
        cx.tally.io_bytes += text.len() as u64;
        cx.tally.digest.bytes(text.as_bytes());

        // Fit.
        let suite = decode_checked(cx, &text, &suite);
        let model = cx.span("core.fit", |_| CapabilityModel::from_suite(&suite));

        // Tune, simulate, predict.
        let (mut gap_sum, mut log_speedup, mut points) = (0.0, 0.0, 0.0);
        for kind in [
            Collective::Barrier,
            Collective::Broadcast,
            Collective::Reduce,
        ] {
            for sched in [Schedule::FillTiles, Schedule::Scatter] {
                for &n in &self.threads {
                    let ([tuned, openmp, mpi], envelope) = self.point(cx, &model, kind, n, sched);
                    let outside = (envelope.best - tuned).max(tuned - envelope.worst).max(0.0);
                    gap_sum += outside / tuned * 100.0;
                    log_speedup += (openmp.min(mpi) / tuned).ln();
                    points += 1.0;
                }
            }
        }
        cx.tally.fidelity = Some([
            calib_err_pct(&model),
            gap_sum / points,
            (log_speedup / points).exp(),
        ]);
    }
}

// ---------------------------------------------------------------- sort_fig10

struct SortFig10 {
    /// (bytes, threads); every point runs on DDR and on MCDRAM.
    points: Vec<(u64, usize)>,
    model: CapabilityModel,
}

fn sort_points(smoke: bool) -> Vec<(u64, usize)> {
    let small = cut(vec![1, 4, 16, 64], smoke);
    let mut points: Vec<(u64, usize)> = small.iter().map(|&t| (1 << 10, t)).collect();
    if smoke {
        points.extend([(1 << 20, 4), (1 << 20, 64)]);
    } else {
        points.extend(small.iter().map(|&t| (4 << 20, t)));
        points.extend([(16 << 20, 16), (16 << 20, 64)]);
    }
    points
}

impl Workload for SortFig10 {
    fn rep(&mut self, cx: &mut Cx) {
        let cfg = snc4_flat();
        let mut measured = Vec::new();
        for &(bytes, threads) in &self.points {
            for memory in [NumaKind::Ddr, NumaKind::Mcdram] {
                let spec = SimSortSpec {
                    bytes,
                    threads,
                    schedule: Schedule::FillTiles,
                    memory,
                };
                let mut m = build_machine(cx, &cfg);
                let programs: Vec<Program> =
                    cx.span("sort.simsort.build", |_| simsort_programs(&m, &spec));
                let ps = cx.sim_span("sort.simsort.run", &mut m, |m| {
                    Runner::new(m, programs)
                        .run()
                        .duration_ps(0, 0)
                        .expect("root interval")
                });
                cx.absorb(&m);
                cx.tally.sim_time_ps += ps;
                cx.tally.digest.debug(&(ps, m.counters()));
                measured.push((bytes, threads, memory, ps as f64 * 1e-12));
            }
        }
        // Eqs. 3–5 with the measured-overhead extension and the 10% rule.
        let lines = cx.span("core.sortmodel", |_| {
            let dram = SortModel::new(&self.model, "DRAM");
            let small: Vec<(usize, f64)> = measured
                .iter()
                .filter(|p| p.0 == 1 << 10 && p.2 == NumaKind::Ddr)
                .map(|p| (p.1, p.3))
                .collect();
            let overhead = OverheadModel::fit(&small, |t| {
                dram.sort_seconds(1 << 10, t.next_power_of_two(), CostBasis::Bandwidth)
            });
            let mut out = vec![overhead.fit.alpha, overhead.fit.beta];
            for &(bytes, threads) in &self.points {
                let bw = dram.sort_seconds(bytes, threads, CostBasis::Bandwidth);
                out.push(dram.sort_seconds(bytes, threads, CostBasis::Latency));
                out.push(bw);
                out.push(overhead.full(bw, threads));
            }
            let mut sizes: Vec<u64> = self.points.iter().map(|p| p.0).collect();
            sizes.dedup();
            for bytes in sizes {
                let threads: Vec<usize> = self
                    .points
                    .iter()
                    .filter(|p| p.0 == bytes)
                    .map(|p| p.1)
                    .collect();
                let (effs, last) = efficiency_sweep(
                    |t| dram.sort_seconds(bytes, t, CostBasis::Bandwidth),
                    &overhead,
                    &threads,
                );
                out.extend(effs.iter().map(|e| e.ratio()));
                out.push(last.map_or(-1.0, |t| t as f64));
            }
            out
        });
        cx.tally.digest.f64s(&lines);
    }
}

// --------------------------------------------------------------- model_sweep

/// Passes per repetition, chosen so that one repetition takes ≈ 0.5 s on the
/// 2-CPU reference container.
const MODEL_SWEEP_PASSES: usize = 2;

struct ModelSweep {
    suite: SuiteResults,
    cache_text: String,
    phases: Vec<PhaseProfile>,
    passes: usize,
    max_tree: usize,
    max_barrier: usize,
}

impl Workload for ModelSweep {
    fn rep(&mut self, cx: &mut Cx) {
        for _ in 0..self.passes {
            let suite = decode_checked(cx, &self.cache_text, &self.suite);
            let model = cx.span("core.fit", |_| CapabilityModel::from_suite(&suite));
            let mut out = Vec::new();
            cx.span("core.tree_opt", |_| {
                for n in 2..=self.max_tree {
                    for kind in [TreeKind::Broadcast, TreeKind::Reduce] {
                        out.push(optimize_tree(&model, n, kind).cost_ns);
                    }
                }
            });
            cx.span("core.barrier_opt", |_| {
                for n in 2..=self.max_barrier {
                    out.push(optimize_barrier(&model, n).cost_ns);
                }
            });
            cx.span("core.predict", |_| {
                for n in 2..=self.max_tree {
                    let envelopes = [
                        predict_barrier(&model, n),
                        predict_broadcast(&model, n),
                        predict_reduce(&model, n),
                    ];
                    out.extend(envelopes.iter().flat_map(|e| [e.best, e.worst]));
                }
            });
            let evaluations = cx.span("core.sortmodel", |_| {
                let before = out.len();
                let dram = SortModel::new(&model, "DRAM");
                let threads = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
                for bytes in [1u64 << 10, 4 << 20, 64 << 20] {
                    for basis in [CostBasis::Latency, CostBasis::Bandwidth] {
                        out.extend(threads.iter().map(|&t| dram.sort_seconds(bytes, t, basis)));
                    }
                }
                // No simulation here: the 1 KB "measurements" are the latency-basis line.
                let small: Vec<(usize, f64)> = threads
                    .iter()
                    .map(|&t| (t, dram.sort_seconds(1 << 10, t, CostBasis::Latency)))
                    .collect();
                let overhead = OverheadModel::fit(&small, |t| {
                    dram.sort_seconds(1 << 10, t, CostBasis::Bandwidth)
                });
                out.extend([overhead.fit.alpha, overhead.fit.beta]);
                out.push(advise(&model, &self.phases).speedup);
                out.len() - before
            });
            // One unit of work per optimizer, predict or sort-model evaluation.
            let optimizer_calls = 2 * (self.max_tree - 1) + (self.max_barrier - 1);
            cx.tally.work += (optimizer_calls + 3 * (self.max_tree - 1) + evaluations) as u64;
            cx.tally.digest.f64s(&out);
        }
    }
}
