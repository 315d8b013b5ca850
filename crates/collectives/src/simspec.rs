//! Simulator program builders for the collectives (regenerates the
//! measured series of Figs. 6–8 on the simulated KNL).
//!
//! Every algorithm synchronises through coherent flag lines and nothing
//! else; the simulator charges real MESIF costs for the polling,
//! invalidation, and contention each design implies.
//!
//! Baseline fidelity knobs: the MPI-like baselines pay a per-message
//! software overhead (matching, queueing — [`MPI_MSG_OVERHEAD_NS`]) and a
//! double copy through staging lines; the OpenMP-like baselines use
//! centralized structures plus a small runtime dispatch overhead
//! ([`OMP_DISPATCH_OVERHEAD_NS`]).

use crate::plan::RankPlan;
use knl_arch::{NumaKind, Schedule};
use knl_sim::analyze::{AnalysisReport, Finding, Rule, Severity};
use knl_sim::{Arena, Machine, Op, Program, RunResult, Runner, SimTime};

/// Static analysis entry point for collective schedules: structurally
/// validate the rank plan, then run the happens-before analyzer over the
/// generated programs. A plan defect becomes an `Error` finding under the
/// `plan` rule, ahead of whatever the program-level passes report.
pub fn analyze_schedule(plan: &RankPlan, programs: &[Program]) -> AnalysisReport {
    let mut report = knl_sim::analyze(programs, &[]);
    if let Err(e) = plan.validate() {
        report.findings.insert(
            0,
            Finding {
                severity: Severity::Error,
                rule: Rule::Plan,
                threads: Vec::new(),
                ops: Vec::new(),
                line: None,
                message: format!("malformed rank plan: {e}"),
            },
        );
    }
    report
}

/// Per-message software overhead of the MPI-like baselines, ns (envelope
/// matching + request bookkeeping of a shared-memory MPI).
pub const MPI_MSG_OVERHEAD_NS: u64 = 900;
/// Per-invocation dispatch overhead of the OpenMP-like baselines, ns.
pub const OMP_DISPATCH_OVERHEAD_NS: u64 = 250;
/// Reduction-operator cost per contribution (one line, vectorized), ns.
pub const REDOP_NS: u64 = 2;

/// Window between iterations (generous; wait time costs nothing to
/// simulate).
const ITER_PERIOD_PS: SimTime = 300_000_000; // 300 µs

/// Per-rank cache lines used by the collectives.
pub struct SimLayout {
    /// Data+flag line per rank (the paper co-locates them in one line).
    pub flag: Vec<u64>,
    /// Ack line per rank.
    pub ack: Vec<u64>,
    /// Staging line per rank (MPI-like baselines).
    pub staging: Vec<u64>,
    /// Envelope line per rank (MPI-like baselines).
    pub envelope: Vec<u64>,
    /// A central release/counter line (centralized baselines).
    pub central: u64,
}

impl SimLayout {
    /// Allocate lines in `kind` memory (Figs. 6–8 use MCDRAM), spaced a
    /// page apart to avoid false conflicts.
    pub fn alloc(arena: &mut Arena, kind: NumaKind, n: usize) -> Self {
        let mut grab =
            |count: usize| -> Vec<u64> { (0..count).map(|_| arena.alloc(kind, 4096)).collect() };
        SimLayout {
            flag: grab(n),
            ack: grab(n),
            staging: grab(n),
            envelope: grab(n),
            central: arena.alloc(kind, 4096),
        }
    }
}

fn base_program(rank: usize, schedule: Schedule, num_cores: usize) -> Program {
    Program::new(schedule.place(rank, num_cores))
}

/// Model-tuned (or any) tree broadcast over `plan`.
pub fn tree_broadcast_programs(
    plan: &RankPlan,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    plan.assert_valid();
    let n = plan.num_ranks();
    (0..n)
        .map(|rank| {
            let mut p = base_program(rank, schedule, num_cores);
            for it in 0..iters {
                let gen = it as u64 + 1;
                p.push(Op::WaitUntil((it as SimTime + 1) * ITER_PERIOD_PS));
                p.push(Op::MarkStart(it));
                if rank == plan.root {
                    // Publish data + flag (same line): R_I + R_L.
                    p.push(Op::SetFlag {
                        addr: layout.flag[rank],
                        val: gen,
                    });
                } else {
                    let parent = plan.parent[rank].expect("non-root");
                    // Poll the parent's line (contention among siblings).
                    p.push(Op::WaitFlag {
                        addr: layout.flag[parent],
                        val: gen,
                    });
                    // Copy into own structure & notify own children.
                    p.push(Op::SetFlag {
                        addr: layout.flag[rank],
                        val: gen,
                    });
                }
                // Collect subtree acknowledgements, then ack upward.
                for &c in &plan.children[rank] {
                    p.push(Op::WaitFlag {
                        addr: layout.ack[c],
                        val: gen,
                    });
                }
                if rank != plan.root {
                    p.push(Op::SetFlag {
                        addr: layout.ack[rank],
                        val: gen,
                    });
                }
                p.push(Op::MarkEnd(it));
            }
            p
        })
        .collect()
}

/// Model-tuned tree reduce over `plan` (sum of one line per rank).
pub fn tree_reduce_programs(
    plan: &RankPlan,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    plan.assert_valid();
    let n = plan.num_ranks();
    (0..n)
        .map(|rank| {
            let mut p = base_program(rank, schedule, num_cores);
            for it in 0..iters {
                let gen = it as u64 + 1;
                p.push(Op::WaitUntil((it as SimTime + 1) * ITER_PERIOD_PS));
                p.push(Op::MarkStart(it));
                for &c in &plan.children[rank] {
                    // Wait for the child's partial sum and fold it in.
                    p.push(Op::WaitFlag {
                        addr: layout.flag[c],
                        val: gen,
                    });
                    p.push(Op::Compute(REDOP_NS * 1000));
                }
                if rank == plan.root {
                    p.push(Op::SetFlag {
                        addr: layout.central,
                        val: gen,
                    }); // release
                } else {
                    p.push(Op::SetFlag {
                        addr: layout.flag[rank],
                        val: gen,
                    });
                    p.push(Op::WaitFlag {
                        addr: layout.central,
                        val: gen,
                    });
                }
                p.push(Op::MarkEnd(it));
            }
            p
        })
        .collect()
}

/// Model-tuned dissemination barrier (radix m+1 over n ranks).
pub fn dissemination_barrier_programs(
    n: usize,
    m: usize,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    let rounds = knl_core::barrier_opt::rounds(n, m);
    (0..n)
        .map(|rank| {
            let mut p = base_program(rank, schedule, num_cores);
            for it in 0..iters {
                p.push(Op::WaitUntil((it as SimTime + 1) * ITER_PERIOD_PS));
                p.push(Op::MarkStart(it));
                let mut stride = 1usize;
                for round in 0..rounds {
                    let val = (it * rounds + round) as u64 + 1;
                    p.push(Op::SetFlag {
                        addr: layout.flag[rank],
                        val,
                    });
                    for j in 1..=m {
                        let partner = (rank + n - (j * stride) % n) % n;
                        if partner != rank {
                            p.push(Op::WaitFlag {
                                addr: layout.flag[partner],
                                val,
                            });
                        }
                    }
                    stride *= m + 1;
                }
                p.push(Op::MarkEnd(it));
            }
            p
        })
        .collect()
}

/// Centralized gather–release barrier (OpenMP-like baseline).
pub fn central_barrier_programs(
    n: usize,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    (0..n)
        .map(|rank| {
            let mut p = base_program(rank, schedule, num_cores);
            for it in 0..iters {
                let gen = it as u64 + 1;
                p.push(Op::WaitUntil((it as SimTime + 1) * ITER_PERIOD_PS));
                p.push(Op::MarkStart(it));
                p.push(Op::Compute(OMP_DISPATCH_OVERHEAD_NS * 1000));
                if rank == 0 {
                    for r in 1..n {
                        p.push(Op::WaitFlag {
                            addr: layout.flag[r],
                            val: gen,
                        });
                    }
                    p.push(Op::SetFlag {
                        addr: layout.central,
                        val: gen,
                    });
                } else {
                    p.push(Op::SetFlag {
                        addr: layout.flag[rank],
                        val: gen,
                    });
                    p.push(Op::WaitFlag {
                        addr: layout.central,
                        val: gen,
                    });
                }
                p.push(Op::MarkEnd(it));
            }
            p
        })
        .collect()
}

/// Flat broadcast + completion gather (OpenMP-like baseline).
pub fn flat_broadcast_programs(
    n: usize,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    (0..n)
        .map(|rank| {
            let mut p = base_program(rank, schedule, num_cores);
            for it in 0..iters {
                let gen = it as u64 + 1;
                p.push(Op::WaitUntil((it as SimTime + 1) * ITER_PERIOD_PS));
                p.push(Op::MarkStart(it));
                p.push(Op::Compute(OMP_DISPATCH_OVERHEAD_NS * 1000));
                if rank == 0 {
                    p.push(Op::SetFlag {
                        addr: layout.central,
                        val: gen,
                    });
                    for r in 1..n {
                        p.push(Op::WaitFlag {
                            addr: layout.ack[r],
                            val: gen,
                        });
                    }
                } else {
                    // All n−1 ranks poll one line: maximal contention.
                    p.push(Op::WaitFlag {
                        addr: layout.central,
                        val: gen,
                    });
                    p.push(Op::SetFlag {
                        addr: layout.ack[rank],
                        val: gen,
                    });
                }
                p.push(Op::MarkEnd(it));
            }
            p
        })
        .collect()
}

/// Linear reduce at the root (OpenMP-like baseline): rank 0 folds every
/// contribution sequentially.
pub fn central_reduce_programs(
    n: usize,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    (0..n)
        .map(|rank| {
            let mut p = base_program(rank, schedule, num_cores);
            for it in 0..iters {
                let gen = it as u64 + 1;
                p.push(Op::WaitUntil((it as SimTime + 1) * ITER_PERIOD_PS));
                p.push(Op::MarkStart(it));
                p.push(Op::Compute(OMP_DISPATCH_OVERHEAD_NS * 1000));
                if rank == 0 {
                    for r in 1..n {
                        p.push(Op::WaitFlag {
                            addr: layout.flag[r],
                            val: gen,
                        });
                        p.push(Op::Compute(REDOP_NS * 1000));
                    }
                    p.push(Op::SetFlag {
                        addr: layout.central,
                        val: gen,
                    });
                } else {
                    p.push(Op::SetFlag {
                        addr: layout.flag[rank],
                        val: gen,
                    });
                    p.push(Op::WaitFlag {
                        addr: layout.central,
                        val: gen,
                    });
                }
                p.push(Op::MarkEnd(it));
            }
            p
        })
        .collect()
}

/// MPI-like binomial broadcast: double copy through staging + envelope,
/// with per-message software overhead.
pub fn mpi_broadcast_programs(
    plan: &RankPlan,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    plan.assert_valid();
    let n = plan.num_ranks();
    (0..n)
        .map(|rank| {
            let mut p = base_program(rank, schedule, num_cores);
            for it in 0..iters {
                let gen = it as u64 + 1;
                p.push(Op::WaitUntil((it as SimTime + 1) * ITER_PERIOD_PS));
                p.push(Op::MarkStart(it));
                if rank != plan.root {
                    // Match + receive: staging → private buffer (2nd copy).
                    p.push(Op::WaitFlag {
                        addr: layout.envelope[rank],
                        val: gen,
                    });
                    p.push(Op::Compute(MPI_MSG_OVERHEAD_NS * 1000));
                    p.push(Op::Read(layout.staging[rank]));
                    p.push(Op::Write(layout.flag[rank])); // private recv buffer
                }
                for &c in &plan.children[rank] {
                    // Send: user buffer → child staging (1st copy) + envelope.
                    p.push(Op::Compute(MPI_MSG_OVERHEAD_NS * 1000));
                    p.push(Op::Read(layout.flag[rank]));
                    p.push(Op::Write(layout.staging[c]));
                    p.push(Op::SetFlag {
                        addr: layout.envelope[c],
                        val: gen,
                    });
                }
                for &c in &plan.children[rank] {
                    p.push(Op::WaitFlag {
                        addr: layout.ack[c],
                        val: gen,
                    });
                }
                if rank != plan.root {
                    p.push(Op::SetFlag {
                        addr: layout.ack[rank],
                        val: gen,
                    });
                }
                p.push(Op::MarkEnd(it));
            }
            p
        })
        .collect()
}

/// Single-copy variant of the MPI-like broadcast: the paper argues MPI's
/// separate-address-space double copy "is not fundamental because, on
/// manycore, one could simply map all process address spaces into the
/// virtual memory of each process" (§IV-B.3, citing XPMEM-style mapping).
/// This builder models that fix: the receiver reads the sender's buffer
/// directly (one copy), keeping only the per-message matching overhead.
pub fn mpi_broadcast_single_copy_programs(
    plan: &RankPlan,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    plan.assert_valid();
    let n = plan.num_ranks();
    (0..n)
        .map(|rank| {
            let mut p = base_program(rank, schedule, num_cores);
            for it in 0..iters {
                let gen = it as u64 + 1;
                p.push(Op::WaitUntil((it as SimTime + 1) * ITER_PERIOD_PS));
                p.push(Op::MarkStart(it));
                if rank != plan.root {
                    let parent = plan.parent[rank].expect("non-root");
                    p.push(Op::WaitFlag {
                        addr: layout.envelope[rank],
                        val: gen,
                    });
                    p.push(Op::Compute(MPI_MSG_OVERHEAD_NS * 1000));
                    // Single copy: read straight from the sender's mapped
                    // buffer into the user buffer.
                    p.push(Op::Read(layout.flag[parent]));
                    p.push(Op::Write(layout.flag[rank]));
                }
                for &c in &plan.children[rank] {
                    p.push(Op::Compute(MPI_MSG_OVERHEAD_NS * 1000));
                    p.push(Op::SetFlag {
                        addr: layout.envelope[c],
                        val: gen,
                    });
                }
                for &c in &plan.children[rank] {
                    p.push(Op::WaitFlag {
                        addr: layout.ack[c],
                        val: gen,
                    });
                }
                if rank != plan.root {
                    p.push(Op::SetFlag {
                        addr: layout.ack[rank],
                        val: gen,
                    });
                }
                p.push(Op::MarkEnd(it));
            }
            p
        })
        .collect()
}

/// MPI-like binomial reduce (gather up the tree with staging + envelopes).
pub fn mpi_reduce_programs(
    plan: &RankPlan,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    plan.assert_valid();
    let n = plan.num_ranks();
    (0..n)
        .map(|rank| {
            let mut p = base_program(rank, schedule, num_cores);
            for it in 0..iters {
                let gen = it as u64 + 1;
                p.push(Op::WaitUntil((it as SimTime + 1) * ITER_PERIOD_PS));
                p.push(Op::MarkStart(it));
                for &c in &plan.children[rank] {
                    p.push(Op::WaitFlag {
                        addr: layout.envelope[c],
                        val: gen,
                    });
                    p.push(Op::Compute(MPI_MSG_OVERHEAD_NS * 1000));
                    p.push(Op::Read(layout.staging[c]));
                    p.push(Op::Write(layout.flag[rank]));
                    p.push(Op::Compute(REDOP_NS * 1000));
                }
                if rank == plan.root {
                    p.push(Op::SetFlag {
                        addr: layout.central,
                        val: gen,
                    });
                } else {
                    p.push(Op::Compute(MPI_MSG_OVERHEAD_NS * 1000));
                    p.push(Op::Write(layout.staging[rank]));
                    p.push(Op::SetFlag {
                        addr: layout.envelope[rank],
                        val: gen,
                    });
                    p.push(Op::WaitFlag {
                        addr: layout.central,
                        val: gen,
                    });
                }
                p.push(Op::MarkEnd(it));
            }
            p
        })
        .collect()
}

/// MPI-like barrier: binomial gather followed by binomial release, each hop
/// paying the messaging overhead.
pub fn mpi_barrier_programs(
    plan: &RankPlan,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    plan.assert_valid();
    let n = plan.num_ranks();
    (0..n)
        .map(|rank| {
            let mut p = base_program(rank, schedule, num_cores);
            for it in 0..iters {
                let gen = it as u64 + 1;
                p.push(Op::WaitUntil((it as SimTime + 1) * ITER_PERIOD_PS));
                p.push(Op::MarkStart(it));
                // Gather phase.
                for &c in &plan.children[rank] {
                    p.push(Op::WaitFlag {
                        addr: layout.envelope[c],
                        val: gen,
                    });
                    p.push(Op::Compute(MPI_MSG_OVERHEAD_NS * 1000));
                }
                if rank != plan.root {
                    p.push(Op::Compute(MPI_MSG_OVERHEAD_NS * 1000));
                    p.push(Op::SetFlag {
                        addr: layout.envelope[rank],
                        val: gen,
                    });
                }
                // Release phase.
                if rank != plan.root {
                    p.push(Op::WaitFlag {
                        addr: layout.staging[rank],
                        val: gen,
                    });
                    p.push(Op::Compute(MPI_MSG_OVERHEAD_NS * 1000));
                }
                for &c in &plan.children[rank] {
                    p.push(Op::Compute(MPI_MSG_OVERHEAD_NS * 1000));
                    p.push(Op::SetFlag {
                        addr: layout.staging[c],
                        val: gen,
                    });
                }
                p.push(Op::MarkEnd(it));
            }
            p
        })
        .collect()
}

/// Run programs and return the per-iteration maxima (ns), the paper's
/// reported quantity.
pub fn run_collective(m: &mut Machine, programs: Vec<Program>, iters: usize) -> Vec<f64> {
    let result: RunResult = Runner::new(m, programs).run();
    (0..iters)
        .filter_map(|it| result.iteration_max_ns(it))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::{ClusterMode, MachineConfig, MemoryMode};
    use knl_core::tree_opt::binomial_tree;
    use knl_core::{optimize_barrier, optimize_tree, CapabilityModel, TreeKind};
    use knl_stats::median;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat));
        m.set_jitter(0);
        m
    }

    fn layout(m: &Machine, n: usize) -> SimLayout {
        let mut arena = m.arena();
        SimLayout::alloc(&mut arena, NumaKind::Mcdram, n)
    }

    #[test]
    fn tuned_barrier_runs_and_scales() {
        let mut m = machine();
        let model = CapabilityModel::paper_reference();
        let mut costs = Vec::new();
        for n in [4usize, 16, 32] {
            let plan = optimize_barrier(&model, n);
            let lay = layout(&m, n);
            let progs = dissemination_barrier_programs(n, plan.m, &lay, Schedule::Scatter, 64, 5);
            let t = run_collective(&mut m, progs, 5);
            assert_eq!(t.len(), 5);
            costs.push(median(&t));
            m.reset_caches();
        }
        assert!(costs[2] > costs[0], "barrier cost grows with n: {costs:?}");
        assert!(
            costs[2] < 20_000.0,
            "32-thread barrier stays µs-scale: {costs:?}"
        );
    }

    #[test]
    fn tuned_broadcast_beats_baselines() {
        let mut m = machine();
        let model = CapabilityModel::paper_reference();
        let n = 32;
        let tree = optimize_tree(&model, n, TreeKind::Broadcast).tree;
        let plan = RankPlan::direct(&tree);
        let lay = layout(&m, n);
        let iters = 5;

        let tuned = {
            let progs = tree_broadcast_programs(&plan, &lay, Schedule::Scatter, 64, iters);
            median(&run_collective(&mut m, progs, iters))
        };
        m.reset_caches();
        let flat = {
            let progs = flat_broadcast_programs(n, &lay, Schedule::Scatter, 64, iters);
            median(&run_collective(&mut m, progs, iters))
        };
        m.reset_caches();
        let mpi = {
            let bplan = RankPlan::direct(&binomial_tree(n));
            let progs = mpi_broadcast_programs(&bplan, &lay, Schedule::Scatter, 64, iters);
            median(&run_collective(&mut m, progs, iters))
        };
        assert!(tuned < flat, "tuned {tuned} vs OpenMP-like {flat}");
        assert!(tuned < mpi, "tuned {tuned} vs MPI-like {mpi}");
        assert!(
            mpi / tuned > 2.0,
            "MPI-like should lag well behind: {}",
            mpi / tuned
        );
    }

    #[test]
    fn tuned_reduce_correct_and_faster_than_central() {
        let mut m = machine();
        let model = CapabilityModel::paper_reference();
        let n = 32;
        let plan = RankPlan::direct(&optimize_tree(&model, n, TreeKind::Reduce).tree);
        let lay = layout(&m, n);
        let iters = 5;
        let tuned = {
            let progs = tree_reduce_programs(&plan, &lay, Schedule::Scatter, 64, iters);
            median(&run_collective(&mut m, progs, iters))
        };
        m.reset_caches();
        let central = {
            let progs = central_reduce_programs(n, &lay, Schedule::Scatter, 64, iters);
            median(&run_collective(&mut m, progs, iters))
        };
        assert!(tuned < central, "tuned {tuned} vs central {central}");
    }

    #[test]
    fn single_copy_mpi_recovers_much_of_the_gap() {
        // The paper's §IV-B.3 argument: the double copy is not fundamental.
        let mut m = machine();
        let n = 32;
        let lay = layout(&m, n);
        let iters = 5;
        let bplan = RankPlan::direct(&binomial_tree(n));
        let double = {
            let progs = mpi_broadcast_programs(&bplan, &lay, Schedule::Scatter, 64, iters);
            median(&run_collective(&mut m, progs, iters))
        };
        m.reset_caches();
        let single = {
            let progs =
                mpi_broadcast_single_copy_programs(&bplan, &lay, Schedule::Scatter, 64, iters);
            median(&run_collective(&mut m, progs, iters))
        };
        assert!(
            single < double,
            "single-copy {single} must beat double-copy {double}"
        );
        // And the model-tuned tree still wins (shape + no matching overhead).
        m.reset_caches();
        let model = CapabilityModel::paper_reference();
        let tuned = {
            let plan = RankPlan::direct(&optimize_tree(&model, n, TreeKind::Broadcast).tree);
            let progs = tree_broadcast_programs(&plan, &lay, Schedule::Scatter, 64, iters);
            median(&run_collective(&mut m, progs, iters))
        };
        assert!(
            tuned < single,
            "tuned {tuned} still beats single-copy MPI {single}"
        );
    }

    #[test]
    fn central_barrier_slower_than_dissemination() {
        let mut m = machine();
        let model = CapabilityModel::paper_reference();
        let n = 32;
        let lay = layout(&m, n);
        let iters = 5;
        let bp = optimize_barrier(&model, n);
        let diss = {
            let progs = dissemination_barrier_programs(n, bp.m, &lay, Schedule::Scatter, 64, iters);
            median(&run_collective(&mut m, progs, iters))
        };
        m.reset_caches();
        let central = {
            let progs = central_barrier_programs(n, &lay, Schedule::Scatter, 64, iters);
            median(&run_collective(&mut m, progs, iters))
        };
        assert!(
            diss < central,
            "dissemination {diss} vs centralized {central}"
        );
    }
}
