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
use knl_core::Tree;
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

fn set(addr: u64, val: u64) -> Op {
    Op::SetFlag { addr, val }
}

fn wait(addr: u64, val: u64) -> Op {
    Op::WaitFlag { addr, val }
}

fn compute_ns(ns: u64) -> Op {
    Op::Compute(ns * 1000)
}

/// The iteration frame every collective shares: rank `r` of `n` is pinned
/// by `schedule`, and each iteration `it` waits for its window, marks its
/// start, runs `body(program, r, gen)` with generation `gen = it + 1` (the
/// value every flag of the iteration publishes), and marks its end.
fn per_rank(
    n: usize,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
    mut body: impl FnMut(&mut Program, usize, u64),
) -> Vec<Program> {
    (0..n)
        .map(|rank| {
            let mut p = Program::new(schedule.place(rank, num_cores));
            for it in 0..iters {
                p.push(Op::WaitUntil((it as SimTime + 1) * ITER_PERIOD_PS));
                p.push(Op::MarkStart(it));
                body(&mut p, rank, it as u64 + 1);
                p.push(Op::MarkEnd(it));
            }
            p
        })
        .collect()
}

/// `plan`'s rank count, after checking it is a well-formed tree.
fn ranks(plan: &RankPlan) -> usize {
    plan.assert_valid();
    plan.num_ranks()
}

/// Collect the subtree's acknowledgements, then ack upward.
fn ack_up(p: &mut Program, plan: &RankPlan, layout: &SimLayout, rank: usize, gen: u64) {
    for &c in &plan.children[rank] {
        p.push(wait(layout.ack[c], gen));
    }
    if rank != plan.root {
        p.push(set(layout.ack[rank], gen));
    }
}

/// Gather up `plan`, then release from the central line: every rank waits
/// for its children's flags (folding each in for `fold_ns` when it is a
/// reduce), a non-root publishes its own flag and polls the release, and
/// the root sets it. `dispatch_ns` is a runtime overhead paid first.
fn gather_release(
    plan: &RankPlan,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
    dispatch_ns: Option<u64>,
    fold_ns: Option<u64>,
) -> Vec<Program> {
    per_rank(ranks(plan), schedule, num_cores, iters, |p, rank, gen| {
        p.ops.extend(dispatch_ns.map(compute_ns));
        for &c in &plan.children[rank] {
            p.push(wait(layout.flag[c], gen));
            p.ops.extend(fold_ns.map(compute_ns));
        }
        if rank == plan.root {
            p.push(set(layout.central, gen));
        } else {
            p.push(set(layout.flag[rank], gen));
            p.push(wait(layout.central, gen));
        }
    })
}

/// Rank 0 over `n - 1` leaves (n ≥ 1): the OpenMP-like baselines' central
/// plan.
fn flat_plan(n: usize) -> RankPlan {
    RankPlan::direct(&Tree::new(vec![Tree::leaf(); n - 1]))
}

/// Model-tuned (or any) tree broadcast over `plan`.
pub fn tree_broadcast_programs(
    plan: &RankPlan,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    per_rank(ranks(plan), schedule, num_cores, iters, |p, rank, gen| {
        // A non-root polls its parent's line (contention among siblings);
        // then every rank publishes data + flag in one line (R_I + R_L),
        // which notifies its own children.
        if let Some(parent) = plan.parent[rank] {
            p.push(wait(layout.flag[parent], gen));
        }
        p.push(set(layout.flag[rank], gen));
        ack_up(p, plan, layout, rank, gen);
    })
}

/// Model-tuned tree reduce over `plan` (sum of one line per rank).
pub fn tree_reduce_programs(
    plan: &RankPlan,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    let fold = Some(REDOP_NS);
    gather_release(plan, layout, schedule, num_cores, iters, None, fold)
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
    per_rank(n, schedule, num_cores, iters, |p, rank, gen| {
        let mut stride = 1usize;
        for round in 0..rounds {
            let val = (gen - 1) * rounds as u64 + round as u64 + 1;
            p.push(set(layout.flag[rank], val));
            for j in 1..=m {
                let partner = (rank + n - (j * stride) % n) % n;
                if partner != rank {
                    p.push(wait(layout.flag[partner], val));
                }
            }
            stride *= m + 1;
        }
    })
}

/// Centralized gather–release barrier (OpenMP-like baseline).
pub fn central_barrier_programs(
    n: usize,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    let plan = flat_plan(n);
    let dispatch = Some(OMP_DISPATCH_OVERHEAD_NS);
    gather_release(&plan, layout, schedule, num_cores, iters, dispatch, None)
}

/// Flat broadcast + completion gather (OpenMP-like baseline).
pub fn flat_broadcast_programs(
    n: usize,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    per_rank(n, schedule, num_cores, iters, |p, rank, gen| {
        p.push(compute_ns(OMP_DISPATCH_OVERHEAD_NS));
        if rank == 0 {
            p.push(set(layout.central, gen));
            p.ops.extend((1..n).map(|r| wait(layout.ack[r], gen)));
        } else {
            // All n−1 ranks poll one line: maximal contention.
            p.push(wait(layout.central, gen));
            p.push(set(layout.ack[rank], gen));
        }
    })
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
    let plan = flat_plan(n);
    let (dispatch, fold) = (Some(OMP_DISPATCH_OVERHEAD_NS), Some(REDOP_NS));
    gather_release(&plan, layout, schedule, num_cores, iters, dispatch, fold)
}

/// The MPI-like broadcast down `plan`: each hop pays the per-message
/// overhead on both sides. With `double_copy` the sender copies into the
/// child's staging line and the receiver copies out of its own; without,
/// the receiver reads the sender's buffer directly.
fn mpi_broadcast(
    plan: &RankPlan,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
    double_copy: bool,
) -> Vec<Program> {
    per_rank(ranks(plan), schedule, num_cores, iters, |p, rank, gen| {
        if let Some(parent) = plan.parent[rank] {
            // Match + receive into the private buffer.
            p.push(wait(layout.envelope[rank], gen));
            p.push(compute_ns(MPI_MSG_OVERHEAD_NS));
            let src = if double_copy {
                layout.staging[rank]
            } else {
                layout.flag[parent]
            };
            p.push(Op::Read(src));
            p.push(Op::Write(layout.flag[rank]));
        }
        for &c in &plan.children[rank] {
            // Send: envelope, after copying into the child's staging line.
            p.push(compute_ns(MPI_MSG_OVERHEAD_NS));
            if double_copy {
                p.push(Op::Read(layout.flag[rank]));
                p.push(Op::Write(layout.staging[c]));
            }
            p.push(set(layout.envelope[c], gen));
        }
        ack_up(p, plan, layout, rank, gen);
    })
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
    mpi_broadcast(plan, layout, schedule, num_cores, iters, true)
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
    mpi_broadcast(plan, layout, schedule, num_cores, iters, false)
}

/// MPI-like binomial reduce (gather up the tree with staging + envelopes).
pub fn mpi_reduce_programs(
    plan: &RankPlan,
    layout: &SimLayout,
    schedule: Schedule,
    num_cores: usize,
    iters: usize,
) -> Vec<Program> {
    per_rank(ranks(plan), schedule, num_cores, iters, |p, rank, gen| {
        for &c in &plan.children[rank] {
            p.push(wait(layout.envelope[c], gen));
            p.push(compute_ns(MPI_MSG_OVERHEAD_NS));
            p.push(Op::Read(layout.staging[c]));
            p.push(Op::Write(layout.flag[rank]));
            p.push(compute_ns(REDOP_NS));
        }
        if rank == plan.root {
            p.push(set(layout.central, gen));
        } else {
            p.push(compute_ns(MPI_MSG_OVERHEAD_NS));
            p.push(Op::Write(layout.staging[rank]));
            p.push(set(layout.envelope[rank], gen));
            p.push(wait(layout.central, gen));
        }
    })
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
    per_rank(ranks(plan), schedule, num_cores, iters, |p, rank, gen| {
        // Gather the children's envelopes and send ours up; then wait for
        // the parent's release and pass it down.
        for &c in &plan.children[rank] {
            p.push(wait(layout.envelope[c], gen));
            p.push(compute_ns(MPI_MSG_OVERHEAD_NS));
        }
        if rank != plan.root {
            p.push(compute_ns(MPI_MSG_OVERHEAD_NS));
            p.push(set(layout.envelope[rank], gen));
            p.push(wait(layout.staging[rank], gen));
            p.push(compute_ns(MPI_MSG_OVERHEAD_NS));
        }
        for &c in &plan.children[rank] {
            p.push(compute_ns(MPI_MSG_OVERHEAD_NS));
            p.push(set(layout.staging[c], gen));
        }
    })
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
