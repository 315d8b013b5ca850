//! Integration tests for the static workload analyzer (`sim::analyze`):
//! injected defects are caught, every program generator the runner
//! executes analyzes clean at `Error` severity, and turning the analyzer on
//! does not change simulation output by a single bit.

#[path = "common/transfer.rs"]
mod transfer;

use knl::arch::{ClusterMode, CoreId, MachineConfig, MemoryMode, NumaKind, Schedule};
use knl::benchsuite::{membw, SuiteParams};
use knl::collectives::plan::RankPlan;
use knl::collectives::simspec::{self, SimLayout};
use knl::model::tree_opt::binomial_tree;
use knl::sim::{
    analyze, AnalyzeLevel, Machine, ObserverConfig, Op, Program, Rule, Runner, Severity, StreamKind,
};
use knl::sort::simsort::{simsort_programs, SimSortSpec};
use transfer::transfer_programs;

fn snc4_flat() -> MachineConfig {
    MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat)
}

fn assert_clean(label: &str, programs: &[Program]) {
    let report = analyze(programs, &[]);
    assert!(
        report.clean_at(Severity::Error),
        "{label} must analyze clean at Error:\n{report}"
    );
}

#[test]
fn injected_unsynchronized_race_is_detected() {
    // Two threads write the same line with no flag edge between them.
    let mut a = Program::on_core(CoreId(0));
    a.push(Op::Write(4096));
    let mut b = Program::on_core(CoreId(4));
    b.push(Op::Write(4096));
    let report = analyze(&[a, b], &[]);
    assert!(!report.clean_at(Severity::Error), "race missed:\n{report}");
    assert!(
        report
            .by_rule(Rule::Race)
            .any(|f| f.severity == Severity::Error),
        "expected an Error-severity race finding:\n{report}"
    );
}

#[test]
fn injected_deadlock_is_detected() {
    // The wait below can never be satisfied: nobody publishes the flag.
    let mut a = Program::on_core(CoreId(0));
    a.push(Op::WaitFlag {
        addr: 1 << 30,
        val: 1,
    })
    .push(Op::Read(4096));
    let report = analyze(&[a], &[]);
    assert!(
        report
            .by_rule(Rule::Deadlock)
            .any(|f| f.severity == Severity::Error),
        "expected a deadlock finding:\n{report}"
    );
}

/// The program builders whose output the runner executes in a
/// measurement: membw's windowed streams and the Fig. 10 sort.
#[test]
fn benchsuite_generators_analyze_clean() {
    let m = Machine::new(snc4_flat());
    let params = SuiteParams::quick();

    for kind in [
        StreamKind::Read,
        StreamKind::Write,
        StreamKind::Copy,
        StreamKind::Triad,
    ] {
        for target in [membw::Target::Ddr, membw::Target::Mcdram] {
            let progs = membw::bandwidth_programs(&m, kind, target, 8, Schedule::Scatter, &params);
            assert_clean(&format!("membw {kind:?}/{target:?}"), &progs);
        }
    }

    assert_clean(
        "simsort",
        &simsort_programs(
            &m,
            &SimSortSpec {
                bytes: 1 << 16,
                threads: 4,
                schedule: Schedule::Scatter,
                memory: NumaKind::Mcdram,
            },
        ),
    );
}

#[test]
fn collective_schedules_analyze_clean() {
    let m = Machine::new(snc4_flat());
    let mut arena = m.arena();
    let n = 8;
    let iters = 3;
    let sched = Schedule::Scatter;
    let lay = SimLayout::alloc(&mut arena, NumaKind::Mcdram, n);
    let plan = RankPlan::direct(&binomial_tree(n));

    let schedules: Vec<(&str, Vec<Program>)> = vec![
        (
            "tree_broadcast",
            simspec::tree_broadcast_programs(&plan, &lay, sched, 64, iters),
        ),
        (
            "tree_reduce",
            simspec::tree_reduce_programs(&plan, &lay, sched, 64, iters),
        ),
        (
            "dissemination_barrier",
            simspec::dissemination_barrier_programs(n, 2, &lay, sched, 64, iters),
        ),
        (
            "central_barrier",
            simspec::central_barrier_programs(n, &lay, sched, 64, iters),
        ),
        (
            "flat_broadcast",
            simspec::flat_broadcast_programs(n, &lay, sched, 64, iters),
        ),
        (
            "central_reduce",
            simspec::central_reduce_programs(n, &lay, sched, 64, iters),
        ),
        (
            "mpi_broadcast",
            simspec::mpi_broadcast_programs(&plan, &lay, sched, 64, iters),
        ),
        (
            "mpi_broadcast_single_copy",
            simspec::mpi_broadcast_single_copy_programs(&plan, &lay, sched, 64, iters),
        ),
        (
            "mpi_reduce",
            simspec::mpi_reduce_programs(&plan, &lay, sched, 64, iters),
        ),
        (
            "mpi_barrier",
            simspec::mpi_barrier_programs(&plan, &lay, sched, 64, iters),
        ),
    ];
    for (label, progs) in &schedules {
        let report = simspec::analyze_schedule(&plan, progs);
        assert!(
            report.clean_at(Severity::Error),
            "{label} must analyze clean at Error:\n{report}"
        );
    }
}

#[test]
fn analyze_schedule_reports_plan_defects() {
    // A malformed plan surfaces as an Error/plan finding even when the
    // programs themselves are fine.
    let plan = RankPlan {
        parent: vec![None, Some(7)],
        children: vec![vec![1], vec![]],
        root: 0,
    };
    let report = simspec::analyze_schedule(&plan, &[]);
    assert!(
        report
            .by_rule(Rule::Plan)
            .any(|f| f.severity == Severity::Error),
        "expected a plan finding:\n{report}"
    );
}

#[test]
fn analyzer_on_is_bit_identical_to_off() {
    let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
    let iters = 7;
    let run = |level: AnalyzeLevel| {
        let mut m =
            Machine::with_observer_config(cfg.clone(), ObserverConfig::default().analyze(level));
        let programs = transfer_programs(CoreId(8), CoreId(0), iters);
        let result = Runner::new(&mut m, programs).run();
        let durations: Vec<_> = (0..iters).map(|k| result.duration_ps(1, k)).collect();
        (result.end_time, durations, m.counters())
    };
    // `Info` runs the full pre-pass (races, liveness, capacity); the
    // simulated execution must not notice.
    assert_eq!(run(AnalyzeLevel::Off), run(AnalyzeLevel::Info));
}

#[test]
fn analyzer_enforces_clean_on_all_fifteen_configs() {
    // `enforce(Error)` panics on any Error finding; running a
    // flag-synchronized handoff across all fifteen machine configurations
    // smoke-tests the analyzer pre-pass inside the runner everywhere.
    // (Addresses stay below 1 GiB: cache mode exposes exactly 1 GiB.)
    let flag = 3u64 << 28;
    for cfg in MachineConfig::all_fifteen() {
        let label = cfg.label();
        let mut m = Machine::with_observer_config(
            cfg,
            ObserverConfig::default().analyze(AnalyzeLevel::Error),
        );
        let mut po = Program::on_core(CoreId(1));
        let mut pr = Program::on_core(CoreId(0));
        for it in 0..3usize {
            let gen = it as u64 + 1;
            let addr = (1u64 << 23) + (it as u64) * 64;
            po.push(Op::Write(addr)).push(Op::SetFlag {
                addr: flag,
                val: gen,
            });
            pr.push(Op::WaitFlag {
                addr: flag,
                val: gen,
            })
            .push(Op::MarkStart(it))
            .push(Op::Read(addr))
            .push(Op::MarkEnd(it));
        }
        let result = Runner::new(&mut m, vec![po, pr]).run();
        assert!(result.end_time > 0, "{label}");
    }
}
