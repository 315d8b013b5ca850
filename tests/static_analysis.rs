//! Integration tests for the static workload analyzer
//! (`knl_bench::analyze`): each rule flags a planted defect that runs to
//! completion under the full coherence oracle, a deadlock it leaves to the
//! runner is still reported there, every program generator the runner
//! executes analyzes clean at `Error` severity, and turning the analyzer
//! on does not change simulation output by a single bit.

#[path = "common/transfer.rs"]
mod transfer;

use knl::arch::{ClusterMode, CoreId, HwThreadId, MachineConfig, MemoryMode, NumaKind, Schedule};
use knl::benchsuite::{membw, SuiteParams};
use knl::collectives::plan::RankPlan;
use knl::collectives::simspec::{self, SimLayout};
use knl::model::tree_opt::binomial_tree;
use knl::sim::{CheckLevel, Machine, ObserverConfig, Op, Program, RunResult, Runner, StreamKind};
use knl::sort::simsort::{simsort_programs, SimSortSpec};
use knl_bench::analyze::{analyze, AnalysisReport, AnalyzeLevel, Rule, Severity};
use knl_bench::runconf::RunConf;
use transfer::transfer_programs;

fn snc4_flat() -> MachineConfig {
    MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat)
}

fn quadrant_flat() -> MachineConfig {
    MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat)
}

/// A machine for `cfg` as `knl run --analyze <level>` builds it.
fn analyzed_machine(level: AnalyzeLevel, cfg: MachineConfig) -> Machine {
    let conf = RunConf {
        analyze: level,
        ..RunConf::default()
    };
    knl_bench::sweep::machine(&conf, cfg)
}

/// Run `programs` to completion under the full coherence oracle, which
/// must pass them; returns the analysis of the same programs and the run.
fn runtime_misses(programs: Vec<Program>) -> (AnalysisReport, RunResult) {
    let report = analyze(&programs, &[]);
    let oracle = ObserverConfig::default().check(CheckLevel::FullOracle);
    let mut m = Machine::with_observer_config(quadrant_flat(), oracle);
    let result = Runner::new(&mut m, programs).run();
    m.finish_check();
    (report, result)
}

fn on_hw(hw: u16, ops: &[Op]) -> Program {
    let mut p = Program::new(HwThreadId(hw));
    for op in ops {
        p.push(op.clone());
    }
    p
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
    // Nobody publishes the flag. No rule reports it: flags only grow, so
    // the runner names every thread still parked when the run drains.
    let mut a = Program::on_core(CoreId(0));
    a.push(Op::WaitFlag {
        addr: 1 << 30,
        val: 1,
    })
    .push(Op::Read(4096));
    let mut m = analyzed_machine(AnalyzeLevel::Error, quadrant_flat());
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Runner::new(&mut m, vec![a]).run();
    }))
    .expect_err("the run must deadlock");
    let msg = payload
        .downcast_ref::<String>()
        .expect("the deadlock panic carries a formatted message");
    assert!(
        msg.contains("deadlock: thread 0 waits for flag 0x40000000 to reach 1; it holds 0"),
        "{msg}"
    );
}

#[test]
fn runtime_misses_race() {
    let (report, _) = runtime_misses(vec![
        on_hw(0, &[Op::Write(4096)]),
        on_hw(4, &[Op::Write(4096)]),
    ]);
    assert!(
        report
            .by_rule(Rule::Race)
            .any(|f| f.severity == Severity::Error),
        "{report}"
    );
}

#[test]
fn runtime_misses_flag_sharing() {
    // Data stores to the flag's line: the flag value is unaffected, the
    // line's traffic is not.
    let flag = 1 << 20;
    let (report, _) = runtime_misses(vec![
        on_hw(0, &[Op::SetFlag { addr: flag, val: 1 }]),
        on_hw(4, &[Op::Write(flag + 8)]),
        on_hw(8, &[Op::Write(flag + 16)]),
    ]);
    assert!(report.by_rule(Rule::FlagSharing).count() == 1, "{report}");
}

#[test]
fn runtime_misses_duplicate_pin() {
    // Two programs on one hardware thread run as two threads of its core.
    let (report, _) = runtime_misses(vec![
        on_hw(0, &[Op::Write(4096)]),
        on_hw(0, &[Op::Write(8192)]),
    ]);
    let pins: Vec<_> = report.by_rule(Rule::DuplicatePin).collect();
    assert!(
        pins.len() == 1 && pins[0].severity == Severity::Error,
        "{report}"
    );
}

#[test]
fn runtime_misses_lost_intervals() {
    // A re-opened interval and one never closed: the run keeps neither.
    let program = on_hw(
        0,
        &[
            Op::MarkStart(0),
            Op::Read(4096),
            Op::MarkStart(0),
            Op::MarkEnd(0),
            Op::MarkStart(1),
        ],
    );
    let (report, result) = runtime_misses(vec![program]);
    assert_eq!((result.occurrences(0, 0), result.occurrences(0, 1)), (1, 0));
    let marks: Vec<_> = report.by_rule(Rule::MarkPairing).collect();
    assert!(
        marks.len() == 2 && marks.iter().all(|f| f.severity == Severity::Warn),
        "{report}"
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
        assert_clean(label, progs);
    }
}

#[test]
fn analyzer_on_is_bit_identical_to_off() {
    let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
    let iters = 7;
    let run = |level: AnalyzeLevel| {
        let mut m = analyzed_machine(level, cfg.clone());
        let programs = transfer_programs(CoreId(8), CoreId(0), iters);
        let result = Runner::new(&mut m, programs).run();
        let durations: Vec<_> = (0..iters).map(|k| result.duration_ps(1, k)).collect();
        (result.end_time, durations, m.counters())
    };
    // `Warn` runs and reports every rule; the simulated execution must
    // not notice.
    assert_eq!(run(AnalyzeLevel::Off), run(AnalyzeLevel::Warn));
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
        let mut m = analyzed_machine(AnalyzeLevel::Error, cfg);
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
