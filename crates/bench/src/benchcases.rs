//! The `simulator_throughput` suite as data.
//!
//! The same cases back two consumers: the `benches/simulator_throughput`
//! target (human-readable console run via `cargo bench`) and the
//! `knl-bench-record` bin (machine-readable `BENCH_<pr>.json` trajectory,
//! DESIGN.md §6). Defining the suite once keeps the two views measuring
//! byte-for-byte the same workloads, so a recorded trajectory is always
//! comparable with an interactive bench run.

use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode, Schedule};
use knl_sim::{
    AccessKind, AnalyzeLevel, CheckLevel, Machine, ObserverConfig, Op, Program, Runner, StreamKind,
    TelemetryConfig, TraceLevel,
};

/// Name of the suite in recorded trajectories.
pub const SUITE: &str = "simulator_throughput";

/// One benchmark case: identity plus a closure over its captured machine
/// state. The closure returns the simulated end time so the optimizer
/// cannot discard the work.
pub struct BenchCase {
    pub group: &'static str,
    pub name: &'static str,
    /// Bytes moved per iteration (bandwidth cases only).
    pub bytes: Option<u64>,
    pub run: Box<dyn FnMut() -> u64>,
}

fn machine() -> Machine {
    Machine::new(MachineConfig::knl7210(
        ClusterMode::Quadrant,
        MemoryMode::Flat,
    ))
}

fn machine_with(oc: ObserverConfig) -> Machine {
    Machine::with_observer_config(
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat),
        oc,
    )
}

/// The ping-pong write kernel every `remote_transfer*` case runs: one line
/// bounced between two tiles, so each access is a remote ownership
/// transfer. Shared so the observer-cost cases measure the identical
/// workload as the raw one.
fn ping_pong(oc: ObserverConfig) -> Box<dyn FnMut() -> u64> {
    let mut m = machine_with(oc);
    let mut now = 0;
    let mut flip = false;
    Box::new(move || {
        let core = if flip { CoreId(0) } else { CoreId(30) };
        flip = !flip;
        now = m.access(core, 1 << 21, AccessKind::Write, now).complete;
        now
    })
}

/// Build the full suite, in its fixed reporting order.
pub fn simulator_throughput_suite() -> Vec<BenchCase> {
    let mut cases = Vec::new();
    let case = |name, bytes, run| BenchCase {
        group: "sim_access",
        name,
        bytes,
        run,
    };

    cases.push(case("l1_hit", None, {
        let mut m = machine();
        let mut now = m.access(CoreId(0), 4096, AccessKind::Read, 0).complete;
        Box::new(move || {
            now = m.access(CoreId(0), 4096, AccessKind::Read, now).complete;
            now
        })
    }));

    cases.push(case("memory_miss", None, {
        let mut m = machine();
        let mut addr = 1u64 << 22;
        let mut now = 0;
        Box::new(move || {
            addr += 4096;
            if addr > (1 << 29) {
                addr = 1 << 22;
                m.reset_caches();
            }
            now = m.access(CoreId(0), addr, AccessKind::Read, now).complete;
            now
        })
    }));

    cases.push(case(
        "remote_transfer",
        None,
        ping_pong(ObserverConfig::default()),
    ));

    // `--check off` must be free (the acceptance bar for leaving the hook
    // compiled into the hot paths), and the checked levels' cost should
    // stay visible here so it never silently creeps into `off`.
    for (name, level) in [
        ("remote_transfer_check_off", CheckLevel::Off),
        ("remote_transfer_check_inv", CheckLevel::Invariants),
        ("remote_transfer_check_full", CheckLevel::FullOracle),
    ] {
        cases.push(case(
            name,
            None,
            ping_pong(ObserverConfig::default().check(level)),
        ));
    }

    // Same acceptance bar for the tracer: `--trace-level off` must be
    // free, and the summary/full costs stay measured so they never bleed
    // into the off path.
    for (name, trace) in [
        ("remote_transfer_trace_off", TraceLevel::Off),
        ("remote_transfer_trace_summary", TraceLevel::Summary),
        ("remote_transfer_trace_full", TraceLevel::Full),
    ] {
        cases.push(case(
            name,
            None,
            ping_pong(ObserverConfig::default().trace(trace)),
        ));
    }

    // And for the static analyzer: `--analyze off` skips the pre-pass
    // entirely, so the off case must track the raw runner; the on case
    // measures the happens-before construction for a small flag-handoff
    // workload (the pre-pass runs once per `Runner::run`).
    for (name, level) in [
        ("remote_transfer_analyze_off", AnalyzeLevel::Off),
        ("remote_transfer_analyze_on", AnalyzeLevel::Error),
    ] {
        cases.push(case(name, None, {
            let mut m = machine_with(ObserverConfig::default().analyze(level));
            Box::new(move || {
                let flag = 3u64 << 28;
                let mut po = Program::on_core(CoreId(30));
                let mut pr = Program::on_core(CoreId(0));
                for it in 0..16usize {
                    let gen = it as u64 + 1;
                    let addr = (1u64 << 21) + (it as u64) * 64;
                    po.push(Op::Write(addr)).push(Op::SetFlag {
                        addr: flag,
                        val: gen,
                    });
                    pr.push(Op::WaitFlag {
                        addr: flag,
                        val: gen,
                    })
                    .push(Op::Read(addr));
                }
                let end = Runner::new(&mut m, vec![po, pr]).run().end_time;
                m.reset_caches();
                end
            })
        }));
    }

    // The observer-hub guard pair: an empty hub (`off`) must track the
    // raw `remote_transfer` case bit-for-bit in cost, while the fully
    // loaded hub (`on` = full oracle + full trace + analyze gate)
    // measures the dispatch overhead of every observer at once.
    for (name, oc) in [
        (
            "remote_transfer_all_observers_off",
            ObserverConfig::default(),
        ),
        (
            "remote_transfer_all_observers_on",
            ObserverConfig::default()
                .check(CheckLevel::FullOracle)
                .trace(TraceLevel::Full)
                .analyze(AnalyzeLevel::Error),
        ),
    ] {
        cases.push(case(name, None, ping_pong(oc)));
    }

    // Telemetry's acceptance bar mirrors the other observers: `--telemetry`
    // off must ride the empty-hub fast path for free, and the sampling
    // cost when on stays measured here.
    for (name, tel) in [
        ("remote_transfer_telemetry_off", TelemetryConfig::off()),
        ("remote_transfer_telemetry_on", TelemetryConfig::on()),
    ] {
        cases.push(case(
            name,
            None,
            ping_pong(ObserverConfig::default().telemetry(tel)),
        ));
    }

    // What `reset_caches` costs after an iteration that touched `lines`
    // lines (one core reading them from memory, then the reset): benchmark
    // loops reset after every iteration, most of which touch a handful of
    // lines, so the reset must cost what was touched (DESIGN.md §6, "Reset
    // cost"). 16384 lines fill every set and way of one L2 — the most a
    // single core can make a reset rewrite.
    for (name, lines) in [
        ("reset_after_1_line", 1u64),
        ("reset_after_1024_lines", 1024),
        ("reset_after_streamed_l2", 16384),
    ] {
        cases.push(BenchCase {
            group: "sim_reset",
            name,
            bytes: None,
            run: {
                let mut m = machine();
                let mut now = 0;
                Box::new(move || {
                    for l in 0..lines {
                        let addr = (1 << 22) + l * 64;
                        now = m.access(CoreId(0), addr, AccessKind::Read, now).complete;
                    }
                    m.reset_caches();
                    now
                })
            },
        });
    }

    let lines = 64 * 1024u64;
    cases.push(BenchCase {
        group: "sim_stream",
        name: "8_threads_triad",
        bytes: Some(lines * 8 * 64),
        run: Box::new(move || {
            let mut m = machine();
            let progs: Vec<Program> = (0..8usize)
                .map(|i| {
                    let mut p = Program::new(Schedule::FillTiles.place(i, 64));
                    p.push(Op::Stream {
                        kind: StreamKind::Triad,
                        a: (i as u64) << 24,
                        b: (i as u64) << 24 | 1 << 23,
                        c: (i as u64) << 24 | 1 << 22,
                        lines,
                        vectorized: true,
                    });
                    p
                })
                .collect();
            Runner::new(&mut m, progs).run().end_time
        }),
    });

    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_unique_keys_in_fixed_order() {
        let cases = simulator_throughput_suite();
        let keys: Vec<String> = cases
            .iter()
            .map(|c| format!("{}/{}", c.group, c.name))
            .collect();
        assert_eq!(cases.len(), 19);
        assert_eq!(keys.first().map(String::as_str), Some("sim_access/l1_hit"));
        assert_eq!(
            keys[15..18],
            [
                "sim_reset/reset_after_1_line",
                "sim_reset/reset_after_1024_lines",
                "sim_reset/reset_after_streamed_l2"
            ]
        );
        assert_eq!(
            keys.last().map(String::as_str),
            Some("sim_stream/8_threads_triad")
        );
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "duplicate case key");
    }

    #[test]
    fn every_case_runs_and_produces_time() {
        for mut c in simulator_throughput_suite() {
            let end = (c.run)();
            assert!(end > 0, "{}/{} returned zero end time", c.group, c.name);
        }
    }
}
