//! Workload-independent probes: tight loops on public functions, run as
//! K interleaved batches with the median reported. They put one number on
//! each layer's unit cost, and `probe.host.calib_spin_ns` on the host itself.

use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode};
use knl_benchsuite::{run_cache_suite, SuiteParams, SweepExecutor};
use knl_sim::{
    AccessKind, CheckLevel, Machine, ObserverConfig, Op, Program, Runner, TelemetryConfig,
    TraceLevel,
};
use std::hint::black_box;
use std::time::Instant;

/// Interleaved batches per probe.
const BATCHES: usize = 9;

struct Probe {
    name: &'static str,
    /// Calls of `op` per batch.
    iters: u64,
    /// Units (accesses, ops, hand-offs) one call of `op` performs.
    units: u64,
    op: Box<dyn FnMut() -> u64>,
}

fn quadrant_flat() -> MachineConfig {
    MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat)
}

/// One line bounced between two tiles: every access is a remote ownership
/// transfer. The kernel `benchcases.rs` calls `remote_transfer`, so the
/// `BENCH_6…10` trajectory stays relatable.
fn ping_pong(observers: ObserverConfig) -> Box<dyn FnMut() -> u64> {
    let mut m = Machine::with_observer_config(quadrant_flat(), observers);
    let (mut now, mut flip) = (0, false);
    Box::new(move || {
        let core = if flip { CoreId(0) } else { CoreId(30) };
        flip = !flip;
        now = m.access(core, 1 << 21, AccessKind::Write, now).complete;
        now
    })
}

fn probes(scale: u64) -> Vec<Probe> {
    let probe = |name, iters: u64, units, op| Probe {
        name,
        iters: (iters / scale).max(1),
        units,
        op,
    };
    let off = ObserverConfig::default();
    let mut out = vec![
        // Depends on no repository code: if it moves, the host moved.
        probe("probe.host.calib_spin_ns", 4_000_000, 1, {
            let mut z = 0x9E37_79B9_7F4A_7C15u64;
            Box::new(move || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                z
            })
        }),
        probe("probe.engine.l1_hit_ns", 200_000, 1, {
            let mut m = Machine::new(quadrant_flat());
            let mut now = m.access(CoreId(0), 4096, AccessKind::Read, 0).complete;
            Box::new(move || {
                now = m.access(CoreId(0), 4096, AccessKind::Read, now).complete;
                now
            })
        }),
        probe("probe.engine.mem_miss_ns", 20_000, 1, {
            let mut m = Machine::new(quadrant_flat());
            let (mut addr, mut now) = (1u64 << 22, 0);
            Box::new(move || {
                addr += 4096;
                if addr > (1 << 29) {
                    addr = 1 << 22;
                    m.reset_caches();
                }
                now = m.access(CoreId(0), addr, AccessKind::Read, now).complete;
                now
            })
        }),
        probe("probe.engine.remote_transfer_ns", 20_000, 1, ping_pong(off)),
    ];
    // The same kernel with one observer on; reported as the cost over `off`.
    for (name, observers) in [
        (
            "probe.observers.check_inv_ns",
            off.check(CheckLevel::Invariants),
        ),
        (
            "probe.observers.trace_summary_ns",
            off.trace(TraceLevel::Summary),
        ),
        (
            "probe.observers.telemetry_ns",
            off.telemetry(TelemetryConfig::on()),
        ),
    ] {
        out.push(probe(name, 20_000, 1, ping_pong(observers)));
    }
    const OPS: usize = 32;
    out.push(probe("probe.runner.step_ns", 8, 64 * OPS as u64, {
        let mut m = Machine::new(quadrant_flat());
        let programs: Vec<Program> = (0..64u16)
            .map(|core| {
                let mut p = Program::on_core(CoreId(core));
                for i in 0..OPS / 4 {
                    p.push(Op::MarkStart(i)).push(Op::Compute(1_000));
                    p.push(Op::Compute(2_000)).push(Op::MarkEnd(i));
                }
                p
            })
            .collect();
        Box::new(move || Runner::new(&mut m, programs.clone()).run().end_time)
    }));
    const ROUNDS: u64 = 64;
    out.push(probe("probe.runner.flag_handoff_ns", 16, 2 * ROUNDS, {
        let mut m = Machine::new(quadrant_flat());
        let (ping, pong) = (1u64 << 21, (1u64 << 21) + 4096);
        let mut a = Program::on_core(CoreId(0));
        let mut b = Program::on_core(CoreId(30));
        for val in 1..=ROUNDS {
            a.push(Op::SetFlag { addr: ping, val })
                .push(Op::WaitFlag { addr: pong, val });
            b.push(Op::WaitFlag { addr: ping, val })
                .push(Op::SetFlag { addr: pong, val });
        }
        let programs = vec![a, b];
        Box::new(move || Runner::new(&mut m, programs.clone()).run().end_time)
    }));
    out.push(probe("probe.stats.fit_linear_ns", 100_000, 1, {
        let xs: Vec<f64> = (1..=16).map(f64::from).collect();
        let mut ys: Vec<f64> = xs.iter().map(|x| 40.0 + 7.5 * x).collect();
        Box::new(move || {
            ys[0] += 1e-9;
            knl_stats::fit_linear(&xs, &ys).beta.to_bits()
        })
    }));
    out
}

/// Median ns per unit for every probe; `scale` divides the batch sizes
/// (smoke runs). The three observer probes come back as on-minus-off.
pub fn run(scale: u64) -> Vec<(&'static str, f64)> {
    let mut probes = probes(scale);
    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); probes.len()];
    for _ in 0..BATCHES {
        for (p, samples) in probes.iter_mut().zip(&mut ns) {
            let t0 = Instant::now();
            for _ in 0..p.iters {
                black_box((p.op)());
            }
            samples.push(t0.elapsed().as_nanos() as f64 / (p.iters * p.units) as f64);
        }
    }
    let mut out: Vec<(&'static str, f64)> = probes
        .iter()
        .zip(&ns)
        .map(|(p, samples)| (p.name, knl_stats::median(samples)))
        .collect();
    let off = out
        .iter()
        .find(|(name, _)| *name == "probe.engine.remote_transfer_ns")
        .map_or(0.0, |(_, ns)| *ns);
    for (name, ns) in &mut out {
        if name.starts_with("probe.observers.") {
            *ns -= off;
        }
    }
    out
}

/// `c2c_table1`'s five jobs through `SweepExecutor::new(min(nproc, 4))`
/// against `new(1)`: what `--jobs` buys on this host.
pub fn sweep_speedup_x(params: &SuiteParams) -> f64 {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let time = |jobs: usize| {
        let t0 = Instant::now();
        let results = SweepExecutor::new(jobs).run("probe", &ClusterMode::ALL, |_, &mode| {
            let mut m = Machine::new(MachineConfig::knl7210(mode, MemoryMode::Flat));
            run_cache_suite(&mut m, params).read_bw_gbps
        });
        black_box(results);
        t0.elapsed().as_secs_f64()
    };
    let serial = time(1);
    serial / time(nproc.min(4))
}
