//! Memory bandwidth benchmarks (§V-A, Table II, Fig. 9): STREAM-style
//! copy/read/write/triad kernels with non-temporal hints, random buffers
//! selected from a larger pool each iteration, window-synchronized starts,
//! swept over thread counts and schedules.

use crate::params::SuiteParams;
use crate::sync_window::WindowSync;
use knl_arch::topology::splitmix64;
use knl_arch::{NumaKind, Schedule};
use knl_sim::{Machine, Op, Program, Runner, StreamKind};
use knl_stats::Sample;

/// Where the benchmark's buffers live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Flat-mode DDR allocation ("DRAM" rows of Table II).
    Ddr,
    /// Flat-mode MCDRAM allocation ("MCDRAM" rows).
    Mcdram,
    /// Cache mode: plain allocations, MCDRAM cache in front of DDR.
    CacheMode,
}

impl Target {
    /// Row label used in Table II ("DRAM", "MCDRAM", "cache").
    pub fn label(self) -> &'static str {
        match self {
            Target::Ddr => "DRAM",
            Target::Mcdram => "MCDRAM",
            Target::CacheMode => "cache",
        }
    }

    fn numa_kind(self) -> NumaKind {
        match self {
            Target::Mcdram => NumaKind::Mcdram,
            _ => NumaKind::Ddr,
        }
    }
}

/// The programs [`bandwidth_sample`] executes (exposed so the static
/// analyzer can pre-validate the generated workload). The machine is only
/// consulted for its configuration and address map; allocation uses a
/// fresh [`knl_sim::Arena`], so building programs twice yields the same
/// addresses and running them is identical to calling `bandwidth_sample`.
pub fn bandwidth_programs(
    m: &Machine,
    kind: StreamKind,
    target: Target,
    threads: usize,
    schedule: Schedule,
    params: &SuiteParams,
) -> Vec<Program> {
    let lines = params.mem_lines_per_thread;
    let buf_bytes = lines * 64 * 3; // room for a, b, c sub-buffers
    let num_cores = m.config().num_cores();
    let mut arena = m.arena();

    // One large shared pool of buffer slots, as the paper's "random buffers
    // selected from a larger one": every thread picks a pseudo-random slot
    // each iteration. In cache mode the pool is sized to ~2.5x the (scaled)
    // memory-side cache so hits are genuinely uncertain; in flat modes it is
    // `threads × mem_pool_buffers` slots, clamped to the region.
    let num_slots = {
        let region_cap = (arena.remaining(target.numa_kind()) as f64 * 0.8) as u64;
        let max_total = (region_cap / buf_bytes).max(1);
        let want_total = if target == Target::CacheMode && m.config().memory.has_mcdram_cache() {
            let cache_bytes = m.address_map().mcdram_cache_bytes();
            ((cache_bytes as f64 * 2.5 / buf_bytes as f64).ceil() as u64).max(threads as u64)
        } else {
            (threads * params.mem_pool_buffers) as u64
        };
        want_total.min(max_total).max(threads as u64) as usize
    };
    let pool: Vec<u64> = (0..num_slots)
        .map(|_| arena.alloc(target.numa_kind(), buf_bytes))
        .collect();

    // Window period generous enough for the slowest kernel at the highest
    // oversubscription (DDR writes at 256 threads).
    let total_bytes_iter = threads as u64 * lines * 64 * 3;
    let period = (total_bytes_iter as f64 / 15e9 * 1e12) as u64 + 2_000_000;
    let sync = WindowSync::new(num_cores, period, 10, params.seed);

    let programs: Vec<Program> = (0..threads)
        .map(|ti| {
            let hw = schedule.place(ti, num_cores);
            let mut p = Program::new(hw);
            if target == Target::CacheMode {
                // Untimed warm-up: the threads jointly stream the whole pool
                // once (disjoint shares) so the memory-side cache reaches its
                // steady state — holding an arbitrary subset of a footprint
                // larger than itself — before the first window.
                let share = num_slots.div_ceil(threads);
                for &base in pool.iter().skip(ti * share).take(share) {
                    p.push(Op::Stream {
                        kind: StreamKind::Read,
                        a: base,
                        b: base,
                        c: base,
                        lines: lines * 3,
                        vectorized: true,
                    });
                }
            }
            for it in 0..params.iters {
                let pick =
                    splitmix64(params.seed ^ (ti as u64) << 32 ^ it as u64) as usize % pool.len();
                let base = pool[pick];
                let (a, b, c) = (base, base + lines * 64, base + 2 * lines * 64);
                p.push(Op::WaitUntil(sync.window_start(hw.core().0 as usize, it)))
                    .push(Op::MarkStart(it))
                    .push(Op::Stream {
                        kind,
                        a,
                        b,
                        c,
                        lines,
                        vectorized: true,
                    })
                    .push(Op::MarkEnd(it));
            }
            p
        })
        .collect();
    programs
}

/// Aggregate bandwidth sample (GB/s per iteration) for one configuration.
///
/// Each of `threads` threads streams `params.mem_lines_per_thread` lines of
/// `kind` per iteration over a buffer picked pseudo-randomly from its pool
/// of `params.mem_pool_buffers` buffers, starting at a synchronized window.
/// Bandwidth counts reads+writes as the paper does.
pub fn bandwidth_sample(
    m: &mut Machine,
    kind: StreamKind,
    target: Target,
    threads: usize,
    schedule: Schedule,
    params: &SuiteParams,
) -> Sample {
    let lines = params.mem_lines_per_thread;
    let programs = bandwidth_programs(m, kind, target, threads, schedule, params);
    let result = Runner::new(m, programs).run();
    let mut s = Sample::new();
    let bytes = threads as u64 * lines * kind.bytes_per_line();
    for it in 0..params.iters {
        if let Some(max_ns) = result.iteration_max_ns(it) {
            s.push((bytes as f64 / 1e9) / (max_ns / 1e9));
        }
    }
    s
}

/// Sweep thread counts for one (kind, target, schedule); returns
/// [`crate::measurement::BwPoint`]s.
pub fn bandwidth_sweep(
    m: &mut Machine,
    kind: StreamKind,
    target: Target,
    schedule: Schedule,
    params: &SuiteParams,
) -> Vec<crate::measurement::BwPoint> {
    let cap = m.config().num_hw_threads();
    params
        .mem_threads
        .iter()
        .copied()
        .filter(|&t| t <= cap)
        .map(|threads| {
            m.reset_devices();
            m.reset_caches();
            let s = bandwidth_sample(m, kind, target, threads, schedule, params);
            crate::measurement::BwPoint {
                bytes: params.mem_lines_per_thread * 64,
                threads,
                schedule,
                gbps_median: s.median(),
                gbps_max: s.max(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::{ClusterMode, MachineConfig, MemoryMode};

    fn machine(mm: MemoryMode) -> Machine {
        let mut m = Machine::new(MachineConfig::knl7210(ClusterMode::Quadrant, mm));
        m.set_jitter(0);
        m
    }

    fn quick() -> SuiteParams {
        let mut p = SuiteParams::quick();
        p.iters = 5;
        p.mem_lines_per_thread = 512;
        p
    }

    #[test]
    fn ddr_read_saturates() {
        let mut m = machine(MemoryMode::Flat);
        let p = quick();
        let s32 = bandwidth_sample(
            &mut m,
            StreamKind::Read,
            Target::Ddr,
            32,
            Schedule::FillTiles,
            &p,
        );
        assert!(
            (55.0..90.0).contains(&s32.median()),
            "32-thread DDR read {}",
            s32.median()
        );
    }

    #[test]
    fn mcdram_read_beats_ddr() {
        let mut m = machine(MemoryMode::Flat);
        let p = quick();
        let d = bandwidth_sample(
            &mut m,
            StreamKind::Read,
            Target::Ddr,
            32,
            Schedule::FillTiles,
            &p,
        );
        m.reset_devices();
        let mc = bandwidth_sample(
            &mut m,
            StreamKind::Read,
            Target::Mcdram,
            32,
            Schedule::FillTiles,
            &p,
        );
        assert!(
            mc.median() > 1.8 * d.median(),
            "MCDRAM {} vs DDR {}",
            mc.median(),
            d.median()
        );
    }

    #[test]
    fn write_slower_than_read() {
        let mut m = machine(MemoryMode::Flat);
        let p = quick();
        let r = bandwidth_sample(
            &mut m,
            StreamKind::Read,
            Target::Ddr,
            16,
            Schedule::FillTiles,
            &p,
        );
        m.reset_devices();
        let w = bandwidth_sample(
            &mut m,
            StreamKind::Write,
            Target::Ddr,
            16,
            Schedule::FillTiles,
            &p,
        );
        assert!(
            w.median() < r.median(),
            "write {} < read {}",
            w.median(),
            r.median()
        );
        assert!(
            (25.0..48.0).contains(&w.median()),
            "DDR write {}",
            w.median()
        );
    }

    #[test]
    fn sweep_produces_points() {
        let mut m = machine(MemoryMode::Flat);
        let p = quick();
        let pts = bandwidth_sweep(
            &mut m,
            StreamKind::Triad,
            Target::Ddr,
            Schedule::FillTiles,
            &p,
        );
        assert_eq!(pts.len(), p.mem_threads.len());
        assert!(pts.iter().all(|pt| pt.gbps_median > 0.0));
        // More threads must not reduce bandwidth below the single-thread one.
        assert!(pts.last().unwrap().gbps_median > pts[0].gbps_median);
    }

    #[test]
    fn cache_mode_read_below_flat_mcdram() {
        // Table II: cache-mode read (87–128) ≪ flat MCDRAM read (243–314),
        // because random buffers may miss the memory-side cache.
        let p = quick();
        let mut flat = machine(MemoryMode::Flat);
        let mc = bandwidth_sample(
            &mut flat,
            StreamKind::Read,
            Target::Mcdram,
            32,
            Schedule::FillTiles,
            &p,
        )
        .median();
        let mut cm = machine(MemoryMode::Cache);
        let c = bandwidth_sample(
            &mut cm,
            StreamKind::Read,
            Target::CacheMode,
            32,
            Schedule::FillTiles,
            &p,
        )
        .median();
        assert!(c < mc, "cache-mode {c} must trail flat MCDRAM {mc}");
    }
}
