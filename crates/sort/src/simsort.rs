//! Simulated memory traffic of the parallel merge sort (regenerates the
//! "Measured" series of Fig. 10 on the KNL simulator).
//!
//! The sort's traffic per merge pass producing `L` lines is `L` line reads
//! plus `L` line writes plus the bitonic-network compute. Passes whose
//! working set fits on-die caches cost L2-rate traffic; memory-bound passes
//! go through the coherent cached path ([`knl_sim::Op::CopyBuf`]) when small
//! and stream ([`knl_sim::Op::Stream`]) when large. Inter-stage
//! synchronization uses coherent flag lines exactly like the real
//! implementation's hand-offs.

use knl_arch::{NumaKind, Schedule};
use knl_sim::{Machine, Op, Program, Runner, StreamKind};

/// Bitonic-network compute per produced line (16 lanes), ps.
const COMPUTE_PS_PER_LINE: u64 = 6_000;
/// Merge passes whose *run width* fits within this many lines are cache-
/// resident (the tile L2 holds input+output ping-pong halves); they cost
/// L2-rate traffic instead of memory streams — exactly the structure
/// Eqs. 3–5 model ("when all elements fit in L1, we only fetch data from
/// memory in the first stage").
const CACHED_WIDTH_LINES: u64 = 2 << 10; // 128 KB
/// Chunks small enough to simulate through the real coherent cached path.
const COHERENT_PATH_LINES: u64 = 4 << 10; // 256 KB
/// Per-line cost of a cache-resident merge pass (L2 S/F read + buffered
/// write at the tile port rate), excluding the network compute.
const CACHED_PASS_PS_PER_LINE: u64 = 14_000;

/// Configuration of one simulated sort run.
#[derive(Debug, Clone)]
pub struct SimSortSpec {
    /// Bytes of u32 keys to sort.
    pub bytes: u64,
    /// Worker threads (power of two).
    pub threads: usize,
    /// Thread placement.
    pub schedule: Schedule,
    /// Where the ping-pong buffers live.
    pub memory: NumaKind,
}

/// The programs [`run_simsort`] executes (exposed so the static analyzer
/// can pre-validate the workload). The machine is only consulted for its
/// configuration; allocation uses a fresh [`knl_sim::Arena`], so building
/// twice yields the same addresses and running them is identical to
/// calling `run_simsort`.
pub fn simsort_programs(m: &Machine, spec: &SimSortSpec) -> Vec<Program> {
    assert!(
        spec.threads.is_power_of_two(),
        "threads must be a power of two"
    );
    let num_cores = m.config().num_cores();
    let total_lines = (spec.bytes / 64).max(1);
    let p = spec.threads;
    let chunk_lines = (total_lines / p as u64).max(1);

    let mut arena = m.arena();
    // Ping-pong buffers + a flag line per thread.
    let buf_a = arena.alloc(spec.memory, total_lines * 64);
    let buf_b = arena.alloc(spec.memory, total_lines * 64);
    let flags: Vec<u64> = (0..p).map(|_| arena.alloc(spec.memory, 4096)).collect();

    // Passes inside a thread's chunk: elements per chunk / 16 per block.
    let elems_per_chunk = chunk_lines * 16;
    let chunk_passes = (elems_per_chunk as f64 / 16.0).log2().ceil().max(0.0) as u32;
    let stages = (p as f64).log2() as u32;

    let programs: Vec<Program> = (0..p)
        .map(|rank| {
            let mut prog = Program::new(spec.schedule.place(rank, num_cores));
            prog.push(Op::MarkStart(0));
            let my_off = rank as u64 * chunk_lines * 64;
            // Phase A: chunk sort = `chunk_passes` read+write passes. Pass
            // `p` merges runs of width 16·2^p elements = 2^p/4 lines; the
            // first pass touches memory (first fetch), later passes stay
            // cache-resident until the run width outgrows the tile L2.
            for pass in 0..chunk_passes {
                let width_lines = (1u64 << pass).div_ceil(4).min(chunk_lines);
                let (src, dst) = if pass.is_multiple_of(2) {
                    (buf_a, buf_b)
                } else {
                    (buf_b, buf_a)
                };
                push_phase_a_pass(
                    &mut prog,
                    src + my_off,
                    dst + my_off,
                    chunk_lines,
                    width_lines,
                    pass == 0,
                );
            }
            // Phase B: active while rank % 2^j == 0.
            for j in 1..=stages {
                if rank % (1usize << j) != 0 {
                    break;
                }
                let partner = rank + (1usize << (j - 1));
                // Wait for the partner's sub-run (it signals when inactive).
                prog.push(Op::WaitFlag {
                    addr: flags[partner],
                    val: 1,
                });
                let out_lines = chunk_lines << j;
                let pass_idx = chunk_passes + j;
                let (src, dst) = if pass_idx.is_multiple_of(2) {
                    (buf_a, buf_b)
                } else {
                    (buf_b, buf_a)
                };
                push_memory_pass(&mut prog, src + my_off, dst + my_off, out_lines);
            }
            // Signal completion of all my active work.
            prog.push(Op::SetFlag {
                addr: flags[rank],
                val: 1,
            });
            prog.push(Op::MarkEnd(0));
            prog
        })
        .collect();
    programs
}

/// Simulate one full sort; returns seconds of simulated time.
pub fn run_simsort(m: &mut Machine, spec: &SimSortSpec) -> f64 {
    let programs = simsort_programs(m, spec);
    let result = Runner::new(m, programs).run();
    result.duration_ps(0, 0).expect("root interval") as f64 * 1e-12
}

/// One phase-A merge pass over a thread's whole chunk: memory traffic only
/// when the run width exceeds the cache-resident threshold (or on the
/// first-touch pass).
fn push_phase_a_pass(
    prog: &mut Program,
    src: u64,
    dst: u64,
    chunk_lines: u64,
    width_lines: u64,
    first_touch: bool,
) {
    if first_touch || width_lines > CACHED_WIDTH_LINES {
        push_memory_pass(prog, src, dst, chunk_lines);
    } else {
        // Cache-resident pass: L2-rate traffic + network compute.
        prog.push(Op::Compute(
            chunk_lines * (CACHED_PASS_PS_PER_LINE + COMPUTE_PS_PER_LINE),
        ));
    }
}

/// One merge pass that genuinely moves `lines` through memory: read + write
/// (+ network compute). Small spans use the real coherent path so L1/L2
/// behaviour is simulated, large spans stream.
fn push_memory_pass(prog: &mut Program, src: u64, dst: u64, lines: u64) {
    if lines <= COHERENT_PATH_LINES {
        prog.push(Op::CopyBuf {
            src,
            dst,
            bytes: lines * 64,
            vectorized: true,
        });
    } else {
        prog.push(Op::Stream {
            kind: StreamKind::Copy,
            a: dst,
            b: src,
            c: 0,
            lines,
            vectorized: true,
        });
    }
    prog.push(Op::Compute(lines * COMPUTE_PS_PER_LINE));
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::{ClusterMode, MachineConfig, MemoryMode};

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat));
        m.set_jitter(0);
        m
    }

    fn spec(bytes: u64, threads: usize, memory: NumaKind) -> SimSortSpec {
        SimSortSpec {
            bytes,
            threads,
            schedule: Schedule::FillTiles,
            memory,
        }
    }

    #[test]
    fn bigger_inputs_cost_more() {
        let mut m = machine();
        let t1 = run_simsort(&mut m, &spec(1 << 16, 4, NumaKind::Ddr));
        m.reset_caches();
        m.reset_devices();
        let t2 = run_simsort(&mut m, &spec(1 << 20, 4, NumaKind::Ddr));
        assert!(t2 > 4.0 * t1, "64 KB {t1} vs 1 MB {t2}");
    }

    #[test]
    fn threads_help_at_scale() {
        let mut m = machine();
        let t1 = run_simsort(&mut m, &spec(16 << 20, 1, NumaKind::Ddr));
        m.reset_caches();
        m.reset_devices();
        let t8 = run_simsort(&mut m, &spec(16 << 20, 8, NumaKind::Ddr));
        assert!(t8 < t1, "8 threads {t8} vs 1 thread {t1}");
    }

    #[test]
    fn mcdram_gains_are_marginal() {
        // The paper's headline result: MCDRAM ≈ DRAM for this sort.
        let mut m = machine();
        let d = run_simsort(&mut m, &spec(32 << 20, 16, NumaKind::Ddr));
        m.reset_caches();
        m.reset_devices();
        let c = run_simsort(&mut m, &spec(32 << 20, 16, NumaKind::Mcdram));
        let speedup = d / c;
        assert!(
            (0.75..1.6).contains(&speedup),
            "MCDRAM speedup should be marginal, got {speedup} (DRAM {d}s, MCDRAM {c}s)"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_threads_rejected() {
        let mut m = machine();
        run_simsort(&mut m, &spec(1 << 16, 3, NumaKind::Ddr));
    }
}
