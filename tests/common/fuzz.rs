//! The coherence fuzz driver: one random multi-threaded read / write /
//! NT-store / evict program per `(config, seed)`, run under the runtime
//! checker. `tests/coherence_fuzz.rs` runs it over the fifteen
//! configurations and the protocol matrix; the facade crate builds it
//! under `cfg(test)` too, so its determinism test runs with the unit
//! tests. Paths name the stack as `crate::{arch, sim}`, which both hosts
//! provide.

use crate::arch::{MachineConfig, NumaKind, Schedule, SplitMixRng};
use crate::sim::runner::run_programs;
use crate::sim::{CheckLevel, Counters, Machine, ObserverConfig, Op, Program};

/// Shared line pool size. Small on purpose: a handful of hot lines makes
/// threads collide on the same directory entries constantly, which is
/// where protocol bugs live.
const POOL_LINES: u64 = 12;

/// Generate and run one random program on `cfg` at `check`, returning the
/// machine's final hardware counters.
///
/// Deterministic in `(cfg, seed)`: thread `t` draws from
/// `SplitMixRng::for_job(seed, t)`, so the generated program — and with
/// jitter disabled, the entire simulation — is reproducible bit-for-bit.
/// At [`CheckLevel::FullOracle`] the checker's final reconciliation
/// (counter deltas + flat-vs-visible memory image) runs before returning.
pub fn fuzz_case(cfg: &MachineConfig, seed: u64, check: CheckLevel) -> Counters {
    let mut m = Machine::with_observer_config(cfg.clone(), ObserverConfig::default().check(check));
    m.set_jitter(0);

    // A small pool of hot lines, DDR plus (when addressable) flat MCDRAM
    // so cross-device coherence is exercised too.
    let mut arena = m.arena();
    let mut pool: Vec<u64> = Vec::new();
    let ddr_base = arena.alloc(NumaKind::Ddr, POOL_LINES * 64);
    pool.extend((0..POOL_LINES).map(|k| ddr_base + k * 64));
    if cfg.memory.has_flat_mcdram() {
        let mc_base = arena.alloc(NumaKind::Mcdram, POOL_LINES * 64);
        pool.extend((0..POOL_LINES).map(|k| mc_base + k * 64));
    }

    let mut setup = SplitMixRng::for_job(seed, u64::MAX);
    let num_threads = setup.range_usize(2, 7);
    let num_cores = cfg.active_tiles * 2;

    let programs: Vec<Program> = (0..num_threads)
        .map(|t| {
            let mut rng = SplitMixRng::for_job(seed, t as u64);
            let hw = Schedule::Scatter.place(t, num_cores);
            let mut p = Program::new(hw);
            let ops = rng.range_usize(16, 49);
            for _ in 0..ops {
                let line = pool[rng.range_usize(0, pool.len())];
                match rng.range_u32(0, 10) {
                    0..=3 => p.push(Op::Read(line)),
                    4..=6 => p.push(Op::Write(line)),
                    7 => p.push(Op::NtStore(line)),
                    8 => p.push(Op::Evict(line)),
                    _ => p.push(Op::Compute(rng.range_u64(100, 2_000))),
                };
            }
            p
        })
        .collect();

    run_programs(&mut m, programs);
    m.finish_check();
    m.counters()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ClusterMode, MemoryMode};

    #[test]
    fn fuzz_case_is_deterministic() {
        let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
        let a = fuzz_case(&cfg, 0xC0FFEE, CheckLevel::FullOracle);
        let b = fuzz_case(&cfg, 0xC0FFEE, CheckLevel::FullOracle);
        assert_eq!(a, b);
    }
}
