//! Deterministic coherence fuzzer: random multi-threaded read / write /
//! evict programs replayed under the invariant checker and differential
//! memory oracle (see `invariants`).
//!
//! Everything is driven by `SplitMixRng`, so a failing case is fully
//! identified by `(config, seed)` — re-run `fuzz_case` with the same pair
//! to reproduce a reported violation (see DESIGN.md "Correctness
//! checking").

use crate::engine::observe::ObserverConfig;
use crate::invariants::CheckLevel;
use crate::machine::{AccessKind, Machine};
use crate::modelcheck::{McOp, McOpKind};
use crate::mutation::Mutation;
use crate::ops::Op;
use crate::program::Program;
use crate::Counters;
use knl_arch::{CoreId, MachineConfig, NumaKind, Schedule, SplitMixRng};

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

    // Pre-validate liveness and structural rules before executing. The
    // generated op mixes are intentionally racy (threads hammer a shared
    // hot pool with no synchronization — that's where coherence bugs
    // live), so race findings are expected; but a deadlock, mark-pairing
    // or duplicate-pin finding would mean the generator is broken and the
    // run below would panic anyway.
    let report = crate::analyze::analyze(&programs, &[]);
    if let Some(f) = report.findings.iter().find(|f| {
        matches!(
            f.rule,
            crate::analyze::Rule::Deadlock
                | crate::analyze::Rule::MarkPairing
                | crate::analyze::Rule::DuplicatePin
        ) && f.severity == crate::analyze::Severity::Error
    }) {
        panic!("fuzz generator produced a malformed case (seed {seed}): {f}");
    }

    crate::runner::run_programs(&mut m, programs);
    m.finish_check();
    m.counters()
}

/// Replay a model-checker counterexample (see [`crate::modelcheck`]) on a
/// full [`Machine`] under the runtime checker — the bridge that proves the
/// static and dynamic layers agree: a trace `knl mc` reports against a
/// mutant must make the [`crate::invariants::CoherenceChecker`] panic here
/// with the same `mutation` injected, and must replay clean with `None`.
///
/// Model tile `t` maps to core `2t` (the first core of tile `t`), model
/// line `j` to the `j`-th line of a DDR arena block; ops run sequentially,
/// spaced 1 µs apart so every access starts quiescent. The checker's
/// end-of-run reconciliation (`finish_check`) runs before returning, since
/// some defects (a skipped write-back) only reconcile there.
pub fn replay_trace(
    cfg: &MachineConfig,
    trace: &[McOp],
    check: CheckLevel,
    mutation: Option<Mutation>,
) -> Counters {
    let mut m = Machine::with_observer_config(cfg.clone(), ObserverConfig::default().check(check));
    m.set_jitter(0);
    m.debug_mutation(mutation);
    let base = {
        let mut arena = m.arena();
        arena.alloc(NumaKind::Ddr, POOL_LINES * 64)
    };
    for (i, op) in trace.iter().enumerate() {
        let addr = base + u64::from(op.line) * 64;
        let core = CoreId(op.tile * 2);
        let now = i as u64 * 1_000_000;
        match op.kind {
            McOpKind::Read => {
                m.access(core, addr, AccessKind::Read, now);
            }
            McOpKind::Write => {
                m.access(core, addr, AccessKind::Write, now);
            }
            McOpKind::NtStore => {
                m.access(core, addr, AccessKind::NtStore, now);
            }
            McOpKind::Evict => {
                m.evict_line(core, addr, now);
            }
        }
    }
    m.finish_check();
    m.counters()
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::{ClusterMode, MemoryMode};

    fn cfg() -> MachineConfig {
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat)
    }

    #[test]
    fn fuzz_case_is_deterministic() {
        let a = fuzz_case(&cfg(), 0xC0FFEE, CheckLevel::FullOracle);
        let b = fuzz_case(&cfg(), 0xC0FFEE, CheckLevel::FullOracle);
        assert_eq!(a, b);
    }

    #[test]
    fn check_levels_agree_on_counters() {
        // The checker is a pure observer: counters must not depend on it.
        let off = fuzz_case(&cfg(), 7, CheckLevel::Off);
        let inv = fuzz_case(&cfg(), 7, CheckLevel::Invariants);
        let full = fuzz_case(&cfg(), 7, CheckLevel::FullOracle);
        assert_eq!(off, inv);
        assert_eq!(off, full);
    }

    #[test]
    fn fuzz_clean_in_cache_mode() {
        let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Cache);
        for seed in 0..3 {
            fuzz_case(&cfg, seed, CheckLevel::FullOracle);
        }
    }
}
