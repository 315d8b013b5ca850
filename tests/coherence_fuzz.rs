//! Deterministic coherence fuzzing across the paper's fifteen
//! configurations: random multi-threaded read/write/NT-store/evict
//! programs run under the full differential oracle (`--check full`
//! semantics).
//!
//! Everything is driven by `SplitMixRng`, so a failing case is fully
//! identified by `(config, seed)`. Seed budget: `KNL_FUZZ_CASES` seeds per
//! configuration (default 2 so tier-1 stays fast; CI's fuzz-smoke step
//! raises it). A failure report names the offending line and dumps its
//! recent protocol events; rerun with
//! `fuzz_case(&cfg, seed, CheckLevel::FullOracle)` at the printed seed to
//! reproduce (see DESIGN.md "Correctness checking").

use knl::arch::{CoreId, MachineConfig, ProtocolKind};
use knl::sim::mutation::Mutation;
use knl::sim::{AccessKind, CheckLevel, Machine, ObserverConfig};
// The driver names the stack `crate::{arch, sim}`, as inside the facade.
use knl::{arch, sim};

#[path = "common/fuzz.rs"]
mod fuzz;
use fuzz::fuzz_case;

fn fuzz_cases() -> u64 {
    std::env::var("KNL_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

#[test]
fn fuzz_clean_across_all_fifteen_configurations() {
    let cases = fuzz_cases();
    for cfg in MachineConfig::all_fifteen() {
        for seed in 0..cases {
            fuzz_case(&cfg, seed, CheckLevel::FullOracle);
        }
    }
}

#[test]
fn fuzz_counters_identical_at_every_check_level() {
    // The checker observes; it must never steer. Counters from the same
    // seed agree across off / invariants / full.
    let cfg = MachineConfig::all_fifteen().remove(0);
    for seed in 40..40 + fuzz_cases() {
        let off = fuzz_case(&cfg, seed, CheckLevel::Off);
        let inv = fuzz_case(&cfg, seed, CheckLevel::Invariants);
        let full = fuzz_case(&cfg, seed, CheckLevel::FullOracle);
        assert_eq!(off, inv, "seed {seed}");
        assert_eq!(off, full, "seed {seed}");
    }
}

#[test]
fn fuzz_clean_across_protocol_matrix() {
    // Protocol × cluster-mode × memory-mode under the full differential
    // oracle: every back end must survive the same racy op streams the
    // MESIF engine is fuzzed with. (MESIF itself is covered across all
    // fifteen configurations by the test above.)
    let cases = fuzz_cases();
    for proto in [
        ProtocolKind::Mesi,
        ProtocolKind::Moesi,
        ProtocolKind::Dragon,
    ] {
        for cfg in MachineConfig::all_fifteen() {
            for seed in 0..cases {
                fuzz_case(
                    &cfg.clone().with_protocol(proto),
                    seed,
                    CheckLevel::FullOracle,
                );
            }
        }
    }
}

#[test]
fn fuzz_protocols_diverge_in_coherence_traffic() {
    // Same seed, same op streams: Dragon must answer remote stores with
    // update rounds where the invalidation-based protocols invalidate.
    let cfg = MachineConfig::all_fifteen().remove(0);
    let mesif = fuzz_case(&cfg, 7, CheckLevel::FullOracle);
    let dragon = fuzz_case(
        &cfg.clone().with_protocol(ProtocolKind::Dragon),
        7,
        CheckLevel::FullOracle,
    );
    assert!(
        mesif.invalidations > 0,
        "racy pool must invalidate: {mesif}"
    );
    assert_eq!(mesif.updates, 0, "MESIF never updates: {mesif}");
    assert_eq!(
        dragon.invalidations, 0,
        "Dragon never invalidates: {dragon}"
    );
    assert!(dragon.updates > 0, "Dragon must send updates: {dragon}");
}

/// The acceptance-criterion bug: a directory write that "forgets" to
/// invalidate one stale holder. The invariant checker must flag the
/// surviving sharer the moment the write transition is observed — under
/// *each* invalidation-based protocol.
fn skipped_invalidation(proto: ProtocolKind) {
    let cfg = MachineConfig::all_fifteen().remove(0).with_protocol(proto);
    let mut m =
        Machine::with_observer_config(cfg, ObserverConfig::default().check(CheckLevel::Invariants));
    m.set_jitter(0);
    let t = m.access(CoreId(0), 4096, AccessKind::Read, 0).complete;
    let t = m.access(CoreId(4), 4096, AccessKind::Read, t).complete;
    m.debug_mutation(Some(Mutation::WriteKeepsStaleSharer));
    m.access(CoreId(8), 4096, AccessKind::Write, t);
}

#[test]
#[should_panic(expected = "coherence violation")]
fn injected_skipped_invalidation_is_caught() {
    skipped_invalidation(ProtocolKind::Mesif);
}

#[test]
#[should_panic(expected = "coherence violation")]
fn injected_skipped_invalidation_is_caught_under_mesi() {
    skipped_invalidation(ProtocolKind::Mesi);
}

#[test]
#[should_panic(expected = "coherence violation")]
fn injected_skipped_invalidation_is_caught_under_moesi() {
    skipped_invalidation(ProtocolKind::Moesi);
}

#[test]
fn skip_invalidation_flag_is_inert_under_dragon() {
    // Dragon has no invalidation walk to skip: the debug knob must be a
    // no-op and the run must stay oracle-clean.
    let cfg = MachineConfig::all_fifteen()
        .remove(0)
        .with_protocol(ProtocolKind::Dragon);
    let mut m =
        Machine::with_observer_config(cfg, ObserverConfig::default().check(CheckLevel::FullOracle));
    m.set_jitter(0);
    let t = m.access(CoreId(0), 4096, AccessKind::Read, 0).complete;
    let t = m.access(CoreId(4), 4096, AccessKind::Read, t).complete;
    m.debug_mutation(Some(Mutation::WriteKeepsStaleSharer));
    let t = m.access(CoreId(8), 4096, AccessKind::Write, t).complete;
    let _ = m.access(CoreId(0), 4096, AccessKind::Read, t);
    m.finish_check();
}
