//! Golden snapshots of the calibration output feeding Table I / Table II:
//! the full suite on two pinned configurations, serialized through
//! `knl_stats::json` (via `encode_suite`), compared bit-exactly against
//! `tests/golden/*.json`.
//!
//! The simulator is deterministic end to end, so any byte of drift means
//! the model's numbers moved. When a change is *intentional* (a timing
//! recalibration, a new suite field), regenerate the snapshots with
//!
//! ```text
//! KNL_UPDATE_GOLDEN=1 cargo test --test golden_snapshots
//! ```
//!
//! and review the JSON diff like source: every changed number is a
//! changed claim about the modeled KNL.

#[path = "common/golden.rs"]
mod golden;

use golden::assert_golden;
use knl::arch::{ClusterMode, MachineConfig, MemoryMode};
use knl::benchsuite::{decode_suite, encode_suite, run_full_suite, SuiteParams};

/// Tiny but full-coverage sweep parameters: every suite section runs, in
/// seconds, and the output shape matches the real calibration runs.
fn golden_params() -> SuiteParams {
    let mut p = SuiteParams::quick();
    p.iters = 3;
    p.c2c_sizes = vec![64, 512];
    p.contention_n = vec![1, 4];
    p.congestion_pairs = vec![1, 2];
    p.mem_threads = vec![1, 4];
    p.mem_lines_per_thread = 128;
    p.memlat_lines = 2 << 10;
    p
}

fn check_golden(cfg: MachineConfig, name: &str) {
    let results = run_full_suite(&cfg, &golden_params());
    let encoded = encode_suite(&results);

    // The encoding itself must round-trip losslessly before it can serve
    // as a snapshot format.
    let decoded = decode_suite(&encoded).expect("snapshot JSON parses back");
    assert_eq!(
        encode_suite(&decoded),
        encoded,
        "{name}: encode/decode round-trip drifts"
    );

    assert_golden(&format!("{name}.json"), &encoded);
}

#[test]
fn golden_quadrant_flat_suite() {
    check_golden(
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat),
        "suite_quadrant_flat",
    );
}

#[test]
fn golden_quadrant_cache_suite() {
    check_golden(
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Cache),
        "suite_quadrant_cache",
    );
}

// Per-protocol goldens: the same pinned Quadrant-flat sweep under each
// non-default coherence back end. The MESIF snapshots above are the
// bit-identity anchor (they must never move when a protocol is added);
// these pin each alternative protocol's capability numbers the same way.

#[test]
fn golden_quadrant_flat_mesi_suite() {
    check_golden(
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat)
            .with_protocol(knl::arch::ProtocolKind::Mesi),
        "suite_quadrant_flat_mesi",
    );
}

#[test]
fn golden_quadrant_flat_moesi_suite() {
    check_golden(
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat)
            .with_protocol(knl::arch::ProtocolKind::Moesi),
        "suite_quadrant_flat_moesi",
    );
}

#[test]
fn golden_quadrant_flat_dragon_suite() {
    check_golden(
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat)
            .with_protocol(knl::arch::ProtocolKind::Dragon),
        "suite_quadrant_flat_dragon",
    );
}
