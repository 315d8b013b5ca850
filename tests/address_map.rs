//! The address map, pinned by value.
//!
//! `crates/arch/tests/proptests.rs` and `tests/fifteen_configurations.rs`
//! check that homes and targets are in range and deterministic; the suite
//! goldens cover Quadrant only. This file pins *which* tile and device each
//! address resolves to: for every one of the paper's fifteen
//! configurations, for every NUMA node its first line, its last line and
//! 32 seeded lines in between, one row
//!
//! ```text
//! <label> <addr> home=<tile> target=<Ddr imc.chan | Mcdram edc> mcache_edc=<n|->
//! ```
//!
//! (`mcache_edc` only where the memory mode has a memory-side cache). The
//! mapping is a pure function of the address, so any byte of drift in
//! `tests/golden/address_map.txt` is a changed §II-C/D rule. Regenerate
//! after an *intentional* change with
//!
//! ```text
//! KNL_UPDATE_GOLDEN=1 cargo test --test address_map
//! ```
//!
//! and review the diff like source.

use knl::arch::{MachineConfig, MemTarget, SplitMixRng, LINE_SHIFT};
use std::fmt::Write as _;
use std::path::PathBuf;

const SAMPLES_PER_NODE: usize = 32;

fn rows() -> String {
    let mut out = String::new();
    for cfg in MachineConfig::all_fifteen() {
        let label = cfg.label();
        let map = cfg.address_map(&cfg.topology());
        for node in map.numa_nodes() {
            let first = node.range.start >> LINE_SHIFT;
            let last = (node.range.end >> LINE_SHIFT) - 1;
            let mut rng = SplitMixRng::for_job(0x0ADD_2E55, node.id as u64);
            let mut lines = vec![first, last];
            lines.extend((0..SAMPLES_PER_NODE).map(|_| rng.range_u64(first, last + 1)));
            for line in lines {
                let addr = line << LINE_SHIFT;
                let target = match map.mem_target(addr) {
                    MemTarget::Ddr { imc, chan } => format!("Ddr {imc}.{chan}"),
                    MemTarget::Mcdram { edc } => format!("Mcdram {edc}"),
                };
                let mcache_edc = if cfg.memory.has_mcdram_cache() {
                    map.mcdram_cache_edc(addr).to_string()
                } else {
                    "-".to_string()
                };
                writeln!(
                    out,
                    "{label} {addr:#x} home={} target={target} mcache_edc={mcache_edc}",
                    map.home_directory(addr).0,
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn address_map_matches_the_golden_file() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/address_map.txt");
    let rows = rows();
    if std::env::var_os("KNL_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rows).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `KNL_UPDATE_GOLDEN=1 cargo test --test address_map` to create it",
            path.display()
        )
    });
    for (n, (got, want)) in rows.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "address map drifted at line {}", n + 1);
    }
    assert_eq!(
        rows.lines().count(),
        golden.lines().count(),
        "row count drifted"
    );
}
