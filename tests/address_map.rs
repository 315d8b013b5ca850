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
//!
//! A stream kernel resolves its lines a run at a time
//! (`AddressMap::resolve_run`, `AddressMap::backing_run`);
//! `runs_equal_their_lines` holds every run length a stream asks for, at
//! every node boundary and at seeded places inside the nodes, to the
//! per-line `resolve` and `backing`.

#[path = "common/golden.rs"]
mod golden;

use golden::assert_golden;
use knl::arch::{Backing, MachineConfig, MemTarget, SplitMixRng, TileId, LINE_SHIFT};
use std::fmt::Write as _;

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
    assert_golden("address_map.txt", &rows());
}

#[test]
fn runs_equal_their_lines() {
    const RUN: u64 = 16;
    let placeholder = Backing {
        target: MemTarget::Mcdram { edc: 0 },
        mcache_edc: None,
    };
    for cfg in MachineConfig::all_fifteen() {
        let label = cfg.label();
        let map = cfg.address_map(&cfg.topology());
        let end = map.addressable_bytes() >> LINE_SHIFT;
        let mut starts = Vec::new();
        for node in map.numa_nodes() {
            let (first, last) = (node.range.start >> LINE_SHIFT, node.range.end >> LINE_SHIFT);
            // Every offset of a run across the node's end, and seeded runs.
            starts.extend((last.saturating_sub(RUN)..last).filter(|&l| l >= first));
            let mut rng = SplitMixRng::for_job(0x2055_0E2D, node.id as u64);
            starts.extend((0..8).map(|_| rng.range_u64(first, last)));
        }
        for start in starts {
            for len in 0..=RUN.min(end - start) {
                let addr = start << LINE_SHIFT;
                let lines: Vec<u64> = (start..start + len).map(|l| l << LINE_SHIFT).collect();
                let mut routes = vec![(TileId(0), placeholder); len as usize];
                map.resolve_run(addr, &mut routes);
                let each: Vec<_> = lines.iter().map(|&a| map.resolve(a)).collect();
                assert_eq!(routes, each, "{label} resolve_run({addr:#x}, {len})");
                let mut backings = vec![placeholder; len as usize];
                map.backing_run(addr, &mut backings);
                let each: Vec<_> = lines.iter().map(|&a| map.backing(a)).collect();
                assert_eq!(backings, each, "{label} backing_run({addr:#x}, {len})");
            }
        }
    }
}
