//! Property tests on the architecture layer: address maps, schedules, and
//! topology invariants across random configurations.
//!
//! Randomized but deterministic: cases are drawn from [`SplitMixRng`] with
//! fixed seeds (the workspace builds offline with no external crates, so
//! these are hand-rolled property loops rather than `proptest` macros).

use knl_arch::topology::{NUM_EDCS, TILE_SLOTS};
use knl_arch::{
    ClusterMode, HybridSplit, MachineConfig, MemoryMode, NumaKind, Reducer, Schedule, SplitMixRng,
    TileId, Topology,
};

const CASES: u64 = 64;

fn arb_cluster(rng: &mut SplitMixRng) -> ClusterMode {
    ClusterMode::ALL[rng.range_usize(0, ClusterMode::ALL.len())]
}

fn arb_memory(rng: &mut SplitMixRng) -> MemoryMode {
    [
        MemoryMode::Flat,
        MemoryMode::Cache,
        MemoryMode::Hybrid(HybridSplit::Quarter),
        MemoryMode::Hybrid(HybridSplit::Half),
    ][rng.range_usize(0, 4)]
}

/// Every address in range resolves deterministically to a device and a
/// home directory within the active tiles, in every mode combination.
#[test]
fn address_map_total_and_deterministic() {
    let mut rng = SplitMixRng::seed_from_u64(0xA001);
    for _ in 0..CASES {
        let cm = arb_cluster(&mut rng);
        let mm = arb_memory(&mut rng);
        let cfg = MachineConfig::knl7210(cm, mm);
        let topo = cfg.topology();
        let map = cfg.address_map(&topo);
        let span = map.addressable_bytes();
        for _ in 0..16 {
            let off = rng.next_f64();
            let addr = ((span as f64 * off) as u64).min(span - 64) & !63;
            let t1 = map.mem_target(addr);
            let t2 = map.mem_target(addr);
            assert_eq!(t1, t2, "{cm:?}/{mm:?} addr {addr:#x}");
            let h1 = map.home_directory(addr);
            let h2 = map.home_directory(addr);
            assert_eq!(h1, h2);
            assert!((h1.0 as usize) < cfg.active_tiles);
        }
    }
}

/// SNC cluster-locality: lines in a cluster's range are homed in that
/// cluster's tiles.
#[test]
fn snc4_homes_stay_in_cluster() {
    let mut rng = SplitMixRng::seed_from_u64(0xA002);
    let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
    let topo = cfg.topology();
    let map = cfg.address_map(&topo);
    for _ in 0..CASES {
        let cluster = rng.range_u32(0, 4) as u8;
        let frac = rng.next_f64();
        let r = map.region(NumaKind::Mcdram, cluster).unwrap();
        let addr = (r.start + ((r.end - r.start - 64) as f64 * frac) as u64) & !63;
        let home = map.home_directory(addr);
        assert_eq!(
            topo.tile_cluster(home, ClusterMode::Snc4),
            cluster,
            "MCDRAM line {addr:#x} homed outside its cluster"
        );
    }
}

/// Schedules are injective over hardware threads for any thread count
/// that fits the machine.
#[test]
fn schedules_injective() {
    let mut rng = SplitMixRng::seed_from_u64(0xA003);
    for _ in 0..CASES {
        let n = rng.range_usize(1, 257);
        for sched in Schedule::ALL {
            let mut seen = std::collections::HashSet::new();
            for i in 0..n {
                assert!(
                    seen.insert(sched.place(i, 64)),
                    "{sched} reuses a hw thread (n={n})"
                );
            }
        }
    }
}

/// Any active-tile count up to 38 yields a consistent topology: quadrants
/// partition the tiles. (Hop distances are the simulator mesh's table,
/// held to a metric by `crates/sim/tests/proptests.rs`.)
#[test]
fn topology_consistent() {
    let mut rng = SplitMixRng::seed_from_u64(0xA004);
    for _ in 0..CASES {
        let tiles = rng.range_usize(4, 39);
        let seed = rng.range_u64(0, 500);
        let topo = Topology::new(tiles, seed);
        assert_eq!(topo.num_tiles(), tiles);
        let mut per_quadrant = [0usize; 4];
        for t in 0..tiles as u16 {
            per_quadrant[topo.tile_quadrant(TileId(t)).0 as usize] += 1;
        }
        assert_eq!(per_quadrant.iter().sum::<usize>(), tiles);
    }
}

/// DDR channel interleave is near-uniform in the transparent modes.
#[test]
fn ddr_interleave_uniform() {
    for cm in [ClusterMode::A2A, ClusterMode::Quadrant] {
        let cfg = MachineConfig::knl7210(cm, MemoryMode::Flat);
        let topo = cfg.topology();
        let map = cfg.address_map(&topo);
        let mut counts = [0usize; 6];
        let n = 24_000u64;
        for i in 0..n {
            if let knl_arch::MemTarget::Ddr { imc, chan } = map.mem_target(i * 64) {
                counts[imc as usize * 3 + chan as usize] += 1;
            }
        }
        for (ch, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!(
                (frac - 1.0 / 6.0).abs() < 0.03,
                "{cm:?} channel {ch}: {frac}"
            );
        }
    }
}

/// Address decode round-trip: every random line address resolves to a
/// NUMA node whose range contains it, the backing device agrees with the
/// node's kind, and the flat device index stays in bounds.
#[test]
fn address_decode_roundtrips_to_containing_node() {
    use knl_arch::address::NUM_MEM_DEVICES;
    use knl_arch::MemTarget;
    let mut rng = SplitMixRng::seed_from_u64(0xA005);
    for _ in 0..CASES {
        let cm = arb_cluster(&mut rng);
        let mm = arb_memory(&mut rng);
        let cfg = MachineConfig::knl7210(cm, mm);
        let topo = cfg.topology();
        let map = cfg.address_map(&topo);
        let span = map.addressable_bytes();
        for _ in 0..16 {
            let addr = rng.range_u64(0, span - 64) & !63;
            let node = map
                .node_of(addr)
                .unwrap_or_else(|| panic!("{cm:?}/{mm:?}: {addr:#x} in no node"));
            assert!(node.range.contains(&addr), "{cm:?}/{mm:?}: range mismatch");
            let target = map.mem_target(addr);
            assert!(target.device_index() < NUM_MEM_DEVICES);
            match target {
                MemTarget::Ddr { .. } => assert_eq!(node.kind, NumaKind::Ddr),
                MemTarget::Mcdram { .. } => assert_eq!(node.kind, NumaKind::Mcdram),
            }
        }
    }
}

/// Every [`Reducer`] the simulator builds agrees with `%`: at each divisor
/// a per-cluster tile list (1..=38), an EDC list (1..=8) or a jitter span
/// (`2·pct + 1` for pct 0..=50) can have, on random numerators and on the
/// edges — 0, d − 1, d, k·d ± 1 and the largest value each call site
/// passes (2⁵⁶ − 1 after the home hash's `>> 8`, `u64::MAX` for a full
/// hash).
#[test]
fn reducers_agree_with_the_remainder_operator() {
    const FULL: u64 = u64::MAX;
    const SHIFTED: u64 = (1 << 56) - 1;
    let mut rng = SplitMixRng::seed_from_u64(0xA007);
    let tiles = 1..=TILE_SLOTS as u64;
    let edcs = 1..=NUM_EDCS as u64;
    let spans = (0..=50u64).map(|pct| 2 * pct + 1);
    for d in tiles.chain(edcs).chain(spans) {
        let r = Reducer::new(d);
        let mut edges = vec![0, d - 1, d, FULL, FULL - 1, SHIFTED, SHIFTED - 1];
        // The largest multiples of d in range, and their neighbours.
        for top in [FULL, SHIFTED] {
            let k = top / d;
            edges.extend([k * d - 1, k * d, (k - 1) * d + 1, (k / 2) * d + 1]);
        }
        for n in edges.into_iter().chain((0..4096).map(|_| rng.next_u64())) {
            assert_eq!(r.remainder(n), n % d, "{n} mod {d}");
            assert_eq!(r.remainder(n >> 8), (n >> 8) % d, "{n} >> 8 mod {d}");
        }
    }
}

/// Interleaving is line-granular: every byte of one 64-B line maps to the
/// same device and home directory, so a line never straddles devices.
#[test]
fn interleaving_is_line_granular() {
    let mut rng = SplitMixRng::seed_from_u64(0xA006);
    for _ in 0..CASES {
        let cm = arb_cluster(&mut rng);
        let mm = arb_memory(&mut rng);
        let cfg = MachineConfig::knl7210(cm, mm);
        let topo = cfg.topology();
        let map = cfg.address_map(&topo);
        let span = map.addressable_bytes();
        let line = rng.range_u64(0, span / 64) * 64;
        let t0 = map.mem_target(line);
        let h0 = map.home_directory(line);
        for off in [1u64, 17, 31, 63] {
            assert_eq!(
                map.mem_target(line + off),
                t0,
                "{cm:?}/{mm:?} {line:#x}+{off}"
            );
            assert_eq!(map.home_directory(line + off), h0);
        }
    }
}
