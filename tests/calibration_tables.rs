//! Calibration tests: the benchmark suite, run on the simulator, must land
//! in bands around the paper's Table I and Table II numbers. These are the
//! contract that "the capability pipeline reproduces the paper's machine".
//!
//! Bands are deliberately generous (±~25% unless the paper itself is
//! tighter): the goal is shape, not decimal matching.

use knl::arch::{ClusterMode, MachineConfig, MemoryMode};
use knl::benchsuite::congestion::NO_CONGESTION_BELOW;
use knl::benchsuite::{contention, run_cache_suite, run_memory_suite, SuiteParams};
use knl::sim::{Machine, StreamKind};

fn params() -> SuiteParams {
    let mut p = SuiteParams::quick();
    p.iters = 7;
    p.mem_lines_per_thread = 1024;
    p.mem_threads = vec![1, 8, 32, 64];
    p.memlat_lines = 16 << 10;
    p
}

fn in_band(x: f64, lo: f64, hi: f64, what: &str) {
    assert!((lo..=hi).contains(&x), "{what}: {x} outside [{lo}, {hi}]");
}

#[test]
fn table1_quadrant_bands() {
    let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
    let mut m = Machine::new(cfg);
    let c = run_cache_suite(&mut m, &params());

    // Latency rows (paper: 3.8 / 34 / 18 / 14 / 119 / 116 / 107–117).
    in_band(c.local_ns().unwrap(), 3.2, 4.4, "L1");
    let tile = |s: char| c.tile_ns(s).unwrap();
    in_band(tile('M'), 27.0, 41.0, "tile M");
    in_band(tile('E'), 14.5, 22.0, "tile E");
    in_band(tile('S'), 11.0, 17.0, "tile S");
    let remote = |s: char| c.remote_ns(s).unwrap();
    in_band(remote('M'), 95.0, 145.0, "remote M");
    in_band(remote('S'), 85.0, 130.0, "remote S");
    assert!(remote('M') > remote('S'), "M slower than S/F");

    // Bandwidth rows (paper: read 2.5, copy tile E 9.2, copy remote 7.5).
    in_band(c.read_bw_gbps, 1.8, 3.3, "read BW");
    let copy = |loc: &str, s: char| c.copy_bw(loc, s).unwrap();
    in_band(copy("tile", 'E'), 7.0, 11.5, "copy tile E");
    in_band(copy("tile", 'M'), 5.5, 9.5, "copy tile M");
    in_band(copy("remote", 'M'), 5.5, 10.0, "copy remote");
    assert!(copy("tile", 'E') > copy("tile", 'M'), "E copy beats M copy");

    // Contention law (paper: 200 + 34·N).
    let fit = contention::fit(&c.contention);
    in_band(fit.beta, 26.0, 43.0, "contention β");
    in_band(fit.alpha, 140.0, 280.0, "contention α");
    assert!(fit.r2 > 0.95, "contention linearity r²={}", fit.r2);

    // Congestion: none (paper Table I).
    assert!(
        c.congestion_ratio() < NO_CONGESTION_BELOW,
        "congestion must be flat: {:?}",
        c.congestion
    );
}

#[test]
fn table2_flat_quadrant_bands() {
    let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
    let mut m = Machine::new(cfg);
    let r = run_memory_suite(&mut m, &params());

    // Latency (paper: DRAM 140, MCDRAM 167).
    in_band(r.latency("DRAM").unwrap(), 120.0, 165.0, "DRAM latency");
    in_band(r.latency("MCDRAM").unwrap(), 145.0, 200.0, "MCDRAM latency");
    assert!(r.latency("MCDRAM").unwrap() > r.latency("DRAM").unwrap());

    // DDR bandwidth (paper: read 77, write 36, copy ~70, triad ~74).
    in_band(
        r.table_cell(StreamKind::Read, "DRAM").unwrap(),
        60.0,
        85.0,
        "DDR read",
    );
    in_band(
        r.table_cell(StreamKind::Write, "DRAM").unwrap(),
        27.0,
        45.0,
        "DDR write",
    );
    in_band(
        r.table_cell(StreamKind::Copy, "DRAM").unwrap(),
        48.0,
        80.0,
        "DDR copy",
    );
    in_band(
        r.table_cell(StreamKind::Triad, "DRAM").unwrap(),
        52.0,
        85.0,
        "DDR triad",
    );

    // MCDRAM bandwidth at 64 threads (paper: read 314, write 171,
    // copy 333, triad 340; quick sweep reaches most of it).
    in_band(
        r.table_cell(StreamKind::Read, "MCDRAM").unwrap(),
        200.0,
        340.0,
        "MCDRAM read",
    );
    in_band(
        r.table_cell(StreamKind::Write, "MCDRAM").unwrap(),
        120.0,
        190.0,
        "MCDRAM write",
    );
    in_band(
        r.table_cell(StreamKind::Copy, "MCDRAM").unwrap(),
        230.0,
        380.0,
        "MCDRAM copy",
    );
    in_band(
        r.table_cell(StreamKind::Triad, "MCDRAM").unwrap(),
        230.0,
        490.0,
        "MCDRAM triad",
    );

    // Ratios that carry the paper's narrative.
    let mc = r.table_cell(StreamKind::Read, "MCDRAM").unwrap();
    let dd = r.table_cell(StreamKind::Read, "DRAM").unwrap();
    assert!(mc / dd > 3.0, "MCDRAM ~4-5x DDR, got {:.1}x", mc / dd);
}

#[test]
fn table2_cache_mode_bands() {
    let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Cache);
    let mut m = Machine::new(cfg);
    let r = run_memory_suite(&mut m, &params());

    // Cache-mode latency exceeds flat DRAM's (paper: 166-172 vs 140).
    in_band(
        r.latency("cache").unwrap(),
        150.0,
        230.0,
        "cache-mode latency",
    );

    // Cache-mode bandwidth sits between DDR and flat MCDRAM and is lower
    // than flat MCDRAM (the paper's qualitative point).
    let read = r.table_cell(StreamKind::Read, "cache").unwrap();
    in_band(read, 60.0, 220.0, "cache-mode read");

    let mut flat = Machine::new(MachineConfig::knl7210(
        ClusterMode::Quadrant,
        MemoryMode::Flat,
    ));
    let fr = run_memory_suite(&mut flat, &params());
    assert!(
        read < fr.table_cell(StreamKind::Read, "MCDRAM").unwrap(),
        "cache-mode read must trail flat MCDRAM"
    );
}

#[test]
fn cluster_modes_differ_mainly_in_bandwidth_not_latency() {
    // §III-B: "the performance difference between modes appears mainly in
    // terms of achievable memory bandwidth"; latencies stay close.
    let p = params();
    let mut lat = Vec::new();
    for cm in [ClusterMode::Snc4, ClusterMode::A2A] {
        let cfg = MachineConfig::knl7210(cm, MemoryMode::Flat);
        let mut m = Machine::new(cfg);
        let c = run_cache_suite(&mut m, &p);
        lat.push(
            c.remote_ns
                .iter()
                .find(|(s, _)| *s == 'M')
                .unwrap()
                .1
                .median_ns(),
        );
    }
    let ratio = lat[0].max(lat[1]) / lat[0].min(lat[1]);
    assert!(
        ratio < 1.2,
        "remote M latency across modes within 20%: {lat:?}"
    );
}
