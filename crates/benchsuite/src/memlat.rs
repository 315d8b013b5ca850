//! Memory latency (Table II latency rows): BenchIT-style pointer chasing
//! over a buffer far larger than the caches, allocated in DDR or MCDRAM
//! (flat modes) or wherever the cache mode puts it. [`chase_latency`]
//! drives [`Machine::access`] directly, with no Op-IR form.

use knl_arch::topology::splitmix64;
use knl_arch::{CoreId, NumaKind};
use knl_sim::{AccessKind, Machine, SimTime};
use knl_stats::Sample;

/// Median-ready sample of dependent-load latencies (ns) over a `lines`-line
/// buffer at `base`. Accesses visit lines in a hash-scrambled order so
/// neither the L2 nor the prefetchers help; the buffer must exceed L2.
pub fn chase_latency(
    m: &mut Machine,
    core: CoreId,
    base: u64,
    lines: u64,
    samples: usize,
) -> Sample {
    let mut s = Sample::new();
    let mut now: SimTime = 0;
    // Warm the TLB/paths but not the caches (each access hits a new line).
    for i in 0..samples as u64 {
        let idx = splitmix64(i ^ base) % lines;
        let addr = base + idx * 64;
        let out = m.access(core, addr, AccessKind::Read, now);
        s.push((out.complete - now) as f64 / 1000.0);
        now = out.complete + 1_000;
    }
    s
}

/// Convenience: allocate a chase buffer of `lines` in `kind` and measure.
pub fn memory_latency(
    m: &mut Machine,
    core: CoreId,
    kind: NumaKind,
    lines: u64,
    samples: usize,
) -> Sample {
    let base = m.arena().alloc(kind, lines * 64);
    chase_latency(m, core, base, lines, samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::{ClusterMode, MachineConfig, MemoryMode};

    #[test]
    fn flat_mode_latencies_match_table2() {
        let mut m = Machine::new(MachineConfig::knl7210(
            ClusterMode::Quadrant,
            MemoryMode::Flat,
        ));
        m.set_jitter(0);
        let ddr = memory_latency(&mut m, CoreId(0), NumaKind::Ddr, 32 << 10, 50).median();
        m.reset_caches();
        let mc = memory_latency(&mut m, CoreId(0), NumaKind::Mcdram, 32 << 10, 50).median();
        // Table II (QUAD): DRAM 140 ns, MCDRAM 167 ns.
        assert!((120.0..165.0).contains(&ddr), "DRAM latency {ddr}");
        assert!((150.0..195.0).contains(&mc), "MCDRAM latency {mc}");
        assert!(mc > ddr);
    }

    #[test]
    fn cache_mode_latency_higher_than_flat_dram() {
        let mut flat = Machine::new(MachineConfig::knl7210(
            ClusterMode::Quadrant,
            MemoryMode::Flat,
        ));
        flat.set_jitter(0);
        let ddr = memory_latency(&mut flat, CoreId(0), NumaKind::Ddr, 32 << 10, 50).median();
        let mut cm = Machine::new(MachineConfig::knl7210(
            ClusterMode::Quadrant,
            MemoryMode::Cache,
        ));
        cm.set_jitter(0);
        // Warm the memory-side cache with one pass, then drop only the tile
        // caches and measure: hits now come from the MCDRAM cache (the
        // paper's chase buffer likewise fits the 16 GB MCDRAM cache).
        let base = cm.arena().alloc(NumaKind::Ddr, (32u64 << 10) * 64);
        let _ = chase_latency(&mut cm, CoreId(0), base, 32 << 10, 200);
        cm.reset_tile_caches();
        let warm = chase_latency(&mut cm, CoreId(0), base, 32 << 10, 200);
        // Table II cache mode: 166-172 ns vs DRAM flat 140.
        assert!(
            warm.median() > ddr,
            "cache-mode {} vs flat DRAM {ddr}",
            warm.median()
        );
        assert!(
            (150.0..220.0).contains(&warm.median()),
            "cache-mode {}",
            warm.median()
        );
    }
}
