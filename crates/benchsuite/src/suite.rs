//! Suite orchestration: run all capability benchmarks for one machine
//! configuration and collect [`SuiteResults`].

use crate::cachebw;
use crate::congestion::congestion;
use crate::contention::contention;
use crate::measurement::{BwPoint, CacheResults, LatencyStat, MemResults, SuiteResults};
use crate::membw::{self, Target};
use crate::memlat;
use crate::params::SuiteParams;
use crate::pointer_chase;
use knl_arch::{CoreId, MachineConfig, MemoryMode, NumaKind, Schedule};
use knl_sim::{LineState, Machine, StreamKind, TelemetrySampler, Tracer};

/// Everything one fully observed suite run hands back: the measured
/// results plus the machine's counters and whatever detachable observers
/// were attached (each `None` when its level was off).
pub struct ObservedRun {
    /// The measured capability results.
    pub results: SuiteResults,
    /// Hardware event counters accumulated over the whole suite.
    pub counters: knl_sim::Counters,
    /// The detached tracer, for per-job trace serialization.
    pub tracer: Option<Box<Tracer>>,
    /// The detached telemetry sampler, for per-job series serialization.
    pub telemetry: Option<Box<TelemetrySampler>>,
}

/// Owner/reader/helper placement used by the single-line benchmarks: reader
/// on core 0, same-tile owner on core 1, remote owner, and a helper tile.
fn actors(m: &Machine) -> (CoreId, CoreId, CoreId, CoreId) {
    let n = m.config().num_cores() as u16;
    let reader = CoreId(0);
    let tile_owner = CoreId(1);
    let remote_owner = CoreId(n / 2 + 2);
    let helper = CoreId(n / 4 * 2 + 4);
    (reader, tile_owner, remote_owner, helper)
}

/// Run the cache-to-cache part of the suite (§IV, Table I inputs).
pub fn run_cache_suite(m: &mut Machine, params: &SuiteParams) -> CacheResults {
    let (reader, tile_owner, remote_owner, helper) = actors(m);
    let mut r = CacheResults {
        local_ns: Some(LatencyStat::from_sample(pointer_chase::local_latency(
            m,
            reader,
            params.iters,
        ))),
        ..CacheResults::default()
    };

    for st in [
        LineState::Modified,
        LineState::Exclusive,
        LineState::Shared,
        LineState::Forward,
    ] {
        let tile = pointer_chase::transfer_latency(m, tile_owner, reader, helper, st, params.iters);
        r.tile_ns
            .push((st.letter(), LatencyStat::from_sample(tile)));
        let remote =
            pointer_chase::transfer_latency(m, remote_owner, reader, helper, st, params.iters);
        r.remote_ns
            .push((st.letter(), LatencyStat::from_sample(remote)));
    }

    // Single-thread read/copy bandwidth (max median over the size sweep).
    let mut best_read: f64 = 0.0;
    for &bytes in &params.c2c_sizes {
        let s = cachebw::read_bandwidth(
            m,
            remote_owner,
            reader,
            helper,
            LineState::Exclusive,
            bytes,
            params.iters.min(7),
        );
        best_read = best_read.max(s.median());
    }
    r.read_bw_gbps = best_read;

    for (loc, owner) in [("tile", tile_owner), ("remote", remote_owner)] {
        for st in [LineState::Modified, LineState::Exclusive] {
            let mut best: f64 = 0.0;
            for &bytes in &params.c2c_sizes {
                let s = cachebw::copy_bandwidth(
                    m,
                    owner,
                    reader,
                    helper,
                    st,
                    bytes,
                    params.iters.min(7),
                );
                best = best.max(s.median());
            }
            r.copy_bw_gbps.push((loc.to_string(), st.letter(), best));
        }
    }

    // Fig. 5 sweep over the three locations.
    for (loc, owner) in cachebw::fig5_partners(m.topology(), reader) {
        for st in [LineState::Modified, LineState::Exclusive] {
            for &bytes in &params.c2c_sizes {
                let s = cachebw::copy_bandwidth(
                    m,
                    owner,
                    reader,
                    helper_for(m, owner, reader),
                    st,
                    bytes,
                    params.iters.min(5),
                );
                r.copy_sweep
                    .push((loc.to_string(), st.letter(), bytes, s.median()));
            }
        }
    }

    // Multi-line latency fit input.
    let line_counts: Vec<u64> = params
        .c2c_sizes
        .iter()
        .map(|b| b / 64)
        .filter(|&l| l >= 1)
        .collect();
    r.multiline_read_ns = cachebw::multiline_latency(
        m,
        remote_owner,
        reader,
        helper,
        &line_counts,
        params.iters.min(5),
    );

    // Contention. Scatter places each new reader on its own tile so every
    // request serializes at the home directory (the benchmark intent; with
    // sequential issuance a tile sibling would otherwise ride on its
    // sibling's freshly fetched copy).
    r.contention = contention(
        m,
        &params.contention_n,
        Schedule::Scatter,
        params.iters.min(7),
    );

    // Congestion.
    r.congestion = congestion(m, &params.congestion_pairs, params.iters.min(5));

    r
}

/// Pick a helper core on a tile different from both `a` and `b`.
fn helper_for(m: &Machine, a: CoreId, b: CoreId) -> CoreId {
    let n = m.config().num_cores() as u16;
    (0..n)
        .map(CoreId)
        .find(|c| c.tile() != a.tile() && c.tile() != b.tile())
        .expect("≥3 tiles")
}

/// Run the memory part of the suite (§V, Table II / Fig. 9 inputs).
pub fn run_memory_suite(m: &mut Machine, params: &SuiteParams) -> MemResults {
    let mut r = MemResults::default();
    let flat = m.config().memory.has_flat_mcdram();

    // Latency rows.
    if m.config().memory != MemoryMode::Cache {
        let ddr = memlat::memory_latency(
            m,
            CoreId(0),
            NumaKind::Ddr,
            params.memlat_lines,
            params.iters * 6,
        );
        r.latency_ns
            .push(("DRAM".into(), LatencyStat::from_sample(ddr)));
        m.reset_caches();
        if flat {
            let mc = memlat::memory_latency(
                m,
                CoreId(0),
                NumaKind::Mcdram,
                params.memlat_lines,
                params.iters * 6,
            );
            r.latency_ns
                .push(("MCDRAM".into(), LatencyStat::from_sample(mc)));
            m.reset_caches();
        }
    } else {
        // Cache mode: warm the memory-side cache, then chase.
        let base = m.arena().alloc(NumaKind::Ddr, params.memlat_lines * 64);
        let _ = memlat::chase_latency(m, CoreId(0), base, params.memlat_lines, params.iters * 6);
        m.reset_tile_caches();
        let s = memlat::chase_latency(m, CoreId(0), base, params.memlat_lines, params.iters * 6);
        r.latency_ns
            .push(("cache".into(), LatencyStat::from_sample(s)));
        m.reset_caches();
    }

    // Bandwidth sweeps: both schedules, merged into one point list per
    // (kernel, target) — Table II takes the max median, Fig. 9 reads the
    // per-schedule series.
    let targets: Vec<Target> = match m.config().memory {
        MemoryMode::Cache => vec![Target::CacheMode],
        MemoryMode::Flat => vec![Target::Ddr, Target::Mcdram],
        MemoryMode::Hybrid(_) => vec![Target::Ddr, Target::Mcdram, Target::CacheMode],
    };
    for kind in StreamKind::ALL {
        for &target in &targets {
            let mut pts: Vec<BwPoint> = Vec::new();
            for sched in [Schedule::FillTiles, Schedule::FillCores] {
                pts.extend(membw::bandwidth_sweep(m, kind, target, sched, params));
                m.reset_devices();
                m.reset_caches();
            }
            r.bw_sweeps.push((kind, target.label().to_string(), pts));
        }
    }
    r
}

/// Run everything for one configuration on an unobserved machine.
pub fn run_full_suite(cfg: &MachineConfig, params: &SuiteParams) -> SuiteResults {
    run_full_suite_with(Machine::new(cfg.clone()), params).results
}

/// The root suite entry point: run everything on `m`, a fresh machine
/// built with whatever observers and hooks the caller wants. Observers are
/// pure, so `results` and `counters` are bit-identical whatever is
/// attached; with a checker the final reconciliation
/// (`Machine::finish_check`) runs before returning and panics on any
/// violation.
pub fn run_full_suite_with(mut m: Machine, params: &SuiteParams) -> ObservedRun {
    let cfg = m.config();
    let (cluster, memory) = (cfg.cluster, cfg.memory);
    let cache = run_cache_suite(&mut m, params);
    m.reset_caches();
    m.reset_devices();
    let mem = run_memory_suite(&mut m, params);
    m.finish_check();
    let counters = m.counters();
    let tracer = m.take_tracer();
    let telemetry = m.take_telemetry();
    ObservedRun {
        results: SuiteResults {
            cluster,
            memory,
            cache,
            mem,
        },
        counters,
        tracer,
        telemetry,
    }
}

/// The parallel-sweep entry point: [`run_full_suite_with`] for many
/// configurations on a worker pool, each job owning the fresh [`Machine`]
/// `machine` builds for its configuration. Results (with each job's
/// detached tracer and sampler) come back in the order of `configs` and
/// are bit-identical for every worker count (see the determinism contract
/// on [`crate::parallel::SweepExecutor`]).
pub fn run_configs_with(
    configs: &[MachineConfig],
    params: &SuiteParams,
    jobs: usize,
    machine: impl Fn(&MachineConfig) -> Machine + Sync,
) -> Vec<ObservedRun> {
    crate::parallel::SweepExecutor::new(jobs)
        .progress_mode(crate::ProgressMode::Text)
        .run("suite", configs, |_i, cfg| {
            run_full_suite_with(machine(cfg), params)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::ClusterMode;

    #[test]
    fn quick_full_suite_snc4_flat() {
        let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
        let mut params = SuiteParams::quick();
        params.iters = 5;
        params.mem_lines_per_thread = 512;
        params.memlat_lines = 16 << 10;
        let r = run_full_suite(&cfg, &params);
        assert_eq!(r.label(), "SNC4-flat");
        // Table I shape checks.
        assert!(r.cache.local_ns().unwrap() < 6.0);
        assert!(r.cache.tile_ns('M').unwrap() > r.cache.tile_ns('S').unwrap());
        assert!(r.cache.remote_ns('M').unwrap() > r.cache.tile_ns('M').unwrap());
        assert!(r.cache.read_bw_gbps > 1.0);
        assert!(!r.cache.contention.is_empty());
        // Table II shape checks.
        assert!(r.mem.latency("MCDRAM").unwrap() > r.mem.latency("DRAM").unwrap());
        let ddr_read = r.mem.table_cell(StreamKind::Read, "DRAM").unwrap();
        let mc_read = r.mem.table_cell(StreamKind::Read, "MCDRAM").unwrap();
        assert!(mc_read > ddr_read, "MCDRAM {mc_read} > DDR {ddr_read}");
    }

    #[test]
    fn reset_after_cache_suite_leaves_no_line_cached() {
        use knl_arch::TileId;
        use knl_sim::machine::ServedBy;
        use knl_sim::AccessKind;

        let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
        let tiles = cfg.active_tiles as u16;
        let mut m = Machine::new(cfg);
        run_cache_suite(&mut m, &SuiteParams::quick());
        // The suite ends on a reset of its own; cache one line of each
        // region again so this reset has something to drop.
        let regions = [1u64 << 23, 1 << 27, 1 << 28];
        for base in regions {
            m.access(CoreId(0), base, AccessKind::Read, 0);
            let again = m.access(CoreId(0), base, AccessKind::Read, 0);
            assert_eq!(again.served_by, ServedBy::L1);
        }
        m.reset_caches();
        // pointer_chase uses `iters` lines at 1 << 23; cachebw's buffers at
        // 1 << 27 and 1 << 28 span iters × (64 KB + 4 KB) < 8192 lines.
        for (base, lines) in [(regions[0], 16u64), (regions[1], 8192), (regions[2], 8192)] {
            for addr in (0..lines).map(|l| base + l * 64) {
                for t in 0..tiles {
                    assert_eq!(m.line_state(addr, TileId(t)), LineState::Invalid);
                }
            }
        }
        for base in regions {
            let out = m.access(CoreId(0), base, AccessKind::Read, 0);
            assert!(
                matches!(out.served_by, ServedBy::Memory(_)),
                "{base:#x} served by {:?} after a reset",
                out.served_by
            );
        }
    }

    #[test]
    fn quick_cache_mode_suite() {
        let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Cache);
        let mut params = SuiteParams::quick();
        params.iters = 3;
        params.mem_threads = vec![8];
        params.mem_lines_per_thread = 256;
        params.memlat_lines = 8 << 10;
        let mut m = Machine::new(cfg);
        let r = run_memory_suite(&mut m, &params);
        assert!(r.latency("cache").is_some());
        assert!(r.table_cell(StreamKind::Copy, "cache").is_some());
        assert!(r.table_cell(StreamKind::Copy, "MCDRAM").is_none());
    }
}
