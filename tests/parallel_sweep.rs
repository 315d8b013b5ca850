//! The parallel sweep determinism contract: a worker pool of any size
//! produces byte-for-byte the results of the serial path, and merged
//! results always come back in canonical job order regardless of which
//! worker finishes first.

use knl::arch::{ClusterMode, MachineConfig, MemoryMode, SplitMixRng};
use knl::benchsuite::{encode_suite, run_configs_with, SuiteParams, SuiteResults, SweepExecutor};
use knl::sim::{CheckLevel, Counters, Machine, ObserverConfig};

/// The comparable part of a suite sweep: results and counters per config.
fn sweep(
    configs: &[MachineConfig],
    params: &SuiteParams,
    jobs: usize,
    observers: ObserverConfig,
) -> Vec<(SuiteResults, Counters)> {
    run_configs_with(configs, params, jobs, |cfg| {
        Machine::with_observer_config(cfg.clone(), observers)
    })
    .into_iter()
    .map(|run| (run.results, run.counters))
    .collect()
}

fn tiny_params() -> SuiteParams {
    let mut p = SuiteParams::quick();
    p.iters = 3;
    p.c2c_sizes = vec![64, 1 << 10];
    p.contention_n = vec![1, 4];
    p.congestion_pairs = vec![1, 4];
    p.mem_threads = vec![1, 8];
    p.mem_lines_per_thread = 256;
    p.memlat_lines = 4 << 10;
    p
}

/// Three of the fifteen configurations, spanning cluster and memory modes:
/// `--jobs 4` must reproduce the `--jobs 1` suite results bit-for-bit.
#[test]
fn jobs4_matches_jobs1_bitwise() {
    let configs = vec![
        MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat),
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Cache),
        MachineConfig::knl7210(ClusterMode::A2A, MemoryMode::Flat),
    ];
    let params = tiny_params();
    let serial = sweep(&configs, &params, 1, ObserverConfig::default());
    let parallel = sweep(&configs, &params, 4, ObserverConfig::default());
    assert_eq!(serial.len(), parallel.len());
    for ((cfg, (s, sc)), (p, pc)) in configs.iter().zip(&serial).zip(&parallel) {
        assert_eq!(
            s,
            p,
            "{}: parallel results diverge from serial",
            cfg.label()
        );
        assert_eq!(sc, pc, "{}: counters diverge", cfg.label());
        // Byte-level check through the canonical encoding as well, so a
        // future non-`PartialEq`-visible field can't sneak in divergence.
        assert_eq!(encode_suite(s), encode_suite(p), "{}", cfg.label());
    }
}

/// One configuration at `--check invariants` under `--jobs 2` vs
/// `--jobs 1`: the checker is deterministic and merge-order stable, and —
/// being a pure observer — leaves the results bit-identical to the
/// unchecked sweep.
#[test]
fn checked_sweep_is_deterministic_and_observer_only() {
    let configs = vec![MachineConfig::knl7210(
        ClusterMode::Quadrant,
        MemoryMode::Cache,
    )];
    let params = tiny_params();
    let checked = ObserverConfig::default().check(CheckLevel::Invariants);
    let serial = sweep(&configs, &params, 1, checked);
    let parallel = sweep(&configs, &params, 2, checked);
    assert_eq!(serial, parallel, "checked sweep diverges across --jobs");
    let unchecked = sweep(&configs, &params, 2, ObserverConfig::default());
    assert_eq!(
        unchecked, parallel,
        "the checker must observe, never steer results"
    );
    assert_eq!(
        encode_suite(&serial[0].0),
        encode_suite(&parallel[0].0),
        "byte-level divergence"
    );
}

/// Merge order is the job order even when later jobs finish first: jobs
/// sleep for a seeded, decreasing duration so job 0 completes last.
#[test]
fn merge_order_is_job_order_not_completion_order() {
    let items: Vec<u64> = (0..16).collect();
    let exec = SweepExecutor::new(4);
    let out = exec.run("order", &items, |i, &x| {
        // Earlier jobs sleep longer — completion order is roughly the
        // reverse of job order; a seeded per-job jitter shuffles ties.
        let mut rng = SplitMixRng::for_job(7, i as u64);
        let jitter = rng.range_u64(0, 3);
        std::thread::sleep(std::time::Duration::from_millis(
            (items.len() as u64 - x) * 2 + jitter,
        ));
        (i, x * x)
    });
    let expect: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * x)).collect();
    assert_eq!(out, expect);
}

/// The executor clamps to at least one worker and handles the pool being
/// larger than the job list.
#[test]
fn more_workers_than_jobs() {
    let items = vec![10u32, 20];
    let out = SweepExecutor::new(64).run("overprovisioned", &items, |_i, &x| x + 1);
    assert_eq!(out, vec![11, 21]);
}
