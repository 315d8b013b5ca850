//! The streaming kernels, pinned by value.
//!
//! Table II and Fig. 9 are STREAM-style kernels, and every line of them runs
//! through `Machine::stream_chunk`: address resolution, mesh routing, the
//! memory devices, the memory-side cache, jitter and the MLP rings. The
//! suite goldens pin Quadrant only and `tests/footprint.rs` one copy stream
//! per cache machine; this file pins the per-line arithmetic of the stream
//! path in every configuration it can take:
//!
//! * all fifteen `MachineConfig::all_fifteen()` configurations, MCDRAM cut
//!   to 2 MB so the memory-side cache is small enough for the SNC modes'
//!   aliased DDR ranges to evict from it;
//! * the four `StreamKind`s;
//! * buffers in DDR (behind the memory-side cache where the mode has one)
//!   and in MCDRAM where it is addressable;
//! * one thread and eight scattered threads, jitter on;
//! * one row on the ring-occupancy mesh of the ablation fabric, with eight
//!   threads sharing two cores (HyperThreads split the MLP caps).
//!
//! Each thread runs three measured iterations of `LINES` lines, over its
//! first buffer set, its second, then its first again. One row per run: the
//! per-iteration durations of every thread (ps), the run's end time and the
//! machine's counters. Regenerate after an *intentional* change with
//!
//! ```text
//! KNL_UPDATE_GOLDEN=1 cargo test --test stream_kernels
//! ```
//!
//! and review the diff like source.

#[path = "common/golden.rs"]
mod golden;

use golden::assert_golden;
use knl::arch::{ClusterMode, MachineConfig, MemoryMode, NumaKind, Schedule};
use knl::sim::{Machine, Op, Program, Runner, StreamKind};
use std::fmt::Write as _;

const LINES: u64 = 256;
const ITERS: usize = 3;
const MB: u64 = 1 << 20;

fn row(
    out: &mut String,
    cfg: &MachineConfig,
    kind: StreamKind,
    memory: NumaKind,
    threads: usize,
    schedule: Schedule,
) {
    let mut m = Machine::new(cfg.clone());
    let mut arena = m.arena();
    let set_bytes = 3 * LINES * 64;
    let sets: Vec<[u64; 2]> = (0..threads)
        .map(|_| [(); 2].map(|()| arena.alloc(memory, set_bytes)))
        .collect();
    let num_cores = cfg.num_cores();
    let programs = sets
        .iter()
        .enumerate()
        .map(|(ti, set)| {
            let mut p = Program::new(schedule.place(ti, num_cores));
            for it in 0..ITERS {
                let base = set[it % 2];
                p.push(Op::MarkStart(it))
                    .push(Op::Stream {
                        kind,
                        a: base,
                        b: base + LINES * 64,
                        c: base + 2 * LINES * 64,
                        lines: LINES,
                        vectorized: true,
                    })
                    .push(Op::MarkEnd(it));
            }
            p
        })
        .collect();
    let r = Runner::new(&mut m, programs).run();
    let place = match memory {
        NumaKind::Ddr if cfg.memory.has_mcdram_cache() => "ddr-behind-mcache",
        NumaKind::Ddr => "ddr",
        NumaKind::Mcdram => "mcdram",
    };
    write!(
        out,
        "{} {} {place} x{threads} {schedule}",
        cfg.label(),
        kind.name()
    )
    .unwrap();
    for it in 0..ITERS {
        let ps: Vec<u64> = (0..threads)
            .flat_map(|t| r.occurrence_durations_ps(t, it))
            .collect();
        write!(out, " it{it}={ps:?}").unwrap();
    }
    writeln!(out, " end_time={} {:?}", r.end_time, m.counters()).unwrap();
}

fn rows() -> String {
    let mut out = String::new();
    for mut cfg in MachineConfig::all_fifteen() {
        cfg.mcdram_bytes = 2 * MB;
        let mut places = vec![NumaKind::Ddr];
        if cfg.memory.has_flat_mcdram() {
            places.push(NumaKind::Mcdram);
        }
        for kind in StreamKind::ALL {
            for &memory in &places {
                for threads in [1, 8] {
                    row(&mut out, &cfg, kind, memory, threads, Schedule::Scatter);
                }
            }
        }
    }
    let mut occupancy = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
    occupancy.timing.mesh_ring_service_ps = 2_000;
    out.push_str("ring-occupancy mesh: ");
    row(
        &mut out,
        &occupancy,
        StreamKind::Triad,
        NumaKind::Ddr,
        8,
        Schedule::FillCores,
    );
    out
}

#[test]
fn stream_kernels_match_the_golden_file() {
    assert_golden("stream_kernels.txt", &rows());
}
