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
//!
//! A stream resolves its routes a run of lines at a time and keeps the runs
//! in its `StreamState` across the runner's slices. Two tests hold that to
//! the per-line arithmetic: a kernel cut into chunks of every length from
//! 1 to 17 lines ends exactly as one uncut call does, for the four kinds
//! over buffers that straddle a NUMA node or end at the top of memory; and
//! a state reused for a second kernel without a reset serves none of the
//! first kernel's routes.

#[path = "common/golden.rs"]
mod golden;

use golden::assert_golden;
use knl::arch::{ClusterMode, CoreId, HybridSplit, MachineConfig, MemoryMode, NumaKind, Schedule};
use knl::sim::machine::StreamState;
use knl::sim::{Counters, Machine, Op, Program, Runner, StreamKind};
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

/// One stream kernel driven chunk by chunk as the runner drives it: each
/// chunk from the frontier `now` the last one returned, up to
/// `deadline(done, now)` after `done` lines.
/// Returns the kernel's end time and the number of lines of each chunk.
fn chunked(
    m: &mut Machine,
    kind: StreamKind,
    [a, b, c]: [u64; 3],
    lines: u64,
    mut deadline: impl FnMut(u64, u64) -> u64,
) -> (u64, Vec<u64>) {
    let mut state = StreamState::default();
    let (mut now, mut chunks) = (0, Vec::new());
    while chunks.iter().sum::<u64>() < lines {
        let done: u64 = chunks.iter().sum();
        let (t, n) = m.stream_chunk(
            CoreId(4),
            kind,
            a,
            b,
            c,
            done,
            lines - done,
            true,
            &mut state,
            now,
            deadline(done, now),
            1,
        );
        now = t;
        chunks.push(n);
    }
    (now, chunks)
}

#[test]
fn a_kernel_cut_anywhere_ends_as_it_does_uncut() {
    const LINES: u64 = 120;
    let configs = [
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat),
        MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Hybrid(HybridSplit::Half)),
    ];
    for cfg in configs {
        let map = cfg.address_map(&cfg.topology());
        // Each operand straddles the first node's end at its own offset:
        // DDR into MCDRAM (Quadrant-flat); DDR behind the memory-side
        // cache into flat MCDRAM (SNC4-hybrid). Or all three end at the top
        // of memory, where a route resolved past the kernel would leave the
        // map.
        let edge = map.numa_nodes()[0].range.end;
        let top = map.addressable_bytes();
        for buffers in [[7, 50, 93].map(|k| edge - k * 64), [top - LINES * 64; 3]] {
            for kind in StreamKind::ALL {
                let run = |deadline: &mut dyn FnMut(u64, u64) -> u64| -> (u64, Vec<u64>, Counters) {
                    let mut m = Machine::new(cfg.clone());
                    let (end, chunks) = chunked(&mut m, kind, buffers, LINES, deadline);
                    (end, chunks, m.counters())
                };
                let (end, chunks, counters) = run(&mut |_, _| u64::MAX);
                assert_eq!(chunks, [LINES]);
                // One line a chunk: a deadline at the frontier stops after the
                // line that moves it. The frontier after `j` lines, which the
                // `j`-th chunk starts from, places the deadline that cuts `k`
                // lines a chunk.
                let mut frontier = Vec::new();
                let single = run(&mut |_, now| {
                    frontier.push(now);
                    now
                });
                assert_eq!(
                    single,
                    (end, vec![1; LINES as usize], counters),
                    "{kind:?}, 1 line a chunk"
                );
                for k in 2..=17u64 {
                    let cut = run(&mut |done, _| {
                        frontier
                            .get((done + k) as usize)
                            .map_or(u64::MAX, |&f| f - 1)
                    });
                    let mut want: Vec<u64> = vec![k; (LINES / k) as usize];
                    want.extend(Some(LINES % k).filter(|&rest| rest > 0));
                    assert_eq!(
                        cut,
                        (end, want, counters),
                        "{} {kind:?}, {k} lines a chunk",
                        cfg.label()
                    );
                }
            }
        }
    }
}

#[test]
fn a_reused_state_serves_no_route_of_the_last_kernel() {
    let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
    let mut m = Machine::new(cfg);
    let mut arena = m.arena();
    let ddr = [(); 3].map(|()| arena.alloc(NumaKind::Ddr, 64 * 64));
    let mcdram = [(); 3].map(|()| arena.alloc(NumaKind::Mcdram, 64 * 64));
    let mut state = StreamState::default();
    let mut stream = |m: &mut Machine, kind, [a, b, c]: [u64; 3], start, deadline| {
        m.stream_chunk(
            CoreId(0),
            kind,
            a,
            b,
            c,
            start,
            64 - start,
            true,
            &mut state,
            0,
            deadline,
            1,
        )
    };
    // A triad over DDR stopped after its first line leaves fifteen lines of
    // each operand's run unserved.
    assert_eq!(stream(&mut m, StreamKind::Triad, ddr, 0, 0).1, 1);
    let before = m.counters();
    assert_eq!((before.ddr_accesses, before.mcdram_accesses), (3, 0));
    // The next kernels, over MCDRAM and at the same line offsets, go to
    // MCDRAM for every line.
    for (kind, start) in [
        (StreamKind::Triad, 1),
        (StreamKind::Copy, 0),
        (StreamKind::Write, 1),
    ] {
        let before = m.counters();
        let lines = stream(&mut m, kind, mcdram, start, u64::MAX).1;
        let after = m.counters();
        let per_line = match kind {
            StreamKind::Triad => 3,
            StreamKind::Copy => 2,
            StreamKind::Read | StreamKind::Write => 1,
        };
        assert_eq!(after.ddr_accesses, before.ddr_accesses, "{kind:?}");
        assert_eq!(
            after.mcdram_accesses - before.mcdram_accesses,
            per_line * lines,
            "{kind:?}"
        );
    }
}
