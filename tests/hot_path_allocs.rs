//! The access path does not allocate, and the observers allocate for what
//! they saw, not for how long they watched.
//!
//! Address resolution is once per access (a stream's once per run of
//! lines, held inline in its `StreamState`) and table-driven
//! (`AddressMap::resolve`, `AddressMap::resolve_run`); what a stream or a
//! buffer copy may still take from the heap is the MLP rings (a stream's
//! own, the machine's one for buffer copies) and the growth of the paged
//! tables behind the directory and the memory-side cache — a chunk of
//! pages at a time and a doubling
//! of the page index, a few dozen allocations however long it runs, never
//! one per line or per page; `reset_caches` keeps the chunks, so the same
//! pass again takes nothing. A tile cache takes its tag storage in one
//! allocation at its first fill and keeps it the same way (and a thread
//! keeps a dropped machine's for its next one), so a fresh machine is
//! small and a run that fills no tile cache holds no tags. A page per line
//! (lines 4 KiB apart) is the most a table can cost, and is bounded
//! against the hashed table it replaced. Under the tracer and the telemetry sampler the hot-line
//! profile grows the same way, and that is all: no tree node per line, and
//! in the series an entry per touched cell, never one per bin index —
//! whether the far bin comes from a 1 ps sampling interval or from a file.
//! In the model layer a solved Eq. 1 table is read, not rebuilt: a repeated
//! `optimize_tree` allocates the `Tree` it returns and nothing else, and a
//! `predict_*` envelope copies no part of the model.
//!
//! This file is its own test binary with a single `#[test]`, so no sibling
//! test allocates inside a counting window, and it holds the workspace's
//! only `unsafe impl`: the counting `#[global_allocator]` below, which
//! forwards every call to `System` unchanged.

use knl::arch::{ClusterMode, CoreId, HybridSplit, MachineConfig, MemoryMode, NumaKind, Schedule};
use knl::benchsuite::membw::{bandwidth_sample, Target};
use knl::benchsuite::SuiteParams;
use knl::model::predict::{predict_broadcast, predict_reduce};
use knl::model::{optimize_tree, CapabilityModel, TreeKind};
use knl::sim::cache::TagCache;
use knl::sim::machine::StreamState;
use knl::sim::{
    AccessKind, Machine, Metrics, ObserverConfig, Op, Program, Runner, StreamKind, TelemetryConfig,
    TelemetrySeries, TraceLevel,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: both methods hand their arguments to `System` untouched, so its
// `GlobalAlloc` contract is this allocator's; the counter publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations (reallocations included) `f` performs.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Bytes requested from the heap (reallocations at their new size) while
/// `f` runs.
fn bytes_in(f: impl FnOnce()) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    f();
    BYTES.load(Ordering::Relaxed) - before
}

fn triad_allocs(cfg: &MachineConfig, kind: NumaKind, lines: u64) -> u64 {
    triad_allocs_under(ObserverConfig::default(), cfg, kind, lines)
}

fn triad_allocs_under(oc: ObserverConfig, cfg: &MachineConfig, kind: NumaKind, lines: u64) -> u64 {
    let mut m = Machine::with_observer_config(cfg.clone(), oc);
    let mut arena = m.arena();
    let [a, b, c] = [(); 3].map(|()| arena.alloc(kind, lines * 64));
    let mut state = StreamState::default();
    allocs_in(|| {
        let (_, done) = m.stream_chunk(
            CoreId(0),
            StreamKind::Triad,
            a,
            b,
            c,
            0,
            lines,
            true,
            &mut state,
            0,
            u64::MAX,
            1,
        );
        assert_eq!(done, lines);
    })
}

fn copy_allocs(cfg: &MachineConfig, kind: NumaKind) -> u64 {
    const BYTES: u64 = 64 * 1024;
    let mut m = Machine::new(cfg.clone());
    let mut arena = m.arena();
    let src = arena.alloc(kind, BYTES);
    let dst = arena.alloc(kind, BYTES);
    // The source sits modified in another tile: remote-cache reads, then
    // RFOs served from memory.
    let mut t = 0;
    for l in 0..BYTES / 64 {
        t = m
            .access(CoreId(20), src + l * 64, AccessKind::Write, t)
            .complete;
    }
    allocs_in(|| {
        m.copy_buf(CoreId(0), src, dst, BYTES, true, t + 2_000_000);
    })
}

/// 64 threads each copying 4 096 lines through the caches: the Fig. 10
/// sort's first pass at 16 MB, 524 288 directory entries.
fn copy_pass(m: &mut Machine, src: u64, dst: u64) {
    const LINES: u64 = 4096;
    let programs = (0..64)
        .map(|rank| {
            let off = rank as u64 * LINES * 64;
            let mut p = Program::new(Schedule::FillTiles.place(rank, 64));
            p.push(Op::CopyBuf {
                src: src + off,
                dst: dst + off,
                bytes: LINES * 64,
                vectorized: true,
            });
            p
        })
        .collect();
    Runner::new(m, programs).run();
}

/// One core reading `lines` lines 4 KiB apart: every line alone in its
/// page of the directory, the worst case for paging.
fn strided_walk(m: &mut Machine, base: u64, lines: u64) {
    let mut now = 0;
    for i in 0..lines {
        let addr = base + i * 4096;
        now = m.access(CoreId(0), addr, AccessKind::Read, now).complete;
    }
}

/// Heap allocations of one `Runner::run`: 64 threads, each running `iters`
/// measured 64-line triads (all under one mark id, so a thread's interval
/// list grows by doubling, not by an entry per iteration).
fn triad_run_allocs(iters: usize) -> u64 {
    const THREADS: usize = 64;
    const LINES: u64 = 64;
    let mut m = Machine::new(MachineConfig::knl7210(
        ClusterMode::Quadrant,
        MemoryMode::Flat,
    ));
    let mut arena = m.arena();
    let programs: Vec<Program> = (0..THREADS)
        .map(|rank| {
            let base = arena.alloc(NumaKind::Ddr, 3 * LINES * 64);
            let mut p = Program::new(Schedule::FillTiles.place(rank, 64));
            for _ in 0..iters {
                p.push(Op::MarkStart(0))
                    .push(Op::Stream {
                        kind: StreamKind::Triad,
                        a: base,
                        b: base + LINES * 64,
                        c: base + 2 * LINES * 64,
                        lines: LINES,
                        vectorized: true,
                    })
                    .push(Op::MarkEnd(0));
            }
            p
        })
        .collect();
    allocs_in(|| {
        Runner::new(&mut m, programs).run();
    })
}

/// `(allocations, bytes)` of `f`.
fn heap_in(f: impl FnOnce()) -> (u64, u64) {
    let mut allocs = 0;
    let bytes = bytes_in(|| allocs = allocs_in(f));
    (allocs, bytes)
}

#[test]
fn streams_and_copies_allocate_a_constant_not_per_line() {
    let flat = MemoryMode::Flat;
    let hybrid = MemoryMode::Hybrid(HybridSplit::Half);
    for (cluster, memory, kind) in [
        (ClusterMode::Snc4, flat, NumaKind::Mcdram),
        (ClusterMode::Snc4, flat, NumaKind::Ddr),
        (ClusterMode::Snc4, MemoryMode::Cache, NumaKind::Ddr),
        (ClusterMode::Snc2, hybrid, NumaKind::Mcdram),
        (ClusterMode::Quadrant, flat, NumaKind::Mcdram),
    ] {
        let cfg = MachineConfig::knl7210(cluster, memory);
        let label = format!("{} {kind:?}", cfg.label());
        let short = triad_allocs(&cfg, kind, 10_000);
        let long = triad_allocs(&cfg, kind, 40_000);
        let copy = copy_allocs(&cfg, kind);
        assert!(short < 64, "{label}: triad of 10 000 lines, {short} allocs");
        assert!(
            long <= short + 8,
            "{label}: triad of 40 000 lines, {long} allocs against {short}"
        );
        assert!(copy < 32, "{label}: 64 KiB copy, {copy} allocs");
    }

    // A fresh machine holds no tag array: each of its 96 caches takes its
    // storage, 20 B a way, at its first fill. A stream-only triad fills
    // none, so a fresh machine and a sample on it take fewer bytes than the
    // tags of the one tile the thread runs on would. The sample runs on a
    // thread of its own: this one keeps the storage of the caches dropped
    // above, which a fill would take without asking the heap.
    let cfg = MachineConfig::knl7210(ClusterMode::Snc4, flat);
    let fresh = heap_in(|| drop(Machine::new(cfg.clone())));
    assert!(fresh.1 < 64 << 10, "fresh SNC4-flat machine: {fresh:?}");
    let tile_tags = 20 * (TagCache::KNL_L1_LINES + TagCache::KNL_L2_LINES) as u64;
    let sample = || {
        let mut m = Machine::new(cfg.clone());
        let (kind, target, params) = (StreamKind::Triad, Target::Mcdram, SuiteParams::quick());
        bandwidth_sample(&mut m, kind, target, 1, Schedule::FillTiles, &params);
    };
    let sampled =
        std::thread::scope(|s| s.spawn(|| bytes_in(sample)).join()).expect("the sample thread");
    assert!(
        sampled < tile_tags,
        "fresh machine and a stream-only triad sample: {sampled} B"
    );

    // Line-dense footprints grow the directory and the memory-side-cache
    // tags by the chunk, and `reset_caches` keeps what they grew to.
    let mut m = Machine::new(cfg);
    let mut arena = m.arena();
    let [src, dst] = [(); 2].map(|()| arena.alloc(NumaKind::Ddr, 64 * 4096 * 64));
    let first = heap_in(|| copy_pass(&mut m, src, dst));
    m.reset_caches();
    m.reset_devices();
    let again = heap_in(|| copy_pass(&mut m, src, dst));
    // 96 first fills (the 64 L1s and 32 L2s of the 64 threads' tiles),
    // one allocation each unless it reuses a dropped machine's storage, and
    // 65 536 directory pages in 14 chunks behind an index that doubled 14
    // times; the rest, and all of the second pass, is the runner's.
    assert!(first.0 < 256, "64 × 4 096-line copy pass: {first:?}");
    assert!(again.1 < 64 << 10, "the same pass after a reset: {again:?}");

    let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Cache);
    let mut m = Machine::new(cfg);
    let mut arena = m.arena();
    let [a, b, c] = [(); 3].map(|()| arena.alloc(NumaKind::Ddr, 100_000 * 64));
    let triad = |m: &mut Machine| {
        let mut state = StreamState::default();
        m.stream_chunk(
            CoreId(0),
            StreamKind::Triad,
            a,
            b,
            c,
            0,
            100_000,
            true,
            &mut state,
            0,
            u64::MAX,
            1,
        );
    };
    let first = heap_in(|| triad(&mut m));
    m.reset_caches();
    m.reset_devices();
    let again = heap_in(|| triad(&mut m));
    assert!(
        first.0 < 96,
        "Quadrant-cache triad of 100 000 lines: {first:?}"
    );
    // A fresh `StreamState`'s two rings, nothing for the 300 000 tags.
    assert!(again.0 <= 8 && again.1 < 4096, "after a reset: {again:?}");

    // The runner keeps each thread's MLP rings across its stream ops: four
    // more triads per thread cost each thread one doubling of its interval
    // list (at the fifth), not two rings per op.
    let (one, five) = (triad_run_allocs(1), triad_run_allocs(5));
    eprintln!("runner triads: {one} allocs for one per thread, {five} for five");
    assert!(
        five <= one + 64 + 8,
        "64 threads × 5 triads: {five} allocs against {one} for one triad each"
    );

    let mut m = Machine::new(MachineConfig::knl7210(ClusterMode::Quadrant, flat));
    // A page per line is what paging can cost at most. The hashed table
    // this walk filled before took 16 776 704 B in 30 allocations; four
    // times that is 64 MiB less 2 KiB, half the 8 × a page of eight allows.
    const HASHED_BYTES: u64 = 16_776_704;
    let first = heap_in(|| strided_walk(&mut m, 1 << 22, 131_072));
    m.reset_caches();
    let again = heap_in(|| strided_walk(&mut m, 1 << 22, 131_072));
    assert!(
        first.0 < 96 && first.1 < 4 * HASHED_BYTES,
        "131 072 lines 4 KiB apart: {first:?}"
    );
    assert_eq!(again, (0, 0), "the same walk after a reset");

    // Watched by the tracer and the sampler, a stream four times as long
    // costs two more doublings of each growing vector (the profile's page
    // index, the binned series) and two more chunks of its pages, not a
    // tree node per ten lines.
    let observed = ObserverConfig::default()
        .trace(TraceLevel::Summary)
        .telemetry(TelemetryConfig::on());
    let cfg = MachineConfig::knl7210(ClusterMode::Snc4, flat);
    let short = triad_allocs_under(observed, &cfg, NumaKind::Mcdram, 4096);
    let long = triad_allocs_under(observed, &cfg, NumaKind::Mcdram, 16_384);
    assert!(short < 96, "observed triad of 4 096 lines, {short} allocs");
    assert!(
        long <= short + 48,
        "observed triad of 16 384 lines, {long} allocs against {short}"
    );

    // A far bin index costs what its few cells cost: two accesses 10⁹ bins
    // apart under a 1 ps sampler, and one line of a file naming bin 2⁶⁴ − 1.
    let mut m = Machine::with_observer_config(
        cfg.clone(),
        ObserverConfig::default().telemetry(TelemetryConfig::every(1)),
    );
    let addr = m.arena().alloc(NumaKind::Ddr, 4096);
    m.access(CoreId(0), addr, AccessKind::Read, 0);
    let sampled = bytes_in(|| {
        m.access(CoreId(0), addr + 64, AccessKind::Read, 1_000_000_000);
    });
    assert!(sampled < 4096, "1 ps sampler, second access: {sampled} B");
    let (mut series, mut metrics) = (TelemetrySeries::default(), Metrics::default());
    let parsed = bytes_in(|| {
        assert!(series.parse_line("Q 0 18446744073709551615 1 0 0 0 0"));
        assert!(metrics.parse_line("L ffffffffffffffff 1"));
    });
    assert!(parsed < 4096, "two hostile lines: {parsed} B");
    // Eq. 1, once its table is solved: the returned `Tree` is one vector
    // per inner node, and that is all a repeated request or an envelope
    // takes — no DP rows, no copy of the model's six maps.
    let model = CapabilityModel::paper_reference();
    for (kind, predict) in [
        (TreeKind::Broadcast, predict_broadcast as fn(_, _) -> _),
        (TreeKind::Reduce, predict_reduce),
    ] {
        let plan = optimize_tree(&model, 64, kind);
        let tree = allocs_in(|| drop(plan.tree.clone()));
        let again = allocs_in(|| drop(optimize_tree(&model, 64, kind)));
        let envelope = allocs_in(|| {
            predict(&model, 64);
        });
        assert!(
            tree > 0 && again <= tree,
            "{kind:?}: {again} against {tree}"
        );
        assert!(envelope <= tree, "{kind:?}: {envelope} against {tree}");
    }
}
