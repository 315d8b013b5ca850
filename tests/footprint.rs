//! Line-dense footprints, pinned by value.
//!
//! `tests/sort_pipeline.rs` asserts bands around the simulated sort and the
//! suite goldens byte-pin the Quadrant-cache machine only. This file pins
//! the runs whose cost is the per-line tables — the directory under a
//! 64-thread coherent copy, the memory-side-cache tags under a stream that
//! wraps them — so a change to how those tables are stored has a byte to
//! answer to:
//!
//! * the Fig. 10 sort ([`SimSortSpec`]) at 4 MB × {16, 64} threads and
//!   16 MB × 64 threads, buffers in DDR and in MCDRAM, SNC4-flat, under the
//!   coherence checker at `CheckLevel::Invariants` with `finish_check`;
//! * an SNC2-hybrid and a Quadrant-cache machine with MCDRAM cut to 32 MB,
//!   64 threads each streaming a copy of 5 120 lines and then copying
//!   another 5 120 through the caches: 1.3 M distinct lines over 256 Ki
//!   (hybrid) and 512 Ki (cache) direct-mapped sets, so the NT stores'
//!   dirty lines are evicted by later fills (`MissDirtyEvict` write-backs)
//!   and each tile's two threads push 20 480 lines, half of them modified,
//!   through a 16 384-line L2.
//!
//! One row per run: the root interval of thread 0, the run's end time and
//! the machine's counters. Regenerate after an *intentional* change with
//!
//! ```text
//! KNL_UPDATE_GOLDEN=1 cargo test --test footprint
//! ```
//!
//! and review the diff like source.

use knl::arch::{ClusterMode, HybridSplit, MachineConfig, MemoryMode, NumaKind, Schedule};
use knl::sim::{CheckLevel, Machine, ObserverConfig, Op, Program, RunResult, Runner, StreamKind};
use knl::sort::simsort::{simsort_programs, SimSortSpec};
use std::fmt::Write as _;
use std::path::PathBuf;

const MB: u64 = 1 << 20;

fn checked(cfg: MachineConfig) -> Machine {
    let oc = ObserverConfig::default().check(CheckLevel::Invariants);
    Machine::with_observer_config(cfg, oc)
}

fn row(out: &mut String, label: &str, m: &Machine, r: &RunResult) {
    m.finish_check();
    let root = r.duration_ps(0, 0).expect("root interval");
    writeln!(
        out,
        "{label} root_ps={root} end_time={} {:?}",
        r.end_time,
        m.counters()
    )
    .unwrap();
}

fn sort_rows(out: &mut String) {
    let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
    for (bytes, threads) in [(4 * MB, 16), (4 * MB, 64), (16 * MB, 64)] {
        for memory in [NumaKind::Ddr, NumaKind::Mcdram] {
            let mut m = checked(cfg.clone());
            m.set_jitter(0);
            let spec = SimSortSpec {
                bytes,
                threads,
                schedule: Schedule::FillTiles,
                memory,
            };
            let programs = simsort_programs(&m, &spec);
            let r = Runner::new(&mut m, programs).run();
            let label = format!("sort {}MB x{threads} {memory:?}", bytes / MB);
            row(out, &label, &m, &r);
        }
    }
}

/// 64 threads, each streaming a copy of `LINES` lines and then copying
/// `LINES` more through the coherent path, all four buffers in DDR behind
/// the memory-side cache.
fn wrap_rows(out: &mut String) {
    const THREADS: usize = 64;
    const LINES: u64 = 5120;
    for (cluster, memory) in [
        (ClusterMode::Snc2, MemoryMode::Hybrid(HybridSplit::Half)),
        (ClusterMode::Quadrant, MemoryMode::Cache),
    ] {
        let mut cfg = MachineConfig::knl7210(cluster, memory);
        cfg.mcdram_bytes = 32 * MB;
        let label = format!("wrap {} 32MB", cfg.label());
        let mut m = checked(cfg);
        let mut arena = m.arena();
        let bytes = THREADS as u64 * LINES * 64;
        let [stream_src, stream_dst, copy_src, copy_dst] =
            [(); 4].map(|()| arena.alloc(NumaKind::Ddr, bytes));
        let num_cores = m.config().num_cores();
        let programs: Vec<Program> = (0..THREADS)
            .map(|rank| {
                let off = rank as u64 * LINES * 64;
                let mut p = Program::new(Schedule::FillTiles.place(rank, num_cores));
                p.push(Op::MarkStart(0));
                p.push(Op::Stream {
                    kind: StreamKind::Copy,
                    a: stream_dst + off,
                    b: stream_src + off,
                    c: 0,
                    lines: LINES,
                    vectorized: true,
                });
                p.push(Op::CopyBuf {
                    src: copy_src + off,
                    dst: copy_dst + off,
                    bytes: LINES * 64,
                    vectorized: true,
                });
                p.push(Op::MarkEnd(0));
                p
            })
            .collect();
        let r = Runner::new(&mut m, programs).run();
        let c = m.counters();
        assert!(
            c.writebacks > 0 && c.mcache_misses > 2 * THREADS as u64 * LINES,
            "{label}: the pass must wrap the memory-side cache, got {c:?}"
        );
        row(out, &label, &m, &r);
    }
}

#[test]
fn footprints_match_the_golden_file() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/footprint.txt");
    let mut rows = String::new();
    sort_rows(&mut rows);
    wrap_rows(&mut rows);
    if std::env::var_os("KNL_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rows).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `KNL_UPDATE_GOLDEN=1 cargo test --test footprint` to create it",
            path.display()
        )
    });
    for (n, (got, want)) in rows.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "footprint drifted at line {}", n + 1);
    }
    assert_eq!(
        rows.lines().count(),
        golden.lines().count(),
        "row count drifted"
    );
}
