//! Property tests on the simulator's core invariants.
//!
//! Randomized but deterministic: cases are drawn from [`SplitMixRng`] with
//! fixed seeds (the workspace builds offline with no external crates, so
//! these are hand-rolled property loops rather than `proptest` macros).

use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode, SplitMixRng, TileId};
use knl_sim::{AccessKind, LineState, Machine, Op, Program, Runner};

const CASES: u64 = 48;

fn machine() -> Machine {
    let mut m = Machine::new(MachineConfig::knl7210(
        ClusterMode::Quadrant,
        MemoryMode::Flat,
    ));
    m.set_jitter(0);
    m
}

/// Single-writer/multiple-reader: after any interleaving of reads and
/// writes from random cores to a small set of lines, no line is ever
/// owned (M/E) by one tile while another tile holds any copy.
#[test]
fn mesif_swmr_invariant() {
    let mut rng = SplitMixRng::seed_from_u64(0xB001);
    for case in 0..CASES {
        let mut m = machine();
        let mut now = 0u64;
        let n_ops = rng.range_usize(1, 120);
        for _ in 0..n_ops {
            let core = rng.range_u32(0, 64) as u16;
            let line_idx = rng.range_u64(0, 4);
            let is_write = rng.next_u64() & 1 == 1;
            let addr = (1u64 << 22) + line_idx * 64;
            let kind = if is_write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            now = m.access(CoreId(core), addr, kind, now).complete + 1_000;

            for li in 0..4u64 {
                let a = (1u64 << 22) + li * 64;
                let mut owners = 0;
                let mut sharers = 0;
                for t in 0..32u16 {
                    match m.line_state(a, TileId(t)) {
                        LineState::Modified | LineState::Exclusive => owners += 1,
                        LineState::Shared | LineState::Forward | LineState::Owned => sharers += 1,
                        LineState::Invalid => {}
                    }
                }
                assert!(owners <= 1, "case {case}, line {li}: {owners} owners");
                assert!(
                    owners == 0 || sharers == 0,
                    "case {case}, line {li}: owner coexists with {sharers} sharers"
                );
            }
        }
    }
}

/// Time never runs backwards: every access completes at or after its
/// issue time, and repeated accesses from one core are monotone.
#[test]
fn completion_monotone() {
    let mut rng = SplitMixRng::seed_from_u64(0xB002);
    for _ in 0..CASES {
        let mut m = machine();
        let mut now = 0u64;
        let n_ops = rng.range_usize(1, 100);
        for _ in 0..n_ops {
            let core = rng.range_u32(0, 64) as u16;
            let line_idx = rng.range_u64(0, 64);
            let addr = (1u64 << 23) + line_idx * 64;
            let kind = match rng.range_u32(0, 3) {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::NtStore,
            };
            let out = m.access(CoreId(core), addr, kind, now);
            assert!(out.complete >= now, "{kind:?} completed before issue");
            now = out.complete;
        }
    }
}

/// The runner executes any well-formed flag dag: a random chain of
/// producers/consumers over distinct flags always terminates with
/// increasing end time, never deadlocks.
#[test]
fn runner_flag_chains_terminate() {
    let mut rng = SplitMixRng::seed_from_u64(0xB003);
    for _ in 0..CASES {
        let n = rng.range_usize(2, 10);
        let seed = rng.range_u64(0, 1000);
        let mut m = machine();
        let base = 1u64 << 24;
        // Thread i waits for flag i-1 (except 0) then sets flag i: a chain.
        let order: Vec<usize> = {
            let mut v: Vec<usize> = (0..n).collect();
            // Deterministic shuffle from seed so programs vary.
            for i in (1..n).rev() {
                let j = (seed as usize).wrapping_mul(i + 7) % (i + 1);
                v.swap(i, j);
            }
            v
        };
        let programs: Vec<Program> = order
            .iter()
            .map(|&rank| {
                let mut p = Program::on_core(CoreId((rank * 2) as u16));
                if rank > 0 {
                    p.push(Op::WaitFlag {
                        addr: base + (rank as u64 - 1) * 4096,
                        val: 1,
                    });
                }
                p.push(Op::Compute(1_000));
                p.push(Op::SetFlag {
                    addr: base + rank as u64 * 4096,
                    val: 1,
                });
                p
            })
            .collect();
        let result = Runner::new(&mut m, programs).run();
        assert!(result.end_time > 0);
    }
}

/// Failure injection: pathological timing parameters (zero or huge
/// primitive costs, extreme jitter) must never break the simulator's
/// structural invariants — time stays monotone, accesses complete, the
/// SWMR invariant holds.
#[test]
fn pathological_timing_keeps_invariants() {
    let mut rng = SplitMixRng::seed_from_u64(0xB004);
    for case in 0..CASES {
        let mut cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
        cfg.timing.hop_ps = rng.range_u64(0, 50_000);
        cfg.timing.inject_ps = rng.range_u64(0, 100_000);
        cfg.timing.cha_lookup_ps = rng.range_u64(0, 200_000);
        cfg.timing.cha_line_serialize_ps = rng.range_u64(0, 200_000);
        cfg.timing.ddr_lat_ps = rng.range_u64(1_000, 500_000);
        cfg.timing.jitter_pct = rng.range_u32(0, 60);
        let mut m = Machine::new(cfg);
        let mut now = 0u64;
        for i in 0..40u64 {
            let core = CoreId((i % 64) as u16);
            let addr = (1u64 << 22) + (i % 6) * 64;
            let kind = match i % 3 {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::NtStore,
            };
            let out = m.access(core, addr, kind, now);
            assert!(out.complete >= now, "case {case}: completion ran backwards");
            now = out.complete;
        }
        // SWMR still holds on the touched lines.
        for li in 0..6u64 {
            let a = (1u64 << 22) + li * 64;
            let owners = (0..32u16)
                .filter(|&t| {
                    matches!(
                        m.line_state(a, TileId(t)),
                        LineState::Modified | LineState::Exclusive
                    )
                })
                .count();
            assert!(owners <= 1, "case {case}, line {li}: {owners} owners");
        }
    }
}

/// Device queueing conserves work: streaming N lines through one core
/// takes at least N * service_time at the device aggregate rate.
#[test]
fn stream_time_lower_bounded() {
    let mut rng = SplitMixRng::seed_from_u64(0xB005);
    for _ in 0..CASES {
        let lines = rng.range_u64(64, 4096);
        let mut m = machine();
        let mut p = Program::on_core(CoreId(0));
        p.push(Op::MarkStart(0))
            .push(Op::Stream {
                kind: knl_sim::StreamKind::Read,
                a: 0,
                b: 1 << 22,
                c: 0,
                lines,
                vectorized: true,
            })
            .push(Op::MarkEnd(0));
        let r = Runner::new(&mut m, vec![p]).run();
        let d = r.duration_ps(0, 0).unwrap();
        // Issue bound: `lines * issue_gap`; and the path latency floor.
        assert!(
            d >= lines * 400,
            "{lines} lines in {d} ps breaks the issue bound"
        );
        // Single-thread bandwidth cannot exceed MLP*64B/latency ≈ 12 GB/s.
        let gbps = (lines as f64 * 64.0 / 1e9) / (d as f64 / 1e12);
        assert!(gbps < 14.0, "single-thread {gbps} GB/s is impossibly high");
    }
}

/// Mesh hop cost is a metric over tile positions in every cluster mode:
/// zero on the diagonal, symmetric, and triangle-inequality-consistent
/// (Manhattan Y-then-X routing on the analytic contention-free fabric).
#[test]
fn mesh_hop_cost_is_a_metric() {
    use knl_sim::mesh::{Mesh, MeshConfig, StopId};
    let mut rng = SplitMixRng::seed_from_u64(0xB006);
    for cm in ClusterMode::ALL {
        let cfg = MachineConfig::knl7210(cm, MemoryMode::Flat);
        let mut mesh = Mesh::new(
            MeshConfig {
                hop_ps: 1_000,
                ring_service_ps: None,
            },
            &cfg.topology(),
        );
        let mut d = |a: TileId, b: TileId| mesh.traverse(StopId::tile(a), StopId::tile(b), 0);
        for _ in 0..CASES {
            let a = TileId(rng.range_u32(0, cfg.active_tiles as u32) as u16);
            let b = TileId(rng.range_u32(0, cfg.active_tiles as u32) as u16);
            let c = TileId(rng.range_u32(0, cfg.active_tiles as u32) as u16);
            assert_eq!(d(a, a), 0, "{cm:?}: d({a:?},{a:?}) != 0");
            assert_eq!(d(a, b), d(b, a), "{cm:?}: asymmetric hop cost");
            assert!(
                d(a, c) <= d(a, b) + d(b, c),
                "{cm:?}: triangle inequality fails via {b:?}"
            );
        }
    }
}

/// Hop cost scales linearly with the per-hop latency and never exceeds
/// the grid diameter.
#[test]
fn mesh_hop_cost_bounded_by_diameter() {
    use knl_sim::mesh::{Mesh, MeshConfig, StopId};
    let mut rng = SplitMixRng::seed_from_u64(0xB007);
    let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
    let topo = cfg.topology();
    for _ in 0..CASES {
        let hop = rng.range_u64(100, 5_000);
        let mut mesh = Mesh::new(
            MeshConfig {
                hop_ps: hop,
                ring_service_ps: None,
            },
            &topo,
        );
        let a = TileId(rng.range_u32(0, cfg.active_tiles as u32) as u16);
        let b = TileId(rng.range_u32(0, cfg.active_tiles as u32) as u16);
        let (ax, ay) = topo.tile_position(a);
        let (bx, by) = topo.tile_position(b);
        let hops = ((ax - bx).unsigned_abs() + (ay - by).unsigned_abs()) as u64;
        let t = mesh.traverse(StopId::tile(a), StopId::tile(b), 0);
        assert_eq!(mesh.hops(StopId::tile(a), StopId::tile(b)) as u64, hops);
        assert_eq!(t, hops * hop, "analytic fabric is exactly Manhattan");
        // KNL's die is a 6x7 grid (+ EDC/IMC rows): diameter bound.
        assert!(hops <= 13, "{a:?}->{b:?}: {hops} hops exceeds the die");
    }
}
