//! Multi-line cache-to-cache transfers (§IV-A.4, Table I bandwidth rows,
//! Fig. 5): one thread copies (or reads) a message lying in a remote cache
//! into a local buffer, sizes 64 B – 256 KB, vectorized. Each benchmark
//! calls [`Machine::copy_buf`] or [`Machine::read_buf`] directly, with no
//! Op-IR form.

use crate::state_prep::prep_lines;
use knl_arch::{CoreId, QuadrantId, Topology};
use knl_sim::{LineState, Machine, SimTime};
use knl_stats::Sample;

/// Median copy bandwidth (GB/s) for a message of `bytes` held by `owner`'s
/// tile in `state`, copied by `reader` into a local buffer.
pub fn copy_bandwidth(
    m: &mut Machine,
    owner: CoreId,
    reader: CoreId,
    helper: CoreId,
    state: LineState,
    bytes: u64,
    iters: usize,
) -> Sample {
    let lines = knl_arch::lines_for(bytes);
    let mut s = Sample::new();
    let mut now: SimTime = 0;
    for it in 0..iters {
        let src = (1u64 << 27) + (it as u64) * (bytes + 4096);
        let dst = (1u64 << 28) + (it as u64) * (bytes + 4096);
        now = prep_lines(m, owner, helper, src, lines, state, now);
        let done = m.copy_buf(reader, src, dst, bytes, true, now);
        s.push(gbps(bytes, done - now));
        now = done + 5_000_000;
        m.reset_caches();
    }
    s
}

/// Median read (into registers) bandwidth, GB/s.
pub fn read_bandwidth(
    m: &mut Machine,
    owner: CoreId,
    reader: CoreId,
    helper: CoreId,
    state: LineState,
    bytes: u64,
    iters: usize,
) -> Sample {
    let lines = knl_arch::lines_for(bytes);
    let mut s = Sample::new();
    let mut now: SimTime = 0;
    for it in 0..iters {
        let src = (1u64 << 27) + (it as u64) * (bytes + 4096);
        now = prep_lines(m, owner, helper, src, lines, state, now);
        let done = m.read_buf(reader, src, bytes, true, now);
        s.push(gbps(bytes, done - now));
        now = done + 5_000_000;
        m.reset_caches();
    }
    s
}

/// Multi-line *latency* sweep used for the α+β·N fit (§IV-A.4): total read
/// time (ns, median) per line count.
pub fn multiline_latency(
    m: &mut Machine,
    owner: CoreId,
    reader: CoreId,
    helper: CoreId,
    line_counts: &[u64],
    iters: usize,
) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    for &lines in line_counts {
        let s = read_latency_sample(m, owner, reader, helper, lines, iters);
        out.push((lines, s.median()));
    }
    out
}

fn read_latency_sample(
    m: &mut Machine,
    owner: CoreId,
    reader: CoreId,
    helper: CoreId,
    lines: u64,
    iters: usize,
) -> Sample {
    let mut s = Sample::new();
    let mut now: SimTime = 0;
    for it in 0..iters {
        let src = (1u64 << 27) + (it as u64) * (lines + 4) * 64;
        now = prep_lines(m, owner, helper, src, lines, LineState::Exclusive, now);
        let done = m.read_buf(reader, src, lines * 64, true, now);
        s.push((done - now) as f64 / 1000.0);
        now = done + 5_000_000;
        m.reset_caches();
    }
    s
}

/// Partner cores for the three locations of Fig. 5, relative to `reader`:
/// same tile, same quadrant (different tile), remote quadrant.
pub fn fig5_partners(topo: &Topology, reader: CoreId) -> Vec<(&'static str, CoreId)> {
    let num_cores = topo.num_cores() as u16;
    let reader_q = topo.tile_quadrant(reader.tile());
    let same_tile = CoreId(reader.0 ^ 1);
    let same_quad = (0..num_cores)
        .map(CoreId)
        .find(|c| c.tile() != reader.tile() && topo.tile_quadrant(c.tile()) == reader_q)
        .expect("quadrant has >1 tile");
    let remote_quad = (0..num_cores)
        .map(CoreId)
        .find(|c| {
            topo.tile_quadrant(c.tile()) != reader_q
                && topo.tile_quadrant(c.tile()) == QuadrantId(reader_q.0 ^ 3)
        })
        .unwrap_or_else(|| {
            (0..num_cores)
                .map(CoreId)
                .find(|c| topo.tile_quadrant(c.tile()) != reader_q)
                .expect("multiple quadrants")
        });
    vec![
        ("tile", same_tile),
        ("same-quadrant", same_quad),
        ("remote-quadrant", remote_quad),
    ]
}

fn gbps(bytes: u64, ps: u64) -> f64 {
    (bytes as f64 / 1e9) / (ps as f64 / 1e12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::{ClusterMode, MachineConfig, MemoryMode};
    use knl_stats::fit_linear;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat));
        m.set_jitter(0);
        m
    }

    #[test]
    fn remote_copy_near_7_5gbps() {
        let mut m = machine();
        let s = copy_bandwidth(
            &mut m,
            CoreId(40),
            CoreId(0),
            CoreId(20),
            LineState::Modified,
            64 << 10,
            5,
        );
        let g = s.median();
        assert!(
            (4.5..11.0).contains(&g),
            "remote copy {g} GB/s (paper ~7.5)"
        );
    }

    #[test]
    fn tile_copy_e_faster_than_m() {
        let mut m = machine();
        let e = copy_bandwidth(
            &mut m,
            CoreId(1),
            CoreId(0),
            CoreId(20),
            LineState::Exclusive,
            64 << 10,
            5,
        )
        .median();
        let mm = copy_bandwidth(
            &mut m,
            CoreId(1),
            CoreId(0),
            CoreId(20),
            LineState::Modified,
            64 << 10,
            5,
        )
        .median();
        assert!(e > mm, "tile E copy {e} must beat M copy {mm}");
        assert!((6.0..12.0).contains(&e), "tile E copy {e} (paper 9.2)");
    }

    #[test]
    fn remote_read_near_2_5gbps() {
        let mut m = machine();
        let s = read_bandwidth(
            &mut m,
            CoreId(40),
            CoreId(0),
            CoreId(20),
            LineState::Exclusive,
            64 << 10,
            5,
        );
        let g = s.median();
        assert!((1.5..4.0).contains(&g), "remote read {g} GB/s (paper 2.5)");
    }

    #[test]
    fn multiline_latency_is_linear() {
        let mut m = machine();
        let pts = multiline_latency(
            &mut m,
            CoreId(40),
            CoreId(0),
            CoreId(20),
            &[8, 32, 128, 512],
            3,
        );
        let xs: Vec<f64> = pts.iter().map(|(n, _)| *n as f64).collect();
        let ys: Vec<f64> = pts.iter().map(|(_, l)| *l).collect();
        let f = fit_linear(&xs, &ys);
        assert!(
            f.r2 > 0.98,
            "multi-line latency must be linear, r²={}",
            f.r2
        );
        assert!(f.beta > 0.0);
    }

    #[test]
    fn fig5_partner_locations() {
        let topo = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat).topology();
        let p = fig5_partners(&topo, CoreId(0));
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].1, CoreId(1));
        let q0 = topo.tile_quadrant(CoreId(0).tile());
        assert_eq!(topo.tile_quadrant(p[1].1.tile()), q0);
        assert_ne!(p[1].1.tile(), CoreId(0).tile());
        assert_ne!(topo.tile_quadrant(p[2].1.tile()), q0);
    }
}
