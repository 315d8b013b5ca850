//! The congestion benchmark (§IV-A.3): pairs of threads on different pairs
//! of cores ping-pong simultaneously. The paper "did not observe any
//! increase in latency" — mesh congestion is absent — and Table I reports
//! "None". The benchmark exists to *check* that, so we run it faithfully.
//! [`congestion_with_pairs`] drives [`Machine::access`] directly, with no
//! Op-IR form.

use crate::state_prep::prep_lines;
use knl_arch::CoreId;
use knl_sim::{AccessKind, LineState, Machine, SimTime};

/// The largest max/min per-pair latency ratio
/// ([`CacheResults::congestion_ratio`](crate::CacheResults::congestion_ratio))
/// that still reads as Table I's "none".
pub const NO_CONGESTION_BELOW: f64 = 1.25;

/// For each pair count, run simultaneous one-line ping-pongs and return the
/// median per-pair round latency (ns). Pairs are (core 2k, core 2k+1 of a
/// distant tile) so every transfer crosses the mesh. As in the paper, the
/// benchmark cannot choose mesh placement ("we do not know the exact
/// location of the tiles [...] and we cannot produce layouts that stress
/// specific rows or columns").
pub fn congestion(m: &mut Machine, pair_counts: &[usize], iters: usize) -> Vec<(usize, f64)> {
    let num_cores = m.config().num_cores();
    let half = (num_cores / 2) as u16;
    let all: Vec<(CoreId, CoreId)> = (0..half).map(|p| (CoreId(p), CoreId(p + half))).collect();
    pair_counts
        .iter()
        .map(|&pairs| {
            assert!(pairs * 2 <= num_cores, "not enough cores for {pairs} pairs");
            (pairs, congestion_with_pairs(m, &all[..pairs], iters))
        })
        .collect()
}

/// Congestion with explicit endpoint placement (used by the mesh-occupancy
/// ablation, where the *simulator* — unlike the paper's software — does
/// know tile coordinates and can stress a single ring). Returns the median
/// worst per-pair round latency, ns.
pub fn congestion_with_pairs(m: &mut Machine, pairs: &[(CoreId, CoreId)], iters: usize) -> f64 {
    let mut meds = Vec::new();
    let mut now: SimTime = 0;
    for it in 0..iters {
        // Prepare every pair's line first, then start all ping-pongs at a
        // common window (the paper's TSC-window synchronization).
        let mut t0 = now;
        for (p, &(a, b)) in pairs.iter().enumerate() {
            let addr = (1u64 << 26) + ((it * pairs.len() + p) as u64) * 64;
            t0 = t0.max(prep_lines(m, b, a, addr, 1, LineState::Modified, now));
        }
        let mut worst = 0u64;
        for (p, &(a, b)) in pairs.iter().enumerate() {
            let addr = (1u64 << 26) + ((it * pairs.len() + p) as u64) * 64;
            // A reads B's line; B reads it back after A dirties it.
            let r1 = m.access(a, addr, AccessKind::Read, t0);
            let w = m.access(a, addr, AccessKind::Write, r1.complete);
            let r2 = m.access(b, addr, AccessKind::Read, w.complete);
            worst = worst.max(r2.complete - t0);
        }
        meds.push(worst as f64 / 1000.0);
        now += 10_000_000;
        m.reset_caches();
    }
    meds.sort_by(f64::total_cmp);
    meds[meds.len() / 2]
}

/// Verdict in the spirit of Table I: does latency stay flat as pairs grow?
/// Returns `true` when the worst median is within `tolerance` of the best.
pub fn is_congestion_free(points: &[(usize, f64)], tolerance: f64) -> bool {
    let min = points.iter().map(|(_, l)| *l).fold(f64::INFINITY, f64::min);
    let max = points.iter().map(|(_, l)| *l).fold(0.0, f64::max);
    max <= min * (1.0 + tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::{ClusterMode, MachineConfig, MemoryMode};

    #[test]
    fn mesh_is_congestion_free() {
        let mut m = Machine::new(MachineConfig::knl7210(
            ClusterMode::Quadrant,
            MemoryMode::Flat,
        ));
        m.set_jitter(0);
        let pts = congestion(&mut m, &[1, 4, 8, 16], 5);
        assert_eq!(pts.len(), 4);
        assert!(
            is_congestion_free(&pts, 0.15),
            "paper observed no congestion; got {pts:?}"
        );
    }

    #[test]
    fn tolerance_detects_slope() {
        let pts = vec![(1usize, 100.0), (8, 180.0)];
        assert!(!is_congestion_free(&pts, 0.15));
        assert!(is_congestion_free(&pts, 0.9));
    }
}
