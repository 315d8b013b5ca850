//! The mesh-of-rings fabric.
//!
//! Messages route Y-first then X over bidirectional half rings, so the hop
//! latency between stops is Manhattan. The paper measured *no* congestion
//! on the KNL mesh ("we experimented with multiple thread schedules and did
//! not observe any increase in latency"), so the default fabric is the
//! analytic hop-cost model with unlimited link capacity.
//!
//! For ablation (`knl run ablation`, mesh section), a
//! link-occupancy fabric can be enabled: every ring (one per column for the
//! Y leg, one per row for the X leg) is a work-conserving server that a
//! message occupies for `ring_service_ps` per traversal. With KNL-realistic
//! ring bandwidth the congestion benchmark stays flat — the "no congestion"
//! finding is then *emergent* rather than assumed — while artificially slow
//! rings make congestion appear, demonstrating the mechanism.

use crate::memdev::{DeviceParams, MemDevice};
use crate::SimTime;
use knl_arch::topology::{GRID_COLS, GRID_ROWS};

/// Reorder tolerance for ring servers: must cover the runner's bulk-op time
/// slice (arrivals can be out of order by up to one slice), but no more —
/// a wider window would swallow genuine short bursts of ring backlog.
const RING_REORDER_WINDOW_PS: SimTime = 450_000;

/// Fabric configuration.
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Per-hop traversal latency.
    pub hop_ps: SimTime,
    /// Ring-occupancy modeling; `None` = analytic contention-free fabric.
    pub ring_service_ps: Option<SimTime>,
}

/// The fabric: hop-latency always; per-ring occupancy optionally.
#[derive(Debug)]
pub struct Mesh {
    cfg: MeshConfig,
    /// Column rings (Y legs) then row rings (X legs).
    rings: Vec<MemDevice>,
}

impl Mesh {
    /// Build the fabric (rings are instantiated even when occupancy
    /// modeling is off; they are simply never consulted).
    pub fn new(cfg: MeshConfig) -> Self {
        let n = (GRID_COLS + GRID_ROWS) as usize;
        let service = cfg.ring_service_ps.unwrap_or(0);
        let rings = (0..n)
            .map(|_| {
                MemDevice::new(DeviceParams {
                    latency_ps: 0,
                    read_service_ps: service,
                    write_service_ps: service,
                    write_mixed_ps: service,
                    turnaround_ps: 0,
                    duplex: true,
                })
                .with_window(RING_REORDER_WINDOW_PS)
            })
            .collect();
        Mesh { cfg, rings }
    }

    /// Time for a message injected at `from` at time `t` to arrive at `to`
    /// (excluding the injection cost, which the caller charges).
    pub fn traverse(&mut self, from: (i32, i32), to: (i32, i32), t: SimTime) -> SimTime {
        let dy = (from.1 - to.1).unsigned_abs() as u64;
        let dx = (from.0 - to.0).unsigned_abs() as u64;
        let mut arrive = t + (dy + dx) * self.cfg.hop_ps;
        if self.cfg.ring_service_ps.is_some() {
            // Y leg rides the column ring of `from.0`; X leg rides the row
            // ring of `to.1` (Y-then-X routing).
            if dy > 0 {
                let col = from.0 as usize;
                arrive = arrive.max(self.rings[col].read(t) + dy * self.cfg.hop_ps);
            }
            if dx > 0 {
                let row = GRID_COLS as usize + to.1 as usize;
                arrive = arrive.max(self.rings[row].read(t) + dx * self.cfg.hop_ps);
            }
        }
        arrive
    }

    /// Whether occupancy modeling is on.
    pub fn models_occupancy(&self) -> bool {
        self.cfg.ring_service_ps.is_some()
    }

    /// Reset ring queues (between benchmark repetitions).
    pub fn reset(&mut self) {
        for r in &mut self.rings {
            r.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analytic() -> Mesh {
        Mesh::new(MeshConfig {
            hop_ps: 1_500,
            ring_service_ps: None,
        })
    }

    #[test]
    fn manhattan_latency() {
        let mut m = analytic();
        assert_eq!(m.traverse((0, 0), (0, 0), 100), 100);
        assert_eq!(m.traverse((0, 0), (3, 0), 0), 4_500);
        assert_eq!(m.traverse((1, 1), (4, 5), 0), 7 * 1_500);
        assert!(!m.models_occupancy());
    }

    #[test]
    fn occupancy_queues_on_shared_ring() {
        // Slow rings: two messages on the same column ring serialize.
        let mut m = Mesh::new(MeshConfig {
            hop_ps: 1_000,
            ring_service_ps: Some(50_000),
        });
        let a = m.traverse((0, 0), (0, 5), 0);
        let b = m.traverse((0, 5), (0, 0), 0);
        assert!(b > a, "second message queues: {a} vs {b}");
        // A message on a different column is unaffected.
        let c = m.traverse((3, 0), (3, 5), 0);
        assert_eq!(c, m.traverse((4, 0), (4, 5), 0));
    }

    #[test]
    fn fast_rings_add_no_queueing() {
        let mut occ = Mesh::new(MeshConfig {
            hop_ps: 1_500,
            ring_service_ps: Some(100),
        });
        let mut ana = analytic();
        for i in 0..20u64 {
            let t = i * 10_000;
            let a = ana.traverse((2, 1), (2, 7), t);
            let o = occ.traverse((2, 1), (2, 7), t);
            assert!(o <= a + 200, "fast rings ≈ analytic: {o} vs {a}");
        }
    }

    #[test]
    fn reset_clears_rings() {
        let mut m = Mesh::new(MeshConfig {
            hop_ps: 1_000,
            ring_service_ps: Some(50_000),
        });
        for _ in 0..10 {
            m.traverse((0, 0), (0, 5), 0);
        }
        m.reset();
        let a = m.traverse((0, 0), (0, 5), 0);
        assert_eq!(a, 50_000 + 5_000);
        // Bursts larger than the reorder window queue visibly.
        m.reset();
        let mut last = 0;
        for _ in 0..20 {
            last = m.traverse((0, 0), (0, 5), 0);
        }
        assert!(
            last >= 20 * 50_000 - RING_REORDER_WINDOW_PS,
            "burst queues: {last}"
        );
    }
}
