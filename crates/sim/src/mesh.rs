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
//!
//! The engine names the stops it routes between — active tiles, IMCs and
//! EDCs — by [`StopId`], and [`Mesh::new`] tabulates the route between
//! every pair once: its Y and X legs, which give the hop count, the
//! latency and, on the occupancy fabric, the rings it rides. A traversal is
//! one table read; nothing on the access path computes a grid position or
//! a distance (DESIGN.md §6, "Stream path").

use crate::memdev::{DeviceParams, MemDevice};
use crate::SimTime;
use knl_arch::topology::{GRID_COLS, GRID_ROWS, NUM_EDCS, NUM_IMCS};
use knl_arch::{MemTarget, TileId, Topology};

/// Reorder tolerance for ring servers: must cover the runner's bulk-op time
/// slice (arrivals can be out of order by up to one slice), but no more —
/// a wider window would swallow genuine short bursts of ring backlog.
const RING_REORDER_WINDOW_PS: SimTime = 450_000;

/// The most hops between two stops of a die: corner to corner of the
/// grid. Bounds the tracer's dense latency-histogram row.
pub(crate) const MAX_HOPS: u32 = (GRID_COLS - 1 + GRID_ROWS - 1) as u32;

/// Fabric configuration.
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Per-hop traversal latency.
    pub hop_ps: SimTime,
    /// Ring-occupancy modeling; `None` = analytic contention-free fabric.
    pub ring_service_ps: Option<SimTime>,
}

/// A mesh stop the engine routes between, numbered densely: the eight
/// EDCs, the two IMCs, then the active tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopId(u8);

impl StopId {
    /// The stop of an MCDRAM EDC.
    pub fn edc(edc: u8) -> Self {
        StopId(edc)
    }

    /// The stop of a DDR memory controller.
    pub fn imc(imc: u8) -> Self {
        StopId(NUM_EDCS as u8 + imc)
    }

    /// The stop of an active tile.
    pub fn tile(tile: TileId) -> Self {
        StopId((NUM_EDCS + NUM_IMCS) as u8 + tile.0 as u8)
    }

    /// The stop a memory device sits at: its IMC or its EDC.
    pub fn device(target: MemTarget) -> Self {
        match target {
            MemTarget::Ddr { imc, .. } => StopId::imc(imc),
            MemTarget::Mcdram { edc } => StopId::edc(edc),
        }
    }
}

/// The Y-then-X route between two stops.
#[derive(Debug, Clone, Copy, Default)]
struct Route {
    /// Hops of the Y leg, on the column ring of the source.
    dy: u8,
    /// Hops of the X leg, on the row ring of the destination.
    dx: u8,
    /// Column ring (Y leg) index into `Mesh::rings`.
    col_ring: u8,
    /// Row ring (X leg) index into `Mesh::rings`.
    row_ring: u8,
}

/// Rows of the route table: the stops a die can have (8 EDCs, 2 IMCs, up
/// to 38 tiles) rounded up to a power of two, so a route's index is a shift
/// and an or, and never out of bounds.
const STOP_SLOTS: usize = 64;

/// The fabric: hop-latency always; per-ring occupancy optionally.
#[derive(Debug)]
pub struct Mesh {
    cfg: MeshConfig,
    /// `routes[from * STOP_SLOTS + to]`.
    routes: Box<[Route; STOP_SLOTS * STOP_SLOTS]>,
    /// Column rings (Y legs) then row rings (X legs).
    rings: Vec<MemDevice>,
}

impl Mesh {
    /// Build the fabric over `topo`'s EDCs, IMCs and active tiles (rings
    /// are instantiated even when occupancy modeling is off; they are
    /// simply never consulted).
    pub fn new(cfg: MeshConfig, topo: &Topology) -> Self {
        let positions: Vec<(i32, i32)> = (0..NUM_EDCS as u8)
            .map(|e| topo.edc_position(e))
            .chain((0..NUM_IMCS as u8).map(|i| topo.imc_position(i)))
            .chain((0..topo.num_tiles() as u16).map(|t| topo.tile_position(TileId(t))))
            .collect();
        assert!(
            positions.len() <= STOP_SLOTS,
            "a die has at most {STOP_SLOTS} stops"
        );
        let mut routes = Box::new([Route::default(); STOP_SLOTS * STOP_SLOTS]);
        for (i, &from) in positions.iter().enumerate() {
            for (j, &to) in positions.iter().enumerate() {
                routes[i * STOP_SLOTS + j] = Route {
                    dy: from.1.abs_diff(to.1) as u8,
                    dx: from.0.abs_diff(to.0) as u8,
                    col_ring: from.0 as u8,
                    row_ring: (GRID_COLS + to.1) as u8,
                };
            }
        }
        let service = cfg.ring_service_ps.unwrap_or(0);
        let rings = (0..GRID_COLS + GRID_ROWS)
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
        Mesh { cfg, routes, rings }
    }

    #[inline]
    fn route(&self, from: StopId, to: StopId) -> Route {
        self.routes[(from.0 as usize * STOP_SLOTS + to.0 as usize) % (STOP_SLOTS * STOP_SLOTS)]
    }

    /// Hops between two stops (Manhattan: Y-then-X over bidirectional half
    /// rings).
    #[inline]
    pub fn hops(&self, from: StopId, to: StopId) -> u32 {
        let r = self.route(from, to);
        r.dy as u32 + r.dx as u32
    }

    /// Time for a message injected at `from` at time `t` to arrive at `to`
    /// (excluding the injection cost, which the caller charges).
    #[inline]
    pub fn traverse(&mut self, from: StopId, to: StopId, t: SimTime) -> SimTime {
        let r = self.route(from, to);
        let arrive = t + (r.dy as u64 + r.dx as u64) * self.cfg.hop_ps;
        if self.cfg.ring_service_ps.is_some() {
            self.occupy(r, t, arrive)
        } else {
            arrive
        }
    }

    /// The occupancy fabric: the Y leg rides the column ring of the source,
    /// the X leg the row ring of the destination (Y-then-X routing), and
    /// the message arrives no earlier than either ring lets it.
    #[cold]
    fn occupy(&mut self, r: Route, t: SimTime, mut arrive: SimTime) -> SimTime {
        let hop = self.cfg.hop_ps;
        if r.dy > 0 {
            let ring = &mut self.rings[r.col_ring as usize];
            arrive = arrive.max(ring.read(t) + r.dy as u64 * hop);
        }
        if r.dx > 0 {
            let ring = &mut self.rings[r.row_ring as usize];
            arrive = arrive.max(ring.read(t) + r.dx as u64 * hop);
        }
        arrive
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

    fn topo() -> Topology {
        Topology::new(32, 7)
    }

    fn mesh(hop_ps: SimTime, ring_service_ps: Option<SimTime>) -> Mesh {
        Mesh::new(
            MeshConfig {
                hop_ps,
                ring_service_ps,
            },
            &topo(),
        )
    }

    /// Two active tiles in one column, `rows` apart (Y leg only).
    fn column_pair(rows: i32) -> (StopId, StopId) {
        let t = topo();
        let tiles: Vec<TileId> = (0..t.num_tiles() as u16).map(TileId).collect();
        let (a, b) = tiles
            .iter()
            .flat_map(|&a| tiles.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| {
                let (pa, pb) = (t.tile_position(a), t.tile_position(b));
                pa.0 == pb.0 && pb.1 - pa.1 == rows
            })
            .expect("the die has such a pair");
        (StopId::tile(a), StopId::tile(b))
    }

    #[test]
    fn routes_are_manhattan_between_every_named_stop() {
        let t = topo();
        let mut m = mesh(1_500, None);
        let named = (0..NUM_EDCS as u8)
            .map(|e| (StopId::edc(e), t.edc_position(e)))
            .chain((0..NUM_IMCS as u8).map(|i| (StopId::imc(i), t.imc_position(i))))
            .chain((0..32).map(|i| (StopId::tile(TileId(i)), t.tile_position(TileId(i)))))
            .collect::<Vec<_>>();
        let mut longest = 0;
        for &(a, pa) in &named {
            for &(b, pb) in &named {
                let hops = pa.0.abs_diff(pb.0) + pa.1.abs_diff(pb.1);
                assert_eq!(m.hops(a, b), hops, "{a:?} -> {b:?}");
                assert_eq!(m.traverse(a, b, 100), 100 + hops as u64 * 1_500);
                longest = longest.max(hops);
            }
        }
        // EDC 0 and EDC 7 sit in opposite corners.
        assert_eq!(longest, MAX_HOPS);
        assert_eq!(
            StopId::device(MemTarget::Ddr { imc: 1, chan: 2 }),
            StopId::imc(1)
        );
        assert_eq!(StopId::device(MemTarget::Mcdram { edc: 5 }), StopId::edc(5));
    }

    #[test]
    fn occupancy_queues_on_shared_ring() {
        // Slow rings: two messages on the same column ring serialize.
        let mut m = mesh(1_000, Some(50_000));
        let (a, b) = column_pair(5);
        let first = m.traverse(a, b, 0);
        let second = m.traverse(b, a, 0);
        assert!(second > first, "second message queues: {first} vs {second}");
        // The same route on a fresh fabric is unaffected.
        assert_eq!(mesh(1_000, Some(50_000)).traverse(a, b, 0), first);
    }

    #[test]
    fn fast_rings_add_no_queueing() {
        let mut occ = mesh(1_500, Some(100));
        let mut ana = mesh(1_500, None);
        let (a, b) = column_pair(6);
        for i in 0..20u64 {
            let t = i * 10_000;
            let x = ana.traverse(a, b, t);
            let o = occ.traverse(a, b, t);
            assert!(o <= x + 200, "fast rings ≈ analytic: {o} vs {x}");
        }
    }

    #[test]
    fn reset_clears_rings() {
        let mut m = mesh(1_000, Some(50_000));
        let (a, b) = column_pair(5);
        for _ in 0..10 {
            m.traverse(a, b, 0);
        }
        m.reset();
        assert_eq!(m.traverse(a, b, 0), 50_000 + 5_000);
        // Bursts larger than the reorder window queue visibly.
        m.reset();
        let mut last = 0;
        for _ in 0..20 {
            last = m.traverse(a, b, 0);
        }
        assert!(
            last >= 20 * 50_000 - RING_REORDER_WINDOW_PS,
            "burst queues: {last}"
        );
    }
}
