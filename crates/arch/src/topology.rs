//! The KNL mesh-of-rings topology (§II-B, Fig. 2b of the paper).
//!
//! The die is a 6-column grid of ring stops. Row 0 holds four MCDRAM EDCs and
//! the PCIe/IIO stop; row 8 holds the other four EDCs and the Misc stop. Rows
//! 1–7 hold the 38 tile slots: row 1 has four tiles (columns 1–4), row 4 has
//! four tiles flanked by the two DDR memory controllers (IMCs), and the other
//! five rows have six tiles each (4 + 6 + 6 + 4 + 6 + 6 + 6 = 38).
//!
//! Some tiles are yield-disabled ("at least two of them are disabled in all
//! models currently shipping"); a KNL 7210 exposes 32 active tiles (64 cores),
//! so 6 of the 38 slots are disabled. Which physical slots are disabled is
//! not discoverable from software — the paper could not map tiles to mesh
//! coordinates. We therefore pick the disabled slots pseudo-randomly from a
//! seed: the *benchmark* layer never reads coordinates (mirroring the paper's
//! constraint), only the simulated hardware does, for routing.
//!
//! Routing is Y-first-then-X. Each row and column is a pair of half rings
//! traversed in both directions ("when a message goes off the ring, it gets
//! injected back in the opposite direction"), so the effective hop distance
//! between two stops is `|Δy| + |Δx|`. The simulator's mesh tabulates it
//! once per machine (`knl_sim::mesh::Mesh`); this crate only places stops.

use crate::cluster::ClusterMode;
use crate::ids::{CoreId, QuadrantId, TileId};

/// Number of grid columns.
pub const GRID_COLS: i32 = 6;
/// Number of grid rows (row 0 and row 8 are EDC/IO rows).
pub const GRID_ROWS: i32 = 9;
/// Total tile slots on the die.
pub const TILE_SLOTS: usize = 38;
/// Number of MCDRAM embedded DRAM controllers.
pub const NUM_EDCS: usize = 8;
/// Number of DDR integrated memory controllers.
pub const NUM_IMCS: usize = 2;
/// DDR channels per IMC.
pub const DDR_CHANNELS_PER_IMC: usize = 3;

/// What sits at a mesh stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopKind {
    /// An active tile (two cores + 1 MB shared L2 + CHA).
    Tile(TileId),
    /// A yield-disabled tile slot (still a ring stop, but inert).
    DisabledTile,
    /// An MCDRAM embedded DRAM controller (0..8).
    Edc(u8),
    /// A DDR memory controller (0 = left/west, 1 = right/east).
    Imc(u8),
    /// The PCIe / IIO stop.
    Iio,
    /// The miscellaneous stop on the bottom row.
    Misc,
}

/// One stop of the mesh, at grid position `(x, y)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stop {
    /// What sits at the stop.
    pub kind: StopKind,
    /// Grid column.
    pub x: i32,
    /// Grid row.
    pub y: i32,
}

/// The instantiated die topology for a given number of active tiles.
#[derive(Debug, Clone)]
pub struct Topology {
    stops: Vec<Stop>,
    /// Grid position of each active tile, indexed by `TileId`.
    tile_pos: Vec<(i32, i32)>,
    /// Grid position of each EDC, indexed by EDC id.
    edc_pos: Vec<(i32, i32)>,
    /// Grid position of each IMC, indexed by IMC id.
    imc_pos: Vec<(i32, i32)>,
    active_tiles: usize,
}

impl Topology {
    /// Build a topology with `active_tiles` tiles enabled out of the 38
    /// slots. Disabled slots are chosen pseudo-randomly from `disable_seed`
    /// (deterministic); active tiles are numbered densely in row-major grid
    /// order.
    ///
    /// # Panics
    /// Panics if `active_tiles > TILE_SLOTS`.
    pub fn new(active_tiles: usize, disable_seed: u64) -> Self {
        assert!(active_tiles <= TILE_SLOTS, "at most {TILE_SLOTS} tiles");
        let slots = tile_slot_positions();
        let disabled = pick_disabled(TILE_SLOTS - active_tiles, disable_seed);

        let mut stops = Vec::new();
        let mut tile_pos = Vec::with_capacity(active_tiles);
        let mut next_tile = 0u16;
        for (slot_idx, &(x, y)) in slots.iter().enumerate() {
            if disabled.contains(&slot_idx) {
                stops.push(Stop {
                    kind: StopKind::DisabledTile,
                    x,
                    y,
                });
            } else {
                stops.push(Stop {
                    kind: StopKind::Tile(TileId(next_tile)),
                    x,
                    y,
                });
                tile_pos.push((x, y));
                next_tile += 1;
            }
        }

        // EDCs: four on the top row (columns 0,1,4,5), four on the bottom.
        let mut edc_pos = Vec::with_capacity(NUM_EDCS);
        for (i, &x) in [0, 1, 4, 5].iter().enumerate() {
            stops.push(Stop {
                kind: StopKind::Edc(i as u8),
                x,
                y: 0,
            });
            edc_pos.push((x, 0));
        }
        for (i, &x) in [0, 1, 4, 5].iter().enumerate() {
            let id = (i + 4) as u8;
            stops.push(Stop {
                kind: StopKind::Edc(id),
                x,
                y: GRID_ROWS - 1,
            });
            edc_pos.push((x, GRID_ROWS - 1));
        }
        // IMCs flank row 4 at the outer columns.
        let imc_pos = vec![(0, 4), (GRID_COLS - 1, 4)];
        stops.push(Stop {
            kind: StopKind::Imc(0),
            x: 0,
            y: 4,
        });
        stops.push(Stop {
            kind: StopKind::Imc(1),
            x: GRID_COLS - 1,
            y: 4,
        });
        // IIO top-middle, Misc bottom-middle.
        stops.push(Stop {
            kind: StopKind::Iio,
            x: 2,
            y: 0,
        });
        stops.push(Stop {
            kind: StopKind::Misc,
            x: 2,
            y: GRID_ROWS - 1,
        });

        Topology {
            stops,
            tile_pos,
            edc_pos,
            imc_pos,
            active_tiles,
        }
    }

    /// Number of active tiles.
    pub fn num_tiles(&self) -> usize {
        self.active_tiles
    }

    /// Number of active cores (two per tile).
    pub fn num_cores(&self) -> usize {
        self.active_tiles * 2
    }

    /// All mesh stops, including disabled slots and IO stops.
    pub fn stops(&self) -> &[Stop] {
        &self.stops
    }

    /// Grid position of an active tile.
    pub fn tile_position(&self, t: TileId) -> (i32, i32) {
        self.tile_pos[t.0 as usize]
    }

    /// Grid position of an EDC.
    pub fn edc_position(&self, edc: u8) -> (i32, i32) {
        self.edc_pos[edc as usize]
    }

    /// Grid position of an IMC.
    pub fn imc_position(&self, imc: u8) -> (i32, i32) {
        self.imc_pos[imc as usize]
    }

    /// Which geometric quadrant a grid position belongs to. Quadrants are
    /// the four die quarters: (west/east) × (north/south).
    pub fn quadrant_of_pos(&self, pos: (i32, i32)) -> QuadrantId {
        let east = (pos.0 >= GRID_COLS / 2) as u8;
        let south = (pos.1 >= (GRID_ROWS + 1) / 2) as u8;
        QuadrantId(east | (south << 1))
    }

    /// Quadrant of an active tile.
    pub fn tile_quadrant(&self, t: TileId) -> QuadrantId {
        self.quadrant_of_pos(self.tile_position(t))
    }

    /// Hemisphere (0 = west, 1 = east) of an active tile. Hemispheres follow
    /// the DDR controllers, which sit on the west and east edges.
    pub fn tile_hemisphere(&self, t: TileId) -> u8 {
        (self.tile_position(t).0 >= GRID_COLS / 2) as u8
    }

    /// Cluster index of a tile under a cluster mode (always 0 for A2A).
    pub fn tile_cluster(&self, t: TileId, mode: ClusterMode) -> u8 {
        match mode.num_clusters() {
            1 => 0,
            2 => self.tile_hemisphere(t),
            4 => self.tile_quadrant(t).0,
            n => unreachable!("unsupported cluster count {n}"),
        }
    }

    /// Cluster index of a core.
    pub fn core_cluster(&self, c: CoreId, mode: ClusterMode) -> u8 {
        self.tile_cluster(c.tile(), mode)
    }

    /// Active tiles belonging to a given cluster under `mode`.
    pub fn tiles_in_cluster(&self, mode: ClusterMode, cluster: u8) -> Vec<TileId> {
        (0..self.active_tiles as u16)
            .map(TileId)
            .filter(|&t| self.tile_cluster(t, mode) == cluster)
            .collect()
    }

    /// The EDCs residing in a given quadrant (two per quadrant).
    pub fn edcs_in_quadrant(&self, q: QuadrantId) -> Vec<u8> {
        (0..NUM_EDCS as u8)
            .filter(|&e| self.quadrant_of_pos(self.edc_position(e)) == q)
            .collect()
    }

    /// The IMC closest to a quadrant (IMC 0 for west quadrants, 1 for east).
    pub fn imc_for_quadrant(&self, q: QuadrantId) -> u8 {
        q.0 & 1
    }
}

/// Grid positions of the 38 tile slots, row-major.
fn tile_slot_positions() -> Vec<(i32, i32)> {
    let mut v = Vec::with_capacity(TILE_SLOTS);
    for y in 1..GRID_ROWS - 1 {
        let cols: &[i32] = match y {
            // Row 1 has four tiles (flanked by ring turn-arounds in silicon).
            1 => &[1, 2, 3, 4],
            // Row 4 has the two IMCs at the outer columns.
            4 => &[1, 2, 3, 4],
            _ => &[0, 1, 2, 3, 4, 5],
        };
        for &x in cols {
            v.push((x, y));
        }
    }
    debug_assert_eq!(v.len(), TILE_SLOTS);
    v
}

/// Choose `n` distinct slot indices to disable, pseudo-randomly but
/// deterministically from `seed` (splitmix64-driven Fisher–Yates prefix).
fn pick_disabled(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..TILE_SLOTS).collect();
    let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    for i in 0..n.min(TILE_SLOTS) {
        s = splitmix64(s);
        let j = i + (s as usize) % (TILE_SLOTS - i);
        idx.swap(i, j);
    }
    let mut out: Vec<usize> = idx[..n].to_vec();
    out.sort_unstable();
    out
}

/// The splitmix64 mixing function (public: also used by the address hashes).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(32, 7)
    }

    #[test]
    fn slot_count_is_38() {
        assert_eq!(tile_slot_positions().len(), 38);
    }

    #[test]
    fn active_tile_count() {
        let t = topo();
        assert_eq!(t.num_tiles(), 32);
        assert_eq!(t.num_cores(), 64);
        let disabled = t
            .stops()
            .iter()
            .filter(|s| matches!(s.kind, StopKind::DisabledTile))
            .count();
        assert_eq!(disabled, 6);
    }

    #[test]
    fn all_stops_present() {
        let t = topo();
        let edcs = t
            .stops()
            .iter()
            .filter(|s| matches!(s.kind, StopKind::Edc(_)))
            .count();
        let imcs = t
            .stops()
            .iter()
            .filter(|s| matches!(s.kind, StopKind::Imc(_)))
            .count();
        assert_eq!(edcs, 8);
        assert_eq!(imcs, 2);
        assert!(t.stops().iter().any(|s| matches!(s.kind, StopKind::Iio)));
        assert!(t.stops().iter().any(|s| matches!(s.kind, StopKind::Misc)));
    }

    #[test]
    fn quadrants_cover_all_tiles() {
        let t = topo();
        let mut counts = [0usize; 4];
        for i in 0..t.num_tiles() as u16 {
            counts[t.tile_quadrant(TileId(i)).0 as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 32);
        // No quadrant should be empty or hold more than half the die.
        for (q, &c) in counts.iter().enumerate() {
            assert!((4..=16).contains(&c), "quadrant {q} has {c} tiles");
        }
    }

    #[test]
    fn hemispheres_partition() {
        let t = topo();
        let west = t.tiles_in_cluster(ClusterMode::Hemisphere, 0).len();
        let east = t.tiles_in_cluster(ClusterMode::Hemisphere, 1).len();
        assert_eq!(west + east, 32);
        assert!(west >= 10 && east >= 10);
    }

    #[test]
    fn a2a_single_cluster() {
        let t = topo();
        assert_eq!(t.tiles_in_cluster(ClusterMode::A2A, 0).len(), 32);
    }

    #[test]
    fn each_quadrant_has_two_edcs() {
        let t = topo();
        for q in 0..4 {
            assert_eq!(t.edcs_in_quadrant(QuadrantId(q)).len(), 2, "quadrant {q}");
        }
    }

    #[test]
    fn imc_for_quadrant_follows_east_west() {
        let t = topo();
        assert_eq!(t.imc_for_quadrant(QuadrantId(0)), 0); // NW -> west IMC
        assert_eq!(t.imc_for_quadrant(QuadrantId(1)), 1); // NE -> east IMC
        assert_eq!(t.imc_for_quadrant(QuadrantId(2)), 0); // SW
        assert_eq!(t.imc_for_quadrant(QuadrantId(3)), 1); // SE
    }

    #[test]
    fn disable_deterministic_per_seed() {
        let a = Topology::new(32, 42);
        let b = Topology::new(32, 42);
        let c = Topology::new(32, 43);
        assert_eq!(a.tile_pos, b.tile_pos);
        assert_ne!(a.tile_pos, c.tile_pos);
    }

    #[test]
    fn full_die_has_no_disabled() {
        let t = Topology::new(38, 0);
        assert_eq!(t.num_tiles(), 38);
        assert!(!t
            .stops()
            .iter()
            .any(|s| matches!(s.kind, StopKind::DisabledTile)));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_tiles_panics() {
        Topology::new(39, 0);
    }

    #[test]
    fn core_cluster_matches_tile() {
        let t = topo();
        for c in 0..t.num_cores() as u16 {
            let core = CoreId(c);
            assert_eq!(
                t.core_cluster(core, ClusterMode::Quadrant),
                t.tile_cluster(core.tile(), ClusterMode::Quadrant)
            );
        }
    }
}
