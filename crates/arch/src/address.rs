//! Physical address maps: NUMA layout, line-interleaving over memory
//! channels, and the address → home-directory hash, per cluster and memory
//! mode (§II-C/D of the paper).
//!
//! * In all-to-all, quadrant, and hemisphere modes, "memory addresses are
//!   uniformly distributed across the memory channels, although the
//!   distribution pattern is internally different due to the different
//!   affinity configurations".
//! * In flat mode, "contiguous ranges are assigned to DDR and MCDRAM
//!   respectively, with the MCDRAM range above the DDR range".
//! * In SNC modes, "contiguous ranges of memory are assigned to each cluster
//!   [...] divided in two contiguous portions that are interleaved over the
//!   MCDRAM and DDR of the cluster"; a quadrant's DDR range "is interleaved
//!   among the three DDR channels of the closest DDR memory controller".
//!
//! Cost rule: the simulator pays for this module on every access that
//! leaves a tile, so an access makes one [`AddressMap::resolve`] call and
//! nothing on that call allocates (each cluster's EDC list is built once,
//! in [`AddressMap::new`]). [`AddressMap::home_directory`] and
//! [`AddressMap::mem_target`] are views of the same rule for tests and
//! tools.

use crate::cluster::ClusterMode;
use crate::ids::{QuadrantId, TileId};
use crate::memmode::MemoryMode;
use crate::topology::{splitmix64, Topology, DDR_CHANNELS_PER_IMC, NUM_EDCS, NUM_IMCS};
use crate::LINE_SHIFT;
use std::ops::Range;

/// Kind of memory backing a NUMA node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NumaKind {
    /// 'Far' memory: DDR4 through the two IMCs.
    Ddr,
    /// 'Near' memory: on-package MCDRAM through the eight EDCs.
    Mcdram,
}

/// One NUMA node exposed to software.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaNode {
    /// Dense node index as the OS would number it.
    pub id: usize,
    /// Backing memory technology.
    pub kind: NumaKind,
    /// Cluster (quadrant/hemisphere) index the node belongs to; 0 when the
    /// cluster mode exposes a single domain.
    pub cluster: u8,
    /// Physical address range of the node.
    pub range: Range<u64>,
}

/// The physical device a line address resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTarget {
    /// A DDR4 channel behind one of the two IMCs.
    Ddr {
        /// Memory controller (0 = west, 1 = east).
        imc: u8,
        /// Channel within the controller (0..3).
        chan: u8,
    },
    /// One of the eight MCDRAM EDCs.
    Mcdram {
        /// EDC index (0..8).
        edc: u8,
    },
}

impl MemTarget {
    /// Flat index usable for per-device bookkeeping: DDR channels occupy
    /// 0..6, EDCs 6..14.
    pub fn device_index(self) -> usize {
        match self {
            MemTarget::Ddr { imc, chan } => imc as usize * DDR_CHANNELS_PER_IMC + chan as usize,
            MemTarget::Mcdram { edc } => NUM_IMCS * DDR_CHANNELS_PER_IMC + edc as usize,
        }
    }

    /// Whether the target is an MCDRAM EDC.
    pub fn is_mcdram(self) -> bool {
        matches!(self, MemTarget::Mcdram { .. })
    }
}

/// Total number of distinct memory devices (6 DDR channels + 8 EDCs).
pub const NUM_MEM_DEVICES: usize = NUM_IMCS * DDR_CHANNELS_PER_IMC + NUM_EDCS;

/// Address map for one machine configuration.
#[derive(Debug, Clone)]
pub struct AddressMap {
    cluster_mode: ClusterMode,
    memory_mode: MemoryMode,
    ddr_bytes: u64,
    mcdram_flat_bytes: u64,
    mcdram_cache_bytes: u64,
    nodes: Vec<NumaNode>,
    /// Active tiles in each cluster of the current mode.
    tiles_by_cluster: Vec<Vec<TileId>>,
    /// Quadrant of each EDC.
    edc_quadrant: [u8; NUM_EDCS],
    /// Cluster of each EDC in the current mode: its hemisphere
    /// (west=0/east=1) for two clusters, its quadrant for four.
    edc_cluster: [u8; NUM_EDCS],
    /// EDCs of each cluster of the current mode, ascending.
    edcs_by_cluster: Vec<Vec<u8>>,
    /// All active tiles (for the A2A hash).
    all_tiles: Vec<TileId>,
}

impl AddressMap {
    /// Build the address map for one (cluster, memory) configuration.
    pub fn new(
        topo: &Topology,
        cluster_mode: ClusterMode,
        memory_mode: MemoryMode,
        ddr_bytes: u64,
        mcdram_bytes: u64,
    ) -> Self {
        let mcdram_flat = memory_mode.mcdram_flat_bytes(mcdram_bytes);
        let mcdram_cache = memory_mode.mcdram_cache_bytes(mcdram_bytes);
        // Quadrant/Hemisphere are software-transparent: only SNC modes split
        // the address space into per-cluster NUMA ranges.
        let k = if cluster_mode.software_numa() {
            cluster_mode.num_clusters()
        } else {
            1
        };

        let mut nodes = Vec::new();
        let mut cursor = 0u64;
        let ddr_per = align_line(ddr_bytes / k as u64);
        let mc_per = align_line(mcdram_flat / k as u64);
        for c in 0..k as u8 {
            nodes.push(NumaNode {
                id: nodes.len(),
                kind: NumaKind::Ddr,
                cluster: c,
                range: cursor..cursor + ddr_per,
            });
            cursor += ddr_per;
            if mc_per > 0 {
                nodes.push(NumaNode {
                    id: nodes.len(),
                    kind: NumaKind::Mcdram,
                    cluster: c,
                    range: cursor..cursor + mc_per,
                });
                cursor += mc_per;
            }
        }
        // Non-SNC flat mode presents exactly two nodes (DDR then MCDRAM above
        // it); with k == 1 the loop above already produced that layout.

        // Directory affinity always follows the full cluster count, even for
        // the software-transparent modes.
        let tiles_by_cluster = (0..cluster_mode.num_clusters() as u8)
            .map(|c| topo.tiles_in_cluster(cluster_mode, c))
            .collect::<Vec<_>>();
        let mut edc_quadrant = [0u8; NUM_EDCS];
        let mut edc_hemisphere = [0u8; NUM_EDCS];
        for e in 0..NUM_EDCS as u8 {
            let pos = topo.edc_position(e);
            edc_quadrant[e as usize] = topo.quadrant_of_pos(pos).0;
            edc_hemisphere[e as usize] = (pos.0 >= crate::topology::GRID_COLS / 2) as u8;
        }
        let edc_cluster = match cluster_mode.num_clusters() {
            2 => edc_hemisphere,
            4 => edc_quadrant,
            _ => [0; NUM_EDCS],
        };
        let edcs_by_cluster = (0..cluster_mode.num_clusters() as u8)
            .map(|c| {
                (0..NUM_EDCS as u8)
                    .filter(|&e| edc_cluster[e as usize] == c)
                    .collect()
            })
            .collect();
        let all_tiles = (0..topo.num_tiles() as u16).map(TileId).collect();

        AddressMap {
            cluster_mode,
            memory_mode,
            ddr_bytes: ddr_per * k as u64,
            mcdram_flat_bytes: mc_per * k as u64,
            mcdram_cache_bytes: mcdram_cache,
            nodes,
            tiles_by_cluster,
            edc_quadrant,
            edc_cluster,
            edcs_by_cluster,
            all_tiles,
        }
    }

    /// Total addressable bytes (cache-mode MCDRAM is not addressable).
    pub fn addressable_bytes(&self) -> u64 {
        self.ddr_bytes + self.mcdram_flat_bytes
    }

    /// Bytes of MCDRAM operating as memory-side cache.
    pub fn mcdram_cache_bytes(&self) -> u64 {
        self.mcdram_cache_bytes
    }

    /// Cluster mode the map was built for.
    pub fn cluster_mode(&self) -> ClusterMode {
        self.cluster_mode
    }

    /// Memory mode the map was built for.
    pub fn memory_mode(&self) -> MemoryMode {
        self.memory_mode
    }

    /// The NUMA nodes exposed to software.
    pub fn numa_nodes(&self) -> &[NumaNode] {
        &self.nodes
    }

    /// Address range backed by `kind` in `cluster` (cluster 0 when the mode
    /// has a single domain). Returns `None` if the kind is not addressable
    /// (e.g. MCDRAM in cache mode) or the cluster does not exist.
    pub fn region(&self, kind: NumaKind, cluster: u8) -> Option<Range<u64>> {
        self.nodes
            .iter()
            .find(|n| n.kind == kind && n.cluster == cluster)
            .map(|n| n.range.clone())
    }

    /// The NUMA node containing `paddr`.
    pub fn node_of(&self, paddr: u64) -> Option<&NumaNode> {
        self.nodes.iter().find(|n| n.range.contains(&paddr))
    }

    /// The NUMA node containing `paddr`, which must be addressable.
    fn expect_node(&self, paddr: u64) -> &NumaNode {
        self.node_of(paddr)
            .unwrap_or_else(|| panic!("address {paddr:#x} outside addressable range"))
    }

    /// Home directory and backing memory device of the line containing
    /// `paddr`, from one node lookup: the engine's one call per access.
    ///
    /// # Panics
    /// Panics if the address is outside the addressable range.
    pub fn resolve(&self, paddr: u64) -> (TileId, MemTarget) {
        let node = self.expect_node(paddr);
        let target = self.target_in(node, paddr);
        let line = paddr >> LINE_SHIFT;
        let h = splitmix64(line ^ 0xD1CE_D1CE);
        let home = match self.cluster_mode {
            ClusterMode::A2A => self.all_tiles[(h as usize) % self.all_tiles.len()],
            _ => {
                let cluster = self.home_cluster(node, paddr, target, h);
                let tiles = &self.tiles_by_cluster[cluster as usize];
                tiles[(h as usize >> 8) % tiles.len()]
            }
        };
        (home, target)
    }

    /// Resolve a physical address to its backing memory device.
    ///
    /// # Panics
    /// Panics if the address is outside the addressable range.
    pub fn mem_target(&self, paddr: u64) -> MemTarget {
        self.target_in(self.expect_node(paddr), paddr)
    }

    /// The device `paddr` interleaves to within its node.
    fn target_in(&self, node: &NumaNode, paddr: u64) -> MemTarget {
        let line = paddr >> LINE_SHIFT;
        let h = splitmix64(line);
        match (node.kind, self.cluster_mode.num_clusters()) {
            (NumaKind::Ddr, 1) => {
                // Uniform over all six channels.
                let ch = (h % 6) as u8;
                MemTarget::Ddr {
                    imc: ch / 3,
                    chan: ch % 3,
                }
            }
            (NumaKind::Ddr, 2 | 4) if self.cluster_mode.software_numa() => {
                // SNC: interleave over the three channels of the closest IMC.
                let imc = self.imc_for_cluster(node.cluster);
                MemTarget::Ddr {
                    imc,
                    chan: (h % 3) as u8,
                }
            }
            (NumaKind::Ddr, _) => {
                // Quadrant/Hemisphere: uniform over all channels (the
                // affinity shows up in the directory hash, not here).
                let ch = (h % 6) as u8;
                MemTarget::Ddr {
                    imc: ch / 3,
                    chan: ch % 3,
                }
            }
            (NumaKind::Mcdram, 1) => MemTarget::Mcdram { edc: (h % 8) as u8 },
            (NumaKind::Mcdram, _) if self.cluster_mode.software_numa() => {
                let edcs = self.edcs_for_cluster(node.cluster);
                MemTarget::Mcdram {
                    edc: edcs[(h as usize) % edcs.len()],
                }
            }
            (NumaKind::Mcdram, _) => MemTarget::Mcdram { edc: (h % 8) as u8 },
        }
    }

    /// The EDC acting as memory-side cache for `paddr` (cache/hybrid modes).
    /// The MCDRAM cache is direct-mapped on physical addresses; the EDC is
    /// selected by line hash, within the cluster for SNC modes.
    pub fn mcdram_cache_edc(&self, paddr: u64) -> u8 {
        let cluster = self.node_of(paddr).map_or(0, |n| n.cluster);
        self.cache_edc_in(cluster, paddr)
    }

    /// [`Self::mcdram_cache_edc`] for a line whose node's cluster is known.
    fn cache_edc_in(&self, cluster: u8, paddr: u64) -> u8 {
        let line = paddr >> LINE_SHIFT;
        let h = splitmix64(line ^ 0xC0FF_EE00);
        if self.cluster_mode.software_numa() {
            let edcs = self.edcs_for_cluster(cluster);
            edcs[(h as usize) % edcs.len()]
        } else {
            (h % 8) as u8
        }
    }

    /// The tile whose CHA is the home directory for the line containing
    /// `paddr` (§II-D, Fig. 3).
    ///
    /// # Panics
    /// Panics if the address is outside the addressable range.
    pub fn home_directory(&self, paddr: u64) -> TileId {
        self.resolve(paddr).0
    }

    /// Cluster in which the line is homed: the cluster of the memory device
    /// the line is fetched from, `target` unless the memory-side cache
    /// fronts all of memory.
    fn home_cluster(&self, node: &NumaNode, paddr: u64, target: MemTarget, h: u64) -> u8 {
        let device_cluster = |t: MemTarget| -> u8 {
            match t {
                MemTarget::Mcdram { edc } => self.edc_cluster[edc as usize],
                MemTarget::Ddr { imc, .. } => match self.cluster_mode.num_clusters() {
                    // Hemispheres follow the IMC side directly.
                    2 => imc,
                    // An IMC serves the two quadrants on its side; split them
                    // by hash so homes stay uniform.
                    _ => imc | ((h >> 16) as u8 & 1) << 1,
                },
            }
        };
        if self.memory_mode.has_mcdram_cache() && !self.memory_mode.has_flat_mcdram() {
            // Pure cache mode: lines are served from the MCDRAM cache EDC.
            let edc = self.cache_edc_in(node.cluster, paddr);
            device_cluster(MemTarget::Mcdram { edc })
        } else {
            device_cluster(target)
        }
    }

    /// IMC closest to a cluster: hemisphere index for 2 clusters; east/west
    /// bit of the quadrant for 4.
    fn imc_for_cluster(&self, cluster: u8) -> u8 {
        match self.cluster_mode.num_clusters() {
            2 => cluster,
            _ => cluster & 1,
        }
    }

    /// EDCs belonging to a cluster.
    fn edcs_for_cluster(&self, cluster: u8) -> &[u8] {
        &self.edcs_by_cluster[cluster as usize]
    }

    /// Quadrant of an EDC (used by the simulator for routing distances).
    pub fn edc_quadrant(&self, edc: u8) -> QuadrantId {
        QuadrantId(self.edc_quadrant[edc as usize])
    }
}

fn align_line(b: u64) -> u64 {
    b & !((1u64 << LINE_SHIFT) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memmode::HybridSplit;

    const MB: u64 = 1 << 20;

    fn map(cm: ClusterMode, mm: MemoryMode) -> AddressMap {
        let topo = Topology::new(32, 7);
        AddressMap::new(&topo, cm, mm, 1024 * MB, 256 * MB)
    }

    #[test]
    fn flat_layout_two_nodes() {
        let m = map(ClusterMode::Quadrant, MemoryMode::Flat);
        assert_eq!(m.numa_nodes().len(), 2);
        assert_eq!(m.numa_nodes()[0].kind, NumaKind::Ddr);
        assert_eq!(m.numa_nodes()[1].kind, NumaKind::Mcdram);
        // MCDRAM range sits above the DDR range.
        assert_eq!(m.numa_nodes()[0].range.end, m.numa_nodes()[1].range.start);
        assert_eq!(m.addressable_bytes(), 1280 * MB);
        assert_eq!(m.mcdram_cache_bytes(), 0);
    }

    #[test]
    fn cache_mode_hides_mcdram() {
        let m = map(ClusterMode::Quadrant, MemoryMode::Cache);
        assert_eq!(m.numa_nodes().len(), 1);
        assert_eq!(m.addressable_bytes(), 1024 * MB);
        assert_eq!(m.mcdram_cache_bytes(), 256 * MB);
    }

    #[test]
    fn snc4_flat_has_eight_nodes() {
        let m = map(ClusterMode::Snc4, MemoryMode::Flat);
        assert_eq!(m.numa_nodes().len(), 8);
        let ddr = m
            .numa_nodes()
            .iter()
            .filter(|n| n.kind == NumaKind::Ddr)
            .count();
        assert_eq!(ddr, 4);
        // Each cluster's two portions are contiguous (DDR then MCDRAM).
        for c in 0..4u8 {
            let d = m.region(NumaKind::Ddr, c).unwrap();
            let mc = m.region(NumaKind::Mcdram, c).unwrap();
            assert_eq!(d.end, mc.start, "cluster {c}");
        }
    }

    #[test]
    fn hybrid_splits_capacity() {
        let m = map(ClusterMode::A2A, MemoryMode::Hybrid(HybridSplit::Half));
        assert_eq!(m.mcdram_cache_bytes(), 128 * MB);
        assert_eq!(m.addressable_bytes(), 1024 * MB + 128 * MB);
    }

    #[test]
    fn ddr_interleave_covers_all_channels_a2a() {
        let m = map(ClusterMode::A2A, MemoryMode::Flat);
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            match m.mem_target(i * 64) {
                MemTarget::Ddr { imc, chan } => {
                    assert!(imc < 2 && chan < 3);
                    seen.insert((imc, chan));
                }
                t => panic!("DDR range resolved to {t:?}"),
            }
        }
        assert_eq!(seen.len(), 6, "all six channels used");
    }

    #[test]
    fn snc4_ddr_uses_closest_imc_only() {
        let m = map(ClusterMode::Snc4, MemoryMode::Flat);
        for c in 0..4u8 {
            let r = m.region(NumaKind::Ddr, c).unwrap();
            let expect_imc = c & 1;
            for i in 0..512u64 {
                match m.mem_target(r.start + i * 64) {
                    MemTarget::Ddr { imc, .. } => assert_eq!(imc, expect_imc, "cluster {c}"),
                    t => panic!("unexpected target {t:?}"),
                }
            }
        }
    }

    #[test]
    fn snc4_mcdram_stays_in_quadrant() {
        let m = map(ClusterMode::Snc4, MemoryMode::Flat);
        for c in 0..4u8 {
            let r = m.region(NumaKind::Mcdram, c).unwrap();
            for i in 0..512u64 {
                match m.mem_target(r.start + i * 64) {
                    MemTarget::Mcdram { edc } => {
                        assert_eq!(m.edc_quadrant(edc).0, c, "cluster {c} edc {edc}")
                    }
                    t => panic!("unexpected target {t:?}"),
                }
            }
        }
    }

    #[test]
    fn mcdram_flat_covers_all_edcs_uniformly() {
        let m = map(ClusterMode::Quadrant, MemoryMode::Flat);
        let r = m.region(NumaKind::Mcdram, 0).unwrap();
        let mut counts = [0usize; 8];
        let n = 80_000u64;
        for i in 0..n {
            if let MemTarget::Mcdram { edc } = m.mem_target(r.start + i * 64) {
                counts[edc as usize] += 1;
            }
        }
        for (e, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.125).abs() < 0.02, "edc {e} frac {frac}");
        }
    }

    #[test]
    fn home_directory_in_range_and_deterministic() {
        for cm in ClusterMode::ALL {
            let m = map(cm, MemoryMode::Flat);
            for i in 0..2048u64 {
                let a = i * 64;
                let h1 = m.home_directory(a);
                let h2 = m.home_directory(a);
                assert_eq!(h1, h2);
                assert!((h1.0 as usize) < 32);
            }
        }
    }

    #[test]
    fn resolve_agrees_with_its_views() {
        for cm in ClusterMode::ALL {
            for mm in MemoryMode::CANONICAL {
                let m = map(cm, mm);
                let step = m.addressable_bytes() / 1021;
                for i in 0..1021u64 {
                    let a = (i * step) & !63;
                    assert_eq!(
                        m.resolve(a),
                        (m.home_directory(a), m.mem_target(a)),
                        "{cm:?} {mm:?} {a:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn a2a_homes_spread_over_all_tiles() {
        let m = map(ClusterMode::A2A, MemoryMode::Flat);
        let mut seen = std::collections::HashSet::new();
        for i in 0..8192u64 {
            seen.insert(m.home_directory(i * 64));
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn quadrant_homes_follow_memory_quadrant() {
        let topo = Topology::new(32, 7);
        let m = AddressMap::new(
            &topo,
            ClusterMode::Quadrant,
            MemoryMode::Flat,
            1024 * MB,
            256 * MB,
        );
        // For MCDRAM lines the home quadrant must equal the EDC's quadrant.
        let r = m.region(NumaKind::Mcdram, 0).unwrap();
        for i in 0..2048u64 {
            let a = r.start + i * 64;
            if let MemTarget::Mcdram { edc } = m.mem_target(a) {
                let home = m.home_directory(a);
                assert_eq!(
                    topo.tile_quadrant(home).0,
                    m.edc_quadrant(edc).0,
                    "line {a:#x}"
                );
            }
        }
    }

    #[test]
    fn cache_mode_cache_edc_stable() {
        let m = map(ClusterMode::Snc4, MemoryMode::Cache);
        for i in 0..1024u64 {
            let a = i * 64;
            assert_eq!(m.mcdram_cache_edc(a), m.mcdram_cache_edc(a));
            assert!(m.mcdram_cache_edc(a) < 8);
        }
    }

    #[test]
    #[should_panic(expected = "outside addressable range")]
    fn out_of_range_panics() {
        let m = map(ClusterMode::A2A, MemoryMode::Flat);
        m.mem_target(u64::MAX - 1024);
    }

    #[test]
    fn node_of_finds_cluster() {
        let m = map(ClusterMode::Snc2, MemoryMode::Flat);
        let r = m.region(NumaKind::Ddr, 1).unwrap();
        let n = m.node_of(r.start + 100).unwrap();
        assert_eq!(n.cluster, 1);
        assert_eq!(n.kind, NumaKind::Ddr);
    }
}
