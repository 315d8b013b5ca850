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
//! leaves a tile, so a coherent access makes one [`AddressMap::resolve`]
//! call (a memory write one [`AddressMap::backing`]), a stream kernel one
//! [`AddressMap::resolve_run`] or [`AddressMap::backing_run`] per run of
//! lines, and nothing on those calls allocates or divides. All four are
//! the one per-line rule. Each cluster's tile and EDC list is built once, in
//! [`AddressMap::new`], with an exact [`Reducer`] for its length, and the
//! memory-side-cache EDC a line's home is hashed from is handed back with
//! it. [`AddressMap::home_directory`], [`AddressMap::mem_target`] and
//! [`AddressMap::mcdram_cache_edc`] are views of the same rule for tests
//! and tools.

use crate::cluster::ClusterMode;
use crate::ids::{QuadrantId, TileId};
use crate::memmode::MemoryMode;
use crate::reduce::Reducer;
use crate::topology::{splitmix64, Topology, DDR_CHANNELS_PER_IMC, NUM_EDCS, NUM_IMCS, TILE_SLOTS};
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

/// Where a line's data lives: its memory device and, when the memory-side
/// cache fronts that device, the EDC caching it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Backing {
    /// The device the line interleaves to.
    pub target: MemTarget,
    /// The memory-side-cache EDC of the line: `Some` exactly when the
    /// memory mode caches at least one line of DDR in MCDRAM and `target`
    /// is DDR.
    pub mcache_edc: Option<u8>,
}

/// A list of at most `N` items (`N` a power of two) picked from by
/// `hash mod len`: the reduction precomputed and the items inline, so a
/// pick is a reduction and one load, with no bounds check.
#[derive(Debug, Clone)]
struct Picker<T, const N: usize> {
    items: [T; N],
    len: Reducer,
}

impl<T: Copy, const N: usize> Picker<T, N> {
    /// # Panics
    /// Panics if `list` is empty (a cluster without active tiles) or
    /// longer than `N`.
    fn new(list: &[T]) -> Self {
        assert!(
            !list.is_empty() && list.len() <= N,
            "a hash needs 1..={N} items to pick from, got {}",
            list.len()
        );
        let mut items = [list[0]; N];
        items[..list.len()].copy_from_slice(list);
        Picker {
            items,
            len: Reducer::new(list.len() as u64),
        }
    }

    #[inline]
    fn pick(&self, hash: u64) -> T {
        self.items[self.len.remainder(hash) as usize % N]
    }
}

/// Room for one cluster's tiles (at most all 38 slots).
const TILES: usize = TILE_SLOTS.next_power_of_two();

/// How the lines of one NUMA node spread: the rule of §II-C for its kind
/// and cluster, as two lists a line hash picks from.
#[derive(Debug, Clone)]
struct NodeRule {
    /// The devices the node's lines interleave over: all six DDR channels,
    /// the three of the closest IMC (SNC), all eight EDCs, or the
    /// cluster's EDCs (SNC).
    devices: Picker<MemTarget, 8>,
    /// The EDCs a memory-side cache spreads the node's lines over: the
    /// cluster's in SNC modes, all eight otherwise.
    cache_edcs: Picker<u8, NUM_EDCS>,
    /// A DDR node behind a memory-side cache of at least one line.
    fronted: bool,
}

/// Address map for one machine configuration.
#[derive(Debug, Clone)]
pub struct AddressMap {
    cluster_mode: ClusterMode,
    memory_mode: MemoryMode,
    ddr_bytes: u64,
    mcdram_flat_bytes: u64,
    mcdram_cache_bytes: u64,
    nodes: Vec<NumaNode>,
    /// The interleave rule of each node, indexed like `nodes`.
    rules: Vec<NodeRule>,
    /// Divides an address by the bytes of one cluster's pair of nodes (DDR
    /// then MCDRAM): the layout [`AddressMap::new`] lays out, so the node
    /// of an address is arithmetic, not a search.
    cluster_span: Reducer,
    /// DDR bytes at the start of each cluster's span.
    ddr_per_cluster: u64,
    /// Nodes per cluster: 2 with flat MCDRAM, 1 without.
    nodes_per_cluster: usize,
    /// Active tiles in each cluster of the current mode (all of them in
    /// cluster 0 for A2A).
    tiles_by_cluster: Vec<Picker<TileId, TILES>>,
    /// The cluster a line is homed in, by the device it is fetched from
    /// (`MemTarget::device_index`) and bit 16 of its home hash: an EDC's
    /// cluster; an IMC's hemisphere, or one of the two quadrants on its
    /// side split by the hash bit so homes stay uniform; 0 for A2A.
    home_cluster: [[u8; 2]; NUM_MEM_DEVICES],
    /// Shift of the home hash before the tile pick: the whole hash over all
    /// tiles in A2A, the hash without its low byte within a cluster.
    home_shift: u32,
    /// Pure cache mode: lines are fetched from, and homed by, their
    /// memory-side-cache EDC.
    home_by_cache_edc: bool,
    /// Quadrant of each EDC.
    edc_quadrant: [u8; NUM_EDCS],
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
        let snc = cluster_mode.software_numa();
        // Quadrant/Hemisphere are software-transparent: only SNC modes split
        // the address space into per-cluster NUMA ranges.
        let k = if snc { cluster_mode.num_clusters() } else { 1 };
        let clusters = cluster_mode.num_clusters();

        // Directory affinity always follows the full cluster count, even for
        // the software-transparent modes.
        let tiles_by_cluster = (0..clusters as u8)
            .map(|c| Picker::new(&topo.tiles_in_cluster(cluster_mode, c)))
            .collect();
        let mut edc_quadrant = [0u8; NUM_EDCS];
        let mut edc_hemisphere = [0u8; NUM_EDCS];
        for e in 0..NUM_EDCS as u8 {
            let pos = topo.edc_position(e);
            edc_quadrant[e as usize] = topo.quadrant_of_pos(pos).0;
            edc_hemisphere[e as usize] = (pos.0 >= crate::topology::GRID_COLS / 2) as u8;
        }
        let edc_cluster = match clusters {
            2 => edc_hemisphere,
            4 => edc_quadrant,
            _ => [0; NUM_EDCS],
        };
        let cluster_edcs = |c: u8| -> Vec<u8> {
            (0..NUM_EDCS as u8)
                .filter(|&e| !snc || edc_cluster[e as usize] == c)
                .collect()
        };
        // The IMC closest to a cluster: its hemisphere for 2 clusters, the
        // east/west bit of its quadrant for 4.
        let imc_of = |c: u8| if clusters == 2 { c } else { c & 1 };

        let mut home_cluster = [[0u8; 2]; NUM_MEM_DEVICES];
        if clusters > 1 {
            for imc in 0..NUM_IMCS as u8 {
                let side = if clusters == 2 {
                    [imc; 2]
                } else {
                    [imc, imc | 2]
                };
                for chan in 0..DDR_CHANNELS_PER_IMC as u8 {
                    home_cluster[MemTarget::Ddr { imc, chan }.device_index()] = side;
                }
            }
            for edc in 0..NUM_EDCS as u8 {
                let c = edc_cluster[edc as usize];
                home_cluster[MemTarget::Mcdram { edc }.device_index()] = [c; 2];
            }
        }

        let ddr_per = align_line(ddr_bytes / k as u64);
        let mc_per = align_line(mcdram_flat / k as u64);
        let fronted = mcdram_cache >> LINE_SHIFT > 0;
        let (mut nodes, mut rules) = (Vec::new(), Vec::new());
        let mut cursor = 0u64;
        for c in 0..k as u8 {
            let ddr: Vec<MemTarget> = if snc {
                // SNC: interleave over the three channels of the closest IMC.
                let imc = imc_of(c);
                (0..DDR_CHANNELS_PER_IMC as u8)
                    .map(|chan| MemTarget::Ddr { imc, chan })
                    .collect()
            } else {
                // Uniform over all six channels (Quadrant/Hemisphere's
                // affinity shows up in the directory hash, not here).
                (0..(NUM_IMCS * DDR_CHANNELS_PER_IMC) as u8)
                    .map(|ch| MemTarget::Ddr {
                        imc: ch / 3,
                        chan: ch % 3,
                    })
                    .collect()
            };
            let mcdram: Vec<MemTarget> = cluster_edcs(c)
                .into_iter()
                .map(|edc| MemTarget::Mcdram { edc })
                .collect();
            for (kind, bytes, devices) in [
                (NumaKind::Ddr, ddr_per, ddr),
                (NumaKind::Mcdram, mc_per, mcdram),
            ] {
                if kind == NumaKind::Mcdram && mc_per == 0 {
                    continue;
                }
                nodes.push(NumaNode {
                    id: nodes.len(),
                    kind,
                    cluster: c,
                    range: cursor..cursor + bytes,
                });
                rules.push(NodeRule {
                    devices: Picker::new(&devices),
                    cache_edcs: Picker::new(&cluster_edcs(c)),
                    fronted: fronted && kind == NumaKind::Ddr,
                });
                cursor += bytes;
            }
        }
        // Non-SNC flat mode presents exactly two nodes (DDR then MCDRAM above
        // it); with k == 1 the loop above already produced that layout.

        AddressMap {
            cluster_mode,
            memory_mode,
            ddr_bytes: ddr_per * k as u64,
            mcdram_flat_bytes: mc_per * k as u64,
            mcdram_cache_bytes: mcdram_cache,
            nodes,
            rules,
            cluster_span: Reducer::new((ddr_per + mc_per).max(1)),
            ddr_per_cluster: ddr_per,
            nodes_per_cluster: if mc_per > 0 { 2 } else { 1 },
            tiles_by_cluster,
            home_cluster,
            home_shift: if clusters == 1 { 0 } else { 8 },
            home_by_cache_edc: memory_mode.has_mcdram_cache() && !memory_mode.has_flat_mcdram(),
            edc_quadrant,
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

    /// Index into `nodes` of the node containing `paddr`.
    #[inline]
    fn node_index(&self, paddr: u64) -> Option<usize> {
        if paddr >= self.addressable_bytes() {
            return None;
        }
        let cluster = self.cluster_span.quotient(paddr);
        let offset = paddr - cluster * self.cluster_span.divisor();
        let mcdram = (offset >= self.ddr_per_cluster) as usize;
        Some(cluster as usize * self.nodes_per_cluster + mcdram)
    }

    /// The NUMA node containing `paddr`.
    pub fn node_of(&self, paddr: u64) -> Option<&NumaNode> {
        self.node_index(paddr).map(|i| &self.nodes[i])
    }

    /// The rule of the node containing `paddr`, which must be addressable.
    #[inline]
    fn rule_of(&self, paddr: u64) -> &NodeRule {
        let node = self
            .node_index(paddr)
            .unwrap_or_else(|| panic!("address {paddr:#x} outside addressable range"));
        &self.rules[node]
    }

    /// Home directory and backing of the line containing `paddr`, from one
    /// node lookup: the engine's one call per coherent access.
    ///
    /// # Panics
    /// Panics if the address is outside the addressable range.
    #[inline(always)]
    pub fn resolve(&self, paddr: u64) -> (TileId, Backing) {
        self.resolve_in(self.rule_of(paddr), paddr >> LINE_SHIFT)
    }

    /// The backing of the line containing `paddr`, without its home: what
    /// a write to memory needs.
    ///
    /// # Panics
    /// Panics if the address is outside the addressable range.
    #[inline(always)]
    pub fn backing(&self, paddr: u64) -> Backing {
        self.backing_in(self.rule_of(paddr), paddr >> LINE_SHIFT)
    }

    /// [`AddressMap::resolve`] of `out.len()` consecutive lines, the first
    /// the one containing `paddr`: one node lookup for a run inside one
    /// node, one per line for a run that straddles a node. What a stream
    /// kernel asks for its loaded operands.
    ///
    /// # Panics
    /// Panics if a line of the run is outside the addressable range.
    pub fn resolve_run(&self, paddr: u64, out: &mut [(TileId, Backing)]) {
        self.run(paddr, out, Self::resolve_in)
    }

    /// [`AddressMap::backing`] of `out.len()` consecutive lines, the first
    /// the one containing `paddr`, with the node lookups of
    /// [`AddressMap::resolve_run`]: what a stream kernel asks for its
    /// stored operand.
    ///
    /// # Panics
    /// Panics if a line of the run is outside the addressable range.
    pub fn backing_run(&self, paddr: u64, out: &mut [Backing]) {
        self.run(paddr, out, Self::backing_in)
    }

    /// Fill `out` with `line_fn` of consecutive lines from `paddr`'s. Nodes
    /// are contiguous ranges, so a run whose first and last lines share a
    /// node lies inside it and takes that node's rule; a run across a
    /// node's end (or out of the map) looks each line's node up.
    #[inline(always)]
    fn run<T>(&self, paddr: u64, out: &mut [T], line_fn: impl Fn(&Self, &NodeRule, u64) -> T) {
        let first = paddr >> LINE_SHIFT;
        let last = first + (out.len() as u64).saturating_sub(1);
        let node = self.node_index(paddr);
        let one_rule = node
            .filter(|_| self.node_index(last << LINE_SHIFT) == node)
            .map(|n| &self.rules[n]);
        for (line, slot) in (first..).zip(out) {
            let rule = one_rule.unwrap_or_else(|| self.rule_of(line << LINE_SHIFT));
            *slot = line_fn(self, rule, line);
        }
    }

    /// The §II-C/D rule for one line of a node: its backing, and its home
    /// derived from the device it is fetched from.
    #[inline(always)]
    fn resolve_in(&self, rule: &NodeRule, line: u64) -> (TileId, Backing) {
        let backing = self.backing_in(rule, line);
        let h = splitmix64(line ^ 0xD1CE_D1CE);
        // The device the line is fetched from: its memory-side-cache EDC
        // in pure cache mode (hashed here only if the cache is under a
        // line), its target otherwise.
        let source = if self.home_by_cache_edc {
            let edc = backing.mcache_edc.unwrap_or_else(|| cache_edc(rule, line));
            MemTarget::Mcdram { edc }
        } else {
            backing.target
        };
        let cluster = self.home_cluster[source.device_index()][(h >> 16) as usize & 1];
        let home = self.tiles_by_cluster[cluster as usize].pick(h >> self.home_shift);
        (home, backing)
    }

    #[inline(always)]
    fn backing_in(&self, rule: &NodeRule, line: u64) -> Backing {
        Backing {
            target: rule.devices.pick(splitmix64(line)),
            mcache_edc: rule.fronted.then(|| cache_edc(rule, line)),
        }
    }

    /// Resolve a physical address to its backing memory device.
    ///
    /// # Panics
    /// Panics if the address is outside the addressable range.
    pub fn mem_target(&self, paddr: u64) -> MemTarget {
        self.backing(paddr).target
    }

    /// The EDC acting as memory-side cache for `paddr` (cache/hybrid modes).
    /// The MCDRAM cache is direct-mapped on physical addresses; the EDC is
    /// selected by line hash, within the cluster for SNC modes (cluster 0
    /// for an address outside every node).
    pub fn mcdram_cache_edc(&self, paddr: u64) -> u8 {
        let rule = &self.rules[self.node_index(paddr).unwrap_or(0)];
        cache_edc(rule, paddr >> LINE_SHIFT)
    }

    /// The tile whose CHA is the home directory for the line containing
    /// `paddr` (§II-D, Fig. 3).
    ///
    /// # Panics
    /// Panics if the address is outside the addressable range.
    pub fn home_directory(&self, paddr: u64) -> TileId {
        self.resolve(paddr).0
    }

    /// Quadrant of an EDC (used by the simulator for routing distances).
    pub fn edc_quadrant(&self, edc: u8) -> QuadrantId {
        QuadrantId(self.edc_quadrant[edc as usize])
    }
}

/// The memory-side-cache EDC of `line` under a node's rule.
#[inline]
fn cache_edc(rule: &NodeRule, line: u64) -> u8 {
    rule.cache_edcs.pick(splitmix64(line ^ 0xC0FF_EE00))
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
                    let (home, backing) = m.resolve(a);
                    let fronted = mm.has_mcdram_cache() && !backing.target.is_mcdram();
                    assert_eq!(
                        (home, backing),
                        (m.home_directory(a), m.backing(a)),
                        "{cm:?} {mm:?} {a:#x}"
                    );
                    assert_eq!(backing.target, m.mem_target(a));
                    assert_eq!(
                        backing.mcache_edc,
                        fronted.then(|| m.mcdram_cache_edc(a)),
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
