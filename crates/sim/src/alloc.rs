//! Bump allocation over the simulated physical address space.
//!
//! Simulated programs address physical memory directly (no paging); the
//! arena hands out line-aligned, non-overlapping ranges from the NUMA
//! regions of the machine's address map. In flat mode a buffer is placed "in
//! DDR" or "in MCDRAM" simply by allocating from the corresponding region —
//! exactly the `numactl`/`hbwmalloc` choice the paper makes. The paper does
//! *not* use NUMA-aware per-cluster allocation in SNC modes, so the default
//! allocation spreads over clusters round-robin.

use knl_arch::{AddressMap, NumaKind, LINE_BYTES};

/// Bump allocator over a machine's NUMA regions.
#[derive(Debug, Clone)]
pub struct Arena {
    /// (kind, next free address, end), one per NUMA node in cluster order.
    regions: Vec<Region>,
    /// Round-robin cursor per kind for cluster-less allocation.
    rr: [usize; 2],
}

#[derive(Debug, Clone)]
struct Region {
    kind: NumaKind,
    next: u64,
    end: u64,
}

fn kind_idx(k: NumaKind) -> usize {
    match k {
        NumaKind::Ddr => 0,
        NumaKind::Mcdram => 1,
    }
}

impl Arena {
    /// Build an arena over a machine's NUMA regions.
    pub fn new(map: &AddressMap) -> Self {
        let regions = map
            .numa_nodes()
            .iter()
            .map(|n| Region {
                kind: n.kind,
                next: n.range.start,
                end: n.range.end,
            })
            .collect();
        Arena {
            regions,
            rr: [0, 0],
        }
    }

    /// Allocate `bytes` (rounded up to whole lines) from memory of `kind`,
    /// round-robin over clusters. Returns the base address.
    ///
    /// # Panics
    /// Panics if no region of `kind` has room (the simulated machine is out
    /// of that memory) or the kind is not addressable in this mode.
    pub fn alloc(&mut self, kind: NumaKind, bytes: u64) -> u64 {
        let candidates: Vec<usize> = self
            .regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind == kind)
            .map(|(i, _)| i)
            .collect();
        assert!(
            !candidates.is_empty(),
            "{kind:?} is not addressable in this memory mode"
        );
        let need = bytes.div_ceil(LINE_BYTES) * LINE_BYTES;
        let n = candidates.len();
        let start = self.rr[kind_idx(kind)];
        for off in 0..n {
            let i = candidates[(start + off) % n];
            let r = &mut self.regions[i];
            if r.end - r.next >= need {
                let addr = r.next;
                r.next += need;
                self.rr[kind_idx(kind)] = (start + off + 1) % n;
                return addr;
            }
        }
        panic!("simulated {kind:?} exhausted allocating {bytes} bytes");
    }

    /// Remaining bytes of `kind` across all clusters.
    pub fn remaining(&self, kind: NumaKind) -> u64 {
        self.regions
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.end - r.next)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::{ClusterMode, MachineConfig, MemoryMode};

    fn arena(cm: ClusterMode, mm: MemoryMode) -> Arena {
        let cfg = MachineConfig::knl7210(cm, mm);
        let topo = cfg.topology();
        Arena::new(&cfg.address_map(&topo))
    }

    #[test]
    fn alloc_line_aligned_and_disjoint() {
        let mut a = arena(ClusterMode::Quadrant, MemoryMode::Flat);
        let x = a.alloc(NumaKind::Ddr, 100);
        let y = a.alloc(NumaKind::Ddr, 100);
        assert_eq!(x % 64, 0);
        assert_eq!(y % 64, 0);
        assert!(y >= x + 128, "allocations must not overlap");
    }

    #[test]
    fn mcdram_alloc_lands_in_mcdram_region() {
        let mut a = arena(ClusterMode::Quadrant, MemoryMode::Flat);
        let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
        let topo = cfg.topology();
        let map = cfg.address_map(&topo);
        let x = a.alloc(NumaKind::Mcdram, 4096);
        let node = map.node_of(x).unwrap();
        assert_eq!(node.kind, NumaKind::Mcdram);
    }

    #[test]
    fn snc4_round_robin_spreads_clusters() {
        let mut a = arena(ClusterMode::Snc4, MemoryMode::Flat);
        let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
        let topo = cfg.topology();
        let map = cfg.address_map(&topo);
        let clusters: std::collections::BTreeSet<u8> = (0..4)
            .map(|_| {
                let x = a.alloc(NumaKind::Ddr, 4096);
                map.node_of(x).unwrap().cluster
            })
            .collect();
        assert_eq!(
            clusters.len(),
            4,
            "four allocations should hit four clusters"
        );
    }

    #[test]
    fn explicit_cluster() {
        let mut a = arena(ClusterMode::Snc4, MemoryMode::Flat);
        let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
        let topo = cfg.topology();
        let map = cfg.address_map(&topo);
        // Round-robin visits the clusters in order: the third MCDRAM
        // allocation lands in cluster 2.
        let x = (0..3)
            .map(|_| a.alloc(NumaKind::Mcdram, 64))
            .last()
            .unwrap();
        let node = map.node_of(x).unwrap();
        assert_eq!((node.kind, node.cluster), (NumaKind::Mcdram, 2));
    }

    #[test]
    #[should_panic(expected = "not addressable")]
    fn cache_mode_has_no_mcdram_region() {
        let mut a = arena(ClusterMode::Quadrant, MemoryMode::Cache);
        a.alloc(NumaKind::Mcdram, 64);
    }

    #[test]
    fn remaining_decreases() {
        let mut a = arena(ClusterMode::A2A, MemoryMode::Flat);
        let before = a.remaining(NumaKind::Ddr);
        a.alloc(NumaKind::Ddr, 1 << 20);
        assert_eq!(a.remaining(NumaKind::Ddr), before - (1 << 20));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut a = arena(ClusterMode::A2A, MemoryMode::Flat);
        let all = a.remaining(NumaKind::Mcdram);
        a.alloc(NumaKind::Mcdram, all);
        a.alloc(NumaKind::Mcdram, 64);
    }
}
