//! A complete machine configuration: one of the paper's fifteen
//! (cluster × memory) combinations plus capacities and timing.

use crate::address::AddressMap;
use crate::cluster::ClusterMode;
use crate::memmode::MemoryMode;
use crate::protocol::ProtocolKind;
use crate::timing::TimingParams;
use crate::topology::Topology;

const MB: u64 = 1 << 20;
const GB: u64 = 1 << 30;

/// Machine configuration.
///
/// By default capacities are *scaled down* (1 GiB DDR, 256 MiB MCDRAM) so the
/// simulator's tag structures stay small; latencies and bandwidths are
/// unscaled, and every capacity-sensitive experiment scales its working sets
/// by the same factor (documented in DESIGN.md / EXPERIMENTS.md). Use
/// [`MachineConfig::with_real_capacities`] for the full 96 GB + 16 GB machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Directory-affinity (NUMA exposure) mode.
    pub cluster: ClusterMode,
    /// MCDRAM mode.
    pub memory: MemoryMode,
    /// Coherence protocol the tag directories run (MESIF on real KNL).
    pub protocol: ProtocolKind,
    /// Active tiles (KNL 7210: 32 tiles = 64 cores).
    pub active_tiles: usize,
    /// Seed choosing which of the 38 slots are yield-disabled.
    pub disable_seed: u64,
    /// DDR4 capacity (scaled by default; see struct docs).
    pub ddr_bytes: u64,
    /// MCDRAM capacity (scaled by default).
    pub mcdram_bytes: u64,
    /// Primitive timing parameters.
    pub timing: TimingParams,
}

impl MachineConfig {
    /// The KNL 7210 of the paper (64 cores @ 1.3 GHz) in the given modes,
    /// with scaled capacities.
    pub fn knl7210(cluster: ClusterMode, memory: MemoryMode) -> Self {
        MachineConfig {
            cluster,
            memory,
            protocol: ProtocolKind::Mesif,
            active_tiles: 32,
            disable_seed: 0x7210,
            ddr_bytes: GB,
            mcdram_bytes: 256 * MB,
            timing: TimingParams::knl7210(),
        }
    }

    /// Same machine with the real 96 GB DDR + 16 GB MCDRAM capacities.
    pub fn with_real_capacities(mut self) -> Self {
        self.ddr_bytes = 96 * GB;
        self.mcdram_bytes = 16 * GB;
        self
    }

    /// All fifteen configurations of the paper (5 cluster × 3 memory modes).
    pub fn all_fifteen() -> Vec<MachineConfig> {
        let mut v = Vec::with_capacity(15);
        for cm in ClusterMode::ALL {
            for mm in MemoryMode::CANONICAL {
                v.push(MachineConfig::knl7210(cm, mm));
            }
        }
        v
    }

    /// Same machine running a different coherence protocol.
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Instantiate the die topology.
    pub fn topology(&self) -> Topology {
        Topology::new(self.active_tiles, self.disable_seed)
    }

    /// Build the address map for this configuration.
    pub fn address_map(&self, topo: &Topology) -> AddressMap {
        AddressMap::new(
            topo,
            self.cluster,
            self.memory,
            self.ddr_bytes,
            self.mcdram_bytes,
        )
    }

    /// Number of active cores.
    pub fn num_cores(&self) -> usize {
        self.active_tiles * 2
    }

    /// Number of hardware threads (4 per core).
    pub fn num_hw_threads(&self) -> usize {
        self.num_cores() * 4
    }

    /// Human-readable configuration label, e.g. `SNC4-flat`.
    pub fn label(&self) -> String {
        format!("{}-{}", self.cluster.name(), self.memory.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_configs() {
        let all = MachineConfig::all_fifteen();
        assert_eq!(all.len(), 15);
        let labels: std::collections::HashSet<String> = all.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 15, "labels must be distinct");
    }

    #[test]
    fn knl7210_has_64_cores() {
        let c = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
        assert_eq!(c.num_cores(), 64);
        assert_eq!(c.num_hw_threads(), 256);
        assert_eq!(c.label(), "SNC4-flat");
    }

    #[test]
    fn real_capacities() {
        let c =
            MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Cache).with_real_capacities();
        assert_eq!(c.ddr_bytes, 96 * GB);
        assert_eq!(c.mcdram_bytes, 16 * GB);
    }

    #[test]
    fn topology_and_map_construct() {
        let c = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
        let topo = c.topology();
        assert_eq!(topo.num_tiles(), 32);
        let map = c.address_map(&topo);
        assert!(map.addressable_bytes() > GB);
    }
}
