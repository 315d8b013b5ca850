//! Architecture description of the Intel Xeon Phi Knights Landing (KNL)
//! memory system, as characterized in Ramos & Hoefler, *Capability Models for
//! Manycore Memory Systems: A Case-Study with Xeon Phi KNL* (IPDPS 2017).
//!
//! This crate is pure description — no simulation. It captures:
//!
//! * the five **cluster modes** (All-to-all, Quadrant, Hemisphere, SNC-4,
//!   SNC-2) that govern how cache-line addresses are assigned to the
//!   distributed tag directories (§II-D of the paper),
//! * the three **memory modes** (Flat, Cache, Hybrid) of the 16 GB on-package
//!   MCDRAM (§II-C),
//! * the **mesh topology**: 38 tile slots in the 2D "mesh of rings", EDC and
//!   IMC stops, yield-disabled tiles, quadrant/hemisphere membership (§II-B),
//! * **address maps**: line-interleaving over memory channels and the
//!   address → home-directory hash for every cluster mode,
//! * **thread-pinning schedules** (scatter / fill-tiles / fill-cores) used
//!   throughout the paper's evaluation, and
//! * primitive **timing parameters** with a `knl7210()` calibration chosen so
//!   that the benchmark suite, *run on the simulator*, reproduces the paper's
//!   Tables I and II.

pub mod address;
pub mod cluster;
pub mod config;
pub mod ids;
pub mod memmode;
pub mod protocol;
pub mod reduce;
pub mod rng;
pub mod schedule;
pub mod timing;
pub mod topology;

pub use address::{AddressMap, Backing, MemTarget, NumaKind, NumaNode};
pub use cluster::ClusterMode;
pub use config::MachineConfig;
pub use ids::{CoreId, HwThreadId, QuadrantId, TileId};
pub use memmode::{HybridSplit, MemoryMode};
pub use protocol::ProtocolKind;
pub use reduce::Reducer;
pub use rng::SplitMixRng;
pub use schedule::Schedule;
pub use timing::TimingParams;
pub use topology::{Stop, StopKind, Topology};

/// Bytes per cache line on KNL.
pub const LINE_BYTES: u64 = 64;
/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// Round an address down to its cache-line base.
pub fn line_base(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

/// Number of cache lines covering `bytes` starting at a line boundary.
pub fn lines_for(bytes: u64) -> u64 {
    bytes.div_ceil(LINE_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_base_masks_low_bits() {
        assert_eq!(line_base(0), 0);
        assert_eq!(line_base(63), 0);
        assert_eq!(line_base(64), 64);
        assert_eq!(line_base(130), 128);
    }

    #[test]
    fn lines_for_rounds_up() {
        assert_eq!(lines_for(0), 0);
        assert_eq!(lines_for(1), 1);
        assert_eq!(lines_for(64), 1);
        assert_eq!(lines_for(65), 2);
    }
}
