//! Primitive timing parameters of the simulated machine.
//!
//! These are *not* the capability numbers of the paper's Tables I/II — they
//! are lower-level quantities (per-hop cost, directory occupancy, device
//! latencies and service rates) from which the table numbers *emerge* when
//! the benchmark suite runs on the simulator. `knl7210()` is calibrated so
//! the emergent numbers land near the paper's (see the calibration tests in
//! `knl-benchsuite`).
//!
//! All times are integer picoseconds; service rates are picoseconds per
//! 64-byte line.

/// Primitive timing parameters (picoseconds / ps-per-line).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingParams {
    // ---- core ----
    /// Minimum gap between consecutive memory-op issues from one core
    /// (two load ports ⇒ half a cycle when vectorized).
    pub issue_gap_ps: u64,
    /// Maximum outstanding non-temporal stores (write-combining buffers).
    pub max_nt_outstanding: u32,

    // ---- L1 ----
    /// L1 data-cache hit latency.
    pub l1_hit_ps: u64,

    // ---- same-tile L2 ----
    /// L2 hit latency for a line in S or F state.
    pub l2_sf_ps: u64,
    /// Extra cost when the line is in E state (ownership bookkeeping).
    pub l2_e_extra_ps: u64,
    /// Extra cost when the line is Modified in the tile (write-back).
    pub l2_m_extra_ps: u64,
    /// Time for the L2 to declare a miss and emit a mesh request.
    pub l2_miss_detect_ps: u64,

    // ---- mesh ----
    /// Per-hop traversal cost on the mesh rings.
    pub hop_ps: u64,
    /// Cost to inject a message at a ring stop (waiting for a gap).
    pub inject_ps: u64,

    /// Per-message ring occupancy for the link-occupancy fabric ablation
    /// (0 = analytic contention-free fabric, the default; the paper
    /// measured no congestion).
    pub mesh_ring_service_ps: u64,

    // ---- distributed directory (CHA) ----
    /// Tag-directory lookup latency at the home CHA.
    pub cha_lookup_ps: u64,
    /// Per-request serialization at the home CHA when several requests race
    /// for the same line (this produces the contention law β of Table I).
    pub cha_line_serialize_ps: u64,

    // ---- remote tile service ----
    /// Remote L2 read-out (S/F) once the request arrives.
    pub remote_l2_ps: u64,
    /// Extra for E (exclusivity downgrade).
    pub remote_e_extra_ps: u64,
    /// Extra for M (forced write-back / downgrade-to-shared).
    pub remote_m_extra_ps: u64,
    /// Invalidation round penalty charged to a write gaining ownership per
    /// sharing tile.
    pub invalidate_per_sharer_ps: u64,
    /// Update round penalty charged per sharing tile by update-based
    /// protocols (Dragon): like an invalidation but carrying the 64-byte
    /// payload. Unused by invalidation-based protocols (MESIF default).
    pub update_per_sharer_ps: u64,
    /// Cache-line fill into the requesting L1/L2 on arrival.
    pub fill_ps: u64,

    // ---- memory devices ----
    /// DDR4 device access latency (row activation etc.).
    pub ddr_lat_ps: u64,
    /// MCDRAM device access latency (higher than DDR on KNL).
    pub mcdram_lat_ps: u64,
    /// DDR service time per line, reads.
    pub ddr_read_ps_per_line: u64,
    /// DDR service time per line, writes in a write-only streak (bus
    /// turnaround/ODT bound: ~36 GB/s aggregate).
    pub ddr_write_ps_per_line: u64,
    /// DDR service per write interleaved into a read stream (hides in read
    /// gaps; lets copy/triad reach ~70+ GB/s as in Table II).
    pub ddr_write_mixed_ps_per_line: u64,
    /// MCDRAM service time per line, reads.
    pub mcdram_read_ps_per_line: u64,
    /// MCDRAM service time per line, writes. MCDRAM EDCs are full-duplex
    /// (HMC links): reads and writes use independent sub-channels.
    pub mcdram_write_ps_per_line: u64,
    /// Penalty when a memory device switches between read and write service
    /// (bus turnaround; limits mixed-stream peaks like triad).
    pub rw_turnaround_ps: u64,

    // ---- MCDRAM memory-side cache (cache/hybrid modes) ----
    /// Tag check added to every memory access in cache mode.
    pub mcache_tag_ps: u64,

    // ---- memory-level parallelism caps ----
    /// Outstanding line reads a core sustains on cache-to-cache transfers,
    /// vectorized (AVX-512 gathers/streams; remote lines are not prefetched
    /// well, hence lower than the memory-stream cap).
    pub ov_c2c_read_vec: u32,
    /// Same, scalar code (paper: read bandwidth drops 2.5 → 1 GB/s).
    pub ov_c2c_read_scalar: u32,
    /// Outstanding reads during cache-to-cache copies (read + local write;
    /// write-combining lets copies overlap deeper than pure reads).
    pub ov_c2c_copy_vec: u32,
    /// Scalar-code variant of [`TimingParams::ov_c2c_copy_vec`].
    pub ov_c2c_copy_scalar: u32,
    /// Outstanding reads on memory streams (hardware prefetchers engaged).
    pub ov_mem_vec: u32,
    /// Scalar-code variant of [`TimingParams::ov_mem_vec`].
    pub ov_mem_scalar: u32,

    // ---- tile L2 port ----
    /// L2 data-port occupancy per line served to a same-tile requester
    /// (1 line read + half-line write per cycle limits same-tile copies).
    pub l2_port_ps_per_line: u64,
    /// Extra port occupancy when the served line was Modified.
    pub l2_port_m_extra_ps: u64,

    // ---- measurement noise ----
    /// Deterministic pseudo-random jitter applied to access latencies, in
    /// percent (the paper's boxplots have nonzero IQR; SNC2 is marked
    /// experimental and gets a wider value via [`TimingParams::jitter_for`]).
    pub jitter_pct: u32,
}

impl TimingParams {
    /// Calibration for the Intel Xeon Phi KNL 7210 used in the paper
    /// (64 cores @ 1.30 GHz, 16 GB MCDRAM, 96 GB DDR4-2133).
    pub fn knl7210() -> Self {
        TimingParams {
            issue_gap_ps: 400,
            max_nt_outstanding: 10,

            l1_hit_ps: 3_800,

            l2_sf_ps: 14_000,
            l2_e_extra_ps: 4_000,
            l2_m_extra_ps: 20_000,
            l2_miss_detect_ps: 8_000,

            hop_ps: 1_500,
            inject_ps: 7_000,
            mesh_ring_service_ps: 0,

            cha_lookup_ps: 28_000,
            cha_line_serialize_ps: 34_000,

            remote_l2_ps: 14_000,
            remote_e_extra_ps: 4_000,
            remote_m_extra_ps: 9_000,
            invalidate_per_sharer_ps: 6_000,
            update_per_sharer_ps: 9_000,
            fill_ps: 8_000,

            ddr_lat_ps: 60_000,
            mcdram_lat_ps: 88_000,
            // 6 DDR channels ⇒ 77 GB/s aggregate read (Table II: STREAM 77).
            ddr_read_ps_per_line: 4_990,
            // write-only peak ≈ 36 GB/s.
            ddr_write_ps_per_line: 10_600,
            ddr_write_mixed_ps_per_line: 4_990,
            // 8 EDCs ⇒ ~314 GB/s aggregate read.
            mcdram_read_ps_per_line: 1_630,
            // write-only peak ≈ 171 GB/s.
            mcdram_write_ps_per_line: 3_000,
            rw_turnaround_ps: 400,

            mcache_tag_ps: 28_000,

            ov_c2c_read_vec: 4,
            ov_c2c_read_scalar: 2,
            ov_c2c_copy_vec: 13,
            ov_c2c_copy_scalar: 9,
            ov_mem_vec: 17,
            ov_mem_scalar: 6,

            l2_port_ps_per_line: 6_900,
            l2_port_m_extra_ps: 1_600,

            jitter_pct: 4,
        }
    }

    /// Jitter percentage to apply for a given cluster mode: the paper flags
    /// SNC2 as experimental with visibly higher variance.
    pub fn jitter_for(&self, mode: crate::cluster::ClusterMode) -> u32 {
        if mode.experimental() {
            self.jitter_pct * 3
        } else {
            self.jitter_pct
        }
    }

    /// Latency of a same-tile L2 access for a given MESIF state of the line
    /// (helper shared by the simulator and the model's documentation).
    pub fn tile_l2_ps(&self, state_m: bool, state_e: bool) -> u64 {
        self.l2_sf_ps
            + if state_m {
                self.l2_m_extra_ps
            } else if state_e {
                self.l2_e_extra_ps
            } else {
                0
            }
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::knl7210()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterMode;

    #[test]
    fn knl_l1_is_3_8ns() {
        assert_eq!(TimingParams::knl7210().l1_hit_ps, 3_800);
    }

    #[test]
    fn tile_l2_state_costs_match_table1() {
        let t = TimingParams::knl7210();
        assert_eq!(t.tile_l2_ps(false, false), 14_000); // S/F 14 ns
        assert_eq!(t.tile_l2_ps(false, true), 18_000); // E 18 ns
        assert_eq!(t.tile_l2_ps(true, false), 34_000); // M 34 ns
    }

    #[test]
    fn ddr_aggregate_read_near_77gbps() {
        let t = TimingParams::knl7210();
        let per_chan = 64.0 / (t.ddr_read_ps_per_line as f64 * 1e-12) / 1e9;
        let agg = per_chan * 6.0;
        assert!((agg - 77.0).abs() < 2.0, "aggregate {agg}");
    }

    #[test]
    fn mcdram_aggregate_read_near_314gbps() {
        let t = TimingParams::knl7210();
        let per_edc = 64.0 / (t.mcdram_read_ps_per_line as f64 * 1e-12) / 1e9;
        let agg = per_edc * 8.0;
        assert!((agg - 314.0).abs() < 5.0, "aggregate {agg}");
    }

    #[test]
    fn snc2_jitter_widened() {
        let t = TimingParams::knl7210();
        assert!(t.jitter_for(ClusterMode::Snc2) > t.jitter_for(ClusterMode::Snc4));
    }

    #[test]
    fn mcdram_latency_higher_than_ddr() {
        let t = TimingParams::knl7210();
        assert!(t.mcdram_lat_ps > t.ddr_lat_ps);
    }
}
