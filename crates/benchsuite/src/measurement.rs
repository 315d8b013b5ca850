//! Result containers for the suite (serializable so bench binaries can dump
//! them and the model builder can reload without re-simulating).

use knl_arch::{ClusterMode, MemoryMode, Schedule};
use knl_sim::StreamKind;
use knl_stats::{MedianCi, Sample};

/// Median + CI of one latency quantity, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStat {
    /// Raw observations (ns).
    pub sample: Sample,
    /// Median + 95% CI.
    pub ci: MedianCi,
}

impl LatencyStat {
    /// Summarize a sample of nanosecond latencies.
    pub fn from_sample(sample: Sample) -> Self {
        let ci = sample.median_ci95();
        LatencyStat { sample, ci }
    }

    /// Median latency in nanoseconds.
    pub fn median_ns(&self) -> f64 {
        self.ci.median
    }
}

/// One point of a bandwidth sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BwPoint {
    /// Message bytes (cache-to-cache) or per-thread bytes (memory).
    pub bytes: u64,
    /// Thread count of the sweep point.
    pub threads: usize,
    /// Pinning schedule used.
    pub schedule: Schedule,
    /// Median bandwidth in GB/s over iterations.
    pub gbps_median: f64,
    /// Best iteration (the "peak" column of Table II).
    pub gbps_max: f64,
}

/// Cache-to-cache capability measurements (Table I + Figs. 4–5 inputs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheResults {
    /// Local (L1) load latency.
    pub local_ns: Option<LatencyStat>,
    /// Same-tile latency per state letter ('M', 'E', 'S', 'F').
    pub tile_ns: Vec<(char, LatencyStat)>,
    /// Remote-tile latency per state letter (aggregated over partners).
    pub remote_ns: Vec<(char, LatencyStat)>,
    /// Fig. 4: per-partner-core latency, core 0 → core c, per state letter.
    pub remote_map: Vec<(u16, char, f64)>,
    /// Single-thread remote read bandwidth (registers), GB/s, max median.
    pub read_bw_gbps: f64,
    /// Copy bandwidth by (location label, state letter) — max median GB/s.
    pub copy_bw_gbps: Vec<(String, char, f64)>,
    /// Fig. 5: copy bandwidth sweep: (location, state, bytes, GB/s median).
    pub copy_sweep: Vec<(String, char, u64, f64)>,
    /// Multi-line read latency sweep for the α+β·N fit: (lines, ns median).
    pub multiline_read_ns: Vec<(u64, f64)>,
    /// Contention benchmark: (N readers, max-latency sample ns).
    pub contention: Vec<(usize, Sample)>,
    /// Congestion benchmark: (pairs, per-pair latency median ns).
    pub congestion: Vec<(usize, f64)>,
}

impl CacheResults {
    /// Median local (L1) load latency.
    pub fn local_ns(&self) -> Option<f64> {
        self.local_ns.as_ref().map(LatencyStat::median_ns)
    }

    /// Median same-tile latency for a state letter.
    pub fn tile_ns(&self, state: char) -> Option<f64> {
        median_of(&self.tile_ns, state)
    }

    /// Median remote-tile latency for a state letter.
    pub fn remote_ns(&self, state: char) -> Option<f64> {
        median_of(&self.remote_ns, state)
    }

    /// Copy bandwidth (GB/s) by location label and state letter.
    pub fn copy_bw(&self, location: &str, state: char) -> Option<f64> {
        self.copy_bw_gbps
            .iter()
            .find(|(l, s, _)| l == location && *s == state)
            .map(|(_, _, g)| *g)
    }

    /// Congestion as Table I reports it: the largest per-pair latency over
    /// the smallest (1.0 when pairs do not slow each other).
    pub fn congestion_ratio(&self) -> f64 {
        let lat = || self.congestion.iter().map(|(_, l)| *l);
        lat().fold(0.0, f64::max) / lat().fold(f64::INFINITY, f64::min)
    }
}

fn median_of(stats: &[(char, LatencyStat)], state: char) -> Option<f64> {
    stats
        .iter()
        .find(|(s, _)| *s == state)
        .map(|(_, l)| l.median_ns())
}

/// Memory capability measurements (Table II + Fig. 9 inputs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemResults {
    /// Memory latency per target: keys "DRAM", "MCDRAM" (flat) or "cache".
    pub latency_ns: Vec<(String, LatencyStat)>,
    /// Bandwidth sweeps per (kind, target label): full sweep points.
    pub bw_sweeps: Vec<(StreamKind, String, Vec<BwPoint>)>,
}

impl MemResults {
    /// Max median GB/s for a kernel/target (the Table II cell).
    pub fn table_cell(&self, kind: StreamKind, target: &str) -> Option<f64> {
        self.bw_sweeps
            .iter()
            .find(|(k, t, _)| *k == kind && t == target)
            .map(|(_, _, pts)| pts.iter().map(|p| p.gbps_median).fold(0.0, f64::max))
    }

    /// Best iteration anywhere in the sweep (the "STREAM peak" column).
    pub fn peak_cell(&self, kind: StreamKind, target: &str) -> Option<f64> {
        self.bw_sweeps
            .iter()
            .find(|(k, t, _)| *k == kind && t == target)
            .map(|(_, _, pts)| pts.iter().map(|p| p.gbps_max).fold(0.0, f64::max))
    }

    /// Median latency (ns) for a target label, if measured.
    pub fn latency(&self, target: &str) -> Option<f64> {
        self.latency_ns
            .iter()
            .find(|(t, _)| t == target)
            .map(|(_, s)| s.median_ns())
    }
}

/// Everything the suite measured for one machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResults {
    /// Cluster mode measured.
    pub cluster: ClusterMode,
    /// Memory mode measured.
    pub memory: MemoryMode,
    /// Cache-to-cache capabilities (§IV).
    pub cache: CacheResults,
    /// Memory capabilities (§V).
    pub mem: MemResults,
}

impl SuiteResults {
    /// Configuration label, e.g. `SNC4-flat`.
    pub fn label(&self) -> String {
        format!("{}-{}", self.cluster.name(), self.memory.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stat_median() {
        let s = Sample::from_values(vec![10.0, 12.0, 11.0]);
        let l = LatencyStat::from_sample(s);
        assert_eq!(l.median_ns(), 11.0);
    }

    #[test]
    fn mem_results_lookup() {
        let mut m = MemResults::default();
        m.bw_sweeps.push((
            StreamKind::Triad,
            "DRAM".into(),
            vec![
                BwPoint {
                    bytes: 0,
                    threads: 1,
                    schedule: Schedule::Scatter,
                    gbps_median: 10.0,
                    gbps_max: 12.0,
                },
                BwPoint {
                    bytes: 0,
                    threads: 8,
                    schedule: Schedule::Scatter,
                    gbps_median: 70.0,
                    gbps_max: 80.0,
                },
            ],
        ));
        assert_eq!(m.table_cell(StreamKind::Triad, "DRAM"), Some(70.0));
        assert_eq!(m.peak_cell(StreamKind::Triad, "DRAM"), Some(80.0));
        assert_eq!(m.table_cell(StreamKind::Copy, "DRAM"), None);
    }

    #[test]
    fn suite_results_label() {
        let r = SuiteResults {
            cluster: ClusterMode::Snc4,
            memory: MemoryMode::Flat,
            cache: CacheResults::default(),
            mem: MemResults::default(),
        };
        assert_eq!(r.label(), "SNC4-flat");
    }
}
