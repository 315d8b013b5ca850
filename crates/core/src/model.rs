//! The capability model: fitted parameters extracted from suite results.

use crate::tree_opt::TreeTables;
use knl_benchsuite::SuiteResults;
use knl_sim::StreamKind;
use knl_stats::{fit_linear, LinearFit};
use std::collections::BTreeMap;
use std::fmt;

/// Bandwidth curve: achievable GB/s as a function of thread count for one
/// (kernel, target) pair, taken from the fill-tiles sweep (the schedule the
/// paper's applications use) with piecewise-linear interpolation.
#[derive(Debug, Clone, Default)]
pub struct BwCurve {
    /// (threads, GB/s median), sorted by threads.
    pub points: Vec<(usize, f64)>,
}

impl BwCurve {
    /// Achievable GB/s at `threads` threads (piecewise-linear).
    pub fn gbps(&self, threads: usize) -> f64 {
        if self.points.is_empty() {
            return f64::NAN;
        }
        let t = threads as f64;
        if t <= self.points[0].0 as f64 {
            // Below the first sample: scale linearly from zero threads
            // (bandwidth is thread-limited there).
            return self.points[0].1 * t / self.points[0].0 as f64;
        }
        for w in self.points.windows(2) {
            let (t0, b0) = (w[0].0 as f64, w[0].1);
            let (t1, b1) = (w[1].0 as f64, w[1].1);
            if t <= t1 {
                return b0 + (b1 - b0) * (t - t0) / (t1 - t0);
            }
        }
        self.points.last().unwrap().1
    }
}

/// Memory-side capabilities.
#[derive(Debug, Clone, Default)]
pub struct MemCapability {
    /// Latency (ns) per target label ("DRAM", "MCDRAM", "cache").
    pub latency_ns: BTreeMap<String, f64>,
    /// Bandwidth curves per (kernel, target label).
    pub bw: BTreeMap<(String, String), BwCurve>,
}

impl MemCapability {
    /// Bandwidth curve for one (kernel, target), if measured.
    pub fn bw_curve(&self, kind: StreamKind, target: &str) -> Option<&BwCurve> {
        self.bw.get(&(kind.name().to_string(), target.to_string()))
    }

    /// Achievable bandwidth (GB/s) for `threads` threads.
    pub fn gbps(&self, kind: StreamKind, target: &str, threads: usize) -> Option<f64> {
        self.bw_curve(kind, target).map(|c| c.gbps(threads))
    }
}

/// The fitted capability model (paper §IV-A, §V-A).
#[derive(Clone)]
pub struct CapabilityModel {
    /// Configuration label the model was fitted on (e.g. "SNC4-flat").
    pub config: String,
    /// R_L: local cache read, ns.
    pub rl_ns: f64,
    /// R_R: remote cache-to-cache read, ns (S/F state — the common case for
    /// re-read flags; per-state values live in `remote_ns`).
    pub rr_ns: f64,
    /// R_I: read one line from memory, ns (the target collectives run in —
    /// MCDRAM when available, else DRAM/cache).
    pub ri_ns: f64,
    /// Same-tile latency per state letter.
    pub tile_ns: BTreeMap<char, f64>,
    /// Remote-tile latency per state letter.
    pub remote_ns: BTreeMap<char, f64>,
    /// Contention law T_C(N) = α + β·N (ns).
    pub contention: LinearFit,
    /// Multi-line read law α + β·lines (ns).
    pub multiline: LinearFit,
    /// costL1 for the sort model (ns per line from L1).
    pub l1_ns: f64,
    /// costL2 for the sort model (ns per line from L2, S/F state).
    pub l2_ns: f64,
    /// Memory latencies and bandwidth curves.
    pub mem: MemCapability,
    /// Solved Eq. 1 tables, keyed by the five fields Eq. 1 reads (see
    /// [`crate::tree_opt`]); not part of the model's value.
    pub(crate) tree_tables: TreeTables,
}

/// What `#[derive(Debug)]` printed before the model carried its solved
/// tables: the fitted fields and nothing else.
impl fmt::Debug for CapabilityModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let CapabilityModel {
            config,
            rl_ns,
            rr_ns,
            ri_ns,
            tile_ns,
            remote_ns,
            contention,
            multiline,
            l1_ns,
            l2_ns,
            mem,
            tree_tables: _,
        } = self;
        f.debug_struct("CapabilityModel")
            .field("config", config)
            .field("rl_ns", rl_ns)
            .field("rr_ns", rr_ns)
            .field("ri_ns", ri_ns)
            .field("tile_ns", tile_ns)
            .field("remote_ns", remote_ns)
            .field("contention", contention)
            .field("multiline", multiline)
            .field("l1_ns", l1_ns)
            .field("l2_ns", l2_ns)
            .field("mem", mem)
            .finish()
    }
}

impl CapabilityModel {
    /// Fit the model from suite results.
    pub fn from_suite(r: &SuiteResults) -> Self {
        let tile_ns: BTreeMap<char, f64> = r
            .cache
            .tile_ns
            .iter()
            .map(|(c, l)| (*c, l.median_ns()))
            .collect();
        let remote_ns: BTreeMap<char, f64> = r
            .cache
            .remote_ns
            .iter()
            .map(|(c, l)| (*c, l.median_ns()))
            .collect();
        let rl_ns = r.cache.local_ns().unwrap_or(f64::NAN);
        // R_R: shared/forward remote read (flag re-reads find the flag in
        // the writer's cache in M; model-tuning uses the measured state mix —
        // we take the average of S/F and M as the paper's single R_R).
        let rr_ns = {
            let sf = remote_ns.get(&'S').or_else(|| remote_ns.get(&'F')).copied();
            let m = remote_ns.get(&'M').copied();
            match (sf, m) {
                (Some(a), Some(b)) => (a + b) / 2.0,
                (Some(a), None) | (None, Some(a)) => a,
                (None, None) => f64::NAN,
            }
        };

        let contention = if r.cache.contention.len() >= 2 {
            knl_benchsuite::contention::fit(&r.cache.contention)
        } else {
            LinearFit::constant(rr_ns)
        };

        let multiline = if r.cache.multiline_read_ns.len() >= 2 {
            let xs: Vec<f64> = r
                .cache
                .multiline_read_ns
                .iter()
                .map(|(n, _)| *n as f64)
                .collect();
            let ys: Vec<f64> = r.cache.multiline_read_ns.iter().map(|(_, l)| *l).collect();
            fit_linear(&xs, &ys)
        } else {
            LinearFit::constant(rr_ns)
        };

        let mut mem = MemCapability::default();
        for (label, stat) in &r.mem.latency_ns {
            mem.latency_ns.insert(label.clone(), stat.median_ns());
        }
        for (kind, target, pts) in &r.mem.bw_sweeps {
            // Fill-tiles points only; collapse duplicates by max median.
            let mut by_threads: BTreeMap<usize, f64> = BTreeMap::new();
            for p in pts {
                if p.schedule == knl_arch::Schedule::FillTiles {
                    let e = by_threads.entry(p.threads).or_insert(0.0);
                    *e = e.max(p.gbps_median);
                }
            }
            mem.bw.insert(
                (kind.name().to_string(), target.clone()),
                BwCurve {
                    points: by_threads.into_iter().collect(),
                },
            );
        }

        // R_I: memory the collectives' buffers live in. Prefer MCDRAM (the
        // paper's Figs. 6–8 run in MCDRAM), fall back to whatever exists.
        let ri_ns = mem
            .latency_ns
            .get("MCDRAM")
            .or_else(|| mem.latency_ns.get("cache"))
            .or_else(|| mem.latency_ns.get("DRAM"))
            .copied()
            .unwrap_or(f64::NAN);

        let l2_ns = tile_ns.get(&'S').copied().unwrap_or(14.0);

        CapabilityModel {
            config: r.label(),
            rl_ns,
            rr_ns,
            ri_ns,
            tile_ns,
            remote_ns,
            contention,
            multiline,
            l1_ns: rl_ns,
            l2_ns,
            mem,
            tree_tables: TreeTables::default(),
        }
    }

    /// T_C(N): contention cost for N simultaneous accesses, ns.
    pub fn tc_ns(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.contention.eval(n as f64).max(0.0)
    }

    /// Memory latency (ns) for a target label.
    pub fn mem_latency_ns(&self, target: &str) -> Option<f64> {
        self.mem.latency_ns.get(target).copied()
    }

    /// A reference model with the paper's own Table I/II numbers (SNC4-flat
    /// column), for tests and for running the optimizers without a
    /// simulation pass.
    pub fn paper_reference() -> Self {
        let mut tile = BTreeMap::new();
        tile.insert('M', 34.0);
        tile.insert('E', 17.0);
        tile.insert('S', 14.0);
        tile.insert('F', 14.0);
        let mut remote = BTreeMap::new();
        remote.insert('M', 114.5);
        remote.insert('E', 106.0);
        remote.insert('S', 107.0);
        remote.insert('F', 107.0);
        let mut mem = MemCapability::default();
        mem.latency_ns.insert("DRAM".into(), 135.0);
        mem.latency_ns.insert("MCDRAM".into(), 167.5);
        let ddr_read = BwCurve {
            points: vec![
                (1, 5.0),
                (4, 20.0),
                (8, 40.0),
                (16, 71.0),
                (32, 71.0),
                (64, 71.0),
            ],
        };
        let mc_read = BwCurve {
            points: vec![
                (1, 8.0),
                (8, 60.0),
                (16, 120.0),
                (32, 200.0),
                (64, 243.0),
                (128, 243.0),
            ],
        };
        let ddr_triad = BwCurve {
            points: vec![(1, 8.0), (8, 45.0), (16, 71.0), (32, 71.0), (64, 71.0)],
        };
        let mc_triad = BwCurve {
            points: vec![
                (1, 8.0),
                (8, 64.0),
                (16, 128.0),
                (32, 240.0),
                (64, 371.0),
                (256, 371.0),
            ],
        };
        let ddr_copy = BwCurve {
            points: vec![(1, 8.0), (8, 45.0), (16, 69.0), (64, 69.0)],
        };
        let mc_copy = BwCurve {
            points: vec![
                (1, 8.0),
                (8, 60.0),
                (16, 120.0),
                (32, 240.0),
                (64, 342.0),
                (256, 342.0),
            ],
        };
        mem.bw.insert(("read".into(), "DRAM".into()), ddr_read);
        mem.bw.insert(("read".into(), "MCDRAM".into()), mc_read);
        mem.bw.insert(("triad".into(), "DRAM".into()), ddr_triad);
        mem.bw.insert(("triad".into(), "MCDRAM".into()), mc_triad);
        mem.bw.insert(("copy".into(), "DRAM".into()), ddr_copy);
        mem.bw.insert(("copy".into(), "MCDRAM".into()), mc_copy);
        CapabilityModel {
            config: "SNC4-flat (paper Table I/II)".into(),
            rl_ns: 3.8,
            rr_ns: 110.0,
            ri_ns: 167.5,
            tile_ns: tile,
            remote_ns: remote,
            contention: knl_stats::LinearFit {
                alpha: 200.0,
                beta: 34.0,
                r2: 1.0,
                n: 8,
            },
            multiline: knl_stats::LinearFit {
                alpha: 100.0,
                beta: 8.5,
                r2: 1.0,
                n: 8,
            },
            l1_ns: 3.8,
            l2_ns: 14.0,
            mem,
            tree_tables: TreeTables::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_reference_sane() {
        let m = CapabilityModel::paper_reference();
        assert_eq!(m.rl_ns, 3.8);
        assert!(m.rr_ns > 100.0);
        assert_eq!(m.tc_ns(10), 200.0 + 34.0 * 10.0);
        assert!(m.mem_latency_ns("MCDRAM").unwrap() > m.mem_latency_ns("DRAM").unwrap());
    }

    /// `Debug` prints what `#[derive(Debug)]` printed when the model was its
    /// eleven fitted fields, before and after a solve.
    #[test]
    fn debug_prints_the_fitted_fields_only() {
        #[derive(Debug)]
        #[allow(dead_code)] // read by the derive only
        struct CapabilityModel {
            config: String,
            rl_ns: f64,
            rr_ns: f64,
            ri_ns: f64,
            tile_ns: BTreeMap<char, f64>,
            remote_ns: BTreeMap<char, f64>,
            contention: LinearFit,
            multiline: LinearFit,
            l1_ns: f64,
            l2_ns: f64,
            mem: MemCapability,
        }
        let m = super::CapabilityModel::paper_reference();
        crate::optimize_tree(&m, 16, crate::TreeKind::Reduce);
        let derived = CapabilityModel {
            config: m.config.clone(),
            rl_ns: m.rl_ns,
            rr_ns: m.rr_ns,
            ri_ns: m.ri_ns,
            tile_ns: m.tile_ns.clone(),
            remote_ns: m.remote_ns.clone(),
            contention: m.contention,
            multiline: m.multiline,
            l1_ns: m.l1_ns,
            l2_ns: m.l2_ns,
            mem: m.mem.clone(),
        };
        assert_eq!(format!("{m:?}"), format!("{derived:?}"));
        assert_eq!(format!("{m:#?}"), format!("{derived:#?}"));
    }

    #[test]
    fn bw_curve_interpolates() {
        let c = BwCurve {
            points: vec![(1, 10.0), (4, 40.0), (16, 70.0)],
        };
        assert_eq!(c.gbps(1), 10.0);
        assert_eq!(c.gbps(4), 40.0);
        assert!((c.gbps(2) - 20.0).abs() < 1e-9);
        assert!((c.gbps(10) - 55.0).abs() < 1e-9);
        assert_eq!(c.gbps(100), 70.0);
        // Below first point: linear from origin.
        let c2 = BwCurve {
            points: vec![(4, 40.0), (16, 70.0)],
        };
        assert!((c2.gbps(2) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn tc_zero_threads_is_zero() {
        let m = CapabilityModel::paper_reference();
        assert_eq!(m.tc_ns(0), 0.0);
    }

    #[test]
    fn from_suite_on_simulated_machine() {
        use knl_arch::{ClusterMode, MachineConfig, MemoryMode};
        use knl_benchsuite::{run_full_suite, SuiteParams};
        let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
        let mut p = SuiteParams::quick();
        p.iters = 5;
        p.mem_lines_per_thread = 512;
        p.memlat_lines = 16 << 10;
        let r = run_full_suite(&cfg, &p);
        let m = CapabilityModel::from_suite(&r);
        // Table I bands.
        assert!((m.rl_ns - 3.8).abs() < 1.0, "R_L {}", m.rl_ns);
        assert!((80.0..170.0).contains(&m.rr_ns), "R_R {}", m.rr_ns);
        assert!((130.0..210.0).contains(&m.ri_ns), "R_I {}", m.ri_ns);
        assert!(
            (20.0..48.0).contains(&m.contention.beta),
            "β {}",
            m.contention.beta
        );
        assert!(m.multiline.beta > 0.0);
        // Bandwidth curves present and monotone-ish.
        let ddr = m.mem.gbps(StreamKind::Read, "DRAM", 32).unwrap();
        assert!(ddr > 30.0, "DDR read @32: {ddr}");
    }
}
