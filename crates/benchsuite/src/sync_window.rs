//! Window-based start synchronization (§III-A).
//!
//! The paper synchronizes benchmark threads "with window intervals based on
//! the use of the TSC counter", after measuring the TSC skew among cores.
//! We model a per-core TSC skew (deterministic from a seed) and compute, for
//! each iteration, the absolute window start each thread should wait for —
//! i.e. the `WaitUntil` times fed to the simulator. [`crate::membw`] puts
//! them in its Op-IR programs.

use knl_arch::topology::splitmix64;
use knl_sim::SimTime;

/// Per-core TSC skew model plus window schedule.
#[derive(Debug, Clone)]
pub struct WindowSync {
    /// Residual skew per core after calibration (ps). The paper measured a
    /// 10 ns resolution on the TSC read, so residuals are within ±10 ns.
    skew_ps: Vec<i64>,
    /// Window period (ps): iteration `k` starts at `base + k * period`.
    period_ps: SimTime,
}

impl WindowSync {
    /// `max_skew_ns` bounds the residual per-core skew (paper: 10 ns TSC
    /// read resolution).
    pub fn new(num_cores: usize, period_ps: SimTime, max_skew_ns: u64, seed: u64) -> Self {
        let span = (2 * max_skew_ns * 1000 + 1) as i64;
        let skew_ps = (0..num_cores)
            .map(|c| {
                (splitmix64(seed ^ (c as u64) << 7) as i64).rem_euclid(span)
                    - (max_skew_ns * 1000) as i64
            })
            .collect();
        WindowSync { skew_ps, period_ps }
    }

    /// Absolute simulated time core `core` believes window `k` starts at.
    pub fn window_start(&self, core: usize, k: usize) -> SimTime {
        let nominal = (k as SimTime + 1) * self.period_ps;
        (nominal as i64 + self.skew_ps[core]).max(0) as SimTime
    }

    /// The window period.
    pub fn period_ps(&self) -> SimTime {
        self.period_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_bounded_and_deterministic() {
        let a = WindowSync::new(64, 1_000_000, 10, 42);
        let b = WindowSync::new(64, 1_000_000, 10, 42);
        for c in 0..64 {
            let s = a.window_start(c, 0) as i64 - 1_000_000;
            assert!(s.abs() <= 10_000, "core {c} skew {s}");
            assert_eq!(a.window_start(c, 3), b.window_start(c, 3));
        }
    }

    #[test]
    fn windows_advance_by_period() {
        let w = WindowSync::new(4, 500_000, 0, 0);
        assert_eq!(w.window_start(0, 1) - w.window_start(0, 0), 500_000);
        assert_eq!(w.window_start(2, 0), 500_000);
    }

    #[test]
    fn different_seeds_different_skew() {
        let a = WindowSync::new(8, 1_000_000, 10, 1);
        let b = WindowSync::new(8, 1_000_000, 10, 2);
        assert!((0..8).any(|c| a.window_start(c, 0) != b.window_start(c, 0)));
    }
}
