//! The contention benchmark (§IV-A.2): one thread on core 0 owns a one-line
//! buffer; N other threads access it simultaneously and copy it into a local
//! buffer. The paper fits `T_C(N) = α + β·N` (Table I: α ≈ 200, β ≈ 34).
//! [`contention`] drives [`Machine::access`] directly, with no Op-IR form,
//! and [`fit`] fits the law to what it returns.

use crate::state_prep::prep_lines;
use knl_arch::{CoreId, Schedule};
use knl_sim::{AccessKind, LineState, Machine, SimTime};
use knl_stats::{fit_linear, LinearFit, Sample};

/// Run the 1:N contention benchmark for each N in `ns` with the given
/// reader schedule ("each new thread runs in a different tile" = Scatter,
/// "a different core that can be in the same tile" = FillTiles).
///
/// Returns, per N, the sample of *maximum* reader latencies (ns) across
/// iterations.
pub fn contention(
    m: &mut Machine,
    ns: &[usize],
    schedule: Schedule,
    iters: usize,
) -> Vec<(usize, Sample)> {
    let owner = CoreId(0);
    let num_cores = m.config().num_cores();
    let mut out = Vec::new();
    let mut now: SimTime = 0;
    for &n in ns {
        assert!(n < num_cores, "need a free core per reader");
        let mut s = Sample::new();
        for i in 0..iters {
            let addr = (1u64 << 24) + (i as u64) * 64;
            // The owner writes the line each iteration (M state), exactly as
            // the benchmark's owner thread updates its buffer.
            now = prep_lines(
                m,
                owner,
                CoreId((num_cores - 2) as u16),
                addr,
                1,
                LineState::Modified,
                now,
            );
            // All N readers fire at the same instant; the home directory
            // serializes them. Each reader then copies the line into a
            // local buffer (as the paper's benchmark does), whose
            // first-touch ownership fetch is part of the measured cost.
            let mut worst = 0;
            for r in 0..n {
                // Skip placement slot 0 (the owner's core).
                let reader = schedule.core(r + 1, num_cores);
                let local_buf = (1u64 << 29) + (r as u64) * 4096 + (i as u64) * 64;
                let read = m.access(reader, addr, AccessKind::Read, now);
                let copy = m.access(reader, local_buf, AccessKind::Write, read.complete);
                worst = worst.max(copy.complete - now);
            }
            s.push(worst as f64 / 1000.0);
            now += 10_000_000;
            m.reset_caches();
        }
        out.push((n, s));
    }
    out
}

/// The contention law `T_C(N) = α + β·N`, fitted to the median of each N's
/// sample as [`contention`] returns them.
pub fn fit(points: &[(usize, Sample)]) -> LinearFit {
    let xs: Vec<f64> = points.iter().map(|(n, _)| *n as f64).collect();
    let ys: Vec<f64> = points.iter().map(|(_, s)| s.median()).collect();
    fit_linear(&xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::{ClusterMode, MachineConfig, MemoryMode};

    #[test]
    fn contention_is_linear_with_beta_near_34() {
        let mut m = Machine::new(MachineConfig::knl7210(
            ClusterMode::Quadrant,
            MemoryMode::Flat,
        ));
        m.set_jitter(0);
        // Scatter: each new reader lands on its own tile, so every request
        // goes through the home directory (the paper's per-tile schedule).
        let pts = contention(&mut m, &[1, 4, 8, 16, 24, 31], Schedule::Scatter, 5);
        let fit = fit(&pts);
        assert!(
            (25.0..45.0).contains(&fit.beta),
            "β = {} (paper: 34)",
            fit.beta
        );
        assert!(
            (60.0..300.0).contains(&fit.alpha),
            "α = {} (paper: 200)",
            fit.alpha
        );
        assert!(fit.r2 > 0.95, "linearity r² = {}", fit.r2);
    }

    #[test]
    fn monotone_in_n() {
        let mut m = Machine::new(MachineConfig::knl7210(ClusterMode::A2A, MemoryMode::Flat));
        m.set_jitter(0);
        let pts = contention(&mut m, &[2, 16], Schedule::Scatter, 3);
        assert!(pts[1].1.median() > pts[0].1.median());
    }
}
