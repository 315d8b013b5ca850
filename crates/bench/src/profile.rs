//! Host-side self-profiling: scoped wall-clock phase timers.
//!
//! This is the *other half* of the observability layer: simulated time
//! lives in `knl_sim::telemetry` (and must never touch the host clock —
//! `knl-sim`'s `clippy.toml` bans the host-time types); how long the
//! *simulator itself* takes lives here. A [`Profiler`] accumulates named
//! phases (serve, transfer, observe dispatch, whole sweep jobs) across
//! threads and reports wall time and simulated-events-per-second throughput,
//! clearly separated from every simulated result.

use std::sync::Mutex;
use std::time::Instant;

/// One accumulated phase: total wall time and entry count.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseAcc {
    wall_ms: f64,
    entries: u64,
}

/// Thread-safe accumulator of named wall-clock phases.
///
/// Phases are keyed by their static name in first-use order, so a report
/// lists them in the order the program reached them; timing the same name
/// from several worker threads accumulates into one row.
#[derive(Debug, Default)]
pub struct Profiler {
    phases: Mutex<Vec<(&'static str, PhaseAcc)>>,
}

impl Profiler {
    /// Empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a scoped timer; the elapsed wall time lands in phase `name`
    /// when the returned guard drops.
    pub fn phase<'p>(&'p self, name: &'static str) -> PhaseGuard<'p> {
        PhaseGuard {
            profiler: self,
            name,
            start: Instant::now(),
        }
    }

    /// Fold a measured duration into phase `name` (the guard's drop path;
    /// also usable directly for externally timed spans).
    pub fn record(&self, name: &'static str, wall_ms: f64) {
        let mut phases = self.phases.lock().expect("profiler poisoned");
        match phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => {
                acc.wall_ms += wall_ms;
                acc.entries += 1;
            }
            None => phases.push((
                name,
                PhaseAcc {
                    wall_ms,
                    entries: 1,
                },
            )),
        }
    }

    /// Total wall time accumulated in `name` (ms), 0 if never entered.
    pub fn wall_ms(&self, name: &str) -> f64 {
        self.phases
            .lock()
            .expect("profiler poisoned")
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, acc)| acc.wall_ms)
    }

    /// Multi-line report: one `host-profile` stderr line per phase, in
    /// first-use order. `sim_events` (total observer-bus events, or any
    /// other work unit) turns into an events/sec rate against the named
    /// phase when given.
    pub fn report(&self, rate_phase: &str, sim_events: Option<u64>) {
        let phases = self.phases.lock().expect("profiler poisoned");
        for (name, acc) in phases.iter() {
            eprintln!(
                "host-profile: {name}: {:.1} ms over {} entr{}",
                acc.wall_ms,
                acc.entries,
                if acc.entries == 1 { "y" } else { "ies" }
            );
        }
        if let Some(events) = sim_events {
            if let Some((_, acc)) = phases.iter().find(|(n, _)| *n == rate_phase) {
                if acc.wall_ms > 0.0 {
                    eprintln!(
                        "host-profile: {rate_phase}: {:.2} M simulated events/s ({events} events)",
                        events as f64 / acc.wall_ms / 1e3
                    );
                }
            }
        }
    }
}

/// RAII guard of one [`Profiler::phase`] span.
pub struct PhaseGuard<'p> {
    profiler: &'p Profiler,
    name: &'static str,
    start: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.profiler
            .record(self.name, self.start.elapsed().as_secs_f64() * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_in_first_use_order() {
        let p = Profiler::new();
        {
            let _a = p.phase("alpha");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _b = p.phase("beta");
        }
        {
            let _a = p.phase("alpha");
        }
        let phases = p.phases.lock().unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "alpha");
        assert_eq!(phases[0].1.entries, 2);
        assert_eq!(phases[1].0, "beta");
        assert!(phases[0].1.wall_ms >= 2.0);
    }

    #[test]
    fn record_from_many_threads() {
        let p = Profiler::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        p.record("job", 1.0);
                    }
                });
            }
        });
        assert_eq!(p.wall_ms("job"), 40.0);
        assert_eq!(p.wall_ms("missing"), 0.0);
    }
}
