//! Parallel experiment orchestration.
//!
//! [`SweepExecutor`] fans independent (configuration, benchmark-point) jobs
//! over a scoped worker pool built on `std::thread::scope` — no external
//! crates, so the workspace keeps building offline. Workers claim job
//! indices from a shared atomic cursor, each job constructs whatever state
//! it needs (typically a fresh [`knl_sim::Machine`], which is `Send`), and
//! results land in per-job slots that are drained **in canonical job
//! order** once the scope joins.
//!
//! # Determinism contract
//!
//! A job is the pair `(index, &item)` handed to a pure worker closure:
//! everything a job reads is either its own freshly constructed state or
//! the immutable shared inputs. Per-job random streams must be derived
//! from the job index (see [`knl_arch::SplitMixRng::for_job`]), never from
//! a shared mutable RNG. Under that discipline the merged output is
//! **bit-identical** for every `--jobs` value: `jobs = 1` runs the very
//! same closure serially, and higher job counts only change *when* each
//! job runs, not *what* it computes nor the order results are returned in.

use knl_stats::json::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How the executor reports sweep progress on stderr.
///
/// Progress is *host-side* telemetry: wall-clock times and ETAs vary run
/// to run, but the report structure is deterministic. Live lines carry a
/// monotonic completion counter (never the completing job's index, which
/// depends on scheduling), and the per-job detail records of
/// [`ProgressMode::Json`] are buffered during the sweep and emitted in
/// canonical job order after the pool joins — the same merge discipline
/// traces and telemetry series use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// Silent.
    #[default]
    Off,
    /// One human-readable `[label] done/total` line per completion, with a
    /// live ETA.
    Text,
    /// Structured JSON lines: live `progress` records while running, then
    /// one `job` record per job in canonical order (wall time, straggler
    /// flag) and a `summary` record (span, worker utilization).
    Json,
}

/// A fixed-width pool that maps a worker closure over a job list and merges
/// results in job order.
#[derive(Debug, Clone)]
pub struct SweepExecutor {
    jobs: usize,
    progress: ProgressMode,
}

impl SweepExecutor {
    /// Executor with an explicit worker count (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        SweepExecutor {
            jobs: jobs.max(1),
            progress: ProgressMode::Off,
        }
    }

    /// Emit a text progress line to stderr as each job completes
    /// (shorthand for [`ProgressMode::Text`]; kept for existing callers).
    pub fn progress(self, on: bool) -> Self {
        self.progress_mode(if on {
            ProgressMode::Text
        } else {
            ProgressMode::Off
        })
    }

    /// Select a progress reporting mode.
    pub fn progress_mode(mut self, mode: ProgressMode) -> Self {
        self.progress = mode;
        self
    }

    /// Configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `worker(index, &item)` for every item and return the results in
    /// item order.
    ///
    /// With one worker (or one job) this degenerates to a plain serial
    /// loop over the same closure — the old code path. With more, workers
    /// claim indices from an atomic cursor so no job is run twice and no
    /// job is skipped; a panicking job propagates the panic to the caller
    /// once the scope joins.
    pub fn run<J, R, F>(&self, label: &str, items: &[J], worker: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(usize, &J) -> R + Sync,
    {
        let n = items.len();
        let threads = self.jobs.min(n).max(1);
        let start = Instant::now();
        // Per-job wall times land in canonical slots, like results; the
        // live counter only ever increases, so progress lines are
        // monotonic no matter which worker finishes when.
        let walls: Vec<Mutex<f64>> = (0..n).map(|_| Mutex::new(0.0)).collect();
        let done = Mutex::new(0usize);
        let run_one = |i: usize, item: &J| -> R {
            let t0 = Instant::now();
            let r = worker(i, item);
            *walls[i].lock().expect("wall slot poisoned") = ms(t0.elapsed());
            self.note(label, &done, n, start);
            r
        };

        let results = if threads <= 1 {
            items
                .iter()
                .enumerate()
                .map(|(i, item)| run_one(i, item))
                .collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = run_one(i, &items[i]);
                        *slots[i].lock().expect("sweep result slot poisoned") = Some(r);
                    });
                }
            });
            // Canonical-order merge: completion order is irrelevant.
            slots
                .into_iter()
                .map(|s| {
                    s.into_inner()
                        .expect("sweep result slot poisoned")
                        .expect("every claimed job stores a result")
                })
                .collect()
        };

        if self.progress == ProgressMode::Json && n > 0 {
            self.report_json(label, n, threads, ms(start.elapsed()), &walls);
        }
        results
    }

    /// One live progress line per completion, ordered by a monotonic
    /// counter held across the print (so line `k` always reads `k/total`).
    fn note(&self, label: &str, done: &Mutex<usize>, total: usize, start: Instant) {
        if self.progress == ProgressMode::Off {
            return;
        }
        let mut done = done.lock().expect("progress counter poisoned");
        *done += 1;
        let k = *done;
        let elapsed = ms(start.elapsed());
        let eta = elapsed / k as f64 * (total - k) as f64;
        match self.progress {
            ProgressMode::Off => {}
            ProgressMode::Text => {
                if k < total {
                    eprintln!("[{label}] {k}/{total} done, eta {:.0}s", eta / 1e3);
                } else {
                    eprintln!("[{label}] {total}/{total} done in {:.1}s", elapsed / 1e3);
                }
            }
            ProgressMode::Json => {
                eprintln!(
                    "{}",
                    Json::obj(vec![
                        ("type", Json::Str("progress".into())),
                        ("label", Json::Str(label.into())),
                        ("done", Json::Num(k as f64)),
                        ("total", Json::Num(total as f64)),
                        ("elapsed_ms", Json::Num(round3(elapsed))),
                        ("eta_ms", Json::Num(round3(eta))),
                    ])
                    .render()
                );
            }
        }
    }

    /// Post-join detail: one `job` record per job in canonical order, then
    /// a `summary` record. A job is flagged a straggler when it took more
    /// than twice the median job wall time.
    fn report_json(&self, label: &str, n: usize, workers: usize, span: f64, walls: &[Mutex<f64>]) {
        let walls: Vec<f64> = walls
            .iter()
            .map(|w| *w.lock().expect("wall slot poisoned"))
            .collect();
        let mut sorted = walls.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[n / 2];
        let cutoff = 2.0 * median;
        let mut stragglers = 0u32;
        for (i, &wall) in walls.iter().enumerate() {
            let straggler = n >= 2 && wall > cutoff;
            stragglers += straggler as u32;
            eprintln!(
                "{}",
                Json::obj(vec![
                    ("type", Json::Str("job".into())),
                    ("label", Json::Str(label.into())),
                    ("job", Json::Num(i as f64)),
                    ("wall_ms", Json::Num(round3(wall))),
                    ("straggler", Json::Bool(straggler)),
                ])
                .render()
            );
        }
        let busy: f64 = walls.iter().sum();
        let utilization = if span > 0.0 {
            busy / (span * workers as f64)
        } else {
            1.0
        };
        eprintln!(
            "{}",
            Json::obj(vec![
                ("type", Json::Str("summary".into())),
                ("label", Json::Str(label.into())),
                ("jobs", Json::Num(n as f64)),
                ("workers", Json::Num(workers as f64)),
                ("span_ms", Json::Num(round3(span))),
                ("median_job_ms", Json::Num(round3(median))),
                ("utilization", Json::Num(round3(utilization))),
                ("stragglers", Json::Num(stragglers as f64)),
            ])
            .render()
        );
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::SplitMixRng;

    #[test]
    fn results_in_job_order() {
        let items: Vec<usize> = (0..37).collect();
        let ex = SweepExecutor::new(4);
        let out = ex.run("t", &items, |i, &x| {
            assert_eq!(i, x);
            // Stagger completion so late slots finish before early ones.
            let mut rng = SplitMixRng::for_job(1, i as u64);
            std::thread::sleep(std::time::Duration::from_micros(rng.range_u64(0, 200)));
            x * 10
        });
        assert_eq!(out, (0..37).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let items: Vec<u64> = (0..24).collect();
        let work = |i: usize, &seed: &u64| {
            let mut rng = SplitMixRng::for_job(seed, i as u64);
            (0..100).map(|_| rng.next_f64()).sum::<f64>().to_bits()
        };
        let serial = SweepExecutor::new(1).run("s", &items, work);
        let parallel = SweepExecutor::new(6).run("p", &items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_inputs() {
        let ex = SweepExecutor::new(8);
        let empty: Vec<u32> = vec![];
        assert!(ex.run("e", &empty, |_, &x| x).is_empty());
        assert_eq!(ex.run("one", &[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn jobs_clamped_to_one() {
        assert_eq!(SweepExecutor::new(0).jobs(), 1);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counts: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..50).collect();
        SweepExecutor::new(7).run("c", &items, |_, &i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}");
        }
    }
}
