//! The capability benchmark suite of the paper (§III–V), running on the
//! simulated KNL.
//!
//! Mirrors the paper's tooling:
//!
//! * **BenchIT-style pointer chasing** for cache-line transfer latency by
//!   MESIF state and thread placement ([`pointer_chase`]),
//! * the **Xeon Phi benchmarks**' one-directional copies for cache-to-cache
//!   bandwidth over message sizes ([`cachebw`]),
//! * ad-hoc **contention** (1:N copies of one line) and **congestion**
//!   (simultaneous P2P ping-pong pairs) benchmarks ([`contention`],
//!   [`congestion`]),
//! * **STREAM-based memory benchmarks** (copy/read/write/triad with
//!   non-temporal hints, random buffers from a larger pool, window-
//!   synchronized starts) ([`membw`]), and
//! * **memory latency** pointer chasing over DDR/MCDRAM ([`memlat`]).
//!
//! Reporting follows the paper: per-iteration cost is the *maximum* across
//! threads; quoted numbers are *medians* over iterations (with 95% CIs
//! available); Table II bandwidths are the maximum median across the sweep.

pub mod cachebw;
pub mod congestion;
pub mod contention;
pub mod measurement;
pub mod membw;
pub mod memlat;
pub mod parallel;
pub mod params;
pub mod pointer_chase;
pub mod serial;
pub mod state_prep;
pub mod suite;
pub mod sync_window;

pub use measurement::{BwPoint, CacheResults, LatencyStat, MemResults, SuiteResults};
pub use parallel::{ProgressMode, SweepExecutor};
pub use params::SuiteParams;
pub use serial::{decode_suite, encode_suite};
pub use suite::{
    run_cache_suite, run_configs_with, run_full_suite, run_full_suite_with, run_memory_suite,
    ObservedRun,
};
