//! Facade crate re-exporting the full KNL capability-model stack.
//!
//! See the README for a tour. The sub-crates are:
//! - [`arch`]: machine description (modes, topology, address maps, timing)
//! - [`stats`]: medians, CIs, OLS fits
//! - [`sim`]: the discrete-event KNL memory-system simulator
//! - [`benchsuite`]: the capability benchmark suite (paper §III–V)
//! - [`model`]: capability models + model-tuned algorithm optimizers (paper core)
//! - [`collectives`]: model-tuned and baseline collectives as simulator programs
//! - [`sort`]: the bitonic merge sort case-study application

pub use knl_arch as arch;
pub use knl_benchsuite as benchsuite;
pub use knl_collectives as collectives;
pub use knl_core as model;
pub use knl_sim as sim;
pub use knl_sort as sort;
pub use knl_stats as stats;

/// The coherence fuzz driver `tests/coherence_fuzz.rs` runs, built here
/// only for tests so its own unit test runs with the facade's.
#[cfg(test)]
#[path = "../tests/common/fuzz.rs"]
mod fuzz;
