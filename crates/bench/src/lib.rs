//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! One binary per artifact (see `src/bin/`); shared machinery here:
//!
//! * [`runconf`] — the command line every binary shares (`--quick` /
//!   `--paper`, `--jobs`, `--protocol`, the observer flags),
//! * [`sweep`] — executor, observer-honouring machines and the
//!   [`sweep::TraceSink`] built from a parsed [`runconf::RunConf`],
//! * [`modelfit`] — fit a [`knl_core::CapabilityModel`] by running the
//!   capability suite on the simulated machine,
//! * [`collective_fig`] — the shared driver for Figs. 6–8 (model-tuned vs
//!   OpenMP-like vs MPI-like, with the min–max model band),
//! * [`output`] — aligned console tables + CSV dumps under `results/`,
//! * [`plot`] — ASCII charts beside the tables,
//! * [`provenance`] — the `<artifact>.manifest.json` sidecars,
//! * [`profile`] — host-side wall-clock phase timers.
//!
//! How fast the simulator itself runs is measured by the separate
//! `benchmark/` package at the repository root, not from here.
//!
//! Absolute numbers come from the simulator, not the authors' testbed; the
//! *shape* (who wins, by what factor, where crossovers fall) is the
//! reproduction target (see EXPERIMENTS.md).

pub mod collective_fig;
pub mod modelfit;
pub mod output;
pub mod plot;
pub mod profile;
pub mod provenance;
pub mod runconf;
pub mod sweep;
