//! Experiment harness: regenerates every table and figure of the paper.
//!
//! One executable, `knl` (the root package's `src/main.rs`), is the front
//! door: `knl run <id>|all`, `knl list`, `knl trace|report|mc|provenance`.
//! Behind it:
//!
//! * [`experiments`] — the registry: one row per regenerator, and the
//!   driver that runs a row under a parsed command line,
//! * [`tools`] — the trace, report, model-check and provenance
//!   subcommands as functions over an argument list,
//! * [`modelcheck`] — `knl mc`'s exhaustive checker of the protocol
//!   tables, and [`mutation`], the defect catalog its kill gate injects
//!   through the simulator's one transition hook,
//! * [`analyze`] — `--analyze`'s static workload checks (races, flag-line
//!   sharing, duplicate pins, lost intervals), run through the simulator's
//!   one run-start hook,
//! * [`flags`] — the flag table type and the one argument loop,
//! * [`runconf`] — the flags every experiment shares (`--quick` /
//!   `--paper`, `--jobs`, `--protocol`, the observer flags),
//! * [`sweep`] — executor, observer-honouring machines and the
//!   [`sweep::TraceSink`] built from a parsed [`runconf::RunConf`],
//! * [`modelfit`] — fit a [`knl_core::CapabilityModel`] by running the
//!   capability suite on the simulated machine,
//! * [`collective_fig`] — the shared body of Figs. 6–8 (model-tuned vs
//!   OpenMP-like vs MPI-like, with the min–max model band),
//! * [`output`] — aligned console tables + CSV dumps under `results/`,
//! * [`plot`] — ASCII charts beside the tables,
//! * [`provenance`] — `results/INDEX`: each artifact's digest and the
//!   command that wrote it.
//!
//! How fast the simulator itself runs is measured by the separate
//! `benchmark/` package at the repository root, not from here.
//!
//! Absolute numbers come from the simulator, not the authors' testbed; the
//! *shape* (who wins, by what factor, where crossovers fall) is the
//! reproduction target (see EXPERIMENTS.md).

pub mod analyze;
pub mod collective_fig;
pub mod experiments;
pub mod flags;
pub mod modelcheck;
pub mod modelfit;
pub mod mutation;
pub mod output;
pub mod plot;
pub mod provenance;
pub mod runconf;
pub mod sweep;
pub mod tools;
