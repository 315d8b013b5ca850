//! Model-tuned shared-memory collectives and their baselines on the
//! simulated KNL.
//!
//! * [`plan`]: what a tuned tree or barrier means per rank — the optimized
//!   tree over one leader per tile, a flat subtree inside each tile.
//! * [`simspec`]: how it executes — the tuned shapes and the OpenMP-like
//!   and MPI-like baselines as `knl_sim` programs over coherent flag lines,
//!   which is how the paper's Figs. 6–8 are regenerated with KNL timing.

pub mod plan;
pub mod simspec;

pub use plan::{PlanError, RankPlan};
