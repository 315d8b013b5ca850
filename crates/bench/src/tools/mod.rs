//! The `knl` subcommands that are not experiments, each a function over
//! its argument list (the words after the subcommand).

pub mod lint;
pub mod mc;
pub mod provenance;
pub mod report;
pub mod trace;
