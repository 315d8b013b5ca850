//! Discrete-event simulator of the KNL memory system.
//!
//! This crate is the hardware substitute for the Xeon Phi KNL 7210 the paper
//! measured (see DESIGN.md §2). It models, at 64-byte line granularity:
//!
//! * per-core L1 and per-tile L2 **tag arrays** (real sets/ways/LRU),
//! * a **MESIF** coherence protocol with one distributed tag directory (CHA)
//!   per tile; requests to the same line serialize at its home CHA, which is
//!   what *produces* the paper's linear contention law `T_C(N) = α + β·N`,
//! * the **mesh of rings** as an analytic Y-then-X hop-cost fabric (the
//!   paper measured no congestion; a link-occupancy fabric is provided for
//!   ablation),
//! * **DDR channels and MCDRAM EDCs** as queueing servers with separate
//!   read/write service rates and a read↔write turnaround penalty,
//! * the **MCDRAM memory-side direct-mapped cache** of the cache/hybrid
//!   modes, with fills, dirty evictions, and the L2 snoop-on-evict rule, and
//! * **cores with bounded memory-level parallelism**, so single-thread
//!   bandwidth emerges as `overlap · 64 B / latency` and aggregate bandwidth
//!   saturates at device service rates.
//!
//! Thread workloads are [`program::Program`]s of [`ops::Op`]s executed by the
//! [`runner::Runner`]; programs synchronize through coherent flag lines
//! (`SetFlag`/`WaitFlag`), which is exactly how the paper's collectives work.

pub mod alloc;
pub mod analyze;
pub mod cache;
pub mod counters;
pub mod directory;
pub mod engine;
#[cfg(test)]
mod fold_oracle;
pub mod fxmap;
pub mod invariants;
pub mod machine;
pub mod mcache;
pub mod memdev;
pub mod mesh;
pub mod metrics;
pub mod ops;
pub mod paged;
pub mod program;
pub mod protocol;
pub mod runner;
pub mod svmap;
pub mod telemetry;
pub mod trace;

pub use alloc::Arena;
pub use analyze::{analyze, AnalysisReport, AnalyzeLevel, Finding, Rule, Severity};
pub use counters::Counters;
pub use directory::{DirEntry, GlobalState, LineState, TileSet};
pub use engine::observe::{ObserverConfig, ObserverHub, ProtocolEvent};
pub use invariants::{CheckLevel, CoherenceChecker};
pub use machine::{AccessKind, Machine};

pub use metrics::Metrics;
pub use ops::{Op, StreamKind};
pub use program::Program;
pub use protocol::{Outcome, Request};
pub use runner::{RunResult, Runner};
pub use telemetry::{TelemetryConfig, TelemetrySampler, TelemetrySeries};
pub use trace::{TraceEvent, TraceLevel, Tracer};

/// Simulated time in integer picoseconds.
pub type SimTime = u64;
