//! The simulation engine, split by concern:
//!
//! * [`observe`] — the event spine: [`observe::ProtocolEvent`] and the
//!   [`observe::ObserverHub`], a plain struct of the three observers
//!   (coherence checker, tracer/metrics, telemetry sampler) that hands
//!   each event to the ones attached.
//! * `serve` — the coherent protocol paths: single-line reads, writes
//!   (RFO), NT stores, the memory/mcache flows, fills and evictions.
//! * `transfer` — bulk data movement: cached copy/read buffers and the
//!   bounded-MLP streaming kernels.
//!
//! [`crate::machine::Machine`] is the facade tying these together; every
//! module here implements methods on it.

pub mod observe;
pub(crate) mod serve;
pub(crate) mod transfer;
