//! The parts of the qrec workload-replay benchmark that `tests/selftest.rs`
//! checks, kept apart from the orchestration in `main.rs`:
//!
//! * [`stats`] — percentiles with their sample counts, medians, and the
//!   open-loop schedule (due times, latency from due time, lateness).
//! * [`spans`] — the in-memory span recorder of the traced run and the
//!   self-time subtraction (a span minus the part its children cover).
//! * [`parity`] — the bitwise comparator between a served reply and the
//!   offline `Recommender` answer, and the served micro-F1.
//! * [`setup`] — the workloads, training from the seed, and the request
//!   streams the server is sent.
//! * [`metrics`] — the names and units the benchmark reports, as
//!   declared in `BENCHMARK.json`.

pub mod metrics;
pub mod parity;
pub mod setup;
pub mod spans;
pub mod stats;
