#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # obs — the service's observability layer
//!
//! The queue service reports through two things, both always compiled in:
//!
//! * [`flight`] — the always-on flight recorder: per-thread rings of
//!   compact events tied together by a causal [`TraceId`], answering "what
//!   sequence of events preceded this" for one op.
//! * [`LatencyHistogram`] — the per-op latency meter. With
//!   `service::ShardStats` it answers "how much did it cost", and both
//!   print through `service::ServiceSnapshot::to_json`, the service's one
//!   report.
//!
//! [`json`] is the hand-rolled JSON printer every report shares. The
//! simulators' cost ledgers are not routed through here: `pram::Cost`, the
//! lazy heap's cost log and `hypercube::NetStats` are exact per-phase costs
//! in their own crates, and the bench crate checks them against the
//! Theorem 1–3 envelopes.
//!
//! ```
//! use obs::LatencyHistogram;
//!
//! let mut h = LatencyHistogram::new();
//! h.record(1_500);
//! assert_eq!(h.fields()[0], ("count", 1));
//! ```

pub mod flight;
pub mod json;
pub mod latency;

pub use flight::TraceId;
pub use latency::LatencyHistogram;
