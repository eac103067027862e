#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # obs — the service's observability layer
//!
//! The queue service reports through two paths, both always compiled in:
//!
//! * [`flight`] — the always-on flight recorder: per-thread rings of
//!   compact events tied together by a causal [`TraceId`], answering "what
//!   sequence of events preceded this" for one op.
//! * [`Recorder`]/[`Registry`] — cumulative meters (`service::ShardStats`,
//!   [`LatencyHistogram`]) snapshotted under labels into one registry,
//!   answering "how much did it cost".
//!
//! [`json`] is the hand-rolled JSON printer every report shares. The
//! simulators' cost ledgers are not routed through here: `pram::Cost`, the
//! lazy heap's cost log and `hypercube::NetStats` are exact per-phase costs
//! in their own crates, and the bench crate checks them against the
//! Theorem 1–3 envelopes.
//!
//! ```
//! use obs::{LatencyHistogram, Registry};
//!
//! let mut h = LatencyHistogram::new();
//! h.record(1_500);
//! let mut reg = Registry::new();
//! reg.record("service/shard0/latency", &h);
//! assert_eq!(reg.families(), vec!["latency.histogram"]);
//! ```

pub mod flight;
pub mod json;
pub mod latency;
pub mod recorder;

pub use flight::TraceId;
pub use latency::LatencyHistogram;
pub use recorder::{Record, Recorder, Registry};
