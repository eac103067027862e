#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # obs — the unified telemetry layer
//!
//! Every engine crate in the workspace charges its costs to a different
//! meter: the PRAM simulator returns `pram::Cost` time/work, the
//! sequential heaps count comparisons/links, the lazy operations charge a
//! `CostMeter`, and the hypercube counts rounds/messages/word-hops. This
//! crate is the leaf they all depend on so those meters can be *captured in
//! one place*:
//!
//! * [`mod@span`] — nestable wall-clock spans at the algorithm's phase
//!   boundaries (`union/phase2`, `lazy/arrange_heap;bubble_up`,
//!   `dmpq/b_union;preprocess`, …). Compiled to zero-cost no-ops unless the
//!   `telemetry` feature is on, so the bench hot loops pay nothing.
//! * [`Recorder`]/[`Registry`] — the cross-crate meter registry; each meter
//!   family implements [`Recorder`] in its home crate.
//! * [`bounds`] — the Theorem 1–3 cost envelopes with explicitly fitted
//!   constants, and the measured-vs-bound conformance rows.
//! * [`Telemetry`] — the run-level document tying spans + meters +
//!   conformance together, with hand-rolled JSON export ([`json::J`]) and a
//!   human-readable phase-tree rendering.
//!
//! The `meldpq-trace` binary in the `bench` crate is the reference consumer:
//! it runs a scripted workload and emits `reports/TELEMETRY_<workload>.json`.
//!
//! ```
//! let _root = obs::span("union/pram");
//! {
//!     let _p2 = obs::span("union/phase2");
//!     // ... segmented prefix minima ...
//! } // phase2 closes here
//! let spans = obs::take_spans(); // empty unless --features telemetry
//! assert!(spans.len() <= 2);
//! ```

pub mod bounds;
pub mod flight;
pub mod json;
pub mod latency;
pub mod recorder;
pub mod span;

pub use flight::TraceId;
pub use latency::LatencyHistogram;
pub use recorder::{Record, Recorder, Registry, Telemetry};
pub use span::{enabled, span, take_all_spans, take_spans, SpanGuard, SpanStat};
