#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # bench — experiment harness
//!
//! Everything needed to regenerate the paper's figures and to measure the
//! theorem-shaped scaling claims:
//!
//! * [`workloads`] — seeded random keys and heaps, the service call mix,
//!   and the shootout's workload classes and their scripts;
//! * [`table`] — plain-text table rendering for the `report_*` binaries;
//! * [`experiments`] — the data behind every experiment in DESIGN.md §4
//!   (F1–F4 figure reproductions, T1–T3 theorem scalings, A1–A4 ablations),
//!   shared by the report binaries and the integration tests;
//! * [`bounds`] — the Theorem 1–3 cost envelopes that
//!   `tests/theorem_shapes.rs` fits on small rows and checks on large ones;
//! * [`paired`] — the wall-clock suite's gate rule: interleaved pairs, a
//!   median pair ratio and its noise floor.

pub mod bounds;
pub mod experiments;
pub mod json;
pub mod paired;
pub mod table;
pub mod workloads;
