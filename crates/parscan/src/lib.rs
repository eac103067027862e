#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # parscan — parallel prefix toolkit
//!
//! Phase I of the paper's `Union` computes binary-addition carries, and
//! Phase II computes *segmented prefix minima* over the linking chains; both
//! are instances of prefix computation over an associative operator. This
//! crate provides the operators, a sequential oracle and two PRAM-hosted
//! execution strategies:
//!
//! * [`seq`] — plain sequential scans (the oracles);
//! * [`pram_host`] — work-efficient EREW Blelloch up/down-sweep scans executed
//!   *on the [`pram`] simulator*, used by the `Pram` engine of `meldpq` and by
//!   the Theorem 1 experiments;
//! * [`pram_crew`] — the CREW Hillis–Steele scan and the EREW doubling
//!   broadcast, including the executable CREW/EREW model separation.
//!
//! The domain-specific operators live in:
//!
//! * [`carry`] — the Kill/Propagate/Generate carry-status monoid of
//!   carry-lookahead addition (paper §3.1);
//! * [`segmin`] — the segmented-minimum pair monoid driving `I_value`/`I_lim`
//!   (paper §3.2).

//! ```
//! use parscan::{carry_status, compose_status, CarryStatus};
//! use parscan::seq::segmented_prefix_min;
//!
//! // The carry monoid of §3.1:
//! let s = compose_status(carry_status(true, true), carry_status(true, false));
//! assert_eq!(s, CarryStatus::Generate); // a generate propagates through
//!
//! // The Phase II primitive:
//! let flags = [true, false, false, true];
//! assert_eq!(segmented_prefix_min(&flags, &[5, 3, 4, 9]), vec![5, 3, 3, 9]);
//! ```

pub mod carry;
pub mod pram_crew;
pub mod pram_host;
pub mod segmin;
pub mod seq;

pub use carry::{
    carry_status, compose_status, compose_status_words, CarryError, CarryStatus, POISON_WORD,
};
pub use segmin::{seg_identity, seg_op, SegPair};
