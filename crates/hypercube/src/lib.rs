#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # hypercube — a synchronous single-port hypercube simulator
//!
//! The paper's §5 maps a distributed meldable priority queue onto a
//! `q`-dimensional hypercube `Q_q` under the *single-port* communication
//! model: per synchronous round every processor may send at most one message
//! (to a direct neighbour) and receive at most one. This crate provides:
//!
//! * [`mod@gray`] — the binary-reflected Gray code and the Hamiltonian path `Π`
//!   it embeds in `Q_q` (paper Definition 4 uses `Π(i)`);
//! * [`engine`] — the round-based network simulator that *enforces* the
//!   single-port rules and adjacency, and meters time (a round costs the
//!   longest payload moved), rounds, messages and word·hops;
//! * [`prefix`] — the *Hamiltonian prefix*: a prefix computation in
//!   path-rank order in `q` exchange rounds (the `O(log n / 2^q + q)`
//!   primitive the paper cites), plus the multi-row variant for the
//!   cyclically distributed heap array;
//! * [`routing`] — e-cube (dimension-ordered) store-and-forward routing and
//!   path shifts;
//! * [`sort`] — bitonic sort of block-distributed keys (the `b-Union`
//!   preprocessing needs a hypercube sort);
//! * [`collectives`] — broadcast / reduce / all-reduce / gather, the
//!   classic `O(q)`-round schedules, single-port verified.
//!
//! The cube is the reliable machine of the paper's §5: every round
//! delivers and every processor survives. A malformed send pattern is the
//! only failure, reported as a typed [`NetError`].

//! ```
//! use hypercube::{NetSim, Send};
//!
//! let mut net = NetSim::new(2); // a 4-node cube
//! let inbox = net.round(vec![Send { from: 0, to: 1, payload: vec![42] }]).unwrap();
//! assert_eq!(inbox[1], Some((0, vec![42])));
//! // Non-neighbours cannot talk directly:
//! assert!(net.round(vec![Send { from: 0, to: 3, payload: vec![1] }]).is_err());
//! ```

pub mod collectives;
pub mod engine;
pub mod gray;
pub mod prefix;
pub mod routing;
pub mod sort;

pub use engine::{NetError, NetSim, NetStats, Send, Word};
pub use gray::{gray, gray_inv, hamming, is_adjacent};
