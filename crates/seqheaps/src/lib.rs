#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # seqheaps — sequential meldable priority queue baselines
//!
//! This crate provides the *sequential* comparators required by the reproduction
//! of Crupi, Das & Pinotti, *"Parallel and Distributed Meldable Priority Queues
//! Based on Binomial Heaps"* (ICPP 1996):
//!
//! * [`BinomialHeap`] — the textbook (CLRS) binomial heap the paper
//!   parallelizes, using the paper's node layout (a child array `L` indexed by
//!   sub-tree order).
//! * [`LeftistHeap`] — the meldable baseline the paper positions itself
//!   against (footnote 1 and reference \[1], Chen & Hu).
//! * [`BinaryHeapAdapter`] — `std`'s binary heap behind the same trait;
//!   *not* efficiently meldable (meld rebuilds), included to demonstrate why
//!   meldability matters in the W1 experiment.
//!
//! Every structure implements the workspace's one queue trait,
//! [`MeldablePq`] (defined here, in the lowest crate, and re-exported by
//! `meldpq`). None of them offers `Decrease-Key`: the heaps move keys
//! between nodes and have no node to name, so an SSSP-style workload over
//! them reinserts the lowered key and skips stale pops, the sequential form
//! of the paper's §4 insert-and-orphan `Change-Key` (which `meldpq`'s lazy
//! heap implements on its own `NodeId`s). `Make-Queue` is `Default` or the
//! inherent `new`; each structure also carries an [`OpStats`]
//! instrumentation block (inherent `stats()`) counting key comparisons and
//! structural link operations, which the benchmark harness uses for
//! machine-independent comparisons.
//!
//! ```
//! use seqheaps::{BinomialHeap, LeftistHeap, MeldablePq};
//!
//! let mut a = BinomialHeap::new();
//! a.multi_insert(&[5, 1, 9]);
//! let mut b = BinomialHeap::new();
//! b.multi_insert(&[2, 8]);
//! a.meld(b);                       // Union in O(log n)
//! assert_eq!(a.peek_min(), Some(1));
//! assert_eq!(a.drain_sorted(), vec![1, 2, 5, 8, 9]);
//!
//! // Every baseline shares the trait:
//! let mut l = LeftistHeap::new();
//! l.multi_insert(&[3, 1, 2]);
//! assert_eq!(l.drain_sorted(), vec![1, 2, 3]);
//! ```

pub mod binary;
pub mod binomial;
pub mod leftist;
pub mod stats;
pub mod traits;

pub use binary::BinaryHeapAdapter;
pub use binomial::BinomialHeap;
pub use leftist::LeftistHeap;
pub use stats::OpStats;
pub use traits::MeldablePq;
