#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # meldpq — the paper's contribution
//!
//! Parallel meldable priority queues based on binomial heaps, after
//! Crupi, Das & Pinotti (ICPP 1996):
//!
//! * [`heap::ParBinomialHeap`] — the §3 structure with `Union` by carry
//!   chains + segmented prefix minima + one parallel link round, planned on
//!   the host by the sequential [`plan::build_plan_into`] or on the PRAM
//!   simulator ([`engine_pram`], which returns measured [`pram::Cost`]).
//!   Nothing runs on host threads: inserts, single or batched
//!   ([`pool::HeapPool::multi_insert`]), ripple in, and the paper's
//!   parallelism is measured on the simulators, where `p` is exact.
//!   It is a [`pool::HeapPool`] holding one heap: the service's shards keep
//!   many heaps in one pool so that their melds copy no node.
//! * [`lazy::LazyBinomialHeap`] — the §4 structure with `Delete` /
//!   `Change-Key` via persistent empty nodes (`Take-Up`) and periodic
//!   `Arrange-Heap` rebuilds.
//!
//! Every engine here implements the workspace's one queue trait,
//! [`MeldablePq`]. The trait is defined in `seqheaps` (whose baselines
//! implement it directly) and re-exported from this crate, so
//! `meldpq::MeldablePq` and `seqheaps::MeldablePq` are the same trait.
//! The paper's one decrease, §4's `Change-Key`, is
//! [`lazy::LazyBinomialHeap::change_key`] on a [`NodeId`]; every other
//! engine lowers a key by reinserting it and skipping the stale copy.
//!
//! See DESIGN.md at the workspace root for the experiment map.
//!
//! ```
//! use meldpq::ParBinomialHeap;
//!
//! let mut a = ParBinomialHeap::from_keys([5, 1, 9]);
//! let b = ParBinomialHeap::from_keys([2, 8]);
//! a.meld(b);
//! assert_eq!(a.extract_min(), Some(1));
//!
//! // The same Union measured on the EREW PRAM simulator (Theorem 1):
//! let h1 = ParBinomialHeap::from_keys(0..31);
//! let h2 = ParBinomialHeap::from_keys(100..131);
//! let w = meldpq::plan::plan_width(h1.len(), h2.len());
//! let out = meldpq::engine_pram::build_plan_pram(
//!     &h1.root_refs(w), &h2.root_refs(w), 2).unwrap();
//! assert!(out.cost.time > 0 && out.cost.work >= out.cost.time);
//! ```

pub mod arena;
pub mod backend;
pub mod build;
pub mod check;
pub mod cutoff;
pub mod engine_pram;
pub mod heap;
pub mod lazy;
pub mod meldable;
pub mod plan;
pub mod pool;
pub mod viz;
pub mod wal;

pub use arena::{Arena, ArenaStats, Node, NodeId};
pub use backend::Backend;
pub use heap::ParBinomialHeap;
pub use meldable::{MeldablePq, PramMeasured};
pub use plan::{LinkOp, PointType, RootRef, UnionPlan};
pub use pool::{CapacityError, HeapPool, PooledHeap};
pub use wal::{DurablePool, Engine, HeapId, WalError, WalOp, WalWriter};
