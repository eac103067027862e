#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # dmpq — distributed meldable priority queue on a single-port hypercube
//!
//! The paper's §5 system:
//!
//! * [`bheap`] — the *b-bandwidth binomial heap* (Definition 5): each node
//!   stores `b` sorted keys; the heap order extends to "every key of a child
//!   ≥ every key of its parent".
//! * [`mapping`] — Definition 4: the node of degree `i` resides on hypercube
//!   processor `Π(i mod 2^q)` along the Gray-code Hamiltonian path, with
//!   Properties 1–3 (and Figure 4) verified in tests.
//! * [`queue`] — Definition 6: the queue `Q` = distributed `b`-binomial
//!   heap + `Forehead(Q)` (sorted buffer of extracted-but-unconsumed items)
//!   plus `Waiting(Q)` (binary min-heap of inserted-but-unflushed items) on
//!   an I/O processor; `Insert`/`Min`/`Extract-Min` are buffered, and
//!   `Multi-Insert`/`Multi-Extract-Min` are built on the
//!   communication-metered `b_union`.
//! * [`soa`] — the structure-of-arrays key-block layout and the merge-path
//!   kernel: when both melding sides already satisfy chunk order, the
//!   preprocessing sort collapses to an `O(N)` chunked parallel merge.
//!
//! All actual data movement (preprocessing sort, chunk redistribution,
//! Hamiltonian prefixes for Phases I–II, child-address and dominant-root
//! transfers of Phase III) executes on the [`hypercube`] simulator, which
//! enforces single-port legality and meters time/words; the host mirrors the
//! structure for validation. As in the paper, the cube is reliable; every
//! communicating operation still returns `Result<_, `[`QueueError`]`>`, so
//! an illegal send pattern or a broken invariant is a typed error, not a
//! panic.

//! ```
//! use dmpq::DistributedPq;
//!
//! let mut pq = DistributedPq::new(2, 4); // Q_2 cube, bandwidth 4
//! for k in [7, 3, 9, 1, 5, 8, 2, 6] {
//!     pq.insert(k).unwrap(); // the reliable cube: errors cannot occur
//! }
//! assert_eq!(pq.extract_min().unwrap(), Some(1));
//! assert_eq!(pq.extract_min().unwrap(), Some(2));
//! // All data movement was metered on the single-port simulator:
//! assert!(pq.net_stats().messages > 0);
//! ```

pub mod bheap;
pub mod mapping;
pub mod queue;
pub mod soa;

pub use bheap::{BbHeap, BbNodeId};
pub use mapping::processor_of_degree;
pub use queue::{DOp, DistributedPq, QueueError};
