#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # service — a sharded, multi-tenant meldable priority-queue front end
//!
//! Shared-memory clients address many tenant queues through one
//! [`QueueService`], built on the workspace's zero-copy pools:
//!
//! * **Sharding** — a [`QueueService`] owns `n` shards, each an independent
//!   [`meldpq::HeapPool`] behind its own lock; queues are assigned
//!   round-robin, so unrelated tenants never contend.
//! * **Lock and run** — there are no server threads and no request
//!   buffer. Every operation is one synchronous call: it takes its shard's
//!   lock (spinning briefly, then blocking) and runs under a panic barrier
//!   ([`shard`] module). A multi-key insert runs one `multi_insert` under
//!   one capacity check and one WAL record, and a multi-key pop one
//!   `multi_extract_min` root-frontier peel; the [`ShardStats`] counters
//!   (and the pool's `ArenaStats`) show which kernel ran.
//! * **Handles, not borrows** — [`QueueId`] is a `Copy + Send + Sync`
//!   token (shard, slot, generation). Destroyed or melded-away queues turn
//!   handles stale ([`ServiceError::UnknownQueue`]) instead of dangling,
//!   and the API shape survives a future network front end unchanged.
//!
//! The paper's I/O-processor `Waiting`/`Forehead` buffers are reproduced in
//! the `dmpq` crate, not here. See DESIGN.md §9 at the workspace root for
//! the shard map and how a request picks its kernel.

mod batch;
pub mod metrics;
pub mod service;
pub mod shard;
pub mod snapshot;

pub use metrics::ShardStats;
pub use service::{QueueId, QueueService, ServiceBuilder};
pub use snapshot::{ServiceSnapshot, ShardSnapshot};

/// Why the service refused an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The handle does not name a live queue — it was destroyed, melded
    /// away, or never existed on this service.
    UnknownQueue(QueueId),
    /// The request panicked while it ran. The shard recovered (it keeps
    /// serving), but this op's effect on the queue is unknown — the client
    /// must treat it as failed.
    Internal(QueueId),
    /// An insert was refused because it would overflow the shard pool's
    /// `u32` node-id space ([`meldpq::CapacityError`]). The queue is
    /// untouched; no key of the rejected request was admitted.
    Capacity {
        /// The queue the request targeted.
        queue: QueueId,
        /// The typed capacity refusal from the pool.
        err: meldpq::CapacityError,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownQueue(q) => write!(f, "unknown or stale queue handle {q}"),
            ServiceError::Internal(q) => {
                write!(
                    f,
                    "internal failure while serving {q}: the request panicked"
                )
            }
            ServiceError::Capacity { queue, err } => write!(f, "queue {queue}: {err}"),
        }
    }
}

impl std::error::Error for ServiceError {}
