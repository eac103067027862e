#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # service — a sharded, multi-tenant meldable priority-queue front end
//!
//! The paper's machine model puts an I/O processor in front of the queue:
//! operations land in a *Waiting* buffer, move to the *Forehead* as a batch,
//! and the parallel kernels serve whole batches at once. This crate is that
//! admission layer for shared-memory clients, built on the workspace's
//! zero-copy pools:
//!
//! * **Sharding** — a [`QueueService`] owns `n` shards, each an independent
//!   [`meldpq::HeapPool`] behind its own lock; queues are assigned
//!   round-robin, so unrelated tenants never contend.
//! * **Flat-combining hand-off** — there are no server threads. Clients
//!   deposit requests into the shard's ingress; whichever thread next takes
//!   the shard lock drains and executes the whole batch ([`shard`] module).
//! * **Admission batching** — a drained batch coalesces: concurrent inserts
//!   become one `multi_insert` under one capacity check and one WAL record,
//!   concurrent pops one `multi_extract_min` root-frontier peel. The
//!   [`ShardStats`] counters (and the pool's `ArenaStats`) prove it.
//! * **Handles, not borrows** — [`QueueId`] is a `Copy + Send + Sync`
//!   token (shard, slot, generation). Destroyed or melded-away queues turn
//!   handles stale ([`ServiceError::UnknownQueue`]) instead of dangling,
//!   and the API shape survives a future network front end unchanged.
//!
//! See DESIGN.md §9 at the workspace root for the shard map and the batch
//! linearization argument.

pub mod batch;
pub mod metrics;
pub mod service;
pub mod shard;
pub mod snapshot;

pub use batch::{Request, Response};
pub use metrics::ShardStats;
pub use service::{QueueId, QueueService, ServiceBuilder, Ticket};
pub use snapshot::{ServiceSnapshot, ShardSnapshot};

/// Why the service refused an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The handle does not name a live queue — it was destroyed, melded
    /// away, or never existed on this service.
    UnknownQueue(QueueId),
    /// The operation's combiner panicked mid-batch. The shard recovered
    /// (it keeps serving), but this op's effect on the queue is unknown —
    /// the client must treat it as failed.
    Internal(QueueId),
    /// A multi-key admission was refused because it would overflow the shard
    /// pool's `u32` node-id space ([`meldpq::CapacityError`]). The queue
    /// is untouched; no key of the rejected batch was admitted.
    Capacity {
        /// The queue the batch targeted.
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
                write!(f, "internal failure while serving {q}: combiner panicked")
            }
            ServiceError::Capacity { queue, err } => write!(f, "queue {queue}: {err}"),
        }
    }
}

impl std::error::Error for ServiceError {}
