//! One request to a shard and its answer. [`crate::QueueService`]'s
//! synchronous methods build a [`Request`], run it under the shard's lock
//! (`Shard::execute`) and unpack the [`Response`].

use crate::service::QueueId;
use crate::ServiceError;

/// One operation on one queue. `Meld` is absent by design: it spans two
/// queues (possibly two shards) and is executed by the service front end
/// under both shard locks.
#[derive(Debug, Clone)]
pub(crate) enum Request {
    /// `Insert(Q, x)`.
    Insert { queue: QueueId, key: i64 },
    /// `Multi-Insert(Q, keys)`.
    MultiInsert { queue: QueueId, keys: Vec<i64> },
    /// `Extract-Min(Q)`.
    ExtractMin { queue: QueueId },
    /// `Multi-Extract-Min(Q, k)`.
    ExtractK { queue: QueueId, k: usize },
    /// `Min(Q)` without removal.
    PeekMin { queue: QueueId },
    /// Current size of the queue.
    Len { queue: QueueId },
}

impl Request {
    /// The queue this request targets.
    pub(crate) fn queue(&self) -> QueueId {
        match self {
            Request::Insert { queue, .. }
            | Request::MultiInsert { queue, .. }
            | Request::ExtractMin { queue }
            | Request::ExtractK { queue, .. }
            | Request::PeekMin { queue }
            | Request::Len { queue } => *queue,
        }
    }

    /// The keys this request inserts (empty for reads and pops).
    pub(crate) fn inserted_keys(&self) -> &[i64] {
        match self {
            Request::Insert { key, .. } => std::slice::from_ref(key),
            Request::MultiInsert { keys, .. } => keys,
            _ => &[],
        }
    }

    /// Stable numeric operation code, used as the argument word of the
    /// flight recorder's `op_begin`/`op_end` events.
    pub(crate) fn op_code(&self) -> u64 {
        match self {
            Request::Insert { .. } => 1,
            Request::MultiInsert { .. } => 2,
            Request::ExtractMin { .. } => 3,
            Request::ExtractK { .. } => 4,
            Request::PeekMin { .. } => 5,
            Request::Len { .. } => 6,
        }
    }
}

/// What a [`Request`] answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Response {
    /// An insert completed.
    Done,
    /// A pop or peek: the key, `None` when the queue was empty.
    Key(Option<i64>),
    /// A multi-extract: the keys in ascending order.
    Keys(Vec<i64>),
    /// A length query.
    Len(usize),
    /// The operation failed (stale handle, capacity, contained panic).
    Err(ServiceError),
}
