//! The admission layer: requests, completion slots and the per-shard
//! ingress buffer.
//!
//! This is the shared-memory rendition of the paper's I/O-processor front
//! end: clients deposit operations into a *Waiting* buffer (the
//! [`Ingress`]); whichever thread wins the shard's state lock becomes the
//! combiner, drains the whole buffer as one batch (the *Forehead*), executes
//! it against the shard's [`meldpq::HeapPool`] with the bulk kernels, and
//! publishes each result through its [`OpSlot`].

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use obs::flight;
use obs::TraceId;

use crate::service::QueueId;
use crate::ServiceError;

/// One queued operation. `Meld` is absent by design: it spans two queues
/// (possibly two shards) and is executed by the service front end under both
/// shard locks instead of through a single shard's ingress.
#[derive(Debug, Clone)]
pub enum Request {
    /// `Insert(Q, x)`.
    Insert {
        /// Target queue.
        queue: QueueId,
        /// Key to add.
        key: i64,
    },
    /// `Multi-Insert(Q, keys)`.
    MultiInsert {
        /// Target queue.
        queue: QueueId,
        /// Keys to add.
        keys: Vec<i64>,
    },
    /// `Extract-Min(Q)`.
    ExtractMin {
        /// Target queue.
        queue: QueueId,
    },
    /// `Multi-Extract-Min(Q, k)`.
    ExtractK {
        /// Target queue.
        queue: QueueId,
        /// Number of keys to remove.
        k: usize,
    },
    /// `Min(Q)` without removal.
    PeekMin {
        /// Target queue.
        queue: QueueId,
    },
    /// Current size of the queue.
    Len {
        /// Target queue.
        queue: QueueId,
    },
}

impl Request {
    /// The queue this request targets.
    pub fn queue(&self) -> QueueId {
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
    pub fn op_code(&self) -> u64 {
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

/// The result published back through an [`OpSlot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// An insert completed.
    Done,
    /// A pop or peek: the key, `None` when the queue was empty.
    Key(Option<i64>),
    /// A multi-extract: the keys in ascending order.
    Keys(Vec<i64>),
    /// A length query.
    Len(usize),
    /// The operation failed (stale handle, unknown queue).
    Err(ServiceError),
}

/// One-shot completion cell a client blocks on while the combiner works.
///
/// The slot also carries the operation's flight-recorder identity: the
/// [`TraceId`] captured from the depositing thread's ambient scope (so the
/// combiner — a different thread — tags its events with the op's trace) and
/// the deposit timestamp on the recorder's clock (so the combiner can charge
/// queueing + execution latency to the shard's histogram at fill time, and
/// so latency samples line up with flight-event timestamps).
#[derive(Debug)]
pub struct OpSlot {
    result: Mutex<Option<Response>>,
    ready: Condvar,
    trace: TraceId,
    deposited_nanos: u64,
}

impl Default for OpSlot {
    fn default() -> Self {
        OpSlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
            trace: flight::current(),
            deposited_nanos: flight::now_nanos(),
        }
    }
}

impl OpSlot {
    /// A fresh, unfilled slot stamped with the caller's ambient trace.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The trace this operation belongs to ([`TraceId::NONE`] if the
    /// depositor had no ambient scope).
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// When the slot was deposited, on the [`flight::now_nanos`] clock.
    pub fn deposited_nanos(&self) -> u64 {
        self.deposited_nanos
    }

    /// Nanoseconds between deposit and `now` (a [`flight::now_nanos`]
    /// reading the caller already took; saturates to zero if clocks skew).
    pub fn age_nanos_at(&self, now: u64) -> u64 {
        now.saturating_sub(self.deposited_nanos)
    }

    // The slot mutex only ever guards `Option<Response>` writes, which
    // cannot be left half-done — poison here means some *other* invariant
    // broke while a panicking thread happened to hold this lock, so every
    // accessor recovers the guard instead of cascading the panic to
    // innocent waiters.
    fn lock_result(&self) -> std::sync::MutexGuard<'_, Option<Response>> {
        self.result.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish the result and wake the waiter. Filling twice is a combiner
    /// bug and panics.
    pub fn fill(&self, r: Response) {
        let mut g = self.lock_result();
        assert!(g.is_none(), "OpSlot filled twice");
        *g = Some(r);
        self.ready.notify_all();
    }

    /// Publish only if nothing was published yet — the panic-containment
    /// path, where the combiner cannot know how far a poisoned batch got.
    /// Returns whether this call filled the slot.
    pub fn fill_if_empty(&self, r: Response) -> bool {
        let mut g = self.lock_result();
        if g.is_some() {
            return false;
        }
        *g = Some(r);
        self.ready.notify_all();
        true
    }

    /// Take the result if the combiner has published it.
    pub fn try_take(&self) -> Option<Response> {
        self.lock_result().take()
    }

    /// Block briefly for a result; returns it if published within `dur`.
    pub fn wait_for(&self, dur: Duration) -> Option<Response> {
        let mut g = self.lock_result();
        if let Some(r) = g.take() {
            return Some(r);
        }
        let (mut g, _timeout) = self
            .ready
            .wait_timeout(g, dur)
            .unwrap_or_else(PoisonError::into_inner);
        g.take()
    }
}

/// The shard's Waiting buffer: pending `(request, completion-slot)` pairs.
///
/// Deliberately a plain `Mutex<Vec<..>>` — pushes are two pointer writes
/// under an uncontended-in-the-common-case lock, and the combiner takes the
/// whole vector in O(1) with `mem::take`.
#[derive(Debug, Default)]
pub struct Ingress {
    pending: Mutex<Vec<(Request, Arc<OpSlot>)>>,
}

impl Ingress {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deposit a request; returns the slot the result will arrive in.
    /// A poisoned buffer lock is recovered: a `Vec` push cannot be left
    /// torn, and refusing deposits forever would amplify one panic into a
    /// dead shard.
    pub fn push(&self, req: Request) -> Arc<OpSlot> {
        let slot = OpSlot::new();
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((req, Arc::clone(&slot)));
        slot
    }

    /// Take the whole pending batch (the combiner's drain).
    pub fn drain(&self) -> Vec<(Request, Arc<OpSlot>)> {
        std::mem::take(&mut *self.pending.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Number of requests currently waiting.
    pub fn depth(&self) -> usize {
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrip() {
        let s = OpSlot::new();
        assert_eq!(s.try_take(), None);
        s.fill(Response::Key(Some(7)));
        assert_eq!(s.try_take(), Some(Response::Key(Some(7))));
        assert_eq!(s.try_take(), None, "take consumes");
    }

    #[test]
    fn wait_returns_immediately_when_filled() {
        let s = OpSlot::new();
        s.fill(Response::Done);
        assert_eq!(s.wait_for(Duration::from_secs(5)), Some(Response::Done));
    }

    #[test]
    fn ingress_drains_in_arrival_order() {
        let ing = Ingress::new();
        let q = QueueId::new(0, 0, 1);
        let _s1 = ing.push(Request::Insert { queue: q, key: 1 });
        let _s2 = ing.push(Request::ExtractMin { queue: q });
        assert_eq!(ing.depth(), 2);
        let batch = ing.drain();
        assert_eq!(batch.len(), 2);
        assert!(matches!(batch[0].0, Request::Insert { .. }));
        assert!(matches!(batch[1].0, Request::ExtractMin { .. }));
        assert_eq!(ing.depth(), 0);
    }
}
