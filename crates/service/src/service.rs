//! The tenant-facing front end: [`QueueService`] and its handle type.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use meldpq::pool::PooledHeap;
use meldpq::wal::{WalError, WalOp};
use meldpq::{ArenaStats, Backend, HeapPool};
use obs::flight::{self, EventKind};
use obs::Registry;

use crate::batch::{OpSlot, Request, Response};
use crate::metrics::ShardStats;
use crate::shard::{Shard, ShardState, TenantHeap, TenantQueue};
use crate::snapshot::{ServiceSnapshot, ShardSnapshot};
use crate::ServiceError;

/// How long a waiter parks between attempts to steal the combiner role.
/// Short, because the worst case — a request deposited just after the
/// combiner's final drain — is only served when the waiter wakes and
/// combines it itself.
const WAIT_SLICE: Duration = Duration::from_micros(20);

/// A tenant-scoped handle to one queue: a `Copy + Send + Sync` *token*
/// (shard index, slot, generation), not a borrow — clients on any thread
/// address their queue through the service, and a destroyed queue's handles
/// go stale instead of dangling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueId {
    shard: u16,
    slot: u32,
    generation: u32,
}

impl QueueId {
    pub(crate) fn new(shard: u16, slot: u32, generation: u32) -> Self {
        QueueId {
            shard,
            slot,
            generation,
        }
    }

    /// The shard this queue lives on.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// Slot within the shard's queue table.
    pub(crate) fn slot(&self) -> u32 {
        self.slot
    }

    /// Generation guarding against slot reuse.
    pub(crate) fn generation(&self) -> u32 {
        self.generation
    }
}

impl std::fmt::Display for QueueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}.{}g{}", self.shard, self.slot, self.generation)
    }
}

/// Configuration for a [`QueueService`].
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    shards: usize,
    backend: Backend,
    durable: Option<PathBuf>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            shards: 4,
            // The measured-fastest engine for the service workload class
            // (the committed shootout selection table), env-pinnable with
            // MELDPQ_BACKEND.
            backend: meldpq::backend::default_backend(),
            durable: None,
        }
    }
}

impl ServiceBuilder {
    /// Start from the defaults (4 shards, backend from the shootout
    /// selection table).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of shards (each an independent pool + lock). Clamped to ≥ 1.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Queue engine newly created tenant queues use. Defaults to
    /// [`meldpq::backend::default_backend`] — the measured shootout winner
    /// for the service workload class, overridable with `MELDPQ_BACKEND`.
    /// [`Backend::Pooled`] keeps the zero-copy shared-slab path; any other
    /// backend boxes a self-contained engine per queue.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Make the service durable, rooted at `root`: each shard keeps a
    /// write-ahead log (and, on the pooled backend, periodic checkpoints)
    /// under `root/shard<i>/`. [`ServiceBuilder::try_build`] recovers
    /// whatever state those directories already hold, so building twice
    /// from the same root is crash recovery.
    pub fn durable(mut self, root: impl Into<PathBuf>) -> Self {
        self.durable = Some(root.into());
        self
    }

    /// Build the service, panicking if durable recovery fails. Prefer
    /// [`ServiceBuilder::try_build`] for durable services.
    pub fn build(self) -> QueueService {
        self.try_build()
            .unwrap_or_else(|e| panic!("durable service recovery failed: {e}"))
    }

    /// Build the service, recovering each shard from its durability
    /// directory when [`ServiceBuilder::durable`] was set.
    pub fn try_build(self) -> Result<QueueService, WalError> {
        let shards = (0..self.shards)
            .map(|i| match &self.durable {
                None => Ok(Shard::new(i as u16, self.backend)),
                Some(root) => {
                    Shard::new_durable(i as u16, self.backend, root.join(format!("shard{i}")))
                }
            })
            .collect::<Result<Vec<_>, WalError>>()?;
        Ok(QueueService {
            shards,
            rr: AtomicUsize::new(0),
            backend: self.backend,
        })
    }
}

/// An in-flight operation: the completion slot plus the shard whose
/// combiner will (or whose next waiter will) execute it.
#[derive(Debug, Clone)]
pub struct Ticket {
    slot: Arc<OpSlot>,
    shard: Arc<Shard>,
}

impl Ticket {
    /// Block until the result arrives. Waiters are not passive: each wait
    /// slice they retry becoming the combiner themselves, so progress never
    /// depends on any other thread surviving.
    pub fn wait(self) -> Response {
        let mut parked = false;
        let r = loop {
            if let Some(r) = self.slot.try_take() {
                break r;
            }
            self.shard.try_combine();
            if !parked {
                // First time this waiter actually blocks (it lost the
                // combiner race); recorded once, not per wait slice.
                parked = true;
                flight::record(
                    self.slot.trace(),
                    EventKind::TicketPark,
                    self.shard.index() as u64,
                );
            }
            if let Some(r) = self.slot.wait_for(WAIT_SLICE) {
                break r;
            }
        };
        if parked {
            flight::record(
                self.slot.trace(),
                EventKind::TicketUnpark,
                self.shard.index() as u64,
            );
        }
        r
    }
}

/// A sharded, thread-safe, multi-tenant meldable priority-queue service.
///
/// Shard = one [`meldpq::HeapPool`] + flat-combining lock; queues are
/// assigned to shards round-robin at creation. All methods take `&self` —
/// share the service across client threads with an `Arc`.
///
/// ```
/// use service::{Response, ServiceBuilder};
///
/// let svc = ServiceBuilder::new().shards(2).build();
/// let q = svc.create_queue();
/// svc.insert(q, 5).unwrap();
/// svc.insert(q, 1).unwrap();
/// assert_eq!(svc.extract_min(q).unwrap(), Some(1));
/// assert_eq!(svc.len(q).unwrap(), 1);
/// ```
#[derive(Debug)]
pub struct QueueService {
    shards: Vec<Arc<Shard>>,
    rr: AtomicUsize,
    backend: Backend,
}

impl Default for QueueService {
    fn default() -> Self {
        ServiceBuilder::default().build()
    }
}

impl QueueService {
    /// A service with the default configuration ([`ServiceBuilder`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The queue engine this service creates tenant queues with.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    fn shard(&self, id: QueueId) -> Result<&Arc<Shard>, ServiceError> {
        self.shards
            .get(id.shard() as usize)
            .ok_or(ServiceError::UnknownQueue(id))
    }

    /// `Make-Queue`: create an empty queue on the next shard (round-robin).
    pub fn create_queue(&self) -> QueueId {
        let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[i].create_queue()
    }

    /// Destroy a queue, freeing its nodes. Returns how many keys it held.
    pub fn destroy_queue(&self, id: QueueId) -> Result<usize, ServiceError> {
        let shard = self.shard(id)?;
        let mut st = shard.lock_state();
        // Look before logging: a stale handle must not reach the WAL.
        if st.queue_mut(id).is_none() {
            st.stats.stale_ops += 1;
            return Err(ServiceError::UnknownQueue(id));
        }
        Shard::log_ops(&mut st, &[WalOp::FreeHeap { slot: id.slot() }]);
        match st.take_queue(id)? {
            TenantHeap::Pooled(heap) => Ok(st.pool.free_heap(heap)),
            TenantHeap::Boxed(q) => Ok(q.len()),
        }
    }

    // ----- async surface: deposit now, wait on the ticket later ---------

    /// `Insert(Q, x)`, asynchronously.
    pub fn insert_async(&self, id: QueueId, key: i64) -> Result<Ticket, ServiceError> {
        self.submit(id, Request::Insert { queue: id, key })
    }

    /// `Multi-Insert(Q, keys)`, asynchronously.
    pub fn multi_insert_async(&self, id: QueueId, keys: Vec<i64>) -> Result<Ticket, ServiceError> {
        self.submit(id, Request::MultiInsert { queue: id, keys })
    }

    /// `Extract-Min(Q)`, asynchronously.
    pub fn extract_min_async(&self, id: QueueId) -> Result<Ticket, ServiceError> {
        self.submit(id, Request::ExtractMin { queue: id })
    }

    /// `Multi-Extract-Min(Q, k)`, asynchronously.
    pub fn extract_k_async(&self, id: QueueId, k: usize) -> Result<Ticket, ServiceError> {
        self.submit(id, Request::ExtractK { queue: id, k })
    }

    /// `Min(Q)`, asynchronously.
    pub fn peek_min_async(&self, id: QueueId) -> Result<Ticket, ServiceError> {
        self.submit(id, Request::PeekMin { queue: id })
    }

    /// Queue length, asynchronously.
    pub fn len_async(&self, id: QueueId) -> Result<Ticket, ServiceError> {
        self.submit(id, Request::Len { queue: id })
    }

    fn submit(&self, id: QueueId, req: Request) -> Result<Ticket, ServiceError> {
        let shard = self.shard(id)?;
        // Mint (or adopt) the op's trace before depositing: the slot
        // captures the ambient trace, so the combiner thread tags this
        // op's events with it.
        let (trace, _scope) = flight::ambient_or_new();
        flight::record(trace, EventKind::OpBegin, req.op_code());
        Ok(Ticket {
            slot: shard.submit(req),
            shard: Arc::clone(shard),
        })
    }

    /// Deposit a raw request *without* serving it — the pipelined variant of
    /// the `*_async` methods, i.e. the paper's Waiting buffer driven
    /// explicitly. The request executes at the next combine on its shard: a
    /// later synchronous op, a [`Ticket::wait`], or [`QueueService::flush`].
    /// Depositing `k` inserts and then flushing hands the combiner all `k`
    /// as one batch, which is the deterministic way to exercise (and test)
    /// the coalesced kernels (`multi_insert`, `multi_extract_min`).
    pub fn enqueue(&self, req: Request) -> Result<Ticket, ServiceError> {
        let id = req.queue();
        let shard = self.shard(id)?;
        let (trace, _scope) = flight::ambient_or_new();
        flight::record(trace, EventKind::OpBegin, req.op_code());
        Ok(Ticket {
            slot: shard.enqueue(req),
            shard: Arc::clone(shard),
        })
    }

    // ----- sync surface -------------------------------------------------
    //
    // Each sync op first tries the shard's uncontended fast path (lock free
    // → serve pending, then execute as a batch of one, answered inline with
    // no completion slot); only under contention does it deposit a slot and
    // wait — the case where the combiner's batching pays. The executor
    // answers each request kind with its own response variant or an error,
    // so the remaining arm of each method's match is unreachable.

    fn execute(&self, id: QueueId, req: Request) -> Result<Response, ServiceError> {
        let shard = self.shard(id)?;
        let (trace, _scope) = flight::ambient_or_new();
        // One clock read stamps op_begin AND starts the latency sample; the
        // fast path hands back its post-execution reading so op_end costs no
        // clock read either.
        let begun = flight::now_nanos();
        flight::record_at(begun, trace, EventKind::OpBegin, req.op_code());
        if let Some((resp, end)) = shard.execute_now(&req, begun) {
            // Fast path: no slot exists, so the combiner can't close the
            // trace — this thread was the combiner.
            flight::record_at(end, trace, EventKind::OpEnd, req.op_code());
            return Ok(resp);
        }
        let ticket = Ticket {
            slot: shard.submit(req),
            shard: Arc::clone(shard),
        };
        Ok(ticket.wait())
    }

    /// `Insert(Q, x)`.
    pub fn insert(&self, id: QueueId, key: i64) -> Result<(), ServiceError> {
        match self.execute(id, Request::Insert { queue: id, key })? {
            Response::Done => Ok(()),
            Response::Err(e) => Err(e),
            other => unreachable!("insert answered {other:?}"),
        }
    }

    /// `Multi-Insert(Q, keys)`.
    pub fn multi_insert(&self, id: QueueId, keys: Vec<i64>) -> Result<(), ServiceError> {
        match self.execute(id, Request::MultiInsert { queue: id, keys })? {
            Response::Done => Ok(()),
            Response::Err(e) => Err(e),
            other => unreachable!("multi_insert answered {other:?}"),
        }
    }

    /// `Extract-Min(Q)`: the minimum key, `None` when empty.
    pub fn extract_min(&self, id: QueueId) -> Result<Option<i64>, ServiceError> {
        match self.execute(id, Request::ExtractMin { queue: id })? {
            Response::Key(k) => Ok(k),
            Response::Err(e) => Err(e),
            other => unreachable!("extract_min answered {other:?}"),
        }
    }

    /// `Multi-Extract-Min(Q, k)`: up to `k` smallest keys, ascending.
    pub fn extract_k(&self, id: QueueId, k: usize) -> Result<Vec<i64>, ServiceError> {
        match self.execute(id, Request::ExtractK { queue: id, k })? {
            Response::Keys(v) => Ok(v),
            Response::Err(e) => Err(e),
            other => unreachable!("extract_k answered {other:?}"),
        }
    }

    /// `Min(Q)` without removal.
    pub fn peek_min(&self, id: QueueId) -> Result<Option<i64>, ServiceError> {
        match self.execute(id, Request::PeekMin { queue: id })? {
            Response::Key(k) => Ok(k),
            Response::Err(e) => Err(e),
            other => unreachable!("peek_min answered {other:?}"),
        }
    }

    /// Number of keys in the queue.
    pub fn len(&self, id: QueueId) -> Result<usize, ServiceError> {
        match self.execute(id, Request::Len { queue: id })? {
            Response::Len(n) => Ok(n),
            Response::Err(e) => Err(e),
            other => unreachable!("len answered {other:?}"),
        }
    }

    /// `Union(Q1, Q2)`: absorb `src` into `dst`, destroying `src` (its
    /// handles go stale). Same-shard melds are zero-copy plan application;
    /// cross-shard melds move nodes (counted on the arenas).
    ///
    /// Both shard locks are taken in shard-index order, so concurrent melds
    /// cannot deadlock; pending batches on both shards are served first.
    pub fn meld(&self, dst: QueueId, src: QueueId) -> Result<(), ServiceError> {
        if dst == src {
            return Ok(());
        }
        let dshard = Arc::clone(self.shard(dst)?);
        let sshard = Arc::clone(self.shard(src)?);
        if dst.shard() == src.shard() {
            let mut st = dshard.lock_state();
            // Look before taking: if dst is stale we must not destroy src.
            if st.queue_mut(dst).is_none() {
                st.stats.stale_ops += 1;
                return Err(ServiceError::UnknownQueue(dst));
            }
            if st.queue_mut(src).is_some() {
                // Both live: one logical Meld record, logged (and flushed)
                // before either queue is touched.
                Shard::log_ops(
                    &mut st,
                    &[WalOp::Meld {
                        dst: dst.slot(),
                        src: src.slot(),
                    }],
                );
            }
            let src_heap = st.take_queue(src)?;
            // Split borrows: pool, queue table and stats are disjoint fields.
            let ShardState {
                pool,
                queues,
                stats,
                ..
            } = &mut *st;
            let Some(q) = queues[dst.slot() as usize].as_mut() else {
                return Err(ServiceError::UnknownQueue(dst));
            };
            match (&mut q.heap, src_heap) {
                // Same pool: zero-copy plan application.
                (TenantHeap::Pooled(d), TenantHeap::Pooled(s)) => pool.meld(d, s),
                // Backend-agnostic fallback: drain ascending, reinsert in
                // one multi_insert.
                (dst_heap, mut src_heap) => {
                    let keys = src_heap.drain_all(pool);
                    dst_heap
                        .multi_insert(pool, &keys)
                        .map_err(|err| ServiceError::Capacity { queue: dst, err })?;
                }
            }
            stats.melds_same_shard += 1;
            return Ok(());
        }
        // Cross-shard: lock in shard-index order.
        let (first, second) = if dst.shard() < src.shard() {
            (&dshard, &sshard)
        } else {
            (&sshard, &dshard)
        };
        let mut st_first = first.lock_state();
        let mut st_second = second.lock_state();
        let (dst_state, src_state) = if dst.shard() < src.shard() {
            (&mut *st_first, &mut *st_second)
        } else {
            (&mut *st_second, &mut *st_first)
        };
        if dst_state.queue_mut(dst).is_none() {
            dst_state.stats.stale_ops += 1;
            return Err(ServiceError::UnknownQueue(dst));
        }
        if src_state.queue_mut(src).is_none() {
            src_state.stats.stale_ops += 1;
            return Err(ServiceError::UnknownQueue(src));
        }
        // Durability of a cross-shard meld is two records in two logs:
        // `FreeHeap` in the source shard's WAL, then the moved keys as
        // `FromKeys` in the destination's — each flushed before its shard
        // mutates. A crash between the two flushes loses the moved keys
        // (at-most-once, never duplicated); see DESIGN.md §15.
        Shard::log_ops(src_state, &[WalOp::FreeHeap { slot: src.slot() }]);
        let src_heap = src_state.take_queue(src)?;
        let dst_durable = dst_state.is_durable();
        let dst_is_pooled = matches!(
            dst_state.queue_mut(dst).map(|q| &q.heap),
            Some(TenantHeap::Pooled(_))
        );
        match src_heap {
            // Same engine on both sides: zero-copy node moves.
            TenantHeap::Pooled(s) if dst_is_pooled => {
                if dst_durable {
                    let keys = pooled_keys_unsorted(&src_state.pool, &s);
                    Shard::log_ops(
                        dst_state,
                        &[WalOp::FromKeys {
                            slot: dst.slot(),
                            keys,
                        }],
                    );
                }
                let ShardState { pool, queues, .. } = dst_state;
                let Some(TenantQueue {
                    heap: TenantHeap::Pooled(d),
                    ..
                }) = queues[dst.slot() as usize].as_mut()
                else {
                    return Err(ServiceError::UnknownQueue(dst));
                };
                pool.meld_cross_pool(d, &mut src_state.pool, s);
            }
            // Backend-agnostic fallback: drain ascending, reinsert in one
            // multi_insert.
            mut src_heap => {
                let keys = src_heap.drain_all(&mut src_state.pool);
                if dst_durable && !keys.is_empty() {
                    Shard::log_ops(
                        dst_state,
                        &[WalOp::FromKeys {
                            slot: dst.slot(),
                            keys: keys.clone(),
                        }],
                    );
                }
                let ShardState { pool, queues, .. } = dst_state;
                let Some(q) = queues[dst.slot() as usize].as_mut() else {
                    return Err(ServiceError::UnknownQueue(dst));
                };
                q.heap
                    .multi_insert(pool, &keys)
                    .map_err(|err| ServiceError::Capacity { queue: dst, err })?;
            }
        }
        dst_state.stats.melds_cross_shard += 1;
        Ok(())
    }

    /// Force a durability checkpoint on every shard (no-op on non-durable
    /// services). Bounds replay time before a planned shutdown.
    pub fn checkpoint(&self) {
        for s in &self.shards {
            let mut st = s.lock_state();
            st.force_checkpoint();
        }
    }

    // ----- observability ------------------------------------------------

    /// Serve every pending batch on every shard (quiesce point for tests
    /// and shutdown).
    pub fn flush(&self) {
        for s in &self.shards {
            let mut st = s.lock_state();
            s.combine_locked(&mut st);
        }
    }

    /// Snapshot one shard's batching counters.
    pub fn shard_stats(&self, shard: usize) -> ShardStats {
        self.shards[shard].lock_state().stats
    }

    /// Live introspection: a point-in-time view of every shard — queue and
    /// key counts, ingress backlog, combiner occupancy, stale-op counts and
    /// the latency histogram. Deliberately does **not** combine pending
    /// batches: serving the backlog here would destroy the very state a
    /// monitor polls this method to observe. Safe to call concurrently
    /// with live traffic.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                // Read the backlog before taking the state lock: depth is
                // what's waiting *while someone else combines*.
                let ingress_depth = s.ingress_depth();
                let st = s.peek_state();
                ShardSnapshot {
                    shard: s.index(),
                    live_queues: st.queues.iter().flatten().count(),
                    total_keys: st.queues.iter().flatten().map(|q| q.heap.len()).sum(),
                    ingress_depth,
                    stats: st.stats,
                    latency: st.latency.clone(),
                }
            })
            .collect();
        ServiceSnapshot { shards }
    }

    /// Snapshot one shard's arena counters (`allocs`/`copies` — the
    /// zero-copy proof surface).
    pub fn arena_stats(&self, shard: usize) -> ArenaStats {
        self.shards[shard].lock_state().pool.stats()
    }

    /// Record every shard's counters *and* latency histogram into an
    /// [`obs::Registry`]: `service.shard` rows under `service/shard<i>`,
    /// `latency.histogram` rows under `service/shard<i>/latency`. Pending
    /// batches are served first so the registry reflects a quiesced state.
    pub fn record_into(&self, reg: &mut Registry) {
        self.flush();
        self.snapshot().record_into(reg);
    }

    /// Deep structural validation of every live queue on every shard:
    /// pooled heaps through the pool's ownership-aware check, boxed
    /// backends through their own `MeldablePq::check_invariants`.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.shards.iter().enumerate() {
            let st = s.lock_state();
            for q in st.queues.iter().flatten() {
                q.heap
                    .check_invariants(&st.pool)
                    .map_err(|e| format!("shard {i}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Every key reachable from a pooled heap, in arbitrary order. Read-only —
/// used to serialize a cross-shard move into the destination's WAL without
/// giving up the zero-copy meld.
fn pooled_keys_unsorted(pool: &HeapPool<i64>, h: &PooledHeap) -> Vec<i64> {
    let mut ids = Vec::with_capacity(h.len());
    pool.collect_node_ids(h, &mut ids);
    ids.into_iter().map(|id| pool.arena().get(id).key).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_insert_extract_roundtrip() {
        let svc = ServiceBuilder::new().shards(2).build();
        let q = svc.create_queue();
        svc.insert(q, 5).unwrap();
        svc.multi_insert(q, vec![3, 9, 1]).unwrap();
        assert_eq!(svc.peek_min(q).unwrap(), Some(1));
        assert_eq!(svc.extract_min(q).unwrap(), Some(1));
        assert_eq!(svc.extract_k(q, 2).unwrap(), vec![3, 5]);
        assert_eq!(svc.len(q).unwrap(), 1);
        svc.validate().unwrap();
        assert_eq!(svc.destroy_queue(q).unwrap(), 1);
        assert!(svc.insert(q, 0).is_err(), "destroyed handle is stale");
    }

    #[test]
    fn round_robin_shard_assignment() {
        let svc = ServiceBuilder::new().shards(3).build();
        let shards: Vec<u16> = (0..6).map(|_| svc.create_queue().shard()).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn meld_same_shard_and_cross_shard() {
        let svc = ServiceBuilder::new().shards(2).build();
        let a = svc.create_queue(); // shard 0
        let b = svc.create_queue(); // shard 1
        let c = svc.create_queue(); // shard 0
        svc.multi_insert(a, vec![1, 4]).unwrap();
        svc.multi_insert(b, vec![2, 5]).unwrap();
        svc.multi_insert(c, vec![3, 6]).unwrap();
        svc.meld(a, c).unwrap(); // same shard, zero-copy
        assert!(svc.len(c).is_err(), "melded-away queue is stale");
        svc.meld(a, b).unwrap(); // cross shard, counted moves
        assert_eq!(svc.extract_k(a, 6).unwrap(), vec![1, 2, 3, 4, 5, 6]);
        let s0 = svc.shard_stats(0);
        assert_eq!(s0.melds_same_shard, 1);
        assert_eq!(s0.melds_cross_shard, 1);
        svc.validate().unwrap();
    }

    #[test]
    fn boxed_backends_serve_the_full_request_surface() {
        // Non-pooled tenants route through TenantHeap::Boxed: melds fall
        // back to drain + multi_insert but the observable semantics are
        // identical to the zero-copy pooled path.
        for backend in [Backend::Hollow, Backend::Pairing, Backend::Binomial] {
            let svc = ServiceBuilder::new().shards(2).backend(backend).build();
            assert_eq!(svc.backend(), backend);
            let a = svc.create_queue(); // shard 0
            let b = svc.create_queue(); // shard 1
            let c = svc.create_queue(); // shard 0
            svc.multi_insert(a, vec![4, 1]).unwrap();
            svc.multi_insert(b, vec![5, 2]).unwrap();
            svc.multi_insert(c, vec![6, 3]).unwrap();
            svc.meld(a, c).unwrap(); // same shard
            svc.meld(a, b).unwrap(); // cross shard
            assert_eq!(svc.peek_min(a).unwrap(), Some(1), "{}", backend.name());
            assert_eq!(
                svc.extract_k(a, 6).unwrap(),
                vec![1, 2, 3, 4, 5, 6],
                "{}",
                backend.name()
            );
            svc.validate().unwrap();
            assert_eq!(svc.destroy_queue(a).unwrap(), 0);
        }
    }

    /// A boxed engine whose self-check always fails: stands in for a
    /// corrupted backend so `validate` must surface it.
    struct CorruptPq;

    impl meldpq::MeldablePq<i64> for CorruptPq {
        fn len(&self) -> usize {
            0
        }
        fn insert(&mut self, _key: i64) {}
        fn peek_min(&mut self) -> Option<i64> {
            None
        }
        fn extract_min(&mut self) -> Option<i64> {
            None
        }
        fn meld(&mut self, _other: Self) {}
        fn check_invariants(&self) -> Result<(), String> {
            Err("injected corruption".into())
        }
    }

    #[test]
    fn validate_checks_boxed_tenants() {
        let svc = ServiceBuilder::new()
            .shards(1)
            .backend(Backend::Pairing)
            .build();
        let q = svc.create_queue();
        svc.insert(q, 3).unwrap();
        svc.validate().unwrap();
        svc.shards[0].lock_state().queue_mut(q).unwrap().heap =
            TenantHeap::Boxed(Box::new(CorruptPq));
        let err = svc.validate().unwrap_err();
        assert!(err.contains("injected corruption"), "got: {err}");
    }

    #[test]
    fn sync_call_into_a_panicking_tenant_is_contained() {
        let svc = ServiceBuilder::new()
            .shards(1)
            .backend(Backend::Pooled)
            .build();
        let good = svc.create_queue();
        let bad = svc.create_queue();
        svc.shards[0].lock_state().queue_mut(bad).unwrap().heap =
            TenantHeap::Boxed(Box::new(crate::shard::tests::PanickingPq));
        assert_eq!(svc.insert(bad, 9), Err(ServiceError::Internal(bad)));
        let stats = svc.shard_stats(0);
        assert_eq!(stats.combiner_panics, 1);
        assert_eq!(stats.poison_recoveries, 0, "lock never poisoned");
        svc.insert(good, 4).unwrap();
        assert_eq!(svc.extract_min(good).unwrap(), Some(4));
    }

    /// Answer `req` through the synchronous surface (the fast path when
    /// uncontended).
    fn call(svc: &QueueService, req: Request) -> Response {
        let resp = match req {
            Request::Insert { queue, key } => svc.insert(queue, key).map(|()| Response::Done),
            Request::MultiInsert { queue, keys } => {
                svc.multi_insert(queue, keys).map(|()| Response::Done)
            }
            Request::ExtractMin { queue } => svc.extract_min(queue).map(Response::Key),
            Request::ExtractK { queue, k } => svc.extract_k(queue, k).map(Response::Keys),
            Request::PeekMin { queue } => svc.peek_min(queue).map(Response::Key),
            Request::Len { queue } => svc.len(queue).map(Response::Len),
        };
        resp.unwrap_or_else(Response::Err)
    }

    #[test]
    fn fast_path_and_batch_of_one_take_one_path() {
        let root = std::env::temp_dir().join(format!("svc-one-path-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let open = |side: &str| {
            ServiceBuilder::new()
                .shards(1)
                .backend(Backend::Pooled)
                .durable(root.join(side))
                .build()
        };
        let (sync, deposit) = (open("sync"), open("deposit"));
        let mut queues = Vec::new();
        for svc in [&sync, &deposit] {
            let q = svc.create_queue();
            let stale = svc.create_queue();
            svc.destroy_queue(stale).unwrap();
            queues.push((q, stale));
        }
        assert_eq!(queues[0], queues[1], "both services mint the same handles");
        let (q, stale) = queues[0];
        let script = [
            Request::Insert { queue: q, key: 5 },
            Request::MultiInsert {
                queue: q,
                keys: vec![3],
            },
            Request::MultiInsert {
                queue: q,
                keys: vec![9, 1, 7, 2, 8, 6],
            },
            Request::ExtractMin { queue: q },
            Request::ExtractK { queue: q, k: 1 },
            Request::ExtractK { queue: q, k: 3 },
            Request::PeekMin { queue: q },
            Request::Len { queue: q },
            Request::Insert {
                queue: stale,
                key: 4,
            },
        ];
        for req in script {
            let via_sync = call(&sync, req.clone());
            let ticket = deposit.enqueue(req.clone()).unwrap();
            deposit.flush();
            assert_eq!(via_sync, ticket.wait(), "{req:?}");
        }
        assert_eq!(
            sync.extract_k(q, usize::MAX).unwrap(),
            vec![7, 8, 9],
            "drained contents"
        );
        assert_eq!(deposit.extract_k(q, usize::MAX).unwrap(), vec![7, 8, 9]);
        let [mut a, mut b] = [sync.shard_stats(0), deposit.shard_stats(0)];
        assert_eq!(
            (a.combines, a.combine_ns),
            (0, 0),
            "the fast path never combines"
        );
        assert!(b.combines > 0);
        (a.combines, a.combine_ns, b.combines, b.combine_ns) = (0, 0, 0, 0);
        assert_eq!(a, b);
        assert_eq!(
            (a.single_inserts, a.coalesced_inserts),
            (2, 6),
            "one key inserts, more multi_insert"
        );
        drop((sync, deposit));
        let log = |side: &str| {
            meldpq::wal::read_wal(&root.join(side).join("shard0").join(meldpq::wal::WAL_FILE))
                .unwrap()
                .records
        };
        let records = log("sync");
        assert_eq!(records, log("deposit"));
        let kinds: Vec<&str> = records
            .iter()
            .map(|(_, op)| match op {
                WalOp::CreateHeap { .. } => "create",
                WalOp::FreeHeap { .. } => "free",
                WalOp::Insert { .. } => "insert",
                WalOp::FromKeys { .. } => "from_keys",
                WalOp::ExtractMin { .. } => "extract_min",
                WalOp::MultiExtractMin { .. } => "multi_extract",
                WalOp::Meld { .. } => "meld",
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "create",
                "create",
                "free",
                "insert",
                "insert",
                "from_keys",
                "extract_min",
                "extract_min",
                "multi_extract",
                "multi_extract",
            ]
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn meld_with_stale_dst_preserves_src() {
        let svc = ServiceBuilder::new().shards(1).build();
        let a = svc.create_queue();
        let b = svc.create_queue();
        svc.insert(b, 7).unwrap();
        svc.destroy_queue(a).unwrap();
        assert!(svc.meld(a, b).is_err());
        assert_eq!(svc.len(b).unwrap(), 1, "src survives a failed meld");
    }

    #[test]
    fn self_meld_is_a_noop() {
        let svc = QueueService::new();
        let q = svc.create_queue();
        svc.insert(q, 1).unwrap();
        svc.meld(q, q).unwrap();
        assert_eq!(svc.len(q).unwrap(), 1);
    }

    #[test]
    fn tickets_resolve_out_of_order() {
        let svc = ServiceBuilder::new().shards(1).build();
        let q = svc.create_queue();
        let t1 = svc.insert_async(q, 4).unwrap();
        let t2 = svc.insert_async(q, 2).unwrap();
        let t3 = svc.extract_min_async(q).unwrap();
        assert_eq!(t3.wait(), Response::Key(Some(2)));
        assert_eq!(t1.wait(), Response::Done);
        assert_eq!(t2.wait(), Response::Done);
    }

    #[test]
    fn registry_and_arena_snapshots() {
        // Arena counters are a pooled-backend property: pin it so a
        // MELDPQ_BACKEND env pin can't redirect the assertion target.
        let svc = ServiceBuilder::new()
            .shards(1)
            .backend(Backend::Pooled)
            .build();
        let q = svc.create_queue();
        svc.multi_insert(q, (0..64).collect()).unwrap();
        let mut reg = Registry::new();
        svc.record_into(&mut reg);
        assert_eq!(reg.records().len(), 2, "stats + latency per shard");
        assert_eq!(reg.records()[0].family, "service.shard");
        assert_eq!(reg.records()[1].family, "latency.histogram");
        assert!(
            reg.records()[1]
                .fields
                .iter()
                .any(|(k, v)| k == "count" && *v >= 1),
            "served requests appear in the latency histogram"
        );
        let arena = svc.arena_stats(0);
        assert_eq!(arena.allocs, 64);
        assert_eq!(arena.copies, 0, "multi_insert must be zero-copy");
    }

    #[test]
    fn snapshot_observes_backlog_without_serving_it() {
        let svc = ServiceBuilder::new().shards(2).build();
        let q = svc.create_queue(); // shard 0
        svc.insert(q, 3).unwrap();
        // Deposit without combining: the pipelined enqueue leaves the
        // request in the Waiting buffer.
        let t = svc
            .enqueue(Request::Insert { queue: q, key: 9 })
            .expect("enqueue");
        let snap = svc.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.shards[0].live_queues, 1);
        assert_eq!(snap.shards[0].total_keys, 1);
        assert_eq!(
            snap.shards[0].ingress_depth, 1,
            "snapshot must not combine the pending batch away"
        );
        assert_eq!(snap.total_backlog(), 1);
        assert_eq!(t.wait(), Response::Done);
        let snap = svc.snapshot();
        assert_eq!(snap.total_backlog(), 0);
        assert_eq!(snap.shards[0].total_keys, 2);
        assert!(
            snap.shards[0].stats.combines >= 1,
            "serving the deposited batch counts a combiner session"
        );
        assert!(snap.latency().count() >= 2);
    }

    #[test]
    fn flight_trace_links_begin_to_end() {
        let svc = ServiceBuilder::new().shards(1).build();
        let q = svc.create_queue();
        let t = obs::TraceId::next();
        {
            let _scope = flight::trace_scope(t);
            svc.insert(q, 42).unwrap();
        }
        let line = flight::trace_timeline(&flight::snapshot(), t);
        assert!(
            line.iter()
                .any(|e| e.kind == EventKind::OpBegin && e.arg == 1),
            "insert op_begin under the caller's trace: {line:?}"
        );
        assert!(
            line.iter()
                .any(|e| e.kind == EventKind::OpEnd && e.arg == 1),
            "insert op_end under the caller's trace: {line:?}"
        );
    }
}
