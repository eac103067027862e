//! The tenant-facing front end: [`QueueService`] and its handle type.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use meldpq::pool::PooledHeap;
use meldpq::wal::{WalError, WalOp};
use meldpq::{ArenaStats, Backend, HeapPool};
use obs::flight::{self, EventKind};
use obs::Registry;

use crate::batch::{Request, Response};
use crate::metrics::ShardStats;
use crate::shard::{Shard, ShardState};
use crate::snapshot::{ServiceSnapshot, ShardSnapshot};
use crate::ServiceError;

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
    durable: Option<PathBuf>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            shards: 4,
            durable: None,
        }
    }
}

impl ServiceBuilder {
    /// Start from the defaults (4 shards, not durable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of shards (each an independent pool + lock). Clamped to ≥ 1.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Make the service durable, rooted at `root`: each shard keeps a
    /// write-ahead log and periodic checkpoints under `root/shard<i>/`.
    /// [`ServiceBuilder::try_build`] recovers whatever state those
    /// directories already hold, so building twice from the same root is
    /// crash recovery.
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
                None => Ok(Shard::new(i as u16)),
                Some(root) => Shard::new_durable(i as u16, root.join(format!("shard{i}"))),
            })
            .collect::<Result<Vec<_>, WalError>>()?;
        Ok(QueueService {
            shards,
            rr: AtomicUsize::new(0),
        })
    }
}

/// A sharded, thread-safe, multi-tenant meldable priority-queue service.
///
/// Shard = one [`meldpq::HeapPool`] behind one lock; queues are assigned
/// to shards round-robin at creation. Every operation is one synchronous
/// call that takes its shard's lock. All methods take `&self` — share the
/// service across client threads with an `Arc`.
///
/// ```
/// use service::ServiceBuilder;
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
    shards: Vec<Shard>,
    rr: AtomicUsize,
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

    /// The queue engine of every tenant queue: always [`Backend::Pooled`],
    /// a heap in its shard's [`HeapPool`]. Kept for callers that record the
    /// engine next to their measurements.
    pub fn backend(&self) -> Backend {
        Backend::Pooled
    }

    fn shard(&self, id: QueueId) -> Result<&Shard, ServiceError> {
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
            st.stats().stale_ops += 1;
            return Err(ServiceError::UnknownQueue(id));
        }
        Shard::log_ops(&mut st, &[WalOp::FreeHeap { slot: id.slot() }]);
        let heap = st.take_queue(id)?;
        Ok(st.pool.free_heap(heap))
    }

    // Each op locks its shard and runs inline (`Shard::execute`): under
    // contention it spins on the lock, then blocks on it. The executor
    // answers each request kind with its own response variant or an error,
    // so the remaining arm of each method's match is unreachable.

    fn execute(&self, id: QueueId, req: Request) -> Result<Response, ServiceError> {
        let shard = self.shard(id)?;
        let (trace, _scope) = flight::ambient_or_new();
        // One clock read stamps op_begin AND starts the latency sample;
        // `Shard::execute` hands back its post-execution reading so op_end
        // costs no clock read either. The calling thread runs its own op,
        // so it both opens and closes the op's trace.
        let begun = flight::now_nanos();
        flight::record_at(begun, trace, EventKind::OpBegin, req.op_code());
        let (resp, end) = shard.execute(&req, begun);
        flight::record_at(end, trace, EventKind::OpEnd, req.op_code());
        Ok(resp)
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
    /// cannot deadlock.
    pub fn meld(&self, dst: QueueId, src: QueueId) -> Result<(), ServiceError> {
        if dst == src {
            return Ok(());
        }
        let dshard = self.shard(dst)?;
        let sshard = self.shard(src)?;
        if dst.shard() == src.shard() {
            let mut st = dshard.lock_state();
            // Look before taking: if dst is stale we must not destroy src.
            if st.queue_mut(dst).is_none() {
                st.stats().stale_ops += 1;
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
            // Split borrows: the pool and the queue table are disjoint fields.
            let ShardState { pool, queues, .. } = &mut *st;
            let Some(q) = queues[dst.slot() as usize].as_mut() else {
                return Err(ServiceError::UnknownQueue(dst));
            };
            // Same pool: zero-copy plan application.
            pool.meld(&mut q.heap, src_heap);
            st.stats().melds_same_shard += 1;
            return Ok(());
        }
        // Cross-shard: lock in shard-index order.
        let (first, second) = if dst.shard() < src.shard() {
            (dshard, sshard)
        } else {
            (sshard, dshard)
        };
        let mut st_first = first.lock_state();
        let mut st_second = second.lock_state();
        let (dst_state, src_state) = if dst.shard() < src.shard() {
            (&mut *st_first, &mut *st_second)
        } else {
            (&mut *st_second, &mut *st_first)
        };
        if dst_state.queue_mut(dst).is_none() {
            dst_state.stats().stale_ops += 1;
            return Err(ServiceError::UnknownQueue(dst));
        }
        if src_state.queue_mut(src).is_none() {
            src_state.stats().stale_ops += 1;
            return Err(ServiceError::UnknownQueue(src));
        }
        // Durability of a cross-shard meld is two records in two logs:
        // `FreeHeap` in the source shard's WAL, then the moved keys as
        // `FromKeys` in the destination's — each flushed before its shard
        // mutates. A crash between the two flushes loses the moved keys
        // (at-most-once, never duplicated); see DESIGN.md §15.
        Shard::log_ops(src_state, &[WalOp::FreeHeap { slot: src.slot() }]);
        let src_heap = src_state.take_queue(src)?;
        if dst_state.is_durable() {
            let keys = pooled_keys_unsorted(&src_state.pool, &src_heap);
            Shard::log_ops(
                dst_state,
                &[WalOp::FromKeys {
                    slot: dst.slot(),
                    keys,
                }],
            );
        }
        let ShardState { pool, queues, .. } = dst_state;
        let Some(q) = queues[dst.slot() as usize].as_mut() else {
            return Err(ServiceError::UnknownQueue(dst));
        };
        pool.meld_cross_pool(&mut q.heap, &mut src_state.pool, src_heap);
        dst_state.stats().melds_cross_shard += 1;
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

    /// Snapshot one shard's counters.
    pub fn shard_stats(&self, shard: usize) -> ShardStats {
        self.shards[shard].lock_state().totals().0
    }

    /// Live introspection: a point-in-time view of every shard — queue and
    /// key counts, counters and the latency histogram. Safe to call
    /// concurrently with live traffic.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let st = s.lock_state();
                let (stats, latency) = st.totals();
                ShardSnapshot {
                    shard: s.index(),
                    live_queues: st.queues.iter().flatten().count(),
                    total_keys: st.queues.iter().flatten().map(|q| q.heap.len()).sum(),
                    stats,
                    latency,
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
    /// `latency.histogram` rows under `service/shard<i>/latency`.
    pub fn record_into(&self, reg: &mut Registry) {
        self.snapshot().record_into(reg);
    }

    /// Deep structural validation of every shard's pool: each live queue's
    /// heap (ownership stamp included), no node reachable from two heaps,
    /// and no live node outside every heap — the check the panic barrier
    /// runs before a shard keeps serving.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.shards.iter().enumerate() {
            s.lock_state()
                .revalidate()
                .map_err(|e| format!("shard {i}: {e}"))?;
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
#[allow(clippy::unwrap_used)]
mod tests {
    use std::sync::Arc;

    use obs::Recorder;

    use super::*;
    use crate::shard::WAIT_SLICE;

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
    fn validate_catches_foreign_and_leaked_heaps() {
        let svc = ServiceBuilder::new().shards(1).build();
        let q = svc.create_queue();
        svc.multi_insert(q, vec![3, 1, 2]).unwrap();
        svc.validate().unwrap();
        let swap = |heap: PooledHeap| {
            let mut st = svc.shards[0].lock_state();
            std::mem::replace(&mut st.queue_mut(q).unwrap().heap, heap)
        };
        // A heap stamped by another pool fails the ownership check.
        let foreign = HeapPool::<i64>::new().new_heap();
        let own = swap(foreign);
        let err = svc.validate().unwrap_err();
        assert!(err.contains("ownership"), "got: {err}");
        // An empty heap of the shard's own pool validates on its own, but
        // the replaced heap's three nodes are now reachable from no queue.
        let empty = svc.shards[0].lock_state().pool.new_heap();
        swap(empty);
        let err = svc.validate().unwrap_err();
        assert!(err.contains("leaked"), "got: {err}");
        // Handing the nodes back heals the pool.
        swap(own);
        svc.validate().unwrap();
    }

    #[test]
    fn sync_call_into_a_panicking_tenant_is_contained() {
        let svc = ServiceBuilder::new().shards(1).build();
        let good = svc.create_queue();
        let bad = svc.create_queue();
        crate::shard::tests::arm_fail_point(bad);
        assert_eq!(svc.insert(bad, 9), Err(ServiceError::Internal(bad)));
        let stats = svc.shard_stats(0);
        assert_eq!(stats.combiner_panics, 1);
        assert_eq!(stats.poison_recoveries, 0, "lock never poisoned");
        svc.insert(good, 4).unwrap();
        assert_eq!(svc.extract_min(good).unwrap(), Some(4));
    }

    /// Block until some thread has recorded `kind` under `trace`.
    fn await_event(trace: obs::TraceId, kind: EventKind) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !flight::trace_timeline(&flight::snapshot(), trace)
            .iter()
            .any(|e| e.kind == kind)
        {
            assert!(
                std::time::Instant::now() < deadline,
                "no {kind:?} on {trace}"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn contended_sync_calls_never_deposit() {
        const OPS: i64 = 20_000;
        let svc = Arc::new(ServiceBuilder::new().shards(1).build());
        let queues = [svc.create_queue(), svc.create_queue()];
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let clients: Vec<_> = (0..2i64)
            .map(|tid| {
                let (svc, barrier) = (Arc::clone(&svc), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    let (mut inserted, mut popped) = (0usize, 0usize);
                    for i in 0..OPS {
                        let q = queues[(i % 2) as usize];
                        let key = (tid << 32) | i;
                        match i % 5 {
                            0 | 1 => {
                                svc.insert(q, key).unwrap();
                                inserted += 1;
                            }
                            2 => {
                                svc.multi_insert(q, vec![key, key + 1]).unwrap();
                                inserted += 2;
                            }
                            3 => popped += usize::from(svc.extract_min(q).unwrap().is_some()),
                            _ => popped += svc.extract_k(q, 2).unwrap().len(),
                        }
                    }
                    (inserted, popped)
                })
            })
            .collect();
        let (inserted, popped) = clients
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(i, p), (ci, cp)| (i + ci, p + cp));
        let stats = svc.shard_stats(0);
        assert_eq!(stats.batches, stats.requests, "every call ran alone");
        svc.validate().unwrap();
        let left: usize = queues.iter().map(|&q| svc.len(q).unwrap()).sum();
        assert_eq!(left, inserted - popped, "keys conserved");
    }

    #[test]
    fn lanes_sum_to_the_calls_made_by_more_threads_than_lanes() {
        // More threads than a shard has bookkeeping lanes, so some threads
        // share a lane; every read must still sum to the calls made.
        const THREADS: u64 = 11;
        const ROUNDS: u64 = 20;
        let svc = Arc::new(ServiceBuilder::new().shards(1).build());
        let stale = svc.create_queue();
        svc.destroy_queue(stale).unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let clients: Vec<_> = (0..THREADS)
            .map(|_| {
                let (svc, barrier) = (Arc::clone(&svc), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let q = svc.create_queue();
                    barrier.wait();
                    for r in 0..ROUNDS as i64 {
                        for key in 0..5 {
                            svc.insert(q, r * 100 + key).unwrap();
                        }
                        for b in 0..3 {
                            svc.multi_insert(q, vec![r, r + b, r + 7, r + 9]).unwrap();
                        }
                        for _ in 0..2 {
                            assert!(svc.extract_min(q).unwrap().is_some());
                            assert_eq!(svc.extract_k(q, 3).unwrap().len(), 3);
                        }
                        assert_eq!(svc.extract_k(q, 1).unwrap().len(), 1);
                        svc.peek_min(q).unwrap();
                        svc.len(q).unwrap();
                        assert!(svc.insert(stale, 0).is_err());
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        // Per thread and round: 5 + 3 inserts, 2 + 2 + 1 pops, a peek, a
        // len and a stale insert.
        let calls = THREADS * ROUNDS;
        let want = ShardStats {
            batches: 16 * calls,
            requests: 16 * calls,
            single_inserts: 5 * calls,
            coalesced_inserts: 12 * calls,
            coalesced_pops: 6 * calls,
            multi_extracts: 2 * calls,
            stale_ops: calls,
            queues_created: THREADS + 1,
            queues_destroyed: 1,
            ..ShardStats::default()
        };
        assert_eq!(svc.shard_stats(0), want);
        let snap = svc.snapshot();
        assert_eq!(snap.shards[0].stats, want);
        assert_eq!(snap.latency().count(), want.requests);
        let mut reg = Registry::new();
        svc.record_into(&mut reg);
        let rows = reg.records();
        assert_eq!(rows[0].family, "service.shard");
        let fields: Vec<(String, u64)> = want
            .fields()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(rows[0].fields, fields);
        assert!(rows[1]
            .fields
            .contains(&("count".to_string(), want.requests)));
        svc.validate().unwrap();
    }

    #[test]
    fn contended_sync_call_into_a_panicking_tenant_is_contained() {
        let svc = Arc::new(ServiceBuilder::new().shards(1).build());
        let good = svc.create_queue();
        let bad = svc.create_queue();
        let trace = obs::TraceId::next();
        let held = svc.shards[0].lock_state();
        let caller = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                crate::shard::tests::arm_fail_point(bad);
                let _scope = flight::trace_scope(trace);
                svc.insert(bad, 9)
            })
        };
        // Release the lock only once the call has found it held.
        await_event(trace, EventKind::TicketPark);
        drop(held);
        assert_eq!(caller.join().unwrap(), Err(ServiceError::Internal(bad)));
        let stats = svc.shard_stats(0);
        assert_eq!(stats.combiner_panics, 1);
        assert_eq!(stats.poison_recoveries, 0, "lock never poisoned");
        svc.insert(good, 4).unwrap();
        assert_eq!(svc.extract_min(good).unwrap(), Some(4));
    }

    #[test]
    fn poisoned_lock_heals_on_the_blocking_path() {
        let svc = Arc::new(ServiceBuilder::new().shards(1).build());
        let q = svc.create_queue();
        svc.insert(q, 1).unwrap();
        let trace = obs::TraceId::next();
        let (locked, is_locked) = std::sync::mpsc::channel();
        let holder = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let _st = svc.shards[0].lock_state();
                locked.send(()).unwrap();
                await_event(trace, EventKind::TicketPark);
                // Far past the caller's spin: it is blocked in lock() now.
                std::thread::sleep(std::time::Duration::from_millis(50));
                panic!("injected panic under the state lock");
            })
        };
        is_locked.recv().unwrap();
        {
            let _scope = flight::trace_scope(trace);
            assert_eq!(svc.extract_min(q).unwrap(), Some(1));
        }
        assert!(holder.join().is_err());
        let stats = svc.shard_stats(0);
        assert_eq!(stats.poison_recoveries, 1);
        assert_eq!(stats.poison_resets, 0, "state was intact");
        let line = flight::trace_timeline(&flight::snapshot(), trace);
        let at = |kind| line.iter().find(|e| e.kind == kind).map(|e| e.ts_nanos);
        let (parked, unparked) = (at(EventKind::TicketPark), at(EventKind::TicketUnpark));
        let waited = unparked.unwrap() - parked.unwrap();
        assert!(
            waited >= WAIT_SLICE.as_nanos() as u64,
            "waited {waited} ns: served by the spin, not by lock()"
        );
    }

    /// Answer `req` through the synchronous surface.
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
        let svc = ServiceBuilder::new().shards(1).durable(&root).build();
        let q = svc.create_queue();
        let stale = svc.create_queue();
        svc.destroy_queue(stale).unwrap();
        let script = [
            (Request::Insert { queue: q, key: 5 }, Response::Done),
            (
                Request::MultiInsert {
                    queue: q,
                    keys: vec![3],
                },
                Response::Done,
            ),
            (
                Request::MultiInsert {
                    queue: q,
                    keys: vec![9, 1, 7, 2, 8, 6],
                },
                Response::Done,
            ),
            (Request::ExtractMin { queue: q }, Response::Key(Some(1))),
            (
                Request::ExtractK { queue: q, k: 1 },
                Response::Keys(vec![2]),
            ),
            (
                Request::ExtractK { queue: q, k: 3 },
                Response::Keys(vec![3, 5, 6]),
            ),
            (Request::PeekMin { queue: q }, Response::Key(Some(7))),
            (Request::Len { queue: q }, Response::Len(3)),
            (
                Request::Insert {
                    queue: stale,
                    key: 4,
                },
                Response::Err(ServiceError::UnknownQueue(stale)),
            ),
        ];
        for (req, want) in script {
            assert_eq!(call(&svc, req.clone()), want, "{req:?}");
        }
        assert_eq!(
            svc.extract_k(q, usize::MAX).unwrap(),
            vec![7, 8, 9],
            "drained contents"
        );
        let stats = svc.shard_stats(0);
        assert_eq!(
            (stats.single_inserts, stats.coalesced_inserts),
            (2, 6),
            "one key inserts, more multi_insert"
        );
        drop(svc);
        let records = meldpq::wal::read_wal(&root.join("shard0").join(meldpq::wal::WAL_FILE))
            .unwrap()
            .records;
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
    fn registry_and_arena_snapshots() {
        let svc = ServiceBuilder::new().shards(1).build();
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
        let snap = svc.snapshot();
        assert_eq!(snap.shards.len(), 1);
        assert_eq!(snap.shards[0].live_queues, 1);
        assert_eq!(snap.total_keys(), 64);
        assert_eq!(snap.latency().count(), 1, "one call served");
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
