//! The tenant-facing front end: [`QueueService`] and its handle type.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::{fs, io, thread};

use meldpq::wal::{DurablePool, HeapId, WalError};
use meldpq::{ArenaStats, Backend};
use obs::flight::{self, EventKind};

use crate::batch::{Request, Response};
use crate::metrics::ShardStats;
use crate::shard::Shard;
use crate::snapshot::{ServiceSnapshot, ShardSnapshot};
use crate::ServiceError;

/// A tenant-scoped handle to one queue: a `Copy + Send + Sync` *token*
/// (shard index, slot, generation), not a borrow — clients on any thread
/// address their queue through the service, and a destroyed queue's handles
/// go stale instead of dangling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueId {
    shard: u16,
    heap: HeapId,
}

impl QueueId {
    pub(crate) fn new(shard: u16, heap: HeapId) -> Self {
        QueueId { shard, heap }
    }

    /// The shard this queue lives on.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// The queue's address in its shard's store.
    pub(crate) fn heap(&self) -> HeapId {
        self.heap
    }
}

impl std::fmt::Display for QueueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}.{}g{}", self.shard, self.heap.slot, self.heap.gen)
    }
}

/// The default shard count on a host with `cores` cores:
/// `(4 × cores).next_power_of_two()`, clamped to `4..=64`. That is 4 on one
/// core, 8 on two, 16 on three or four, and 64 from sixteen cores up.
///
/// Queues go to shards round-robin, so two callers on two of `q` queues
/// picked at random share a shard with probability `1/min(s, q)`: shards
/// beyond the queue count stay empty. A shared shard passes its lock word,
/// slab header and touched nodes between the callers' cores at every op:
/// on a 2-core host, two callers sharing 1 block in 4 ran at two thirds of
/// the throughput of two on disjoint shards (DESIGN.md §9, "Sharding").
/// Four shards per core keep that chance at or below `1/(4 × cores)` when
/// there are at least that many queues; the cap bounds the memory and the
/// `shard<i>` directories of a durable service.
pub fn default_shards(cores: usize) -> usize {
    cores.saturating_mul(4).clamp(4, 64).next_power_of_two()
}

/// Configuration for a [`QueueService`].
///
/// **Shard count.** Unless [`ServiceBuilder::shards`] sets it, a service
/// gets [`default_shards`] of the host's `available_parallelism`: 8 shards
/// on a 2-core host. With at least as many shards as queues, every queue
/// has a shard of its own and two callers meet only on the same queue: the
/// host's version of the paper's EREW rule that no two processors write
/// one cell in one step.
///
/// **Reopening a durable root.** A root that already holds `shard<i>`
/// directories fixes the count, so a host-dependent default never orphans a
/// shard's queues:
/// * without an explicit count the service reopens exactly the shards the
///   root holds;
/// * an explicit count below it is [`BuildError::TooFewShards`];
/// * a larger count adds empty shards after them, and every old
///   [`QueueId`] stays valid.
///
/// The directories must run `shard0 … shard<n-1>` without a gap
/// ([`BuildError::MissingShard`]).
#[derive(Debug, Clone, Default)]
pub struct ServiceBuilder {
    shards: Option<usize>,
    durable: Option<PathBuf>,
}

impl ServiceBuilder {
    /// Start from the defaults ([`default_shards`] of the host, not durable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of shards (each an independent pool + lock). Clamped to
    /// `1..=65536`: a [`QueueId`] names its shard in 16 bits.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n.clamp(1, 1 << 16));
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

    /// Build the service, panicking if [`ServiceBuilder::try_build`] fails.
    /// Prefer `try_build` for durable services.
    pub fn build(self) -> QueueService {
        self.try_build()
            .unwrap_or_else(|e| panic!("building the service failed: {e}"))
    }

    /// Build the service, recovering each shard from its durability
    /// directory when [`ServiceBuilder::durable`] was set. The shard count
    /// follows the reopen rule of [`ServiceBuilder`].
    pub fn try_build(self) -> Result<QueueService, BuildError> {
        let held = match &self.durable {
            Some(root) => shards_held(root)?,
            None => 0,
        };
        let count = match self.shards {
            Some(requested) if requested < held => {
                return Err(BuildError::TooFewShards { held, requested })
            }
            Some(requested) => requested,
            None if held > 0 => held,
            None => default_shards(thread::available_parallelism().map_or(1, |n| n.get())),
        };
        let shards = (0..count)
            .map(|i| {
                let store = match &self.durable {
                    None => DurablePool::default(),
                    Some(root) => DurablePool::open(&root.join(format!("shard{i}")))
                        .map_err(|err| BuildError::Recover { shard: i, err })?,
                };
                Ok(Shard::new(i as u16, store))
            })
            .collect::<Result<Vec<_>, BuildError>>()?;
        Ok(QueueService {
            shards,
            rr: AtomicUsize::new(0),
        })
    }
}

/// How many shards the durable root holds: `shard0 … shard<n-1>`, with no
/// gap. A missing root holds none; names other than `shard<i>` are ignored.
fn shards_held(root: &Path) -> Result<usize, BuildError> {
    let entries = match fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(BuildError::Io(e)),
    };
    let mut held = Vec::new();
    for entry in entries {
        let name = entry.map_err(BuildError::Io)?.file_name();
        held.extend(name.to_str().and_then(shard_index));
    }
    held.sort_unstable();
    match held.iter().enumerate().find(|&(at, &i)| at != i) {
        Some((missing, _)) => Err(BuildError::MissingShard { missing }),
        None => Ok(held.len()),
    }
}

/// `i` for a directory named exactly `shard<i>`.
fn shard_index(name: &str) -> Option<usize> {
    let i: usize = name.strip_prefix("shard")?.parse().ok()?;
    (format!("shard{i}") == name).then_some(i)
}

/// Why [`ServiceBuilder::try_build`] refused to build a service.
#[derive(Debug)]
pub enum BuildError {
    /// Listing the durable root failed.
    Io(io::Error),
    /// Shard `shard`'s directory did not recover.
    Recover {
        /// The shard's index.
        shard: usize,
        /// Why its store did not open.
        err: WalError,
    },
    /// The root holds `held` shards and the builder asked for fewer;
    /// building would leave the queues of the rest unread.
    TooFewShards {
        /// Shards the durable root holds.
        held: usize,
        /// The explicit count of [`ServiceBuilder::shards`].
        requested: usize,
    },
    /// The root holds a `shard<i>` directory above `shard<missing>` but not
    /// `shard<missing>` itself, so that shard's queues are gone.
    MissingShard {
        /// The lowest absent index.
        missing: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Io(e) => write!(f, "listing the durable root failed: {e}"),
            BuildError::Recover { shard, err } => write!(f, "shard{shard}: {err}"),
            BuildError::TooFewShards { held, requested } => write!(
                f,
                "the durable root holds {held} shards, more than the {requested} requested"
            ),
            BuildError::MissingShard { missing } => write!(
                f,
                "the durable root holds shards above shard{missing} but not shard{missing}"
            ),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Io(e) => Some(e),
            BuildError::Recover { err, .. } => Some(err),
            _ => None,
        }
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
    /// a heap in its shard's [`meldpq::HeapPool`]. Kept for callers that
    /// record the engine next to their measurements.
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
        self.shard(id)?.destroy_queue(id)
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
        // A failed meld changed nothing: the stale handle is dst if dst is
        // not live, else src.
        if dst.shard() == src.shard() {
            let mut st = dshard.lock_state();
            let (store, stats, wal) = st.split();
            return match store.meld(dst.heap(), src.heap(), wal) {
                Ok(()) => {
                    stats.queues_destroyed += 1;
                    stats.melds_same_shard += 1;
                    Ok(())
                }
                Err(_) => {
                    stats.stale_ops += 1;
                    let live = store.heap(dst.heap()).is_some();
                    Err(ServiceError::UnknownQueue(if live { src } else { dst }))
                }
            };
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
        let (dstore, dstats, dwal) = dst_state.split();
        let (sstore, sstats, swal) = src_state.split();
        // Two records in two logs, at most once (DESIGN.md §15).
        match dstore.meld_from(dst.heap(), sstore, src.heap(), dwal, swal) {
            Ok(()) => {
                sstats.queues_destroyed += 1;
                dstats.melds_cross_shard += 1;
                Ok(())
            }
            Err(_) if dstore.heap(dst.heap()).is_none() => {
                dstats.stale_ops += 1;
                Err(ServiceError::UnknownQueue(dst))
            }
            Err(_) => {
                sstats.stale_ops += 1;
                Err(ServiceError::UnknownQueue(src))
            }
        }
    }

    /// Force a durability checkpoint on every shard (no-op on non-durable
    /// services). Bounds replay time before a planned shutdown.
    pub fn checkpoint(&self) {
        for s in &self.shards {
            s.lock_state().checkpoint();
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
                    live_queues: st.store.heaps().count(),
                    total_keys: st.store.heaps().map(|(_, h)| h.len()).sum(),
                    durable: st.store.is_durable(),
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
        self.shards[shard].lock_state().store.pool().stats()
    }

    /// Deep structural validation of every shard's pool: each live queue's
    /// heap (ownership stamp included), no node reachable from two heaps,
    /// and no live node outside every heap — the check the panic barrier
    /// runs before a shard keeps serving.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.shards.iter().enumerate() {
            s.lock_state()
                .store
                .validate()
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use std::sync::Arc;

    use meldpq::pool::PooledHeap;
    use meldpq::{HeapPool, WalOp};
    use obs::json::J;

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
    fn default_shards_is_four_per_core_as_a_power_of_two() {
        let got: Vec<usize> = [1, 2, 3, 16, 64].map(default_shards).to_vec();
        assert_eq!(got, vec![4, 8, 16, 64, 64]);
        assert_eq!(default_shards(0), 4);
        assert_eq!(default_shards(usize::MAX), 64);
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(QueueService::new().shard_count(), default_shards(cores));
    }

    #[test]
    fn only_exact_shard_names_count() {
        assert_eq!(shard_index("shard0"), Some(0));
        assert_eq!(shard_index("shard12"), Some(12));
        for name in [
            "shard",
            "shard01",
            "shard+1",
            "shard-1",
            "shard1.away",
            "wal.log",
        ] {
            assert_eq!(shard_index(name), None, "{name}");
        }
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
            std::mem::replace(st.store.heap_mut(q.heap()).unwrap(), heap)
        };
        // A heap stamped by another pool fails the ownership check.
        let foreign = HeapPool::<i64>::new().new_heap();
        let own = swap(foreign);
        let err = svc.validate().unwrap_err();
        assert!(err.contains("ownership"), "got: {err}");
        // An empty heap of the shard's own pool validates on its own, but
        // the replaced heap's three nodes are now reachable from no queue.
        let empty = svc.shards[0].lock_state().store.pool().new_heap();
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
        let doc = snap.to_json();
        let shard = &doc.get("shards").and_then(J::as_arr).unwrap()[0];
        let fields: Vec<(String, J)> = want
            .fields()
            .into_iter()
            .map(|(k, v)| (k.to_string(), J::UInt(v)))
            .collect();
        assert_eq!(shard.get("stats"), Some(&J::Obj(fields)));
        let latency = shard.get("latency").unwrap();
        assert_eq!(latency.get("count"), Some(&J::UInt(want.requests)));
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
    fn snapshot_and_arena_stats() {
        let svc = ServiceBuilder::new().shards(1).build();
        let q = svc.create_queue();
        svc.multi_insert(q, (0..64).collect()).unwrap();
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
