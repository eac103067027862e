//! One shard: a [`DurablePool`] of tenant queues behind one lock. Every
//! tenant queue is a heap of the store's one [`meldpq::HeapPool`], so a
//! same-shard meld is the paper's zero-copy `Union` and one checkpoint
//! images the shard.
//!
//! Clients never touch the store directly. Every request is one synchronous
//! call (`Shard::execute`): it spins on the state lock for at most
//! `WAIT_SLICE`, then blocks on it, and runs its request under a panic
//! barrier. There is no server thread and no request buffer; requests to
//! one shard are linearized by its lock.
//!
//! ## Kernels and WAL records
//!
//! A request picks its kernel from its key count and pop demand, as a
//! [`HeapOp`]: one inserted key runs `insert`, more one `multi_insert`; a
//! demand of one key runs `extract_min`, more one `multi_extract_min`. A
//! durable store logs the record that names the kernel before running
//! it, and WAL replay runs each record through the same code, so a
//! recovered pool is the live one node for node. Reads, an empty insert
//! and a demand of zero log nothing.
//!
//! ## Cache-line layout
//!
//! `ShardState` is aligned to a 64-byte line, so the mutex's lock word
//! sits alone: a caller spinning on `try_lock` takes no line the lock
//! holder reads. Per-op bookkeeping goes to `LANES` line-aligned lanes, a
//! thread's lane picked round-robin at its first call and guarded by the
//! shard lock like the rest; reads sum the lanes. See DESIGN.md §9.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Duration;

use meldpq::wal::{Applied, DurablePool, HeapOp, WalCounts, WalError};
use obs::flight::{self, EventKind};
use obs::LatencyHistogram;

use crate::batch::{Request, Response};
use crate::metrics::ShardStats;
use crate::service::QueueId;
use crate::ServiceError;

/// The longest a contended call spins on its shard's lock before it
/// blocks in `lock()` ([`Shard::execute`]).
pub(crate) const WAIT_SLICE: Duration = Duration::from_micros(20);

/// Bookkeeping lanes per shard; threads past this many share lanes.
const LANES: usize = 8;

/// The calling thread's lane, handed out round-robin at its first call.
fn lane() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static LANE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % LANES);
    LANE.with(|l| *l)
}

/// One lane of a shard's per-op bookkeeping, on cache lines of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Lane {
    stats: ShardStats,
    /// What the store's log did on this lane's calls.
    wal: WalCounts,
    /// Call latency as the caller saw it: lock wait plus execution.
    latency: LatencyHistogram,
}

/// The lock-protected half of a shard: its store and its lanes.
/// Line-aligned so the mutex's lock word shares no cache line with it
/// (module docs).
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct ShardState {
    pub(crate) store: DurablePool,
    /// Counters and call latency, one lane per thread (module docs).
    lanes: [Lane; LANES],
}

// The layout the module docs rely on: the lock word and each lane alone.
const _: () = assert!(std::mem::align_of::<ShardState>() >= 64);
const _: () = assert!(std::mem::size_of::<Lane>().is_multiple_of(64));

impl ShardState {
    /// The store, with the calling thread's counters and log counts.
    pub(crate) fn split(&mut self) -> (&mut DurablePool, &mut ShardStats, &mut WalCounts) {
        let Lane { stats, wal, .. } = &mut self.lanes[lane()];
        (&mut self.store, stats, wal)
    }

    /// Every lane summed: the counters, `batches` set to `requests`, the
    /// log counts as the `wal_*` counters, and the call latency.
    pub(crate) fn totals(&self) -> (ShardStats, LatencyHistogram) {
        let (mut stats, mut latency) = (ShardStats::default(), LatencyHistogram::new());
        for l in &self.lanes {
            stats.add(&l.stats);
            stats.wal_appends += l.wal.appends;
            stats.wal_checkpoints += l.wal.checkpoints;
            stats.wal_errors += l.wal.errors;
            latency.merge(&l.latency);
        }
        stats.batches = stats.requests;
        (stats, latency)
    }

    /// Write a checkpoint now (a no-op on a shard with no open log).
    pub(crate) fn checkpoint(&mut self) {
        let (store, _, wal) = self.split();
        store.checkpoint(wal);
    }

    /// Last-resort recovery when the store fails validation after a
    /// panic: drop every queue and start the shard over empty. Stale
    /// handles fail cleanly with `UnknownQueue`; a durable shard's
    /// checkpoint, log and cadence restart too ([`DurablePool::reset`]).
    pub(crate) fn reset_after_damage(&mut self) {
        let (store, stats, wal) = self.split();
        stats.poison_resets += 1;
        store.reset(wal);
    }
}

/// A shard: the lock-protected store. See module docs.
#[derive(Debug)]
pub struct Shard {
    index: u16,
    state: Mutex<ShardState>,
}

impl Shard {
    /// Shard `index` over `store`: in memory ([`DurablePool::new`]) or
    /// recovered from its directory ([`DurablePool::open`]).
    pub(crate) fn new(index: u16, store: DurablePool) -> Self {
        let state = ShardState {
            store,
            lanes: Default::default(),
        };
        Shard {
            index,
            state: Mutex::new(state),
        }
    }

    /// This shard's index in the service's shard map.
    pub fn index(&self) -> u16 {
        self.index
    }

    /// Serve one request: take the state lock, run `req` under the panic
    /// barrier and answer it. A held lock is retried for at most
    /// [`WAIT_SLICE`], then waited for in `lock()`; a poisoned one is
    /// healed.
    ///
    /// `begun` is the caller's [`flight::now_nanos`] reading from the op's
    /// start; the returned timestamp is taken after execution, so the
    /// caller can stamp its `op_end` event without another clock read. The
    /// latency charged to the shard's histogram spans `begun..end`: the
    /// call as the client saw it, lock wait included.
    pub(crate) fn execute(&self, req: &Request, begun: u64) -> (Response, u64) {
        let mut st = match self.try_state() {
            Some(st) => st,
            None => {
                // Spin, reading the clock once per miss, then block. The
                // wait is recorded under the op's trace, stamped with the
                // spin's own clock reads; only blocking adds one read.
                let trace = flight::current();
                let parked = flight::now_nanos();
                flight::record_at(parked, trace, EventKind::TicketPark, self.index as u64);
                let deadline = parked.saturating_add(WAIT_SLICE.as_nanos() as u64);
                let mut now = parked;
                let st = loop {
                    if let Some(st) = self.try_state() {
                        break st;
                    }
                    std::hint::spin_loop();
                    now = flight::now_nanos();
                    if now >= deadline {
                        let st = self.lock_state();
                        now = flight::now_nanos();
                        break st;
                    }
                };
                flight::record_at(now, trace, EventKind::TicketUnpark, self.index as u64);
                st
            }
        };
        let lane = lane();
        st.lanes[lane].stats.requests += 1;
        let resp = serve(&mut st, req);
        let end = flight::now_nanos();
        st.lanes[lane].latency.record(end.saturating_sub(begun));
        (resp, end)
    }

    /// The state lock if it is free right now (a poisoned one healed).
    fn try_state(&self) -> Option<MutexGuard<'_, ShardState>> {
        match self.state.try_lock() {
            Ok(st) => Some(st),
            Err(TryLockError::Poisoned(p)) => Some(self.heal(p.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Blocking-lock the state. A poisoned lock is healed, not propagated.
    pub(crate) fn lock_state(&self) -> MutexGuard<'_, ShardState> {
        match self.state.lock() {
            Ok(st) => st,
            Err(p) => self.heal(p.into_inner()),
        }
    }

    /// Recover a poisoned state lock instead of cascading the panic to
    /// every future client of the shard. The poison flag is cleared, the
    /// recovery counted, and the store structurally revalidated — intact
    /// state keeps serving; damaged state is reset to empty (queues lost,
    /// handles stale) via [`ShardState::reset_after_damage`].
    fn heal<'a>(&'a self, mut st: MutexGuard<'a, ShardState>) -> MutexGuard<'a, ShardState> {
        self.state.clear_poison();
        st.split().1.poison_recoveries += 1;
        if st.store.validate().is_err() {
            st.reset_after_damage();
        }
        st
    }

    /// Create a queue on this shard and hand back its (current-generation)
    /// handle. On a durable shard the creation is logged (and the log
    /// flushed) before the slot is occupied.
    pub(crate) fn create_queue(&self) -> QueueId {
        let mut st = self.lock_state();
        let (store, stats, wal) = st.split();
        stats.queues_created += 1;
        QueueId::new(self.index, store.create_heap(wal))
    }

    /// Destroy a queue, freeing its nodes. Returns how many keys it held.
    pub(crate) fn destroy_queue(&self, id: QueueId) -> Result<usize, ServiceError> {
        let mut st = self.lock_state();
        let (store, stats, wal) = st.split();
        match store.free_heap(id.heap(), wal) {
            Ok(freed) => {
                stats.queues_destroyed += 1;
                Ok(freed)
            }
            Err(_) => {
                stats.stale_ops += 1;
                Err(ServiceError::UnknownQueue(id))
            }
        }
    }
}

/// The panic barrier around [`execute_one`]: a panic inside one tenant's
/// kernels (a violated invariant caught by a `debug-validate` check) must
/// not poison the shard for every other tenant. The request is answered
/// [`ServiceError::Internal`], the panic is counted, the store is
/// revalidated (and reset if damaged), and the shard keeps serving.
fn serve(st: &mut ShardState, req: &Request) -> Response {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_one(st, req)));
    run.unwrap_or_else(|_| {
        st.split().1.combiner_panics += 1;
        if st.store.validate().is_err() {
            st.reset_after_damage();
        }
        Response::Err(ServiceError::Internal(req.queue()))
    })
}

/// The shard's one executor: run one request as the [`HeapOp`] its key
/// count and pop demand pick (see the module docs), or as a read.
fn execute_one(st: &mut ShardState, req: &Request) -> Response {
    let qid = req.queue();
    let (store, stats, wal) = st.split();
    let op = match (req, req.inserted_keys()) {
        (Request::ExtractMin { .. } | Request::ExtractK { k: 1, .. }, _) => HeapOp::ExtractMin,
        (Request::ExtractK { k, .. }, _) if *k > 1 => HeapOp::MultiExtractMin(*k),
        (_, [key]) => HeapOp::Insert(*key),
        (_, keys @ [_, _, ..]) => HeapOp::FromKeys(keys),
        // Reads, an empty insert and a demand of zero change nothing.
        _ => {
            let Some(heap) = store.heap(qid.heap()) else {
                stats.stale_ops += 1;
                return Response::Err(ServiceError::UnknownQueue(qid));
            };
            return match req {
                Request::PeekMin { .. } => Response::Key(store.pool().min(heap)),
                Request::Len { .. } => Response::Len(heap.len()),
                Request::ExtractK { .. } => Response::Keys(Vec::new()),
                _ => Response::Done,
            };
        }
    };
    #[cfg(test)]
    tests::hit_fail_point(qid);
    match store.apply(qid.heap(), op, wal) {
        Ok(Applied::Done) => {
            if let HeapOp::FromKeys(keys) = op {
                flight::record_here(EventKind::BulkAdmission, keys.len() as u64);
                stats.coalesced_inserts += keys.len() as u64;
            } else {
                stats.single_inserts += 1;
            }
            Response::Done
        }
        Ok(Applied::Key(key)) if matches!(req, Request::ExtractK { .. }) => {
            Response::Keys(key.into_iter().collect())
        }
        Ok(Applied::Key(key)) => Response::Key(key),
        Ok(Applied::Keys(out)) => {
            flight::record_here(EventKind::MultiExtract, out.len() as u64);
            stats.multi_extracts += 1;
            stats.coalesced_pops += out.len() as u64;
            Response::Keys(out)
        }
        Err(WalError::Capacity(err)) => Response::Err(ServiceError::Capacity { queue: qid, err }),
        Err(_) => {
            stats.stale_ops += 1;
            Response::Err(ServiceError::UnknownQueue(qid))
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod tests {
    use std::cell::Cell;

    use meldpq::wal::{self, CheckpointCadence, WalOp, WalWriter};
    use meldpq::{Engine, HeapPool};

    use super::*;

    thread_local! {
        /// The queue whose groups panic on this thread, if any.
        static FAIL_POINT: Cell<Option<QueueId>> = const { Cell::new(None) };
    }

    /// Make every later request for `q` executed on this thread panic just
    /// before the store runs it: the injected fault the panic-barrier
    /// tests contain. The queue itself is left intact, so revalidation
    /// passes and the shard keeps serving.
    pub(crate) fn arm_fail_point(q: QueueId) {
        FAIL_POINT.set(Some(q));
    }

    /// Panic if `q` is this thread's armed fail point.
    pub(super) fn hit_fail_point(q: QueueId) {
        if FAIL_POINT.get() == Some(q) {
            panic!("injected fault in {q}");
        }
    }

    /// Run `req` through the shard's one executor.
    fn run(shard: &Shard, req: Request) -> Response {
        shard.execute(&req, flight::now_nanos()).0
    }

    #[test]
    fn stale_handle_is_rejected() {
        let shard = Shard::new(0, DurablePool::default());
        let q = shard.create_queue();
        shard.destroy_queue(q).unwrap();
        assert_eq!(
            run(&shard, Request::Insert { queue: q, key: 1 }),
            Response::Err(ServiceError::UnknownQueue(q))
        );
        // The freed slot is reused under a new generation; the old handle
        // stays dead.
        let q2 = shard.create_queue();
        assert_eq!(q2.heap().slot, q.heap().slot);
        assert_ne!(q2.heap().gen, q.heap().gen);
    }

    #[test]
    fn fast_path_panic_is_contained_and_shard_keeps_serving() {
        let shard = Shard::new(0, DurablePool::default());
        let good = shard.create_queue();
        let bad = shard.create_queue();
        arm_fail_point(bad);
        // The executor runs under a panic barrier: the panic becomes this
        // call's `Internal` answer.
        let now = flight::now_nanos();
        let (resp, _) = shard.execute(&Request::Insert { queue: bad, key: 9 }, now);
        assert_eq!(resp, Response::Err(ServiceError::Internal(bad)));
        for (req, want) in [
            (
                Request::Insert {
                    queue: good,
                    key: 4,
                },
                Response::Done,
            ),
            (Request::ExtractMin { queue: good }, Response::Key(Some(4))),
        ] {
            assert_eq!(shard.execute(&req, now).0, want);
        }
        let (resp, _) = shard.execute(&Request::Len { queue: good }, now);
        assert_eq!(resp, Response::Len(0), "the good queue served both ops");
        let st = shard.lock_state();
        assert_eq!(st.totals().0.combiner_panics, 1);
        assert_eq!(st.totals().0.poison_recoveries, 0, "lock never poisoned");
    }

    #[test]
    fn poisoned_lock_is_healed_not_cascaded() {
        let shard = Shard::new(0, DurablePool::default());
        let q = shard.create_queue();
        assert_eq!(
            run(&shard, Request::Insert { queue: q, key: 1 }),
            Response::Done
        );
        // Poison the state mutex by panicking while holding it, without
        // touching the state (so revalidation finds it intact).
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _st = shard.lock_state();
            panic!("injected panic under the state lock");
        }));
        assert!(res.is_err());
        // Every lock path must recover instead of propagating the poison.
        assert_eq!(
            run(&shard, Request::ExtractMin { queue: q }),
            Response::Key(Some(1))
        );
        let st = shard.lock_state();
        assert!(st.totals().0.poison_recoveries >= 1);
        assert_eq!(st.totals().0.poison_resets, 0, "state was intact");
    }

    #[test]
    fn aba_generation_wraparound() {
        // Documented ABA window: a slot's generation wraps modulo 2^32, so
        // after exactly 2^32 destroy/create cycles an ancient handle would
        // validate again. Simulate the wrap with a log whose queue at slot
        // 0 already holds generation u32::MAX, and cycle it once more.
        let dir = std::env::temp_dir().join(format!("meldpq-shard-aba-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut log = WalWriter::create(&dir.join(wal::WAL_FILE)).unwrap();
        for op in [
            WalOp::CreateHeap { slot: 0, gen: 0 },
            WalOp::FreeHeap { slot: 0 },
            WalOp::CreateHeap {
                slot: 0,
                gen: u32::MAX,
            },
        ] {
            log.append(&op).unwrap();
        }
        log.flush().unwrap();
        let shard = Shard::new(0, DurablePool::open(&dir).unwrap());
        let q0 = QueueId::new(0, meldpq::HeapId { slot: 0, gen: 0 });
        let q_max = QueueId::new(
            0,
            meldpq::HeapId {
                slot: 0,
                gen: u32::MAX,
            },
        );
        shard.destroy_queue(q_max).unwrap();
        let q_wrapped = shard.create_queue();
        assert_eq!(q_wrapped.heap().gen, 0, "generation wraps to 0");
        // The wrapped handle is bit-identical to the original: the stale q0
        // handle addresses the new queue. This is the accepted ABA window.
        assert_eq!(q_wrapped, q0);
        assert_eq!(
            run(&shard, Request::Insert { queue: q0, key: 5 }),
            Response::Done
        );
        drop(shard);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn over_demand_pops_return_empty() {
        let shard = Shard::new(3, DurablePool::default());
        let q = shard.create_queue();
        let call = |req| run(&shard, req);
        assert_eq!(call(Request::Insert { queue: q, key: 7 }), Response::Done);
        assert_eq!(
            call(Request::ExtractMin { queue: q }),
            Response::Key(Some(7))
        );
        assert_eq!(call(Request::ExtractMin { queue: q }), Response::Key(None));
        assert_eq!(
            call(Request::ExtractK { queue: q, k: 5 }),
            Response::Keys(vec![])
        );
    }

    /// Every live node of `pool` as `(id, key, parent, children)`, the
    /// children in list order, plus the slab length.
    type PoolShape = (
        Vec<(
            meldpq::NodeId,
            i64,
            Option<meldpq::NodeId>,
            Vec<meldpq::NodeId>,
        )>,
        usize,
    );
    fn pool_shape(pool: &HeapPool<i64>) -> PoolShape {
        let arena = pool.arena();
        let nodes = arena
            .iter()
            .map(|(id, n)| (id, n.key, n.parent(), arena.children(id).collect()))
            .collect();
        (nodes, arena.slab_len())
    }

    /// Each live heap of a pool as `(generation, roots, len, cached min)`.
    type Heaps = Vec<
        Option<(
            u32,
            Vec<Option<meldpq::NodeId>>,
            usize,
            Option<meldpq::NodeId>,
        )>,
    >;

    /// The live shard's pool and heaps.
    fn live_state(shard: &Shard) -> (PoolShape, Heaps) {
        let st = shard.lock_state();
        let pool = st.store.pool();
        let mut heaps: Heaps = Vec::new();
        for (id, h) in st.store.heaps() {
            heaps.resize(id.slot as usize, None);
            heaps.push(Some((
                id.gen,
                h.roots().to_vec(),
                h.len(),
                pool.min_root(h),
            )));
        }
        (pool_shape(pool), heaps)
    }

    /// The pool and heaps recovered from `dir`, and the records replayed.
    fn recovered_state(dir: &std::path::Path) -> (PoolShape, Heaps, usize) {
        let rec = wal::recover_dir(dir, Engine::Sequential).unwrap();
        let heaps = rec
            .heaps
            .iter()
            .map(|s| {
                s.as_ref()
                    .map(|(gen, h)| (*gen, h.roots().to_vec(), h.len(), rec.pool.min_root(h)))
            })
            .collect();
        (pool_shape(&rec.pool), heaps, rec.replayed)
    }

    /// Rounds of batched inserts and pops of every demand the executor
    /// tells apart: one key, `k` keys (`MultiExtractMin`) and more keys
    /// than `c` holds.
    fn churn(shard: &Shard, [a, b, c]: [QueueId; 3], rounds: std::ops::Range<i64>) {
        let call = |req| run(shard, req);
        for round in rounds {
            for q in [a, b] {
                let keys = (0..40 + round * 13)
                    .map(|i| (i * 7919 + round) % 17)
                    .collect();
                assert_eq!(
                    call(Request::MultiInsert { queue: q, keys }),
                    Response::Done
                );
            }
            // Pops free slots for the next round's inserts to reuse.
            assert!(matches!(
                call(Request::ExtractK { queue: a, k: 25 }),
                Response::Keys(_)
            ));
            assert!(matches!(
                call(Request::ExtractK { queue: b, k: 8 }),
                Response::Keys(keys) if keys.len() == 8
            ));
            assert!(matches!(
                call(Request::ExtractMin { queue: b }),
                Response::Key(Some(_))
            ));
            for key in [round, -round, round] {
                assert_eq!(call(Request::Insert { queue: c, key }), Response::Done);
            }
            assert!(matches!(
                call(Request::ExtractK { queue: c, k: 5 }),
                Response::Keys(keys) if keys.len() == 3
            ));
            assert_eq!(
                call(Request::Insert {
                    queue: b,
                    key: round
                }),
                Response::Done
            );
        }
    }

    #[test]
    fn genesis_replay_rebuilds_the_live_pool_node_for_node() {
        // The live shard and WAL replay run one kernel per record (`Insert`
        // → insert, `FromKeys` → multi_insert, `ExtractMin` → extract_min,
        // `MultiExtractMin` → multi_extract_min), so the recovered pool is
        // the live one node for node: ids, keys, parents, child order, free
        // slots reused, slab length and every heap's roots and cached min.
        // That holds for a replay from genesis and for a checkpoint image
        // plus the log suffix after it.
        let dir =
            std::env::temp_dir().join(format!("meldpq-shard-replay-shape-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shard = Shard::new(0, DurablePool::open(&dir).unwrap());
        let queues = [
            shard.create_queue(),
            shard.create_queue(),
            shard.create_queue(),
        ];
        churn(&shard, queues, 0..6);
        let live = live_state(&shard);
        drop(shard);
        let ((nodes, slab_len), _) = &live;
        assert!(nodes.len() < *slab_len, "the pops left free slots");
        assert!(
            !dir.join(wal::CHECKPOINT_FILE).exists(),
            "recovery replays from genesis"
        );
        let (pool, heaps, replayed) = recovered_state(&dir);
        assert!(replayed > 0);
        assert_eq!((pool, heaps), live);

        // Reopen, checkpoint, and log a suffix that pops through every
        // kernel again.
        let shard = Shard::new(0, DurablePool::open(&dir).unwrap());
        assert_eq!(live_state(&shard), live, "reopened from genesis replay");
        shard.lock_state().checkpoint();
        churn(&shard, queues, 6..9);
        let live = live_state(&shard);
        drop(shard);
        let (pool, heaps, replayed) = recovered_state(&dir);
        assert!(replayed > 0, "the suffix after the image is replayed");
        assert_eq!((pool, heaps), live);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_after_damage_restarts_the_checkpoint_cadence() {
        let dir =
            std::env::temp_dir().join(format!("meldpq-shard-reset-cadence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shard = Shard::new(0, DurablePool::open(&dir).unwrap());
        let insert = |q: QueueId, key: i64| {
            assert_eq!(
                run(&shard, Request::Insert { queue: q, key }),
                Response::Done
            );
        };
        let q = shard.create_queue();
        let keys: Vec<i64> = (0..4096).collect();
        assert_eq!(
            run(&shard, Request::MultiInsert { queue: q, keys }),
            Response::Done
        );
        // An image far larger than the op floor's worth of log: carried into
        // the fresh log, its byte baseline would stall checkpoints.
        shard.lock_state().checkpoint();
        let image = std::fs::metadata(dir.join(wal::CHECKPOINT_FILE))
            .unwrap()
            .len();
        assert!(image > 2 * 48 * CheckpointCadence::MIN_OPS, "image {image}");
        shard.lock_state().reset_after_damage();
        assert_eq!(shard.lock_state().totals().0.wal_checkpoints, 1);
        let q = shard.create_queue(); // op 1 of the fresh log
        for key in 2..CheckpointCadence::MIN_OPS as i64 {
            insert(q, key);
        }
        assert_eq!(shard.lock_state().totals().0.wal_checkpoints, 1);
        insert(q, 0); // the op floor: the fresh log has no image yet
        assert_eq!(shard.lock_state().totals().0.wal_checkpoints, 2);
        drop(shard);
        let state = wal::recover_dir(&dir, Engine::Sequential).unwrap();
        assert_eq!(state.replayed, 0, "the checkpoint covers the fresh log");
        let len = state
            .heaps
            .iter()
            .flatten()
            .map(|(_, h)| h.len())
            .sum::<usize>();
        assert_eq!(len, CheckpointCadence::MIN_OPS as usize - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
