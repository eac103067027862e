//! One shard: a [`DurablePool`] of tenant queues behind one lock. Every
//! tenant queue is a heap of the store's one [`meldpq::HeapPool`], so a
//! same-shard meld is the paper's zero-copy `Union` and one checkpoint
//! images the shard.
//!
//! Clients never touch the store directly. Every operation is one
//! synchronous call (`Shard::call`): it spins on the state lock for at
//! most `WAIT_SLICE`, then blocks on it, and runs its kernel under a panic
//! barrier. There is no server thread and no request buffer; calls to one
//! shard are linearized by its lock.
//!
//! ## Kernels and WAL records
//!
//! Each [`crate::QueueService`] method picks its kernel from its key count
//! and pop demand and calls the store op that runs it: one inserted key
//! runs [`DurablePool::insert`], more one [`DurablePool::multi_insert`]; a
//! demand of one key runs [`DurablePool::extract_min`], more one
//! [`DurablePool::multi_extract_min`]. A durable store logs the record
//! that names the kernel before running it, and WAL replay runs each
//! record through the same store op, so a recovered pool is the live one
//! node for node. Reads, an empty insert and a demand of zero log
//! nothing.
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

use meldpq::wal::{DurablePool, WalCounts, WalError};
use obs::flight::{self, EventKind};
use obs::{LatencyHistogram, TraceId};

use crate::metrics::ShardStats;
use crate::service::QueueId;
use crate::ServiceError;

/// The longest a contended call spins on its shard's lock before it
/// blocks in `lock()` ([`Shard::call`]).
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

    /// Run one operation on queue `q`: lock, run `kernel` on the store and
    /// the calling thread's counters under the panic barrier, answer. Only
    /// the dispatch is generic; the lock, flight events and bookkeeping
    /// ([`Shard::enter`], [`leave`]) and the failure answers ([`refused`],
    /// [`contained`]) are one shared copy: a build that inlined them per op
    /// missed the flight-overhead gate in 8 of 10 runs (EXPERIMENTS.md).
    pub(crate) fn call<R>(
        &self,
        q: QueueId,
        op: u64,
        kernel: impl FnOnce(&mut DurablePool, &mut ShardStats, &mut WalCounts) -> Result<R, WalError>,
    ) -> Result<R, ServiceError> {
        let (trace, _scope) = flight::ambient_or_new();
        let (mut st, lane, begun) = self.enter(trace, op);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(test)]
            tests::hit_fail_point(q);
            let (store, stats, wal) = st.split();
            kernel(store, stats, wal)
        }));
        let out = match run {
            Ok(Ok(out)) => Ok(out),
            Ok(Err(e)) => Err(refused(&mut st, q, e)),
            Err(_) => Err(contained(&mut st, q)),
        };
        leave(st, lane, trace, op, begun);
        out
    }

    /// The first half of [`Shard::call`]: one clock read stamps the
    /// `op_begin` flight event (argument `op`) and starts the latency
    /// sample; then the state lock, tried once and on a miss waited for
    /// ([`Shard::wait_state`]), and the call counted on the calling
    /// thread's lane. Returns the guard, the lane and the start time.
    #[inline(never)]
    fn enter(&self, trace: TraceId, op: u64) -> (MutexGuard<'_, ShardState>, usize, u64) {
        let begun = flight::now_nanos();
        flight::record_at(begun, trace, EventKind::OpBegin, op);
        let mut st = match self.try_state() {
            Some(st) => st,
            None => self.wait_state(trace),
        };
        let lane = lane();
        st.lanes[lane].stats.requests += 1;
        (st, lane, begun)
    }

    /// The contended half of [`Shard::enter`]'s lock: spin on
    /// `try_lock`, reading the clock once per miss, for at most
    /// [`WAIT_SLICE`], then block in `lock()`. The wait is recorded under
    /// the op's `trace`, stamped with the spin's own clock reads; only
    /// blocking adds one read. Cold and out of line, so the uncontended
    /// path carries only the one `try_lock`.
    #[cold]
    #[inline(never)]
    fn wait_state(&self, trace: TraceId) -> MutexGuard<'_, ShardState> {
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
        let (store, _, wal) = st.split();
        let freed = store
            .free_heap(id.heap(), wal)
            .map_err(|e| refused(&mut st, id, e))?;
        st.split().1.queues_destroyed += 1;
        Ok(freed)
    }
}

/// The second half of [`Shard::call`]: one clock read ends the call's
/// latency sample, charged to `lane`'s histogram (the call as the client
/// saw it, lock wait included), and stamps the `op_end` flight event,
/// recorded after unlock.
#[inline(never)]
fn leave(mut st: MutexGuard<'_, ShardState>, lane: usize, trace: TraceId, op: u64, begun: u64) {
    let end = flight::now_nanos();
    st.lanes[lane].latency.record(end.saturating_sub(begun));
    drop(st);
    flight::record_at(end, trace, EventKind::OpEnd, op);
}

/// The answer to a store op the store refused: a capacity refusal is
/// [`ServiceError::Capacity`]; anything else is a stale handle
/// ([`ServiceError::UnknownQueue`], counted in `stale_ops`).
fn refused(st: &mut ShardState, q: QueueId, e: WalError) -> ServiceError {
    match e {
        WalError::Capacity(err) => ServiceError::Capacity { queue: q, err },
        _ => {
            st.split().1.stale_ops += 1;
            ServiceError::UnknownQueue(q)
        }
    }
}

/// The panic barrier's answer: a panic inside one tenant's kernel (a
/// violated invariant caught by a `debug-validate` check) must not poison
/// the shard for every other tenant. It is counted, the store is
/// revalidated (and reset if damaged), and the shard keeps serving; the
/// call answers [`ServiceError::Internal`].
#[cold]
fn contained(st: &mut ShardState, q: QueueId) -> ServiceError {
    st.split().1.combiner_panics += 1;
    if st.store.validate().is_err() {
        st.reset_after_damage();
    }
    ServiceError::Internal(q)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod tests {
    use std::cell::Cell;

    use meldpq::wal::{self, CheckpointCadence, HeapId, WalOp, WalWriter};
    use meldpq::{Engine, HeapPool};

    use super::*;

    thread_local! {
        /// The queue whose calls panic on this thread, if any.
        static FAIL_POINT: Cell<Option<QueueId>> = const { Cell::new(None) };
    }

    /// Make every later call for `q` made on this thread panic just
    /// before its kernel runs: the injected fault the panic-barrier
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

    /// Run `kernel` on queue `q`'s heap through the shard's one call path.
    fn run<R>(
        shard: &Shard,
        q: QueueId,
        kernel: impl FnOnce(&mut DurablePool, HeapId, &mut WalCounts) -> Result<R, WalError>,
    ) -> Result<R, ServiceError> {
        shard.call(q, 0, |store, _, wal| kernel(store, q.heap(), wal))
    }

    #[test]
    fn stale_handle_is_rejected() {
        let shard = Shard::new(0, DurablePool::default());
        let q = shard.create_queue();
        shard.destroy_queue(q).unwrap();
        assert_eq!(
            run(&shard, q, |s, h, w| s.insert(h, 1, w)),
            Err(ServiceError::UnknownQueue(q))
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
        // The kernel runs under a panic barrier: the panic becomes this
        // call's `Internal` answer.
        assert_eq!(
            run(&shard, bad, |s, h, w| s.insert(h, 9, w)),
            Err(ServiceError::Internal(bad))
        );
        assert_eq!(run(&shard, good, |s, h, w| s.insert(h, 4, w)), Ok(()));
        assert_eq!(
            run(&shard, good, |s, h, w| s.extract_min(h, w)),
            Ok(Some(4))
        );
        assert_eq!(
            run(&shard, good, |s, h, _| Ok(s.heap(h).map(|h| h.len()))),
            Ok(Some(0)),
            "the good queue served both ops"
        );
        let st = shard.lock_state();
        assert_eq!(st.totals().0.combiner_panics, 1);
        assert_eq!(st.totals().0.poison_recoveries, 0, "lock never poisoned");
    }

    #[test]
    fn poisoned_lock_is_healed_not_cascaded() {
        let shard = Shard::new(0, DurablePool::default());
        let q = shard.create_queue();
        assert_eq!(run(&shard, q, |s, h, w| s.insert(h, 1, w)), Ok(()));
        // Poison the state mutex by panicking while holding it, without
        // touching the state (so revalidation finds it intact).
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _st = shard.lock_state();
            panic!("injected panic under the state lock");
        }));
        assert!(res.is_err());
        // Every lock path must recover instead of propagating the poison.
        assert_eq!(run(&shard, q, |s, h, w| s.extract_min(h, w)), Ok(Some(1)));
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
        assert_eq!(run(&shard, q0, |s, h, w| s.insert(h, 5, w)), Ok(()));
        drop(shard);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn over_demand_pops_return_empty() {
        let shard = Shard::new(3, DurablePool::default());
        let q = shard.create_queue();
        assert_eq!(run(&shard, q, |s, h, w| s.insert(h, 7, w)), Ok(()));
        assert_eq!(run(&shard, q, |s, h, w| s.extract_min(h, w)), Ok(Some(7)));
        assert_eq!(run(&shard, q, |s, h, w| s.extract_min(h, w)), Ok(None));
        assert_eq!(
            run(&shard, q, |s, h, w| s.multi_extract_min(h, 5, w)),
            Ok(vec![])
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
        for round in rounds {
            for q in [a, b] {
                let keys: Vec<i64> = (0..40 + round * 13)
                    .map(|i| (i * 7919 + round) % 17)
                    .collect();
                assert_eq!(run(shard, q, |s, h, w| s.multi_insert(h, &keys, w)), Ok(()));
            }
            // Pops free slots for the next round's inserts to reuse.
            run(shard, a, |s, h, w| s.multi_extract_min(h, 25, w)).unwrap();
            let popped = run(shard, b, |s, h, w| s.multi_extract_min(h, 8, w));
            assert_eq!(popped.unwrap().len(), 8);
            assert!(run(shard, b, |s, h, w| s.extract_min(h, w))
                .unwrap()
                .is_some());
            for key in [round, -round, round] {
                assert_eq!(run(shard, c, |s, h, w| s.insert(h, key, w)), Ok(()));
            }
            let popped = run(shard, c, |s, h, w| s.multi_extract_min(h, 5, w));
            assert_eq!(popped.unwrap().len(), 3);
            assert_eq!(run(shard, b, |s, h, w| s.insert(h, round, w)), Ok(()));
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
            assert_eq!(run(&shard, q, |s, h, w| s.insert(h, key, w)), Ok(()));
        };
        let q = shard.create_queue();
        let keys: Vec<i64> = (0..4096).collect();
        assert_eq!(
            run(&shard, q, |s, h, w| s.multi_insert(h, &keys, w)),
            Ok(())
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
