//! One shard: a [`HeapPool`] of tenant queues behind one lock. Every
//! tenant queue is a [`PooledHeap`] of that pool, so a same-shard meld is
//! the paper's zero-copy `Union` and one checkpoint images the shard.
//!
//! Clients never touch the pool directly. Every request is one synchronous
//! call (`Shard::execute`): it spins on the state lock for at most
//! `WAIT_SLICE`, then blocks on it, and runs its request under a panic
//! barrier. There is no server thread and no request buffer; requests to
//! one shard are linearized by its lock.
//!
//! ## Kernels and WAL records
//!
//! A request picks its kernel from its key count and pop demand, and logs
//! the record that names that kernel: one inserted key runs `insert` and
//! logs `Insert`, more run one `multi_insert` and log one `FromKeys`; a
//! demand of one key runs `extract_min` and logs `ExtractMin`, more one
//! `multi_extract_min` logged as `MultiExtractMin`; a demand of zero logs
//! nothing. WAL replay applies each record with the same kernel, so a
//! recovered pool is the live one node for node.
//!
//! ## Cache-line layout
//!
//! `ShardState` is aligned to a 64-byte line, so the mutex's lock word
//! sits alone: a caller spinning on `try_lock` takes no line the lock
//! holder reads. Per-op bookkeeping goes to `LANES` line-aligned lanes, a
//! thread's lane picked round-robin at its first call and guarded by the
//! shard lock like the rest; reads sum the lanes. See DESIGN.md §9.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Duration;

use meldpq::check::check_pool;
use meldpq::pool::PooledHeap;
use meldpq::wal::{self, CheckpointCadence, WalError, WalOp, WalWriter, WAL_FILE};
use meldpq::{Engine, HeapPool};
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
    /// Call latency as the caller saw it: lock wait plus execution.
    latency: LatencyHistogram,
}

/// One tenant queue: its heap in the shard's pool plus the generation
/// stamped into the handles that may address it.
#[derive(Debug)]
pub(crate) struct TenantQueue {
    pub(crate) gen: u32,
    pub(crate) heap: PooledHeap,
}

/// A durable shard's write-ahead log handle: the open appender, the shard's
/// durability directory, and the checkpoint cadence. Lives inside the state
/// mutex so WAL appends are ordered exactly like the mutations they log.
#[derive(Debug)]
pub(crate) struct ShardWal {
    writer: WalWriter,
    dir: PathBuf,
    /// When the next automatic checkpoint is due.
    cadence: CheckpointCadence,
}

/// The lock-protected half of a shard. Line-aligned so the mutex's lock
/// word shares no cache line with it (module docs).
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct ShardState {
    pub(crate) pool: HeapPool<i64>,
    /// Slot-indexed tenant queues; `None` = destroyed/free.
    pub(crate) queues: Vec<Option<TenantQueue>>,
    /// Reusable slots with the generation their next occupant gets.
    ///
    /// Generations wrap (`gen.wrapping_add(1)` in [`ShardState::take_queue`]),
    /// so a slot destroyed and recreated exactly 2³² times returns to a
    /// previously issued generation and a handle from that ancient epoch
    /// would validate again — the classic ABA window. We accept it: at one
    /// create+destroy per microsecond on a single slot, wrap-around takes
    /// over an hour of doing nothing else, and a client holding a handle
    /// across 2³² reuses of its slot has long violated any reasonable
    /// lease. `aba_generation_wraparound` below pins the behaviour.
    free_slots: Vec<(u32, u32)>,
    /// Counters and call latency, one lane per thread (module docs).
    lanes: [Lane; LANES],
    /// Write-ahead log, present iff the shard was built durable. Any WAL
    /// I/O failure disables it (`None`) rather than failing requests.
    wal: Option<ShardWal>,
}

// The layout the module docs rely on: the lock word and each lane alone.
const _: () = assert!(std::mem::align_of::<ShardState>() >= 64);
const _: () = assert!(std::mem::size_of::<Lane>().is_multiple_of(64));

/// Append one logical op to the shard's WAL, if durability is on. An I/O
/// failure counts a `wal_error` and turns durability off — the shard keeps
/// serving from memory rather than amplifying a disk fault into an outage.
fn wal_log(wal: &mut Option<ShardWal>, stats: &mut ShardStats, op: &WalOp) {
    let Some(w) = wal else { return };
    match w.writer.append(op) {
        Ok(_) => {
            stats.wal_appends += 1;
            w.cadence.logged();
        }
        Err(_) => {
            stats.wal_errors += 1;
            *wal = None;
        }
    }
}

/// Flush buffered WAL records to the OS before the mutations they describe
/// are applied (the write-*ahead* half of the contract). Failure disables
/// durability, like [`wal_log`].
fn wal_flush(wal: &mut Option<ShardWal>, stats: &mut ShardStats) {
    let Some(w) = wal else { return };
    if w.writer.flush().is_err() {
        stats.wal_errors += 1;
        *wal = None;
    }
}

impl ShardState {
    /// An empty, non-durable shard state.
    fn new() -> Self {
        ShardState {
            pool: HeapPool::new(),
            queues: Vec::new(),
            free_slots: Vec::new(),
            lanes: Default::default(),
            wal: None,
        }
    }

    /// The calling thread's counters.
    pub(crate) fn stats(&mut self) -> &mut ShardStats {
        &mut self.lanes[lane()].stats
    }

    /// Every lane summed: the counters, `batches` set to `requests`, and
    /// the call latency.
    pub(crate) fn totals(&self) -> (ShardStats, LatencyHistogram) {
        let (mut stats, mut latency) = (ShardStats::default(), LatencyHistogram::new());
        for l in &self.lanes {
            stats.add(&l.stats);
            latency.merge(&l.latency);
        }
        stats.batches = stats.requests;
        (stats, latency)
    }

    /// The queue addressed by `id`, if the handle is current.
    pub(crate) fn queue_mut(&mut self, id: QueueId) -> Option<&mut TenantQueue> {
        self.queues
            .get_mut(id.slot() as usize)
            .and_then(|s| s.as_mut())
            .filter(|q| q.gen == id.generation())
    }

    /// Remove the queue addressed by `id`, freeing its slot for reuse under
    /// a bumped generation.
    pub(crate) fn take_queue(&mut self, id: QueueId) -> Result<PooledHeap, ServiceError> {
        let Some(q) = self
            .queues
            .get_mut(id.slot() as usize)
            .filter(|s| s.as_ref().is_some_and(|q| q.gen == id.generation()))
            .and_then(Option::take)
        else {
            self.stats().stale_ops += 1;
            return Err(ServiceError::UnknownQueue(id));
        };
        self.free_slots.push((id.slot(), q.gen.wrapping_add(1)));
        self.stats().queues_destroyed += 1;
        Ok(q.heap)
    }

    /// Structurally validate the shard's pool: every tenant heap, no node
    /// shared between heaps and none leaked. Used after recovering a
    /// poisoned lock (the panicking request may have left a mutation
    /// half-applied) and by [`crate::QueueService::validate`].
    pub(crate) fn revalidate(&self) -> Result<(), String> {
        let heaps: Vec<&PooledHeap> = self.queues.iter().flatten().map(|q| &q.heap).collect();
        check_pool(&self.pool, &heaps)
    }

    /// Last-resort recovery when [`ShardState::revalidate`] finds the state
    /// damaged: drop every queue and start the shard over empty. Stale
    /// handles fail cleanly with `UnknownQueue`; a durable shard's log,
    /// checkpoint and checkpoint cadence are restarted too, so recovery
    /// reflects the reset rather than replaying the pre-damage history onto
    /// an empty pool, and the fresh log checkpoints on its own schedule.
    pub(crate) fn reset_after_damage(&mut self) {
        self.pool = HeapPool::new();
        self.queues.clear();
        self.free_slots.clear();
        self.stats().poison_resets += 1;
        if let Some(w) = self.wal.take() {
            let restarted = (|| -> std::io::Result<ShardWal> {
                let ckpt = w.dir.join(wal::CHECKPOINT_FILE);
                if ckpt.exists() {
                    std::fs::remove_file(&ckpt)?;
                }
                let writer = WalWriter::create(&w.dir.join(WAL_FILE))?;
                Ok(ShardWal {
                    writer,
                    dir: w.dir,
                    cadence: CheckpointCadence::default(),
                })
            })();
            match restarted {
                Ok(w) => self.wal = Some(w),
                Err(_) => self.stats().wal_errors += 1,
            }
        }
    }

    /// Whether this shard currently has an open write-ahead log.
    pub(crate) fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Write a checkpoint if the cadence says one is due.
    pub(crate) fn maybe_checkpoint(&mut self) {
        let due = match &self.wal {
            Some(w) => w.cadence.due(w.writer.bytes_logged()),
            None => false,
        };
        if due {
            self.force_checkpoint();
        }
    }

    /// Write a checkpoint now (durable shards only; no-op otherwise).
    pub(crate) fn force_checkpoint(&mut self) {
        let ShardState {
            pool,
            queues,
            free_slots,
            lanes,
            wal,
        } = self;
        let stats = &mut lanes[lane()].stats;
        let Some(w) = wal else { return };
        let wrote = (|| -> std::io::Result<u64> {
            w.writer.sync()?;
            let seq = w.writer.next_seq().saturating_sub(1);
            let heaps = queues
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().map(|q| (i as u32, q.gen, &q.heap)));
            wal::write_checkpoint(&w.dir, seq, pool, heaps, free_slots)
        })();
        match wrote {
            Ok(image) => {
                w.cadence.checkpointed(w.writer.bytes_logged(), image);
                stats.wal_checkpoints += 1;
            }
            Err(_) => {
                stats.wal_errors += 1;
                *wal = None;
            }
        }
    }
}

/// A shard: the lock-protected pool state. See module docs.
#[derive(Debug)]
pub struct Shard {
    index: u16,
    state: Mutex<ShardState>,
}

impl Shard {
    pub(crate) fn new(index: u16) -> Self {
        Shard {
            index,
            state: Mutex::new(ShardState::new()),
        }
    }

    /// Build a durable shard rooted at `dir`: recover whatever state the
    /// directory holds (checkpoint + WAL suffix), then reopen the log for
    /// appending.
    pub(crate) fn new_durable(index: u16, dir: PathBuf) -> Result<Self, WalError> {
        let recovered = wal::recover_dir(&dir, Engine::Sequential)?;
        let mut st = ShardState::new();
        st.pool = recovered.pool;
        st.queues = recovered
            .heaps
            .into_iter()
            .map(|s| s.map(|(gen, heap)| TenantQueue { gen, heap }))
            .collect();
        st.free_slots = recovered.free_slots;
        let writer = WalWriter::append_to(&dir.join(WAL_FILE), recovered.next_seq)?;
        st.wal = Some(ShardWal {
            writer,
            dir,
            cadence: recovered.cadence,
        });
        Ok(Shard {
            index,
            state: Mutex::new(st),
        })
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
        st.maybe_checkpoint();
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
    /// recovery counted, and the state structurally revalidated — intact
    /// state keeps serving; damaged state is reset to empty (queues lost,
    /// handles stale) via [`ShardState::reset_after_damage`].
    fn heal<'a>(&'a self, mut st: MutexGuard<'a, ShardState>) -> MutexGuard<'a, ShardState> {
        self.state.clear_poison();
        st.stats().poison_recoveries += 1;
        if st.revalidate().is_err() {
            st.reset_after_damage();
        }
        st
    }

    /// Create a queue on this shard and hand back its (current-generation)
    /// handle. On a durable shard the creation is logged (and the log
    /// flushed) before the slot is occupied.
    pub(crate) fn create_queue(&self) -> QueueId {
        let mut st = self.lock_state();
        let (slot, gen) = match st.free_slots.last() {
            Some(&(s, g)) => (s, g),
            None => (st.queues.len() as u32, 0),
        };
        Shard::log_ops(&mut st, &[WalOp::CreateHeap { slot, gen }]);
        st.stats().queues_created += 1;
        let heap = st.pool.new_heap();
        if st.free_slots.last().map(|&(s, _)| s) == Some(slot) {
            st.free_slots.pop();
            st.queues[slot as usize] = Some(TenantQueue { gen, heap });
        } else {
            st.queues.push(Some(TenantQueue { gen, heap }));
        }
        st.maybe_checkpoint();
        QueueId::new(self.index, slot, gen)
    }

    /// Log ops on behalf of the service front end (meld and destroy run
    /// outside [`Shard::execute`]), flushing before the caller mutates
    /// state. No-op on non-durable shards.
    pub(crate) fn log_ops(st: &mut ShardState, ops: &[WalOp]) {
        if st.wal.is_none() {
            return;
        }
        let ShardState { lanes, wal, .. } = st;
        let stats = &mut lanes[lane()].stats;
        for op in ops {
            wal_log(wal, stats, op);
        }
        wal_flush(wal, stats);
    }
}

/// The panic barrier around [`execute_one`]: a panic inside one tenant's
/// kernels (a violated invariant caught by a `debug-validate` check) must
/// not poison the shard for every other tenant. The request is answered
/// [`ServiceError::Internal`], the panic is counted, the state is
/// revalidated (and reset if damaged), and the shard keeps serving.
fn serve(st: &mut ShardState, req: &Request) -> Response {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_one(st, req)));
    run.unwrap_or_else(|_| {
        st.stats().combiner_panics += 1;
        if st.revalidate().is_err() {
            st.reset_after_damage();
        }
        Response::Err(ServiceError::Internal(req.queue()))
    })
}

/// The shard's one executor: admit, log and run one request with the
/// kernel its key count and pop demand pick (see the module docs).
fn execute_one(st: &mut ShardState, req: &Request) -> Response {
    let qid = req.queue();
    // Split borrows: the pool and the queue table are disjoint fields.
    let ShardState {
        pool,
        queues,
        lanes,
        wal,
        ..
    } = st;
    let stats = &mut lanes[lane()].stats;
    let Some(q) = queues
        .get_mut(qid.slot() as usize)
        .and_then(|s| s.as_mut())
        .filter(|q| q.gen == qid.generation())
    else {
        stats.stale_ops += 1;
        return Response::Err(ServiceError::UnknownQueue(qid));
    };

    // Admission control + write-ahead logging, both strictly before any
    // mutation: a refused insert leaves the queue untouched, and a logged
    // op is flushed before it is applied.
    let keys = req.inserted_keys();
    let refused = match keys.len() {
        0 => None,
        n => pool.can_admit(n).err(),
    };
    if wal.is_some() {
        let slot = qid.slot();
        let op = match req {
            _ if refused.is_some() => None,
            Request::ExtractMin { .. } | Request::ExtractK { k: 1, .. } => {
                Some(WalOp::ExtractMin { slot })
            }
            Request::ExtractK { k, .. } if *k > 1 => {
                Some(WalOp::MultiExtractMin { slot, k: *k as u64 })
            }
            _ => match keys {
                [] => None,
                [key] => Some(WalOp::Insert { slot, key: *key }),
                keys => Some(WalOp::FromKeys {
                    slot,
                    keys: keys.to_vec(),
                }),
            },
        };
        if let Some(op) = op {
            wal_log(wal, stats, &op);
            wal_flush(wal, stats);
        }
    }

    #[cfg(test)]
    tests::hit_fail_point(qid);
    match req {
        Request::Insert { .. } | Request::MultiInsert { .. } => {
            if let Some(err) = refused {
                return Response::Err(ServiceError::Capacity { queue: qid, err });
            }
            match keys {
                [] => {}
                [key] => {
                    pool.insert(&mut q.heap, *key);
                    stats.single_inserts += 1;
                }
                keys => {
                    flight::record_here(EventKind::BulkAdmission, keys.len() as u64);
                    let admitted = pool.multi_insert(&mut q.heap, keys);
                    debug_assert!(admitted.is_ok(), "the keys passed can_admit above");
                    stats.coalesced_inserts += keys.len() as u64;
                }
            }
            Response::Done
        }
        Request::ExtractMin { .. } => Response::Key(pool.extract_min(&mut q.heap)),
        Request::ExtractK { k, .. } => Response::Keys(match *k {
            0 => Vec::new(),
            1 => pool.extract_min(&mut q.heap).into_iter().collect(),
            k => {
                let out = pool.multi_extract_min(&mut q.heap, k);
                flight::record_here(EventKind::MultiExtract, out.len() as u64);
                stats.multi_extracts += 1;
                stats.coalesced_pops += out.len() as u64;
                out
            }
        }),
        Request::PeekMin { .. } => Response::Key(pool.min(&q.heap)),
        Request::Len { .. } => Response::Len(q.heap.len()),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
pub(crate) mod tests {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        /// The queue whose groups panic on this thread, if any.
        static FAIL_POINT: Cell<Option<QueueId>> = const { Cell::new(None) };
    }

    /// Make every later group for `q` executed on this thread panic just
    /// before its Phase 1 kernel call: the injected fault the panic-barrier
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
        let shard = Shard::new(0);
        let q = shard.create_queue();
        {
            let mut st = shard.lock_state();
            st.take_queue(q).unwrap();
        }
        assert_eq!(
            run(&shard, Request::Insert { queue: q, key: 1 }),
            Response::Err(ServiceError::UnknownQueue(q))
        );
        // The freed slot is reused under a new generation; the old handle
        // stays dead.
        let q2 = shard.create_queue();
        assert_eq!(q2.slot(), q.slot());
        assert_ne!(q2.generation(), q.generation());
    }

    #[test]
    fn fast_path_panic_is_contained_and_shard_keeps_serving() {
        let shard = Shard::new(0);
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
        let shard = Shard::new(0);
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
        // validate again. Simulate the wrap by pinning the free slot's next
        // generation to u32::MAX and cycling it twice.
        let shard = Shard::new(0);
        let q0 = shard.create_queue(); // slot 0, gen 0
        {
            let mut st = shard.lock_state();
            st.take_queue(q0).unwrap();
            st.free_slots.clear();
            st.free_slots.push((q0.slot(), u32::MAX));
        }
        let q_max = shard.create_queue();
        assert_eq!(q_max.generation(), u32::MAX);
        {
            let mut st = shard.lock_state();
            st.take_queue(q_max).unwrap();
            assert_eq!(
                st.free_slots.last(),
                Some(&(q0.slot(), 0)),
                "generation wraps to 0"
            );
        }
        let q_wrapped = shard.create_queue();
        // The wrapped handle is bit-identical to the original: the stale q0
        // handle addresses the new queue. This is the accepted ABA window.
        assert_eq!(q_wrapped, q0);
        assert_eq!(
            run(&shard, Request::Insert { queue: q0, key: 5 }),
            Response::Done
        );
    }

    #[test]
    fn over_demand_pops_return_empty() {
        let shard = Shard::new(3);
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
        let heaps = st
            .queues
            .iter()
            .map(|q| {
                q.as_ref().map(|q| {
                    let h = &q.heap;
                    (q.gen, h.roots().to_vec(), h.len(), st.pool.min_root(h))
                })
            })
            .collect();
        (pool_shape(&st.pool), heaps)
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
        let shard = Shard::new_durable(0, dir.clone()).unwrap();
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
        let shard = Shard::new_durable(0, dir.clone()).unwrap();
        assert_eq!(live_state(&shard), live, "reopened from genesis replay");
        shard.lock_state().force_checkpoint();
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
        let shard = Shard::new_durable(0, dir.clone()).unwrap();
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
        shard.lock_state().force_checkpoint();
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
