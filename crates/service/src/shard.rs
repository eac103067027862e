//! One shard: a [`HeapPool`] of tenant queues behind a flat-combining lock.
//! Every tenant queue is a [`PooledHeap`] of that pool, so a same-shard meld
//! is the paper's zero-copy `Union` and one checkpoint images the shard.
//!
//! Clients never touch the pool directly. Asynchronous and pipelined
//! callers deposit requests into the shard's [`Ingress`] and whoever
//! acquires the state mutex next — client or waiter, there is no dedicated
//! server thread — becomes the *combiner*: it drains the whole buffer,
//! executes it as one batch, and publishes results through the per-request
//! [`OpSlot`]s. Under contention one lock acquisition then serves many
//! deposits, and the batch exposes exactly the coalescing the paper's
//! Forehead/Waiting buffers exist for — concurrent inserts become one
//! `multi_insert`, concurrent pops one `multi_extract_min` peel.
//!
//! A synchronous call (`Shard::execute`) never deposits: it spins on the
//! state lock for at most `WAIT_SLICE`, then blocks on it, serves any
//! pending deposits and runs its own request as a batch of one through the
//! same executor, under the same panic barrier and with the same
//! linearization; only its response leaves differently, returned to the
//! caller instead of filled into a slot. With few clients per shard a
//! deposit rarely finds company to batch with, and a parked waiter pays a
//! timed wake; lock-and-run pays neither.
//!
//! ## Linearization of a batch
//!
//! All requests in a drained batch are concurrent (none had completed when
//! the combiner took the buffer), so *any* permutation is a valid
//! linearization. The combiner picks, per queue: every insert first, then
//! the reads/pops in arrival order with the pop demand served from one
//! ascending pull. `PeekMin`/`Len` interleaved between pops read
//! `pulled[j]` / `len + (pulled.len() - j)` — the exact state a sequential
//! execution in that order would observe.
//!
//! The kernels and WAL records follow the group's totals: one inserted key
//! runs `insert` and logs `Insert`, more run one `multi_insert` and log one
//! `FromKeys`; a demand of one key runs `extract_min` and logs
//! `ExtractMin`, more one `multi_extract_min` logged as `MultiExtractMin`.
//! WAL replay applies each record with the same kernel, so a recovered pool
//! is the live one node for node.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use meldpq::check::check_pool;
use meldpq::pool::PooledHeap;
use meldpq::wal::{self, CheckpointCadence, WalError, WalOp, WalWriter, WAL_FILE};
use meldpq::{Engine, HeapPool};
use obs::flight::{self, EventKind};
use obs::{LatencyHistogram, TraceId};

use crate::batch::{Ingress, OpSlot, Request, Response};
use crate::metrics::ShardStats;
use crate::service::QueueId;
use crate::ServiceError;

/// The longest a contended synchronous call spins on its shard's lock
/// before it blocks ([`Shard::execute`]), and how long a ticket waiter
/// parks between attempts to combine ([`crate::Ticket::wait`]). Short,
/// because a request deposited just after the combiner's final drain is
/// only served when its waiter wakes and combines it itself.
pub(crate) const WAIT_SLICE: Duration = Duration::from_micros(20);

/// One tenant queue: its heap in the shard's pool plus the generation
/// stamped into the handles that may address it.
#[derive(Debug)]
pub(crate) struct TenantQueue {
    pub(crate) gen: u32,
    pub(crate) heap: PooledHeap,
}

/// A durable shard's write-ahead log handle: the open appender, the shard's
/// durability directory, and the checkpoint cadence. Lives inside the state
/// mutex so WAL appends are ordered exactly like the combiner's mutations.
#[derive(Debug)]
pub(crate) struct ShardWal {
    writer: WalWriter,
    dir: PathBuf,
    /// When the next automatic checkpoint is due.
    cadence: CheckpointCadence,
}

/// The lock-protected half of a shard.
#[derive(Debug)]
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
    pub(crate) stats: ShardStats,
    /// Deposit-to-publish latency of every request served on this shard
    /// (sync calls charge their lock wait and inline execution time).
    pub(crate) latency: LatencyHistogram,
    /// Write-ahead log, present iff the shard was built durable. Any WAL
    /// I/O failure disables it (`None`) rather than failing requests.
    wal: Option<ShardWal>,
}

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
            stats: ShardStats::default(),
            latency: LatencyHistogram::new(),
            wal: None,
        }
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
            self.stats.stale_ops += 1;
            return Err(ServiceError::UnknownQueue(id));
        };
        self.free_slots.push((id.slot(), q.gen.wrapping_add(1)));
        self.stats.queues_destroyed += 1;
        Ok(q.heap)
    }

    /// Structurally validate the shard's pool: every tenant heap, no node
    /// shared between heaps and none leaked. Used after recovering a
    /// poisoned lock (the panicking combiner may have left a mutation
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
        self.stats.poison_resets += 1;
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
                Err(_) => self.stats.wal_errors += 1,
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
            stats,
            wal,
            ..
        } = self;
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

/// A shard: ingress buffer + lock-protected pool state. See module docs.
#[derive(Debug)]
pub struct Shard {
    index: u16,
    ingress: Ingress,
    state: Mutex<ShardState>,
}

impl Shard {
    pub(crate) fn new(index: u16) -> Arc<Self> {
        Self::with_state(index, ShardState::new())
    }

    fn with_state(index: u16, state: ShardState) -> Arc<Self> {
        Arc::new(Shard {
            index,
            ingress: Ingress::new(),
            state: Mutex::new(state),
        })
    }

    /// Build a durable shard rooted at `dir`: recover whatever state the
    /// directory holds (checkpoint + WAL suffix), then reopen the log for
    /// appending.
    pub(crate) fn new_durable(index: u16, dir: PathBuf) -> Result<Arc<Self>, WalError> {
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
        Ok(Self::with_state(index, st))
    }

    /// This shard's index in the service's shard map.
    pub fn index(&self) -> u16 {
        self.index
    }

    /// Deposit a request and opportunistically combine. The returned slot
    /// completes once some combiner executes the batch containing it.
    pub(crate) fn submit(&self, req: Request) -> Arc<OpSlot> {
        let slot = self.ingress.push(req);
        self.try_combine();
        slot
    }

    /// Deposit without combining — the pipelined variant of [`Shard::submit`].
    /// The request sits in the Waiting buffer until the next combine.
    pub(crate) fn enqueue(&self, req: Request) -> Arc<OpSlot> {
        self.ingress.push(req)
    }

    /// Serve a synchronous call: take the state lock, serve any pending
    /// batch, then execute `req` as a batch of one — through the
    /// combiner's executor and panic barrier, but answered inline, with no
    /// completion slot. A held lock is retried for at most [`WAIT_SLICE`],
    /// then waited for in `lock()`; a poisoned one is healed.
    ///
    /// `begun` is the caller's [`flight::now_nanos`] reading from the op's
    /// ingress; the returned timestamp is taken after execution, so the
    /// caller can stamp its `op_end` event without another clock read. The
    /// latency charged to the shard's histogram spans `begun..end` —
    /// end-to-end as the client saw it, including any lock wait and any
    /// pending batch this thread served first.
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
                        let st = self.peek_state();
                        now = flight::now_nanos();
                        break st;
                    }
                };
                flight::record_at(now, trace, EventKind::TicketUnpark, self.index as u64);
                st
            }
        };
        self.combine_locked(&mut st);
        st.stats.count_batch(1);
        let mut reply = Inline(Response::Err(ServiceError::Internal(req.queue())));
        serve_group(&mut st, req.queue(), std::slice::from_ref(req), &mut reply);
        st.maybe_checkpoint();
        let end = flight::now_nanos();
        st.latency.record(end.saturating_sub(begun));
        (reply.0, end)
    }

    /// The state lock if it is free right now (a poisoned one healed).
    fn try_state(&self) -> Option<MutexGuard<'_, ShardState>> {
        match self.state.try_lock() {
            Ok(st) => Some(st),
            Err(TryLockError::Poisoned(p)) => Some(self.heal(p.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Become the combiner if the state lock is free; never blocks.
    /// Returns whether any batch was executed.
    pub(crate) fn try_combine(&self) -> bool {
        self.try_state()
            .is_some_and(|mut st| self.combine_locked(&mut st))
    }

    /// Drain-and-execute until the ingress is empty. Caller holds the lock.
    /// The combiner's tenure is timed from its first non-empty drain, so
    /// the common empty check costs no clock read.
    pub(crate) fn combine_locked(&self, st: &mut ShardState) -> bool {
        let mut batch = self.ingress.drain();
        if batch.is_empty() {
            return false;
        }
        let start = Instant::now();
        // This thread just became the combiner with work pending.
        flight::record_here(EventKind::CombinerHandoff, self.index as u64);
        while !batch.is_empty() {
            flight::record_here(EventKind::BatchFlush, batch.len() as u64);
            execute_batch(st, batch);
            batch = self.ingress.drain();
        }
        st.maybe_checkpoint();
        st.stats.combines += 1;
        // A tenure longer than u64 nanoseconds (585 years) can only be
        // clock corruption — saturate rather than erasing the tenure from
        // the occupancy average.
        st.stats.combine_ns = st
            .stats
            .combine_ns
            .saturating_add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        true
    }

    /// Recover a poisoned state lock instead of cascading the panic to
    /// every future client of the shard. The poison flag is cleared, the
    /// recovery counted, and the state structurally revalidated — intact
    /// state keeps serving; damaged state is reset to empty (queues lost,
    /// handles stale) via [`ShardState::reset_after_damage`].
    fn heal<'a>(&'a self, mut st: MutexGuard<'a, ShardState>) -> MutexGuard<'a, ShardState> {
        self.state.clear_poison();
        st.stats.poison_recoveries += 1;
        if st.revalidate().is_err() {
            st.reset_after_damage();
        }
        st
    }

    /// Blocking-lock the state, first serving any pending batch. A poisoned
    /// lock is healed, not propagated.
    pub(crate) fn lock_state(&self) -> MutexGuard<'_, ShardState> {
        let mut st = match self.state.lock() {
            Ok(st) => st,
            Err(p) => self.heal(p.into_inner()),
        };
        self.combine_locked(&mut st);
        st
    }

    /// Blocking-lock the state *without* combining. Introspection uses it
    /// because serving pending batches would perturb exactly what a
    /// snapshot wants to observe (ingress backlog, combiner behaviour);
    /// [`Shard::execute`] because it combines once it holds the lock.
    pub(crate) fn peek_state(&self) -> MutexGuard<'_, ShardState> {
        match self.state.lock() {
            Ok(st) => st,
            Err(p) => self.heal(p.into_inner()),
        }
    }

    /// Requests currently waiting in this shard's ingress buffer.
    pub(crate) fn ingress_depth(&self) -> usize {
        self.ingress.depth()
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
        {
            let ShardState { stats, wal, .. } = &mut *st;
            wal_log(wal, stats, &WalOp::CreateHeap { slot, gen });
            wal_flush(wal, stats);
        }
        st.stats.queues_created += 1;
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

    /// Log one op on behalf of the service front end (meld/destroy run
    /// outside the combiner), flushing before the caller mutates state.
    /// No-op on non-durable shards.
    pub(crate) fn log_ops(st: &mut ShardState, ops: &[WalOp]) {
        if st.wal.is_none() {
            return;
        }
        let ShardState { stats, wal, .. } = st;
        for op in ops {
            wal_log(wal, stats, op);
        }
        wal_flush(wal, stats);
    }
}

/// A drained request plus the slot its response is delivered through.
type PendingOp = (Request, Arc<OpSlot>);

/// Execute one drained batch against the shard state, one queue group at a
/// time. See the module docs for the linearization argument.
fn execute_batch(st: &mut ShardState, batch: Vec<PendingOp>) {
    st.stats.count_batch(batch.len());
    // Group per target queue, preserving arrival order within each group.
    let mut groups: Vec<(QueueId, Vec<Request>, Vec<Arc<OpSlot>>)> = Vec::new();
    for (req, slot) in batch {
        let qid = req.queue();
        match groups.iter_mut().find(|(g, ..)| *g == qid) {
            Some((_, reqs, slots)) => {
                reqs.push(req);
                slots.push(slot);
            }
            None => groups.push((qid, vec![req], vec![slot])),
        }
    }
    for (qid, reqs, mut slots) in groups {
        serve_group(st, qid, &reqs, &mut slots[..]);
    }
}

/// Where a queue group's responses leave the executor, one per request in
/// arrival order.
trait Replies {
    /// The trace a coalesced phase's flight events are charged to.
    fn trace(&self) -> TraceId;
    /// Deliver the response to request `i`.
    fn reply(&mut self, i: usize, req: &Request, resp: Response, latency: &mut LatencyHistogram);
    /// After a contained panic: answer `err` to every request not yet
    /// answered.
    fn fail_unanswered(&mut self, err: ServiceError);
}

/// A drained group answers through its [`OpSlot`]s, charging each op's
/// deposit-to-publish latency and closing its trace.
impl Replies for [Arc<OpSlot>] {
    // The flight events of a coalesced phase are charged to the first
    // participating op's trace: the phase exists because that op's batch
    // did, and a timeline filtered on any participant still shows when
    // its batch's kernels ran.
    fn trace(&self) -> TraceId {
        self.first().map_or(TraceId::NONE, |slot| slot.trace())
    }

    fn reply(&mut self, i: usize, req: &Request, resp: Response, latency: &mut LatencyHistogram) {
        let slot = &self[i];
        let now = flight::now_nanos();
        latency.record(slot.age_nanos_at(now));
        flight::record_at(now, slot.trace(), EventKind::OpEnd, req.op_code());
        slot.fill(resp);
    }

    fn fail_unanswered(&mut self, err: ServiceError) {
        for slot in self.iter() {
            slot.fill_if_empty(Response::Err(err));
        }
    }
}

/// A synchronous call's group of one answers into this cell; [`Shard::execute`]
/// charges the latency itself and hands the response back to its caller. It
/// starts out holding the `Internal` error, so an op left unanswered by a
/// contained panic already reads as failed.
struct Inline(Response);

impl Replies for Inline {
    fn trace(&self) -> TraceId {
        flight::current()
    }

    fn reply(&mut self, _: usize, _: &Request, resp: Response, _: &mut LatencyHistogram) {
        self.0 = resp;
    }

    fn fail_unanswered(&mut self, _: ServiceError) {}
}

/// The panic barrier around [`execute_group`]: a panic inside one tenant's
/// kernels (a violated invariant caught by a `debug-validate` check) must
/// not poison the shard for every other tenant. The group's unanswered
/// requests get [`ServiceError::Internal`], the panic is counted, the state
/// is revalidated (and reset if damaged), and the shard keeps serving.
fn serve_group<R: Replies + ?Sized>(
    st: &mut ShardState,
    qid: QueueId,
    reqs: &[Request],
    replies: &mut R,
) {
    let contained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_group(st, qid, reqs, replies);
    }));
    if contained.is_err() {
        st.stats.combiner_panics += 1;
        replies.fail_unanswered(ServiceError::Internal(qid));
        if st.revalidate().is_err() {
            st.reset_after_damage();
        }
    }
}

/// The shard's one executor: serve one queue's requests — a drained batch's
/// group or a sync call's batch of one — in the order the module docs
/// give. Admission, the WAL records, the kernels and the counters are all
/// decided here from the group's insert total and pop demand.
fn execute_group<R: Replies + ?Sized>(
    st: &mut ShardState,
    qid: QueueId,
    reqs: &[Request],
    replies: &mut R,
) {
    // Split borrows: the pool and the queue table are disjoint fields.
    let ShardState {
        pool,
        queues,
        stats,
        latency,
        wal,
        ..
    } = st;
    let Some(q) = queues
        .get_mut(qid.slot() as usize)
        .and_then(|s| s.as_mut())
        .filter(|q| q.gen == qid.generation())
    else {
        stats.stale_ops += reqs.len() as u64;
        let stale = Response::Err(ServiceError::UnknownQueue(qid));
        for (i, req) in reqs.iter().enumerate() {
            replies.reply(i, req, stale.clone(), latency);
        }
        return;
    };

    // The group's inserted keys, borrowed from the request when there is
    // only one (so a batch of one copies and allocates nothing for them).
    let keys: Cow<[i64]> = match reqs {
        [req] => Cow::Borrowed(req.inserted_keys()),
        _ => reqs
            .iter()
            .flat_map(Request::inserted_keys)
            .copied()
            .collect(),
    };
    let mut demand = 0usize;
    for req in reqs {
        match req {
            Request::ExtractMin { .. } => demand = demand.saturating_add(1),
            Request::ExtractK { k, .. } => demand = demand.saturating_add(*k),
            _ => {}
        }
    }
    // Admission control + write-ahead logging, both strictly before any
    // mutation: a refused group leaves the queue untouched (pops are still
    // served), and every logged op is flushed before it is applied.
    let refused = match keys.len() {
        0 => None,
        n => pool.can_admit(n).err(),
    };
    if wal.is_some() {
        let slot = qid.slot();
        let admitted: &[i64] = if refused.is_some() { &[] } else { &keys };
        let inserts = match admitted {
            [] => None,
            [key] => Some(WalOp::Insert { slot, key: *key }),
            keys => Some(WalOp::FromKeys {
                slot,
                keys: keys.to_vec(),
            }),
        };
        let pops = match demand {
            0 => None,
            1 => Some(WalOp::ExtractMin { slot }),
            k => Some(WalOp::MultiExtractMin { slot, k: k as u64 }),
        };
        for op in inserts.iter().chain(&pops) {
            wal_log(wal, stats, op);
        }
        wal_flush(wal, stats);
    }

    // Phase 1 — every insert of the group, with the kernel its WAL record
    // names: one key `insert`, more one `multi_insert`. A refused group
    // admits nothing; the pop phases below still run.
    #[cfg(test)]
    tests::hit_fail_point(qid);
    match &*keys {
        _ if refused.is_some() => {}
        [] => {}
        [key] => {
            pool.insert(&mut q.heap, *key);
            stats.single_inserts += 1;
        }
        keys => {
            flight::record(replies.trace(), EventKind::BulkAdmission, keys.len() as u64);
            let admitted = pool.multi_insert(&mut q.heap, keys);
            debug_assert!(admitted.is_ok(), "the group passed can_admit above");
            stats.coalesced_inserts += keys.len() as u64;
        }
    }

    // Phase 2 — the whole pop demand as one ascending pull.
    let popped;
    let mut pulled: Cow<[i64]> = match demand {
        0 => Cow::Borrowed(&[]),
        1 => {
            popped = pool.extract_min(&mut q.heap);
            Cow::Borrowed(popped.as_slice())
        }
        _ => {
            let out = pool.multi_extract_min(&mut q.heap, demand);
            flight::record(replies.trace(), EventKind::MultiExtract, out.len() as u64);
            stats.multi_extracts += 1;
            stats.coalesced_pops += out.len() as u64;
            Cow::Owned(out)
        }
    };

    // Phase 3 — answer in arrival order, cursoring through the pull.
    let mut j = 0usize;
    for (i, req) in reqs.iter().enumerate() {
        let resp = match req {
            Request::Insert { .. } | Request::MultiInsert { .. } => match refused {
                Some(err) => Response::Err(ServiceError::Capacity { queue: qid, err }),
                None => Response::Done,
            },
            Request::ExtractMin { .. } => {
                let got = pulled.get(j).copied();
                if got.is_some() {
                    j += 1;
                }
                Response::Key(got)
            }
            Request::ExtractK { k, .. } => {
                let take = (*k).min(pulled.len() - j);
                Response::Keys(if j == 0 && take == pulled.len() {
                    // The whole pull: hand it over instead of copying it.
                    std::mem::take(&mut pulled).into_owned()
                } else {
                    j += take;
                    pulled[j - take..j].to_vec()
                })
            }
            Request::PeekMin { .. } => Response::Key(match pulled.get(j) {
                Some(&key) => Some(key),
                None => pool.min(&q.heap),
            }),
            Request::Len { .. } => Response::Len(q.heap.len() + (pulled.len() - j)),
        };
        replies.reply(i, req, resp, latency);
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

    fn drain(shard: &Arc<Shard>, q: QueueId) -> Vec<i64> {
        let slot = shard.submit(Request::ExtractK {
            queue: q,
            k: usize::MAX,
        });
        shard.try_combine();
        match slot.try_take() {
            Some(Response::Keys(v)) => v,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_thread_batch_semantics() {
        let shard = Shard::new(0);
        let q = shard.create_queue();
        // Deposit a mixed batch without combining in between: the shard has
        // no state-lock holder, so each submit's try_combine serves it — use
        // raw ingress pushes to force one big batch instead.
        let slots: Vec<_> = [
            Request::Insert { queue: q, key: 5 },
            Request::Insert { queue: q, key: 1 },
            Request::ExtractMin { queue: q },
            Request::PeekMin { queue: q },
            Request::MultiInsert {
                queue: q,
                keys: vec![9, 3],
            },
            Request::ExtractMin { queue: q },
            Request::Len { queue: q },
        ]
        .into_iter()
        .map(|r| shard.ingress.push(r))
        .collect();
        assert!(shard.try_combine());
        let got: Vec<_> = slots.iter().map(|s| s.try_take().unwrap()).collect();
        // Inserts first ({1,3,5,9}), then pops in arrival order from the
        // ascending pull [1, 3].
        assert_eq!(got[0], Response::Done);
        assert_eq!(got[1], Response::Done);
        assert_eq!(got[2], Response::Key(Some(1)));
        assert_eq!(got[3], Response::Key(Some(3)), "peek sees the next pull");
        assert_eq!(got[4], Response::Done);
        assert_eq!(got[5], Response::Key(Some(3)));
        assert_eq!(got[6], Response::Len(2));
        assert_eq!(drain(&shard, q), vec![5, 9]);
    }

    #[test]
    fn stale_handle_is_rejected() {
        let shard = Shard::new(0);
        let q = shard.create_queue();
        {
            let mut st = shard.lock_state();
            st.take_queue(q).unwrap();
        }
        let slot = shard.submit(Request::Insert { queue: q, key: 1 });
        shard.try_combine();
        assert_eq!(
            slot.try_take(),
            Some(Response::Err(ServiceError::UnknownQueue(q)))
        );
        // The freed slot is reused under a new generation; the old handle
        // stays dead.
        let q2 = shard.create_queue();
        assert_eq!(q2.slot(), q.slot());
        assert_ne!(q2.generation(), q.generation());
    }

    #[test]
    fn combiner_panic_is_contained_and_shard_keeps_serving() {
        let shard = Shard::new(0);
        let good = shard.create_queue();
        let bad = shard.create_queue();
        arm_fail_point(bad);
        // One batch with ops for both queues: the bad group panics, the
        // good group must still execute and the shard must stay usable.
        let s_good = shard.ingress.push(Request::Insert {
            queue: good,
            key: 4,
        });
        let s_bad = shard.ingress.push(Request::Insert { queue: bad, key: 9 });
        assert!(shard.try_combine());
        assert_eq!(s_good.try_take(), Some(Response::Done));
        assert_eq!(
            s_bad.try_take(),
            Some(Response::Err(ServiceError::Internal(bad)))
        );
        // The shard still serves: the panic neither poisoned the lock nor
        // wedged the combiner.
        let s2 = shard.submit(Request::ExtractMin { queue: good });
        shard.try_combine();
        assert_eq!(s2.try_take(), Some(Response::Key(Some(4))));
        let st = shard.peek_state();
        assert_eq!(st.stats.combiner_panics, 1);
        assert_eq!(st.stats.poison_recoveries, 0, "lock never poisoned");
    }

    #[test]
    fn fast_path_panic_is_contained_and_shard_keeps_serving() {
        let shard = Shard::new(0);
        let good = shard.create_queue();
        let bad = shard.create_queue();
        arm_fail_point(bad);
        // The uncontended synchronous path runs under the same barrier as a
        // drained batch: the panic becomes this call's `Internal` answer.
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
        let st = shard.peek_state();
        assert_eq!(st.stats.combiner_panics, 1);
        assert_eq!(st.stats.poison_recoveries, 0, "lock never poisoned");
    }

    #[test]
    fn poisoned_lock_is_healed_not_cascaded() {
        let shard = Shard::new(0);
        let q = shard.create_queue();
        {
            let slot = shard.submit(Request::Insert { queue: q, key: 1 });
            shard.try_combine();
            assert_eq!(slot.try_take(), Some(Response::Done));
        }
        // Poison the state mutex by panicking while holding it, without
        // touching the state (so revalidation finds it intact).
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _st = shard.peek_state();
            panic!("injected panic under the state lock");
        }));
        assert!(res.is_err());
        // Every lock path must recover instead of propagating the poison.
        let slot = shard.submit(Request::ExtractMin { queue: q });
        shard.try_combine();
        assert_eq!(slot.try_take(), Some(Response::Key(Some(1))));
        let st = shard.peek_state();
        assert!(st.stats.poison_recoveries >= 1);
        assert_eq!(st.stats.poison_resets, 0, "state was intact");
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
        let slot = shard.submit(Request::Insert { queue: q0, key: 5 });
        shard.try_combine();
        assert_eq!(slot.try_take(), Some(Response::Done));
    }

    #[test]
    fn over_demand_pops_return_empty() {
        let shard = Shard::new(3);
        let q = shard.create_queue();
        let s1 = shard.ingress.push(Request::Insert { queue: q, key: 7 });
        let s2 = shard.ingress.push(Request::ExtractMin { queue: q });
        let s3 = shard.ingress.push(Request::ExtractMin { queue: q });
        let s4 = shard.ingress.push(Request::ExtractK { queue: q, k: 5 });
        shard.try_combine();
        assert_eq!(s1.try_take(), Some(Response::Done));
        assert_eq!(s2.try_take(), Some(Response::Key(Some(7))));
        assert_eq!(s3.try_take(), Some(Response::Key(None)));
        assert_eq!(s4.try_take(), Some(Response::Keys(vec![])));
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

    #[test]
    fn genesis_replay_rebuilds_the_live_pool_node_for_node() {
        // The live shard and WAL replay run one kernel per record (`Insert`
        // → insert, `FromKeys` → multi_insert), so the recovered pool is the
        // live one node for node: ids, keys, parents, child order, free
        // slots reused, slab length and every heap's roots and cached min.
        let dir =
            std::env::temp_dir().join(format!("meldpq-shard-replay-shape-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shard = Shard::new_durable(0, dir.clone()).unwrap();
        let (a, b) = (shard.create_queue(), shard.create_queue());
        let submit = |req| shard.submit(req).try_take().unwrap();
        for round in 0..6i64 {
            for q in [a, b] {
                let keys = (0..40 + round * 13)
                    .map(|i| (i * 7919 + round) % 17)
                    .collect();
                assert_eq!(
                    submit(Request::MultiInsert { queue: q, keys }),
                    Response::Done
                );
            }
            // Pops free slots for the next round's inserts to reuse.
            assert!(matches!(
                submit(Request::ExtractK { queue: a, k: 25 }),
                Response::Keys(_)
            ));
            assert!(matches!(
                submit(Request::ExtractMin { queue: b }),
                Response::Key(Some(_))
            ));
            assert_eq!(
                submit(Request::Insert {
                    queue: b,
                    key: round
                }),
                Response::Done
            );
        }
        type Heaps = Vec<
            Option<(
                u32,
                Vec<Option<meldpq::NodeId>>,
                usize,
                Option<meldpq::NodeId>,
            )>,
        >;
        let (live, live_heaps): (PoolShape, Heaps) = {
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
        };
        drop(shard);
        assert!(live.0.len() < live.1, "the pops left free slots");
        assert!(
            !dir.join(wal::CHECKPOINT_FILE).exists(),
            "recovery replays from genesis"
        );
        let rec = wal::recover_dir(&dir, Engine::Sequential).unwrap();
        assert!(rec.replayed > 0);
        assert_eq!(pool_shape(&rec.pool), live);
        let rec_heaps: Heaps = rec
            .heaps
            .iter()
            .map(|s| {
                s.as_ref()
                    .map(|(gen, h)| (*gen, h.roots().to_vec(), h.len(), rec.pool.min_root(h)))
            })
            .collect();
        assert_eq!(rec_heaps, live_heaps);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_after_damage_restarts_the_checkpoint_cadence() {
        let dir =
            std::env::temp_dir().join(format!("meldpq-shard-reset-cadence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shard = Shard::new_durable(0, dir.clone()).unwrap();
        let insert = |q: QueueId, key: i64| {
            let slot = shard.submit(Request::Insert { queue: q, key });
            assert_eq!(slot.try_take(), Some(Response::Done));
        };
        let q = shard.create_queue();
        let keys: Vec<i64> = (0..4096).collect();
        let slot = shard.submit(Request::MultiInsert { queue: q, keys });
        assert_eq!(slot.try_take(), Some(Response::Done));
        // An image far larger than the op floor's worth of log: carried into
        // the fresh log, its byte baseline would stall checkpoints.
        shard.lock_state().force_checkpoint();
        let image = std::fs::metadata(dir.join(wal::CHECKPOINT_FILE))
            .unwrap()
            .len();
        assert!(image > 2 * 48 * CheckpointCadence::MIN_OPS, "image {image}");
        shard.lock_state().reset_after_damage();
        assert_eq!(shard.lock_state().stats.wal_checkpoints, 1);
        let q = shard.create_queue(); // op 1 of the fresh log
        for key in 2..CheckpointCadence::MIN_OPS as i64 {
            insert(q, key);
        }
        assert_eq!(shard.lock_state().stats.wal_checkpoints, 1);
        insert(q, 0); // the op floor: the fresh log has no image yet
        assert_eq!(shard.lock_state().stats.wal_checkpoints, 2);
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
