//! Per-layer measurement for traced runs, all from the benchmark's side of
//! the public APIs: the flight-recorder tail for the `service` layer, and a
//! replay of the run's calls against bare `HeapPool`s (`pool`) and
//! `WalWriter`s (`wal`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use meldpq::pool::PooledHeap;
use meldpq::wal::{self, WalOp, WalWriter, WAL_FILE};
use meldpq::{Engine, HeapPool};
use obs::flight::{self, EventKind, TraceId};

use crate::check::Samples;
use crate::drive::{Call, Rec};
use crate::gen::Inputs;

/// What the flight recorder's rings show about the service layer, sampled
/// from their tails while the traced phase runs.
#[derive(Debug, Default)]
pub struct FlightSampler {
    since: u64,
    /// Newest event already read, per ring.
    seen: Vec<u64>,
    /// Parked traces waiting for their unpark.
    parked: HashMap<TraceId, u64>,
    /// Begun traces waiting for their end: the ring that recorded the begin.
    begun: HashMap<TraceId, usize>,
    /// `op_begin` events read.
    pub requests: u64,
    /// Requests whose `op_begin` and `op_end` were both read.
    pub ended: u64,
    /// Of those, requests whose `op_end` another thread recorded: a
    /// combiner served them for their caller.
    pub combined: u64,
    /// `ticket_park` to `ticket_unpark`, ns.
    pub parks: Samples,
    /// Times the rings were read.
    pub samples: u64,
}

impl FlightSampler {
    /// Ignore every event recorded before now.
    pub fn start(&mut self) {
        self.since = flight::now_nanos();
    }

    /// Read the rings and fold in every event not read before.
    pub fn sample(&mut self) {
        self.samples += 1;
        let events = flight::snapshot();
        let mut newest = self.seen.clone();
        for e in events {
            if self.seen.len() <= e.thread {
                self.seen.resize(e.thread + 1, 0);
                newest.resize(e.thread + 1, 0);
            }
            if e.ts_nanos < self.since || e.ts_nanos <= self.seen[e.thread] {
                continue;
            }
            newest[e.thread] = newest[e.thread].max(e.ts_nanos);
            match e.kind {
                EventKind::OpBegin => {
                    self.requests += 1;
                    self.begun.insert(e.trace, e.thread);
                }
                EventKind::OpEnd => {
                    if let Some(t) = self.begun.remove(&e.trace) {
                        self.ended += 1;
                        self.combined += u64::from(t != e.thread);
                    }
                }
                EventKind::TicketPark => {
                    self.parked.insert(e.trace, e.ts_nanos);
                }
                EventKind::TicketUnpark => {
                    if let Some(t) = self.parked.remove(&e.trace) {
                        self.parks.push(e.ts_nanos.saturating_sub(t) as f64);
                    }
                }
                _ => {}
            }
        }
        self.seen = newest;
    }
}

/// Timings of the replayed pool and WAL calls.
#[derive(Debug, Default)]
pub struct ReplayTimes {
    /// `HeapPool::insert`, ns.
    pub insert: Samples,
    /// `HeapPool::extract_min`, ns.
    pub extract_min: Samples,
    /// `HeapPool::multi_extract_min`, ns per key returned.
    pub multi_extract_per_key: Samples,
    /// `HeapPool::from_keys_parallel`, ns per key.
    pub bulk_build_per_key: Samples,
    /// `HeapPool::meld` (same pool), ns.
    pub meld: Samples,
    /// `HeapPool::meld_cross_pool`, ns per key moved.
    pub meld_cross_per_key: Samples,
    /// Every timed pool call, ns.
    pub pool_ns: f64,
    /// `WalWriter::append`, ns (a cross-shard meld's record includes
    /// collecting the moved keys, as the service does).
    pub append: Samples,
    /// `WalWriter::flush`, ns.
    pub flush: Samples,
    /// `WalWriter::sync` plus `wal::write_checkpoint`, ns.
    pub checkpoint: Samples,
    /// Every timed WAL call, ns.
    pub wal_ns: f64,
    /// Bytes the replayed logs hold.
    pub wal_bytes: u64,
    /// Bytes the replayed logs held when the timed calls began.
    pub wal_bytes_setup: u64,
    /// `wal::recover_dir` over every shard directory, s.
    pub recover_s: f64,
    /// Replay I/O failures and recoveries that disagree with the replay.
    pub wal_errors: u64,
}

/// Logged ops between checkpoints, as on a durable service shard.
const CHECKPOINT_EVERY: u64 = 1024;

struct ShardLog {
    dir: PathBuf,
    writer: WalWriter,
    since: u64,
    next_slot: u32,
}

struct Heap {
    shard: usize,
    slot: u32,
    heap: PooledHeap,
}

/// Replays a run's calls against one bare `HeapPool` per service shard and,
/// for durable workloads, one `WalWriter` per shard.
pub struct Replay<'a> {
    inputs: &'a Inputs,
    pools: Vec<HeapPool<i64>>,
    heaps: HashMap<u32, Heap>,
    logs: Option<Vec<ShardLog>>,
    bulk_threshold: usize,
    timing: bool,
    /// What was measured.
    pub times: ReplayTimes,
}

/// Count `ns` of pool work when timing; returns whether timing is on.
fn pool_sample(times: &mut ReplayTimes, timing: bool, ns: f64) -> bool {
    if timing {
        times.pool_ns += ns;
    }
    timing
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_nanos() as f64)
}

impl<'a> Replay<'a> {
    /// A replay over `shards` pools; `wal_root` turns on the WAL replay,
    /// one directory per shard under it.
    pub fn new(inputs: &'a Inputs, shards: usize, wal_root: Option<&Path>) -> Result<Self, String> {
        let logs = match wal_root {
            None => None,
            Some(root) => Some(
                (0..shards)
                    .map(|i| {
                        let dir = root.join(format!("shard{i}"));
                        std::fs::create_dir_all(&dir)?;
                        let writer = WalWriter::create(&dir.join(WAL_FILE))?;
                        Ok(ShardLog {
                            dir,
                            writer,
                            since: 0,
                            next_slot: 0,
                        })
                    })
                    .collect::<std::io::Result<Vec<_>>>()
                    .map_err(|e| format!("creating the replay logs failed: {e}"))?,
            ),
        };
        Ok(Replay {
            inputs,
            pools: (0..shards).map(|_| HeapPool::new()).collect(),
            heaps: HashMap::new(),
            logs,
            bulk_threshold: meldpq::cutoff::batch_bulk_cutoff().max(2),
            timing: false,
            times: ReplayTimes::default(),
        })
    }

    /// Replay set-up calls untimed, then the timed calls in start order.
    pub fn run(&mut self, setup: &[Rec], timed: &mut [Rec]) {
        self.timing = false;
        for r in setup {
            self.call(r.call);
        }
        self.timing = true;
        self.times.wal_bytes_setup = self.wal_bytes();
        timed.sort_by_key(|r| r.t);
        for r in timed.iter() {
            self.call(r.call);
        }
    }

    /// Append `ops` to `shard`'s log and flush, as the service does before
    /// applying them.
    fn log(&mut self, shard: usize, ops: &[WalOp]) {
        let timing = self.timing;
        let Some(logs) = self.logs.as_mut() else {
            return;
        };
        let l = &mut logs[shard];
        for op in ops {
            let (r, ns) = time(|| l.writer.append(op));
            if r.is_err() {
                self.times.wal_errors += 1;
            }
            l.since += 1;
            if timing {
                self.times.append.push(ns);
                self.times.wal_ns += ns;
            }
        }
        let (r, ns) = time(|| l.writer.flush());
        if r.is_err() {
            self.times.wal_errors += 1;
        }
        if timing {
            self.times.flush.push(ns);
            self.times.wal_ns += ns;
        }
    }

    /// Checkpoint `shard` if enough ops were logged since its last one.
    fn maybe_checkpoint(&mut self, shard: usize) {
        let timing = self.timing;
        let Some(logs) = self.logs.as_mut() else {
            return;
        };
        let l = &mut logs[shard];
        if l.since < CHECKPOINT_EVERY {
            return;
        }
        l.since = 0;
        let pool = &self.pools[shard];
        let heaps = self
            .heaps
            .values()
            .filter(|h| h.shard == shard)
            .map(|h| (h.slot, 0u32, &h.heap));
        let (r, ns) = time(|| {
            l.writer.sync()?;
            let seq = l.writer.next_seq().saturating_sub(1);
            wal::write_checkpoint(&l.dir, seq, pool, heaps, &[])
        });
        if r.is_err() {
            self.times.wal_errors += 1;
        }
        if timing {
            self.times.checkpoint.push(ns);
            self.times.wal_ns += ns;
        }
    }

    fn slot(&self, id: u32) -> (usize, u32) {
        let h = &self.heaps[&id];
        (h.shard, h.slot)
    }

    fn call(&mut self, call: Call) {
        let inputs = self.inputs;
        match call {
            Call::Create { id, shard } => {
                let shard = shard as usize;
                let slot = match self.logs.as_mut() {
                    Some(logs) => {
                        logs[shard].next_slot += 1;
                        logs[shard].next_slot - 1
                    }
                    None => 0,
                };
                self.log(shard, &[WalOp::CreateHeap { slot, gen: 0 }]);
                let heap = self.pools[shard].new_heap();
                self.heaps.insert(id, Heap { shard, slot, heap });
                self.maybe_checkpoint(shard);
            }
            Call::Prefill { id } => self.insert_keys(id, &inputs.prefill[id as usize]),
            Call::Multi { id, at, n } => {
                self.insert_keys(id, &inputs.keys[at as usize..(at + n) as usize])
            }
            Call::Insert { id, at } => {
                let key = inputs.keys[at as usize];
                let (shard, slot) = self.slot(id);
                self.log(shard, &[WalOp::Insert { slot, key }]);
                let h = self.heaps.get_mut(&id).expect("replayed queue exists");
                let (_, ns) = time(|| self.pools[shard].insert(&mut h.heap, key));
                if pool_sample(&mut self.times, self.timing, ns) {
                    self.times.insert.push(ns);
                }
                self.maybe_checkpoint(shard);
            }
            Call::ExtractMin { id } => {
                let (shard, slot) = self.slot(id);
                self.log(shard, &[WalOp::ExtractMin { slot }]);
                let h = self.heaps.get_mut(&id).expect("replayed queue exists");
                let (_, ns) = time(|| self.pools[shard].extract_min(&mut h.heap));
                if pool_sample(&mut self.times, self.timing, ns) {
                    self.times.extract_min.push(ns);
                }
                self.maybe_checkpoint(shard);
            }
            Call::ExtractK { id, k } => {
                let (shard, slot) = self.slot(id);
                self.log(shard, &[WalOp::MultiExtractMin { slot, k: k as u64 }]);
                let h = self.heaps.get_mut(&id).expect("replayed queue exists");
                let (got, ns) =
                    time(|| self.pools[shard].multi_extract_min(&mut h.heap, k as usize));
                if pool_sample(&mut self.times, self.timing, ns) && !got.is_empty() {
                    self.times.multi_extract_per_key.push(ns / got.len() as f64);
                }
                self.maybe_checkpoint(shard);
            }
            Call::Peek { id } => {
                let h = &self.heaps[&id];
                let (_, ns) = time(|| std::hint::black_box(self.pools[h.shard].min(&h.heap)));
                pool_sample(&mut self.times, self.timing, ns);
            }
            Call::Len { id } => {
                std::hint::black_box(self.heaps[&id].heap.len());
            }
            Call::Meld { dst, src } => self.meld(dst, src),
        }
    }

    fn insert_keys(&mut self, id: u32, keys: &[i64]) {
        let (shard, slot) = self.slot(id);
        if self.logs.is_some() {
            let keys = keys.to_vec();
            self.log(shard, &[WalOp::FromKeys { slot, keys }]);
        }
        let pool = &mut self.pools[shard];
        let h = self.heaps.get_mut(&id).expect("replayed queue exists");
        if keys.len() >= self.bulk_threshold {
            let (built, ns) = time(|| pool.from_keys_parallel(keys));
            let (_, mns) = time(|| pool.meld(&mut h.heap, built));
            if pool_sample(&mut self.times, self.timing, ns + mns) {
                self.times.bulk_build_per_key.push(ns / keys.len() as f64);
                self.times.meld.push(mns);
            }
        } else {
            for &k in keys {
                let (_, ns) = time(|| pool.insert(&mut h.heap, k));
                if pool_sample(&mut self.times, self.timing, ns) {
                    self.times.insert.push(ns);
                }
            }
        }
        self.maybe_checkpoint(shard);
    }

    fn meld(&mut self, dst: u32, src: u32) {
        let s = self.heaps.remove(&src).expect("replayed queue exists");
        let (dshard, dslot) = self.slot(dst);
        if s.shard == dshard {
            self.log(
                dshard,
                &[WalOp::Meld {
                    dst: dslot,
                    src: s.slot,
                }],
            );
            let d = self.heaps.get_mut(&dst).expect("replayed queue exists");
            let (_, ns) = time(|| self.pools[dshard].meld(&mut d.heap, s.heap));
            if pool_sample(&mut self.times, self.timing, ns) {
                self.times.meld.push(ns);
            }
            self.maybe_checkpoint(dshard);
            return;
        }
        self.log(s.shard, &[WalOp::FreeHeap { slot: s.slot }]);
        if self.logs.is_some() {
            // The destination logs the moved keys; collecting them is part
            // of that record's cost.
            let pool = &self.pools[s.shard];
            let (keys, ns) = time(|| {
                let mut ids = Vec::with_capacity(s.heap.len());
                pool.collect_node_ids(&s.heap, &mut ids);
                ids.into_iter()
                    .map(|id| pool.arena().get(id).key)
                    .collect::<Vec<i64>>()
            });
            if self.timing {
                self.times.wal_ns += ns;
            }
            self.log(dshard, &[WalOp::FromKeys { slot: dslot, keys }]);
        }
        let moved = s.heap.len();
        let (lo, hi) = self.pools.split_at_mut(dshard.max(s.shard));
        let (dpool, spool) = if dshard < s.shard {
            (&mut lo[dshard], &mut hi[0])
        } else {
            (&mut hi[0], &mut lo[s.shard])
        };
        let d = self.heaps.get_mut(&dst).expect("replayed queue exists");
        let (_, ns) = time(|| dpool.meld_cross_pool(&mut d.heap, spool, s.heap));
        if pool_sample(&mut self.times, self.timing, ns) && moved > 0 {
            self.times.meld_cross_per_key.push(ns / moved as f64);
        }
        self.maybe_checkpoint(s.shard);
        self.maybe_checkpoint(dshard);
    }

    fn wal_bytes(&self) -> u64 {
        self.logs
            .iter()
            .flatten()
            .map(|l| l.writer.bytes_logged())
            .sum()
    }

    /// Finish the WAL replay: total the log bytes, then time recovering
    /// every shard directory and check it against the replayed pools.
    pub fn recover(&mut self) {
        let Some(logs) = self.logs.as_mut() else {
            return;
        };
        let mut secs = 0.0;
        for (i, l) in logs.iter_mut().enumerate() {
            if l.writer.flush().is_err() {
                self.times.wal_errors += 1;
            }
            self.times.wal_bytes += l.writer.bytes_logged();
            let (r, ns) = time(|| wal::recover_dir(&l.dir, Engine::Sequential));
            secs += ns / 1e9;
            let live: usize = self
                .heaps
                .values()
                .filter(|h| h.shard == i)
                .map(|h| h.heap.len())
                .sum();
            match r {
                Ok(state) if state.pool.live_nodes() == live => {}
                _ => self.times.wal_errors += 1,
            }
        }
        self.times.recover_s = secs;
    }
}
