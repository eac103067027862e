//! The always-on flight recorder: per-thread, lock-free, fixed-capacity
//! rings of compact structured events, cheap enough to leave enabled in
//! release builds.
//!
//! Post-hoc meters ([`crate::LatencyHistogram`], `service::ShardStats`)
//! answer "how much did it cost"; they cannot answer "what *sequence* of
//! events preceded this failure" in a concurrent system. This module
//! records that sequence:
//!
//! * **[`TraceId`]** — a process-unique causal id minted at an operation's
//!   ingress and threaded (via an ambient per-thread scope) through every
//!   layer it touches, so one logical op's journey — service call → shard
//!   lock wait → bulk kernel → WAL append — reconstructs from the event
//!   stream by filtering on one id.
//! * **[`FlightEvent`]** — a fixed-size record: relative timestamp, trace
//!   id, [`EventKind`], one argument word, recording thread.
//! * **Per-thread rings** — each thread writes to its own fixed-capacity
//!   ring through a seqlock (a version word per slot plus relaxed stores),
//!   so the hot path takes no lock and never allocates after the ring
//!   exists; the ring overwrites its oldest events when full. Readers
//!   ([`snapshot`], [`tail`]) skip slots whose version changed mid-read
//!   instead of blocking writers.
//! * **Rings live as long as the process.** A thread's ring is made at its
//!   first recorded event and registered for [`snapshot`], and the
//!   registry never frees it, so each thread that ever recorded pins
//!   [`RING_CAPACITY`] slots (160 KiB) after it exits. On a 2-vCPU host,
//!   200 short-lived threads writing 2,048 events each left +17 MiB RSS,
//!   and one [`snapshot`] over their 409,600 events took 10–19 ms. Reuse
//!   worker threads rather than spawning one per task.
//!
//! None of this is feature-gated: the recorder is compiled in always and
//! guarded by a single relaxed [`set_enabled`] switch, with a wall-clock
//! gate in the bench suite holding the recorder's overhead on a mixed
//! service workload to ≤ 1.1× of recorder-off.
//!
//! ```
//! use obs::flight::{self, EventKind, TraceId};
//!
//! let t = TraceId::next();
//! let _scope = flight::trace_scope(t);
//! flight::record(flight::current(), EventKind::OpBegin, 1);
//! flight::record(flight::current(), EventKind::OpEnd, 1);
//! let events = flight::snapshot();
//! assert!(events.iter().any(|e| e.trace == t && e.kind == EventKind::OpEnd));
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::J;

/// Events each thread's ring retains (oldest overwritten beyond this).
pub const RING_CAPACITY: usize = 4096;

/// Trace ids a thread takes from the shared counter at a time
/// (see [`TraceId::next`]).
const TRACE_ID_BLOCK: u64 = 1 << 16;

/// A process-unique causal trace id. `0` is reserved for "untraced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// The untraced sentinel: events that belong to no logical operation.
    pub const NONE: TraceId = TraceId(0);

    /// Mint a fresh process-unique id (never [`TraceId::NONE`]).
    ///
    /// Each thread hands out ids from its own block of 2^16 consecutive ids
    /// and takes a new block with one shared `fetch_add` when it runs out,
    /// so minting writes no cache line another thread writes. Ids are
    /// unique but neither dense nor ordered across threads.
    pub fn next() -> TraceId {
        // Blocks start at 1, so no block holds the sentinel 0.
        static NEXT_BLOCK: AtomicU64 = AtomicU64::new(1);
        thread_local! {
            /// The next id this thread hands out and the end of its block.
            static BLOCK: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
        }
        BLOCK.with(|b| {
            let (mut next, mut end) = b.get();
            if next == end {
                next = NEXT_BLOCK.fetch_add(TRACE_ID_BLOCK, Ordering::Relaxed);
                end = next + TRACE_ID_BLOCK;
            }
            b.set((next + 1, end));
            TraceId(next)
        })
    }

    /// The raw id word.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this id names a real trace (not the untraced sentinel).
    pub fn is_traced(self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What happened. The argument word's meaning is per-kind (key count,
/// shard index, record bytes, …) and documented at each recording site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A logical operation entered the system (arg = operation code).
    OpBegin = 1,
    /// The operation's result was published (arg = operation code).
    OpEnd = 2,
    // Codes 3, 4 and 9–12 are retired: a recorded word must never change
    // meaning, so they stay unassigned.
    /// An operation found its shard's lock held and began to wait for it
    /// (arg = shard index).
    TicketPark = 5,
    /// An operation that waited for its shard's lock got it
    /// (arg = shard index).
    TicketUnpark = 6,
    /// A multi-key insert was admitted to one `multi_insert`
    /// (arg = key count).
    BulkAdmission = 7,
    /// A multi-key pop demand was served by one multi-extract
    /// (arg = keys pulled).
    MultiExtract = 8,
    /// A logical op was appended to a write-ahead log (arg = record bytes).
    WalAppend = 13,
    /// A durability checkpoint was written (arg = checkpoint sequence).
    Checkpoint = 14,
    /// A pool or shard recovered from its log (arg = ops replayed).
    Recover = 15,
}

impl EventKind {
    /// Stable lower-case name (used by the JSON export and renderers).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::OpBegin => "op_begin",
            EventKind::OpEnd => "op_end",
            EventKind::TicketPark => "ticket_park",
            EventKind::TicketUnpark => "ticket_unpark",
            EventKind::BulkAdmission => "bulk_admission",
            EventKind::MultiExtract => "multi_extract",
            EventKind::WalAppend => "wal_append",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Recover => "recover",
        }
    }

    fn from_word(w: u64) -> Option<EventKind> {
        Some(match w {
            1 => EventKind::OpBegin,
            2 => EventKind::OpEnd,
            5 => EventKind::TicketPark,
            6 => EventKind::TicketUnpark,
            7 => EventKind::BulkAdmission,
            8 => EventKind::MultiExtract,
            13 => EventKind::WalAppend,
            14 => EventKind::Checkpoint,
            15 => EventKind::Recover,
            _ => return None,
        })
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Nanoseconds since the process's first recorded event (monotonic).
    pub ts_nanos: u64,
    /// The causal trace this event belongs to ([`TraceId::NONE`] = none).
    pub trace: TraceId,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific argument word.
    pub arg: u64,
    /// Index of the recording thread's ring (stable for a thread's life).
    pub thread: usize,
}

const WORDS: usize = 4;

/// One ring slot: a seqlock version word plus the event's four words
/// (timestamp, trace, kind, arg). The version is odd while the owning
/// thread rewrites the slot; readers that observe an odd or changed version
/// drop the slot instead of blocking.
struct Slot {
    seq: AtomicU64,
    w: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            w: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// A single-writer ring. Only the owning thread writes; any thread may read.
struct Ring {
    slots: Box<[Slot]>,
    /// Total events ever written by the owner (monotonic).
    head: AtomicU64,
    /// Owning thread's name at registration, for rendering.
    thread_name: String,
}

impl Ring {
    fn new(thread_name: String) -> Ring {
        Ring {
            slots: (0..RING_CAPACITY).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            thread_name,
        }
    }

    /// Single-writer push (owner thread only).
    fn push(&self, ts: u64, trace: u64, kind: u64, arg: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        // Odd version = write in progress; readers bail out.
        slot.seq.store(2 * h + 1, Ordering::Release);
        slot.w[0].store(ts, Ordering::Relaxed);
        slot.w[1].store(trace, Ordering::Relaxed);
        slot.w[2].store(kind, Ordering::Relaxed);
        slot.w[3].store(arg, Ordering::Relaxed);
        slot.seq.store(2 * h + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Read every intact retained event, oldest first.
    fn read(&self, thread: usize, out: &mut Vec<FlightEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        for h in start..head {
            let slot = &self.slots[(h % cap) as usize];
            let v1 = slot.seq.load(Ordering::Acquire);
            if v1 != 2 * h + 2 {
                continue; // overwritten or mid-write
            }
            let ts = slot.w[0].load(Ordering::Relaxed);
            let trace = slot.w[1].load(Ordering::Relaxed);
            let kind = slot.w[2].load(Ordering::Relaxed);
            let arg = slot.w[3].load(Ordering::Relaxed);
            let v2 = slot.seq.load(Ordering::Acquire);
            if v1 != v2 {
                continue; // torn: the owner lapped us mid-read
            }
            let Some(kind) = EventKind::from_word(kind) else {
                continue;
            };
            out.push(FlightEvent {
                ts_nanos: ts,
                trace: TraceId(trace),
                kind,
                arg,
                thread,
            });
        }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

static ENABLED: AtomicBool = AtomicBool::new(true);

thread_local! {
    static RING: std::cell::RefCell<Option<Arc<Ring>>> =
        const { std::cell::RefCell::new(None) };
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Turn recording on or off process-wide (on by default). The hot path
/// reduces to one relaxed load when off — this is what the bench overhead
/// gate toggles to measure the recorder's cost.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is currently on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the recorder's epoch (the first call in the process).
/// Always reads the clock, even when recording is disabled — callers use it
/// for latency arithmetic too, and sharing one read between a latency sample
/// and a [`record_at`] halves the hot path's clock traffic.
pub fn now_nanos() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Record one event into the calling thread's ring. Lock-free after the
/// thread's first event (which registers its ring); a no-op when disabled.
pub fn record(trace: TraceId, kind: EventKind, arg: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    record_at(now_nanos(), trace, kind, arg);
}

/// [`record`] with a caller-supplied timestamp from [`now_nanos`] — the
/// zero-extra-clock-read variant for paths that already timed themselves.
pub fn record_at(ts: u64, trace: TraceId, kind: EventKind, arg: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    RING.with(|cell| {
        let mut cell = cell.borrow_mut();
        let ring = cell.get_or_insert_with(|| {
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("{:?}", std::thread::current().id()));
            let ring = Arc::new(Ring::new(name));
            registry()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&ring));
            ring
        });
        ring.push(ts, trace.0, kind as u64, arg);
    });
}

/// Record under the ambient trace (see [`trace_scope`]).
pub fn record_here(kind: EventKind, arg: u64) {
    record(current(), kind, arg);
}

/// The calling thread's ambient trace id ([`TraceId::NONE`] outside any
/// [`trace_scope`]).
pub fn current() -> TraceId {
    TraceId(CURRENT.with(|c| c.get()))
}

/// Guard restoring the previous ambient trace on drop (scopes nest).
#[must_use = "the ambient trace reverts when the scope drops"]
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Make `t` the calling thread's ambient trace until the guard drops.
/// Layers below the operation's ingress call [`current`] (or
/// [`record_here`]) to tag their events without any API threading.
pub fn trace_scope(t: TraceId) -> TraceScope {
    let prev = CURRENT.with(|c| c.replace(t.0));
    TraceScope { prev }
}

/// The ambient trace if one is set, else a freshly minted id — either way
/// scoped until the guard drops. This is how an ingress stays
/// reconstructible both when driven through a traced front end and when
/// driven directly.
pub fn ambient_or_new() -> (TraceId, TraceScope) {
    let cur = current();
    let t = if cur.is_traced() {
        cur
    } else {
        TraceId::next()
    };
    (t, trace_scope(t))
}

/// Snapshot every thread's retained events, oldest first (merged on the
/// recorded timestamp). Non-destructive: rings keep recording.
pub fn snapshot() -> Vec<FlightEvent> {
    let rings: Vec<Arc<Ring>> = registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect();
    let mut out = Vec::new();
    for (i, ring) in rings.iter().enumerate() {
        ring.read(i, &mut out);
    }
    out.sort_by_key(|e| e.ts_nanos);
    out
}

/// The last `n` events across all threads (the "attach to the assertion
/// failure" view).
pub fn tail(n: usize) -> Vec<FlightEvent> {
    let mut all = snapshot();
    let start = all.len().saturating_sub(n);
    all.drain(..start);
    all
}

/// Registered ring owners' thread names, indexed by [`FlightEvent::thread`].
pub fn thread_names() -> Vec<String> {
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|r| r.thread_name.clone())
        .collect()
}

/// The events of one trace, in time order.
pub fn trace_timeline(events: &[FlightEvent], t: TraceId) -> Vec<FlightEvent> {
    events.iter().copied().filter(|e| e.trace == t).collect()
}

/// JSON document for a drained event set: `{"report":"flight", "threads":
/// [...], "events":[{ts_ns, trace, kind, arg, thread}, ...]}`.
pub fn to_json(events: &[FlightEvent]) -> J {
    J::obj([
        ("report", J::Str("flight".into())),
        (
            "threads",
            J::Arr(thread_names().into_iter().map(J::Str).collect()),
        ),
        (
            "events",
            J::Arr(
                events
                    .iter()
                    .map(|e| {
                        J::obj([
                            ("ts_ns", J::UInt(e.ts_nanos)),
                            ("trace", J::UInt(e.trace.raw())),
                            ("kind", J::Str(e.kind.name().into())),
                            ("arg", J::UInt(e.arg)),
                            ("thread", J::UInt(e.thread as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Render events as an indented text timeline (for panic messages).
pub fn render(events: &[FlightEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "  {:>12} ns  {:<8} {:<18} arg={} thread={}\n",
            e.ts_nanos,
            e.trace.to_string(),
            e.kind.name(),
            e.arg,
            e.thread
        ));
    }
    out
}

/// Write the current snapshot as JSON to `path` (used by the harnesses'
/// drain-on-failure hooks). Errors are reported, not propagated — a failed
/// dump must never mask the original failure.
pub fn dump(path: &std::path::Path) {
    let events = snapshot();
    let doc = to_json(&events);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, format!("{doc}\n")) {
        Ok(()) => eprintln!(
            "flight recorder: {} events drained to {}",
            events.len(),
            path.display()
        ),
        Err(e) => eprintln!("flight recorder: dump to {} failed: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The rings and the registry are process-global, so everything that
    // drains or toggles them lives in one test.
    #[test]
    fn record_snapshot_trace_scopes_and_disable() {
        // Ambient scoping nests and restores.
        assert_eq!(current(), TraceId::NONE);
        let outer = TraceId::next();
        let scope = trace_scope(outer);
        assert_eq!(current(), outer);
        {
            let (inner, _s) = ambient_or_new();
            assert_eq!(inner, outer, "ambient trace is reused, not replaced");
        }
        record_here(EventKind::OpBegin, 7);
        record_here(EventKind::BulkAdmission, 1);
        record_here(EventKind::MultiExtract, 2);
        record_here(EventKind::OpEnd, 7);
        drop(scope);
        assert_eq!(current(), TraceId::NONE);
        let (fresh, scope2) = ambient_or_new();
        assert_ne!(fresh, outer, "no ambient trace mints a fresh id");
        drop(scope2);

        // The journey reconstructs from one trace id, in order.
        let events = snapshot();
        let line = trace_timeline(&events, outer);
        assert_eq!(line.len(), 4);
        assert_eq!(line[0].kind, EventKind::OpBegin);
        assert_eq!(line[1].kind, EventKind::BulkAdmission);
        assert_eq!(line[2].kind, EventKind::MultiExtract);
        assert_eq!(line[3].kind, EventKind::OpEnd);
        assert!(line.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));

        // Cross-thread: events land in the spawning thread's own ring and
        // still merge into one snapshot.
        let t2 = TraceId::next();
        std::thread::spawn(move || {
            record(t2, EventKind::BulkAdmission, 3);
        })
        .join()
        .expect("recorder thread");
        let events = snapshot();
        let remote = trace_timeline(&events, t2);
        assert_eq!(remote.len(), 1);
        assert_ne!(
            remote[0].thread, line[0].thread,
            "rings are per-thread, merged at snapshot"
        );
        assert!(thread_names().len() >= 2);

        // JSON and text renderings cover every event.
        let json = to_json(&events).to_string();
        assert!(json.contains("\"kind\":\"multi_extract\""));
        assert!(json.contains(&format!("\"trace\":{}", outer.raw())));
        assert!(render(&tail(2)).lines().count() == 2);

        // Disabled = nothing recorded, and the switch restores.
        let before = snapshot().len();
        set_enabled(false);
        record(TraceId::next(), EventKind::OpBegin, 0);
        assert!(!is_enabled());
        set_enabled(true);
        assert_eq!(snapshot().len(), before, "disabled recorder stays silent");
    }

    #[test]
    fn trace_ids_are_unique_across_threads() {
        let minted: Vec<Vec<TraceId>> = (0..4)
            .map(|_| std::thread::spawn(|| (0..200_000).map(|_| TraceId::next()).collect()))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("minting thread"))
            .collect();
        let all: std::collections::HashSet<TraceId> = minted.iter().flatten().copied().collect();
        assert_eq!(all.len(), 4 * 200_000, "every id is distinct");
        assert!(!all.contains(&TraceId::NONE));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let ring = Ring::new("test".into());
        let n = (RING_CAPACITY + 100) as u64;
        for i in 0..n {
            ring.push(i, 1, EventKind::OpBegin as u64, i);
        }
        let mut out = Vec::new();
        ring.read(0, &mut out);
        assert_eq!(out.len(), RING_CAPACITY);
        assert_eq!(out[0].arg, 100, "oldest 100 overwritten");
        assert_eq!(out.last().map(|e| e.arg), Some(n - 1));
    }

    #[test]
    fn retired_kind_codes_are_skipped() {
        let ring = Ring::new("test".into());
        for code in [3u64, 4, 9, 10, 11, 12] {
            assert_eq!(EventKind::from_word(code), None, "code {code} is retired");
            ring.push(code, 1, code, code);
        }
        ring.push(99, 1, EventKind::OpEnd as u64, 99);
        let mut out = Vec::new();
        ring.read(0, &mut out);
        assert_eq!(out.len(), 1, "only the live kind decodes");
        assert_eq!((out[0].kind, out[0].arg), (EventKind::OpEnd, 99));
    }

    #[test]
    fn torn_and_stale_slots_are_skipped() {
        let ring = Ring::new("test".into());
        ring.push(1, 1, EventKind::OpBegin as u64, 1);
        // Fake a write-in-progress on the slot: readers must drop it.
        ring.slots[0].seq.store(3, Ordering::Release);
        let mut out = Vec::new();
        ring.read(0, &mut out);
        assert!(out.is_empty(), "odd seqlock version must be skipped");
    }
}
