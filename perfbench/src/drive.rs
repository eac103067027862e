//! The closed-loop service phase: set up a service, let each client thread
//! replay its stream through the synchronous `QueueService` API for a fixed
//! time, and time every call from the client's side.

use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use service::{QueueId, QueueService, ServiceBuilder, ServiceError};

use crate::check::{ascending, Fingerprint, Ledger, Samples};
use crate::gen::{Inputs, Kind, Op, Spec};
use crate::layers::FlightSampler;

/// One call the service served, as the pool and WAL replays need it.
/// Queue ids are the benchmark's own: long-lived queues are `0..queues`,
/// queues created at run time get ids from [`Client::fresh_id`].
#[derive(Debug, Clone, Copy)]
pub enum Call {
    /// A queue was created on `shard`.
    Create { id: u32, shard: u16 },
    /// Prefill of long-lived queue `id` with its prefill keys.
    Prefill { id: u32 },
    /// `insert` of `keys[at]`.
    Insert { id: u32, at: u32 },
    /// `multi_insert` of `keys[at..at + n]`.
    Multi { id: u32, at: u32, n: u32 },
    /// `extract_min`.
    ExtractMin { id: u32 },
    /// `extract_k(k)`.
    ExtractK { id: u32, k: u32 },
    /// `peek_min`.
    Peek { id: u32 },
    /// `len`.
    Len { id: u32 },
    /// `meld(dst, src)`.
    Meld { dst: u32, src: u32 },
}

/// A call with its start time (ns since the phase began), so the calls of
/// several clients merge into one order.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Start of the call, ns since the timed phase began.
    pub t: u64,
    /// The call.
    pub call: Call,
}

/// A long-lived queue: the service handle and its ledger of keys in and
/// out. Its index is its id in [`Call`]s.
#[derive(Debug, Clone, Copy)]
struct Queue {
    handle: QueueId,
    ledger: Ledger,
}

/// What one client measured.
#[derive(Debug, Default)]
pub struct ClientResult {
    /// Every call's latency.
    pub all: Samples,
    /// `insert` and `multi_insert` latencies.
    pub inserts: Samples,
    /// `extract_min` and `extract_k` latencies.
    pub pops: Samples,
    /// Generated ops completed, by kind.
    pub ops_by_kind: [u64; Kind::ALL.len()],
    /// Keys acknowledged as inserted.
    pub keys_in: u64,
    /// Keys returned by pops.
    pub keys_out: u64,
    /// Pops that returned no key.
    pub empty_pops: u64,
    /// Pop calls.
    pub pop_calls: u64,
    /// Calls the service refused.
    pub errors: u64,
    /// Calls whose output failed a check (`extract_k` not ascending).
    pub bad_outputs: u64,
    /// First few failure messages.
    pub messages: Vec<String>,
    /// Per long-lived queue ledgers.
    pub ledgers: Vec<Ledger>,
    /// When this client stopped (ns since the phase began).
    pub end_ns: u64,
    /// The phase cut into [`SLICES`] equal slices of time, by when each
    /// call ended (calls after the last slice count into it).
    pub slices: Vec<Slice>,
    /// Traced runs: every call in order.
    pub recs: Vec<Rec>,
    /// Client 0: peak resident memory once the phase made
    /// [`Spec::rss_after_calls`] calls.
    pub rss_mib: Option<f64>,
    /// Traced runs: the flight-recorder sample (client 0 only).
    pub flight: Option<FlightSampler>,
}

/// Slices a timed phase is cut into. Throughput is the median over slices,
/// so a stall in one slice moves it little.
pub const SLICES: usize = 20;

/// Calls and keys of one slice of a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Calls that ended in the slice.
    pub calls: u64,
    /// Keys inserted plus keys popped by those calls.
    pub keys: u64,
}

/// A service set up for a run: built, prefilled, with its long-lived
/// queue handles.
pub struct Setup {
    /// The service.
    pub svc: QueueService,
    /// Long-lived queue handles, by index.
    pub handles: Vec<QueueId>,
    /// The set-up calls, for the replays.
    pub recs: Vec<Rec>,
}

/// Build the service and prefill its long-lived queues. `dir` roots the
/// durable service when the workload is durable.
pub fn setup(spec: &Spec, inputs: &Inputs, dir: &Path) -> Result<Setup, String> {
    let builder = ServiceBuilder::new();
    let builder = if spec.durable {
        builder.durable(dir)
    } else {
        builder
    };
    let svc = builder
        .try_build()
        .map_err(|e| format!("building the service failed: {e}"))?;
    let mut handles = Vec::with_capacity(spec.queues);
    let mut recs = Vec::new();
    for q in 0..spec.queues {
        let h = svc.create_queue();
        recs.push(Rec {
            t: 0,
            call: Call::Create {
                id: q as u32,
                shard: h.shard(),
            },
        });
        handles.push(h);
    }
    for (q, keys) in inputs.prefill.iter().enumerate() {
        svc.multi_insert(handles[q], keys.clone())
            .map_err(|e| format!("prefill of queue {q} refused: {e}"))?;
        recs.push(Rec {
            t: 0,
            call: Call::Prefill { id: q as u32 },
        });
    }
    Ok(Setup { svc, handles, recs })
}

/// Run every client against `setup` for `seconds`; returns the clients'
/// results and the phase's wall time.
pub fn run_phase(
    spec: &Spec,
    inputs: &Inputs,
    setup: &Setup,
    seconds: f64,
    traced: bool,
) -> (Vec<ClientResult>, Duration) {
    let barrier = Barrier::new(spec.clients);
    let start = std::sync::OnceLock::<Instant>::new();
    let results = std::thread::scope(|s| {
        let joins: Vec<_> = (0..spec.clients)
            .map(|c| {
                let barrier = &barrier;
                let start = &start;
                s.spawn(move || {
                    let mut client = Client::new(c, spec, inputs, setup, traced);
                    barrier.wait();
                    let t0 = *start.get_or_init(Instant::now);
                    client.run(t0, Duration::from_secs_f64(seconds));
                    client.finish()
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_ns = results.iter().map(|r| r.end_ns).max().unwrap_or(0);
    (results, Duration::from_nanos(wall_ns))
}

/// Calls between two flight-recorder samples in a traced run.
const SAMPLE_EVERY: u64 = 1 << 14;

struct Client<'a> {
    index: usize,
    spec: &'a Spec,
    inputs: &'a Inputs,
    svc: &'a QueueService,
    queues: Vec<Queue>,
    next_id: u32,
    traced: bool,
    t0: Instant,
    slice_ns: u64,
    slice: usize,
    out: ClientResult,
}

/// Which latency class a call belongs to.
#[derive(Clone, Copy)]
enum Class {
    Insert,
    Pop,
    Other,
}

impl<'a> Client<'a> {
    fn new(
        index: usize,
        spec: &'a Spec,
        inputs: &'a Inputs,
        setup: &'a Setup,
        traced: bool,
    ) -> Client<'a> {
        let queues = setup
            .handles
            .iter()
            .enumerate()
            .map(|(i, &handle)| {
                // The prefill is on client 0's books.
                let mut ledger = Ledger::default();
                if index == 0 {
                    ledger.inserted.add_all(&inputs.prefill[i]);
                }
                Queue { handle, ledger }
            })
            .collect();
        let flight = (traced && index == 0).then(FlightSampler::default);
        Client {
            index,
            spec,
            inputs,
            svc: &setup.svc,
            queues,
            next_id: 0,
            traced,
            t0: Instant::now(),
            slice_ns: 1,
            slice: 0,
            out: ClientResult {
                flight,
                slices: vec![Slice::default(); SLICES],
                ..ClientResult::default()
            },
        }
    }

    fn run(&mut self, t0: Instant, dur: Duration) {
        self.t0 = t0;
        self.slice_ns = (dur.as_nanos() as u64 / SLICES as u64).max(1);
        if let Some(f) = self.out.flight.as_mut() {
            f.start();
        }
        let stream = &self.inputs.streams[self.index];
        let mut i = 0usize;
        let mut calls_at_sample = 0u64;
        let rss_at = self.spec.rss_after_calls / self.spec.clients as u64;
        while t0.elapsed() < dur {
            let op = stream[i];
            i = (i + 1) % stream.len();
            self.run_op(op);
            self.out.ops_by_kind[op.kind as usize] += 1;
            let calls = self.out.all.len() as u64;
            if self.index == 0 && self.out.rss_mib.is_none() && calls >= rss_at {
                self.out.rss_mib = Some(peak_rss_mib());
            }
            if let Some(f) = self.out.flight.as_mut() {
                if calls - calls_at_sample >= SAMPLE_EVERY {
                    calls_at_sample = calls;
                    f.sample();
                }
            }
        }
        self.out.end_ns = t0.elapsed().as_nanos() as u64;
        if let Some(f) = self.out.flight.as_mut() {
            f.sample();
        }
    }

    fn finish(mut self) -> ClientResult {
        self.out.ledgers = self.queues.iter().map(|q| q.ledger).collect();
        self.out
    }

    fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        ((self.index as u32 + 1) << 24) | self.next_id
    }

    /// Time one service call, record its latency in `class`, and log it
    /// for the replays when tracing.
    fn timed<T>(&mut self, class: Class, call: Call, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let r = f();
        self.record(start, class, call);
        r
    }

    /// Record a call that started at `start` and just ended.
    fn record(&mut self, start: Instant, class: Class, call: Call) {
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as f64;
        self.out.all.push(ns);
        match class {
            Class::Insert => self.out.inserts.push(ns),
            Class::Pop => self.out.pops.push(ns),
            Class::Other => {}
        }
        let since = end.duration_since(self.t0).as_nanos() as u64;
        self.slice = ((since / self.slice_ns) as usize).min(SLICES - 1);
        self.out.slices[self.slice].calls += 1;
        if self.traced {
            let t = start.duration_since(self.t0).as_nanos() as u64;
            self.out.recs.push(Rec { t, call });
        }
    }

    /// Count keys the last call inserted and popped.
    fn keys(&mut self, inserted: usize, popped: usize) {
        self.out.keys_in += inserted as u64;
        self.out.keys_out += popped as u64;
        self.out.slices[self.slice].keys += (inserted + popped) as u64;
    }

    fn fail(&mut self, what: String) {
        if self.out.messages.len() < 8 {
            self.out.messages.push(what);
        }
    }

    fn refused<T>(&mut self, r: Result<T, ServiceError>, what: &str) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.out.errors += 1;
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn create(&mut self) -> (QueueId, u32) {
        let id = self.fresh_id();
        let start = Instant::now();
        let h = self.svc.create_queue();
        // Recorded after the fact: the shard is only known once created.
        let call = Call::Create {
            id,
            shard: h.shard(),
        };
        self.record(start, Class::Other, call);
        (h, id)
    }

    /// The keys `keys[at..at + n]`, and their fingerprint for the ledger.
    fn keys_at(&self, at: usize, n: usize) -> (Vec<i64>, Fingerprint) {
        let v = self.inputs.keys[at..at + n].to_vec();
        let mut fp = Fingerprint::default();
        fp.add_all(&v);
        (v, fp)
    }

    fn run_op(&mut self, op: Op) {
        let q = op.q as usize;
        let (h, id) = (self.queues[q].handle, op.q as u32);
        let svc = self.svc;
        match op.kind {
            Kind::Insert => {
                let (v, fp) = self.keys_at(op.key as usize, 1);
                let call = Call::Insert { id, at: op.key };
                let r = self.timed(Class::Insert, call, || svc.insert(h, v[0]));
                if self.refused(r, "insert").is_some() {
                    self.queues[q].ledger.inserted.merge(fp);
                    self.keys(1, 0);
                }
            }
            Kind::MultiInsert => {
                let n = self.spec.multi_n;
                let (v, fp) = self.keys_at(op.key as usize, n);
                let call = Call::Multi {
                    id,
                    at: op.key,
                    n: n as u32,
                };
                let r = self.timed(Class::Insert, call, || svc.multi_insert(h, v));
                if self.refused(r, "multi_insert").is_some() {
                    self.queues[q].ledger.inserted.merge(fp);
                    self.keys(n, 0);
                }
            }
            Kind::ExtractMin => {
                let call = Call::ExtractMin { id };
                let r = self.timed(Class::Pop, call, || svc.extract_min(h));
                self.out.pop_calls += 1;
                match self.refused(r, "extract_min") {
                    Some(Some(k)) => {
                        self.queues[q].ledger.popped.add(k);
                        self.keys(0, 1);
                    }
                    Some(None) => self.out.empty_pops += 1,
                    None => {}
                }
            }
            Kind::ExtractK => {
                let k = self.spec.pop_k;
                let call = Call::ExtractK { id, k: k as u32 };
                let r = self.timed(Class::Pop, call, || svc.extract_k(h, k));
                self.out.pop_calls += 1;
                if let Some(keys) = self.refused(r, "extract_k") {
                    if !ascending(&keys) {
                        self.out.bad_outputs += 1;
                        self.fail(format!("extract_k({k}) returned keys out of order"));
                    }
                    if keys.is_empty() {
                        self.out.empty_pops += 1;
                    }
                    self.queues[q].ledger.popped.add_all(&keys);
                    self.keys(0, keys.len());
                }
            }
            Kind::Peek => {
                let r = self.timed(Class::Other, Call::Peek { id }, || svc.peek_min(h));
                self.refused(r, "peek_min");
            }
            Kind::Len => {
                let r = self.timed(Class::Other, Call::Len { id }, || svc.len(h));
                if let Some(r) = self.refused(r, "len") {
                    std::hint::black_box(r);
                }
            }
            Kind::Graft => {
                let (t, tid) = self.create();
                let n = self.spec.multi_n;
                let (v, fp) = self.keys_at(op.key as usize, n);
                let call = Call::Multi {
                    id: tid,
                    at: op.key,
                    n: n as u32,
                };
                let r = self.timed(Class::Insert, call, || svc.multi_insert(t, v));
                if self.refused(r, "graft multi_insert").is_none() {
                    return;
                }
                let call = Call::Meld { dst: id, src: tid };
                let r = self.timed(Class::Other, call, || svc.meld(h, t));
                if self.refused(r, "graft meld").is_some() {
                    self.queues[q].ledger.inserted.merge(fp);
                    self.keys(n, 0);
                }
            }
        }
    }
}

/// Drain every long-lived queue and compare what it held with what its
/// ledgers say it must hold. Returns one message per failed check.
pub fn drain_and_check(svc: &QueueService, handles: &[QueueId], ledgers: &[Ledger]) -> Vec<String> {
    let mut failures = Vec::new();
    for (q, (&h, ledger)) in handles.iter().zip(ledgers).enumerate() {
        let held = match svc.len(h).and_then(|n| svc.extract_k(h, n)) {
            Ok(keys) => keys,
            Err(e) => {
                failures.push(format!("queue {q}: drain refused: {e}"));
                continue;
            }
        };
        if !ascending(&held) {
            failures.push(format!("queue {q}: drain returned keys out of order"));
        }
        let mut got = Fingerprint::default();
        got.add_all(&held);
        let want = ledger.expected();
        if got != want {
            failures.push(format!(
                "queue {q}: holds {} keys, ledger expects {} (or other keys)",
                got.len(),
                want.len()
            ));
        }
    }
    failures
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
