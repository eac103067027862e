//! W2 and W3: the wall-clock trajectory — what the hardware actually sees.
//!
//! The deterministic meters prove the *theorem* bounds (the `report_*`
//! binaries print them, this crate's `tests/golden_figures.rs` pins the
//! figures and the workspace's `tests/theorem_shapes.rs` checks the
//! Theorem 1–3 envelopes); this suite measures *seconds* on one host
//! thread. It covers the operations the zero-copy representation
//! (`meldpq::pool`) and the batch kernels are about, and the paper's
//! positioning against its baselines:
//!
//! * `meld` — same-pool zero-copy plan application vs melding two
//!   separately owned heaps (the `absorb` arm: the second heap's nodes move
//!   into the first one's slab). Gate: zero-copy must win by ≥10× at
//!   n = 2^20 (it is O(log n) pointer writes vs Θ(n) node moves). A
//!   zero-copy meld takes microseconds, so one pair is one absorb meld
//!   against the mean of `MELDS_PER_SAMPLE` zero-copy melds, each on a
//!   freshly built pair of operands.
//! * `multi_insert` — the paper's sequential reference (a batch of n keys is
//!   n `Insert`s, each a planned singleton `Union`) vs
//!   `ParBinomialHeap::multi_insert` (one ripple per key, no plan). Gate:
//!   `multi_insert` must win by ≥2× at n = 2^18; one pair is one planned
//!   insert loop against one `multi_insert`.
//! * `b_union` — the b-Union preprocessing sort: the general path must sort
//!   the concatenated key streams, the chunk-order fast path merges two
//!   already-sorted streams (`dmpq::soa::merged_stream`). Gate: the merge
//!   must win by ≥2× at N = 2^18.
//! * `flight`, `durable` and `peek` — the overhead of the flight recorder
//!   and the WAL, and the cached min root against a rescan, each gated.
//! * `service` — the sharded service against one global lock (DESIGN.md
//!   §9): 8 client threads replay the same pre-generated streams of the
//!   [`workloads::service_op`] mix against `ServiceBuilder::new()` with 8
//!   queues and against one `Mutex<ParBinomialHeap<i64>>`, timing every
//!   call into a [`LatencyHistogram`]. Gate: the service's throughput
//!   must beat the lock's, and its p99 may be at most 16× the lock's.
//! * Single-arm rows without a gate: `multi_extract_min` (`k` ripple
//!   `Extract-Min` rounds, `k = n/16`, and the service's `extract_k` shape,
//!   `k = 8` from 4,096 keys), `mixed` (an insert/extract workload mirroring
//!   W1's op mix, every insert planned), and the `prefix_scan` and
//!   `bulk_build` primitives, each `SAMPLES` timed runs.
//! * `shootout` — the backends of [`Backend::ALL`] replay the seeded
//!   scripts of five workload classes ([`WorkloadClass`]), charged per
//!   logical op (Dijkstra's stale pops cost time but count nothing). Gates
//!   per class (PAPER.md §2): pooled must beat the CLRS binomial heap it
//!   parallelises (`pooled_vs_binomial_<class>` ≥ 1.0) and stay within 2×
//!   of the leftist heap (`pooled_vs_leftist_<class>` ≥ 0.5); `binary`
//!   gets a single-arm row per class.
//!
//! Every gate times its two arms as interleaved pairs and is judged by
//! [`Paired::eval`]: the median pair ratio against a noise floor derived
//! from the pairs, where a margin inside the floor reads `inconclusive`
//! rather than passing or failing. Every sample times its routine alone:
//! building its input is not timed, and its output is dropped after the
//! clock stops.
//!
//! Results go to `reports/BENCH_wallclock.json` (the `obs::json` printer
//! the report binaries use), with the host's core count, so every change
//! extends a perf trajectory; the process exits non-zero if **any** gate
//! fails (an inconclusive gate does not). `cargo bench --bench wallclock`
//! runs the quick suite; pass `--full` (nightly) to add the 2^20/2^22
//! sizes and the shootout's 4,096 and 16,384.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc, Barrier, Mutex, TryLockError};
use std::time::{Duration, Instant};

use bench::paired::{interleave, Paired};
use bench::workloads::{self, ClassScript, ServiceOp, WorkloadClass};
use meldpq::{Backend, HeapPool, MeldablePq, ParBinomialHeap};
use obs::json::J;
use obs::LatencyHistogram;
use service::{QueueId, QueueService, ServiceBuilder};

/// The meld sizes; 2^22 only with `--full`.
fn meld_sizes(full: bool) -> Vec<usize> {
    let mut v = vec![1usize << 10, 1 << 14, 1 << 18, 1 << 20];
    if full {
        v.push(1 << 22);
    }
    v
}

fn bulk_sizes(full: bool) -> Vec<usize> {
    let mut v = vec![1usize << 14, 1 << 18];
    if full {
        v.push(1 << 20);
    }
    v
}

/// One timed row of the report.
struct Row {
    id: String,
    mean_ns: u64,
    min_ns: u64,
    samples: usize,
}

/// The row of `samples`, printed as it is recorded.
fn row(id: String, samples: &[Duration]) -> Row {
    let mean = samples.iter().sum::<Duration>() / samples.len().max(1) as u32;
    let min = samples.iter().min().copied().unwrap_or_default();
    println!(
        "{id:<40} mean {mean:>12?}  min {min:>12?}  ({} samples)",
        samples.len()
    );
    Row {
        id,
        mean_ns: mean.as_nanos() as u64,
        min_ns: min.as_nanos() as u64,
        samples: samples.len(),
    }
}

/// Time one run of `routine` on `input`. The output is dropped after the
/// clock stops: dropping it can cost far more than the routine — e.g.
/// freeing a million-node arena after an O(log n) meld — and must not
/// pollute the sample.
fn timed<I, O>(input: I, routine: impl FnOnce(I) -> O) -> Duration {
    let start = Instant::now();
    let out = black_box(routine(input));
    let elapsed = start.elapsed();
    drop(out);
    elapsed
}

/// Timed runs per single-arm row, after one untimed run.
const SAMPLES: usize = 10;

/// A single-arm row: `SAMPLES` runs of `sample`, each timing itself.
fn sampled(id: String, mut sample: impl FnMut() -> Duration) -> Row {
    sample();
    let samples: Vec<Duration> = (0..SAMPLES).map(|_| sample()).collect();
    row(id, &samples)
}

/// Two heaps of n/2 keys each in one pool (zero-copy operand pair).
fn pooled_pair(n: usize, seed: u64) -> (HeapPool<i64>, meldpq::PooledHeap, meldpq::PooledHeap) {
    let mut rng = workloads::rng(seed ^ n as u64);
    let keys = workloads::random_keys(&mut rng, n);
    let mut pool = HeapPool::with_capacity(n);
    let a = pool.from_keys(keys[..n / 2].iter().copied());
    let b = pool.from_keys(keys[n / 2..].iter().copied());
    (pool, a, b)
}

/// Two free-standing heaps of n/2 keys each (the `absorb` operand pair: a
/// meld moves the second heap's nodes into the first one's slab).
fn heap_pair(n: usize, seed: u64) -> (ParBinomialHeap<i64>, ParBinomialHeap<i64>) {
    let mut rng = workloads::rng(seed ^ n as u64);
    let keys = workloads::random_keys(&mut rng, n);
    (
        ParBinomialHeap::from_keys(keys[..n / 2].iter().copied()),
        ParBinomialHeap::from_keys(keys[n / 2..].iter().copied()),
    )
}

/// Pairs per meld size.
const MELD_PAIRS: usize = 10;
/// Melds averaged into one `meld/zero_copy` sample.
const MELDS_PER_SAMPLE: usize = 8;
/// Pairs per `multi_insert` size: its `seq` arm takes about 0.3–0.4 s at
/// 2^18 on a 2-vCPU host.
const MULTI_INSERT_PAIRS: usize = 20;
/// Untimed pairs before the `meld` and `multi_insert` pairs, whose arms
/// take milliseconds to a second each.
const LONG_ARM_WARMUP: usize = 1;

/// The `meld` rows and the zero-copy gate at `MELD_GATE_N`. Memory holds
/// one operand pair at a time. One zero-copy meld of two fresh 2^19-key
/// heaps takes 7–50 µs on a 2-vCPU host, too short and too noisy for one
/// reading to be a sample, so a `zero_copy` sample is the mean of
/// `MELDS_PER_SAMPLE` melds; an `absorb` sample is one meld.
fn meld_gate(rows: &mut Vec<Row>, full: bool) -> (J, bool) {
    let seed = Cell::new(11);
    let fresh = || {
        seed.set(seed.get() + 1);
        seed.get()
    };
    let mut gate = None;
    for n in meld_sizes(full) {
        let (zero_copy, absorb) = interleave(
            MELD_PAIRS,
            LONG_ARM_WARMUP,
            || {
                let melds: Duration = (0..MELDS_PER_SAMPLE)
                    .map(|_| {
                        timed(pooled_pair(n, fresh()), |(mut pool, mut a, b)| {
                            pool.meld(&mut a, b);
                            (pool, a)
                        })
                    })
                    .sum();
                melds / MELDS_PER_SAMPLE as u32
            },
            || {
                timed(heap_pair(n, fresh()), |(mut a, b)| {
                    a.meld(b);
                    a
                })
            },
        );
        let meld = Paired {
            name: "meld_zero_copy_speedup".into(),
            fast: format!("meld/zero_copy/{n}"),
            slow: format!("meld/absorb/{n}"),
            threshold: 10.0,
        };
        if n == MELD_GATE_N {
            gate = Some(meld.eval(&zero_copy, &absorb));
        }
        rows.push(row(meld.fast, &zero_copy));
        rows.push(row(meld.slow, &absorb));
    }
    gate.expect("every run has the meld gate's size")
}

/// A pool holding one heap built from `keys`, with slab room for `extra`
/// more keys.
fn pooled_base(keys: &[i64], extra: usize) -> (HeapPool<i64>, meldpq::PooledHeap) {
    let mut pool = HeapPool::with_capacity(keys.len() + extra);
    let h = pool.from_keys(keys.iter().copied());
    (pool, h)
}

/// `Insert(Q, x)` the way the paper spells it: a planned `Union` with a
/// one-key heap of the same pool.
fn planned_insert(pool: &mut HeapPool<i64>, h: &mut meldpq::PooledHeap, key: i64) {
    let single = pool.from_keys([key]);
    pool.meld(h, single);
}

/// `Multi-Insert` of a batch of n keys into a resident heap, and the gate
/// at `KERNEL_GATE_N`. The `seq` arm is the paper's sequential reference —
/// a batch is semantically n repeated `Insert`s, each a planned singleton
/// `Union` — and the `bulk` arm is `ParBinomialHeap::multi_insert`: one
/// ripple per key, no plan.
fn multi_insert_gate(rows: &mut Vec<Row>, full: bool) -> (J, bool) {
    const BASE: usize = 1 << 12;
    let mut gate = None;
    for n in bulk_sizes(full) {
        let mut rng = workloads::rng(23 ^ n as u64);
        let keys = workloads::random_keys(&mut rng, BASE + n);
        let base = ParBinomialHeap::from_keys(keys[..BASE].iter().copied());
        let batch = &keys[BASE..];
        let (bulk, seq) = interleave(
            MULTI_INSERT_PAIRS,
            LONG_ARM_WARMUP,
            || {
                timed(base.clone(), |mut h| {
                    h.multi_insert(batch).expect("fits the id space");
                    h
                })
            },
            || {
                timed(pooled_base(&keys[..BASE], n), |(mut pool, mut h)| {
                    for &k in batch {
                        planned_insert(&mut pool, &mut h, k);
                    }
                    (pool, h)
                })
            },
        );
        let multi_insert = Paired {
            name: "multi_insert_bulk_speedup".into(),
            fast: format!("multi_insert/bulk/{n}"),
            slow: format!("multi_insert/seq/{n}"),
            threshold: 2.0,
        };
        if n == KERNEL_GATE_N {
            gate = Some(multi_insert.eval(&bulk, &seq));
        }
        rows.push(row(multi_insert.slow, &seq));
        rows.push(row(multi_insert.fast, &bulk));
    }
    gate.expect("every run has the multi_insert gate's size")
}

/// The rows without a gate: `multi_extract_min`, W1's insert/extract mix
/// (inserts are planned singleton `Union`s, each extract a ripple
/// `Extract-Min`), the sequential prefix scan and `from_keys`.
fn single_arm_rows(rows: &mut Vec<Row>, full: bool) {
    for n in bulk_sizes(full) {
        let mut rng = workloads::rng(31 ^ n as u64);
        let base = ParBinomialHeap::from_keys(workloads::random_keys(&mut rng, n));
        rows.push(sampled(
            format!("multi_extract_min/extract_loop/{n}"),
            || {
                timed(base.clone(), |mut h| {
                    let out = h.multi_extract_min(n / 16);
                    (h, out)
                })
            },
        ));
    }
    // One `extract_k(8)` call of the service on a shard-sized heap.
    let n = 1usize << 12;
    let mut rng = workloads::rng(31 ^ n as u64);
    let base = ParBinomialHeap::from_keys(workloads::random_keys(&mut rng, n));
    rows.push(sampled(format!("multi_extract_min/k8/{n}"), || {
        timed(base.clone(), |mut h| {
            let out = h.multi_extract_min(8);
            (h, out)
        })
    }));
    const OPS: usize = 1024;
    for n in [1usize << 14, 1 << 18] {
        let mut rng = workloads::rng(47 ^ n as u64);
        let keys = workloads::random_keys(&mut rng, n + OPS);
        rows.push(sampled(format!("mixed/seq/{n}"), || {
            timed(pooled_base(&keys[..n], OPS), |(mut pool, mut h)| {
                // 2:1 insert/extract mix, W1's ratio.
                for (i, &k) in keys[n..].iter().enumerate() {
                    if i % 3 < 2 {
                        planned_insert(&mut pool, &mut h, k);
                    } else {
                        pool.extract_min(&mut h);
                    }
                }
                (pool, h)
            })
        }));
    }
    for n in [1usize << 14, 1 << 20] {
        let mut rng = workloads::rng(n as u64);
        let xs = workloads::random_keys(&mut rng, n);
        rows.push(sampled(format!("prefix_scan/seq/{n}"), || {
            timed((), |()| parscan::seq::scan_inclusive(&xs, |a, b| a.min(b)))
        }));
    }
    for n in bulk_sizes(full) {
        let mut rng = workloads::rng(99 + n as u64);
        let keys = workloads::random_keys(&mut rng, n);
        rows.push(sampled(format!("bulk_build/sequential/{n}"), || {
            timed((), |()| ParBinomialHeap::from_keys(keys.iter().copied()))
        }));
    }
}

/// The shootout sizes; 4,096 and 16,384 only with `--full`.
fn shootout_sizes(full: bool) -> Vec<usize> {
    let mut v = vec![256, 1024];
    if full {
        v.extend([4096, 16384]);
    }
    v
}

/// One shootout arm: `backend` replays each script once on a fresh queue.
/// Returns the sum over the scripts of elapsed time per logical op, so
/// every size weighs alike. Only the replay is timed.
///
/// Before the clock starts, one `SETTLE_BYTES` allocation lets the
/// allocator finish the frees of the queue dropped before it (glibc
/// consolidates freed small chunks on the next large request). Without
/// it the pooled arm, whose first slab growth is such a request, paid for
/// the pointer heaps' thousands of freed nodes, most of all in its
/// 256-key term: on a 2-vCPU host the full suite read leftist / pooled on
/// `reverse` at 0.59–0.74, with pooled's mean far above its minimum, and
/// 1.10 with it (EXPERIMENTS.md W3).
fn class_arm(backend: Backend, scripts: &[ClassScript]) -> Duration {
    scripts
        .iter()
        .map(|script| {
            let mut q = backend.make();
            drop(black_box(Vec::<u8>::with_capacity(SETTLE_BYTES)));
            let start = Instant::now();
            let ops = script.replay(q.as_mut(), drop);
            let elapsed = start.elapsed();
            drop(q);
            elapsed.div_f64(ops as f64)
        })
        .sum()
}

/// A request above glibc's small-bin range (1 KiB) and below its default
/// mmap threshold (128 KiB).
const SETTLE_BYTES: usize = 64 << 10;

/// The positioning gates (PAPER.md §2), per class: `baseline / pooled`
/// must reach the floor. The CLRS binomial heap is the sequential heap the
/// §3 machinery parallelises, so pooled must be at least as fast; the
/// leftist heap is the baseline the paper does not claim to beat, so
/// pooled may be at most 2× slower.
const POSITIONING: [(Backend, f64); 2] = [(Backend::Binomial, 1.0), (Backend::Leftist, 0.5)];

/// The shootout (EXPERIMENTS.md W3): per class, the two positioning gates
/// on `PAIRED_PAIRS` pairs each, and a single-arm `binary` row that no
/// gate reads.
fn positioning_gates(rows: &mut Vec<Row>, full: bool) -> Vec<(J, bool)> {
    let mut gates = Vec::new();
    for class in WorkloadClass::ALL {
        let scripts: Vec<ClassScript> = shootout_sizes(full)
            .into_iter()
            .map(|n| class.script(n))
            .collect();
        let id = |b: Backend| format!("shootout/{}/{}", class.name(), b.name());
        let (mut pooled, mut baselines) = (Vec::new(), Vec::new());
        for (baseline, threshold) in POSITIONING {
            let (fast, slow) = interleave(
                PAIRED_PAIRS,
                PAIRED_WARMUP,
                || class_arm(Backend::Pooled, &scripts),
                || class_arm(baseline, &scripts),
            );
            let gate = Paired {
                name: format!("pooled_vs_{}_{}", baseline.name(), class.name()),
                fast: id(Backend::Pooled),
                slow: id(baseline),
                threshold,
            };
            gates.push(gate.eval(&fast, &slow));
            pooled.extend(fast);
            baselines.push(row(gate.slow, &slow));
        }
        rows.push(row(id(Backend::Pooled), &pooled));
        rows.append(&mut baselines);
        rows.push(sampled(id(Backend::Binary), || {
            class_arm(Backend::Binary, &scripts)
        }));
    }
    gates
}

/// One side of a b-Union as `dmpq::soa` sees it: the sorted stream cut
/// into 256-key blocks of one `BbHeap`.
fn soa_side(sorted: &[i64]) -> dmpq::soa::SoaBlocks {
    const B: usize = 256;
    let mut heap = dmpq::BbHeap::new(B);
    let roots: Vec<_> = sorted
        .chunks(B)
        .map(|block| Some(heap.alloc(block.to_vec())))
        .collect();
    dmpq::soa::SoaBlocks::gather(&heap, &roots)
}

/// One run of the flight-recorder workload: W1's 2:1 insert/extract mix
/// through the sync surface of a fresh one-shard service (each op records
/// begin/end events when the recorder is on). The recorder-on arm is the
/// shipping configuration; the off arm flips the process-wide kill
/// switch. Only the ops are timed.
fn flight_arm(keys: &[i64], enabled: bool) -> Duration {
    obs::flight::set_enabled(enabled);
    let svc = ServiceBuilder::new().shards(1).build();
    let q = svc.create_queue();
    let start = Instant::now();
    for (i, &k) in keys.iter().enumerate() {
        if i % 3 < 2 {
            svc.insert(q, k).expect("insert");
        } else {
            let _ = svc.extract_min(q).expect("extract");
        }
    }
    start.elapsed()
}

/// One run of the durability workload on a fresh one-shard service, with
/// the write-ahead log in `dir` (`wal_on`) or none (`wal_off`). Each round
/// is one 1024-key `multi_insert` plus one `extract_k`; through the sync
/// surface each op appends one record (`FromKeys` / `MultiExtractMin`)
/// and flushes once, so a round pays two `write(2)` calls plus a
/// word-folded CRC over the batch — costs that amortize over the
/// 1024-key batch. That amortization is the durability story the gate's
/// ≤1.15× bound holds the service to: per-record overhead must stay an
/// accounting charge, not a second copy of the workload. Building the
/// service (recovery of the empty directory) and removing the directory
/// are not timed.
fn durable_arm(keys: &[i64], dir: Option<&std::path::Path>) -> Duration {
    let svc = match dir {
        Some(dir) => ServiceBuilder::new().shards(1).durable(dir).try_build(),
        None => Ok(ServiceBuilder::new().shards(1).build()),
    }
    .expect("build");
    let q = svc.create_queue();
    let start = Instant::now();
    for batch in keys.chunks(DURABLE_BATCH) {
        svc.multi_insert(q, batch.to_vec()).expect("insert batch");
        let got = svc.extract_k(q, DURABLE_BATCH / 4).expect("extract");
        assert_eq!(got.len(), DURABLE_BATCH / 4);
    }
    let elapsed = start.elapsed();
    drop(svc);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    elapsed
}

/// One run of the peek workload: 1024 calls of `peek` on `h`, either
/// `min_root` (the cached `NodeId` every mutator keeps exact) or
/// `min_root_scan` (a rescan of the root list). 1024 peeks put the
/// ns-scale answers well above timer resolution.
fn peek_arm(
    h: &ParBinomialHeap<i64>,
    peek: impl Fn(&ParBinomialHeap<i64>) -> Option<meldpq::NodeId>,
) -> Duration {
    let start = Instant::now();
    for _ in 0..1024 {
        black_box(peek(black_box(h)));
    }
    start.elapsed()
}

/// One run of the b-Union preprocessing sort over `s1` and `s2`, two
/// sorted halves of N keys. The `seq` arm is what the general path must do:
/// sort the concatenation from scratch (the wall-clock stand-in for the
/// metered bitonic network). The `merge_path` arm (named for the kernel it
/// once ran) is the chunk-order fast path: both sides' SoA streams are
/// already sorted, so `merged_stream` collapses the union to one
/// two-pointer merge. Only building the sorted stream is timed.
fn b_union_seq_arm(s1: &[i64], s2: &[i64]) -> Duration {
    timed((), |()| {
        let mut all = Vec::with_capacity(s1.len() + s2.len());
        all.extend_from_slice(s1);
        all.extend_from_slice(s2);
        all.sort_unstable();
        all
    })
}

/// The `merge_path` arm of [`b_union_seq_arm`].
fn b_union_merge_arm(soa1: &dmpq::soa::SoaBlocks, soa2: &dmpq::soa::SoaBlocks) -> Duration {
    timed((), |()| {
        dmpq::soa::merged_stream(soa1, soa2).expect("both sides sorted")
    })
}

/// What one arm of the service gate drives: the sharded service with its
/// queues, or one heap behind one lock.
#[derive(Clone)]
enum LockTarget {
    Service(Arc<QueueService>, Vec<QueueId>),
    Mutex(Arc<Mutex<ParBinomialHeap<i64>>>),
}

impl LockTarget {
    /// Run `stream` on this target, timing every call. Also returns how
    /// many of the lock's acquisitions found it held (a `try_lock` miss,
    /// which falls back to `lock()`); the service arm counts none.
    fn drive(&self, stream: &[(usize, ServiceOp)]) -> (LatencyHistogram, u64) {
        let mut hist = LatencyHistogram::new();
        let mut contended = 0;
        for &(qi, op) in stream {
            let t0 = Instant::now();
            match self {
                LockTarget::Service(svc, queues) => {
                    op.run(svc, queues[qi]).expect("service call failed");
                }
                LockTarget::Mutex(heap) => {
                    let mut h = heap
                        .try_lock()
                        .or_else(|e| match e {
                            TryLockError::WouldBlock => {
                                contended += 1;
                                heap.lock()
                            }
                            TryLockError::Poisoned(p) => Err(p),
                        })
                        .expect("baseline heap poisoned");
                    match op {
                        ServiceOp::Insert(k) => MeldablePq::insert(&mut *h, k),
                        ServiceOp::ExtractMin => drop(MeldablePq::extract_min(&mut *h)),
                        ServiceOp::ExtractK(k) => drop(MeldablePq::multi_extract_min(&mut *h, k)),
                        ServiceOp::Peek => drop(h.peek_min()),
                        ServiceOp::Len => drop(MeldablePq::len(&*h)),
                    }
                }
            }
            hist.record(t0.elapsed().as_nanos() as u64);
        }
        (hist, contended)
    }
}

/// The service gate's client threads, one per stream, spawned once and
/// reused by every arm of every pair. Each thread that records into
/// `obs::flight` pins a 160 KiB ring for the life of the process, so a
/// thread per arm would pin about 140 MiB over a run's 420 arms. The
/// threads end when `jobs` is dropped.
struct Clients {
    jobs: Vec<mpsc::Sender<LockTarget>>,
    done: mpsc::Receiver<std::thread::Result<(LatencyHistogram, u64)>>,
    start: Arc<Barrier>,
}

impl Clients {
    fn spawn(streams: Vec<Vec<(usize, ServiceOp)>>) -> Clients {
        let start = Arc::new(Barrier::new(streams.len() + 1));
        let (done_tx, done) = mpsc::channel();
        let mut jobs = Vec::new();
        for stream in streams {
            let (job_tx, job_rx) = mpsc::channel::<LockTarget>();
            let (start, done_tx) = (Arc::clone(&start), done_tx.clone());
            std::thread::spawn(move || {
                for target in job_rx {
                    start.wait();
                    let hist = std::panic::catch_unwind(AssertUnwindSafe(|| target.drive(&stream)));
                    let _ = done_tx.send(hist);
                }
            });
            jobs.push(job_tx);
        }
        Clients { jobs, done, start }
    }

    /// Run every client's stream once against `target`. Returns the wall
    /// time from the clients' release to the last one's finish, their
    /// merged per-call latencies and their contended lock acquisitions.
    fn run(&self, target: &LockTarget) -> (Duration, LatencyHistogram, u64) {
        for job in &self.jobs {
            job.send(target.clone()).expect("client thread alive");
        }
        let t0 = Instant::now();
        self.start.wait();
        let (mut hist, mut contended) = (LatencyHistogram::new(), 0);
        for _ in 0..self.jobs.len() {
            let (client, missed) = self
                .done
                .recv()
                .expect("client thread alive")
                .expect("client thread panicked");
            hist.merge(&client);
            contended += missed;
        }
        (t0.elapsed(), hist, contended)
    }
}

/// The service gate: the sharded service against one global lock on the
/// same streams, through one set of [`Clients`]. Its row carries the
/// throughput verdict of [`Paired::eval`], both arms' p50 and p99 over
/// the timed pairs (the service's p99 may be at most [`P99_BOUND`]× the
/// lock's), and how many of the lock arm's acquisitions found the lock
/// held: the regime a miss ran in.
fn service_gate(rows: &mut Vec<Row>) -> (J, bool) {
    let streams: Vec<Vec<(usize, ServiceOp)>> = (0..SERVICE_THREADS)
        .map(|tid| {
            let mut rng = workloads::rng(0x5E81_11CE ^ tid as u64);
            (0..SERVICE_OPS_PER_THREAD)
                .map(|_| workloads::service_op(&mut rng, SERVICE_QUEUES))
                .collect()
        })
        .collect();
    let clients = Clients::spawn(streams);
    let (svc_hist, mutex_hist) = (
        RefCell::new(LatencyHistogram::new()),
        RefCell::new(LatencyHistogram::new()),
    );
    let (svc_runs, mutex_runs, contended) = (Cell::new(0), Cell::new(0), Cell::new(0));
    // `interleave` drops its warm-up pairs; their latencies and
    // contention go too.
    let timed_pair = |runs: &Cell<usize>| {
        runs.set(runs.get() + 1);
        runs.get() > PAIRED_WARMUP
    };
    let (service, mutex) = interleave(
        PAIRED_PAIRS,
        PAIRED_WARMUP,
        || {
            let svc = Arc::new(ServiceBuilder::new().build());
            let queues = (0..SERVICE_QUEUES).map(|_| svc.create_queue()).collect();
            let target = LockTarget::Service(Arc::clone(&svc), queues);
            let (t, hist, _) = clients.run(&target);
            svc.validate()
                .expect("service state corrupt after the load");
            assert_eq!(
                svc.snapshot().latency().count(),
                SERVICE_OPS as u64,
                "every call is charged to a shard histogram"
            );
            if timed_pair(&svc_runs) {
                svc_hist.borrow_mut().merge(&hist);
            }
            t
        },
        || {
            let heap = Arc::new(Mutex::new(ParBinomialHeap::new()));
            let (t, hist, missed) = clients.run(&LockTarget::Mutex(heap));
            if timed_pair(&mutex_runs) {
                mutex_hist.borrow_mut().merge(&hist);
                contended.set(contended.get() + missed);
            }
            t
        },
    );
    let lock = Paired {
        name: "service_beats_global_lock".into(),
        fast: format!("service/sharded/{SERVICE_OPS}"),
        slow: format!("service/global_lock/{SERVICE_OPS}"),
        threshold: 1.0,
    };
    let (mut gate, faster) = lock.eval(&service, &mutex);
    let (svc_hist, mutex_hist) = (svc_hist.into_inner(), mutex_hist.into_inner());
    let (svc_p99, mutex_p99) = (svc_hist.quantile(0.99), mutex_hist.quantile(0.99));
    let tail_ok = svc_p99 as f64 <= P99_BOUND * mutex_p99 as f64;
    let (contended, acquisitions) = (contended.get(), (PAIRED_PAIRS * SERVICE_OPS) as u64);
    let contended_frac = contended as f64 / acquisitions as f64;
    println!(
        "gate {}: p50/p99 service {}/{svc_p99} ns, lock {}/{mutex_p99} ns \
         (need service p99 <={P99_BOUND}x the lock's) {}; \
         {contended} of {acquisitions} lock acquisitions found it held ({contended_frac:.3})",
        lock.name,
        svc_hist.quantile(0.5),
        mutex_hist.quantile(0.5),
        if tail_ok { "ok" } else { "FAIL" },
    );
    if let J::Obj(fields) = &mut gate {
        fields.extend(
            [
                ("service_p50_ns", J::UInt(svc_hist.quantile(0.5))),
                ("service_p99_ns", J::UInt(svc_p99)),
                ("mutex_p50_ns", J::UInt(mutex_hist.quantile(0.5))),
                ("mutex_p99_ns", J::UInt(mutex_p99)),
                ("mutex_contended", J::UInt(contended)),
                ("mutex_contended_frac", J::Num(contended_frac)),
                ("p99_bound", J::Num(P99_BOUND)),
                ("p99_pass", J::Bool(tail_ok)),
            ]
            .map(|(k, v)| (k.to_string(), v)),
        );
    }
    rows.push(row(lock.fast, &service));
    rows.push(row(lock.slow, &mutex));
    (gate, faster && tail_ok)
}

/// Timed pairs per gate whose arms take micro- to milliseconds, after
/// `PAIRED_WARMUP` untimed ones.
const PAIRED_PAIRS: usize = 200;
const PAIRED_WARMUP: usize = 10;

/// The flight-recorder and WAL overhead gates, the peek-cache gate and
/// the b-Union merge gate, each on `PAIRED_PAIRS` pairs.
fn paired_gates(rows: &mut Vec<Row>) -> Vec<(J, bool)> {
    let mut rng = workloads::rng(83);
    let flight_keys = workloads::random_keys(&mut rng, FLIGHT_GATE_N);
    let (on, off) = interleave(
        PAIRED_PAIRS,
        PAIRED_WARMUP,
        || flight_arm(&flight_keys, true),
        || flight_arm(&flight_keys, false),
    );
    obs::flight::set_enabled(true);
    let mut rng = workloads::rng(0xD1AB);
    let durable_keys = workloads::random_keys(&mut rng, DURABLE_GATE_N);
    let root = std::env::temp_dir().join(format!("meldpq-bench-durable-{}", std::process::id()));
    let fresh = Cell::new(0u64);
    let (wal_on, wal_off) = interleave(
        PAIRED_PAIRS,
        PAIRED_WARMUP,
        || {
            fresh.set(fresh.get() + 1);
            durable_arm(&durable_keys, Some(&root.join(fresh.get().to_string())))
        },
        || durable_arm(&durable_keys, None),
    );
    let _ = std::fs::remove_dir_all(&root);
    let mut rng = workloads::rng(0x9EE4 ^ PEEK_GATE_N as u64);
    let h = ParBinomialHeap::from_keys(workloads::random_keys(&mut rng, PEEK_GATE_N));
    let (cached, rescan) = interleave(
        PAIRED_PAIRS,
        PAIRED_WARMUP,
        || peek_arm(&h, ParBinomialHeap::min_root),
        || peek_arm(&h, ParBinomialHeap::min_root_scan),
    );
    let mut rng = workloads::rng(61 ^ KERNEL_GATE_N as u64);
    let keys = workloads::random_keys(&mut rng, KERNEL_GATE_N);
    let (mut s1, mut s2) = (
        keys[..KERNEL_GATE_N / 2].to_vec(),
        keys[KERNEL_GATE_N / 2..].to_vec(),
    );
    s1.sort_unstable();
    s2.sort_unstable();
    let (soa1, soa2) = (soa_side(&s1), soa_side(&s2));
    let (merge, sort) = interleave(
        PAIRED_PAIRS,
        PAIRED_WARMUP,
        || b_union_merge_arm(&soa1, &soa2),
        || b_union_seq_arm(&s1, &s2),
    );
    let flight = Paired {
        name: "flight_recorder_overhead".into(),
        fast: format!("flight/recorder_on/{FLIGHT_GATE_N}"),
        slow: format!("flight/recorder_off/{FLIGHT_GATE_N}"),
        threshold: 1.0 / FLIGHT_BOUND,
    };
    let wal = Paired {
        name: "wal_append_overhead".into(),
        fast: format!("durable/wal_on/{DURABLE_GATE_N}"),
        slow: format!("durable/wal_off/{DURABLE_GATE_N}"),
        threshold: 1.0 / WAL_BOUND,
    };
    let peek = Paired {
        name: "peek_min_cache_speedup".into(),
        fast: format!("peek/cached/{PEEK_GATE_N}"),
        slow: format!("peek/rescan/{PEEK_GATE_N}"),
        threshold: 2.0,
    };
    let b_union = Paired {
        name: "b_union_merge_path_speedup".into(),
        fast: format!("b_union/merge_path/{KERNEL_GATE_N}"),
        slow: format!("b_union/seq/{KERNEL_GATE_N}"),
        threshold: 2.0,
    };
    let gates = vec![
        flight.eval(&on, &off),
        wal.eval(&wal_on, &wal_off),
        peek.eval(&cached, &rescan),
        b_union.eval(&merge, &sort),
    ];
    for (gate, fast, slow) in [
        (flight, on, off),
        (wal, wal_on, wal_off),
        (peek, cached, rescan),
        (b_union, merge, sort),
    ] {
        rows.push(row(gate.fast, &fast));
        rows.push(row(gate.slow, &slow));
    }
    gates
}

/// The bound sizes: meld at 2^20 (the representation's whole point), the
/// kernel speedups at 2^18.
const MELD_GATE_N: usize = 1 << 20;
const KERNEL_GATE_N: usize = 1 << 18;
/// Ops in the flight-recorder overhead workload.
const FLIGHT_GATE_N: usize = 4096;
/// Heap size for the peek-cache gate (2^18 keys ⇒ a root list long enough
/// that a rescan visibly costs).
const PEEK_GATE_N: usize = 1 << 18;
/// The recorder-on arm may cost at most 1.1× the recorder-off arm: the
/// budget that justifies leaving the recorder on in release builds.
const FLIGHT_BOUND: f64 = 1.1;
/// Keys per batch in the durability overhead workload: each batch is one
/// `multi_insert` and one `FromKeys` record, so the per-record WAL cost
/// (one CRC + one `write(2)`) amortizes the way a batched durable
/// deployment would run it.
const DURABLE_BATCH: usize = 1024;
/// Total keys the durability workload admits per iteration (8 rounds).
const DURABLE_GATE_N: usize = 8 * DURABLE_BATCH;
/// The WAL-on arm may cost at most 1.15× the WAL-off arm.
const WAL_BOUND: f64 = 1.15;
/// The service gate's client threads, calls per thread and queues.
const SERVICE_THREADS: usize = 8;
const SERVICE_OPS_PER_THREAD: usize = 1024;
const SERVICE_OPS: usize = SERVICE_THREADS * SERVICE_OPS_PER_THREAD;
const SERVICE_QUEUES: usize = 8;
/// The service's p99 may be at most 16× the global lock's. A contended
/// call waits on its shard's lock as a global-lock call waits on the one
/// lock, so neither tail is structurally worse; 16× leaves room for
/// scheduler noise on a small shared host and still catches a tail
/// collapse.
const P99_BOUND: f64 = 16.0;

fn write_report(rows: &[Row], gates: Vec<J>, path: &std::path::Path) {
    let rows: Vec<J> = rows
        .iter()
        .map(|r| {
            J::obj([
                ("id", J::Str(r.id.clone())),
                ("mean_ns", J::UInt(r.mean_ns)),
                ("min_ns", J::UInt(r.min_ns)),
                ("samples", J::UInt(r.samples as u64)),
            ])
        })
        .collect();
    let doc = J::obj([
        ("report", J::Str("wallclock".into())),
        ("unit", J::Str("ns/iter".into())),
        (
            "note",
            J::Str(
                "wall-clock means, set-up excluded, every gate on interleaved \
                 pairs; a shootout row is the sum over sizes of ns per logical \
                 op; machine-dependent, unlike the deterministic meters the \
                 report_* binaries print and golden_figures.rs and \
                 theorem_shapes.rs pin"
                    .into(),
            ),
        ),
        (
            "nproc",
            J::UInt(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("results", J::Arr(rows)),
        ("gates", J::Arr(gates)),
    ]);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, format!("{doc}\n")).expect("write BENCH_wallclock.json");
    println!("wrote {}", path.display());
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let mut rows = Vec::new();
    // The order is measured, not incidental (2-vCPU host). The overhead
    // gates sit at their bounds, so they run first: after the seconds of
    // `meld` and `multi_insert` pairs the flight gate read about 0.014
    // lower (medians of 12 and 16 runs). The meld gate runs before the
    // service gate's client threads: after them, 3 of 27 processes timed
    // every absorb meld about twice as fast as the others did, halving
    // the gate's ratio; before them, none of 16 did. The positioning
    // gates run last, so the seven above run as they did without them.
    let mut gates = paired_gates(&mut rows);
    gates.push(meld_gate(&mut rows, full));
    gates.push(service_gate(&mut rows));
    gates.push(multi_insert_gate(&mut rows, full));
    single_arm_rows(&mut rows, full);
    gates.extend(positioning_gates(&mut rows, full));
    let all_pass = gates.iter().all(|(_, pass)| *pass);

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports/BENCH_wallclock.json");
    write_report(
        &rows,
        gates.into_iter().map(|(gate, _)| gate).collect(),
        &path,
    );

    if !all_pass {
        eprintln!("FAIL: wall-clock gate violated (see lines above)");
        std::process::exit(1);
    }
}
