//! W2: the wall-clock trajectory — what the hardware actually sees.
//!
//! The deterministic PRAM meters (`BENCH_baseline.json`) prove the *theorem*
//! bounds; this suite measures *seconds* on one host thread. It covers the
//! operations the zero-copy representation (`meldpq::pool`) and the batch
//! kernels are about:
//!
//! * `meld` — same-pool zero-copy plan application vs melding two
//!   separately owned heaps (the `absorb` arm: the second heap's nodes move
//!   into the first one's slab), with a hard gate: zero-copy must win by
//!   ≥10× at n = 2^20 (it is O(log n) pointer writes vs Θ(n) node moves).
//!   Both arms are timed by hand, interleaved; a zero-copy meld takes
//!   microseconds, so one zero-copy sample averages `MELDS_PER_SAMPLE`
//!   melds, each on a freshly built pair.
//! * `multi_insert` — the paper's sequential reference (a batch of n keys is
//!   n `Insert`s, each a planned singleton `Union`) vs
//!   `ParBinomialHeap::multi_insert` (one ripple per key, no plan). Gate:
//!   `multi_insert` must win by ≥2× at n = 2^18.
//! * `b_union` — the b-Union preprocessing sort: the general path must sort
//!   the concatenated key streams, the chunk-order fast path merges two
//!   already-sorted streams (`dmpq::soa::merged_stream`). Gate: the merge
//!   must win by ≥2× at N = 2^18, on interleaved pairs.
//! * `mixed` — an insert/extract-heavy workload mirroring W1's op mix, with
//!   every insert planned.
//! * `multi_extract_min` (`k` ripple `Extract-Min` rounds): `k = n/16`, and
//!   the service's `extract_k` shape, `k = 8` from 4,096 keys. Plus the
//!   prefix-scan and build primitives.
//! * `flight`, `durable` and `peek` — the overhead of the flight recorder
//!   and the WAL, and the cached min root against a rescan, each gated.
//!   These three gates and `b_union` time their arms as interleaved pairs
//!   and derive a noise floor from those pairs: a margin inside the floor
//!   is reported `inconclusive` rather than passing or failing.
//!
//! Results are appended to `reports/BENCH_wallclock.json` (same `obs::json`
//! plumbing as telemetry), with the host's core count, so every PR extends a
//! perf trajectory; the process exits non-zero if **any** gate fails (an
//! inconclusive overhead gate does not). Quick mode for CI: `cargo bench
//! --bench wallclock -- --warm-up-time 0.2 --measurement-time 0.5`; pass
//! `--full` (nightly) to add the 2^20/2^22 sizes.

use std::time::{Duration, Instant};

use bench::workloads;
use criterion::{BatchSize, BenchResult, BenchmarkId, Criterion};
use meldpq::{HeapPool, ParBinomialHeap};
use obs::json::J;
use service::ServiceBuilder;

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

/// Rounds per meld size: each times one `absorb` sample and one
/// `zero_copy` sample.
const MELD_ROUNDS: usize = 10;
/// Melds averaged into one `meld/zero_copy` sample.
const MELDS_PER_SAMPLE: usize = 8;

/// The `meld` rows, timed by hand with the two arms interleaved round by
/// round, so both see the same state of the host and of the process.
/// Every meld runs on a freshly built pair and is timed alone (setup
/// excluded; memory holds one pair at a time). One zero-copy meld of two
/// fresh 2^19-key heaps takes 7–50 µs on a 2-vCPU host, too short and too
/// noisy for one reading to be a sample, so a `zero_copy` sample is the
/// mean of `MELDS_PER_SAMPLE` melds; an `absorb` sample is one meld.
fn meld_rows(full: bool) -> Vec<BenchResult> {
    let mut seed = 11;
    let mut rows = Vec::new();
    for n in meld_sizes(full) {
        let (mut zero_copy, mut absorb) = (Vec::new(), Vec::new());
        for _ in 0..MELD_ROUNDS {
            let mut sum = Duration::ZERO;
            for _ in 0..MELDS_PER_SAMPLE {
                let (mut pool, mut a, b) = pooled_pair(n, seed);
                seed += 1;
                let start = Instant::now();
                pool.meld(&mut a, b);
                sum += start.elapsed();
                criterion::black_box(&a);
            }
            zero_copy.push(sum / MELDS_PER_SAMPLE as u32);
            let (mut a, b) = heap_pair(n, seed);
            let start = Instant::now();
            a.meld(b);
            absorb.push(start.elapsed());
            criterion::black_box(&a);
        }
        rows.push(row(format!("meld/zero_copy/{n}"), &zero_copy));
        rows.push(row(format!("meld/absorb/{n}"), &absorb));
    }
    rows
}

/// A result row from samples timed outside the shim, printed the way the
/// shim prints its own.
fn row(id: String, samples: &[Duration]) -> BenchResult {
    let mean = samples.iter().sum::<Duration>() / samples.len().max(1) as u32;
    let min = samples.iter().min().copied().unwrap_or_default();
    println!(
        "{id:<40} mean {mean:>12?}  min {min:>12?}  ({} samples)",
        samples.len()
    );
    BenchResult {
        id,
        mean_ns: mean.as_nanos() as u64,
        min_ns: min.as_nanos() as u64,
        samples: samples.len(),
    }
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

/// `Multi-Insert` of a batch of n keys into a resident heap. The `seq` arm
/// is the paper's sequential reference — a batch is semantically n repeated
/// `Insert`s, each a planned singleton `Union` — and the `bulk` arm is
/// `ParBinomialHeap::multi_insert`: one ripple per key, no plan.
fn bench_multi_insert(c: &mut Criterion, full: bool) {
    let mut group = c.benchmark_group("multi_insert");
    const BASE: usize = 1 << 12;
    for n in bulk_sizes(full) {
        let mut rng = workloads::rng(23 ^ n as u64);
        let keys = workloads::random_keys(&mut rng, BASE + n);
        let base = ParBinomialHeap::from_keys(keys[..BASE].iter().copied());
        let batch: Vec<i64> = keys[BASE..].to_vec();
        group.bench_with_input(BenchmarkId::new("seq", n), &n, |b, _| {
            b.iter_batched(
                || pooled_base(&keys[..BASE], n),
                |(mut pool, mut h)| {
                    for &k in &batch {
                        planned_insert(&mut pool, &mut h, k);
                    }
                    (pool, h)
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("bulk", n), &n, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut h| {
                    h.multi_insert(&batch).expect("fits the id space");
                    h
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
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

fn bench_multi_extract(c: &mut Criterion, full: bool) {
    let mut group = c.benchmark_group("multi_extract_min");
    for n in bulk_sizes(full) {
        let k = n / 16;
        let mut rng = workloads::rng(31 ^ n as u64);
        let keys = workloads::random_keys(&mut rng, n);
        let base = ParBinomialHeap::from_keys(keys.iter().copied());
        group.bench_with_input(BenchmarkId::new("extract_loop", n), &n, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut h| {
                    let out = h.multi_extract_min(k);
                    (h, out)
                },
                BatchSize::LargeInput,
            )
        });
    }
    // One `extract_k(8)` call of the service on a shard-sized heap.
    let n = 1usize << 12;
    let mut rng = workloads::rng(31 ^ n as u64);
    let base = ParBinomialHeap::from_keys(workloads::random_keys(&mut rng, n));
    group.bench_with_input(BenchmarkId::new("k8", n), &n, |b, _| {
        b.iter_batched(
            || base.clone(),
            |mut h| {
                let out = h.multi_extract_min(8);
                (h, out)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// W1's insert/extract mix: inserts are planned singleton `Union`s, and
/// each extract is a ripple `Extract-Min`.
fn bench_mixed(c: &mut Criterion, _full: bool) {
    let mut group = c.benchmark_group("mixed");
    const OPS: usize = 1024;
    for n in [1usize << 14, 1 << 18] {
        let mut rng = workloads::rng(47 ^ n as u64);
        let keys = workloads::random_keys(&mut rng, n + OPS);
        let fresh: Vec<i64> = keys[n..].to_vec();
        group.bench_with_input(BenchmarkId::new("seq", n), &n, |b, _| {
            b.iter_batched(
                || pooled_base(&keys[..n], OPS),
                |(mut pool, mut h)| {
                    // 2:1 insert/extract mix, W1's ratio.
                    for (i, &k) in fresh.iter().enumerate() {
                        if i % 3 < 2 {
                            planned_insert(&mut pool, &mut h, k);
                        } else {
                            pool.extract_min(&mut h);
                        }
                    }
                    (pool, h)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
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
        std::hint::black_box(peek(std::hint::black_box(h)));
    }
    start.elapsed()
}

/// One run of the b-Union preprocessing sort over `s1` and `s2`, two
/// sorted halves of N keys. The `seq` arm is what the general path must do:
/// sort the concatenation from scratch (the wall-clock stand-in for the
/// metered bitonic network). The `merge_path` arm (named for the kernel it
/// once ran) is the chunk-order fast path: both sides' SoA streams are
/// already sorted, so `merged_stream` collapses the union to one
/// two-pointer merge. Only building the sorted stream is timed; freeing it
/// is not.
fn b_union_seq_arm(s1: &[i64], s2: &[i64]) -> Duration {
    let start = Instant::now();
    let mut all = Vec::with_capacity(s1.len() + s2.len());
    all.extend_from_slice(s1);
    all.extend_from_slice(s2);
    all.sort_unstable();
    let elapsed = start.elapsed();
    std::hint::black_box(all);
    elapsed
}

/// The `merge_path` arm of [`b_union_seq_arm`].
fn b_union_merge_arm(soa1: &dmpq::soa::SoaBlocks, soa2: &dmpq::soa::SoaBlocks) -> Duration {
    let start = Instant::now();
    let merged = dmpq::soa::merged_stream(soa1, soa2).expect("both sides sorted");
    let elapsed = start.elapsed();
    std::hint::black_box(merged);
    elapsed
}

/// Timed pairs per paired gate, after `PAIRED_WARMUP` untimed ones.
const PAIRED_PAIRS: usize = 200;
const PAIRED_WARMUP: usize = 10;
/// Blocks of consecutive pairs a paired gate's noise floor compares.
const PAIRED_BLOCKS: usize = 10;

/// The median of `xs`.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

/// A paired gate's two arms as interleaved pairs: each pair runs both
/// arms back to back, the first arm alternating from pair to pair, so a
/// drift of the host hits both arms alike. Returns each arm's samples.
fn interleave(
    mut fast: impl FnMut() -> Duration,
    mut slow: impl FnMut() -> Duration,
) -> (Vec<Duration>, Vec<Duration>) {
    for _ in 0..PAIRED_WARMUP {
        fast();
        slow();
    }
    let (mut f, mut s) = (Vec::new(), Vec::new());
    for pair in 0..PAIRED_PAIRS {
        if pair % 2 == 0 {
            f.push(fast());
            s.push(slow());
        } else {
            s.push(slow());
            f.push(fast());
        }
    }
    (f, s)
}

/// A gate checked on interleaved pairs: the median over pairs of
/// `slow / fast` must reach `threshold` (an overhead bound "`fast` within
/// `b`× of `slow`" is the threshold `1 / b`). Its noise floor is half
/// the range of the medians of `PAIRED_BLOCKS` consecutive blocks of
/// pairs: how far the run disagrees with itself over time. (The
/// confidence interval of the overall median, 0.004–0.013 on a 2-vCPU
/// host, was narrower than the medians of repeated runs spread, 0.90 to
/// 0.92 for the flight gate.) A margin beyond the floor passes or
/// fails; a margin inside it is `inconclusive` and does not fail the run.
struct Paired {
    name: &'static str,
    fast: String,
    slow: String,
    threshold: f64,
}

impl Paired {
    /// Evaluate on the arms' samples; returns (json, not failed).
    fn eval(&self, fast: &[Duration], slow: &[Duration]) -> (J, bool) {
        let ratios: Vec<f64> = fast
            .iter()
            .zip(slow)
            .map(|(f, s)| s.as_secs_f64() / f.as_secs_f64().max(1e-12))
            .collect();
        let n = ratios.len();
        let blocks: Vec<f64> = ratios
            .chunks(n / PAIRED_BLOCKS)
            .take(PAIRED_BLOCKS)
            .map(median)
            .collect();
        let (lo, hi) = blocks
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &b| (lo.min(b), hi.max(b)));
        let floor = (hi - lo) / 2.0;
        let median = median(&ratios);
        let threshold = self.threshold;
        let verdict = match median - threshold {
            m if m > floor => "pass",
            m if m < -floor => "fail",
            _ => "inconclusive",
        };
        let mean = |d: &[Duration]| d.iter().sum::<Duration>().as_nanos() as f64 / d.len() as f64;
        println!(
            "gate {}: median {} / {} over {n} pairs = {median:.3}x (need >={threshold:.3}x, \
             noise floor {floor:.3}) {verdict}",
            self.name, self.slow, self.fast,
        );
        let row = J::obj([
            ("name", J::Str(self.name.into())),
            ("fast", J::Str(self.fast.clone())),
            ("slow", J::Str(self.slow.clone())),
            ("fast_mean_ns", J::Num(mean(fast))),
            ("slow_mean_ns", J::Num(mean(slow))),
            ("pairs", J::UInt(n as u64)),
            ("ratio", J::Num(median)),
            ("noise_floor", J::Num(floor)),
            ("threshold", J::Num(threshold)),
            ("verdict", J::Str(verdict.into())),
            ("pass", J::Bool(verdict == "pass")),
        ]);
        (row, verdict != "fail")
    }
}

/// The flight-recorder and WAL overhead gates, the peek-cache gate and the
/// b-Union merge gate, each on its interleaved pairs: result rows for the
/// eight arms, and a gate row each.
fn paired_gates() -> (Vec<BenchResult>, Vec<(J, bool)>) {
    let mut rng = workloads::rng(83);
    let flight_keys = workloads::random_keys(&mut rng, FLIGHT_GATE_N);
    let (on, off) = interleave(
        || flight_arm(&flight_keys, true),
        || flight_arm(&flight_keys, false),
    );
    obs::flight::set_enabled(true);
    let mut rng = workloads::rng(0xD1AB);
    let durable_keys = workloads::random_keys(&mut rng, DURABLE_GATE_N);
    let root = std::env::temp_dir().join(format!("meldpq-bench-durable-{}", std::process::id()));
    let fresh = std::cell::Cell::new(0u64);
    let (wal_on, wal_off) = interleave(
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
        || b_union_merge_arm(&soa1, &soa2),
        || b_union_seq_arm(&s1, &s2),
    );
    let flight = Paired {
        name: "flight_recorder_overhead",
        fast: format!("flight/recorder_on/{FLIGHT_GATE_N}"),
        slow: format!("flight/recorder_off/{FLIGHT_GATE_N}"),
        threshold: 1.0 / FLIGHT_BOUND,
    };
    let wal = Paired {
        name: "wal_append_overhead",
        fast: format!("durable/wal_on/{DURABLE_GATE_N}"),
        slow: format!("durable/wal_off/{DURABLE_GATE_N}"),
        threshold: 1.0 / WAL_BOUND,
    };
    let peek = Paired {
        name: "peek_min_cache_speedup",
        fast: format!("peek/cached/{PEEK_GATE_N}"),
        slow: format!("peek/rescan/{PEEK_GATE_N}"),
        threshold: 2.0,
    };
    let b_union = Paired {
        name: "b_union_merge_path_speedup",
        fast: format!("b_union/merge_path/{KERNEL_GATE_N}"),
        slow: format!("b_union/seq/{KERNEL_GATE_N}"),
        threshold: 2.0,
    };
    let rows = vec![
        row(flight.fast.clone(), &on),
        row(flight.slow.clone(), &off),
        row(wal.fast.clone(), &wal_on),
        row(wal.slow.clone(), &wal_off),
        row(peek.fast.clone(), &cached),
        row(peek.slow.clone(), &rescan),
        row(b_union.fast.clone(), &merge),
        row(b_union.slow.clone(), &sort),
    ];
    (
        rows,
        vec![
            flight.eval(&on, &off),
            wal.eval(&wal_on, &wal_off),
            peek.eval(&cached, &rescan),
            b_union.eval(&merge, &sort),
        ],
    )
}

fn bench_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix_scan");
    for n in [1usize << 14, 1 << 20] {
        let mut rng = workloads::rng(n as u64);
        let xs = workloads::random_keys(&mut rng, n);
        group.bench_with_input(BenchmarkId::new("seq", n), &n, |b, _| {
            b.iter(|| parscan::seq::scan_inclusive(&xs, |a, b| a.min(b)))
        });
    }
    group.finish();
}

fn bench_bulk_build(c: &mut Criterion, full: bool) {
    let mut group = c.benchmark_group("bulk_build");
    for n in bulk_sizes(full) {
        let mut rng = workloads::rng(99 + n as u64);
        let keys = workloads::random_keys(&mut rng, n);
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| ParBinomialHeap::from_keys(keys.iter().copied()))
        });
    }
    group.finish();
}

/// A speedup gate between two recorded means: `slow / fast >= threshold`.
/// The gates timed as interleaved pairs are [`Paired`] gates instead.
struct Gate {
    name: &'static str,
    /// The arm that must be fast.
    fast: String,
    /// The arm it is compared against.
    slow: String,
    /// Required `slow / fast` ratio.
    threshold: f64,
}

impl Gate {
    /// Evaluate against the recorded results; returns (json, pass).
    fn eval(&self, results: &[BenchResult]) -> (J, bool) {
        let f = find_mean(results, &self.fast);
        let s = find_mean(results, &self.slow);
        match (f, s) {
            (Some(f), Some(s)) if f > 0.0 => {
                let ratio = s / f;
                let pass = ratio >= self.threshold;
                println!(
                    "gate {}: {} {s:.0} ns / {} {f:.0} ns = {ratio:.2}x (need >={:.2}x) {}",
                    self.name,
                    self.slow,
                    self.fast,
                    self.threshold,
                    if pass { "ok" } else { "FAIL" },
                );
                (
                    J::obj([
                        ("name", J::Str(self.name.into())),
                        ("fast", J::Str(self.fast.clone())),
                        ("slow", J::Str(self.slow.clone())),
                        ("fast_mean_ns", J::Num(f)),
                        ("slow_mean_ns", J::Num(s)),
                        ("ratio", J::Num(ratio)),
                        ("threshold", J::Num(self.threshold)),
                        ("pass", J::Bool(pass)),
                    ]),
                    pass,
                )
            }
            _ => {
                println!("gate {}: sizes missing from the run — FAIL", self.name);
                (
                    J::obj([
                        ("name", J::Str(self.name.into())),
                        ("pass", J::Bool(false)),
                        ("error", J::Str("gate sizes missing from the run".into())),
                    ]),
                    false,
                )
            }
        }
    }
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

fn gates() -> Vec<Gate> {
    vec![
        Gate {
            name: "meld_zero_copy_speedup",
            fast: format!("meld/zero_copy/{MELD_GATE_N}"),
            slow: format!("meld/absorb/{MELD_GATE_N}"),
            threshold: 10.0,
        },
        Gate {
            name: "multi_insert_bulk_speedup",
            fast: format!("multi_insert/bulk/{KERNEL_GATE_N}"),
            slow: format!("multi_insert/seq/{KERNEL_GATE_N}"),
            threshold: 2.0,
        },
    ]
}

fn find_mean(results: &[BenchResult], id: &str) -> Option<f64> {
    results
        .iter()
        .find(|r| r.id == id)
        .map(|r| r.mean_ns as f64)
}

fn write_report(results: &[BenchResult], gates: Vec<J>, path: &std::path::Path) {
    let rows: Vec<J> = results
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
                "wall-clock means from the vendored criterion harness; \
                 machine-dependent, unlike the deterministic PRAM meters in \
                 BENCH_baseline.json"
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
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let mut c = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
        .configure_from_args();

    let melds = meld_rows(full);
    bench_multi_insert(&mut c, full);
    bench_multi_extract(&mut c, full);
    bench_mixed(&mut c, full);
    bench_scans(&mut c);
    bench_bulk_build(&mut c, full);

    let mut results = criterion::take_results();
    results.extend(melds);
    let (paired_rows, paired) = paired_gates();
    results.extend(paired_rows);
    let mut all_pass = true;
    let mut rows = Vec::new();
    for (row, pass) in gates().iter().map(|g| g.eval(&results)).chain(paired) {
        all_pass &= pass;
        rows.push(row);
    }

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports/BENCH_wallclock.json");
    write_report(&results, rows, &path);

    if !all_pass {
        eprintln!("FAIL: wall-clock gate violated (see lines above)");
        std::process::exit(1);
    }
}
