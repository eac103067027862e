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
//! * `multi_insert` — the paper's sequential reference (a batch of n keys is
//!   n `Insert`s, each a planned singleton `Union`) vs
//!   `ParBinomialHeap::multi_insert` (one ripple per key, no plan). Gate:
//!   `multi_insert` must win by ≥2× at n = 2^18.
//! * `b_union` — the b-Union preprocessing sort: the general path must sort
//!   the concatenated key streams, the chunk-order fast path merges two
//!   already-sorted streams (`dmpq::soa::merged_stream`). Gate: the merge
//!   must win by ≥2× at N = 2^18.
//! * `mixed` — an insert/extract-heavy workload mirroring W1's op mix, with
//!   every op planned.
//! * `multi_extract_min`, plus the prefix-scan and build primitives.
//! * `flight`, `durable` and `peek` — the overhead of the flight recorder
//!   and the WAL, and the cached min root against a rescan, each gated.
//!
//! Results are appended to `reports/BENCH_wallclock.json` (same `obs::json`
//! plumbing as telemetry) so every PR extends a perf trajectory; the process
//! exits non-zero if **any** gate fails. Quick mode for CI: `cargo bench
//! --bench wallclock -- --warm-up-time 0.2 --measurement-time 0.5`; pass
//! `--full` (nightly) to add the 2^20/2^22 sizes.

use std::time::Duration;

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

fn bench_meld(c: &mut Criterion, full: bool) {
    let mut group = c.benchmark_group("meld");
    for n in meld_sizes(full) {
        group.bench_with_input(BenchmarkId::new("zero_copy", n), &n, |b, &n| {
            b.iter_batched(
                || pooled_pair(n, 11),
                |(mut pool, mut a, b)| {
                    pool.meld(&mut a, b);
                    (pool, a)
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("absorb", n), &n, |b, &n| {
            b.iter_batched(
                || heap_pair(n, 11),
                |(mut a, b)| {
                    a.meld(b);
                    a
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
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

/// The b-Union preprocessing sort over N total keys. The `seq` arm is what
/// the general path must do — sort the concatenation from scratch (the
/// wall-clock stand-in for the metered bitonic network). The `merge_path`
/// arm (named for the kernel it once ran) is the chunk-order fast path:
/// both sides' SoA streams are already sorted, so `merged_stream` collapses
/// the union to one two-pointer merge.
fn bench_b_union(c: &mut Criterion, full: bool) {
    let mut group = c.benchmark_group("b_union");
    for n in bulk_sizes(full) {
        let mut rng = workloads::rng(61 ^ n as u64);
        let keys = workloads::random_keys(&mut rng, n);
        let (mut s1, mut s2) = (keys[..n / 2].to_vec(), keys[n / 2..].to_vec());
        s1.sort_unstable();
        s2.sort_unstable();
        group.bench_with_input(BenchmarkId::new("seq", n), &n, |b, _| {
            b.iter(|| {
                let mut all = Vec::with_capacity(n);
                all.extend_from_slice(&s1);
                all.extend_from_slice(&s2);
                all.sort_unstable();
                all
            })
        });
        let (soa1, soa2) = (soa_side(&s1), soa_side(&s2));
        group.bench_with_input(BenchmarkId::new("merge_path", n), &n, |b, _| {
            b.iter(|| dmpq::soa::merged_stream(&soa1, &soa2).expect("both sides sorted"))
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
        group.bench_with_input(BenchmarkId::new("frontier_seq", n), &n, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut h| {
                    let out = h.multi_extract_min(k);
                    (h, out)
                },
                BatchSize::LargeInput,
            )
        });
        // The baseline: k sequential Extract-Min rounds.
        group.bench_with_input(BenchmarkId::new("extract_loop", n), &n, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut h| {
                    let mut out = Vec::with_capacity(k);
                    for _ in 0..k {
                        out.push(h.extract_min());
                    }
                    (h, out)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// W1's insert/extract mix with every op planned: inserts are planned
/// singleton `Union`s, and each extract re-melds the orphaned children with
/// one planned union.
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
                            pool.multi_extract_min(&mut h, 1);
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

/// The always-on flight recorder's overhead on a mixed `QueueService`
/// workload: the `recorder_on` arm is the shipping configuration, the
/// `recorder_off` arm flips the process-wide kill switch. The gate holds
/// `on` within 1.1× of `off` — the budget that justifies leaving the
/// recorder enabled in release builds.
fn bench_flight(c: &mut Criterion, _full: bool) {
    let mut group = c.benchmark_group("flight");
    const OPS: usize = 4096;
    let mut rng = workloads::rng(83);
    let keys = workloads::random_keys(&mut rng, OPS);
    for (arm, enabled) in [("recorder_on", true), ("recorder_off", false)] {
        let id = BenchmarkId::new(arm, OPS);
        group.bench_with_input(id, &OPS, |b, _| {
            obs::flight::set_enabled(enabled);
            b.iter_batched(
                || {
                    let svc = ServiceBuilder::new().shards(1).build();
                    let q = svc.create_queue();
                    (svc, q)
                },
                |(svc, q)| {
                    // W1's 2:1 insert/extract mix through the sync surface
                    // (each op records begin/end events when enabled).
                    for (i, &k) in keys.iter().enumerate() {
                        if i % 3 < 2 {
                            svc.insert(q, k).expect("insert");
                        } else {
                            let _ = svc.extract_min(q).expect("extract");
                        }
                    }
                    svc
                },
                BatchSize::LargeInput,
            )
        });
    }
    obs::flight::set_enabled(true);
    group.finish();
}

/// Durability's wall-clock price: the same batched service workload with
/// the write-ahead log on (`durable/wal_on`) and off (`durable/wal_off`).
/// Each round is one 1024-key `multi_insert` plus one `extract_k`; through
/// the sync surface each op appends one record (`FromKeys` /
/// `MultiExtractMin`) and flushes once, so a round pays two `write(2)`
/// calls plus a word-folded CRC over the batch — costs that amortize over
/// the 1024-key batch. That amortization is the durability story the
/// gate's ≤1.15× bound holds the service to: per-record overhead must
/// stay an accounting charge, not a second copy of the workload.
fn bench_durable(c: &mut Criterion, _full: bool) {
    let mut group = c.benchmark_group("durable");
    const ROUNDS: usize = DURABLE_GATE_N / DURABLE_BATCH;
    let mut rng = workloads::rng(0xD1AB);
    let keys = workloads::random_keys(&mut rng, ROUNDS * DURABLE_BATCH);
    let root = std::env::temp_dir().join(format!("meldpq-bench-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let run = |svc: service::QueueService| {
        let q = svc.create_queue();
        for round in 0..ROUNDS {
            let batch = keys[round * DURABLE_BATCH..(round + 1) * DURABLE_BATCH].to_vec();
            svc.multi_insert(q, batch).expect("insert batch");
            let got = svc.extract_k(q, DURABLE_BATCH / 4).expect("extract");
            assert_eq!(got.len(), DURABLE_BATCH / 4);
        }
        svc
    };
    let fresh_id = std::sync::atomic::AtomicU64::new(0);
    group.bench_with_input(
        BenchmarkId::new("wal_on", DURABLE_GATE_N),
        &DURABLE_GATE_N,
        |b, _| {
            b.iter_batched(
                || {
                    // A fresh directory per iteration: recovery cost stays in
                    // the (untimed) setup and never compounds.
                    let dir = root.join(
                        fresh_id
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                            .to_string(),
                    );
                    ServiceBuilder::new()
                        .shards(1)
                        .durable(dir)
                        .try_build()
                        .expect("durable build")
                },
                run,
                BatchSize::LargeInput,
            )
        },
    );
    group.bench_with_input(
        BenchmarkId::new("wal_off", DURABLE_GATE_N),
        &DURABLE_GATE_N,
        |b, _| {
            b.iter_batched(
                || ServiceBuilder::new().shards(1).build(),
                run,
                BatchSize::LargeInput,
            )
        },
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

/// The O(1) peek satellite: `min_root` answers from the cached `NodeId`
/// every mutator keeps exact, vs rescanning the root list
/// (`min_root_scan`). Each iter is 1024 peeks so the ns-scale answers land
/// above timer resolution.
fn bench_peek(c: &mut Criterion, _full: bool) {
    let mut group = c.benchmark_group("peek");
    let n = PEEK_GATE_N;
    let mut rng = workloads::rng(0x9EE4 ^ n as u64);
    let keys = workloads::random_keys(&mut rng, n);
    let h = ParBinomialHeap::from_keys(keys.iter().copied());
    group.bench_with_input(BenchmarkId::new("cached", n), &n, |b, _| {
        b.iter(|| {
            for _ in 0..1024 {
                std::hint::black_box(std::hint::black_box(&h).min_root());
            }
        })
    });
    group.bench_with_input(BenchmarkId::new("rescan", n), &n, |b, _| {
        b.iter(|| {
            for _ in 0..1024 {
                std::hint::black_box(std::hint::black_box(&h).min_root_scan());
            }
        })
    });
    group.finish();
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
/// An overhead bound is the same check with `threshold < 1` — e.g. "on
/// within 1.1× of off" is `off / on >= 1/1.1`.
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
/// Heap size for the peek-cache regression arm (2^18 keys ⇒ a root list
/// long enough that a rescan visibly costs).
const PEEK_GATE_N: usize = 1 << 18;
/// The recorder-on arm may cost at most 1.1× the recorder-off arm.
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
        Gate {
            name: "b_union_merge_path_speedup",
            fast: format!("b_union/merge_path/{KERNEL_GATE_N}"),
            slow: format!("b_union/seq/{KERNEL_GATE_N}"),
            threshold: 2.0,
        },
        Gate {
            name: "peek_min_cache_speedup",
            fast: format!("peek/cached/{PEEK_GATE_N}"),
            slow: format!("peek/rescan/{PEEK_GATE_N}"),
            threshold: 2.0,
        },
        Gate {
            name: "flight_recorder_overhead",
            fast: format!("flight/recorder_on/{FLIGHT_GATE_N}"),
            slow: format!("flight/recorder_off/{FLIGHT_GATE_N}"),
            threshold: 1.0 / FLIGHT_BOUND,
        },
        Gate {
            name: "wal_append_overhead",
            fast: format!("durable/wal_on/{DURABLE_GATE_N}"),
            slow: format!("durable/wal_off/{DURABLE_GATE_N}"),
            threshold: 1.0 / WAL_BOUND,
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

    bench_meld(&mut c, full);
    bench_multi_insert(&mut c, full);
    bench_b_union(&mut c, full);
    bench_multi_extract(&mut c, full);
    bench_mixed(&mut c, full);
    bench_flight(&mut c, full);
    bench_durable(&mut c, full);
    bench_peek(&mut c, full);
    bench_scans(&mut c);
    bench_bulk_build(&mut c, full);

    let results = criterion::take_results();
    let mut all_pass = true;
    let mut rows = Vec::new();
    for gate in gates() {
        let (row, pass) = gate.eval(&results);
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
