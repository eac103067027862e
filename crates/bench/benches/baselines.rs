//! W1: the paper's binomial heap against the leftist heap, the meldable
//! baseline PAPER.md §2 names, and the non-meldable binary heap.

use std::time::Duration;

use bench::workloads;
use criterion::{criterion_group, criterion_main, Criterion};
use seqheaps::{BinaryHeapAdapter, BinomialHeap, LeftistHeap, MeldablePq, OpStats};

/// A fresh `H` holding `keys`.
fn built<H: MeldablePq<i64> + Default>(keys: &[i64]) -> H {
    let mut h = H::default();
    h.multi_insert(keys);
    h
}

fn heapsort<H: MeldablePq<i64> + Default>(keys: &[i64]) -> Vec<i64> {
    built::<H>(keys).drain_sorted()
}

fn bench_heapsort(c: &mut Criterion) {
    let mut rng = workloads::rng(0x8057);
    let keys = workloads::random_keys(&mut rng, 20_000);
    let mut group = c.benchmark_group("heapsort_20k");
    group.bench_function("binomial", |b| {
        b.iter(|| heapsort::<BinomialHeap<i64>>(&keys))
    });
    group.bench_function("leftist", |b| {
        b.iter(|| heapsort::<LeftistHeap<i64>>(&keys))
    });
    group.bench_function("binary", |b| {
        b.iter(|| heapsort::<BinaryHeapAdapter<i64>>(&keys))
    });
    group.finish();
}

/// Meld-heavy workload: build `k` heaps of `m` keys each, meld them all,
/// extract 100 minima. The meldable structures pay O(log) per meld; the
/// binary heap pays O(m log) — the reason meldability matters.
fn meld_storm<H: MeldablePq<i64> + Default>(parts: &[Vec<i64>]) -> Vec<i64> {
    let mut acc = H::default();
    for part in parts {
        acc.meld(built(part));
    }
    (0..100).filter_map(|_| acc.extract_min()).collect()
}

fn bench_meld_storm(c: &mut Criterion) {
    let mut rng = workloads::rng(0x3E1D);
    let parts: Vec<Vec<i64>> = (0..64)
        .map(|_| workloads::random_keys(&mut rng, 2_000))
        .collect();
    let mut group = c.benchmark_group("meld_storm_64x2k");
    group.bench_function("binomial", |b| {
        b.iter(|| meld_storm::<BinomialHeap<i64>>(&parts))
    });
    group.bench_function("leftist", |b| {
        b.iter(|| meld_storm::<LeftistHeap<i64>>(&parts))
    });
    group.bench_function("binary", |b| {
        b.iter(|| meld_storm::<BinaryHeapAdapter<i64>>(&parts))
    });
    group.finish();
}

/// Machine-independent comparison: comparisons + links per meld-storm run,
/// printed once so EXPERIMENTS.md can quote them.
fn bench_opcounts(c: &mut Criterion) {
    let mut rng = workloads::rng(0xC0);
    let parts: Vec<Vec<i64>> = (0..64)
        .map(|_| workloads::random_keys(&mut rng, 2_000))
        .collect();
    fn counts<H: MeldablePq<i64> + Default>(
        parts: &[Vec<i64>],
        stats: fn(&H) -> &OpStats,
    ) -> (u64, u64) {
        let mut acc = H::default();
        for part in parts {
            acc.meld(built(part));
        }
        (stats(&acc).comparisons(), stats(&acc).links())
    }
    let (bc, bl) = counts(&parts, BinomialHeap::stats);
    let (lc, ll) = counts(&parts, LeftistHeap::stats);
    let (yc, yl) = counts(&parts, BinaryHeapAdapter::stats);
    println!("op-counts (comparisons/links) for 64 melds of 2k keys:");
    println!("  binomial {bc}/{bl}  leftist {lc}/{ll}  binary {yc}/{yl}");
    // A token benchmark so criterion registers the group.
    c.bench_function("opcount_noop", |b| b.iter(|| 1 + 1));
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_heapsort, bench_meld_storm, bench_opcounts
}
criterion_main!(benches);
