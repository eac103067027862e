//! T1 wall-clock companion: the two Union planners on worst-case melds.
//!
//! The PRAM engine is a *simulator* — its wall clock measures simulation
//! overhead, not the algorithm (the algorithm's cost is the simulator's step
//! meter, see `report_theorem1`). The interesting wall-clock numbers are
//! the sequential plan construction and the full meld including arena
//! surgery.

use std::time::Duration;

use bench::workloads::{self, theorem_p};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use meldpq::engine_pram::build_plan_pram;
use meldpq::plan::build_plan_seq;

fn bench_plan_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_plan");
    for bits in [16usize, 24] {
        let mut rng = workloads::rng(bits as u64);
        let n = (1usize << bits) - 1;
        let (h1, h2) = workloads::all_ones_pair(&mut rng, bits);
        let r1 = workloads::root_refs_for_meld(&h1, n);
        let r2 = workloads::root_refs_for_meld(&h2, n);
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| build_plan_seq(&r1, &r2))
        });
        let p = theorem_p(n);
        group.bench_with_input(BenchmarkId::new("pram_simulated", n), &n, |b, _| {
            b.iter(|| build_plan_pram(&r1, &r2, p).expect("EREW-legal"))
        });
    }
    group.finish();
}

fn bench_full_meld(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_meld");
    for bits in [12usize, 16] {
        let mut rng = workloads::rng(100 + bits as u64);
        let n = (1usize << bits) - 1;
        group.bench_with_input(BenchmarkId::new("seq", n), &n, |b, _| {
            b.iter_batched(
                || workloads::all_ones_pair(&mut rng, bits),
                |(mut a, bh)| {
                    a.meld(bh);
                    a
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
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
    targets = bench_plan_engines, bench_full_meld
}
criterion_main!(benches);
