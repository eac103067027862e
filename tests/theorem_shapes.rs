//! Shape assertions for the theorem experiments. The direction tests pin
//! which way every claim moves; the envelope tests are the one conformance
//! check of Theorems 1–3: each fits the constant `c` of its theorem's shape
//! on the sweep's smallest rows (`bench::bounds`), then asserts
//! `measured / (c · shape) ≤ 1.5` on every larger row, so a schedule that
//! loses its `O(log log n)` shape fails `cargo test`. The fit sets are fixed
//! in advance; do not retune them to make a failing schedule pass.

use bench::bounds::{self, Envelope, DEFAULT_THRESHOLD};
use bench::experiments::{
    ablation_a1, ablation_a3, theorem1, theorem2, theorem3, T1Row, T2Row, T3Row,
};
use bench::workloads::{self, theorem_p};
use dmpq::DistributedPq;
use hypercube::NetStats;
use meldpq::lazy::LazyBinomialHeap;
use meldpq::NodeId;
use pram::Cost;
use rand::Rng;

/// Fit one envelope on `fit` and check it on every row of `check`.
/// `sample` maps a row to `(label, shape, measured)`.
fn assert_envelope<R>(
    theorem: &'static str,
    metric: &'static str,
    fit: &[R],
    check: &[R],
    sample: impl Fn(&R) -> (String, f64, f64),
) {
    let calibration: Vec<(f64, f64)> = fit
        .iter()
        .map(|r| {
            let (_, shape, measured) = sample(r);
            (shape, measured)
        })
        .collect();
    let env = Envelope::fit(theorem, metric, &calibration).expect("calibration rows");
    let violations: Vec<String> = check
        .iter()
        .map(|r| {
            let (label, shape, measured) = sample(r);
            env.check(&label, shape, measured)
        })
        .filter(|row| !row.within())
        .map(|row| row.to_string())
        .collect();
    assert!(
        violations.is_empty(),
        "{theorem} {metric} exceeds {DEFAULT_THRESHOLD} x its envelope (c = {:.3}):\n{}",
        env.c,
        violations.join("\n")
    );
}

/// Theorem 1: at fixed n, time falls monotonically with p; work stays
/// within a constant of the sequential total; at p*, time/loglog is flat.
#[test]
fn t1_parallel_time_falls_and_work_stays_optimal() {
    for bits in [10usize, 16, 22] {
        let rows = theorem1(&[bits], &[1, 2, 4, 8]);
        for w in rows.windows(2) {
            assert!(
                w[1].time <= w[0].time,
                "time must not grow with p (bits={bits})"
            );
        }
        let t1 = rows[0].time;
        for r in &rows {
            assert!(r.work <= 2 * t1, "work blow-up at p={}", r.p);
        }
    }
}

/// Theorem 1's headline: time at p* = log n / log log n grows like
/// log log n, NOT like log n. Quadrupling the bit-width (16 → 64 ... we use
/// 7 → 28) should much less than quadruple the time.
#[test]
fn t1_time_grows_sublogarithmically_at_pstar() {
    let small_bits = 7usize;
    let big_bits = 28usize; // 4x the log n
    let t_small = theorem1(&[small_bits], &[theorem_p((1 << small_bits) - 1)])[0].time;
    let t_big = theorem1(&[big_bits], &[theorem_p((1 << big_bits) - 1)])[0].time;
    let ratio = t_big as f64 / t_small as f64;
    assert!(
        ratio < 2.5,
        "4x log n should cost << 4x time at p* (got {ratio:.2})"
    );
}

/// Theorem 1's envelope: the Union at `p* = theorem_p(n)` on two
/// `2^bits − 1`-key heaps, fitted on bits 8 and 12 and checked up to bits
/// 28. The shape's `n` is the union's `2(2^bits − 1)` keys; time follows
/// `log log n + log n / p`, work `log n`.
#[test]
fn t1_union_within_envelope_at_pstar() {
    let rows: Vec<T1Row> = [8usize, 12, 16, 20, 24, 28]
        .iter()
        .flat_map(|&bits| theorem1(&[bits], &[theorem_p((1 << bits) - 1)]))
        .collect();
    let (fit, check) = rows.split_at(2);
    let label = |r: &T1Row| format!("n={} p={}", 2 * r.n, r.p);
    assert_envelope("theorem1", "union.time", fit, check, |r| {
        let shape = bounds::th1_union_time((2 * r.n) as f64, r.p as f64);
        (label(r), shape, r.time as f64)
    });
    assert_envelope("theorem1", "union.work", fit, check, |r| {
        let shape = bounds::th1_union_work((2 * r.n) as f64);
        (label(r), shape, r.work as f64)
    });
}

/// Theorem 2: amortized delete time normalised by log log n stays bounded
/// while n spans 2^8..2^14.
#[test]
fn t2_amortized_time_tracks_loglog() {
    let rows = theorem2(&[1 << 8, 1 << 11, 1 << 14]);
    let normalised: Vec<f64> = rows
        .iter()
        .map(|r| {
            let log = (usize::BITS - r.n.leading_zeros()) as f64;
            r.amortized_time / log.log2()
        })
        .collect();
    let max = normalised.iter().cloned().fold(0.0, f64::max);
    let min = normalised.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min < 4.0,
        "amortized/loglog must stay within a small constant band: {normalised:?}"
    );
}

/// Theorem 2's envelope: one arrange threshold of internal Deletes at
/// `p = theorem_p(n)`, fitted on `n = 2^8, 2^11` and checked at `2^14`.
/// Amortized time follows `log log n`, amortized work `log n`.
#[test]
fn t2_amortized_delete_within_envelope() {
    let rows = theorem2(&[1 << 8, 1 << 11, 1 << 14]);
    let (fit, check) = rows.split_at(2);
    let label = |r: &T2Row| format!("n={} p={}", r.n, r.p);
    assert_envelope("theorem2", "amortized.time", fit, check, |r| {
        let shape = bounds::th2_amortized_time(r.n as f64);
        (label(r), shape, r.amortized_time)
    });
    assert_envelope("theorem2", "amortized.work", fit, check, |r| {
        let shape = bounds::th2_amortized_work(r.n as f64);
        (label(r), shape, r.amortized_work)
    });
}

/// A mixed lazy workload at `p = theorem_p(n)`: `n` random keys, one Union
/// with an `n/8`-key heap, then internal Deletes (2/4), Inserts (1/4) and
/// Extract-Mins (1/4) interleaved over `n/4` operations, with Arrange-Heap
/// run whenever the heap's own threshold fires. Returns the metered cost
/// and the operation count (the Union counts as one).
fn mixed_lazy(n: usize, seed: u64) -> (Cost, usize) {
    let mut rng = workloads::rng(seed);
    let p = theorem_p(n);
    let mut h = LazyBinomialHeap::from_keys_fast(
        p,
        (0..n).map(|_| rng.gen_range(-1_000_000..1_000_000i64)),
    );
    let side = LazyBinomialHeap::from_keys_fast(
        p,
        (0..n / 8).map(|_| rng.gen_range(-1_000_000..1_000_000i64)),
    );
    h.reset_cost_log();
    h.meld(side);
    let mut handles: Vec<NodeId> = Vec::new();
    let ops = (n / 4).max(8) + 1;
    for i in 0..ops - 1 {
        match i % 4 {
            0 | 2 => {
                // Delete a live inserted node (a root too, which the paper
                // treats like an Extract-Min); fall back to Extract-Min.
                let victim = (0..8)
                    .filter_map(|_| handles.get(rng.gen_range(0..handles.len().max(1))))
                    .find(|&&id| h.node_exists(id) && !h.is_empty_node(id));
                match victim {
                    Some(&id) => {
                        h.delete(id);
                    }
                    None if !h.is_empty() => {
                        h.extract_min();
                    }
                    None => {}
                }
            }
            1 => handles.push(h.insert(rng.gen_range(-1_000_000..1_000_000i64))),
            _ => {
                h.extract_min();
            }
        }
    }
    (h.total_cost(), ops)
}

/// Theorem 2's envelope on the mixed lazy workload, which reaches Inserts,
/// Extract-Mins, a Union and the automatic Arrange-Heap as well as Deletes.
/// Fitted on `n` = 64, 128, 256 and checked at 2048.
#[test]
fn t2_mixed_lazy_workload_within_envelope() {
    let fit: Vec<(usize, Cost, usize)> = [64usize, 128, 256]
        .iter()
        .map(|&n| {
            let (cost, ops) = mixed_lazy(n, 0x72 + n as u64);
            (n, cost, ops)
        })
        .collect();
    let (cost, ops) = mixed_lazy(2048, 0x22);
    let check = [(2048, cost, ops)];
    let label = |&(n, _, ops): &(usize, Cost, usize)| format!("n={n} ops={ops}");
    assert_envelope("theorem2", "mixed.amortized.time", &fit, &check, |r| {
        let shape = bounds::th2_amortized_time(r.0 as f64);
        (label(r), shape, r.1.time as f64 / r.2 as f64)
    });
    assert_envelope("theorem2", "mixed.amortized.work", &fit, &check, |r| {
        let shape = bounds::th2_amortized_work(r.0 as f64);
        (label(r), shape, r.1.work as f64 / r.2 as f64)
    });
}

/// Theorem 3's envelope: the mean `b-Union`-backed multi-operation time
/// follows `log² n + b·log n·log b / 2^q`, with `n` the queue's peak size
/// (the sweep's inserts). Fitted on `(q, b, inserts)` = (2, 4, 64) and
/// (3, 8, 128), checked on every row of `report_theorem3`'s sweep: q ∈
/// {2, 3, 4}, b ∈ {1, …, 64}, 512 inserts then 512 extracts.
#[test]
fn t3_b_union_within_envelope_over_the_report_sweep() {
    let mut fit = theorem3(2, &[4], 64);
    fit.extend(theorem3(3, &[8], 128));
    let check: Vec<T3Row> = [2usize, 3, 4]
        .iter()
        .flat_map(|&q| theorem3(q, &[1, 2, 4, 8, 16, 32, 64], 512))
        .collect();
    assert_envelope("theorem3", "b_union.time", &fit, &check, |r| {
        let n = (r.ops / 2) as f64;
        let shape = bounds::th3_bunion_time(n, r.b as f64, r.q as f64);
        (format!("q={} b={}", r.q, r.b), shape, r.per_multiop_time)
    });
}

/// The distributed queue through every multi-operation, Union included:
/// `ops` inserts, a meld with a second queue of `ops/2` keys, then a full
/// drain. Returns `(q, b, peak size, mean time per multi-operation)`.
fn meld_and_drain(q: usize, b: usize, ops: usize, seed: u64) -> (usize, usize, usize, f64) {
    let mut rng = workloads::rng(seed);
    let mut pq = DistributedPq::new(q, b);
    for _ in 0..ops {
        pq.insert(rng.gen_range(-1_000_000..1_000_000))
            .expect("fault-free net");
    }
    let mut other = DistributedPq::new(q, b);
    for _ in 0..ops / 2 {
        other
            .insert(rng.gen_range(-1_000_000..1_000_000))
            .expect("fault-free net");
    }
    pq.meld(other).expect("fault-free net");
    while pq.extract_min().expect("fault-free net").is_some() {}
    let total = pq
        .ledger()
        .iter()
        .fold(NetStats::default(), |acc, (_, s)| acc.merge(s));
    let multis = pq.ledger().len().max(1);
    (q, b, ops + ops / 2, total.time as f64 / multis as f64)
}

/// Theorem 3's envelope with a meld in the stream: fitted on `(q, b, ops)` =
/// (2, 4, 64) and (3, 8, 128), checked at (3, 16, 512).
#[test]
fn t3_meld_and_drain_within_envelope() {
    let fit = [
        meld_and_drain(2, 4, 64, 0x73 + 64),
        meld_and_drain(3, 8, 128, 0x73 + 128),
    ];
    let check = [meld_and_drain(3, 16, 512, 0x33)];
    assert_envelope(
        "theorem3",
        "meld.b_union.time",
        &fit,
        &check,
        |&(q, b, n, t)| {
            let shape = bounds::th3_bunion_time(n as f64, b as f64, q as f64);
            (format!("q={q} b={b} n={n}"), shape, t)
        },
    );
}

/// Theorem 3 / A4: amortized per-op communication falls monotonically as the
/// bandwidth grows through the sweep.
#[test]
fn t3_bandwidth_amortization() {
    let rows = theorem3(2, &[1, 4, 16, 64], 128);
    for w in rows.windows(2) {
        assert!(
            w[1].amortized_time < w[0].amortized_time,
            "amortized cost must fall with b: {} !< {}",
            w[1].amortized_time,
            w[0].amortized_time
        );
    }
    // But each multi-op gets more expensive (it moves b-word payloads).
    assert!(rows.last().expect("rows").per_multiop_time > rows[0].per_multiop_time);
}

/// A1: the planned union's parallel depth beats the ripple chain ever more
/// as n grows.
#[test]
fn a1_depth_gap_widens() {
    let rows = ablation_a1(&[8, 20]);
    let gap_small = rows[0].ripple_chain as f64 / rows[0].pram_time as f64;
    let gap_big = rows[1].ripple_chain as f64 / rows[1].pram_time as f64;
    // With simulator constants the ratio is < 1 in absolute terms, but must
    // IMPROVE with n (log n grows, log log n barely moves).
    assert!(
        gap_big > gap_small,
        "depth advantage must widen: {gap_small:.3} -> {gap_big:.3}"
    );
}

/// A3: the Gray-code mapping moves promoted roots exactly one hop; the
/// identity mapping pays strictly more on every cube size.
#[test]
fn a3_gray_mapping_is_strictly_better() {
    for r in ablation_a3(&[1, 2, 3, 4, 5, 6], 128) {
        assert_eq!(r.gray_hops, 128, "q={}", r.q);
        if r.q >= 2 {
            assert!(r.identity_hops > r.gray_hops, "q={}", r.q);
        }
    }
}
