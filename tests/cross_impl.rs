//! Cross-implementation integration tests: every queue in the workspace —
//! three sequential baselines, the parallel heap through both extract paths,
//! the lazy heap, and the distributed hypercube queue — must agree on shared
//! workloads.

use meldpq::lazy::LazyBinomialHeap;
use meldpq::ParBinomialHeap;
use rand::{rngs::StdRng, Rng, SeedableRng};
use seqheaps::{BinaryHeapAdapter, BinomialHeap, LeftistHeap, MeldablePq};

fn workload(seed: u64, n: usize) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-100_000..100_000)).collect()
}

/// A fresh `H` holding `keys`.
fn built<H: MeldablePq<i64> + Default>(keys: &[i64]) -> H {
    let mut h = H::default();
    h.multi_insert(keys);
    h
}

#[test]
fn all_seven_implementations_sort_identically() {
    let keys = workload(11, 3_000);
    let mut expected = keys.clone();
    expected.sort_unstable();

    // Sequential baselines.
    assert_eq!(built::<BinomialHeap<i64>>(&keys).drain_sorted(), expected);
    assert_eq!(built::<LeftistHeap<i64>>(&keys).drain_sorted(), expected);
    assert_eq!(
        built::<BinaryHeapAdapter<i64>>(&keys).drain_sorted(),
        expected
    );

    // The parallel heap: one `multi_extract_min` drain, and one key of
    // `multi_extract_min` at a time.
    let h = ParBinomialHeap::from_keys(keys.iter().copied());
    assert_eq!(h.into_sorted_vec(), expected);
    let mut h = ParBinomialHeap::from_keys(keys.iter().copied());
    let mut peeled = Vec::with_capacity(keys.len());
    while let Some(k) = h.multi_extract_min(1).pop() {
        peeled.push(k);
    }
    assert_eq!(peeled, expected);

    // The lazy heap (PRAM-measured ops).
    let mut lazy = LazyBinomialHeap::new(3);
    for &k in &keys {
        lazy.insert(k);
    }
    assert_eq!(lazy.into_sorted_vec(), expected);

    // The distributed hypercube queue.
    let mut dq = dmpq::DistributedPq::new(3, 8);
    for &k in &keys {
        dq.insert(k).expect("fault-free net");
    }
    assert_eq!(dq.into_sorted_vec().expect("fault-free net"), expected);
}

#[test]
fn meld_heavy_workload_agrees_across_meldable_queues() {
    let mut rng = StdRng::seed_from_u64(77);
    let parts: Vec<Vec<i64>> = (0..20)
        .map(|_| workload(rng.gen(), rng.gen_range(1..400)))
        .collect();
    let mut expected: Vec<i64> = parts.iter().flatten().copied().collect();
    expected.sort_unstable();

    fn run<H: MeldablePq<i64> + Default>(parts: &[Vec<i64>]) -> Vec<i64> {
        let mut acc = H::default();
        for p in parts {
            acc.meld(built::<H>(p));
        }
        acc.drain_sorted()
    }
    assert_eq!(run::<BinomialHeap<i64>>(&parts), expected);
    assert_eq!(run::<LeftistHeap<i64>>(&parts), expected);

    // The parallel heap, validated after every meld.
    let mut acc = ParBinomialHeap::new();
    for p in &parts {
        acc.meld(ParBinomialHeap::from_keys(p.iter().copied()));
        acc.validate().expect("valid after meld");
    }
    assert_eq!(acc.into_sorted_vec(), expected);

    // Distributed queues melded pairwise.
    let mut dq = dmpq::DistributedPq::new(2, 4);
    for p in &parts {
        let mut other = dmpq::DistributedPq::new(2, 4);
        for &k in p {
            other.insert(k).expect("fault-free net");
        }
        dq.meld(other).expect("fault-free net");
        dq.heap().validate().expect("valid after meld");
    }
    assert_eq!(dq.into_sorted_vec().expect("fault-free net"), expected);
}

#[test]
fn interleaved_ops_agree_with_oracle_for_every_engine() {
    // Extract through the ripple path and through the PRAM-planned one.
    for planned in [false, true] {
        let mut rng = StdRng::seed_from_u64(5);
        let mut heap = ParBinomialHeap::new();
        let mut oracle: Vec<i64> = Vec::new();
        for _ in 0..2_000 {
            if rng.gen_bool(0.6) || oracle.is_empty() {
                let k = rng.gen_range(-1000..1000);
                heap.insert(k);
                oracle.push(k);
            } else {
                let got = if planned {
                    heap.extract_min_pram(2)
                } else {
                    heap.extract_min()
                };
                let (i, _) = oracle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, k)| **k)
                    .expect("nonempty");
                assert_eq!(got, Some(oracle.swap_remove(i)));
            }
            assert_eq!(heap.min(), oracle.iter().min().copied());
        }
        heap.validate().expect("invariants hold");
    }
}

#[test]
fn lazy_heap_delete_storm_agrees_with_recomputed_oracle() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut lazy = LazyBinomialHeap::new(4);
    let mut handles = Vec::new();
    let mut oracle: Vec<i64> = Vec::new();
    for _ in 0..500 {
        let k = rng.gen_range(-100_000..100_000);
        handles.push((lazy.insert(k), k));
        oracle.push(k);
    }
    let mut removed = 0;
    while removed < 200 && !handles.is_empty() {
        let idx = rng.gen_range(0..handles.len());
        let (id, k) = handles[idx];
        // Handles die at Arrange-Heap; skip stale ones.
        if lazy.key_of(id) == Some(k) {
            lazy.delete(id);
            lazy.validate().expect("invariants hold");
            let pos = oracle.iter().position(|&e| e == k).expect("tracked");
            oracle.swap_remove(pos);
            removed += 1;
        }
        handles.swap_remove(idx);
    }
    oracle.sort_unstable();
    assert_eq!(lazy.into_sorted_vec(), oracle);
}

#[test]
fn tuple_keys_work_across_generic_structures() {
    // (priority, id) tuples through the generic parallel heap and the
    // generic sequential baselines, identical orderings.
    let entries: Vec<(i32, u16)> = vec![(5, 1), (1, 2), (5, 0), (3, 3), (1, 9)];
    let mut expected = entries.clone();
    expected.sort_unstable();

    let par: ParBinomialHeap<(i32, u16)> = entries.iter().copied().collect();
    assert_eq!(par.into_sorted_vec(), expected);

    let mut leftist = LeftistHeap::new();
    leftist.multi_insert(&entries);
    assert_eq!(leftist.drain_sorted(), expected);

    let mut binomial = BinomialHeap::new();
    binomial.multi_insert(&entries);
    assert_eq!(binomial.drain_sorted(), expected);
}
