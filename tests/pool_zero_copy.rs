//! The zero-copy contract of the pooled representation (ISSUE 4 tentpole):
//! same-pool `Union` must perform **zero** node copies and **zero** fresh
//! allocations — the [`meldpq::ArenaStats`] counters are the proof — while
//! remaining semantically identical to melding separately owned heaps, and
//! the bulk kernels must match their sequential oracles exactly.

use meldpq::check::check_pool;
use meldpq::{HeapPool, ParBinomialHeap};

fn keys(n: usize, seed: i64) -> Vec<i64> {
    (0..n as i64)
        .map(|i| (i * 2654435761u64 as i64 + seed) % 99991)
        .collect()
}

#[test]
fn same_pool_meld_counts_zero_copies_and_allocs() {
    let mut pool: HeapPool<i64> = HeapPool::new();
    let mut acc = pool.from_keys(keys(513, 1));
    let mut parts: Vec<meldpq::PooledHeap> = (0..6)
        .map(|s| pool.from_keys(keys(100 + s, 7 * s as i64)))
        .collect();
    let before = pool.stats();
    let slab_before = pool.arena().slab_len();
    let mut total = acc.len();
    for part in parts.drain(..) {
        total += part.len();
        pool.meld(&mut acc, part);
        assert_eq!(acc.len(), total);
    }
    let after = pool.stats();
    assert_eq!(before.allocs, after.allocs, "meld must not allocate nodes");
    assert_eq!(before.copies, after.copies, "meld must not copy nodes");
    assert_eq!(
        slab_before,
        pool.arena().slab_len(),
        "meld must not grow the slab"
    );
    pool.validate_heap(&acc).unwrap();
    check_pool(&pool, &[&acc]).unwrap();
}

#[test]
fn pooled_meld_matches_absorb_meld_semantics() {
    // The same meld sequence within one pool and across free-standing heaps
    // (each meld moves the operand's nodes in) → same multiset, same
    // binomial shape (root orders are forced by the lengths).
    let mut pool: HeapPool<i64> = HeapPool::new();
    let mut p_acc = pool.from_keys(keys(300, 5));
    let mut h_acc = ParBinomialHeap::from_keys(keys(300, 5));
    for s in 0..4 {
        let ks = keys(90 + 13 * s, s as i64);
        let part = pool.from_keys(ks.iter().copied());
        pool.meld(&mut p_acc, part);
        h_acc.meld(ParBinomialHeap::from_keys(ks));
    }
    assert_eq!(p_acc.len(), h_acc.len());
    let p_roots: Vec<usize> = p_acc
        .roots()
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.map(|_| i))
        .collect();
    assert_eq!(p_roots, h_acc.root_orders());
    assert_eq!(pool.into_sorted_vec(p_acc), h_acc.into_sorted_vec());
}

#[test]
fn extract_min_interleaved_with_zero_copy_melds() {
    let mut pool: HeapPool<i64> = HeapPool::new();
    let mut h = pool.from_keys(keys(200, 3));
    let mut reference = keys(200, 3);
    for round in 0..5 {
        for _ in 0..20 {
            let got = pool.extract_min(&mut h);
            reference.sort_unstable();
            assert_eq!(got, Some(reference.remove(0)));
        }
        let extra = keys(30, 100 + round);
        let part = pool.from_keys(extra.iter().copied());
        pool.meld(&mut h, part);
        reference.extend(extra);
        pool.validate_heap(&h).unwrap();
    }
    reference.sort_unstable();
    assert_eq!(pool.into_sorted_vec(h), reference);
}

#[test]
fn parallel_pool_build_is_pure_allocation() {
    let ks = keys(60_000, 9);
    let mut pool: HeapPool<i64> = HeapPool::with_capacity(ks.len());
    let h = pool.from_keys_parallel(&ks);
    assert_eq!(pool.stats().allocs, ks.len() as u64);
    assert_eq!(pool.stats().copies, 0);
    check_pool(&pool, &[&h]).unwrap();
    let mut expected = ks;
    expected.sort_unstable();
    assert_eq!(pool.into_sorted_vec(h), expected);
}

#[test]
fn heap_multi_insert_builds_in_its_own_slab() {
    // `ParBinomialHeap` is a one-heap pool, so a batch builds in the heap's
    // own slab and melds without moving a node — on both sides of the
    // bulk-admission cutoff and through the calibrated public entry point.
    let batch = keys(3_000, 21);
    for admission in [0, usize::MAX] {
        let mut h = ParBinomialHeap::from_keys(keys(700, 4));
        h.multi_insert_at(&batch, admission);
        h.multi_insert(&batch[..100]);
        let stats = h.arena().stats();
        assert_eq!(stats.copies, 0, "admission {admission}");
        assert_eq!(stats.allocs, 700 + 3_100, "admission {admission}");
        h.validate().unwrap();
        assert_eq!(h.len(), 3_800);
    }
}

#[test]
fn multi_extract_min_equals_k_sequential_extracts() {
    let ks = keys(5_000, 13);
    for k in [1usize, 31, 1024, 5_000] {
        let mut fast = ParBinomialHeap::from_keys(ks.iter().copied());
        let mut slow = ParBinomialHeap::from_keys(ks.iter().copied());
        let got = fast.multi_extract_min(k);
        let mut expected = Vec::new();
        for _ in 0..k {
            expected.extend(slow.extract_min());
        }
        assert_eq!(got, expected, "k={k}");
        fast.validate().unwrap();
        assert_eq!(fast.into_sorted_vec(), slow.into_sorted_vec(), "k={k}");
    }
}

#[test]
fn multiple_heaps_share_one_pool_without_aliasing() {
    let mut pool: HeapPool<i64> = HeapPool::new();
    let heaps: Vec<meldpq::PooledHeap> = (0..8)
        .map(|s| pool.from_keys(keys(64 + s, s as i64)))
        .collect();
    let refs: Vec<&meldpq::PooledHeap> = heaps.iter().collect();
    check_pool(&pool, &refs).unwrap();
    // Clone one, mutate the original: still no aliasing anywhere.
    let mut a = pool.clone_heap(&heaps[0]);
    pool.extract_min(&mut a);
    let mut refs: Vec<&meldpq::PooledHeap> = heaps.iter().collect();
    refs.push(&a);
    check_pool(&pool, &refs).unwrap();
}
