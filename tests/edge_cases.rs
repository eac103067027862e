//! Edge-case audit for the small-`n` corners the paper's asymptotic analysis
//! glosses over: `n ∈ {0, 1, 2}` for `plan_width`, Union with empty
//! operands, the `arrange_threshold` clamp, and single-element deletes.

use dmpq::DistributedPq;
use meldpq::engine_pram::build_plan_pram;
use meldpq::lazy::LazyBinomialHeap;
use meldpq::plan::{build_plan_seq, plan_width, RootRef};
use meldpq::{MeldablePq, ParBinomialHeap};

#[test]
fn plan_width_small_n() {
    // width = ⌈log2(n1 + n2 + 1)⌉-ish: enough bit positions for the sum.
    assert_eq!(plan_width(0, 0), 0);
    assert_eq!(plan_width(1, 0), 1);
    assert_eq!(plan_width(0, 1), 1);
    assert_eq!(plan_width(1, 1), 2);
    assert_eq!(plan_width(2, 0), 2);
    assert_eq!(plan_width(2, 1), 2);
    assert_eq!(plan_width(2, 2), 3);
}

#[test]
fn union_plan_of_two_empty_heaps_is_empty() {
    let h: Vec<Option<RootRef>> = Vec::new();
    let seq = build_plan_seq(&h, &h);
    assert_eq!(seq.width, 0);
    assert!(seq.links.is_empty());
    assert!(seq.new_roots.is_empty());
    seq.validate().expect("empty plan is valid");
    assert_eq!(seq, build_plan_pram(&h, &h, 3).expect("EREW-legal").plan);
}

#[test]
fn union_plan_with_one_empty_side_copies_the_other() {
    for n in [1usize, 2, 3] {
        let width = plan_width(n, 0);
        let h1: Vec<Option<RootRef>> = (0..width)
            .map(|i| {
                (n >> i & 1 == 1).then_some(RootRef {
                    key: i as i64,
                    id: meldpq::NodeId(i as u32),
                })
            })
            .collect();
        let h2: Vec<Option<RootRef>> = vec![None; width];
        for (a, b) in [(&h1, &h2), (&h2, &h1)] {
            let plan = build_plan_seq(a, b);
            plan.validate().expect("valid");
            assert!(plan.links.is_empty(), "no carries, so no links");
            let occupied: usize = plan
                .new_roots
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_some())
                .map(|(i, _)| 1usize << i)
                .sum();
            assert_eq!(occupied, n);
        }
    }
}

#[test]
fn meld_with_empty_heap_both_directions_all_engines() {
    // empty ⊔ empty
    let mut e: ParBinomialHeap<i64> = ParBinomialHeap::new();
    e.meld(ParBinomialHeap::new());
    assert!(e.min().is_none());
    e.check_invariants().unwrap();

    // nonempty ⊔ empty
    let mut h = ParBinomialHeap::from_keys([3, 1, 2]);
    h.meld(ParBinomialHeap::new());
    h.check_invariants().unwrap();
    assert_eq!(h.min(), Some(1));

    // empty ⊔ nonempty
    let mut e = ParBinomialHeap::new();
    e.meld(ParBinomialHeap::from_keys([3, 1, 2]));
    e.check_invariants().unwrap();
    assert_eq!(e.into_sorted_vec(), vec![1, 2, 3]);
    // Measured PRAM meld with an empty operand.
    let mut h = ParBinomialHeap::from_keys([5, 4]);
    h.meld_pram(ParBinomialHeap::new(), 2);
    h.check_invariants().unwrap();
    let mut e = ParBinomialHeap::new();
    e.meld_pram(ParBinomialHeap::from_keys([5, 4]), 2);
    e.check_invariants().unwrap();
    assert_eq!(e.into_sorted_vec(), vec![4, 5]);
}

#[test]
fn extract_from_empty_heaps_returns_none() {
    let mut h = ParBinomialHeap::new();
    assert_eq!(h.extract_min(), None);
    assert!(h.multi_extract_min(1).is_empty());
    assert_eq!(h.extract_min_pram(2), None);
    let mut l = LazyBinomialHeap::new(2);
    assert_eq!(l.extract_min(), None);
    assert_eq!(l.min(), None);
    let mut d = DistributedPq::new(2, 4);
    assert_eq!(d.extract_min().unwrap(), None);
    assert_eq!(d.min(), None);
}

#[test]
fn lazy_single_element_delete_via_handle() {
    let mut h = LazyBinomialHeap::new(2);
    let id = h.insert(42);
    assert_eq!(h.delete(id), 42);
    assert!(h.is_empty());
    h.check_invariants().unwrap();
    assert_eq!(h.extract_min(), None);
    // The heap stays usable after returning to empty.
    h.insert(7);
    assert_eq!(h.extract_min(), Some(7));
    h.check_invariants().unwrap();
}

#[test]
fn lazy_two_element_deletes_in_both_orders() {
    // Deleting the internal node of the lone B_1 tree trips the (clamped)
    // Arrange-Heap threshold immediately, which rebuilds the arena and
    // invalidates the surviving handle — that invalidation is part of the
    // delete contract, so the second removal must go through liveness
    // re-resolution rather than the stale `NodeId`.
    for first_is_root in [true, false] {
        let mut h = LazyBinomialHeap::new(2);
        let a = h.insert(1);
        let b = h.insert(2);
        let (x, y) = if first_is_root { (a, b) } else { (b, a) };
        let kx = h.delete(x);
        h.check_invariants().unwrap();
        let ky = if h.node_exists(y) && !h.is_empty_node(y) {
            h.delete(y)
        } else {
            h.extract_min().expect("one element must remain")
        };
        h.check_invariants().unwrap();
        let mut got = [kx, ky];
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
        assert!(h.is_empty());
    }
}

#[test]
fn lazy_meld_with_empty_both_directions() {
    let mut a = LazyBinomialHeap::new(2);
    a.insert(1);
    a.meld(LazyBinomialHeap::new(2));
    a.check_invariants().unwrap();
    assert_eq!(a.min(), Some(1));

    let mut e = LazyBinomialHeap::new(2);
    let mut b = LazyBinomialHeap::new(2);
    b.insert(9);
    e.meld(b);
    e.check_invariants().unwrap();
    assert_eq!(e.extract_min(), Some(9));

    let mut e1 = LazyBinomialHeap::new(2);
    e1.meld(LazyBinomialHeap::new(2));
    assert!(e1.is_empty());
    e1.check_invariants().unwrap();
}

#[test]
fn arrange_threshold_is_clamped_and_monotone_enough() {
    // The Theorem 2 threshold ⌊log n / log log n⌋ is meaningless for tiny
    // n (log log n ≤ 1); the implementation clamps n to ≥ 4 and the result
    // to ≥ 1 so the rebuild policy stays well-defined at n ∈ {0, 1, 2}.
    let mut h = LazyBinomialHeap::new(2);
    assert!(h.arrange_threshold() >= 1, "empty heap");
    h.insert(1);
    assert!(h.arrange_threshold() >= 1, "n = 1");
    h.insert(2);
    assert!(h.arrange_threshold() >= 1, "n = 2");
    for k in 3..=1000 {
        h.insert(k);
    }
    // Large n: threshold grows but stays ≪ n.
    let t = h.arrange_threshold();
    assert!(
        (2..100).contains(&t),
        "threshold {t} out of band for n = 1000"
    );
}

#[test]
fn distributed_pq_single_element_lifecycle() {
    let mut d = DistributedPq::new(2, 4);
    d.insert(5).unwrap();
    d.validate().unwrap();
    assert_eq!(d.min(), Some(5));
    assert_eq!(d.extract_min().unwrap(), Some(5));
    assert_eq!(d.extract_min().unwrap(), None);
    d.validate().unwrap();
    // Meld an empty queue into a single-element queue and vice versa.
    let mut a = DistributedPq::new(2, 4);
    a.insert(1).unwrap();
    a.meld(DistributedPq::new(2, 4)).unwrap();
    a.validate().unwrap();
    assert_eq!(a.extract_min().unwrap(), Some(1));
    let mut e = DistributedPq::new(2, 4);
    let mut b = DistributedPq::new(2, 4);
    b.insert(8).unwrap();
    e.meld(b).unwrap();
    e.validate().unwrap();
    assert_eq!(e.extract_min().unwrap(), Some(8));
}
