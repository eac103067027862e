//! The `Multi-Extract-Min` kernel: whole-batch work instead of `k` rounds.
//!
//! `Multi-Insert` needs no kernel of its own:
//! [`HeapPool::multi_insert`](crate::HeapPool::multi_insert) ripples each
//! key in as `Insert` does (amortised `O(1)` links per key), so a batch of
//! `n` keys performs exactly `n` allocations, zero copies and no plan.
//!
//! `Multi-Extract-Min` does have one: instead of `k` sequential
//! `Extract-Min` rounds, a root-frontier heap-of-heaps peels the `k`
//! smallest in one pass (`peel_k_smallest`), and the orphaned subtrees
//! re-meld with a single planned union. `HeapPool` and
//! [`ParBinomialHeap`](crate::ParBinomialHeap) both run it through
//! `HeapPool::multi_extract_min`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::arena::{Arena, NodeId, NIL};
use crate::pool::carry_add;

/// Peel the `take` smallest keys off a forest in one frontier pass (all of
/// them if the forest holds fewer; the caller passes `take ≤` its length).
///
/// The frontier is a min-heap over "nodes whose parent has already been
/// peeled (or who are roots)". By BH1 every parent key ≤ its children's, so
/// the peeled set is ancestor-closed and equals the multiset a sequence of
/// `take` `Extract-Min`s would remove. On return:
///
/// * the first value holds the peeled keys in ascending order,
/// * `roots` holds only the untouched trees (peeled roots' slots cleared),
/// * the second value is a dense root array of the orphaned subtrees
///   (children of peeled nodes, carry-combined to one tree per order),
/// * the third is the total size of those orphans.
///
/// The caller subtracts the peeled count plus `orphan_len` from its length
/// and melds the orphans back in — one planned union for the whole batch.
pub(crate) fn peel_k_smallest<K: Ord + Copy>(
    arena: &mut Arena<K>,
    roots: &mut Vec<Option<NodeId>>,
    take: usize,
) -> (Vec<K>, Vec<Option<NodeId>>, usize) {
    let mut frontier: BinaryHeap<Reverse<(K, u32)>> = roots
        .iter()
        .flatten()
        .map(|id| Reverse((arena.get(*id).key, id.0)))
        .collect();
    let mut out = Vec::with_capacity(take);
    let mut peeled = Vec::with_capacity(take);
    while out.len() < take {
        let Some(Reverse((key, raw))) = frontier.pop() else {
            break;
        };
        let id = NodeId(raw);
        out.push(key);
        peeled.push(id);
        // Ascending, as the frontier's final order (and so the orphans'
        // carry order below) depends on the push order.
        for &c in arena.children_ascending(id).iter() {
            frontier.push(Reverse((arena.get(c).key, c.0)));
        }
    }
    // Peeled roots leave the root array; peeled internal nodes die with
    // their subtree bookkeeping (their un-peeled children become orphans —
    // they are exactly the frontier remnant with a parent pointer).
    for &id in &peeled {
        let n = arena.get(id);
        if n.parent().is_none() {
            let order = n.degree();
            debug_assert_eq!(roots[order], Some(id));
            roots[order] = None;
        }
    }
    while matches!(roots.last(), Some(None)) {
        roots.pop();
    }
    let mut orphan_len = 0usize;
    let mut comb: Vec<Option<NodeId>> = Vec::new();
    for Reverse((_, raw)) in frontier.into_vec() {
        let id = NodeId(raw);
        let n = arena.get_mut(id);
        if n.parent().is_none() {
            continue; // a surviving root, already in `roots`
        }
        n.parent = NIL;
        n.sibling = NIL;
        let order = n.degree();
        orphan_len += 1usize << order;
        // Ripple-carry the orphan into `comb`: orders collide across
        // different peeled parents, so link equal-order pairs as we go.
        carry_add(arena, &mut comb, &[id], order);
    }
    for id in peeled {
        arena.dealloc(id);
    }
    (out, comb, orphan_len)
}

#[cfg(test)]
mod tests {
    use crate::ParBinomialHeap;

    /// A heap built by one `multi_insert` into an empty heap.
    fn batch(keys: &[i64]) -> ParBinomialHeap {
        let mut h = ParBinomialHeap::new();
        h.multi_insert(keys).unwrap();
        h
    }

    #[test]
    fn tuple_keys_carry_payloads() {
        // (priority, payload) tuples order lexicographically — the idiomatic
        // way to attach data to entries.
        let mut h: ParBinomialHeap<(i32, u32)> = ParBinomialHeap::new();
        h.insert((5, 100));
        h.insert((1, 200));
        h.insert((5, 50));
        h.meld(ParBinomialHeap::from_keys([(0, 9), (3, 7)]));
        h.validate().unwrap();
        assert_eq!(h.extract_min(), Some((0, 9)));
        assert_eq!(h.extract_min(), Some((1, 200)));
        assert_eq!(h.into_sorted_vec(), vec![(3, 7), (5, 50), (5, 100)]);
    }

    #[test]
    fn parallel_build_equals_sequential_content() {
        let keys: Vec<i64> = (0..100_000)
            .map(|i| (i * 2654435761u64 as i64) % 99991)
            .collect();
        let par = batch(&keys);
        par.validate().unwrap();
        assert_eq!(par.len(), keys.len());
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(par.into_sorted_vec(), expected);
    }

    #[test]
    fn parallel_build_is_zero_copy() {
        let keys: Vec<i64> = (0..40_000).map(|i| (i * 7919) % 6007).collect();
        let par = batch(&keys);
        par.validate().unwrap();
        assert_eq!(par.arena().stats().allocs, keys.len() as u64);
        assert_eq!(par.arena().stats().copies, 0, "multi_insert must not copy");
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(par.into_sorted_vec(), expected);
    }

    #[test]
    fn parallel_build_small_input() {
        let par = batch(&[3, 1, 2]);
        assert_eq!(par.into_sorted_vec(), vec![1, 2, 3]);
        let empty = batch(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn measured_multi_insert() {
        let mut h = ParBinomialHeap::from_keys([100, 200, 300]);
        h.multi_insert_pram(&[5, 1, 4, 1, 5], 3);
        let c = *h.pram_ledger();
        assert!(c.time > 0 && c.work >= c.time);
        h.validate().unwrap();
        assert_eq!(h.len(), 8);
        assert_eq!(h.min(), Some(1));
    }

    #[test]
    fn multi_insert_and_extract() {
        let mut h = ParBinomialHeap::from_keys([50, 60, 70]);
        h.multi_insert(&[10, 20, 30, 40]).unwrap();
        h.validate().unwrap();
        assert_eq!(h.len(), 7);
        assert_eq!(h.multi_extract_min(4), vec![10, 20, 30, 40]);
        assert_eq!(h.len(), 3);
        // Asking for more than available drains and stops.
        assert_eq!(h.multi_extract_min(10), vec![50, 60, 70]);
        assert!(h.is_empty());
    }

    #[test]
    fn multi_extract_matches_sequential_extracts() {
        // The frontier peel must produce exactly what k sequential
        // Extract-Mins produce, for every k, duplicates included.
        let keys: Vec<i64> = (0..300).map(|i| (i * 37) % 53).collect();
        for k in [0usize, 1, 2, 7, 64, 255, 300, 400] {
            let mut fast = ParBinomialHeap::from_keys(keys.iter().copied());
            let mut slow = ParBinomialHeap::from_keys(keys.iter().copied());
            let got = fast.multi_extract_min(k);
            fast.validate().unwrap();
            let mut expected = Vec::new();
            for _ in 0..k {
                match slow.extract_min() {
                    Some(x) => expected.push(x),
                    None => break,
                }
            }
            assert_eq!(got, expected, "k={k}");
            assert_eq!(fast.len(), slow.len(), "k={k}");
            assert_eq!(fast.into_sorted_vec(), slow.into_sorted_vec(), "k={k}");
        }
    }

    #[test]
    fn multi_extract_with_engine_on_large_heap() {
        let keys: Vec<i64> = (0..20_000)
            .map(|i| (i * 2654435761u64 as i64) % 9973)
            .collect();
        let mut h = batch(&keys);
        let got = h.multi_extract_min(5_000);
        h.validate().unwrap();
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(got, expected[..5_000]);
        assert_eq!(h.len(), 15_000);
        assert_eq!(h.into_sorted_vec(), expected[5_000..]);
    }
}
