//! Bulk operations on [`ParBinomialHeap`] — where real threads pay off.
//!
//! A single `Union` touches only `O(log n)` root positions, far below the
//! granularity at which thread dispatch wins (DESIGN.md §5). Bulk builds are
//! different: `from_keys_parallel` now runs on the pooled slab builder
//! ([`HeapPool::from_keys_parallel`]) — every worker writes into a disjoint
//! slice of one pre-sized slab with its `NodeId`s baked against the final
//! base offset, and the halves meld *zero-copy* on the way up. The old
//! tree-of-absorbs (`Θ(n log n)` node moves) is gone; a build of `n` keys
//! performs exactly `n` allocations and zero copies.
//!
//! `multi_extract_min` is a real kernel too: instead of `k` sequential
//! `Extract-Min` rounds (each planning its own union), a root-frontier
//! heap-of-heaps peels the `k` smallest in one pass and re-melds the
//! orphaned subtrees with a single engine-planned union.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::arena::{Arena, NodeId};
use crate::heap::{Engine, ParBinomialHeap};
use crate::pool::{carry_add, HeapPool};

impl ParBinomialHeap<i64> {
    /// `Multi-Insert` planned on the PRAM simulator: the batch is built by
    /// the PRAM `Make-Queue` and melded by the PRAM Union; both costs land on
    /// [`Self::pram_ledger`](ParBinomialHeap::pram_ledger).
    pub fn multi_insert_pram(&mut self, keys: &[i64], p: usize) {
        if keys.is_empty() {
            return;
        }
        let (batch, build_cost) =
            ParBinomialHeap::from_keys_pram(keys, p).expect("EREW-legal build");
        self.add_pram_cost(build_cost);
        self.meld_pram(batch, p);
    }
}

impl<K: Ord + Copy + Send + Sync> ParBinomialHeap<K> {
    /// Build a heap from keys using all rayon workers. Defaults to the
    /// sequential planner for the per-level unions — a single union touches
    /// `O(log n)` positions, below thread-dispatch granularity; the
    /// parallelism comes from building the slab halves concurrently. Use
    /// [`Self::from_keys_parallel_with`] to exercise the rayon planner.
    pub fn from_keys_parallel(keys: &[K]) -> ParBinomialHeap<K> {
        Self::from_keys_parallel_with(keys, Engine::Sequential)
    }

    /// [`Self::from_keys_parallel`] with an explicit planning engine for the
    /// unions up the build tree. Batches below the calibrated admission
    /// cutoff ([`crate::cutoff::batch_bulk_cutoff`]) ripple-insert instead —
    /// the slab staging cost dominates at tiny sizes. Both paths build in a
    /// pool sized for the batch and hand its slab over, so either one makes
    /// exactly `keys.len()` allocations and no copies.
    pub fn from_keys_parallel_with(keys: &[K], engine: Engine) -> ParBinomialHeap<K> {
        Self::from_keys_parallel_at(keys, engine, crate::cutoff::batch_bulk_cutoff())
    }

    /// [`Self::from_keys_parallel_with`] with an explicit admission cutoff
    /// instead of the calibrated one. Differential tests pin the cutoff to
    /// exercise both sides of the threshold in one deterministic program
    /// (the calibrated value is host-dependent and `OnceLock`-cached, so it
    /// cannot be varied within a process).
    #[doc(hidden)]
    pub fn from_keys_parallel_at(
        keys: &[K],
        engine: Engine,
        admission: usize,
    ) -> ParBinomialHeap<K> {
        let mut pool = HeapPool::with_capacity(keys.len());
        let h = if keys.len() < admission {
            pool.from_keys(keys.iter().copied())
        } else {
            pool.from_keys_parallel_with(keys, engine)
        };
        pool.into_heap(h)
    }

    /// Insert a batch of keys at once (parallel build + one meld) — the
    /// shared-memory analogue of the hypercube queue's `Multi-Insert`.
    /// Plans the final meld sequentially; see [`Self::multi_insert_with`].
    pub fn multi_insert(&mut self, keys: &[K]) {
        self.multi_insert_with(keys, Engine::Sequential);
    }

    /// [`Self::multi_insert`] with an explicit planning engine for both the
    /// build-tree unions and the final meld.
    pub fn multi_insert_with(&mut self, keys: &[K], engine: Engine) {
        self.multi_insert_at(keys, engine, crate::cutoff::batch_bulk_cutoff());
    }

    /// [`Self::multi_insert_with`] with an explicit admission cutoff; see
    /// [`Self::from_keys_parallel_at`].
    #[doc(hidden)]
    pub fn multi_insert_at(&mut self, keys: &[K], engine: Engine, admission: usize) {
        if keys.is_empty() {
            return;
        }
        let batch = ParBinomialHeap::from_keys_parallel_at(keys, engine, admission);
        self.meld(batch, engine);
    }

    /// Extract the `k` smallest keys — the shared-memory analogue of
    /// `Multi-Extract-Min`. A root-frontier heap-of-heaps peels the `k`
    /// smallest nodes (ancestor-closed, so exactly the nodes `k` sequential
    /// `Extract-Min`s would remove), then the orphaned subtrees re-meld with
    /// **one** engine-planned union instead of `k`.
    pub fn multi_extract_min(&mut self, k: usize, engine: Engine) -> Vec<K> {
        let take = k.min(self.len());
        if take == 0 {
            return Vec::new();
        }
        let (arena, roots) = self.parts_mut();
        let (out, orphan_roots, orphan_len) = peel_k_smallest(arena, roots, take);
        self.set_len(self.len() - take - orphan_len);
        self.meld_roots_in_arena(orphan_roots, orphan_len, engine);
        self.debug_validate();
        out
    }
}

/// Peel the `take` smallest keys off a forest in one frontier pass.
///
/// The frontier is a min-heap over "nodes whose parent has already been
/// peeled (or who are roots)". By BH1 every parent key ≤ its children's, so
/// the peeled set is ancestor-closed and equals the multiset a sequence of
/// `take` `Extract-Min`s would remove. On return:
///
/// * `roots` holds only the untouched trees (peeled roots' slots cleared),
/// * the second value is a dense root array of the orphaned subtrees
///   (children of peeled nodes, carry-combined to one tree per order),
/// * the third is the total size of those orphans.
///
/// The caller subtracts `take + orphan_len` from its length and melds the
/// orphans back in — one planned union for the whole batch.
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
    for _ in 0..take {
        let Reverse((key, raw)) = frontier.pop().expect("take <= total keys");
        let id = NodeId(raw);
        out.push(key);
        peeled.push(id);
        for &c in &arena.get(id).children {
            frontier.push(Reverse((arena.get(c).key, c.0)));
        }
    }
    // Peeled roots leave the root array; peeled internal nodes die with
    // their subtree bookkeeping (their un-peeled children become orphans —
    // they are exactly the frontier remnant with a parent pointer).
    for &id in &peeled {
        if arena.get(id).parent.is_none() {
            let order = arena.get(id).children.len();
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
        if arena.get(id).parent.is_none() {
            continue; // a surviving root, already in `roots`
        }
        arena.get_mut(id).parent = None;
        let order = arena.get(id).children.len();
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
    use super::*;

    #[test]
    fn tuple_keys_carry_payloads() {
        // (priority, payload) tuples order lexicographically — the idiomatic
        // way to attach data to entries.
        let mut h: ParBinomialHeap<(i32, u32)> = ParBinomialHeap::new();
        h.insert((5, 100));
        h.insert((1, 200));
        h.insert((5, 50));
        h.meld(ParBinomialHeap::from_keys([(0, 9), (3, 7)]), Engine::Rayon);
        h.validate().unwrap();
        assert_eq!(h.extract_min(Engine::Sequential), Some((0, 9)));
        assert_eq!(h.extract_min(Engine::Rayon), Some((1, 200)));
        assert_eq!(h.into_sorted_vec(), vec![(3, 7), (5, 50), (5, 100)]);
    }

    #[test]
    fn parallel_build_equals_sequential_content() {
        let keys: Vec<i64> = (0..100_000)
            .map(|i| (i * 2654435761u64 as i64) % 99991)
            .collect();
        let par = ParBinomialHeap::from_keys_parallel(&keys);
        par.validate().unwrap();
        assert_eq!(par.len(), keys.len());
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(par.into_sorted_vec(), expected);
    }

    #[test]
    fn parallel_build_is_zero_copy() {
        let keys: Vec<i64> = (0..40_000).map(|i| (i * 7919) % 6007).collect();
        let par = ParBinomialHeap::from_keys_parallel_with(&keys, Engine::Rayon);
        par.validate().unwrap();
        assert_eq!(par.arena().stats().allocs, keys.len() as u64);
        assert_eq!(par.arena().stats().copies, 0, "pooled build must not copy");
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(par.into_sorted_vec(), expected);
    }

    #[test]
    fn parallel_build_small_input() {
        let par = ParBinomialHeap::from_keys_parallel(&[3, 1, 2]);
        assert_eq!(par.into_sorted_vec(), vec![1, 2, 3]);
        let empty = ParBinomialHeap::<i64>::from_keys_parallel(&[]);
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
        h.multi_insert(&[10, 20, 30, 40]);
        h.validate().unwrap();
        assert_eq!(h.len(), 7);
        assert_eq!(
            h.multi_extract_min(4, Engine::Sequential),
            vec![10, 20, 30, 40]
        );
        assert_eq!(h.len(), 3);
        // Asking for more than available drains and stops.
        assert_eq!(h.multi_extract_min(10, Engine::Rayon), vec![50, 60, 70]);
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
            let got = fast.multi_extract_min(k, Engine::Rayon);
            fast.validate().unwrap();
            let mut expected = Vec::new();
            for _ in 0..k {
                match slow.extract_min(Engine::Sequential) {
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
        let mut h = ParBinomialHeap::from_keys_parallel(&keys);
        let got = h.multi_extract_min(5_000, Engine::Rayon);
        h.validate().unwrap();
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(got, expected[..5_000]);
        assert_eq!(h.len(), 15_000);
        assert_eq!(h.into_sorted_vec(), expected[5_000..]);
    }
}
