//! The parallel meldable binomial heap (the paper's §3 structure).
//!
//! [`ParBinomialHeap`] is a [`HeapPool`] that holds exactly one
//! [`PooledHeap`], plus a ledger of measured PRAM cost. Every operation
//! delegates to the pool, so the free-standing heap and the service's
//! pooled heaps share one representation, one `Union` path and one
//! validator. `Insert`, `Multi-Insert`, `Extract-Min` and
//! `Multi-Extract-Min` link directly; `Union` plans with the sequential
//! planner ([`crate::plan::build_plan_into`]), or on the PRAM simulator in
//! the `*_pram` methods. Melding two free-standing heaps moves the second
//! one's nodes into the first one's slab (counted as copies); heaps that
//! must meld without copies live in one shared [`HeapPool`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::arena::{Arena, NodeId};
use crate::plan::RootRef;
use crate::pool::{root_refs_into, scan_min, CapacityError, HeapPool, PooledHeap};

/// A meldable priority queue backed by a binomial heap.
///
/// Generic over the key type `K: Ord + Copy` (use a `(priority, payload)`
/// tuple to carry data). The default `K = i64` is the PRAM machine word: the
/// measured engines (`meld_pram`, `from_keys_pram`, …) exist only for
/// word keys, because the simulator stores keys in memory cells.
#[derive(Debug)]
pub struct ParBinomialHeap<K = i64> {
    /// The heap's own pool.
    pool: HeapPool<K>,
    /// The pool's one heap.
    heap: PooledHeap,
    /// Cumulative Theorem-1 cost of every op planned on the PRAM simulator
    /// (`*_pram` methods; `i64` keys only). `pram::Cost` implements
    /// [`obs::Recorder`], so this ledger snapshots straight into a registry.
    ledger: pram::Cost,
}

impl<K> Default for ParBinomialHeap<K> {
    fn default() -> Self {
        Self::in_pool(HeapPool::new())
    }
}

impl<K: Clone> Clone for ParBinomialHeap<K> {
    fn clone(&self) -> Self {
        let (pool, heap) = self.pool.fork(&self.heap);
        ParBinomialHeap {
            pool,
            heap,
            ledger: self.ledger,
        }
    }
}

impl<K> ParBinomialHeap<K> {
    /// An empty heap owning `pool`.
    fn in_pool(pool: HeapPool<K>) -> Self {
        let heap = pool.new_heap();
        ParBinomialHeap {
            pool,
            heap,
            ledger: pram::Cost::ZERO,
        }
    }
}

impl<K: Ord + Copy> ParBinomialHeap<K> {
    /// `Make-Queue`: an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from keys by repeated insertion.
    pub fn from_keys<I: IntoIterator<Item = K>>(keys: I) -> Self {
        let mut h = Self::new();
        h.heap = h.pool.from_keys(keys);
        h
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Borrow the arena (read-only; used by engines and tests).
    pub fn arena(&self) -> &Arena<K> {
        self.pool.arena()
    }

    /// Borrow the root array.
    pub fn roots(&self) -> &[Option<NodeId>] {
        self.heap.roots()
    }

    /// Orders of the trees present (the set bits of `len`).
    pub fn root_orders(&self) -> Vec<usize> {
        self.roots()
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|_| i))
            .collect()
    }

    /// Root references padded to `width` (engine input).
    pub fn root_refs(&self, width: usize) -> Vec<Option<RootRef<K>>> {
        let mut out = Vec::with_capacity(width);
        root_refs_into(self.arena(), self.roots(), width, &mut out);
        out
    }

    /// `Insert(Q, x)`: a ripple-carry increment of the root array.
    pub fn insert(&mut self, key: K) {
        self.pool.insert(&mut self.heap, key);
    }

    /// `Min(Q)`: the minimum key (always at some root by BH1).
    pub fn min(&self) -> Option<K> {
        self.pool.min(&self.heap)
    }

    /// The root holding the minimum key (ties to the lowest order): the
    /// cached min, `O(1)`.
    pub fn min_root(&self) -> Option<NodeId> {
        self.pool.min_root(&self.heap)
    }

    /// The uncached `O(log n)` scan over the root array, which the cached
    /// [`Self::min_root`] always equals (kept public so the wallclock bench
    /// can race the two).
    pub fn min_root_scan(&self) -> Option<NodeId> {
        scan_min(self.arena(), self.roots())
    }

    /// `Extract-Min(Q)`: remove and return the minimum key. The children of
    /// the removed root — exactly `B_0, …, B_{k-1}` — carry back into the
    /// root array in one pass ([`HeapPool::extract_min`]).
    pub fn extract_min(&mut self) -> Option<K> {
        self.pool.extract_min(&mut self.heap)
    }

    /// `Union(Q1, Q2)`: move `other`'s nodes into this heap's slab, then
    /// meld the two root arrays.
    pub fn meld(&mut self, mut other: ParBinomialHeap<K>) {
        self.pool
            .meld_cross_pool(&mut self.heap, &mut other.pool, other.heap);
    }

    /// `Multi-Insert`: the keys ripple into this heap's slab through
    /// [`HeapPool::multi_insert`], building exactly the trees of an
    /// [`Self::insert`] loop. A batch that would overflow the `u32` node-id
    /// space is refused whole with [`CapacityError`].
    pub fn multi_insert(&mut self, keys: &[K]) -> Result<(), CapacityError> {
        self.pool.multi_insert(&mut self.heap, keys)
    }

    /// Extract the `k` smallest keys — the shared-memory analogue of
    /// `Multi-Extract-Min`: `k` [`Self::extract_min`] rounds through
    /// [`HeapPool::multi_extract_min`].
    pub fn multi_extract_min(&mut self, k: usize) -> Vec<K> {
        self.pool.multi_extract_min(&mut self.heap, k)
    }

    /// Iterate over all stored keys in arbitrary (arena) order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.arena().iter().map(|(_, n)| n.key)
    }

    /// Drain into ascending order.
    pub fn into_sorted_vec(mut self) -> Vec<K> {
        self.pool.into_sorted_vec(self.heap)
    }

    /// Verify BH1 (heap order), BH2 (tree shapes & one tree per order),
    /// parent pointers, the cached min and size bookkeeping
    /// ([`HeapPool::validate_heap`]), and that the slab holds no node
    /// outside the heap.
    pub fn validate(&self) -> Result<(), String> {
        self.pool.validate_heap(&self.heap)?;
        if self.pool.live_nodes() != self.len() {
            return Err(format!(
                "arena holds {} nodes for {} keys",
                self.pool.live_nodes(),
                self.len()
            ));
        }
        Ok(())
    }
}

impl ParBinomialHeap<i64> {
    /// Cumulative Theorem-1 cost of every `*_pram` op run so far. The
    /// returned [`pram::Cost`] implements `obs::Recorder`, so callers report
    /// it straight into an `obs::Registry`:
    ///
    /// ```
    /// # let mut h = meldpq::ParBinomialHeap::new();
    /// # h.insert_pram(3, 2);
    /// let mut reg = obs::Registry::new();
    /// reg.record("union", h.pram_ledger());
    /// ```
    pub fn pram_ledger(&self) -> &pram::Cost {
        &self.ledger
    }

    /// Take the ledger, resetting it to zero (per-window deltas).
    pub fn take_pram_ledger(&mut self) -> pram::Cost {
        std::mem::take(&mut self.ledger)
    }

    /// `Union(Q1, Q2)` planned on the EREW PRAM simulator with `p`
    /// processors; the measured Theorem-1 cost lands on [`Self::pram_ledger`].
    /// `other`'s nodes move into this heap's slab first, unmeasured.
    pub fn meld_pram(&mut self, mut other: ParBinomialHeap, p: usize) {
        let moved = self.pool.move_in(&mut other.pool, other.heap);
        self.ledger += self.pool.meld_pram(&mut self.heap, moved, p);
    }

    /// `Insert(Q, x)` planned on the PRAM simulator (a singleton `Union`);
    /// cost lands on [`Self::pram_ledger`].
    pub fn insert_pram(&mut self, key: i64, p: usize) {
        self.ledger += self.pool.insert_pram(&mut self.heap, key, p);
    }

    /// `Extract-Min(Q)` planned on the PRAM simulator: an EREW min-reduction
    /// over the root array plus the children re-meld, both measured onto
    /// [`Self::pram_ledger`].
    pub fn extract_min_pram(&mut self, p: usize) -> Option<i64> {
        let (min, cost) = self.pool.extract_min_pram(&mut self.heap, p);
        self.ledger += cost;
        min
    }

    /// `Multi-Insert` planned on the PRAM simulator: the batch is built in
    /// this heap's slab by the PRAM `Make-Queue` and melded by the PRAM
    /// Union; both costs land on [`Self::pram_ledger`].
    pub fn multi_insert_pram(&mut self, keys: &[i64], p: usize) {
        if keys.is_empty() {
            return;
        }
        let (batch, build_cost) = match self.pool.build_pram(keys, p) {
            Ok(built) => built,
            // One processor per disjoint pair in every round: never a
            // conflict (see `crate::build`).
            Err(e) => unreachable!("the Make-Queue program is EREW-legal: {e}"),
        };
        self.ledger += build_cost;
        self.ledger += self.pool.meld_pram(&mut self.heap, batch, p);
    }

    /// Build a heap from `keys` with the linking rounds executed (and
    /// metered) on a `p`-processor EREW PRAM (see [`crate::build`]).
    /// Returns the heap and the measured cost; the heap's ledger starts at
    /// zero.
    pub fn from_keys_pram(keys: &[i64], p: usize) -> Result<(Self, pram::Cost), pram::PramError> {
        let mut h = Self::in_pool(HeapPool::with_capacity(keys.len()));
        let (heap, cost) = h.pool.build_pram(keys, p)?;
        h.heap = heap;
        Ok((h, cost))
    }
}

impl<K: Ord + Copy> FromIterator<K> for ParBinomialHeap<K> {
    fn from_iter<T: IntoIterator<Item = K>>(iter: T) -> Self {
        ParBinomialHeap::from_keys(iter)
    }
}

impl<K: Ord + Copy> Extend<K> for ParBinomialHeap<K> {
    fn extend<T: IntoIterator<Item = K>>(&mut self, iter: T) {
        for k in iter {
            self.insert(k);
        }
    }
}

impl<K: Ord + Copy> IntoIterator for ParBinomialHeap<K> {
    type Item = K;
    type IntoIter = std::vec::IntoIter<K>;

    /// Consume the heap, yielding keys in ascending order.
    fn into_iter(self) -> Self::IntoIter {
        self.into_sorted_vec().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_trait_impls() {
        let mut h: ParBinomialHeap = [4i64, 1, 3].into_iter().collect();
        h.extend([2i64, 0]);
        let drained: Vec<i64> = h.into_iter().collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn validate_detects_heap_order_corruption() {
        let mut h = ParBinomialHeap::from_keys(0..8);
        let root = h.roots()[3].expect("B_3 root");
        let child = h.arena().children_ascending(root)[0];
        h.pool.arena_mut().get_mut(child).key = -100;
        assert!(h.validate().unwrap_err().contains("heap order"));
    }

    #[test]
    fn validate_detects_parent_pointer_corruption() {
        let mut h = ParBinomialHeap::from_keys(0..8);
        let root = h.roots()[3].expect("B_3 root");
        let child = h.arena().children_ascending(root)[1];
        h.pool.arena_mut().get_mut(child).parent = crate::arena::NIL;
        assert!(h.validate().unwrap_err().contains("parent"));
    }

    #[test]
    fn validate_detects_len_corruption() {
        let mut h = ParBinomialHeap::from_keys(0..8);
        h.heap = h.pool.restore_heap(h.roots().to_vec(), 9);
        assert!(h.validate().is_err());
    }

    #[test]
    fn insert_extract_roundtrip() {
        let mut h = ParBinomialHeap::new();
        for k in [5, 1, 4, 2, 3] {
            h.insert(k);
            h.validate().unwrap();
        }
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.into_sorted_vec(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn meld_sequential_matches_binary_addition() {
        let mut a = ParBinomialHeap::from_keys(0..11);
        let b = ParBinomialHeap::from_keys(100..105);
        a.meld(b);
        assert_eq!(a.len(), 16);
        assert_eq!(a.root_orders(), vec![4]);
        a.validate().unwrap();
        assert_eq!(a.into_sorted_vec().len(), 16);
    }

    #[test]
    fn extract_min_across_melds() {
        let mut a = ParBinomialHeap::from_keys([9, 7, 5]);
        let b = ParBinomialHeap::from_keys([8, 6, 4]);
        a.meld(b);
        a.validate().unwrap();
        let mut out = Vec::new();
        while let Some(k) = a.extract_min() {
            a.validate().unwrap();
            out.push(k);
        }
        assert_eq!(out, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn empty_meld_cases() {
        let mut e: ParBinomialHeap = ParBinomialHeap::new();
        e.meld(ParBinomialHeap::new());
        assert!(e.is_empty());
        let mut a = ParBinomialHeap::from_keys([1]);
        a.meld(ParBinomialHeap::new());
        assert_eq!(a.len(), 1);
        let mut e2 = ParBinomialHeap::new();
        e2.meld(a);
        assert_eq!(e2.len(), 1);
        assert_eq!(e2.min(), Some(1));
    }

    #[test]
    fn min_cache_tracks_scan_through_all_mutators() {
        let mut h = ParBinomialHeap::new();
        // Insert / extract keep the cache warm and correct.
        for k in [13i64, 4, 9, 4, 22, -3, 17, 0] {
            h.insert(k);
            assert_eq!(h.min_root(), h.min_root_scan(), "cache after insert");
            h.validate().unwrap();
        }
        assert_eq!(h.extract_min(), Some(-3));
        assert_eq!(h.min_root(), h.min_root_scan(), "cache after extract");
        // Melds (both directions, including meld-into-empty) refresh it.
        let mut e = ParBinomialHeap::new();
        e.meld(ParBinomialHeap::from_keys([-7, 5]));
        assert_eq!(e.min_root(), e.min_root_scan(), "cache after empty-meld");
        h.meld(e);
        assert_eq!(h.min_root(), h.min_root_scan(), "cache after meld");
        assert_eq!(h.min(), Some(-7));
        // PRAM ops refresh it too.
        h.insert_pram(-9, 3);
        assert_eq!(h.min_root(), h.min_root_scan(), "cache after insert_pram");
        assert_eq!(h.extract_min_pram(3), Some(-9));
        assert_eq!(h.min_root(), h.min_root_scan(), "cache after extract_pram");
        // A clone gets its own pool, with the cache intact.
        let c = h.clone();
        assert_eq!(c.min_root(), c.min_root_scan(), "cache after clone");
        c.validate().unwrap();
        h.validate().unwrap();
    }

    #[test]
    fn pram_ops_match_unmeasured_semantics() {
        let mut a = ParBinomialHeap::from_keys([5, 9, 1, 7, 3]);
        let b = ParBinomialHeap::from_keys([2, 8, 4, 6]);
        a.meld_pram(b, 3);
        assert!(a.pram_ledger().time > 0);
        a.validate().unwrap();
        let before = *a.pram_ledger();
        a.insert_pram(0, 3);
        assert!(a.pram_ledger().time > before.time);
        a.validate().unwrap();
        let mut out = Vec::new();
        while let Some(k) = a.extract_min_pram(3) {
            out.push(k);
            a.validate().unwrap();
        }
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        let total = a.take_pram_ledger();
        assert!(total.work >= total.time);
        assert_eq!(*a.pram_ledger(), pram::Cost::ZERO);
    }

    #[test]
    fn duplicates_supported() {
        let h = ParBinomialHeap::from_keys([3, 3, 3, 1, 1]);
        h.validate().unwrap();
        assert_eq!(h.into_sorted_vec(), vec![1, 1, 3, 3, 3]);
    }

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
        // Multi-Extract-Min returns exactly what k sequential Extract-Mins
        // return, for every k, duplicates included.
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
