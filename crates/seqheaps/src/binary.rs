//! `std::collections::BinaryHeap` behind the [`MeldablePq`] trait.
//!
//! The implicit binary heap is *not* efficiently meldable: `meld` here is the
//! best available strategy (drain the smaller heap into the larger —
//! "smaller-into-larger", `O(m log n)`), which experiment W1 contrasts with the
//! `O(log n)` melds of the tree heaps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::stats::OpStats;
use crate::traits::MeldablePq;

/// Min-heap adapter over `std`'s max-`BinaryHeap`.
#[derive(Debug)]
pub struct BinaryHeapAdapter<K: Ord> {
    inner: BinaryHeap<Reverse<K>>,
    stats: OpStats,
}

impl<K: Ord + Clone> Clone for BinaryHeapAdapter<K> {
    fn clone(&self) -> Self {
        BinaryHeapAdapter {
            inner: self.inner.clone(),
            stats: self.stats.clone(),
        }
    }
}

impl<K: Ord> Default for BinaryHeapAdapter<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord> BinaryHeapAdapter<K> {
    /// `Make-Queue`: an empty heap.
    pub fn new() -> Self {
        BinaryHeapAdapter {
            inner: BinaryHeap::new(),
            stats: OpStats::new(),
        }
    }

    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }
}

impl<K: Ord + Copy> MeldablePq<K> for BinaryHeapAdapter<K> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn insert(&mut self, key: K) {
        // Charge the sift-up path: at most floor(log2(n+1)) comparisons.
        let depth = (self.inner.len() + 1).ilog2() as u64;
        self.stats.add_comparisons(depth.max(1));
        self.inner.push(Reverse(key));
    }

    fn peek_min(&mut self) -> Option<K> {
        self.inner.peek().map(|Reverse(k)| *k)
    }

    fn extract_min(&mut self) -> Option<K> {
        if self.inner.len() > 1 {
            self.stats
                .add_comparisons(2 * (self.inner.len().ilog2() as u64).max(1));
        }
        self.inner.pop().map(|Reverse(k)| k)
    }

    fn meld(&mut self, mut other: Self) {
        self.stats.absorb(&other.stats);
        // Smaller-into-larger: keep the bigger backing heap.
        if other.inner.len() > self.inner.len() {
            std::mem::swap(&mut self.inner, &mut other.inner);
        }
        let m = other.inner.len() as u64;
        if m > 0 {
            let depth = (self.inner.len().max(1)).ilog2() as u64 + 1;
            self.stats.add_comparisons(m * depth);
            self.stats.add_link();
        }
        self.inner.extend(other.inner.drain());
    }

    /// The implicit-heap order of `std`'s backing array: no parent above
    /// its children (in min order).
    fn check_invariants(&self) -> Result<(), String> {
        let a = self.inner.as_slice();
        match (1..a.len()).find(|&i| a[(i - 1) / 2] < a[i]) {
            Some(i) => Err(format!("binary: slot {i} sorts below its parent")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_as_min_heap() {
        let mut h = BinaryHeapAdapter::new();
        for k in [5, 1, 4, 2, 3] {
            h.insert(k);
        }
        assert_eq!(h.peek_min(), Some(1));
        h.check_invariants().expect("heap order");
        assert_eq!(h.drain_sorted(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn meld_keeps_larger_backing_store() {
        let mut small = BinaryHeapAdapter::new();
        small.insert(7);
        let mut big = BinaryHeapAdapter::new();
        big.multi_insert(&[1, 2, 3, 4, 5, 6]);
        small.meld(big);
        assert_eq!(small.len(), 7);
        assert_eq!(small.extract_min(), Some(1));
    }
}
