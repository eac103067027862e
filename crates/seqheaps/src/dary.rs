//! Implicit d-ary heap — the cache-friendly practical baseline.
//!
//! Like the binary-heap adapter it is *not* efficiently meldable (meld =
//! smaller-into-larger reinsertion), but with a wider fan-out (`D = 4` or
//! `8`) it trades deeper sift-downs for shallower trees and fewer cache
//! misses, which is the configuration practitioners actually deploy. W1
//! contrasts it with the meldable structures.

use std::collections::HashMap;

use crate::decrease::{mint, PqHandle};
use crate::stats::OpStats;
use crate::traits::{DecreaseKeyPq, MeldablePq};

/// An implicit min-heap with fan-out `D`.
#[derive(Debug)]
pub struct DaryHeap<K, const D: usize> {
    items: Vec<K>,
    stats: OpStats,
}

impl<K: Clone, const D: usize> Clone for DaryHeap<K, D> {
    fn clone(&self) -> Self {
        DaryHeap {
            items: self.items.clone(),
            stats: self.stats.clone(),
        }
    }
}

impl<K: Ord, const D: usize> Default for DaryHeap<K, D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, const D: usize> DaryHeap<K, D> {
    /// `Make-Queue`: an empty heap.
    pub fn new() -> Self {
        assert!(D >= 2, "fan-out must be at least 2");
        DaryHeap {
            items: Vec::new(),
            stats: OpStats::new(),
        }
    }

    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / D;
            self.stats.add_comparisons(1);
            if self.items[i] < self.items[parent] {
                self.items.swap(i, parent);
                self.stats.add_link();
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.items.len();
        loop {
            let first = i * D + 1;
            if first >= n {
                break;
            }
            let mut best = first;
            for c in first + 1..(first + D).min(n) {
                self.stats.add_comparisons(1);
                if self.items[c] < self.items[best] {
                    best = c;
                }
            }
            self.stats.add_comparisons(1);
            if self.items[best] < self.items[i] {
                self.items.swap(i, best);
                self.stats.add_link();
                i = best;
            } else {
                break;
            }
        }
    }
}

impl<K: Ord + Copy, const D: usize> MeldablePq<K> for DaryHeap<K, D> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn insert(&mut self, key: K) {
        self.items.push(key);
        self.sift_up(self.items.len() - 1);
    }

    fn peek_min(&mut self) -> Option<K> {
        self.items.first().copied()
    }

    fn extract_min(&mut self) -> Option<K> {
        if self.items.is_empty() {
            return None;
        }
        let last = self.items.len() - 1;
        self.items.swap(0, last);
        let out = self.items.pop();
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        out
    }

    fn meld(&mut self, mut other: Self) {
        self.stats.absorb(&other.stats);
        if other.items.len() > self.items.len() {
            std::mem::swap(&mut self.items, &mut other.items);
        }
        for k in other.items.drain(..) {
            self.items.push(k);
            let last = self.items.len() - 1;
            self.sift_up(last);
        }
    }

    /// Check the heap property over the whole array.
    fn check_invariants(&self) -> Result<(), String> {
        for i in 1..self.items.len() {
            if self.items[i] < self.items[(i - 1) / D] {
                return Err(format!("heap property violated at index {i}"));
            }
        }
        Ok(())
    }
}

/// An implicit d-ary min-heap with a position index for `decrease_key`.
///
/// Entries carry an optional tracked-element id; a side map `id → array
/// index` is maintained across every swap, so `decrease_key` is a direct
/// O(log_D n) sift-up from the element's current slot — the structure
/// Dijkstra implementations actually deploy when decrease volume is high.
/// Untracked entries (plain `insert`) pay nothing beyond one `None` tag.
#[derive(Debug, Clone)]
pub struct IndexedDaryHeap<K, const D: usize> {
    items: Vec<(K, Option<PqHandle>)>,
    pos: HashMap<PqHandle, usize>,
    stats: OpStats,
}

impl<K: Ord, const D: usize> Default for IndexedDaryHeap<K, D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, const D: usize> IndexedDaryHeap<K, D> {
    /// `Make-Queue`: an empty heap.
    pub fn new() -> Self {
        assert!(D >= 2, "fan-out must be at least 2");
        IndexedDaryHeap {
            items: Vec::new(),
            pos: HashMap::new(),
            stats: OpStats::new(),
        }
    }

    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    fn swap_entries(&mut self, i: usize, j: usize) {
        self.items.swap(i, j);
        if let Some(h) = self.items[i].1 {
            self.pos.insert(h, i);
        }
        if let Some(h) = self.items[j].1 {
            self.pos.insert(h, j);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / D;
            self.stats.add_comparisons(1);
            if self.items[i].0 < self.items[parent].0 {
                self.swap_entries(i, parent);
                self.stats.add_link();
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.items.len();
        loop {
            let first = i * D + 1;
            if first >= n {
                break;
            }
            let mut best = first;
            for c in first + 1..(first + D).min(n) {
                self.stats.add_comparisons(1);
                if self.items[c].0 < self.items[best].0 {
                    best = c;
                }
            }
            self.stats.add_comparisons(1);
            if self.items[best].0 < self.items[i].0 {
                self.swap_entries(i, best);
                self.stats.add_link();
                i = best;
            } else {
                break;
            }
        }
    }
}

impl<K: Ord + Copy, const D: usize> MeldablePq<K> for IndexedDaryHeap<K, D> {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn insert(&mut self, key: K) {
        self.items.push((key, None));
        self.sift_up(self.items.len() - 1);
    }

    fn peek_min(&mut self) -> Option<K> {
        self.items.first().map(|e| e.0)
    }

    fn extract_min(&mut self) -> Option<K> {
        if self.items.is_empty() {
            return None;
        }
        let last = self.items.len() - 1;
        self.swap_entries(0, last);
        let (key, item) = self.items.pop()?;
        if let Some(h) = item {
            self.pos.remove(&h);
        }
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        Some(key)
    }

    fn meld(&mut self, mut other: Self) {
        self.stats.absorb(&other.stats);
        if other.items.len() > self.items.len() {
            std::mem::swap(&mut self.items, &mut other.items);
            std::mem::swap(&mut self.pos, &mut other.pos);
        }
        for (k, item) in other.items.drain(..) {
            self.items.push((k, item));
            let last = self.items.len() - 1;
            if let Some(h) = item {
                self.pos.insert(h, last);
            }
            self.sift_up(last);
        }
    }

    /// Check the heap property and the position-index mirror.
    fn check_invariants(&self) -> Result<(), String> {
        for i in 1..self.items.len() {
            if self.items[i].0 < self.items[(i - 1) / D].0 {
                return Err(format!("indexed: heap property violated at index {i}"));
            }
        }
        let tagged = self.items.iter().filter(|e| e.1.is_some()).count();
        if tagged != self.pos.len() {
            return Err("indexed: position map size mismatch".into());
        }
        for (i, (_, item)) in self.items.iter().enumerate() {
            if let Some(h) = item {
                if self.pos.get(h) != Some(&i) {
                    return Err(format!("indexed: stale position for item {}", h.raw()));
                }
            }
        }
        Ok(())
    }
}

impl<K: Ord + Copy, const D: usize> DecreaseKeyPq<K> for IndexedDaryHeap<K, D> {
    fn insert_handle(&mut self, key: K) -> PqHandle {
        let h = mint();
        self.items.push((key, Some(h)));
        let last = self.items.len() - 1;
        self.pos.insert(h, last);
        self.sift_up(last);
        h
    }

    fn decrease_key(&mut self, h: PqHandle, new_key: K) -> bool {
        let Some(&i) = self.pos.get(&h) else {
            return false;
        };
        self.stats.add_comparisons(1);
        if new_key > self.items[i].0 {
            return false;
        }
        self.items[i].0 = new_key;
        self.sift_up(i);
        true
    }

    fn key_of_handle(&self, h: PqHandle) -> Option<K> {
        let i = *self.pos.get(&h)?;
        Some(self.items[i].0)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    type Quad = DaryHeap<i64, 4>;
    type Oct = DaryHeap<i64, 8>;

    #[test]
    fn sorts_correctly_at_multiple_arities() {
        let keys = [9i64, -3, 7, 7, 0, 12, -3, 5, 1];
        let mut expected = keys.to_vec();
        expected.sort_unstable();
        let mut quad = Quad::new();
        quad.multi_insert(&keys);
        assert_eq!(quad.drain_sorted(), expected);
        let mut oct = Oct::new();
        oct.multi_insert(&keys);
        assert_eq!(oct.drain_sorted(), expected);
        let mut bin = DaryHeap::<i64, 2>::new();
        bin.multi_insert(&keys);
        assert_eq!(bin.drain_sorted(), expected);
    }

    #[test]
    fn validate_passes_through_random_ops() {
        let mut h = Quad::new();
        for k in [5, 3, 9, 1, 7, 2, 8, 0, 6, 4] {
            h.insert(k);
            h.check_invariants().unwrap();
        }
        while h.extract_min().is_some() {
            h.check_invariants().unwrap();
        }
    }

    #[test]
    fn meld_keeps_larger_side() {
        let mut small = Quad::new();
        small.insert(100);
        let mut big = Quad::new();
        big.multi_insert(&[1, 2, 3, 4, 5]);
        small.meld(big);
        small.check_invariants().unwrap();
        assert_eq!(small.len(), 6);
        assert_eq!(small.extract_min(), Some(1));
    }

    #[test]
    fn indexed_sorts_and_tracks_positions() {
        let mut h: IndexedDaryHeap<i64, 4> = IndexedDaryHeap::new();
        let keys = [9i64, -3, 7, 7, 0, 12, -3, 5, 1];
        for k in keys {
            h.insert(k);
            h.check_invariants().expect("valid");
        }
        let mut expected = keys.to_vec();
        expected.sort_unstable();
        assert_eq!(h.drain_sorted(), expected);
    }

    #[test]
    fn indexed_decrease_key_sifts_up() {
        let mut h: IndexedDaryHeap<i64, 4> = IndexedDaryHeap::new();
        for k in 0..64 {
            h.insert(k + 10);
        }
        let t = h.insert_handle(1000);
        assert!(h.decrease_key(t, -5));
        h.check_invariants().expect("valid after decrease");
        assert_eq!(h.key_of_handle(t), Some(-5));
        assert_eq!(h.extract_min(), Some(-5));
        assert_eq!(h.key_of_handle(t), None);
        assert!(!h.decrease_key(t, -9), "stale handle must refuse");
    }

    #[test]
    fn indexed_handles_survive_meld() {
        let mut a: IndexedDaryHeap<i64, 4> = IndexedDaryHeap::new();
        let mut b: IndexedDaryHeap<i64, 4> = IndexedDaryHeap::new();
        let ta = a.insert_handle(40);
        let tb = b.insert_handle(50);
        for k in 0..20 {
            a.insert(100 + k);
            b.insert(200 + k);
        }
        a.meld(b);
        a.check_invariants().expect("valid after meld");
        assert_eq!(a.key_of_handle(ta), Some(40));
        assert_eq!(a.key_of_handle(tb), Some(50));
        assert!(a.decrease_key(tb, -1));
        assert_eq!(a.extract_min(), Some(-1));
    }

    #[test]
    fn shallower_than_binary_on_inserts() {
        // Wider fan-out → fewer sift-up comparisons for ascending inserts.
        let mut bin = DaryHeap::<i64, 2>::new();
        let mut oct = Oct::new();
        for k in (0..4096).rev() {
            bin.insert(k);
            oct.insert(k);
        }
        assert!(oct.stats().comparisons() < bin.stats().comparisons());
    }
}
