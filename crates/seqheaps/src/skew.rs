//! Skew heap — a self-adjusting meldable baseline.
//!
//! Like a leftist heap but with no rank bookkeeping: every merge step
//! unconditionally swaps children. Melds are amortized `O(log n)` by the usual
//! potential argument. The merge here is the classic *non-recursive*
//! formulation (cut both right spines, merge them by key, reattach swapping
//! children), so a single pathological operation cannot overflow the stack.

use crate::stats::OpStats;
use crate::traits::MeldablePq;

type Link<K> = Option<Box<SNode<K>>>;

#[derive(Debug, Clone)]
struct SNode<K> {
    key: K,
    left: Link<K>,
    right: Link<K>,
}

/// A skew (min-)heap.
#[derive(Debug, Clone)]
pub struct SkewHeap<K> {
    root: Link<K>,
    len: usize,
    stats: OpStats,
}

impl<K> Default for SkewHeap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> SkewHeap<K> {
    /// `Make-Queue`: an empty heap.
    pub fn new() -> Self {
        SkewHeap {
            root: None,
            len: 0,
            stats: OpStats::new(),
        }
    }

    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }
}

impl<K: Ord> SkewHeap<K> {
    /// Iterative top-down skew merge.
    fn merge(a: Link<K>, b: Link<K>, stats: &OpStats) -> Link<K> {
        // 1. Cut both right spines into a list of subtrees.
        let mut spine: Vec<Box<SNode<K>>> = Vec::new();
        for mut cur in [a, b].into_iter().flatten() {
            loop {
                let right = cur.right.take();
                spine.push(cur);
                match right {
                    Some(r) => cur = r,
                    None => break,
                }
            }
        }
        if spine.is_empty() {
            return None;
        }
        // 2. Sort the spine segments by root key. Both spines were ascending
        //    (right-spine keys increase downward in a heap), so this is a
        //    2-way merge in disguise; a stable sort costs the same O(s log s)
        //    worst case and keeps the code simple.
        stats.add_comparisons(spine.len() as u64); // merge-level accounting
        spine.sort_by(|x, y| x.key.cmp(&y.key));
        // 3. Reassemble right-to-left, swapping children at every step (the
        //    "skew" move).
        let mut acc = spine.pop().expect("spine nonempty");
        while let Some(mut n) = spine.pop() {
            stats.add_link();
            // n.key <= acc.key: acc becomes n's right child, then swap.
            debug_assert!(n.key <= acc.key);
            n.right = n.left.take();
            n.left = Some(acc);
            acc = n;
        }
        Some(acc)
    }
}

impl<K> Drop for SkewHeap<K> {
    /// Iterative drop: skew heaps can be arbitrarily deep.
    fn drop(&mut self) {
        let mut stack: Vec<Box<SNode<K>>> = Vec::new();
        stack.extend(self.root.take());
        while let Some(mut n) = stack.pop() {
            stack.extend(n.left.take());
            stack.extend(n.right.take());
        }
    }
}

impl<K: Ord + Copy> MeldablePq<K> for SkewHeap<K> {
    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, key: K) {
        self.len += 1;
        let node = Some(Box::new(SNode {
            key,
            left: None,
            right: None,
        }));
        self.root = Self::merge(self.root.take(), node, &self.stats);
    }

    fn peek_min(&mut self) -> Option<K> {
        self.root.as_ref().map(|n| n.key)
    }

    fn extract_min(&mut self) -> Option<K> {
        let mut root = self.root.take()?;
        self.len -= 1;
        self.root = Self::merge(root.left.take(), root.right.take(), &self.stats);
        Some(root.key)
    }

    fn meld(&mut self, mut other: Self) {
        self.stats.absorb(&other.stats);
        self.len += other.len;
        other.len = 0;
        self.root = Self::merge(self.root.take(), other.root.take(), &self.stats);
    }

    /// Check heap order; returns `Err` on violation.
    fn check_invariants(&self) -> Result<(), String> {
        // Iterative DFS to survive deep shapes.
        let mut count = 0usize;
        let mut stack: Vec<&SNode<K>> = Vec::new();
        if let Some(r) = &self.root {
            stack.push(r);
        }
        while let Some(n) = stack.pop() {
            count += 1;
            for c in [&n.left, &n.right].into_iter().flatten() {
                if c.key < n.key {
                    return Err("heap order violated".into());
                }
                stack.push(c);
            }
        }
        if count != self.len {
            return Err(format!("len {} but tree holds {count}", self.len));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ordering() {
        let mut h = SkewHeap::new();
        for k in [6, 2, 9, 2, 0, 5] {
            h.insert(k);
            assert!(h.check_invariants().is_ok());
        }
        assert_eq!(h.drain_sorted(), vec![0, 2, 2, 5, 6, 9]);
    }

    #[test]
    fn meld_two_heaps() {
        let mut a = SkewHeap::new();
        a.multi_insert(&[1, 4, 7]);
        let mut b = SkewHeap::new();
        b.multi_insert(&[0, 5, 9]);
        a.meld(b);
        assert!(a.check_invariants().is_ok());
        assert_eq!(a.drain_sorted(), vec![0, 1, 4, 5, 7, 9]);
    }

    #[test]
    fn adversarial_sorted_inserts_stay_safe() {
        let mut h = SkewHeap::new();
        for k in 0..100_000 {
            h.insert(k);
        }
        assert_eq!(h.extract_min(), Some(0));
        drop(h);
    }

    #[test]
    fn empty_edge_cases() {
        let mut h: SkewHeap<u8> = SkewHeap::new();
        assert_eq!(h.extract_min(), None);
        h.meld(SkewHeap::new());
        assert!(h.is_empty());
    }
}
