//! Leftist heap — the meldable baseline the paper compares against.
//!
//! A leftist tree keeps, for every node, the *rank* (length of the rightmost
//! path to a missing child) of the left child no smaller than that of the
//! right child, so the rightmost path has length `O(log n)` and two heaps meld
//! by merging right spines.

use crate::stats::OpStats;
use crate::traits::MeldablePq;

type Link<K> = Option<Box<LNode<K>>>;

#[derive(Debug, Clone)]
struct LNode<K> {
    key: K,
    /// Rank: 1 + rank of the right child (0 for a missing child). Also called
    /// the s-value or null-path length + 1.
    rank: u32,
    left: Link<K>,
    right: Link<K>,
}

impl<K> LNode<K> {
    fn leaf(key: K) -> Box<Self> {
        Box::new(LNode {
            key,
            rank: 1,
            left: None,
            right: None,
        })
    }
}

fn rank<K>(l: &Link<K>) -> u32 {
    l.as_ref().map_or(0, |n| n.rank)
}

/// A leftist (min-)heap.
#[derive(Debug, Clone)]
pub struct LeftistHeap<K> {
    root: Link<K>,
    len: usize,
    stats: OpStats,
}

impl<K> Default for LeftistHeap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> LeftistHeap<K> {
    /// `Make-Queue`: an empty heap.
    pub fn new() -> Self {
        LeftistHeap {
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

impl<K: Ord> LeftistHeap<K> {
    /// Merge two subtrees along their right spines (recursive; depth bounded
    /// by the sum of the two ranks, i.e. `O(log n)`).
    fn merge(a: Link<K>, b: Link<K>, stats: &OpStats) -> Link<K> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(mut x), Some(mut y)) => {
                stats.add_comparisons(1);
                if y.key < x.key {
                    std::mem::swap(&mut x, &mut y);
                }
                stats.add_link();
                x.right = Self::merge(x.right.take(), Some(y), stats);
                if rank(&x.left) < rank(&x.right) {
                    std::mem::swap(&mut x.left, &mut x.right);
                }
                x.rank = rank(&x.right) + 1;
                Some(x)
            }
        }
    }
}

impl<K> Drop for LeftistHeap<K> {
    /// Iterative drop: the *left* spine of a leftist heap is unbounded (sorted
    /// insertions build an `n`-deep left chain), so the default recursive drop
    /// could overflow the stack.
    fn drop(&mut self) {
        let mut stack: Vec<Box<LNode<K>>> = Vec::new();
        stack.extend(self.root.take());
        while let Some(mut n) = stack.pop() {
            stack.extend(n.left.take());
            stack.extend(n.right.take());
        }
    }
}

impl<K: Ord + Copy> MeldablePq<K> for LeftistHeap<K> {
    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, key: K) {
        self.len += 1;
        let node = Some(LNode::leaf(key));
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

    /// Check the leftist rank property, heap order and size.
    fn check_invariants(&self) -> Result<(), String> {
        fn walk<K: Ord>(n: &LNode<K>) -> Result<usize, String> {
            let mut count = 1;
            for child in [&n.left, &n.right].into_iter().flatten() {
                if child.key < n.key {
                    return Err("heap order violated".into());
                }
                count += walk(child)?;
            }
            if rank(&n.left) < rank(&n.right) {
                return Err("leftist property violated".into());
            }
            if n.rank != rank(&n.right) + 1 {
                return Err("rank bookkeeping wrong".into());
            }
            Ok(count)
        }
        let count = match &self.root {
            None => 0,
            Some(r) => walk(r)?,
        };
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
    fn sorted_behaviour() {
        let mut h = LeftistHeap::new();
        for k in [4, 1, 3, 2, 5] {
            h.insert(k);
        }
        assert!(h.check_invariants().is_ok());
        assert_eq!(h.peek_min(), Some(1));
        assert_eq!(h.drain_sorted(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn meld_preserves_all_keys() {
        let mut a = LeftistHeap::new();
        a.multi_insert(&[10, 20, 30]);
        let mut b = LeftistHeap::new();
        b.multi_insert(&[5, 25, 35]);
        a.meld(b);
        assert_eq!(a.len(), 6);
        assert!(a.check_invariants().is_ok());
        assert_eq!(a.drain_sorted(), vec![5, 10, 20, 25, 30, 35]);
    }

    #[test]
    fn deep_left_chain_drops_without_overflow() {
        let mut h = LeftistHeap::new();
        // Descending insertions put every old root on the new root's left.
        for k in (0..200_000).rev() {
            h.insert(k);
        }
        assert_eq!(h.len(), 200_000);
        drop(h); // must not overflow the stack
    }

    #[test]
    fn rank_invariant_after_random_ops() {
        let mut h = LeftistHeap::new();
        for k in [9, 2, 7, 7, 1, 8, 3, 0, 4, 6, 5, 2] {
            h.insert(k);
            assert!(h.check_invariants().is_ok());
        }
        while h.extract_min().is_some() {
            assert!(h.check_invariants().is_ok());
        }
    }
}
