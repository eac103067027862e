//! The sequential binomial heap (CLRS, using the paper's node layout).
//!
//! Definition 2/3 of the paper: a binomial heap of size `n` is a forest with at
//! most one binomial tree `B_i` per order `i`, present exactly when bit `i` of
//! `n` is set (property BH2), each tree min-heap ordered (property BH1).
//!
//! The node layout follows Section 2 of the paper: each node stores its key and
//! a child array `L` where slot `i` holds the root of the child sub-tree `B_i`
//! (so a node of degree `k` has children in slots `k-1, ..., 0`). The heap
//! itself is the array `H` with slot `i` holding the root of `B_i` if present.
//!
//! `Union` is the classical ripple-carry binary addition over tree orders —
//! this is the *sequential baseline* whose `Θ(log n)` dependent-link chain the
//! paper's Phase I–III algorithm breaks (ablation A1 measures exactly this).

use crate::stats::OpStats;
use crate::traits::MeldablePq;

/// A node of a binomial tree: a key plus the child array `L`.
///
/// Invariant: `children.len() == degree`, and `children[i]` is the root of a
/// well-formed binomial tree of order `i`.
#[derive(Debug, Clone)]
pub struct BinomialTreeNode<K> {
    key: K,
    children: Vec<BinomialTreeNode<K>>,
}

impl<K: Ord> BinomialTreeNode<K> {
    fn singleton(key: K) -> Self {
        BinomialTreeNode {
            key,
            children: Vec::new(),
        }
    }

    /// Order (= degree) of the tree rooted here.
    pub fn order(&self) -> usize {
        self.children.len()
    }

    /// The key at the root.
    pub fn key(&self) -> &K {
        &self.key
    }

    /// Child array, slot `i` = root of `B_i`.
    pub fn children(&self) -> &[BinomialTreeNode<K>] {
        &self.children
    }

    /// The *linking rule* (Section 3.2): combine two trees of equal order into
    /// one of order+1; the root with the smaller key wins. Ties keep `self` on
    /// top so linking is deterministic.
    fn link(mut self, mut other: Self, stats: &OpStats) -> Self {
        debug_assert_eq!(self.order(), other.order());
        stats.add_comparisons(1);
        stats.add_link();
        if other.key < self.key {
            std::mem::swap(&mut self, &mut other);
        }
        self.children.push(other);
        self
    }

    /// Number of nodes in the tree (`2^order`).
    pub fn size(&self) -> usize {
        1usize << self.order()
    }

    /// Check structural shape and heap order recursively.
    fn validate(&self) -> Result<(), String> {
        for (i, c) in self.children.iter().enumerate() {
            if c.order() != i {
                return Err(format!(
                    "child in slot {i} has order {} (expected {i})",
                    c.order()
                ));
            }
            if c.key < self.key {
                return Err("heap order violated: child key smaller than parent".into());
            }
            c.validate()?;
        }
        Ok(())
    }
}

/// The sequential binomial heap.
#[derive(Debug, Clone)]
pub struct BinomialHeap<K> {
    /// Root array `H`: slot `i` holds the root of `B_i` when present.
    roots: Vec<Option<BinomialTreeNode<K>>>,
    len: usize,
    stats: OpStats,
}

impl<K> Default for BinomialHeap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> BinomialHeap<K> {
    /// `Make-Queue`: an empty heap.
    pub fn new() -> Self {
        BinomialHeap {
            roots: Vec::new(),
            len: 0,
            stats: OpStats::new(),
        }
    }

    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }
}

impl<K: Ord> BinomialHeap<K> {
    /// The orders of the trees present, ascending — the set bits of `len`.
    pub fn root_orders(&self) -> Vec<usize> {
        self.roots
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|_| i))
            .collect()
    }

    /// Borrow the root array (slot `i` = root of `B_i`).
    pub fn roots(&self) -> &[Option<BinomialTreeNode<K>>] {
        &self.roots
    }

    fn trim(&mut self) {
        while matches!(self.roots.last(), Some(None)) {
            self.roots.pop();
        }
    }

    /// Insert a whole tree of order `t.order()` by ripple-carry.
    fn carry_in(&mut self, mut t: BinomialTreeNode<K>) {
        let mut i = t.order();
        loop {
            if self.roots.len() <= i {
                self.roots.resize_with(i + 1, || None);
            }
            match self.roots[i].take() {
                None => {
                    self.roots[i] = Some(t);
                    return;
                }
                Some(existing) => {
                    t = existing.link(t, &self.stats);
                    i += 1;
                }
            }
        }
    }

    /// Index of the root with the minimum key.
    fn min_index(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, r) in self.roots.iter().enumerate() {
            if let Some(t) = r {
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        self.stats.add_comparisons(1);
                        let bk = self.roots[b].as_ref().expect("best slot occupied");
                        if t.key < bk.key {
                            best = Some(i);
                        }
                    }
                }
            }
        }
        best
    }
}

impl<K: Ord + Copy> MeldablePq<K> for BinomialHeap<K> {
    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, key: K) {
        self.len += 1;
        self.carry_in(BinomialTreeNode::singleton(key));
    }

    fn peek_min(&mut self) -> Option<K> {
        self.min_index()
            .and_then(|i| self.roots[i].as_ref())
            .map(|t| t.key)
    }

    fn extract_min(&mut self) -> Option<K> {
        let i = self.min_index()?;
        let tree = self.roots[i].take()?;
        self.trim();
        self.len -= tree.size();
        let BinomialTreeNode { key, children } = tree;
        // The children of B_i are exactly B_{i-1}, ..., B_0: a heap of size 2^i - 1.
        let child_len: usize = children.iter().map(|c| c.size()).sum();
        let child_heap = BinomialHeap {
            roots: children.into_iter().map(Some).collect(),
            len: child_len,
            stats: OpStats::new(),
        };
        self.meld(child_heap);
        Some(key)
    }

    /// `Union` by binary addition with ripple carry, consuming `other`.
    ///
    /// Every position may perform at most one link with the incoming tree and
    /// one with the carry, exactly like a full adder; the carry chain is the
    /// sequential dependency the paper parallelizes.
    fn meld(&mut self, other: Self) {
        self.stats.absorb(&other.stats);
        self.len += other.len;
        let max = self.roots.len().max(other.roots.len());
        self.roots.resize_with(max, || None);
        let mut carry: Option<BinomialTreeNode<K>> = None;
        let mut incoming = other.roots;
        incoming.resize_with(max, || None);
        for (i, b) in incoming.into_iter().enumerate() {
            let a = self.roots[i].take();
            // Full-adder over {a, b, carry}: keep one tree of order i, carry
            // one tree of order i+1.
            let mut present: Vec<BinomialTreeNode<K>> = Vec::with_capacity(3);
            present.extend(a);
            present.extend(b);
            present.extend(carry.take());
            match present.len() {
                0 => {}
                1 => self.roots[i] = Some(present.pop().expect("len checked")),
                2 => {
                    let y = present.pop().expect("len checked");
                    let x = present.pop().expect("len checked");
                    carry = Some(x.link(y, &self.stats));
                }
                _ => {
                    // sum bit stays set AND a carry propagates
                    let y = present.pop().expect("len checked");
                    let x = present.pop().expect("len checked");
                    carry = Some(x.link(y, &self.stats));
                    self.roots[i] = Some(present.pop().expect("len checked"));
                }
            }
        }
        if let Some(c) = carry {
            self.carry_in(c);
        }
        self.trim();
    }

    /// Verify BH1 + BH2 and size bookkeeping.
    fn check_invariants(&self) -> Result<(), String> {
        let mut total = 0usize;
        for (i, r) in self.roots.iter().enumerate() {
            if let Some(t) = r {
                if t.order() != i {
                    return Err(format!("root in slot {i} has order {}", t.order()));
                }
                t.validate()?;
                total += t.size();
            }
        }
        if total != self.len {
            return Err(format!("len {} but trees hold {total} nodes", self.len));
        }
        if matches!(self.roots.last(), Some(None)) {
            return Err("root array not trimmed".into());
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_heap() {
        let mut h: BinomialHeap<i32> = BinomialHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.peek_min(), None);
        assert!(h.check_invariants().is_ok());
    }

    #[test]
    fn insert_establishes_binary_representation() {
        let mut h = BinomialHeap::new();
        for k in 0..11 {
            h.insert(k);
        }
        // 11 = <1011>: B_3, B_1, B_0 — the example from Section 2.
        assert_eq!(h.root_orders(), vec![0, 1, 3]);
        assert!(h.check_invariants().is_ok());
    }

    #[test]
    fn extract_min_yields_sorted_order() {
        let mut h = BinomialHeap::new();
        for k in [5, 3, 8, 1, 9, 2, 7, 4, 6, 0] {
            h.insert(k);
        }
        assert!(h.check_invariants().is_ok());
        let out = h.drain_sorted();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn union_matches_binary_addition() {
        let mut a = BinomialHeap::new();
        let mut b = BinomialHeap::new();
        for k in 0..11 {
            a.insert(k); // 11 = 1011
        }
        for k in 100..105 {
            b.insert(k); // 5 = 101
        }
        a.meld(b);
        // 16 = 10000
        assert_eq!(a.root_orders(), vec![4]);
        assert_eq!(a.len(), 16);
        assert!(a.check_invariants().is_ok());
        assert_eq!(a.peek_min(), Some(0));
    }

    #[test]
    fn meld_with_empty_both_ways() {
        let mut a: BinomialHeap<i32> = BinomialHeap::new();
        a.insert(1);
        a.meld(BinomialHeap::new());
        assert_eq!(a.len(), 1);
        let mut e: BinomialHeap<i32> = BinomialHeap::new();
        e.meld(a);
        assert_eq!(e.len(), 1);
        assert_eq!(e.extract_min(), Some(1));
        assert_eq!(e.extract_min(), None);
    }

    #[test]
    fn duplicate_keys_are_preserved() {
        let mut h = BinomialHeap::new();
        for _ in 0..6 {
            h.insert(7);
        }
        h.insert(3);
        assert_eq!(h.len(), 7);
        assert_eq!(h.extract_min(), Some(3));
        for _ in 0..6 {
            assert_eq!(h.extract_min(), Some(7));
        }
        assert!(h.is_empty());
    }

    #[test]
    fn stats_count_links() {
        let mut h = BinomialHeap::new();
        for k in 0..8 {
            h.insert(k);
        }
        // Building B_3 from 8 singletons costs exactly 7 links.
        assert_eq!(h.stats().links(), 7);
    }

    #[test]
    fn children_slots_follow_paper_layout() {
        let mut h = BinomialHeap::new();
        for k in 0..8 {
            h.insert(k);
        }
        let root = h.roots()[3].as_ref().unwrap();
        assert_eq!(root.order(), 3);
        for (i, c) in root.children().iter().enumerate() {
            assert_eq!(c.order(), i);
        }
    }
}
