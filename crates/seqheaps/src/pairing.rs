//! Pairing heap — the practical meldable baseline.
//!
//! `insert` and `meld` are a single comparison-link; `extract_min` combines
//! the root's children with a selectable [`MergeStrategy`] (classic two-pass,
//! or the multipass FIFO variant — the shootout harness races both and the
//! backend table picks the measured winner). Nodes live in a flat arena with
//! a free list; freed slots keep their child-`Vec` capacity, so steady-state
//! links never allocate (the same recycling trick as `Arena::absorb`).
//!
//! Parent pointers make `decrease_key` the textbook O(1) cut-and-relink:
//! detach the node's subtree from its parent and comparison-link it with the
//! root.

use std::collections::HashMap;
use std::mem;

use crate::decrease::{mint, PqHandle};
use crate::stats::OpStats;
use crate::traits::{DecreaseKeyPq, MeldablePq};

/// Sentinel for "no node".
const NONE32: u32 = u32::MAX;

/// How `extract_min` recombines the root's orphaned children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeStrategy {
    /// Pair left-to-right, then fold the pairs right-to-left (Fredman–
    /// Sedgewick–Sleator–Tarjan's original; amortised O(log n)).
    #[default]
    TwoPass,
    /// FIFO rounds: repeatedly link the two front trees and enqueue the
    /// winner until one remains (the multipass variant).
    MultiPass,
}

impl MergeStrategy {
    /// Stable lowercase name (report keys, CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            MergeStrategy::TwoPass => "two_pass",
            MergeStrategy::MultiPass => "multi_pass",
        }
    }
}

#[derive(Debug, Clone)]
struct PSlot<K> {
    key: K,
    parent: u32,
    children: Vec<u32>,
    /// Tracked element handle (only elements inserted via `insert_handle`).
    item: Option<PqHandle>,
    free: bool,
}

/// A pairing (min-)heap.
#[derive(Debug, Clone)]
pub struct PairingHeap<K> {
    nodes: Vec<PSlot<K>>,
    free: Vec<u32>,
    root: u32,
    len: usize,
    stats: OpStats,
    strategy: MergeStrategy,
    tracked: HashMap<PqHandle, u32>,
    /// Reused pairing buffer for `extract_min`.
    scratch: Vec<u32>,
}

impl<K> Default for PairingHeap<K> {
    fn default() -> Self {
        PairingHeap {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NONE32,
            len: 0,
            stats: OpStats::new(),
            strategy: MergeStrategy::default(),
            tracked: HashMap::new(),
            scratch: Vec::new(),
        }
    }
}

impl<K> PairingHeap<K> {
    /// `Make-Queue`: an empty heap using the default (two-pass) strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// An empty heap using the given child-merge strategy.
    pub fn with_strategy(strategy: MergeStrategy) -> Self {
        PairingHeap {
            strategy,
            ..PairingHeap::default()
        }
    }

    /// The strategy `extract_min` uses (melds keep the left heap's).
    pub fn strategy(&self) -> MergeStrategy {
        self.strategy
    }

    /// Arena slots currently allocated (free or live) — lets tests assert
    /// that slot reuse keeps the arena from growing.
    pub fn arena_slots(&self) -> usize {
        self.nodes.len()
    }
}

impl<K: Ord + Copy> PairingHeap<K> {
    fn alloc(&mut self, key: K, item: Option<PqHandle>) -> u32 {
        if let Some(id) = self.free.pop() {
            let slot = &mut self.nodes[id as usize];
            slot.key = key;
            slot.parent = NONE32;
            slot.item = item;
            slot.free = false;
            debug_assert!(slot.children.is_empty());
            id
        } else {
            self.nodes.push(PSlot {
                key,
                parent: NONE32,
                children: Vec::new(),
                item,
                free: false,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Comparison-link: the larger root becomes a child of the smaller.
    fn link(&mut self, a: u32, b: u32) -> u32 {
        self.stats.add_comparisons(1);
        self.stats.add_link();
        let (winner, loser) = if self.nodes[a as usize].key <= self.nodes[b as usize].key {
            (a, b)
        } else {
            (b, a)
        };
        self.nodes[loser as usize].parent = winner;
        self.nodes[winner as usize].children.push(loser);
        winner
    }

    fn combine_children(&mut self, kids: &[u32]) -> u32 {
        match kids.len() {
            0 => return NONE32,
            1 => return kids[0],
            _ => {}
        }
        let mut buf = mem::take(&mut self.scratch);
        buf.clear();
        let root = match self.strategy {
            MergeStrategy::TwoPass => {
                let mut i = 0;
                while i + 1 < kids.len() {
                    let w = self.link(kids[i], kids[i + 1]);
                    buf.push(w);
                    i += 2;
                }
                if i < kids.len() {
                    buf.push(kids[i]);
                }
                let mut acc = buf[buf.len() - 1];
                for j in (0..buf.len() - 1).rev() {
                    acc = self.link(buf[j], acc);
                }
                acc
            }
            MergeStrategy::MultiPass => {
                buf.extend_from_slice(kids);
                let mut head = 0;
                while buf.len() - head >= 2 {
                    let w = self.link(buf[head], buf[head + 1]);
                    head += 2;
                    buf.push(w);
                }
                buf[head]
            }
        };
        self.scratch = buf;
        root
    }

    /// Link a fresh node holding `key` under the root.
    fn insert_slot(&mut self, key: K, item: Option<PqHandle>) -> u32 {
        let v = self.alloc(key, item);
        self.len += 1;
        self.root = if self.root == NONE32 {
            v
        } else {
            self.link(self.root, v)
        };
        v
    }
}

impl<K: Ord + Copy> MeldablePq<K> for PairingHeap<K> {
    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, key: K) {
        self.insert_slot(key, None);
    }

    fn peek_min(&mut self) -> Option<K> {
        (self.root != NONE32).then(|| self.nodes[self.root as usize].key)
    }

    fn extract_min(&mut self) -> Option<K> {
        if self.root == NONE32 {
            return None;
        }
        let r = self.root;
        let key = self.nodes[r as usize].key;
        if let Some(h) = self.nodes[r as usize].item.take() {
            self.tracked.remove(&h);
        }
        self.len -= 1;
        let mut kids = mem::take(&mut self.nodes[r as usize].children);
        self.root = self.combine_children(&kids);
        if self.root != NONE32 {
            self.nodes[self.root as usize].parent = NONE32;
        }
        // Return the (cleared, capacity-bearing) child vec and free the slot.
        kids.clear();
        self.nodes[r as usize].children = kids;
        self.nodes[r as usize].free = true;
        self.free.push(r);
        Some(key)
    }

    fn meld(&mut self, other: Self) {
        self.stats.absorb(other.stats());
        if other.len == 0 {
            return;
        }
        if self.len == 0 {
            let stats = mem::take(&mut self.stats);
            let strategy = self.strategy;
            *self = other;
            self.stats = stats;
            self.strategy = strategy;
            return;
        }
        let off = self.nodes.len() as u32;
        self.nodes.reserve(other.nodes.len());
        for mut slot in other.nodes {
            if slot.parent != NONE32 {
                slot.parent += off;
            }
            for c in &mut slot.children {
                *c += off;
            }
            self.nodes.push(slot);
        }
        self.free.extend(other.free.iter().map(|f| f + off));
        self.tracked
            .extend(other.tracked.iter().map(|(h, n)| (*h, n + off)));
        self.len += other.len;
        let other_root = other.root + off;
        self.root = self.link(self.root, other_root);
    }

    /// Check heap order, parent pointers, counts and handle bookkeeping.
    fn check_invariants(&self) -> Result<(), String> {
        let live = self.nodes.iter().filter(|s| !s.free).count();
        if live != self.len {
            return Err(format!("pairing: len {} but {live} live slots", self.len));
        }
        if self.free.len() + self.len != self.nodes.len() {
            return Err("pairing: free list + live != slots".into());
        }
        if self.len == 0 {
            if self.root != NONE32 {
                return Err("pairing: empty heap with a root".into());
            }
            return Ok(());
        }
        if self.root == NONE32 || self.nodes[self.root as usize].free {
            return Err("pairing: non-empty heap without live root".into());
        }
        if self.nodes[self.root as usize].parent != NONE32 {
            return Err("pairing: root has a parent".into());
        }
        let mut count = 0usize;
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            count += 1;
            let ns = &self.nodes[n as usize];
            if let Some(h) = ns.item {
                if self.tracked.get(&h) != Some(&n) {
                    return Err(format!(
                        "pairing: item {} not mirrored in tracked map",
                        h.raw()
                    ));
                }
            }
            for &c in &ns.children {
                let cs = &self.nodes[c as usize];
                if cs.free {
                    return Err("pairing: edge to freed slot".into());
                }
                if cs.key < ns.key {
                    return Err("pairing: heap order violated".into());
                }
                if cs.parent != n {
                    return Err("pairing: child parent pointer mismatch".into());
                }
                stack.push(c);
            }
        }
        if count != self.len {
            return Err(format!("pairing: len {} but tree holds {count}", self.len));
        }
        for (h, &n) in &self.tracked {
            let s = &self.nodes[n as usize];
            if s.free || s.item != Some(*h) {
                return Err(format!(
                    "pairing: tracked handle {} points at a non-owner",
                    h.raw()
                ));
            }
        }
        Ok(())
    }
}

impl<K: Ord + Copy> DecreaseKeyPq<K> for PairingHeap<K> {
    fn insert_handle(&mut self, key: K) -> PqHandle {
        let h = mint();
        let v = self.insert_slot(key, Some(h));
        self.tracked.insert(h, v);
        h
    }

    fn decrease_key(&mut self, h: PqHandle, new_key: K) -> bool {
        let Some(&u) = self.tracked.get(&h) else {
            return false;
        };
        self.stats.add_comparisons(1);
        if new_key > self.nodes[u as usize].key {
            return false;
        }
        self.nodes[u as usize].key = new_key;
        if u == self.root {
            return true;
        }
        // Cut u's subtree from its parent and relink with the root.
        let p = self.nodes[u as usize].parent;
        let pos = self.nodes[p as usize].children.iter().position(|&c| c == u);
        if let Some(pos) = pos {
            // Child order is irrelevant in a pairing heap.
            self.nodes[p as usize].children.swap_remove(pos);
        }
        self.nodes[u as usize].parent = NONE32;
        self.root = self.link(self.root, u);
        true
    }

    fn key_of_handle(&self, h: PqHandle) -> Option<K> {
        let n = *self.tracked.get(&h)?;
        Some(self.nodes[n as usize].key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_correctly() {
        let mut h = PairingHeap::new();
        for k in [3, 1, 4, 1, 5, 9, 2, 6] {
            h.insert(k);
            assert!(h.check_invariants().is_ok());
        }
        assert_eq!(h.drain_sorted(), vec![1, 1, 2, 3, 4, 5, 6, 9]);
    }

    #[test]
    fn multipass_sorts_correctly() {
        let mut h = PairingHeap::with_strategy(MergeStrategy::MultiPass);
        for k in [3, 1, 4, 1, 5, 9, 2, 6, -3, 0] {
            h.insert(k);
        }
        assert!(h.check_invariants().is_ok());
        assert_eq!(h.drain_sorted(), vec![-3, 0, 1, 1, 2, 3, 4, 5, 6, 9]);
    }

    #[test]
    fn meld_is_constant_link() {
        let mut a = PairingHeap::new();
        a.multi_insert(&[2, 8]);
        let mut b = PairingHeap::new();
        b.multi_insert(&[1, 9]);
        let links_before = a.stats().links() + b.stats().links();
        a.meld(b);
        assert_eq!(a.stats().links(), links_before + 1);
        assert_eq!(a.drain_sorted(), vec![1, 2, 8, 9]);
    }

    #[test]
    fn meld_keeps_left_strategy() {
        let mut a: PairingHeap<i64> = PairingHeap::with_strategy(MergeStrategy::MultiPass);
        let mut b = PairingHeap::new();
        b.insert(5);
        a.meld(b);
        assert_eq!(a.strategy(), MergeStrategy::MultiPass);
        assert_eq!(a.extract_min(), Some(5));
    }

    #[test]
    fn extract_on_empty() {
        let mut h: PairingHeap<i64> = PairingHeap::new();
        assert_eq!(h.extract_min(), None);
    }

    #[test]
    fn decrease_key_cut_and_relink() {
        let mut h: PairingHeap<i64> = PairingHeap::new();
        for k in 0..64 {
            h.insert(k + 100);
        }
        let t = h.insert_handle(500);
        assert_eq!(h.key_of_handle(t), Some(500));
        assert!(h.decrease_key(t, -1));
        assert_eq!(h.key_of_handle(t), Some(-1));
        h.check_invariants().expect("valid after decrease");
        assert_eq!(h.extract_min(), Some(-1));
        assert_eq!(h.key_of_handle(t), None);
        assert!(!h.decrease_key(t, -2), "stale handle must refuse");
    }

    #[test]
    fn slot_reuse_recycles_arena() {
        let mut h: PairingHeap<i64> = PairingHeap::new();
        for k in 0..100 {
            h.insert(k);
        }
        let slots = h.arena_slots();
        for _ in 0..50 {
            h.extract_min();
        }
        for k in 0..50 {
            h.insert(k);
        }
        assert_eq!(h.arena_slots(), slots, "freed slots must be reused");
        h.check_invariants().expect("valid after churn");
    }

    #[test]
    fn large_workload_keeps_invariants() {
        let mut h = PairingHeap::new();
        for k in (0..50_000).rev() {
            h.insert(k);
        }
        for expect in 0..100 {
            assert_eq!(h.extract_min(), Some(expect));
        }
        assert!(h.check_invariants().is_ok());
    }
}
