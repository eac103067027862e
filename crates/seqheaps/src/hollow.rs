//! Hollow heaps (Hansen–Kaplan–Tarjan–Zwick, two-parent DAG variant).
//!
//! The structural idea is lazy deletion: `decrease_key` and `extract_min`
//! never restructure eagerly. Instead a node whose element leaves (moved by
//! a decrease, or popped by `extract_min`) becomes **hollow** — it keeps its
//! key for heap-order purposes but holds no element — and hollow nodes are
//! destroyed only when they surface as roots during the next `extract_min`.
//! This is the same trick as the paper's §4 `-∞` empty nodes in
//! `LazyBinomialHeap`: there a deleted element is overwritten by a `-∞`
//! sentinel and flushed by the next `Delete-Min`; here the node itself goes
//! hollow and is flushed by the next consolidation.
//!
//! Costs: `insert`, `meld` and `decrease_key` are worst-case O(1) (one
//! unranked link each); `extract_min` is amortised O(log n) via ranked
//! links, exactly the Fibonacci-heap bound but with no cascading cuts and
//! no parent pointers.
//!
//! Layout follows the crate's arena idiom: nodes live in a flat `Vec` with
//! a free list, child lists are index vectors whose capacity is recycled on
//! slot reuse, and `meld` absorbs the other arena with one id offset — so
//! handles from both sides stay valid with no translation step.

use std::collections::HashMap;
use std::mem;

use crate::decrease::{mint, PqHandle};
use crate::stats::OpStats;
use crate::traits::{DecreaseKeyPq, MeldablePq};

/// Sentinel for "no node".
const NONE32: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct HSlot<K> {
    key: K,
    rank: u32,
    children: Vec<u32>,
    /// Tracked element handle (only elements inserted via `insert_handle`).
    item: Option<PqHandle>,
    /// Node no longer holds an element; key kept for heap order.
    hollow: bool,
    /// This node is linked under a *second* parent (the node minted by the
    /// decrease that hollowed it). Cleared when either parent is destroyed.
    second_parent: bool,
    /// Slot is on the free list.
    free: bool,
}

/// A meldable hollow heap with O(1) `insert`/`meld`/`decrease_key`.
#[derive(Debug, Clone)]
pub struct HollowHeap<K> {
    nodes: Vec<HSlot<K>>,
    free: Vec<u32>,
    root: u32,
    /// Full (element-holding) nodes.
    len: usize,
    /// Live nodes, hollow ones included.
    node_count: usize,
    tracked: HashMap<PqHandle, u32>,
    stats: OpStats,
    /// Reused work stacks for `extract_min` consolidation.
    pending: Vec<u32>,
    ranks: Vec<u32>,
}

impl<K> Default for HollowHeap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> HollowHeap<K> {
    /// `Make-Queue`: an empty heap.
    pub fn new() -> Self {
        HollowHeap {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NONE32,
            len: 0,
            node_count: 0,
            tracked: HashMap::new(),
            stats: OpStats::default(),
            pending: Vec::new(),
            ranks: Vec::new(),
        }
    }

    /// Instrumentation counters accumulated so far.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Live hollow nodes (lazy-deletion debt awaiting the next flush).
    pub fn hollow_count(&self) -> usize {
        self.node_count - self.len
    }
}

impl<K: Ord + Copy> HollowHeap<K> {
    fn alloc(&mut self, key: K, item: Option<PqHandle>, rank: u32) -> u32 {
        self.node_count += 1;
        if let Some(id) = self.free.pop() {
            let slot = &mut self.nodes[id as usize];
            slot.key = key;
            slot.rank = rank;
            slot.item = item;
            slot.hollow = false;
            slot.second_parent = false;
            slot.free = false;
            debug_assert!(slot.children.is_empty());
            id
        } else {
            self.nodes.push(HSlot {
                key,
                rank,
                children: Vec::new(),
                item,
                hollow: false,
                second_parent: false,
                free: false,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    fn free_node(&mut self, id: u32) {
        let slot = &mut self.nodes[id as usize];
        debug_assert!(slot.children.is_empty());
        slot.free = true;
        slot.item = None;
        self.free.push(id);
        self.node_count -= 1;
    }

    /// Unranked link: the larger-keyed node becomes a child of the smaller.
    fn link(&mut self, a: u32, b: u32) -> u32 {
        self.stats.add_comparisons(1);
        self.stats.add_link();
        let (winner, loser) = if self.nodes[a as usize].key <= self.nodes[b as usize].key {
            (a, b)
        } else {
            (b, a)
        };
        self.nodes[winner as usize].children.push(loser);
        winner
    }

    fn insert_slot(&mut self, key: K, item: Option<PqHandle>) -> u32 {
        let v = self.alloc(key, item, 0);
        self.len += 1;
        self.root = if self.root == NONE32 {
            v
        } else {
            self.link(self.root, v)
        };
        v
    }
}

impl<K: Ord + Copy> MeldablePq<K> for HollowHeap<K> {
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
        self.nodes[r as usize].hollow = true;
        self.len -= 1;

        // Flush: destroy hollow roots, ranked-link the full ones.
        let mut pending = mem::take(&mut self.pending);
        let mut ranks = mem::take(&mut self.ranks);
        pending.clear();
        ranks.clear();
        pending.push(r);
        while let Some(x) = pending.pop() {
            if self.nodes[x as usize].hollow {
                // Destroy x: children with a second parent stay with the
                // surviving parent; sole-parent children become roots.
                let mut kids = mem::take(&mut self.nodes[x as usize].children);
                for w in kids.drain(..) {
                    if self.nodes[w as usize].second_parent {
                        self.nodes[w as usize].second_parent = false;
                    } else {
                        pending.push(w);
                    }
                }
                // Hand the (empty, capacity-bearing) vec back for reuse.
                self.nodes[x as usize].children = kids;
                self.free_node(x);
            } else {
                // Full root: ranked links, equal ranks only, winner +1.
                let mut x = x;
                let mut rk = self.nodes[x as usize].rank as usize;
                loop {
                    if ranks.len() <= rk {
                        ranks.resize(rk + 1, NONE32);
                    }
                    if ranks[rk] == NONE32 {
                        ranks[rk] = x;
                        break;
                    }
                    let y = mem::replace(&mut ranks[rk], NONE32);
                    x = self.link(x, y);
                    rk += 1;
                    self.nodes[x as usize].rank = rk as u32;
                }
            }
        }
        let mut new_root = NONE32;
        for &x in ranks.iter() {
            if x == NONE32 {
                continue;
            }
            new_root = if new_root == NONE32 {
                x
            } else {
                self.link(new_root, x)
            };
        }
        self.root = new_root;
        self.pending = pending;
        self.ranks = ranks;
        Some(key)
    }

    fn meld(&mut self, other: Self) {
        self.stats.absorb(&other.stats);
        if other.node_count == 0 {
            return;
        }
        if self.node_count == 0 {
            let stats = mem::take(&mut self.stats);
            *self = other;
            // Keep the absorbed counter continuity of `self`.
            self.stats = stats;
            return;
        }
        let off = self.nodes.len() as u32;
        self.nodes.reserve(other.nodes.len());
        for mut slot in other.nodes {
            for c in &mut slot.children {
                *c += off;
            }
            self.nodes.push(slot);
        }
        self.free.extend(other.free.iter().map(|f| f + off));
        self.tracked
            .extend(other.tracked.iter().map(|(h, n)| (*h, n + off)));
        self.len += other.len;
        self.node_count += other.node_count;
        let other_root = other.root + off;
        self.root = if self.root == NONE32 {
            other_root
        } else {
            self.link(self.root, other_root)
        };
    }

    /// Structure checker: single full root, heap order on every DAG edge,
    /// in-edge counts (1, or 2 when `second_parent`), count bookkeeping,
    /// free-list hygiene, tracked-map ↔ item bijection — then the
    /// lazy-deletion ledger (full count, hollow debt, no residual hollow
    /// nodes on an empty heap) re-derived from the slots.
    fn check_invariants(&self) -> Result<(), String> {
        let live = self.nodes.iter().filter(|s| !s.free).count();
        if live != self.node_count {
            return Err(format!(
                "hollow: node_count {} but {} live slots",
                self.node_count, live
            ));
        }
        let full = self.nodes.iter().filter(|s| !s.free && !s.hollow).count();
        if full != self.len {
            return Err(format!("hollow: len {} but {} full slots", self.len, full));
        }
        let hollow = self.nodes.iter().filter(|s| !s.free && s.hollow).count();
        if hollow != self.hollow_count() {
            return Err(format!(
                "hollow ledger broken: {hollow} hollow slots, hollow_count={}",
                self.hollow_count()
            ));
        }
        if self.free.len() + self.node_count != self.nodes.len() {
            return Err("hollow: free list + live != slots".into());
        }
        if self.len == 0 {
            if self.root != NONE32 {
                return Err("hollow: empty heap with a root".into());
            }
            if self.node_count != 0 {
                return Err("hollow: empty heap retains hollow nodes".into());
            }
            return Ok(());
        }
        if self.root == NONE32 {
            return Err("hollow: non-empty heap without root".into());
        }
        let root = &self.nodes[self.root as usize];
        if root.free || root.hollow {
            return Err("hollow: root must be a full live node".into());
        }
        // Walk the DAG counting in-edges; every live node must be reached.
        let mut in_edges = vec![0u32; self.nodes.len()];
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        seen[self.root as usize] = true;
        while let Some(x) = stack.pop() {
            let xs = &self.nodes[x as usize];
            for &w in &xs.children {
                let ws = &self.nodes[w as usize];
                if ws.free {
                    return Err("hollow: edge to freed slot".into());
                }
                if ws.key < xs.key {
                    return Err("hollow: heap order violated on an edge".into());
                }
                in_edges[w as usize] += 1;
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        for (i, s) in self.nodes.iter().enumerate() {
            if s.free {
                continue;
            }
            if !seen[i] {
                return Err(format!("hollow: live node {i} unreachable from root"));
            }
            let expect = if i as u32 == self.root {
                0
            } else if s.second_parent {
                2
            } else {
                1
            };
            if in_edges[i] != expect {
                return Err(format!(
                    "hollow: node {i} has {} in-edges, expected {expect}",
                    in_edges[i]
                ));
            }
            if s.second_parent && !s.hollow {
                return Err(format!("hollow: full node {i} with a second parent"));
            }
            if let Some(h) = s.item {
                if s.hollow {
                    return Err(format!(
                        "hollow: hollow node {i} still holds item {}",
                        h.raw()
                    ));
                }
                if self.tracked.get(&h) != Some(&(i as u32)) {
                    return Err(format!(
                        "hollow: item {} not mirrored in tracked map",
                        h.raw()
                    ));
                }
            }
        }
        for (h, &n) in &self.tracked {
            let s = &self.nodes[n as usize];
            if s.free || s.hollow || s.item != Some(*h) {
                return Err(format!(
                    "hollow: tracked handle {} points at a non-owner",
                    h.raw()
                ));
            }
        }
        Ok(())
    }
}

impl<K: Ord + Copy> DecreaseKeyPq<K> for HollowHeap<K> {
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
        if u == self.root {
            self.nodes[u as usize].key = new_key;
            return true;
        }
        // Move the element to a fresh node v; u goes hollow and becomes
        // v's child with a second parent. Rank rule: rank(v) =
        // max(0, rank(u) - 2) keeps the HKTZ efficiency argument.
        let rank = self.nodes[u as usize].rank.saturating_sub(2);
        self.nodes[u as usize].item = None;
        self.nodes[u as usize].hollow = true;
        self.nodes[u as usize].second_parent = true;
        let v = self.alloc(new_key, Some(h), rank);
        self.nodes[v as usize].children.push(u);
        self.tracked.insert(h, v);
        self.root = self.link(self.root, v);
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

    fn keys(tag: u64, n: usize) -> Vec<i64> {
        // Deterministic splitmix-style stream, same idiom as sibling tests.
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ tag;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(0xD120_3C4B_9E37_79B9).wrapping_add(1);
                ((x >> 16) as i64 % 1000) - 500
            })
            .collect()
    }

    #[test]
    fn sorts_correctly() {
        let ks = keys(1, 300);
        let mut expect = ks.clone();
        expect.sort_unstable();
        let mut h = HollowHeap::new();
        h.multi_insert(&ks);
        h.check_invariants().expect("valid");
        assert_eq!(h.drain_sorted(), expect);
    }

    #[test]
    fn meld_is_constant_work() {
        let mut a = HollowHeap::new();
        a.multi_insert(&keys(2, 64));
        let mut b = HollowHeap::new();
        b.multi_insert(&keys(3, 64));
        let links_before = a.stats().links() + b.stats().links();
        a.meld(b);
        assert_eq!(a.stats().links(), links_before + 1);
        assert_eq!(a.len(), 128);
        a.check_invariants().expect("valid after meld");
    }

    #[test]
    fn decrease_key_is_one_link() {
        let mut h: HollowHeap<i64> = HollowHeap::new();
        for k in keys(4, 100) {
            h.insert(k);
        }
        let t = h.insert_handle(900);
        let links = h.stats().links();
        assert!(h.decrease_key(t, -900));
        assert_eq!(h.stats().links(), links + 1);
        assert_eq!(h.key_of_handle(t), Some(-900));
        h.check_invariants().expect("valid after decrease");
        assert_eq!(h.extract_min(), Some(-900));
        assert_eq!(h.key_of_handle(t), None);
        assert!(!h.decrease_key(t, -1000), "stale handle must refuse");
    }

    #[test]
    fn decrease_never_raises() {
        let mut h: HollowHeap<i64> = HollowHeap::new();
        let t = h.insert_handle(10);
        h.insert(0);
        assert!(!h.decrease_key(t, 11));
        assert_eq!(h.key_of_handle(t), Some(10));
        assert!(h.decrease_key(t, 10), "equal key is allowed");
    }

    #[test]
    fn hollow_debt_is_flushed() {
        let mut h: HollowHeap<i64> = HollowHeap::new();
        let hs: Vec<_> = (0..50).map(|k| h.insert_handle(k + 100)).collect();
        for (i, t) in hs.iter().enumerate() {
            assert!(h.decrease_key(*t, i as i64));
        }
        assert_eq!(h.hollow_count(), 49, "each non-root decrease hollows one");
        h.check_invariants().expect("valid with debt");
        let mut out = Vec::new();
        while let Some(k) = h.extract_min() {
            out.push(k);
            h.check_invariants().expect("valid during drain");
        }
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        assert_eq!(h.hollow_count(), 0, "drain destroys every hollow node");
    }

    #[test]
    fn handles_survive_meld_without_translation() {
        let mut a: HollowHeap<i64> = HollowHeap::new();
        let mut b: HollowHeap<i64> = HollowHeap::new();
        let ta = a.insert_handle(50);
        let tb = b.insert_handle(60);
        for k in keys(5, 40) {
            a.insert(k.abs() + 100);
            b.insert(k.abs() + 100);
        }
        a.meld(b);
        assert_eq!(a.key_of_handle(ta), Some(50));
        assert_eq!(a.key_of_handle(tb), Some(60));
        assert!(a.decrease_key(tb, -7));
        a.check_invariants().expect("valid");
        assert_eq!(a.extract_min(), Some(-7));
        assert_eq!(a.key_of_handle(tb), None);
    }

    #[test]
    fn mixed_workload_keeps_invariants() {
        let mut h: HollowHeap<i64> = HollowHeap::new();
        let mut handles = Vec::new();
        for (i, k) in keys(6, 400).into_iter().enumerate() {
            if i % 3 == 0 {
                handles.push(h.insert_handle(k));
            } else {
                h.insert(k);
            }
            if i % 7 == 0 {
                h.extract_min();
            }
            if i % 5 == 0 {
                if let Some(t) = handles.get(i % handles.len().max(1)).copied() {
                    if let Some(cur) = h.key_of_handle(t) {
                        h.decrease_key(t, cur - 3);
                    }
                }
            }
            if i % 16 == 0 {
                h.check_invariants().expect("valid mid-workload");
            }
        }
        h.check_invariants().expect("valid at end");
        let mut out = Vec::new();
        while let Some(k) = h.extract_min() {
            out.push(k);
        }
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }
}
