//! Arena-based sequential binomial heap with stable handles — the full
//! Definition 1 (operations 1–7) in the *sequential* setting, CLRS-style.
//!
//! This is the textbook comparator for the paper's §4: `Decrease-Key`
//! bubbles the key up by content swaps (`O(log n)`), `Delete` is
//! decrease-to-−∞ plus `Extract-Min`, and `Change-Key` dispatches on the
//! direction. Handles follow their *key* through bubble swaps (the handle
//! map is updated alongside each swap), so they remain valid for the life of
//! the key — unlike the parallel lazy heap, whose Arrange-Heap epoch
//! invalidates handles.

use crate::stats::OpStats;

/// Stable handle to an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemId(u32);

#[derive(Debug, Clone)]
struct INode {
    key: i64,
    /// Which item currently sits at this structural position.
    item: u32,
    parent: Option<u32>,
    children: Vec<u32>, // slot i = child of order i; dense
}

/// A sequential binomial heap with `Decrease-Key` / `Delete` by handle.
#[derive(Debug, Clone, Default)]
pub struct IndexedBinomialHeap {
    nodes: Vec<Option<INode>>,
    free: Vec<u32>,
    /// item id -> structural node currently holding it (u32::MAX = removed).
    item_pos: Vec<u32>,
    roots: Vec<Option<u32>>,
    len: usize,
    stats: OpStats,
}

impl IndexedBinomialHeap {
    /// `Make-Queue`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    fn node(&self, i: u32) -> &INode {
        self.nodes[i as usize].as_ref().expect("dead node")
    }

    fn node_mut(&mut self, i: u32) -> &mut INode {
        self.nodes[i as usize].as_mut().expect("dead node")
    }

    /// Key of a live item, `None` once deleted/extracted.
    pub fn key_of(&self, id: ItemId) -> Option<i64> {
        let pos = *self.item_pos.get(id.0 as usize)?;
        (pos != u32::MAX).then(|| self.node(pos).key)
    }

    fn alloc_node(&mut self, key: i64, item: u32) -> u32 {
        let n = INode {
            key,
            item,
            parent: None,
            children: Vec::new(),
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Some(n);
                i
            }
            None => {
                self.nodes.push(Some(n));
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Linking rule: smaller key wins, ties to `a`.
    fn link(&mut self, a: u32, b: u32) -> u32 {
        self.stats.add_comparisons(1);
        self.stats.add_link();
        let (win, lose) = if self.node(b).key < self.node(a).key {
            (b, a)
        } else {
            (a, b)
        };
        debug_assert_eq!(
            self.node(win).children.len(),
            self.node(lose).children.len()
        );
        self.node_mut(win).children.push(lose);
        self.node_mut(lose).parent = Some(win);
        win
    }

    fn carry_in(&mut self, mut t: u32) {
        let mut i = self.node(t).children.len();
        loop {
            if self.roots.len() <= i {
                self.roots.resize(i + 1, None);
            }
            match self.roots[i].take() {
                None => {
                    self.node_mut(t).parent = None;
                    self.roots[i] = Some(t);
                    return;
                }
                Some(existing) => {
                    t = self.link(existing, t);
                    i += 1;
                }
            }
        }
    }

    fn trim(&mut self) {
        while matches!(self.roots.last(), Some(None)) {
            self.roots.pop();
        }
    }

    /// `Insert(Q, x)`: returns a stable handle.
    pub fn insert(&mut self, key: i64) -> ItemId {
        let item = self.item_pos.len() as u32;
        let node = self.alloc_node(key, item);
        self.item_pos.push(node);
        self.carry_in(node);
        self.len += 1;
        ItemId(item)
    }

    /// `Min(Q)`.
    pub fn min(&self) -> Option<i64> {
        self.min_root().map(|r| self.node(r).key)
    }

    fn min_root(&self) -> Option<u32> {
        let mut best: Option<u32> = None;
        for r in self.roots.iter().flatten() {
            match best {
                None => best = Some(*r),
                Some(b) => {
                    self.stats.add_comparisons(1);
                    if self.node(*r).key < self.node(b).key {
                        best = Some(*r);
                    }
                }
            }
        }
        best
    }

    /// `Extract-Min(Q)`: returns `(handle, key)` of the removed item.
    pub fn extract_min(&mut self) -> Option<(ItemId, i64)> {
        let root = self.min_root()?;
        let order = self.node(root).children.len();
        debug_assert_eq!(self.roots[order], Some(root));
        self.roots[order] = None;
        self.trim();
        let n = self.nodes[root as usize].take().expect("live root");
        self.free.push(root);
        self.item_pos[n.item as usize] = u32::MAX;
        for &c in &n.children {
            self.node_mut(c).parent = None;
        }
        self.union_children(&n.children);
        self.len -= 1;
        Some((ItemId(n.item), n.key))
    }

    /// Meld a dense child array (slot `i` = tree of order `i`) into the root
    /// array with one full-adder pass — `O(log n)` links total, where
    /// re-inserting each child individually would ripple `O(log² n)`.
    fn union_children(&mut self, children: &[u32]) {
        let max = self.roots.len().max(children.len());
        self.roots.resize(max, None);
        let mut carry: Option<u32> = None;
        for i in 0..max {
            let incoming = children.get(i).copied();
            let mut present: Vec<u32> = Vec::with_capacity(3);
            present.extend(self.roots[i].take());
            present.extend(incoming);
            present.extend(carry.take());
            match present.len() {
                0 => {}
                1 => self.roots[i] = Some(present[0]),
                2 => carry = Some(self.link(present[0], present[1])),
                _ => {
                    carry = Some(self.link(present[0], present[1]));
                    self.roots[i] = Some(present[2]);
                }
            }
        }
        if let Some(c) = carry {
            self.carry_in(c);
        }
        self.trim();
    }

    /// `Union(Q1, Q2)`: absorb `other`; its handles are offset into this
    /// heap's id space — the returned function translates them.
    pub fn meld(&mut self, other: IndexedBinomialHeap) -> impl Fn(ItemId) -> ItemId {
        self.stats.absorb(&other.stats);
        let node_off = self.nodes.len() as u32;
        let item_off = self.item_pos.len() as u32;
        for slot in other.nodes {
            self.nodes.push(slot.map(|mut n| {
                n.item += item_off;
                n.parent = n.parent.map(|p| p + node_off);
                for c in &mut n.children {
                    *c += node_off;
                }
                n
            }));
        }
        for f in other.free {
            self.free.push(f + node_off);
        }
        for pos in other.item_pos {
            self.item_pos.push(if pos == u32::MAX {
                u32::MAX
            } else {
                pos + node_off
            });
        }
        for r in other.roots.into_iter().flatten() {
            self.carry_in(r + node_off);
        }
        self.len += other.len;
        move |id: ItemId| ItemId(id.0 + item_off)
    }

    /// `Decrease-Key`: set the item's key to `new_key` (must not increase);
    /// bubbles by content swaps in `O(log n)`.
    pub fn decrease_key(&mut self, id: ItemId, new_key: i64) {
        let pos = self.item_pos[id.0 as usize];
        assert_ne!(pos, u32::MAX, "item already removed");
        assert!(
            new_key <= self.node(pos).key,
            "decrease_key must not increase"
        );
        self.node_mut(pos).key = new_key;
        self.bubble_up(pos);
    }

    fn bubble_up(&mut self, mut pos: u32) {
        while let Some(par) = self.node(pos).parent {
            self.stats.add_comparisons(1);
            if self.node(pos).key >= self.node(par).key {
                break;
            }
            // Swap contents (key + item identity) and fix the handle map.
            let (ka, ia) = {
                let n = self.node(pos);
                (n.key, n.item)
            };
            let (kb, ib) = {
                let n = self.node(par);
                (n.key, n.item)
            };
            {
                let n = self.node_mut(pos);
                n.key = kb;
                n.item = ib;
            }
            {
                let n = self.node_mut(par);
                n.key = ka;
                n.item = ia;
            }
            self.item_pos[ia as usize] = par;
            self.item_pos[ib as usize] = pos;
            self.stats.add_link();
            pos = par;
        }
    }

    /// `Delete(Q, x)`: decrease to −∞ and extract (the textbook strategy the
    /// paper's §4 lazy scheme replaces). Returns the removed key.
    pub fn delete(&mut self, id: ItemId) -> i64 {
        let pos = self.item_pos[id.0 as usize];
        assert_ne!(pos, u32::MAX, "item already removed");
        let key = self.node(pos).key;
        // Bubble the victim to its tree root unconditionally.
        let mut cur = pos;
        while let Some(par) = self.node(cur).parent {
            let (ka, ia) = {
                let n = self.node(cur);
                (n.key, n.item)
            };
            let (kb, ib) = {
                let n = self.node(par);
                (n.key, n.item)
            };
            {
                let n = self.node_mut(cur);
                n.key = kb;
                n.item = ib;
            }
            {
                let n = self.node_mut(par);
                n.key = ka;
                n.item = ia;
            }
            self.item_pos[ia as usize] = par;
            self.item_pos[ib as usize] = cur;
            self.stats.add_link();
            cur = par;
        }
        // `cur` is now a root holding the victim; remove that tree like
        // Extract-Min does.
        let order = self.node(cur).children.len();
        debug_assert_eq!(self.roots[order], Some(cur));
        self.roots[order] = None;
        self.trim();
        let n = self.nodes[cur as usize].take().expect("live root");
        self.free.push(cur);
        self.item_pos[n.item as usize] = u32::MAX;
        for &c in &n.children {
            self.node_mut(c).parent = None;
        }
        self.union_children(&n.children);
        self.len -= 1;
        debug_assert_eq!(n.key, key);
        key
    }

    /// `Change-Key(Q, x, k)`: decrease in place or delete+reinsert on
    /// increase. Returns the (possibly new) handle.
    pub fn change_key(&mut self, id: ItemId, new_key: i64) -> ItemId {
        let current = self.key_of(id).expect("live item");
        if new_key <= current {
            self.decrease_key(id, new_key);
            id
        } else {
            self.delete(id);
            self.insert(new_key)
        }
    }

    /// Drain ascending.
    pub fn into_sorted_vec(mut self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len);
        while let Some((_, k)) = self.extract_min() {
            out.push(k);
        }
        out
    }

    /// Structural + handle-map validation.
    pub fn validate(&self) -> Result<(), String> {
        fn walk(h: &IndexedBinomialHeap, i: u32, order: usize) -> Result<usize, String> {
            let n = h.node(i);
            if n.children.len() != order {
                return Err(format!("order mismatch at node {i}"));
            }
            if h.item_pos[n.item as usize] != i {
                return Err("handle map out of sync".into());
            }
            let mut count = 1;
            for (slot, &c) in n.children.iter().enumerate() {
                let cn = h.node(c);
                if cn.key < n.key {
                    return Err("heap order violated".into());
                }
                if cn.parent != Some(i) {
                    return Err("parent pointer wrong".into());
                }
                count += walk(h, c, slot)?;
            }
            Ok(count)
        }
        let mut total = 0;
        for (i, r) in self.roots.iter().enumerate() {
            if let Some(root) = r {
                if self.node(*root).parent.is_some() {
                    return Err("root with parent".into());
                }
                total += walk(self, *root, i)?;
            }
        }
        if total != self.len {
            return Err(format!("len {} vs counted {total}", self.len));
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn insert_extract_with_handles() {
        let mut h = IndexedBinomialHeap::new();
        let ids: Vec<ItemId> = [5i64, 1, 4, 2, 3].iter().map(|&k| h.insert(k)).collect();
        h.validate().unwrap();
        assert_eq!(h.key_of(ids[1]), Some(1));
        let (id, k) = h.extract_min().unwrap();
        assert_eq!((id, k), (ids[1], 1));
        assert_eq!(h.key_of(ids[1]), None);
        assert_eq!(h.into_sorted_vec(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn decrease_key_moves_to_front() {
        let mut h = IndexedBinomialHeap::new();
        let ids: Vec<ItemId> = (10..26).map(|k| h.insert(k)).collect();
        h.decrease_key(ids[13], -5);
        h.validate().unwrap();
        assert_eq!(h.min(), Some(-5));
        assert_eq!(h.key_of(ids[13]), Some(-5));
        // The displaced keys kept their handles too.
        for (i, &id) in ids.iter().enumerate() {
            if i != 13 {
                assert_eq!(h.key_of(id), Some(10 + i as i64));
            }
        }
    }

    #[test]
    #[should_panic(expected = "must not increase")]
    fn decrease_key_rejects_increase() {
        let mut h = IndexedBinomialHeap::new();
        let id = h.insert(5);
        h.decrease_key(id, 6);
    }

    #[test]
    fn delete_internal_and_root() {
        let mut h = IndexedBinomialHeap::new();
        let ids: Vec<ItemId> = (0..16).map(|k| h.insert(k)).collect();
        assert_eq!(h.delete(ids[9]), 9);
        h.validate().unwrap();
        assert_eq!(h.delete(ids[0]), 0); // the overall min / a root
        h.validate().unwrap();
        let expected: Vec<i64> = (1..16).filter(|&k| k != 9).collect();
        assert_eq!(h.into_sorted_vec(), expected);
    }

    #[test]
    fn change_key_both_directions() {
        let mut h = IndexedBinomialHeap::new();
        let ids: Vec<ItemId> = (0..8).map(|k| h.insert(k * 10)).collect();
        let a = h.change_key(ids[4], -1); // decrease: same handle
        assert_eq!(a, ids[4]);
        assert_eq!(h.min(), Some(-1));
        let b = h.change_key(ids[2], 100); // increase: new handle
        assert_eq!(h.key_of(b), Some(100));
        assert_eq!(h.key_of(ids[2]), None);
        h.validate().unwrap();
        assert_eq!(h.into_sorted_vec(), vec![-1, 0, 10, 30, 50, 60, 70, 100]);
    }

    #[test]
    fn meld_translates_handles() {
        let mut a = IndexedBinomialHeap::new();
        let ia = a.insert(5);
        let mut b = IndexedBinomialHeap::new();
        let ib = b.insert(3);
        b.insert(7);
        let tr = a.meld(b);
        a.validate().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.key_of(ia), Some(5));
        assert_eq!(a.key_of(tr(ib)), Some(3));
        a.decrease_key(tr(ib), 0);
        assert_eq!(a.min(), Some(0));
    }

    #[test]
    fn handles_survive_bubbles_through_many_ops() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let mut h = IndexedBinomialHeap::new();
        let mut live: Vec<(ItemId, i64)> = Vec::new();
        for _ in 0..500 {
            match rng.gen_range(0..4) {
                0 | 1 => {
                    let k = rng.gen_range(-10_000..10_000);
                    live.push((h.insert(k), k));
                }
                2 if !live.is_empty() => {
                    let i = rng.gen_range(0..live.len());
                    let (id, k) = live[i];
                    let nk = k - rng.gen_range(0..100);
                    h.decrease_key(id, nk);
                    live[i].1 = nk;
                }
                _ if !live.is_empty() => {
                    let i = rng.gen_range(0..live.len());
                    let (id, k) = live.swap_remove(i);
                    assert_eq!(h.delete(id), k);
                }
                _ => {}
            }
            h.validate().unwrap();
            for &(id, k) in &live {
                assert_eq!(h.key_of(id), Some(k));
            }
        }
        let mut expected: Vec<i64> = live.iter().map(|&(_, k)| k).collect();
        expected.sort_unstable();
        assert_eq!(h.into_sorted_vec(), expected);
    }
}
