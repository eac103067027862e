//! Lazy deletion (paper §4): `Delete` and `Change-Key` with persistent empty
//! nodes.
//!
//! A deleted non-root node is not removed: its key becomes `EMPTY_KEY`
//! (`i64::MIN`, the paper's literal `key = -∞`) and the structure is
//! repaired *locally* by `Take-Up`, which re-melds the node's child lists
//! into its parent so that
//!
//! * **Invariant 1.2** — an empty node's entire sub-binomial-tree is empty,
//! * **Invariant 1.3** — every tree stays *complete*: each child slot of a
//!   node is occupied (by a live-rooted or an all-empty subtree),
//!
//! keep holding. After `⌊log n / log log n⌋` deletions, the global
//! [`LazyBinomialHeap::arrange_heap`] rebuild (in `arrange.rs`) bubbles the
//! empty markers to the tree tops, frees them, and re-melds the surviving
//! all-live subtrees with a balanced binary tree of Unions — Theorem 2's
//! amortization.
//!
//! The nodes are the pool's flat [`Arena`] nodes: a key plus `u32`
//! parent/child/sibling/degree words, with `L` as a child list highest order
//! first. Invariant 1.3 makes that list the paper's slot array: the
//! order-`i` child is position `i` of `Arena::children_ascending`. The
//! paper's `L_x`/`D_x` arrays are derived from it by key
//! ([`LazyBinomialHeap::live_view`], [`LazyBinomialHeap::dead_view`]).
//!
//! Every `Union` performed by these procedures runs as an actual program on
//! the EREW PRAM simulator (through `pool::union_into` with the
//! [`crate::engine_pram::build_plan_pram`] planner) so the reported
//! [`Cost`]s are measured, not estimated; the remaining phases (bubble-up,
//! distance computation) are charged per the paper's CREW schedule by
//! [`CostMeter`].
//!
//! Note on Invariant 1.1: the paper additionally asserts every live node
//! keeps at least one live child in `L`. When the *only* live descendant of a
//! node is deleted this cannot hold (the node becomes a live leaf of its
//! sub-tree whose other children are empty); none of the queue operations
//! depend on it, and our validator checks the operationally load-bearing
//! invariants (1.2, 1.3, live roots, heap order among live nodes) instead.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arrange;
pub mod bubble;
pub mod meter;

use pram::Cost;

use crate::arena::{Arena, NodeId, NIL};
use crate::plan::RootRef;
use crate::pool::{ripple_in, root_refs_into, union_pram, UnionScratch};

pub use meter::CostMeter;

/// The empty-node key: the paper's `-∞`, below every live key. A node is
/// empty exactly when its key is `EMPTY_KEY`.
pub(crate) const EMPTY_KEY: i64 = i64::MIN;

/// Per-operation cost record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `Insert`.
    Insert,
    /// `Min`.
    Min,
    /// `Extract-Min` (or deleting a root).
    ExtractMin,
    /// `Take-Up` portion of a `Delete`.
    TakeUp,
    /// An `Arrange-Heap` rebuild.
    ArrangeHeap,
    /// An eager (non-lazy) deletion — ablation A2's baseline.
    EagerDelete,
    /// `Union` with another lazy heap.
    Union,
}

/// Node count of a root collection: `2^i` per occupied order `i`, empty
/// nodes included. This is the operand size that fixes a plan's width.
fn collection_size(roots: &[Option<NodeId>]) -> usize {
    roots
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_some())
        .map(|(i, _)| 1usize << i)
        .sum()
}

/// The §4 meldable priority queue with lazy deletion.
///
/// All keys must lie strictly between `i64::MIN` and `i64::MAX` (both are
/// sentinels). `Delete`/`Change-Key` address nodes by the [`NodeId`] returned
/// from [`LazyBinomialHeap::insert`].
#[derive(Debug, Clone, Default)]
pub struct LazyBinomialHeap {
    pub(crate) arena: Arena<i64>,
    /// Root array `H`; roots are always live.
    pub(crate) roots: Vec<Option<NodeId>>,
    /// Reused planning buffers of every `Union`.
    scratch: UnionScratch<i64>,
    /// Number of live (non-deleted) keys.
    live_len: usize,
    /// The paper's `deleted` counter (Take-Ups since the last Arrange-Heap).
    deleted_since_arrange: usize,
    /// The paper's `Del` array: empty nodes awaiting Arrange-Heap.
    pub(crate) del_buffer: Vec<NodeId>,
    /// Processors assumed for cost accounting (`p` of Theorem 2).
    p: usize,
    /// Measured cost ledger: one entry per (sub)operation.
    cost_log: Vec<(OpKind, Cost)>,
    /// Whether `delete` triggers `Arrange-Heap` at the threshold (disabled
    /// by experiments that drive the rebuild manually, e.g. the Figure 3
    /// reproduction and ablation A2).
    auto_arrange: bool,
}

impl LazyBinomialHeap {
    /// `Make-Queue` with `p` processors for cost accounting.
    ///
    /// # Panics
    ///
    /// If `p` is 0.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1);
        LazyBinomialHeap {
            p,
            auto_arrange: true,
            ..Default::default()
        }
    }

    /// Enable/disable the automatic `Arrange-Heap` trigger (experiments that
    /// drive the rebuild manually turn it off).
    pub fn set_auto_arrange(&mut self, on: bool) {
        self.auto_arrange = on;
    }

    /// Processors assumed for cost accounting (`p` of Theorem 2).
    pub fn processors(&self) -> usize {
        self.p
    }

    /// With `--features debug-validate`, run the deep `meldpq::check` pass
    /// and panic on the first violation; a no-op otherwise. Called after
    /// every hot-path mutation.
    #[inline]
    pub(crate) fn debug_validate(&self) {
        #[cfg(feature = "debug-validate")]
        if let Err(e) = crate::check::check_lazy(self) {
            panic!("debug-validate (LazyBinomialHeap): {e}");
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.live_len
    }

    /// Whether no live keys remain.
    pub fn is_empty(&self) -> bool {
        self.live_len == 0
    }

    /// The Theorem 2 rebuild threshold `⌊log n / log log n⌋` (at least 1).
    pub fn arrange_threshold(&self) -> usize {
        let n = self.live_len.max(4);
        let log = (usize::BITS - n.leading_zeros()) as usize; // ⌈log2⌉-ish
        let loglog = (usize::BITS - log.leading_zeros()) as usize;
        (log / loglog.max(1)).max(1)
    }

    /// The measured cost ledger (op kind, PRAM cost), in execution order.
    pub fn cost_log(&self) -> &[(OpKind, Cost)] {
        &self.cost_log
    }

    /// Total cost accumulated so far.
    pub fn total_cost(&self) -> Cost {
        self.cost_log
            .iter()
            .fold(Cost::ZERO, |acc, (_, c)| acc + *c)
    }

    /// Clear the ledger (e.g. after warm-up in experiments).
    pub fn reset_cost_log(&mut self) {
        self.cost_log.clear();
    }

    /// Whether `id` refers to a live arena slot.
    pub fn node_exists(&self, id: NodeId) -> bool {
        self.arena.contains(id)
    }

    /// Whether the node is an empty (deleted) marker.
    pub fn is_empty_node(&self, id: NodeId) -> bool {
        self.arena.get(id).key == EMPTY_KEY
    }

    /// Snapshot of the root array `H`.
    pub fn roots_snapshot(&self) -> Vec<Option<NodeId>> {
        self.roots.clone()
    }

    /// Parent handle of a node.
    pub fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        self.arena.get(id).parent()
    }

    /// Children of a node, the order-`i` child at position `i`.
    pub fn children_of(&self, id: NodeId) -> Vec<NodeId> {
        self.arena.children_ascending(id).to_vec()
    }

    /// Key of a live node; `None` for an empty node or a freed handle.
    pub fn key_of(&self, id: NodeId) -> Option<i64> {
        self.arena
            .try_get(id)
            .map(|n| n.key)
            .filter(|&k| k != EMPTY_KEY)
    }

    // ---------------- derived L/D views ----------------

    /// The live-children view `L_x` (paper §4): slot `i` holds the child iff
    /// that child is live.
    pub fn live_view(&self, x: NodeId) -> Vec<Option<NodeId>> {
        self.view(x, false)
    }

    /// The dead-children view `D_x`.
    pub fn dead_view(&self, x: NodeId) -> Vec<Option<NodeId>> {
        self.view(x, true)
    }

    fn view(&self, x: NodeId, empty: bool) -> Vec<Option<NodeId>> {
        self.arena
            .children_ascending(x)
            .iter()
            .map(|&c| (self.is_empty_node(c) == empty).then_some(c))
            .collect()
    }

    // ---------------- tree surgery ----------------

    /// Detach `id` from its parent's child list, ahead of a re-meld: the
    /// parent's list is rewritten (or freed) afterwards.
    fn orphan(&mut self, id: NodeId) {
        let n = self.arena.get_mut(id);
        n.parent = NIL;
        n.sibling = NIL;
    }

    /// Make `slots` the child list of `parent`: the order-`i` child at slot
    /// `i`. A hole (an Invariant 1.3 violation) shortens the chain below
    /// the degree, which [`Self::validate`] reports.
    fn set_children(&mut self, parent: NodeId, slots: &[Option<NodeId>]) {
        let mut head = NIL;
        for &c in slots.iter().flatten() {
            let n = self.arena.get_mut(c);
            n.parent = parent.0;
            n.sibling = head;
            head = c.0;
        }
        let p = self.arena.get_mut(parent);
        p.child = head;
        p.degree = slots.len() as u32;
    }

    /// `Union(dst, other)` of two root collections of this arena, planned
    /// on the `p_eff`-processor PRAM. Returns the new root array and the
    /// measured cost.
    fn union(
        &mut self,
        mut dst: Vec<Option<NodeId>>,
        other: &[Option<NodeId>],
        p_eff: usize,
    ) -> (Vec<Option<NodeId>>, Cost) {
        let (n1, n2) = (collection_size(&dst), collection_size(other));
        let cost = union_pram(
            &mut self.arena,
            &mut self.scratch,
            &mut dst,
            n1,
            other,
            n2,
            p_eff,
        );
        (dst, cost)
    }

    // ---------------- the standard operations ----------------

    /// Fast *unmetered* construction: ripple inserts performed host-side
    /// with no PRAM runs and no ledger entries. Experiments use this to set
    /// up large heaps cheaply before measuring the operations of interest.
    /// It builds exactly the trees of repeated [`Self::insert`], because
    /// `pool::ripple_in` follows the planner's tie rule.
    pub fn from_keys_fast<I: IntoIterator<Item = i64>>(p: usize, keys: I) -> Self {
        let mut h = Self::new(p);
        for k in keys {
            h.insert_unmetered(k);
        }
        h
    }

    /// One unmetered ripple insert (see [`Self::from_keys_fast`]).
    ///
    /// # Panics
    ///
    /// If `key` is `i64::MIN` or `i64::MAX`, the reserved sentinels.
    pub fn insert_unmetered(&mut self, key: i64) -> NodeId {
        assert!(key > i64::MIN && key < i64::MAX, "sentinel keys reserved");
        let id = self.arena.alloc(key);
        ripple_in(&mut self.arena, &mut self.roots, id);
        self.live_len += 1;
        id
    }

    /// `Insert(Q, x)`: returns the handle for later `Delete`/`Change-Key`.
    ///
    /// # Panics
    ///
    /// If `key` is `i64::MIN` or `i64::MAX`, the reserved sentinels.
    pub fn insert(&mut self, key: i64) -> NodeId {
        assert!(key > i64::MIN && key < i64::MAX, "sentinel keys reserved");
        let id = self.arena.alloc(key);
        let old = std::mem::take(&mut self.roots);
        let (roots, cost) = self.union(old, &[Some(id)], self.p);
        self.roots = roots;
        self.live_len += 1;
        self.cost_log.push((OpKind::Insert, cost));
        self.debug_validate();
        id
    }

    /// The minimum root (roots are always live), found by a measured EREW
    /// reduction whose cost is logged as `Min`.
    fn min_root(&mut self) -> Option<RootRef> {
        let mut refs = Vec::new();
        root_refs_into(&self.arena, &self.roots, self.roots.len(), &mut refs);
        let (min, cost) = match crate::engine_pram::min_pram(&refs, self.p) {
            Ok(found) => found,
            // One processor per pair of positions, disjoint at every level
            // of the reduction tree: never a conflict.
            Err(e) => unreachable!("the min-reduction is EREW-legal: {e}"),
        };
        self.cost_log.push((OpKind::Min, cost));
        min
    }

    /// `Min(Q)`: the minimum live key, measured by an EREW reduction.
    pub fn min(&mut self) -> Option<i64> {
        self.min_root().map(|r| r.key)
    }

    /// `Extract-Min(Q)`.
    pub fn extract_min(&mut self) -> Option<i64> {
        let root = self.min_root()?.id;
        Some(self.extract_root(root))
    }

    /// Remove a specific root (used by `Extract-Min` and by `Delete` on a
    /// root node, which the paper treats like `Extract-Min`).
    fn extract_root(&mut self, root: NodeId) -> i64 {
        let order = self.arena.get(root).degree();
        debug_assert_eq!(self.roots[order], Some(root));
        self.roots[order] = None;
        while matches!(self.roots.last(), Some(None)) {
            self.roots.pop();
        }
        // Split the children: all-empty subtrees are freed outright (their
        // deletions were already counted), live-rooted ones re-meld.
        let live = self.live_view(root);
        let dead = self.dead_view(root);
        for d in dead.into_iter().flatten() {
            self.free_empty_subtree(d);
        }
        // A freed empty node leaves `Del`: its slot may be recycled by the
        // next insert, and the entry would then name a live node.
        self.del_buffer.retain(|&d| self.arena.contains(d));
        let key = self.arena.dealloc(root).key;
        for &c in live.iter().flatten() {
            self.orphan(c);
        }
        let old = std::mem::take(&mut self.roots);
        let (roots, cost) = self.union(old, &live, self.p);
        self.roots = roots;
        self.live_len -= 1;
        self.cost_log.push((OpKind::ExtractMin, cost));
        self.debug_validate();
        key
    }

    /// `Union(Q1, Q2)`: meld another lazy heap in. `other`'s node handles are
    /// invalidated (its arena is re-indexed).
    pub fn meld(&mut self, other: LazyBinomialHeap) {
        // Move other's nodes into our arena. This is the cross-arena
        // fallback path (Θ(n) copies); the *re-melds* inside `union` and
        // `arrange_heap` stay within one arena and are zero-copy, like the
        // pooled representation (`meldpq::pool`). New ids are handed out in
        // `other`'s id order.
        let mut map: Vec<u32> = vec![NIL; other.arena.slab_len()];
        for (id, n) in other.arena.iter() {
            map[id.0 as usize] = self.arena.alloc_copy(n.key).0;
        }
        let remap = |w: u32| if w == NIL { NIL } else { map[w as usize] };
        for (id, n) in other.arena.iter() {
            let m = self.arena.get_mut(NodeId(map[id.0 as usize]));
            m.parent = remap(n.parent);
            m.child = remap(n.child);
            m.sibling = remap(n.sibling);
            m.degree = n.degree;
        }
        let other_roots: Vec<Option<NodeId>> = other
            .roots
            .iter()
            .map(|r| r.map(|id| NodeId(map[id.0 as usize])))
            .collect();
        for d in &other.del_buffer {
            if let Some(&m) = map.get(d.0 as usize).filter(|&&m| m != NIL) {
                self.del_buffer.push(NodeId(m));
            }
        }
        self.deleted_since_arrange += other.deleted_since_arrange;
        let old = std::mem::take(&mut self.roots);
        let (roots, cost) = self.union(old, &other_roots, self.p);
        self.roots = roots;
        self.live_len += other.live_len;
        self.cost_log.push((OpKind::Union, cost));
        if self.deleted_since_arrange >= self.arrange_threshold() {
            self.arrange_heap();
        }
        self.debug_validate();
    }

    /// `Delete(Q, x)`. Roots are handled like `Extract-Min`; internal nodes
    /// go through `Take-Up`, and every `⌊log n / log log n⌋`-th deletion
    /// triggers `Arrange-Heap`.
    ///
    /// # Panics
    ///
    /// If `x` is a freed handle or an already deleted node.
    pub fn delete(&mut self, x: NodeId) -> i64 {
        let key = self.live_key(x);
        let Some(parent) = self.parent_of(x) else {
            return self.extract_root(x);
        };
        self.deleted_since_arrange += 1;
        self.del_buffer.push(x);
        self.take_up(x, parent);
        self.live_len -= 1;
        if self.auto_arrange && self.deleted_since_arrange >= self.arrange_threshold() {
            self.arrange_heap();
        }
        self.debug_validate();
        key
    }

    /// The key of the live node `x`: the handle check of the deletions.
    #[track_caller]
    fn live_key(&self, x: NodeId) -> i64 {
        assert!(self.arena.contains(x), "deleting a dead handle");
        let key = self.arena.get(x).key;
        assert!(key != EMPTY_KEY, "node already deleted");
        key
    }

    /// *Eager* deletion (the sequential textbook strategy, ablation A2):
    /// bubble the node's slot to the root by repeated content swaps, then
    /// extract that root. Costs `O(log n)` sequential time per deletion —
    /// the baseline the lazy scheme amortizes away.
    ///
    /// # Panics
    ///
    /// If `x` is a freed handle or an already deleted node.
    pub fn delete_eager(&mut self, x: NodeId) -> i64 {
        let key = self.live_key(x);
        let mut meter = CostMeter::new(self.p);
        let mut pos = x;
        let mut depth = 0u64;
        // Every ancestor of a live node is live (Invariant 1.2), so the
        // swaps move live keys only.
        while let Some(par) = self.parent_of(pos) {
            let pk = self.arena.get(par).key;
            self.arena.get_mut(pos).key = pk;
            self.arena.get_mut(par).key = key;
            depth += 1;
            pos = par;
        }
        // `pos` is now the root carrying the victim key.
        meter.charge_const(depth.max(1));
        self.cost_log.push((OpKind::EagerDelete, meter.total()));
        let out = self.extract_root(pos);
        debug_assert_eq!(out, key);
        out
    }

    /// `Change-Key(Q, x, k)` = `Delete` + `Insert` (paper §4 end); returns
    /// the node's new handle.
    ///
    /// # Panics
    ///
    /// As [`Self::delete`] and [`Self::insert`].
    pub fn change_key(&mut self, x: NodeId, k: i64) -> NodeId {
        self.delete(x);
        self.insert(k)
    }

    // ---------------- Take-Up (paper §4.1) ----------------

    /// Locally repair the structure around the freshly deleted non-root `x`
    /// whose parent is `p_id`.
    fn take_up(&mut self, x: NodeId, p_id: NodeId) {
        let mut meter = CostMeter::new(self.p);
        let kx = self.arena.get(x).degree();
        let kp = self.arena.get(p_id).degree();

        // Split x's child views, then mark x empty.
        let lx = self.live_view(x);
        let dx = self.dead_view(x);
        self.arena.get_mut(x).key = EMPTY_KEY;
        meter.charge_const(2);

        // x is now empty, so the live view of p excludes it and the dead
        // view contains it at slot kx — remove it there (the paper sets
        // L_p[k_x] := nil; x re-enters D_p as a *single* node below).
        let lp = self.live_view(p_id);
        let mut dp = self.dead_view(p_id);
        debug_assert_eq!(dp[kx], Some(x));
        dp[kx] = None;

        // Orphan every sub-root so unions can re-parent them, and make x a
        // single node.
        for r in lp.iter().chain(dx.iter()).chain(dp.iter()).chain(lx.iter()) {
            if let Some(id) = *r {
                self.orphan(id);
            }
        }
        self.orphan(x);
        let xn = self.arena.get_mut(x);
        xn.child = NIL;
        xn.degree = 0;
        meter.charge_par(2 * kp + 2 * kx);

        // D_p := Union(D_p, {x} ∪ D_x);  L_p := Union(L_p, L_x).
        // The single node x is united with its own dead children first (with
        // x preferred by the tie rule), which reproduces Figure 3(b): x ends
        // up rooting the empty tree formed from itself and D_x.
        let (d1, c1) = self.union(vec![Some(x)], &dx, self.p);
        let (d2, c2) = self.union(dp, &d1, self.p);
        let (l2, c3) = self.union(lp, &lx, self.p);
        meter.add(c1 + c2 + c3);

        // Reassemble the parent's child list: the two collections partition
        // the orders 0..kp (completeness, Invariant 1.3).
        let mut slots: Vec<Option<NodeId>> = vec![None; kp];
        for (i, r) in d2.iter().enumerate().chain(l2.iter().enumerate()) {
            if let Some(id) = r {
                debug_assert!(slots[i].is_none(), "D/L collections must be disjoint");
                slots[i] = Some(*id);
            }
        }
        debug_assert!(
            slots.iter().all(|s| s.is_some()),
            "Invariant 1.3: parent stays complete"
        );
        self.set_children(p_id, &slots);
        meter.charge_par(kp);

        self.cost_log.push((OpKind::TakeUp, meter.total()));
    }

    /// Free an all-empty subtree (Invariant 1.2 guarantees no live nodes).
    pub(crate) fn free_empty_subtree(&mut self, root: NodeId) {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let kids = self.arena.children_ascending(id);
            let n = self.arena.dealloc(id);
            debug_assert_eq!(
                n.key, EMPTY_KEY,
                "Invariant 1.2: empty subtrees are all-empty"
            );
            stack.extend_from_slice(&kids);
        }
    }

    // ---------------- validation ----------------

    /// Check the operational invariants: tree shapes (1.3), all-empty empty
    /// subtrees (1.2), live heap order, live roots, and the size ledger.
    /// Children are walked through their sibling chains with no more steps
    /// than the degree, so a corrupt list gives an error, never a panic or
    /// a loop.
    pub fn validate(&self) -> Result<(), String> {
        fn walk(
            h: &LazyBinomialHeap,
            id: NodeId,
            expected_order: usize,
            parent: Option<NodeId>,
        ) -> Result<(usize, usize), String> {
            let Some(n) = h.arena.try_get(id) else {
                return Err(format!("{id:?} is not an arena node"));
            };
            if n.degree() != expected_order {
                return Err(format!(
                    "degree {} != slot order {expected_order}",
                    n.degree()
                ));
            }
            if n.parent() != parent {
                return Err("parent pointer mismatch".into());
            }
            let empty = n.key == EMPTY_KEY;
            let mut live = usize::from(!empty);
            let mut total = 1usize;
            // Children come highest order first: B_{d-1}, …, B_0.
            let mut order = expected_order;
            let mut kids = h.arena.children(id);
            for c in kids.by_ref() {
                let Some(cn) = h.arena.try_get(c) else {
                    return Err(format!("child {c:?} of {id:?} is not an arena node"));
                };
                let child_empty = cn.key == EMPTY_KEY;
                if empty && !child_empty {
                    return Err("Invariant 1.2 violated: live node under empty".into());
                }
                if !empty && !child_empty && cn.key < n.key {
                    return Err("live heap order violated".into());
                }
                order -= 1;
                let (l, t) = walk(h, c, order, Some(id))?;
                live += l;
                total += t;
            }
            if order != 0 {
                return Err("Invariant 1.3 violated: missing child slot".into());
            }
            if kids.rest().is_some() {
                return Err(format!("child list of {id:?} is longer than its degree"));
            }
            Ok((live, total))
        }
        let mut live = 0usize;
        let mut total = 0usize;
        for (i, r) in self.roots.iter().enumerate() {
            if let Some(id) = r {
                match self.arena.try_get(*id) {
                    None => return Err(format!("root {id:?} is not an arena node")),
                    Some(n) if n.key == EMPTY_KEY => return Err("empty root in H".into()),
                    Some(n) if n.sibling().is_some() => {
                        return Err(format!("root {id:?} has a sibling"))
                    }
                    Some(_) => {}
                }
                let (l, t) = walk(self, *id, i, None)?;
                live += l;
                total += t;
                if t != 1 << i {
                    return Err(format!(
                        "tree at slot {i} has {t} nodes, expected {}",
                        1 << i
                    ));
                }
            }
        }
        if live != self.live_len {
            return Err(format!("live_len {} but {live} live nodes", self.live_len));
        }
        if total != self.arena.len() {
            return Err(format!(
                "arena holds {} nodes but trees hold {total}",
                self.arena.len()
            ));
        }
        if matches!(self.roots.last(), Some(None)) {
            return Err("root array not trimmed".into());
        }
        Ok(())
    }

    /// Drain all live keys in ascending order (consumes the heap).
    pub fn into_sorted_vec(mut self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.live_len);
        while let Some(k) = self.extract_min() {
            out.push(k);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_min_extract() {
        let mut h = LazyBinomialHeap::new(3);
        for k in [5, 2, 9, 1, 7] {
            h.insert(k);
            h.validate().unwrap();
        }
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.len(), 5);
        assert_eq!(h.into_sorted_vec(), vec![1, 2, 5, 7, 9]);
    }

    #[test]
    fn delete_internal_node_keeps_structure() {
        let mut h = LazyBinomialHeap::new(2);
        let ids: Vec<NodeId> = (0..8).map(|k| h.insert(k)).collect();
        h.validate().unwrap();
        // Node with key 7 is certainly not the root of B_3 (root holds 0).
        let victim = ids[7];
        assert!(h.parent_of(victim).is_some());
        let k = h.delete(victim);
        assert_eq!(k, 7);
        h.validate().unwrap();
        assert_eq!(h.len(), 7);
        assert_eq!(h.into_sorted_vec(), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn freed_empty_nodes_leave_the_del_buffer() {
        // A deleted node stays in Del until its empty subtree is freed with
        // the root above it. Its recycled slot must then not be in Del.
        let mut h = LazyBinomialHeap::new(2);
        h.set_auto_arrange(false);
        let ids: Vec<NodeId> = (0..8).map(|k| h.insert(k)).collect();
        h.delete(ids[7]);
        assert_eq!(h.del_buffer, vec![ids[7]]);
        let drained: Vec<i64> = std::iter::from_fn(|| h.extract_min()).collect();
        assert_eq!(drained, (0..7).collect::<Vec<_>>());
        assert!(h.del_buffer.is_empty());
        for k in 0..8 {
            h.insert(k);
        }
        assert!(h.node_exists(ids[7]), "the slot was recycled");
        crate::check::check_lazy(&h).unwrap();
    }

    #[test]
    fn delete_root_behaves_like_extract() {
        let mut h = LazyBinomialHeap::new(2);
        let ids: Vec<NodeId> = (0..4).map(|k| h.insert(k)).collect();
        // ids[0] holds key 0 and is the root of B_2.
        let k = h.delete(ids[0]);
        assert_eq!(k, 0);
        h.validate().unwrap();
        assert_eq!(h.into_sorted_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn change_key_moves_node() {
        let mut h = LazyBinomialHeap::new(2);
        let ids: Vec<NodeId> = [10, 20, 30, 40].iter().map(|&k| h.insert(k)).collect();
        let new_id = h.change_key(ids[3], 5);
        h.validate().unwrap();
        assert_eq!(h.key_of(new_id), Some(5));
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.into_sorted_vec(), vec![5, 10, 20, 30]);
    }

    #[test]
    fn many_deletes_trigger_arrange_and_preserve_content() {
        let mut h = LazyBinomialHeap::new(4);
        let n = 64;
        let ids: Vec<NodeId> = (0..n).map(|k| h.insert(k)).collect();
        // Delete every third key; handles of non-deleted nodes may be
        // invalidated by Arrange-Heap, so track the expected multiset only.
        let mut expected: Vec<i64> = Vec::new();
        let mut arranged = false;
        for (i, &id) in ids.iter().enumerate() {
            if i % 3 == 1 && h.key_of(id).is_some() {
                h.delete(id);
                h.validate().unwrap();
            }
        }
        for (_, c) in h.cost_log() {
            let _ = c;
        }
        arranged |= h.cost_log().iter().any(|(k, _)| *k == OpKind::ArrangeHeap);
        assert!(arranged, "threshold must have fired at n=64");
        for k in 0..n {
            if k % 3 != 1 {
                expected.push(k);
            }
        }
        // Some i%3==1 nodes may have been roots (extracted immediately) or
        // already gone; recompute expected from what delete actually removed:
        let removed: usize = ids.iter().enumerate().filter(|(i, _)| i % 3 == 1).count();
        assert_eq!(h.len(), n as usize - removed);
        let drained = h.into_sorted_vec();
        assert_eq!(drained, expected);
    }

    #[test]
    fn meld_two_lazy_heaps() {
        let mut a = LazyBinomialHeap::new(2);
        let mut b = LazyBinomialHeap::new(2);
        for k in [1, 4, 6] {
            a.insert(k);
        }
        for k in [2, 3, 5] {
            b.insert(k);
        }
        a.meld(b);
        a.validate().unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a.into_sorted_vec(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "already deleted")]
    fn double_delete_panics() {
        // n = 256 gives an arrange threshold of 2, so a single delete leaves
        // the node persistently empty and a second delete must be caught.
        let mut h = LazyBinomialHeap::new(2);
        let ids: Vec<NodeId> = (0..256).map(|k| h.insert(k)).collect();
        assert!(h.arrange_threshold() >= 2);
        let victim = ids[255];
        assert!(h.parent_of(victim).is_some());
        h.delete(victim);
        h.delete(victim);
    }

    #[test]
    fn validate_detects_missing_child_slot() {
        // Invariant 1.3: every slot of a node must be occupied. Cutting the
        // B_3 root's sibling chain after its first child leaves a list
        // shorter than the degree: an error, with no panic and no loop.
        let mut h = LazyBinomialHeap::new(2);
        for k in 0..8 {
            h.insert(k);
        }
        let root = h.roots[3].expect("B_3 root");
        let first = h.arena.children(root).next().expect("order-2 child");
        h.arena.get_mut(first).sibling = NIL;
        assert!(h.validate().unwrap_err().contains("Invariant 1.3"));
    }

    #[test]
    fn validate_detects_a_root_with_a_sibling() {
        let mut h = LazyBinomialHeap::new(2);
        for k in 0..3 {
            h.insert(k);
        }
        let [Some(r0), Some(r1)] = h.roots[..] else {
            panic!("3 keys make B_0 and B_1")
        };
        h.arena.get_mut(r1).sibling = r0.0;
        assert!(h.validate().unwrap_err().contains("sibling"));
    }

    #[test]
    fn validate_detects_live_under_empty() {
        // Invariant 1.2: an empty node's subtree must be all-empty.
        let mut h = LazyBinomialHeap::new(2);
        for k in 0..8 {
            h.insert(k);
        }
        let root = h.roots[3].expect("B_3 root");
        // Mark a mid-level node empty without Take-Up repair.
        let victim = h.children_of(root)[2];
        assert_eq!(h.arena.get(victim).degree(), 2);
        h.arena.get_mut(victim).key = EMPTY_KEY;
        assert!(h.validate().is_err());
    }

    #[test]
    fn extracting_the_last_root_leaves_a_trimmed_root_array() {
        // Deleting keys 3 then 2 leaves B_2 rooted at 0 with the order-1
        // child empty; extracting 0 re-melds its one live child, B_0 (key
        // 1), into an otherwise empty H. An untrimmed H would also charge
        // the next Min over width 2.
        let mut h = LazyBinomialHeap::new(2);
        h.set_auto_arrange(false);
        let ids: Vec<NodeId> = (0..4).map(|k| h.insert(k)).collect();
        h.delete(ids[3]);
        h.delete(ids[2]);
        assert_eq!(h.extract_min(), Some(0));
        h.validate().unwrap();
        assert_eq!(h.roots_snapshot(), vec![Some(ids[1])]);
        assert_eq!(h.min(), Some(1));
        let (_, min_cost) = *h.cost_log().last().expect("Min logged");
        assert_eq!(min_cost, Cost { time: 2, work: 2 });
    }

    /// Every node as (id, key, parent, children in ascending order).
    fn shape(h: &LazyBinomialHeap) -> Vec<(NodeId, i64, Option<NodeId>, Vec<NodeId>)> {
        h.arena
            .iter()
            .map(|(id, n)| (id, n.key, n.parent(), h.children_of(id)))
            .collect()
    }

    #[test]
    fn fast_build_makes_the_planned_inserts_trees() {
        // Duplicate keys make the link tie rule visible: a carry beats the
        // tree it meets, as in the planner.
        for m in 1..=3i64 {
            for n in 1..64i64 {
                let keys: Vec<i64> = (0..n).map(|k| (7 * k) % (m + 1)).collect();
                let fast = LazyBinomialHeap::from_keys_fast(2, keys.iter().copied());
                let mut planned = LazyBinomialHeap::new(2);
                for &k in &keys {
                    planned.insert(k);
                }
                fast.validate().unwrap();
                assert_eq!(fast.roots, planned.roots, "m={m} n={n}");
                assert_eq!(shape(&fast), shape(&planned), "m={m} n={n}");
            }
        }
    }

    #[test]
    fn costs_are_recorded() {
        let mut h = LazyBinomialHeap::new(2);
        h.insert(3);
        h.insert(1);
        assert!(h
            .cost_log()
            .iter()
            .any(|(k, c)| *k == OpKind::Insert && c.time > 0));
        assert!(h.total_cost().work > 0);
    }
}
