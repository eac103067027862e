//! The parallel meldable binomial heap (the paper's §3 structure).
//!
//! [`ParBinomialHeap`] owns an [`Arena`] of nodes plus the root array `H`.
//! `Union` builds a [`UnionPlan`] with one of three engines — sequential
//! oracle, rayon threads, or the PRAM simulator — and applies it with
//! [`ParBinomialHeap::apply_plan`]; the engines must (and are tested to)
//! produce identical plans.

use crate::arena::{Arena, Node, NodeId};
use crate::plan::{build_plan_seq, plan_width, RootRef, UnionPlan};

/// Which execution strategy carries out the parallel phases of `Union`,
/// `Extract-Min` and `Min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Plain loops — the oracle.
    Sequential,
    /// Real threads via rayon (wall-clock experiments).
    Rayon,
}

/// A meldable priority queue backed by a binomial heap.
///
/// Generic over the key type `K: Ord + Copy` (use a `(priority, payload)`
/// tuple to carry data). The default `K = i64` is the PRAM machine word: the
/// measured engines (`meld_pram`, `from_keys_pram`, …) exist only for
/// word keys, because the simulator stores keys in memory cells.
#[derive(Debug, Clone)]
pub struct ParBinomialHeap<K = i64> {
    arena: Arena<K>,
    /// Root array `H`: slot `i` = root of `B_i`.
    roots: Vec<Option<NodeId>>,
    len: usize,
    /// Default planning engine, used by the engine-less [`MeldablePq`]
    /// surface (`crate::meldable`); the explicit-engine methods ignore it.
    engine: Engine,
    /// Cumulative Theorem-1 cost of every op planned on the PRAM simulator
    /// (`*_pram` methods; `i64` keys only). `pram::Cost` implements
    /// [`obs::Recorder`], so this ledger snapshots straight into a registry.
    ledger: pram::Cost,
    /// Cached minimum root, refreshed eagerly by every mutator so `min` /
    /// `min_root` are O(1). `None` either means the heap is empty or the
    /// cache was invalidated by raw-parts surgery; `min_root` falls back to
    /// the scan in that case, so stale-`None` is safe, stale-`Some` never
    /// happens.
    min_cache: Option<NodeId>,
}

impl<K> Default for ParBinomialHeap<K> {
    fn default() -> Self {
        ParBinomialHeap {
            arena: Arena::new(),
            roots: Vec::new(),
            len: 0,
            engine: Engine::Sequential,
            ledger: pram::Cost::ZERO,
            min_cache: None,
        }
    }
}

impl<K: Ord + Copy + Send + Sync> ParBinomialHeap<K> {
    /// `Make-Queue`: an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: set the default planning engine used by the engine-less
    /// [`crate::MeldablePq`] surface. The explicit-engine methods
    /// (`meld(.., engine)`, …) are unaffected.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The default planning engine (see [`Self::with_engine`]).
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Change the default planning engine in place.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// With `--features debug-validate`, run the deep `meldpq::check` pass
    /// and panic on the first violation; a no-op otherwise. Called after
    /// every hot-path mutation.
    #[inline]
    pub(crate) fn debug_validate(&self) {
        #[cfg(feature = "debug-validate")]
        if let Err(e) = crate::check::check_heap(self) {
            panic!("debug-validate (ParBinomialHeap): {e}");
        }
    }

    /// Build from keys by repeated insertion (sequential engine).
    pub fn from_keys<I: IntoIterator<Item = K>>(keys: I) -> Self {
        let mut h = Self::new();
        for k in keys {
            h.insert(k);
        }
        h
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow the arena (read-only; used by engines and tests).
    pub fn arena(&self) -> &Arena<K> {
        &self.arena
    }

    /// Borrow the root array.
    pub fn roots(&self) -> &[Option<NodeId>] {
        &self.roots
    }

    /// Orders of the trees present (the set bits of `len`).
    pub fn root_orders(&self) -> Vec<usize> {
        self.roots
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|_| i))
            .collect()
    }

    /// Root references padded to `width` (engine input).
    pub fn root_refs(&self, width: usize) -> Vec<Option<RootRef<K>>> {
        (0..width)
            .map(|i| {
                self.roots.get(i).copied().flatten().map(|id| RootRef {
                    key: self.arena.get(id).key,
                    id,
                })
            })
            .collect()
    }

    fn trim(&mut self) {
        while matches!(self.roots.last(), Some(None)) {
            self.roots.pop();
        }
    }

    /// `Insert(Q, x)`: meld with a singleton heap.
    pub fn insert(&mut self, key: K) {
        let mut single = ParBinomialHeap::new();
        let id = single.arena.alloc(key);
        single.roots.push(Some(id));
        single.len = 1;
        self.meld(single, Engine::Sequential);
    }

    /// `Min(Q)`: the minimum key (always at some root by BH1).
    pub fn min(&self) -> Option<K> {
        self.min_root().map(|id| self.arena.get(id).key)
    }

    /// The root holding the minimum key (ties to the lowest order).
    ///
    /// O(1) when the cache is warm (every mutator refreshes it); falls back
    /// to [`Self::min_root_scan`] after raw-parts surgery invalidated it.
    pub fn min_root(&self) -> Option<NodeId> {
        self.min_cache.or_else(|| self.min_root_scan())
    }

    /// The uncached O(log n) scan over the root array (the pre-cache
    /// behaviour; kept public so the wallclock bench can race the two).
    pub fn min_root_scan(&self) -> Option<NodeId> {
        let mut best: Option<NodeId> = None;
        for id in self.roots.iter().flatten() {
            match best {
                None => best = Some(*id),
                Some(b) => {
                    if self.arena.get(*id).key < self.arena.get(b).key {
                        best = Some(*id);
                    }
                }
            }
        }
        best
    }

    /// Recompute the cached min root from the current root array.
    fn refresh_min_cache(&mut self) {
        self.min_cache = self.min_root_scan();
    }

    /// `Extract-Min(Q)`: remove and return the minimum key. The children of
    /// the removed root — exactly `B_{k-1}, …, B_0` — become a heap that is
    /// melded back with the chosen engine.
    pub fn extract_min(&mut self, engine: Engine) -> Option<K> {
        let min_id = self.min_root()?;
        let order = self.arena.get(min_id).children.len();
        debug_assert_eq!(self.roots[order], Some(min_id));
        self.roots[order] = None;
        self.trim();
        let Node { key, children, .. } = self.arena.dealloc(min_id);
        let child_count = (1usize << order) - 1;
        self.len -= 1 << order;
        // Orphan the children and build the residual heap *sharing the same
        // arena*: we split the bookkeeping, not the storage — self keeps the
        // arena; the residual heap is described by a root array only.
        for &c in &children {
            self.arena.get_mut(c).parent = None;
        }
        let residual_roots: Vec<Option<NodeId>> = children.into_iter().map(Some).collect();
        self.meld_roots_in_arena(residual_roots, child_count, engine);
        // The residual meld may have been a no-op (order-0 root); the root
        // array still changed above, so always refresh here.
        self.refresh_min_cache();
        self.debug_validate();
        Some(key)
    }

    /// `Union(Q1, Q2)`: absorb `other` (its arena is merged in, ids remapped),
    /// then meld the two root arrays with the chosen engine.
    pub fn meld(&mut self, other: ParBinomialHeap<K>, engine: Engine) {
        let other_len = other.len;
        let remap = self.arena.absorb(other.arena);
        let other_roots: Vec<Option<NodeId>> = other.roots.iter().map(|r| r.map(&remap)).collect();
        self.meld_roots_in_arena(other_roots, other_len, engine);
    }

    /// Meld a second root array whose nodes already live in `self.arena`.
    pub(crate) fn meld_roots_in_arena(
        &mut self,
        other_roots: Vec<Option<NodeId>>,
        other_len: usize,
        engine: Engine,
    ) {
        let n1 = self.len;
        let n2 = other_len;
        if n2 == 0 {
            return;
        }
        if n1 == 0 {
            self.roots = other_roots;
            self.len = n2;
            self.trim();
            self.refresh_min_cache();
            return;
        }
        let width = plan_width(n1, n2);
        let h1 = self.root_refs(width);
        let h2: Vec<Option<RootRef<K>>> = (0..width)
            .map(|i| {
                other_roots.get(i).copied().flatten().map(|id| RootRef {
                    key: self.arena.get(id).key,
                    id,
                })
            })
            .collect();
        let plan = match engine {
            Engine::Sequential => build_plan_seq(&h1, &h2),
            Engine::Rayon => crate::engine_rayon::build_plan_rayon(&h1, &h2),
        };
        #[cfg(feature = "debug-validate")]
        if let Err(e) = crate::check::check_plan(&plan) {
            panic!("debug-validate (UnionPlan): {e}");
        }
        self.apply_plan(&plan);
        self.len = n1 + n2;
        self.debug_validate();
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

    /// Accumulate an externally measured cost (e.g. a PRAM `Make-Queue`
    /// build feeding `multi_insert_pram`) onto the ledger.
    pub(crate) fn add_pram_cost(&mut self, cost: pram::Cost) {
        self.ledger += cost;
    }

    /// The one measured meld core behind `insert_pram` / `meld_pram` /
    /// `extract_min_pram`: plan `other_roots` (already in `self.arena`) on a
    /// `p`-processor EREW PRAM, apply, and accumulate the measured cost on
    /// [`Self::pram_ledger`]. Trivial melds (either side empty) are free,
    /// exactly as in the paper's accounting.
    fn meld_roots_pram(&mut self, other_roots: Vec<Option<NodeId>>, other_len: usize, p: usize) {
        if other_len == 0 {
            return;
        }
        if self.len == 0 {
            self.roots = other_roots;
            self.len = other_len;
            self.trim();
            self.refresh_min_cache();
            return;
        }
        let width = plan_width(self.len, other_len);
        let h1 = self.root_refs(width);
        let h2: Vec<Option<RootRef>> = (0..width)
            .map(|i| {
                other_roots.get(i).copied().flatten().map(|id| RootRef {
                    key: self.arena.get(id).key,
                    id,
                })
            })
            .collect();
        let out = crate::engine_pram::build_plan_pram(&h1, &h2, p)
            .expect("the Union program is EREW-legal");
        self.apply_plan(&out.plan);
        self.len += other_len;
        self.ledger += out.cost;
        self.debug_validate();
    }

    /// `Union(Q1, Q2)` planned on the EREW PRAM simulator with `p`
    /// processors; the measured Theorem-1 cost lands on [`Self::pram_ledger`].
    pub fn meld_pram(&mut self, other: ParBinomialHeap, p: usize) {
        let other_len = other.len;
        if other_len == 0 {
            return;
        }
        let remap = self.arena.absorb(other.arena);
        let other_roots: Vec<Option<NodeId>> = other.roots.iter().map(|r| r.map(&remap)).collect();
        self.meld_roots_pram(other_roots, other_len, p);
    }

    /// `Insert(Q, x)` planned on the PRAM simulator (a singleton `Union`);
    /// cost lands on [`Self::pram_ledger`].
    pub fn insert_pram(&mut self, key: i64, p: usize) {
        let mut single = ParBinomialHeap::new();
        let id = single.arena.alloc(key);
        single.roots.push(Some(id));
        single.len = 1;
        self.meld_pram(single, p);
    }

    /// `Extract-Min(Q)` planned on the PRAM simulator: an EREW min-reduction
    /// over the root array plus the children re-meld, both measured onto
    /// [`Self::pram_ledger`].
    pub fn extract_min_pram(&mut self, p: usize) -> Option<i64> {
        let width = self.roots.len();
        let refs = self.root_refs(width);
        let (min, reduce_cost) =
            crate::engine_pram::min_pram(&refs, p).expect("the reduction is EREW-legal");
        self.ledger += reduce_cost;
        let min_id = min?.id;
        let order = self.arena.get(min_id).children.len();
        debug_assert_eq!(self.roots[order], Some(min_id));
        self.roots[order] = None;
        self.trim();
        let Node { key, children, .. } = self.arena.dealloc(min_id);
        let child_count = (1usize << order) - 1;
        self.len -= 1 << order;
        for &c in &children {
            self.arena.get_mut(c).parent = None;
        }
        let residual: Vec<Option<NodeId>> = children.into_iter().map(Some).collect();
        self.meld_roots_pram(residual, child_count, p);
        self.refresh_min_cache();
        self.debug_validate();
        Some(key)
    }
}

impl<K: Ord + Copy + Send + Sync> ParBinomialHeap<K> {
    /// Carry out a [`UnionPlan`]'s Phase III surgery on the arena: links in
    /// ascending slot order (so child vectors stay dense) and the new root
    /// array.
    pub fn apply_plan(&mut self, plan: &UnionPlan<K>) {
        debug_assert!(plan.links.windows(2).all(|w| w[0].slot <= w[1].slot));
        for l in &plan.links {
            debug_assert_eq!(
                self.arena.get(l.child).children.len(),
                l.slot,
                "link child must have order == slot"
            );
            debug_assert_eq!(
                self.arena.get(l.parent).children.len(),
                l.slot,
                "link parent must have order == slot before gaining the child"
            );
            self.arena.get_mut(l.parent).children.push(l.child);
            self.arena.get_mut(l.child).parent = Some(l.parent);
        }
        self.roots = plan.new_roots.clone();
        for r in self.roots.iter().flatten() {
            self.arena.get_mut(*r).parent = None;
        }
        self.trim();
        self.refresh_min_cache();
    }

    /// Assemble a heap from a pool-built arena + root array (the zero-copy
    /// handoff in [`HeapPool::into_heap`](crate::pool::HeapPool::into_heap)).
    /// The arena must hold exactly the heap's nodes.
    pub(crate) fn from_raw_parts(arena: Arena<K>, roots: Vec<Option<NodeId>>, len: usize) -> Self {
        let mut h = ParBinomialHeap {
            arena,
            roots,
            len,
            engine: Engine::Sequential,
            ledger: pram::Cost::ZERO,
            min_cache: None,
        };
        h.trim();
        h.refresh_min_cache();
        h.debug_validate();
        h
    }

    /// Decompose into `(arena, roots, len)` (the zero-copy handoff into
    /// [`HeapPool::adopt`](crate::pool::HeapPool::adopt)).
    pub(crate) fn into_raw_parts(self) -> (Arena<K>, Vec<Option<NodeId>>, usize) {
        (self.arena, self.roots, self.len)
    }

    /// Mutable access to arena + roots together (the bulk peel kernel).
    /// Invalidates the min cache — the caller mutates roots out of our
    /// sight, and the finishing `set_len` rebuilds it.
    pub(crate) fn parts_mut(&mut self) -> (&mut Arena<K>, &mut Vec<Option<NodeId>>) {
        self.min_cache = None;
        (&mut self.arena, &mut self.roots)
    }

    /// Allocate a node without attaching it anywhere (the parallel builders
    /// wire structure up separately). Not counted in `len` until
    /// `set_len`/`install_root` finish the build.
    pub(crate) fn alloc_detached(&mut self, key: K) -> NodeId {
        self.arena.alloc(key)
    }

    /// Link two equal-order detached trees: `loser` becomes the next child
    /// of `winner`.
    pub(crate) fn link_detached(&mut self, winner: NodeId, loser: NodeId) {
        debug_assert_eq!(
            self.arena.get(winner).children.len(),
            self.arena.get(loser).children.len()
        );
        debug_assert!(self.arena.get(winner).key <= self.arena.get(loser).key);
        self.arena.get_mut(winner).children.push(loser);
        self.arena.get_mut(loser).parent = Some(winner);
    }

    /// Install a finished tree into root slot `order`.
    pub(crate) fn install_root(&mut self, order: usize, id: NodeId) {
        if self.roots.len() <= order {
            self.roots.resize(order + 1, None);
        }
        debug_assert!(self.roots[order].is_none());
        debug_assert_eq!(self.arena.get(id).children.len(), order);
        self.roots[order] = Some(id);
        self.min_cache = None;
    }

    /// Finish a detached build by recording the key count (and rebuild the
    /// min cache the detached surgery bypassed).
    pub(crate) fn set_len(&mut self, n: usize) {
        self.len = n;
        self.refresh_min_cache();
    }

    /// Iterate over all stored keys in arbitrary (arena) order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.arena.iter().map(|(_, n)| n.key)
    }

    /// Drain into ascending order (sequential engine).
    pub fn into_sorted_vec(mut self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(k) = self.extract_min(Engine::Sequential) {
            out.push(k);
        }
        out
    }

    /// Verify BH1 (heap order), BH2 (tree shapes & one tree per order),
    /// parent pointers, and size bookkeeping.
    pub fn validate(&self) -> Result<(), String> {
        fn walk<K: Ord + Copy>(
            arena: &Arena<K>,
            id: NodeId,
            expected_order: usize,
        ) -> Result<usize, String> {
            let n = arena.get(id);
            if n.children.len() != expected_order {
                return Err(format!(
                    "node {id:?}: degree {} expected {expected_order}",
                    n.children.len()
                ));
            }
            let mut size = 1;
            for (i, &c) in n.children.iter().enumerate() {
                let cn = arena.get(c);
                if cn.key < n.key {
                    return Err("heap order violated".into());
                }
                if cn.parent != Some(id) {
                    return Err(format!("child {c:?} has wrong parent pointer"));
                }
                size += walk(arena, c, i)?;
            }
            Ok(size)
        }
        let mut total = 0usize;
        for (i, r) in self.roots.iter().enumerate() {
            if let Some(id) = r {
                if self.arena.get(*id).parent.is_some() {
                    return Err(format!("root {id:?} has a parent pointer"));
                }
                total += walk(&self.arena, *id, i)?;
            }
        }
        if total != self.len {
            return Err(format!("len {} but trees hold {total}", self.len));
        }
        if matches!(self.roots.last(), Some(None)) {
            return Err("root array not trimmed".into());
        }
        if self.arena.len() != self.len {
            return Err(format!(
                "arena holds {} nodes for {} keys",
                self.arena.len(),
                self.len
            ));
        }
        if let Some(cached) = self.min_cache {
            if !self.roots.contains(&Some(cached)) {
                return Err("min cache points at a non-root".into());
            }
            let cached_key = self.arena.get(cached).key;
            if let Some(best) = self.min_root_scan() {
                if self.arena.get(best).key < cached_key {
                    return Err("min cache is stale (scan found a smaller root)".into());
                }
            }
        }
        Ok(())
    }
}

impl<K: Ord + Copy + Send + Sync> FromIterator<K> for ParBinomialHeap<K> {
    fn from_iter<T: IntoIterator<Item = K>>(iter: T) -> Self {
        ParBinomialHeap::from_keys(iter)
    }
}

impl<K: Ord + Copy + Send + Sync> Extend<K> for ParBinomialHeap<K> {
    fn extend<T: IntoIterator<Item = K>>(&mut self, iter: T) {
        for k in iter {
            self.insert(k);
        }
    }
}

impl<K: Ord + Copy + Send + Sync> IntoIterator for ParBinomialHeap<K> {
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
        let root = h.roots[3].expect("B_3 root");
        let child = h.arena.get(root).children[0];
        h.arena.get_mut(child).key = -100;
        assert!(h.validate().unwrap_err().contains("heap order"));
    }

    #[test]
    fn validate_detects_parent_pointer_corruption() {
        let mut h = ParBinomialHeap::from_keys(0..8);
        let root = h.roots[3].expect("B_3 root");
        let child = h.arena.get(root).children[1];
        h.arena.get_mut(child).parent = None;
        assert!(h.validate().unwrap_err().contains("parent"));
    }

    #[test]
    fn validate_detects_len_corruption() {
        let mut h = ParBinomialHeap::from_keys(0..8);
        h.len = 9;
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
        a.meld(b, Engine::Sequential);
        assert_eq!(a.len(), 16);
        assert_eq!(a.root_orders(), vec![4]);
        a.validate().unwrap();
        assert_eq!(a.into_sorted_vec().len(), 16);
    }

    #[test]
    fn extract_min_across_melds() {
        let mut a = ParBinomialHeap::from_keys([9, 7, 5]);
        let b = ParBinomialHeap::from_keys([8, 6, 4]);
        a.meld(b, Engine::Sequential);
        a.validate().unwrap();
        let mut out = Vec::new();
        while let Some(k) = a.extract_min(Engine::Sequential) {
            a.validate().unwrap();
            out.push(k);
        }
        assert_eq!(out, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn empty_meld_cases() {
        let mut e: ParBinomialHeap = ParBinomialHeap::new();
        e.meld(ParBinomialHeap::new(), Engine::Sequential);
        assert!(e.is_empty());
        let mut a = ParBinomialHeap::from_keys([1]);
        a.meld(ParBinomialHeap::new(), Engine::Sequential);
        assert_eq!(a.len(), 1);
        let mut e2 = ParBinomialHeap::new();
        e2.meld(a, Engine::Sequential);
        assert_eq!(e2.len(), 1);
        assert_eq!(e2.min(), Some(1));
    }

    #[test]
    fn min_cache_tracks_scan_through_all_mutators() {
        let mut h = ParBinomialHeap::new();
        // Insert / extract keep the cache warm and correct.
        for k in [13i64, 4, 9, 4, 22, -3, 17, 0] {
            h.insert(k);
            assert_eq!(h.min_cache, h.min_root_scan(), "cache after insert");
            h.validate().unwrap();
        }
        assert_eq!(h.extract_min(Engine::Sequential), Some(-3));
        assert_eq!(h.min_cache, h.min_root_scan(), "cache after extract");
        // Melds (both directions, including meld-into-empty) refresh it.
        let mut e = ParBinomialHeap::new();
        e.meld(ParBinomialHeap::from_keys([-7, 5]), Engine::Sequential);
        assert_eq!(e.min_cache, e.min_root_scan(), "cache after empty-meld");
        h.meld(e, Engine::Rayon);
        assert_eq!(h.min_cache, h.min_root_scan(), "cache after meld");
        assert_eq!(h.min(), Some(-7));
        // PRAM ops refresh it too.
        h.insert_pram(-9, 3);
        assert_eq!(h.min_cache, h.min_root_scan(), "cache after insert_pram");
        assert_eq!(h.extract_min_pram(3), Some(-9));
        assert_eq!(h.min_cache, h.min_root_scan(), "cache after extract_pram");
        h.validate().unwrap();
        // And a stale cache is caught by validate.
        // Keys [3,1,2]: B_1 holds {3,1} (root key 1), B_0 holds {2}. Pointing
        // the cache at the B_0 root (key 2) makes it stale.
        let mut bad = ParBinomialHeap::from_keys([3i64, 1, 2]);
        bad.min_cache = bad.roots[0];
        assert!(bad.validate().unwrap_err().contains("min cache"));
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
}
