//! The binomial-heap representation: heaps sharing one node slab.
//!
//! A [`HeapPool`] owns a single [`Arena`] from which *every* heap in the
//! pool allocates its [`NodeId`]s. A [`PooledHeap`] is then nothing but
//! bookkeeping — a root array `H`, a length and the cached min root — so
//! melding two heaps of the same pool is pure Phase I–III plan application:
//! `O(log n)` pointer writes, **zero node copies** (asserted by the
//! [`Arena::stats`] counters and the `tests/pool_zero_copy.rs` gate). This
//! is the spirit of Hollow Heaps (Hansen–Kaplan–Tarjan–Zwick) and
//! rank-pairing heaps: **one shared slab, links instead of moves**. The
//! free-standing [`ParBinomialHeap`](crate::ParBinomialHeap) is a pool that
//! holds exactly one heap.
//!
//! Every `Union` in the crate goes through one function, `union_into`: it
//! pads both root arrays to the plan width, asks a planner (the sequential
//! [`build_plan_into`] or the PRAM simulator) for the plan, and applies the
//! links. The planning scratch lives in the pool and is reused across
//! melds, so the hot loop performs no per-meld allocation. The §4 lazy heap
//! ([`crate::lazy::LazyBinomialHeap`]) keeps its nodes in the same kind of
//! [`Arena`] and unions through the same function.
//!
//! Inserts and extracts do not plan. `Insert` is a binary-counter
//! increment: the new node ripples up `H`, one `link` per carry (amortised
//! `O(1)`). `Multi-Insert` is the same ripple once per key, under one
//! ownership and one capacity check, so a batch builds exactly the trees of
//! an `insert` loop and reuses free slots as it does. `Extract-Min` is one
//! pass over the removed root's children: a single walk of its child list
//! detaches `B_0 … B_{k-1}` into a stack buffer, they carry into slots
//! `0 … k` of `H` (slot `k` is the one the root left, so the last carry
//! settles there), and a branch-free scan of the roots finds the new min.
//! `Multi-Extract-Min` is `k` of those under one ownership check. All of
//! them build exactly the trees the planner would, because `link` follows
//! the planner's tie contract. `meld` and `meld_cross_pool` run the
//! paper's Phases I–III. Each heap caches its min root, exact after every
//! op: `insert` updates it in `O(1)`, and the ops that rebuild `H` rescan
//! its `≤ log n` roots once.
//!
//! Heaps of different pools meld through [`HeapPool::meld_cross_pool`],
//! which moves the source trees node by node (counted copies). Ownership is
//! enforced by a generational [`PoolId`] stamped into every handle — using a
//! handle against the wrong pool panics immediately instead of silently
//! corrupting two slabs.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::{AtomicU64, Ordering};

use crate::arena::{Arena, ArenaStats, ChildBuf, NodeId, NIL};
use crate::plan::{build_plan_into, plan_width, RootRef, UnionPlan};

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

/// Generational identity of a [`HeapPool`]. Every [`PooledHeap`] carries the
/// id of the pool that created it; all pool operations verify the stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolId(u64);

/// Typed admission error: accepting `requested` more nodes would push the
/// slab past the `u32` [`NodeId`] space, so the batch is refused *before*
/// any of its keys is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// Nodes the caller asked to admit.
    pub requested: usize,
    /// Slab slots already in use (live + free) at admission time.
    pub slab_len: usize,
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool capacity exceeded: slab holds {} slots, admitting {} more \
             would overflow the u32 node-id space",
            self.slab_len, self.requested
        )
    }
}

impl std::error::Error for CapacityError {}

/// A heap living inside a [`HeapPool`]: the root array `H`, the length and
/// the cached min root. All node storage belongs to the pool, which is what
/// makes same-pool meld zero-copy. Handles are deliberately not `Clone` —
/// duplicating one would alias live trees; use [`HeapPool::clone_heap`] for
/// a (counted) deep copy.
#[derive(Debug)]
pub struct PooledHeap {
    pool: PoolId,
    roots: Vec<Option<NodeId>>,
    len: usize,
    /// The min root, always exact: the root the scan over `roots` picks
    /// (smallest key, ties to the lowest order), `None` iff empty. Every
    /// constructor sets it and every mutator keeps it so.
    min: Option<NodeId>,
}

impl PooledHeap {
    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root array `H`: slot `i` = root of `B_i`.
    pub fn roots(&self) -> &[Option<NodeId>] {
        &self.roots
    }
}

/// Reusable `Union` scratch: both operands' root references padded to the
/// plan width, and the plan itself. Refilled in place by every union.
#[derive(Debug, Clone)]
pub(crate) struct UnionScratch<K> {
    h1: Vec<Option<RootRef<K>>>,
    h2: Vec<Option<RootRef<K>>>,
    plan: UnionPlan<K>,
}

impl<K> Default for UnionScratch<K> {
    fn default() -> Self {
        UnionScratch {
            h1: Vec::new(),
            h2: Vec::new(),
            plan: UnionPlan::default(),
        }
    }
}

/// A pool of binomial heaps sharing one node slab. See the module docs.
///
/// `meld` and `meld_cross_pool` plan with [`build_plan_into`]; `insert`,
/// `multi_insert`, `extract_min` and `multi_extract_min` link directly and
/// plan nothing.
#[derive(Debug)]
pub struct HeapPool<K = i64> {
    id: PoolId,
    arena: Arena<K>,
    scratch: UnionScratch<K>,
}

impl<K> Default for HeapPool<K> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<K> HeapPool<K> {
    /// A fresh, empty pool.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A fresh pool with slab room for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        Self::from_arena(Arena::with_capacity(cap))
    }

    /// This pool's identity stamp.
    pub fn id(&self) -> PoolId {
        self.id
    }

    /// Whether `h` was created by (and still belongs to) this pool.
    pub fn owns(&self, h: &PooledHeap) -> bool {
        h.pool == self.id
    }

    /// Borrow the shared arena (read-only; checks and tests).
    pub fn arena(&self) -> &Arena<K> {
        &self.arena
    }

    /// The shared arena, mutably, for kernels outside this module that
    /// build trees in the slab (the PRAM `Make-Queue`). The caller turns
    /// its finished root array into a heap with [`Self::restore_heap`].
    pub(crate) fn arena_mut(&mut self) -> &mut Arena<K> {
        &mut self.arena
    }

    /// Total live nodes across every heap of the pool.
    pub fn live_nodes(&self) -> usize {
        self.arena.len()
    }

    /// Allocation counters of the shared slab: `(allocs, copies)` — a
    /// same-pool meld must change neither.
    pub fn stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// An empty heap in this pool.
    pub fn new_heap(&self) -> PooledHeap {
        PooledHeap {
            pool: self.id,
            roots: Vec::new(),
            len: 0,
            min: None,
        }
    }

    /// Check that `requested` more nodes fit in the `u32` id space.
    /// [`Self::multi_insert`] and the service's admission call this before
    /// any key is allocated, so an oversized batch fails with a typed error
    /// instead of panicking halfway in [`Arena::alloc`].
    pub fn can_admit(&self, requested: usize) -> Result<(), CapacityError> {
        let slab_len = self.arena.slab_len();
        // `checked_add` first: `slab_len + requested` itself can overflow
        // `usize` on 32-bit targets.
        match slab_len.checked_add(requested) {
            Some(total) if total < u32::MAX as usize => Ok(()),
            _ => Err(CapacityError {
                requested,
                slab_len,
            }),
        }
    }

    /// A pool with a fresh identity around `arena` (also checkpoint
    /// recovery's entry point).
    pub(crate) fn from_arena(arena: Arena<K>) -> Self {
        HeapPool {
            id: PoolId(NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed)),
            arena,
            scratch: UnionScratch::default(),
        }
    }

    #[track_caller]
    fn assert_owner(&self, h: &PooledHeap) {
        assert!(
            h.pool == self.id,
            "pool-ownership violation: heap belongs to {:?}, pool is {:?} \
             (use meld_cross_pool for foreign heaps)",
            h.pool,
            self.id
        );
    }
}

impl<K: Clone> HeapPool<K> {
    /// A deep copy of the pool under a fresh identity, plus `h` re-stamped
    /// for the copy (node ids are unchanged, so the roots carry over).
    pub(crate) fn fork(&self, h: &PooledHeap) -> (Self, PooledHeap) {
        self.assert_owner(h);
        let pool = Self::from_arena(self.arena.clone());
        let heap = PooledHeap {
            pool: pool.id,
            roots: h.roots.clone(),
            len: h.len,
            min: h.min,
        };
        (pool, heap)
    }
}

fn trim(roots: &mut Vec<Option<NodeId>>) {
    while matches!(roots.last(), Some(None)) {
        roots.pop();
    }
}

/// The root with the minimum key, ties to the lowest order — the value a
/// heap's cached `min` must always equal. Past the first root each key
/// comparison is a select, not a branch: an empty slot stands in for the
/// best so far, which never beats itself under the strict `<`.
pub(crate) fn scan_min<K: Ord>(arena: &Arena<K>, roots: &[Option<NodeId>]) -> Option<NodeId> {
    let first = roots.iter().position(Option::is_some)?;
    let mut best = roots[first]?;
    let mut best_key = &arena.get(best).key;
    for &r in &roots[first + 1..] {
        let id = r.unwrap_or(best);
        let key = &arena.get(id).key;
        let less = key < best_key;
        best = std::hint::select_unpredictable(less, id, best);
        best_key = std::hint::select_unpredictable(less, key, best_key);
    }
    Some(best)
}

/// Make root `child` the new highest-order child of `parent`: a prepend to
/// `parent`'s child list. `child`'s order must equal `parent`'s degree.
#[inline]
fn adopt<K>(arena: &mut Arena<K>, parent: NodeId, child: NodeId) {
    let p = arena.get_mut(parent);
    let head = p.child;
    p.child = child.0;
    p.degree += 1;
    let c = arena.get_mut(child);
    c.sibling = head;
    c.parent = parent.0;
}

/// The binomial link under the workspace tie contract (`plan.rs`): the
/// **first** operand wins equal keys. `first` and `second` are roots of
/// equal order; the loser becomes the winner's next child. Returns the
/// winner.
pub(crate) fn link<K: Ord + Copy>(arena: &mut Arena<K>, first: NodeId, second: NodeId) -> NodeId {
    let (win, lose) = if arena.get(second).key < arena.get(first).key {
        (second, first)
    } else {
        (first, second)
    };
    debug_assert_eq!(arena.get(win).degree, arena.get(lose).degree);
    adopt(arena, win, lose);
    win
}

/// Ripple the single-node tree `id` into `roots`: a binary-counter
/// increment with one [`link`] per carry.
///
/// The trees built are exactly those of the Phase I–III plan for the
/// singleton `Union(roots, {id})`. At slot 0 the resident (the plan's first
/// operand) is `link`'s first operand. Above it the carry is, since the
/// plan's segmented prefix minimum keeps the lower position on ties.
pub(crate) fn ripple_in<K: Ord + Copy>(
    arena: &mut Arena<K>,
    roots: &mut Vec<Option<NodeId>>,
    id: NodeId,
) {
    let mut carry = id;
    for (i, slot) in roots.iter_mut().enumerate() {
        let Some(resident) = slot.take() else {
            *slot = Some(carry);
            return;
        };
        carry = if i == 0 {
            link(arena, resident, carry)
        } else {
            link(arena, carry, resident)
        };
    }
    roots.push(Some(carry));
}

/// Pad `roots` to `width` positions of [`RootRef`]s (a planner's input),
/// refilling `out` in place.
pub(crate) fn root_refs_into<K: Copy>(
    arena: &Arena<K>,
    roots: &[Option<NodeId>],
    width: usize,
    out: &mut Vec<Option<RootRef<K>>>,
) {
    out.clear();
    out.extend((0..width).map(|i| {
        roots.get(i).copied().flatten().map(|id| RootRef {
            key: arena.get(id).key,
            id,
        })
    }));
}

/// One operand of a planner: a root array padded to the plan width. A
/// planner — [`build_plan_into`], or the PRAM simulator — refills a
/// [`UnionPlan`] from two of these.
type RootRefs<K> = [Option<RootRef<K>>];

/// `Union(dst, other)` of two root arrays whose nodes live in `arena`,
/// holding `dst_len` and `other_len` keys: the crate's one Phase I–III
/// path. Pads both operands into `scratch`, builds the plan with `plan`,
/// then carries out Phase III: the links in ascending slot order (each a
/// prepend, so every child list stays highest order first with degree ==
/// slot at each link) and the new root array into `dst`. A union with an
/// empty side plans nothing, as in the paper's accounting.
pub(crate) fn union_into<K: Ord + Copy>(
    arena: &mut Arena<K>,
    scratch: &mut UnionScratch<K>,
    dst: &mut Vec<Option<NodeId>>,
    dst_len: usize,
    other: &[Option<NodeId>],
    other_len: usize,
    plan: impl FnOnce(&mut UnionPlan<K>, &RootRefs<K>, &RootRefs<K>),
) {
    if other_len == 0 {
        return;
    }
    if dst_len == 0 {
        dst.clear();
        dst.extend_from_slice(other);
        trim(dst);
        return;
    }
    let width = plan_width(dst_len, other_len);
    root_refs_into(arena, dst, width, &mut scratch.h1);
    root_refs_into(arena, other, width, &mut scratch.h2);
    plan(&mut scratch.plan, &scratch.h1, &scratch.h2);
    let plan = &scratch.plan;
    #[cfg(feature = "debug-validate")]
    if let Err(e) = crate::check::check_plan(plan) {
        panic!("debug-validate (UnionPlan): {e}");
    }
    debug_assert!(plan.links.windows(2).all(|w| w[0].slot <= w[1].slot));
    for l in &plan.links {
        debug_assert_eq!(arena.get(l.child).degree(), l.slot);
        debug_assert_eq!(arena.get(l.parent).degree(), l.slot);
        adopt(arena, l.parent, l.child);
    }
    dst.clear();
    dst.extend_from_slice(&plan.new_roots);
    for &r in dst.iter().flatten() {
        arena.get_mut(r).parent = NIL;
    }
    trim(dst);
}

impl<K: Ord + Copy> HeapPool<K> {
    /// With `--features debug-validate`, deep-check a heap after a hot-path
    /// mutation; a no-op otherwise.
    #[inline]
    pub(crate) fn debug_validate(&self, h: &PooledHeap) {
        #[cfg(feature = "debug-validate")]
        if let Err(e) = self.validate_heap(h) {
            panic!("debug-validate (PooledHeap): {e}");
        }
        #[cfg(not(feature = "debug-validate"))]
        let _ = h;
    }

    /// Stamp a root table as a heap of this pool: checkpoint recovery and
    /// the PRAM builder. Recovery validates the result with `check_pool`
    /// before serving from it. Its roots come from an untrusted image, so
    /// the min is only scanned when every root is a live node; otherwise it
    /// stays `None` and validation rejects the dead root.
    pub(crate) fn restore_heap(&self, roots: Vec<Option<NodeId>>, len: usize) -> PooledHeap {
        let live = roots.iter().flatten().all(|id| self.arena.contains(*id));
        let min = if live {
            scan_min(&self.arena, &roots)
        } else {
            None
        };
        PooledHeap {
            pool: self.id,
            roots,
            len,
            min,
        }
    }

    /// Build a heap by sequential ripple insertion.
    pub fn from_keys<I: IntoIterator<Item = K>>(&mut self, keys: I) -> PooledHeap {
        let mut h = self.new_heap();
        for k in keys {
            self.insert(&mut h, k);
        }
        h
    }

    /// `Insert(Q, x)`: a binary-counter increment. The new node ripples up
    /// `H`, linking with the resident `B_i` while slot `i` is occupied — one
    /// `link` per carry, amortised `O(1)`, no plan. The trees are those
    /// the planner builds for a singleton `Union`.
    pub fn insert(&mut self, h: &mut PooledHeap, key: K) {
        self.assert_owner(h);
        let id = self.arena.alloc(key);
        ripple_in(&mut self.arena, &mut h.roots, id);
        h.len += 1;
        // The ripple emptied every order below the one its carry settled in
        // and left the orders above untouched. So that root, the lowest-order
        // one, is the min (ties to the lowest order, as the scan rules)
        // unless the old min is still a root and strictly smaller. Finding it
        // walks the slots the carry emptied: amortised O(1).
        let top = h.roots.iter().flatten().next().copied();
        h.min = match h.min {
            Some(m) if top.is_some_and(|t| self.arena.get(m).key < self.arena.get(t).key) => {
                Some(m)
            }
            _ => top,
        };
        self.debug_validate(h);
    }

    /// `Multi-Insert(Q, keys)`: every key ripples in as [`Self::insert`]
    /// would, one [`Arena::alloc`] and one carry chain each, so the trees,
    /// node ids and reused free slots are exactly those of an `insert`
    /// loop. The ownership and capacity checks run once for the batch, and
    /// the min is rescanned once at the end. A batch that would overflow
    /// the `u32` id space is refused whole, before any key is allocated.
    pub fn multi_insert(&mut self, h: &mut PooledHeap, keys: &[K]) -> Result<(), CapacityError> {
        self.assert_owner(h);
        self.can_admit(keys.len())?;
        for &key in keys {
            let id = self.arena.alloc(key);
            ripple_in(&mut self.arena, &mut h.roots, id);
        }
        h.len += keys.len();
        h.min = scan_min(&self.arena, &h.roots);
        self.debug_validate(h);
        Ok(())
    }

    /// The root holding the minimum key (ties to the lowest order): the
    /// cached min, `O(1)`.
    pub fn min_root(&self, h: &PooledHeap) -> Option<NodeId> {
        self.assert_owner(h);
        h.min
    }

    /// `Min(Q)`: the minimum key.
    pub fn min(&self, h: &PooledHeap) -> Option<K> {
        self.min_root(h).map(|id| self.arena.get(id).key)
    }

    /// Unlink root `id` from `h`, free it and return its key. One walk of
    /// its child list ([`Arena::take_children`]) leaves its children
    /// `B_0 … B_{k-1}` in `children`, ascending and already parentless
    /// roots. `h.len` drops by the whole tree, `2^k`, slot `k` is left
    /// empty and `H` untrimmed, and the caller melds the children back.
    #[inline]
    fn detach_root(&mut self, h: &mut PooledHeap, id: NodeId, children: &mut ChildBuf) -> K {
        self.arena.take_children(id, children);
        let order = children.len();
        debug_assert_eq!(h.roots[order], Some(id));
        h.roots[order] = None;
        h.len -= 1 << order;
        self.arena.dealloc(id).key
    }

    /// `Extract-Min(Q)`: remove and return the minimum. The removed root's
    /// children `B_0 … B_{k-1}` carry back into slots `0 … k` of `H` in
    /// place — no plan, no allocation, zero copies — then the `≤ log n`
    /// roots are rescanned for the new min.
    pub fn extract_min(&mut self, h: &mut PooledHeap) -> Option<K> {
        self.assert_owner(h);
        let key = self.pop_min(h);
        self.debug_validate(h);
        key
    }

    /// [`Self::extract_min`] without the ownership and `debug-validate`
    /// checks, which its callers run once.
    ///
    /// Child `i` has order `i`, so the re-meld is binary addition of a dense
    /// forest into slots `0 … k-1`, one [`link`] per carry. Slot `k` held
    /// the removed root, so the last carry always settles there and `H`
    /// never grows. The trees are those of the planned `Union` of `H` and
    /// the children: a resident is `link`'s first operand against the child
    /// of its order, otherwise a carry is, and a carry that meets both stays
    /// in the slot while they link.
    fn pop_min(&mut self, h: &mut PooledHeap) -> Option<K> {
        let mut children = ChildBuf::new();
        let key = self.detach_root(h, h.min?, &mut children);
        let order = children.len();
        let mut carry = None;
        for (slot, &child) in h.roots[..order].iter_mut().zip(children.iter()) {
            let (first, stay) = match *slot {
                Some(resident) => (Some(resident), carry),
                None => (carry, None),
            };
            (*slot, carry) = match first {
                Some(first) => (stay, Some(link(&mut self.arena, first, child))),
                None => (Some(child), None),
            };
        }
        h.roots[order] = carry;
        trim(&mut h.roots);
        h.len += (1 << order) - 1;
        h.min = scan_min(&self.arena, &h.roots);
        Some(key)
    }

    /// `Union(Q1, Q2)` for two heaps of this pool: pure plan application —
    /// `O(log n)` pointer writes, zero node copies, zero allocations of node
    /// storage. `b` is consumed.
    pub fn meld(&mut self, a: &mut PooledHeap, b: PooledHeap) {
        self.assert_owner(a);
        self.assert_owner(&b);
        self.meld_roots(a, &b.roots, b.len, build_plan_into);
        self.debug_validate(a);
    }

    /// `Multi-Extract-Min(Q, k)`: the `min(k, len)` smallest keys in
    /// ascending order, by that many [`Self::extract_min`] rounds under one
    /// ownership check. The trees, node ids and freed slots are exactly
    /// those of an `extract_min` loop.
    pub fn multi_extract_min(&mut self, h: &mut PooledHeap, k: usize) -> Vec<K> {
        self.assert_owner(h);
        let take = k.min(h.len);
        let mut out = Vec::with_capacity(take);
        out.extend(std::iter::from_fn(|| self.pop_min(h)).take(take));
        self.debug_validate(h);
        out
    }

    /// Drain a heap into ascending order (consumes the handle).
    pub fn into_sorted_vec(&mut self, mut h: PooledHeap) -> Vec<K> {
        let n = h.len;
        self.multi_extract_min(&mut h, n)
    }

    /// Destroy a heap, deallocating every node it owns back to the slab.
    /// Returns the number of nodes freed.
    pub fn free_heap(&mut self, h: PooledHeap) -> usize {
        self.assert_owner(&h);
        let mut ids = Vec::with_capacity(h.len);
        self.collect_node_ids(&h, &mut ids);
        let freed = ids.len();
        for id in ids {
            self.arena.dealloc(id);
        }
        freed
    }

    /// Deep-copy a heap within the pool (counted as copies on the slab).
    pub fn clone_heap(&mut self, h: &PooledHeap) -> PooledHeap {
        self.assert_owner(h);
        let mut roots = vec![None; h.roots.len()];
        for (slot, r) in h.roots.iter().enumerate() {
            if let Some(id) = r {
                roots[slot] = Some(copy_subtree(&mut self.arena, *id));
            }
        }
        let out = PooledHeap {
            pool: self.id,
            min: scan_min(&self.arena, &roots),
            roots,
            len: h.len,
        };
        self.debug_validate(&out);
        out
    }

    /// `Union` across pools: move `src`'s trees node by node out of
    /// `src_pool` into this pool (counted copies), then meld zero-copy.
    /// The explicit fallback for when two heaps do *not* share a slab.
    pub fn meld_cross_pool(
        &mut self,
        dst: &mut PooledHeap,
        src_pool: &mut HeapPool<K>,
        src: PooledHeap,
    ) {
        self.assert_owner(dst);
        let moved = self.move_in(src_pool, src);
        self.meld_roots(dst, &moved.roots, moved.len, build_plan_into);
        self.debug_validate(dst);
    }

    /// Move `src`'s trees node by node out of `src_pool` into this pool
    /// (counted copies), as a heap of this pool.
    pub(crate) fn move_in(&mut self, src_pool: &mut HeapPool<K>, src: PooledHeap) -> PooledHeap {
        src_pool.assert_owner(&src);
        assert!(
            self.id != src_pool.id,
            "same-pool meld must go through HeapPool::meld"
        );
        let roots: Vec<Option<NodeId>> = src
            .roots
            .iter()
            .map(|r| r.map(|id| move_subtree(&mut self.arena, &mut src_pool.arena, id)))
            .collect();
        PooledHeap {
            pool: self.id,
            min: scan_min(&self.arena, &roots),
            roots,
            len: src.len,
        }
    }

    /// Deep structural validation of one heap of the pool: BH1 heap order,
    /// BH2 shapes, parent pointers, ownership stamp, the exact cached min,
    /// and the binary representation (root orders = set bits of `len`).
    pub fn validate_heap(&self, h: &PooledHeap) -> Result<(), String> {
        if h.pool != self.id {
            return Err(format!(
                "ownership: heap stamped {:?}, pool is {:?}",
                h.pool, self.id
            ));
        }
        let mut total = 0usize;
        for (i, r) in h.roots.iter().enumerate() {
            if let Some(id) = r {
                if !self.arena.contains(*id) {
                    return Err(format!("root {id:?} is not a live pool node"));
                }
                let root = self.arena.get(*id);
                if root.parent().is_some() {
                    return Err(format!("root {id:?} has a parent pointer"));
                }
                if root.sibling().is_some() {
                    return Err(format!("root {id:?} has a sibling"));
                }
                total += walk_tree(&self.arena, *id, i)?;
            }
        }
        if total != h.len {
            return Err(format!("len {} but trees hold {total}", h.len));
        }
        if matches!(h.roots.last(), Some(None)) {
            return Err("root array not trimmed".into());
        }
        // The scan only returns roots, so this also rejects a non-root.
        let scan = scan_min(&self.arena, &h.roots);
        if h.min != scan {
            return Err(format!(
                "min cache names {:?}, the root scan finds {scan:?}",
                h.min
            ));
        }
        let bits: usize = h
            .roots
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(i, _)| 1usize << i)
            .sum();
        if bits != h.len {
            return Err(format!(
                "binary representation broken: root orders encode {bits}, len is {}",
                h.len
            ));
        }
        Ok(())
    }

    /// Append every node id reachable from `h` to `out` (aliasing checks).
    pub fn collect_node_ids(&self, h: &PooledHeap, out: &mut Vec<NodeId>) {
        let mut stack: Vec<NodeId> = h.roots.iter().flatten().copied().collect();
        while let Some(id) = stack.pop() {
            out.push(id);
            stack.extend(self.arena.children(id));
        }
    }

    /// [`Self::from_keys`] over a slice. Kept only for the `perfbench/`
    /// replay layer, which calls it by this name.
    pub fn from_keys_parallel(&mut self, keys: &[K]) -> PooledHeap {
        self.from_keys(keys.iter().copied())
    }

    /// Meld `other_roots` (nodes already in this pool's slab) into `dst`
    /// through [`union_into`] with `plan` as the planner, then rescan
    /// `dst`'s roots for its min — also when there is nothing to meld,
    /// since [`Self::extract_min_pram`] removes a root before calling this.
    fn meld_roots(
        &mut self,
        dst: &mut PooledHeap,
        other_roots: &[Option<NodeId>],
        other_len: usize,
        plan: impl FnOnce(&mut UnionPlan<K>, &RootRefs<K>, &RootRefs<K>),
    ) {
        union_into(
            &mut self.arena,
            &mut self.scratch,
            &mut dst.roots,
            dst.len,
            other_roots,
            other_len,
            plan,
        );
        dst.len += other_len;
        dst.min = scan_min(&self.arena, &dst.roots);
    }
}

/// The measured twins of the single-key ops and `Union`: planned on a
/// `p`-processor EREW PRAM, each returning its Theorem-1 cost. The trees
/// are the ones the unmeasured ops build.
impl HeapPool<i64> {
    /// [`Self::meld_roots`] planned on the PRAM simulator.
    fn meld_roots_pram(
        &mut self,
        dst: &mut PooledHeap,
        other_roots: &[Option<NodeId>],
        other_len: usize,
        p: usize,
    ) -> pram::Cost {
        let mut cost = pram::Cost::ZERO;
        self.meld_roots(dst, other_roots, other_len, pram_planner(p, &mut cost));
        self.debug_validate(dst);
        cost
    }

    /// `Union(Q1, Q2)` planned on the PRAM simulator.
    pub(crate) fn meld_pram(&mut self, a: &mut PooledHeap, b: PooledHeap, p: usize) -> pram::Cost {
        self.assert_owner(a);
        self.assert_owner(&b);
        self.meld_roots_pram(a, &b.roots, b.len, p)
    }

    /// `Insert(Q, x)` as a singleton `Union` planned on the PRAM simulator.
    pub(crate) fn insert_pram(&mut self, h: &mut PooledHeap, key: i64, p: usize) -> pram::Cost {
        self.assert_owner(h);
        let id = self.arena.alloc(key);
        self.meld_roots_pram(h, &[Some(id)], 1, p)
    }

    /// `Extract-Min(Q)` on the PRAM simulator: an EREW min-reduction over
    /// the root array, then the children re-meld as a planned `Union`.
    pub(crate) fn extract_min_pram(
        &mut self,
        h: &mut PooledHeap,
        p: usize,
    ) -> (Option<i64>, pram::Cost) {
        self.assert_owner(h);
        let mut refs = Vec::new();
        root_refs_into(&self.arena, &h.roots, h.roots.len(), &mut refs);
        let (min, mut cost) = match crate::engine_pram::min_pram(&refs, p) {
            Ok(found) => found,
            // One processor per pair of positions, disjoint at every level
            // of the reduction tree: never a conflict.
            Err(e) => unreachable!("the min-reduction is EREW-legal: {e}"),
        };
        let Some(min) = min else {
            return (None, cost);
        };
        let mut children = ChildBuf::new();
        let key = self.detach_root(h, min.id, &mut children);
        trim(&mut h.roots);
        let orphans: Vec<Option<NodeId>> = children.iter().copied().map(Some).collect();
        cost += self.meld_roots_pram(h, &orphans, (1 << children.len()) - 1, p);
        (Some(key), cost)
    }
}

/// [`union_into`] planned by [`pram_planner`], for root arrays held
/// outside a pool (the §4 lazy heap; the pool's own twin is
/// `HeapPool::meld_roots_pram`). Returns the measured cost (zero when a
/// side is empty and nothing is planned). `dst_len` and `other_len` are
/// the node counts of the two root arrays; they fix the plan width.
pub(crate) fn union_pram(
    arena: &mut Arena<i64>,
    scratch: &mut UnionScratch<i64>,
    dst: &mut Vec<Option<NodeId>>,
    dst_len: usize,
    other: &[Option<NodeId>],
    other_len: usize,
    p: usize,
) -> pram::Cost {
    let mut cost = pram::Cost::ZERO;
    union_into(
        arena,
        scratch,
        dst,
        dst_len,
        other,
        other_len,
        pram_planner(p, &mut cost),
    );
    cost
}

/// The planner of every PRAM-measured `Union`: Phases I–II on the
/// `p`-processor EREW simulator, writing the measured cost to `cost`
/// (left untouched when [`union_into`] plans nothing).
fn pram_planner(
    p: usize,
    cost: &mut pram::Cost,
) -> impl FnOnce(&mut UnionPlan<i64>, &RootRefs<i64>, &RootRefs<i64>) + '_ {
    move |plan, h1, h2| match crate::engine_pram::build_plan_pram(h1, h2, p) {
        Ok(out) => {
            *plan = out.plan;
            *cost = out.cost;
        }
        // Each processor of the Union program touches only its own
        // position's cells, so a conflict is a bug in the program, not a
        // condition a caller could handle.
        Err(e) => unreachable!("the Union program is EREW-legal: {e}"),
    }
}

/// Walk one binomial tree verifying shape, heap order, parent pointers and
/// that each child list holds exactly the node's degree; returns the
/// subtree size. The orders strictly fall on the way down, so the walk
/// ends even on a corrupt slab.
fn walk_tree<K: Ord + Copy>(
    arena: &Arena<K>,
    id: NodeId,
    expected_order: usize,
) -> Result<usize, String> {
    let n = arena.get(id);
    if n.degree() != expected_order {
        return Err(format!(
            "node {id:?}: degree {} expected {expected_order}",
            n.degree()
        ));
    }
    let mut size = 1;
    let mut order = expected_order;
    let mut kids = arena.children(id);
    for c in kids.by_ref() {
        let Some(cn) = arena.try_get(c) else {
            return Err(format!("node {id:?}: child {c:?} is not a live pool node"));
        };
        if cn.key < n.key {
            return Err("heap order violated".into());
        }
        if cn.parent() != Some(id) {
            return Err(format!("child {c:?} has wrong parent pointer"));
        }
        // Children come highest order first: B_{d-1}, …, B_0.
        order -= 1;
        size += walk_tree(arena, c, order)?;
    }
    if order != 0 || kids.rest().is_some() {
        return Err(format!(
            "node {id:?}: child list does not hold exactly its degree {expected_order}"
        ));
    }
    Ok(size)
}

/// Deep-copy a subtree within one arena (recursion depth = tree order ≤ 32).
/// Nodes are allocated in preorder, children in ascending order.
fn copy_subtree<K: Ord + Copy>(arena: &mut Arena<K>, id: NodeId) -> NodeId {
    let kids = arena.children_ascending(id);
    let new = arena.alloc_copy(arena.get(id).key);
    for &c in kids.iter() {
        let nc = copy_subtree(arena, c);
        adopt(arena, new, nc);
    }
    new
}

/// Move a subtree out of `src` into `dst` (recursion depth = order ≤ 32),
/// in the order of [`copy_subtree`].
fn move_subtree<K: Copy>(dst: &mut Arena<K>, src: &mut Arena<K>, id: NodeId) -> NodeId {
    let kids = src.children_ascending(id);
    let new = dst.alloc_copy(src.dealloc(id).key);
    for &c in kids.iter() {
        let nc = move_subtree(dst, src, c);
        adopt(dst, new, nc);
    }
    new
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_pool_meld_is_zero_copy() {
        let mut pool: HeapPool<i64> = HeapPool::new();
        let mut a = pool.from_keys(0..100);
        let b = pool.from_keys(200..250);
        let before = pool.stats();
        pool.meld(&mut a, b);
        let after = pool.stats();
        assert_eq!(before, after, "same-pool meld must not alloc or copy");
        assert_eq!(a.len(), 150);
        pool.validate_heap(&a).unwrap();
        assert_eq!(pool.into_sorted_vec(a).len(), 150);
    }

    #[test]
    fn pooled_ops_match_oracle() {
        let mut pool: HeapPool<i64> = HeapPool::new();
        let mut h = pool.new_heap();
        let keys = [5i64, 3, 9, 1, 7, 3, 8];
        for &k in &keys {
            pool.insert(&mut h, k);
            pool.validate_heap(&h).unwrap();
        }
        assert_eq!(pool.min(&h), Some(1));
        assert_eq!(pool.extract_min(&mut h), Some(1));
        assert_eq!(pool.extract_min(&mut h), Some(3));
        pool.validate_heap(&h).unwrap();
        let rest = pool.into_sorted_vec(h);
        assert_eq!(rest, vec![3, 5, 7, 8, 9]);
    }

    /// Every live node as `(id, key, parent, children)`, in id order, the
    /// children as the arena's child list walks them.
    type Shape = Vec<(NodeId, i64, Option<NodeId>, Vec<NodeId>)>;
    fn shape(arena: &Arena<i64>) -> Shape {
        arena
            .iter()
            .map(|(id, n)| (id, n.key, n.parent(), arena.children(id).collect()))
            .collect()
    }

    /// `Extract-Min` as the planner spells it: detach the cached min root,
    /// then meld its children back with a planned `Union`.
    fn planned_extract_min(pool: &mut HeapPool<i64>, h: &mut PooledHeap) -> Option<i64> {
        let min = pool.min_root(h)?;
        let mut children = ChildBuf::new();
        let key = pool.detach_root(h, min, &mut children);
        trim(&mut h.roots);
        let orphans: Vec<Option<NodeId>> = children.iter().copied().map(Some).collect();
        let orphan_len = (1 << children.len()) - 1;
        pool.meld_roots(h, &orphans, orphan_len, build_plan_into);
        Some(key)
    }

    #[test]
    fn ripple_ops_build_the_planners_trees() {
        // Insert and extract link directly instead of planning. Under the one
        // tie contract they must build exactly the trees of a planned
        // singleton Union and a planned children re-meld — node ids, parents
        // and child order included — however many keys are equal.
        for m in [1i64, 2, 3, 5] {
            let mut pool: HeapPool<i64> = HeapPool::new();
            let mut h = pool.new_heap();
            let mut planned_pool: HeapPool<i64> = HeapPool::new();
            let mut planned = planned_pool.new_heap();
            let planned_insert = |pool: &mut HeapPool<i64>, h: &mut PooledHeap, k: i64| {
                let single = pool.from_keys([k]);
                pool.meld(h, single);
            };
            for i in 0..3000i64 {
                let k = (i * 7919) % m;
                pool.insert(&mut h, k);
                planned_insert(&mut planned_pool, &mut planned, k);
                assert_eq!(h.roots(), planned.roots(), "mod {m}, insert {i}");
                if i % 100 == 99 {
                    assert_eq!(
                        shape(pool.arena()),
                        shape(planned_pool.arena()),
                        "mod {m}, insert {i}"
                    );
                }
            }
            for i in 0..1000i64 {
                let got = pool.extract_min(&mut h);
                assert_eq!(got, planned_extract_min(&mut planned_pool, &mut planned));
                if i % 3 == 0 {
                    let k = (i * 31) % m;
                    pool.insert(&mut h, k);
                    planned_insert(&mut planned_pool, &mut planned, k);
                }
                assert_eq!(h.roots(), planned.roots(), "mod {m}, churn {i}");
                if i % 100 == 99 {
                    assert_eq!(
                        shape(pool.arena()),
                        shape(planned_pool.arena()),
                        "mod {m}, churn {i}"
                    );
                }
            }
            pool.validate_heap(&h).unwrap();
            planned_pool.validate_heap(&planned).unwrap();
        }
    }

    #[test]
    fn pram_ops_build_the_unmeasured_trees() {
        // The measured ops plan on the simulator, the unmeasured ones ripple
        // or plan sequentially. Both must leave the same slab node for node,
        // duplicates included, and only the measured side pays a cost.
        let mut pram: HeapPool<i64> = HeapPool::new();
        let mut a = pram.new_heap();
        let mut plain: HeapPool<i64> = HeapPool::new();
        let mut b = plain.new_heap();
        let mut total = pram::Cost::ZERO;
        for i in 0..600i64 {
            let k = (i * 7919) % 7;
            match i % 5 {
                0 | 1 | 3 => {
                    total += pram.insert_pram(&mut a, k, 3);
                    plain.insert(&mut b, k);
                }
                2 => {
                    let (got, cost) = pram.extract_min_pram(&mut a, 2);
                    total += cost;
                    assert_eq!(got, plain.extract_min(&mut b), "op {i}");
                }
                _ => {
                    let keys = [k, k + 3, k, -k];
                    let part = pram.from_keys(keys);
                    total += pram.meld_pram(&mut a, part, 4);
                    let part = plain.from_keys(keys);
                    plain.meld(&mut b, part);
                }
            }
            assert_eq!(a.roots(), b.roots(), "op {i}");
            assert_eq!(a.min, b.min, "op {i}");
        }
        assert_eq!(shape(pram.arena()), shape(plain.arena()));
        pram.validate_heap(&a).unwrap();
        assert!(total.time > 0 && total.work >= total.time);
    }

    #[test]
    fn min_cache_tracks_scan_through_all_mutators() {
        let exact = |pool: &HeapPool<i64>, h: &PooledHeap, after: &str| {
            assert_eq!(
                h.min,
                scan_min(&pool.arena, &h.roots),
                "cache after {after}"
            );
            pool.validate_heap(h).unwrap();
        };
        let mut pool: HeapPool<i64> = HeapPool::new();
        let mut h = pool.new_heap();
        exact(&pool, &h, "new_heap");
        for k in [13i64, 4, 9, 4, 22, -3, 17, 0, -3, 8, 8] {
            pool.insert(&mut h, k);
            exact(&pool, &h, "insert");
        }
        assert_eq!(pool.extract_min(&mut h), Some(-3));
        exact(&pool, &h, "extract_min");
        // Melds, including into an empty heap, and across pools.
        let mut e = pool.new_heap();
        let part = pool.from_keys([-7, 5]);
        pool.meld(&mut e, part);
        exact(&pool, &e, "meld into empty");
        pool.meld(&mut h, e);
        exact(&pool, &h, "meld");
        assert_eq!(pool.min(&h), Some(-7));
        let mut other: HeapPool<i64> = HeapPool::new();
        let src = other.from_keys([-11, 30, 2]);
        pool.meld_cross_pool(&mut h, &mut other, src);
        exact(&pool, &h, "meld_cross_pool");
        assert_eq!(pool.min(&h), Some(-11));
        // Multi-extract of roots with children ...
        assert_eq!(pool.multi_extract_min(&mut h, 3), vec![-11, -7, -3]);
        exact(&pool, &h, "multi_extract_min of roots with children");
        // ... and of a childless root: [5, 6, 1] is B_1 {5, 6} plus B_0 {1}.
        let mut z = pool.from_keys([5, 6, 1]);
        assert_eq!(pool.multi_extract_min(&mut z, 1), vec![1]);
        exact(&pool, &z, "multi_extract_min of a childless root");
        assert_eq!(pool.min(&z), Some(5));
        pool.multi_insert(&mut z, &[8, -2, 8, 5, -2, 40, 3])
            .unwrap();
        exact(&pool, &z, "multi_insert");
        let c = pool.clone_heap(&h);
        exact(&pool, &c, "clone_heap");
        let (fork, f) = pool.fork(&h);
        exact(&fork, &f, "fork");
        // A stale or non-root cache is rejected.
        let mut bad = pool.from_keys([3, 1, 2]);
        bad.min = bad.roots[0];
        assert!(pool.validate_heap(&bad).unwrap_err().contains("min cache"));
        let child = pool.arena.children(bad.roots[1].unwrap()).next().unwrap();
        bad.min = Some(child);
        assert!(pool.validate_heap(&bad).unwrap_err().contains("min cache"));
    }

    #[test]
    fn recovered_heaps_have_an_exact_min() {
        let dir = std::env::temp_dir().join(format!(
            "meldpq-pool-min-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            use crate::wal::{DurablePool, WalCounts};
            let mut dp = DurablePool::open(&dir).unwrap();
            let c = &mut WalCounts::default();
            let a = dp.create_heap(c);
            dp.multi_insert(a, &[9, 3, 3, 7, 1, 12, 1], c).unwrap();
            dp.extract_min(a, c).unwrap();
            let b = dp.create_heap(c);
            dp.insert(b, 4, c).unwrap();
            dp.checkpoint(c);
        }
        let rec = crate::wal::recover_dir(&dir, crate::wal::Engine::Sequential).unwrap();
        assert_eq!(
            rec.replayed, 0,
            "every heap comes from the checkpoint image"
        );
        let heaps: Vec<&PooledHeap> = rec.heaps.iter().flatten().map(|(_, h)| h).collect();
        assert_eq!(heaps.len(), 2);
        for h in heaps {
            assert_eq!(
                h.min,
                scan_min(&rec.pool.arena, &h.roots),
                "cache after recover_dir"
            );
            rec.pool.validate_heap(h).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clone_heap_is_independent() {
        let mut pool: HeapPool<i64> = HeapPool::new();
        let mut a = pool.from_keys([4, 2, 6]);
        let b = pool.clone_heap(&a);
        assert_eq!(pool.stats().copies, 3);
        pool.validate_heap(&b).unwrap();
        // Mutating the original leaves the clone intact.
        pool.extract_min(&mut a);
        pool.validate_heap(&a).unwrap();
        pool.validate_heap(&b).unwrap();
        assert_eq!(pool.into_sorted_vec(b), vec![2, 4, 6]);
        assert_eq!(pool.into_sorted_vec(a), vec![4, 6]);
    }

    #[test]
    fn cross_pool_meld_falls_back_to_counted_moves() {
        let mut p1: HeapPool<i64> = HeapPool::new();
        let mut p2: HeapPool<i64> = HeapPool::new();
        let mut a = p1.from_keys([1, 5, 9]);
        let b = p2.from_keys([2, 4, 6, 8]);
        p1.meld_cross_pool(&mut a, &mut p2, b);
        assert_eq!(p1.stats().copies, 4, "cross-pool meld copies the source");
        assert_eq!(p2.live_nodes(), 0, "source pool is drained");
        p1.validate_heap(&a).unwrap();
        assert_eq!(p1.into_sorted_vec(a), vec![1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "pool-ownership violation")]
    fn wrong_pool_handle_panics() {
        let mut p1: HeapPool<i64> = HeapPool::new();
        let p2: HeapPool<i64> = HeapPool::new();
        let mut h = p2.new_heap();
        p1.insert(&mut h, 1);
    }

    #[test]
    fn parallel_build_in_pool_is_alloc_only() {
        let keys: Vec<i64> = (0..50_000)
            .map(|i| (i * 2654435761u64 as i64) % 9973)
            .collect();
        let mut pool: HeapPool<i64> = HeapPool::with_capacity(keys.len());
        let mut h = pool.new_heap();
        pool.multi_insert(&mut h, &keys).unwrap();
        assert_eq!(pool.stats().allocs, keys.len() as u64);
        assert_eq!(pool.stats().copies, 0, "multi_insert must never copy");
        pool.validate_heap(&h).unwrap();
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(pool.into_sorted_vec(h), expected);
    }

    #[test]
    fn multi_insert_builds_the_insert_loops_trees() {
        // One ripple per key: node ids, parents, child order and the cached
        // min match an insert loop's, however many keys are equal, and the
        // free slots left by earlier pops are reused in the same order.
        for m in [1i64, 2, 3] {
            let mut batched: HeapPool<i64> = HeapPool::new();
            let mut b = batched.new_heap();
            let mut looped: HeapPool<i64> = HeapPool::new();
            let mut l = looped.new_heap();
            for round in 0..40i64 {
                let keys: Vec<i64> = (0..round * 7 + 1).map(|i| (i * 7919 + round) % m).collect();
                batched.multi_insert(&mut b, &keys).unwrap();
                for &k in &keys {
                    looped.insert(&mut l, k);
                }
                assert_eq!(b.roots(), l.roots(), "mod {m}, round {round}");
                assert_eq!(b.min, l.min, "mod {m}, round {round}");
                assert_eq!(b.len(), l.len());
                assert_eq!(
                    shape(batched.arena()),
                    shape(looped.arena()),
                    "mod {m}, round {round}"
                );
                assert_eq!(batched.arena().slab_len(), looped.arena().slab_len());
                batched.validate_heap(&b).unwrap();
                // Free slots for the next round's keys to reuse.
                let k = (round as usize * 3) % (b.len() + 1);
                assert_eq!(
                    batched.multi_extract_min(&mut b, k),
                    looped.multi_extract_min(&mut l, k)
                );
                assert_eq!(batched.extract_min(&mut b), looped.extract_min(&mut l));
            }
            assert!(
                batched.arena().len() < batched.arena().slab_len(),
                "free slots present"
            );
        }
    }

    #[test]
    fn multi_extract_leaves_the_extract_loops_pool() {
        // Multi-Extract-Min is k Extract-Min rounds: the keys, node ids,
        // parents, child order, roots and cached min match an extract_min
        // loop's, however many keys are equal, and later allocs reuse the
        // freed slots in the same order.
        for m in [1i64, 2, 3] {
            let keys: Vec<i64> = (0..300).map(|i| (i * 7919) % m).collect();
            for k in [0, 1, 2, 8, keys.len(), keys.len() + 5] {
                let mut batched: HeapPool<i64> = HeapPool::new();
                let mut b = batched.from_keys(keys.iter().copied());
                let mut looped: HeapPool<i64> = HeapPool::new();
                let mut l = looped.from_keys(keys.iter().copied());
                let got = batched.multi_extract_min(&mut b, k);
                let want: Vec<i64> = (0..k).map_while(|_| looped.extract_min(&mut l)).collect();
                assert_eq!(got, want, "mod {m}, k {k}");
                for later in [&keys[..0], &keys[..40]] {
                    batched.multi_insert(&mut b, later).unwrap();
                    looped.multi_insert(&mut l, later).unwrap();
                    let at = format!("mod {m}, k {k}, {} later allocs", later.len());
                    assert_eq!(b.roots(), l.roots(), "{at}");
                    assert_eq!(b.min, l.min, "{at}");
                    assert_eq!(b.len(), l.len(), "{at}");
                    assert_eq!(shape(batched.arena()), shape(looped.arena()), "{at}");
                    batched.validate_heap(&b).unwrap();
                }
            }
        }
    }

    #[test]
    fn multi_extract_leaves_the_planned_extracts_pool() {
        // The one-pass pop against an independent spelling of Extract-Min:
        // detach the min root, then meld its children back with a planned
        // Union. After k rounds the keys, node ids, parents, child order,
        // roots and cached min match, however many keys are equal, and
        // later allocs reuse the freed slots in the same order.
        for m in [1i64, 2, 3] {
            for len in [1usize, 2, 15, 16, 255, 256, 1023, 1024] {
                let keys: Vec<i64> = (0..len as i64).map(|i| (i * 7919) % m).collect();
                for k in [1, 2, 8, len, len + 5] {
                    let mut pool: HeapPool<i64> = HeapPool::new();
                    let mut h = pool.from_keys(keys.iter().copied());
                    let mut planned_pool: HeapPool<i64> = HeapPool::new();
                    let mut p = planned_pool.from_keys(keys.iter().copied());
                    let got = pool.multi_extract_min(&mut h, k);
                    let want: Vec<i64> = (0..k)
                        .map_while(|_| planned_extract_min(&mut planned_pool, &mut p))
                        .collect();
                    assert_eq!(got, want, "mod {m}, len {len}, k {k}");
                    for later in [&keys[..0], &keys[..len.min(40)]] {
                        pool.multi_insert(&mut h, later).unwrap();
                        planned_pool.multi_insert(&mut p, later).unwrap();
                        let at = format!("mod {m}, len {len}, k {k}, {} later", later.len());
                        assert_eq!(h.roots(), p.roots(), "{at}");
                        assert_eq!(h.min, p.min, "{at}");
                        assert_eq!(h.len(), p.len(), "{at}");
                        assert_eq!(shape(pool.arena()), shape(planned_pool.arena()), "{at}");
                        assert_eq!(pool.arena().slab_len(), planned_pool.arena().slab_len());
                        pool.validate_heap(&h).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn multi_insert_refuses_an_oversized_batch_whole() {
        // Zero-sized keys: a batch past the u32 id space costs no memory.
        let mut pool: HeapPool<()> = HeapPool::new();
        let mut h = pool.from_keys([(), ()]);
        let keys = vec![(); u32::MAX as usize - 2];
        let err = pool.multi_insert(&mut h, &keys).unwrap_err();
        assert_eq!(err.requested, keys.len());
        assert_eq!(err.slab_len, 2);
        // Nothing was allocated and the heap is as it was.
        assert_eq!(pool.stats().allocs, 2);
        pool.validate_heap(&h).unwrap();
        pool.multi_insert(&mut h, &keys[..1]).unwrap();
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn multi_extract_matches_sequential_extracts() {
        let keys: Vec<i64> = (0..2000).map(|i| (i * 37) % 211).collect();
        let mut pool: HeapPool<i64> = HeapPool::new();
        let mut h = pool.from_keys(keys.iter().copied());
        let got = pool.multi_extract_min(&mut h, 500);
        pool.validate_heap(&h).unwrap();
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(got, expected[..500]);
        assert_eq!(h.len(), 1500);
        let rest = pool.into_sorted_vec(h);
        assert_eq!(rest, expected[500..]);
    }
}
