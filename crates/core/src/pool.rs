//! Shared node pool: the zero-copy meld representation.
//!
//! [`ParBinomialHeap::meld`](crate::heap::ParBinomialHeap::meld) owns its
//! arena, so melding two heaps must *absorb* the second arena — copy and
//! id-remap every node, `Θ(n)` wall-clock for an operation the paper proves
//! is `O(log n)` work (Theorem 1). The fix is a representation change in the
//! spirit of Hollow Heaps (Hansen–Kaplan–Tarjan–Zwick) and rank-pairing
//! heaps: **one shared slab, links instead of moves**.
//!
//! A [`HeapPool`] owns a single [`Arena`] from which *every* heap in the
//! pool allocates its [`NodeId`]s. A [`PooledHeap`] is then nothing but
//! bookkeeping — a root array `H`, a length and the cached min root — so
//! melding two heaps of the same pool is pure Phase I–III plan application:
//! `O(log n)` pointer writes, **zero node copies** (asserted by the
//! [`Arena::stats`] counters and the `tests/pool_zero_copy.rs` gate).
//! Planning scratch (the two padded root reference arrays and the
//! [`UnionPlan`] buffers) lives in the pool and is reused across melds, so
//! the hot loop performs no per-meld allocation.
//!
//! Single-key ops do not plan. `Insert` is a binary-counter increment: the
//! new node ripples up `H`, one `link` per carry (amortised `O(1)`).
//! `Extract-Min` carry-adds the removed root's children `B_0 … B_{k-1}` back
//! into `H` in place. Both build exactly the trees the planner would,
//! because `link` follows the planner's tie contract. Every multi-key op
//! (`meld`, `meld_cross_pool`, `multi_extract_min`, `from_keys_parallel`)
//! still runs the paper's Phases I–III. Each heap caches its min root,
//! exact after every op: `insert` updates it in `O(1)`, and the ops that
//! rebuild `H` rescan its `≤ log n` roots once.
//!
//! Cross-pool operations still exist as explicit, counted fallbacks:
//! [`HeapPool::adopt`] absorbs a free-standing heap and
//! [`HeapPool::meld_cross_pool`] moves another pool's trees node by node.
//! Ownership is enforced by a generational [`PoolId`] stamped into every
//! handle — using a handle against the wrong pool panics immediately instead
//! of silently corrupting two slabs.
//!
//! The parallel builder ([`HeapPool::from_keys_parallel`]) removes the last
//! copy from the bulk path: the key range is split recursively, each half
//! builds into a *disjoint* sub-slice of one pre-sized slab (ids baked
//! against the final base offset, so nothing is ever remapped), and the
//! halves meld on the way up inside the shared slab — the tree of unions
//! costs `O(log² n)` pointer writes total instead of the old
//! `Θ(n log n)` absorb cascade.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::arena::{Arena, ArenaStats, Node, NodeId};
use crate::heap::{Engine, ParBinomialHeap};
use crate::plan::{build_plan_into, plan_width, RootRef, UnionPlan};

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

/// Generational identity of a [`HeapPool`]. Every [`PooledHeap`] carries the
/// id of the pool that created it; all pool operations verify the stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolId(u64);

/// Typed admission error: accepting `requested` more nodes would push the
/// slab past the `u32` [`NodeId`] space, so the build is refused *before*
/// any id is baked. (The old behavior was a silent `as u32` wrap deep in
/// the parallel builder — corrupted NodeIds instead of an error.)
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

/// A pool of binomial heaps sharing one node slab. See the module docs.
///
/// Every planning op (`meld`, `multi_extract_min`, `from_keys_parallel`,
/// `meld_cross_pool`) uses the pool-level default [`Engine`] (set with
/// [`HeapPool::with_engine`]); the `*_with` variants take an explicit
/// engine for call sites that mix planners. `insert` and `extract_min`
/// link directly and plan nothing.
#[derive(Debug)]
pub struct HeapPool<K = i64> {
    id: PoolId,
    arena: Arena<K>,
    /// Default planning engine for every op without an explicit `*_with`.
    engine: Engine,
    // Reusable planning scratch: padded root references for both operands
    // and the plan itself. Cleared and refilled on every sequential meld —
    // no per-meld Vec churn on the hot loop.
    scratch_h1: Vec<Option<RootRef<K>>>,
    scratch_h2: Vec<Option<RootRef<K>>>,
    scratch_plan: UnionPlan<K>,
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
        HeapPool {
            id: PoolId(NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed)),
            arena: Arena::with_capacity(cap),
            engine: Engine::Sequential,
            scratch_h1: Vec::new(),
            scratch_h2: Vec::new(),
            scratch_plan: UnionPlan::default(),
        }
    }

    /// Builder: set the default planning engine for this pool's ops.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The pool's default planning engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Change the default planning engine in place.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
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

    /// Check that `requested` more nodes fit in the `u32` id space. Bulk
    /// admission paths call this before any id is baked so oversized builds
    /// fail with a typed error instead of wrapping NodeIds mid-build.
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

    /// Rebuild a pool around a deserialized arena (checkpoint recovery).
    pub(crate) fn from_arena(arena: Arena<K>, engine: Engine) -> Self {
        HeapPool {
            id: PoolId(NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed)),
            arena,
            engine,
            scratch_h1: Vec::new(),
            scratch_h2: Vec::new(),
            scratch_plan: UnionPlan::default(),
        }
    }

    #[track_caller]
    fn assert_owner(&self, h: &PooledHeap) {
        assert!(
            h.pool == self.id,
            "pool-ownership violation: heap belongs to {:?}, pool is {:?} \
             (use adopt/meld_cross_pool for foreign heaps)",
            h.pool,
            self.id
        );
    }
}

fn trim(roots: &mut Vec<Option<NodeId>>) {
    while matches!(roots.last(), Some(None)) {
        roots.pop();
    }
}

/// The root with the minimum key, ties to the lowest order — the value a
/// heap's cached `min` must always equal.
fn scan_min<K: Ord>(arena: &Arena<K>, roots: &[Option<NodeId>]) -> Option<NodeId> {
    let mut best: Option<NodeId> = None;
    for &id in roots.iter().flatten() {
        if best.is_none_or(|b| arena.get(id).key < arena.get(b).key) {
            best = Some(id);
        }
    }
    best
}

/// Node storage a binomial [`link`] writes into: the pool's [`Arena`], or
/// one disjoint segment of the parallel builder's slab.
pub(crate) trait Nodes<K> {
    /// The live node `id`.
    fn node(&mut self, id: NodeId) -> &mut Node<K>;
}

impl<K> Nodes<K> for Arena<K> {
    #[inline]
    fn node(&mut self, id: NodeId) -> &mut Node<K> {
        self.get_mut(id)
    }
}

/// A segment of the builder's slab whose slot `i` holds node `base + i`.
struct Segment<'a, K> {
    slab: &'a mut [Option<Node<K>>],
    base: u32,
}

impl<K> Nodes<K> for Segment<'_, K> {
    #[inline]
    fn node(&mut self, id: NodeId) -> &mut Node<K> {
        self.slab[(id.0 - self.base) as usize]
            .as_mut()
            .expect("live slab node")
    }
}

/// The binomial link under the workspace tie contract (`plan.rs`): the
/// **first** operand wins equal keys. `first` and `second` are roots of
/// equal order; the loser becomes the winner's next child. Returns the
/// winner.
fn link<K: Ord + Copy>(nodes: &mut impl Nodes<K>, first: NodeId, second: NodeId) -> NodeId {
    let first_key = nodes.node(first).key;
    let (win, lose) = if nodes.node(second).key < first_key {
        (second, first)
    } else {
        (first, second)
    };
    debug_assert_eq!(
        nodes.node(win).children.len(),
        nodes.node(lose).children.len()
    );
    nodes.node(win).children.push(lose);
    nodes.node(lose).parent = Some(win);
    win
}

/// Carry-add a dense forest into `roots` in place: binary addition with one
/// [`link`] per carry. Tree `j` of `add` has order `from + j`.
///
/// The trees built are exactly those of the Phase I–III plan for
/// `Union(roots, add)`. At a position holding two trees, the resident (the
/// plan's first operand) is `link`'s first operand. A carry is the first
/// operand against the one tree it meets, since the plan's segmented prefix
/// minimum keeps the lower position on ties. A carry that meets two trees
/// stays as the root while those two link.
pub(crate) fn carry_add<K: Ord + Copy>(
    nodes: &mut impl Nodes<K>,
    roots: &mut Vec<Option<NodeId>>,
    add: &[NodeId],
    from: usize,
) {
    if roots.len() < from {
        roots.resize(from, None);
    }
    let mut carry: Option<NodeId> = None;
    let mut i = from;
    while i - from < add.len() || carry.is_some() {
        if i == roots.len() {
            roots.push(None);
        }
        let (root, next) = match (carry, roots[i], add.get(i - from).copied()) {
            (c, Some(x), Some(y)) => (c, Some(link(nodes, x, y))),
            (Some(c), Some(t), None) | (Some(c), None, Some(t)) => (None, Some(link(nodes, c, t))),
            (t, None, None) | (None, t, None) | (None, None, t) => (t, None),
        };
        roots[i] = root;
        carry = next;
        i += 1;
    }
}

impl<K: Ord + Copy + Send + Sync> HeapPool<K> {
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

    /// Re-stamp a recovered root table as a heap of this pool. The caller
    /// (checkpoint recovery) validates the result with `check_pool` before
    /// serving from it. The roots come from an untrusted image, so the min
    /// is only scanned when every root is a live node; otherwise it stays
    /// `None` and validation rejects the dead root.
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
        carry_add(&mut self.arena, &mut h.roots, &[id], 0);
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

    /// `Extract-Min(Q)`: remove and return the minimum. The removed root's
    /// children `B_0 … B_{k-1}` carry-add back into `H` in place — no plan,
    /// no allocation, zero copies — then the `≤ log n` roots are rescanned
    /// for the new min.
    pub fn extract_min(&mut self, h: &mut PooledHeap) -> Option<K> {
        let min_id = self.min_root(h)?;
        let order = self.arena.get(min_id).children.len();
        debug_assert_eq!(h.roots[order], Some(min_id));
        h.roots[order] = None;
        trim(&mut h.roots);
        let Node { key, children, .. } = self.arena.dealloc(min_id);
        h.len -= 1;
        for &c in &children {
            self.arena.get_mut(c).parent = None;
        }
        carry_add(&mut self.arena, &mut h.roots, &children, 0);
        h.min = scan_min(&self.arena, &h.roots);
        self.debug_validate(h);
        Some(key)
    }

    /// `Union(Q1, Q2)` with the pool's default engine.
    pub fn meld(&mut self, a: &mut PooledHeap, b: PooledHeap) {
        self.meld_with(a, b, self.engine)
    }

    /// `Union(Q1, Q2)` for two heaps of this pool: pure plan application —
    /// `O(log n)` pointer writes, zero node copies, zero allocations of node
    /// storage. `b` is consumed.
    pub fn meld_with(&mut self, a: &mut PooledHeap, b: PooledHeap, engine: Engine) {
        self.assert_owner(a);
        self.assert_owner(&b);
        self.meld_roots(a, &b.roots, b.len, engine);
        self.debug_validate(a);
    }

    /// `Multi-Extract-Min` with the pool's default engine.
    pub fn multi_extract_min(&mut self, h: &mut PooledHeap, k: usize) -> Vec<K> {
        self.multi_extract_min_with(h, k, self.engine)
    }

    /// Extract the `k` smallest keys with the root-frontier kernel: one
    /// peel + one re-meld instead of `k` sequential `Extract-Min` plans.
    pub fn multi_extract_min_with(
        &mut self,
        h: &mut PooledHeap,
        k: usize,
        engine: Engine,
    ) -> Vec<K> {
        self.assert_owner(h);
        let take = k.min(h.len);
        if take == 0 {
            return Vec::new();
        }
        let (out, orphan_roots, orphan_len) =
            crate::bulk::peel_k_smallest(&mut self.arena, &mut h.roots, take);
        h.len -= take + orphan_len;
        self.meld_roots(h, &orphan_roots, orphan_len, engine);
        self.debug_validate(h);
        out
    }

    /// Drain a heap into ascending order (consumes the handle).
    pub fn into_sorted_vec(&mut self, mut h: PooledHeap) -> Vec<K> {
        let n = h.len;
        self.multi_extract_min_with(&mut h, n, Engine::Sequential)
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
                roots[slot] = Some(copy_subtree(&mut self.arena, *id, None));
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

    /// Absorb a free-standing [`ParBinomialHeap`] into the pool — the
    /// cross-pool fallback, `Θ(n)` counted copies.
    pub fn adopt(&mut self, heap: ParBinomialHeap<K>) -> PooledHeap {
        let (arena, roots, len) = heap.into_raw_parts();
        let remap = self.arena.absorb(arena);
        let roots: Vec<Option<NodeId>> = roots.iter().map(|r| r.map(&remap)).collect();
        let out = PooledHeap {
            pool: self.id,
            min: scan_min(&self.arena, &roots),
            roots,
            len,
        };
        self.debug_validate(&out);
        out
    }

    /// [`Self::meld_cross_pool_with`] with the pool's default engine.
    pub fn meld_cross_pool(
        &mut self,
        dst: &mut PooledHeap,
        src_pool: &mut HeapPool<K>,
        src: PooledHeap,
    ) {
        self.meld_cross_pool_with(dst, src_pool, src, self.engine)
    }

    /// `Union` across pools: move `src`'s trees node by node out of
    /// `src_pool` into this pool (counted copies), then meld zero-copy.
    /// The explicit fallback for when two heaps do *not* share a slab.
    pub fn meld_cross_pool_with(
        &mut self,
        dst: &mut PooledHeap,
        src_pool: &mut HeapPool<K>,
        src: PooledHeap,
        engine: Engine,
    ) {
        self.assert_owner(dst);
        src_pool.assert_owner(&src);
        assert!(
            self.id != src_pool.id,
            "same-pool meld must go through HeapPool::meld"
        );
        let mut moved = vec![None; src.roots.len()];
        for (slot, r) in src.roots.iter().enumerate() {
            if let Some(id) = r {
                moved[slot] = Some(move_subtree(
                    &mut self.arena,
                    &mut src_pool.arena,
                    *id,
                    None,
                ));
            }
        }
        self.meld_roots(dst, &moved, src.len, engine);
        self.debug_validate(dst);
    }

    /// Convert the pool into a free-standing heap — zero-copy, but only
    /// legal when `h` is the pool's sole surviving heap (the slab *is* the
    /// heap's arena). Panics otherwise.
    pub fn into_heap(self, h: PooledHeap) -> ParBinomialHeap<K> {
        self.assert_owner(&h);
        assert_eq!(
            self.arena.len(),
            h.len,
            "into_heap requires the pool to hold exactly this heap \
             ({} live nodes vs heap of {})",
            self.arena.len(),
            h.len
        );
        ParBinomialHeap::from_raw_parts(self.arena, h.roots, h.len)
    }

    /// Deep structural validation of one heap of the pool: BH1 heap order,
    /// BH2 shapes, parent pointers, ownership stamp, and the binary
    /// representation (root orders = set bits of `len`).
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
                if self.arena.get(*id).parent.is_some() {
                    return Err(format!("root {id:?} has a parent pointer"));
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
            stack.extend(self.arena.get(id).children.iter().copied());
        }
    }

    /// [`Self::from_keys_parallel_with`] with the pool's default engine.
    pub fn from_keys_parallel(&mut self, keys: &[K]) -> PooledHeap {
        self.from_keys_parallel_with(keys, self.engine)
    }

    /// Build a heap from keys using all rayon workers, entirely inside the
    /// pool's slab: the key range splits recursively, each half builds into
    /// a disjoint slice of one pre-sized slab with ids baked against the
    /// final base offset, and the halves meld zero-copy on the way up using
    /// the chosen planning engine. No absorb, no remap — ever.
    ///
    /// Panics if the build would overflow the `u32` id space; callers that
    /// want a typed error use [`Self::try_from_keys_parallel_with`].
    pub fn from_keys_parallel_with(&mut self, keys: &[K], engine: Engine) -> PooledHeap {
        self.try_from_keys_parallel_with(keys, engine)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::from_keys_parallel_with`] with capacity checked at admission:
    /// an oversized build returns [`CapacityError`] before any id is baked.
    pub fn try_from_keys_parallel_with(
        &mut self,
        keys: &[K],
        engine: Engine,
    ) -> Result<PooledHeap, CapacityError> {
        self.can_admit(keys.len())?;
        let base = self.arena.slab_len();
        // `can_admit` proved base + keys.len() < u32::MAX, so every id the
        // recursive builder bakes (`base ..= base + keys.len() - 1`) fits.
        let base_u32 = u32::try_from(base).expect("admission check bounds the base offset");
        let mut slab: Vec<Option<Node<K>>> = Vec::new();
        slab.resize_with(keys.len(), || None);
        let cutoff = crate::cutoff::bulk_join_cutoff();
        let mut roots = build_slab_rec(keys, &mut slab, base_u32, engine, cutoff);
        self.arena.extend_slab(slab);
        trim(&mut roots);
        let h = PooledHeap {
            pool: self.id,
            min: scan_min(&self.arena, &roots),
            roots,
            len: keys.len(),
        };
        self.debug_validate(&h);
        Ok(h)
    }

    /// Meld `other_roots` (nodes already in this pool's slab) into `dst`,
    /// then rescan `dst`'s roots for its min — also when there is nothing
    /// to meld, since `multi_extract_min` peels roots before calling this.
    fn meld_roots(
        &mut self,
        dst: &mut PooledHeap,
        other_roots: &[Option<NodeId>],
        other_len: usize,
        engine: Engine,
    ) {
        if dst.len == 0 {
            dst.roots.clear();
            dst.roots.extend_from_slice(other_roots);
            dst.len = other_len;
            trim(&mut dst.roots);
        } else if other_len > 0 {
            self.plan_union(dst, other_roots, other_len, engine);
        }
        dst.min = scan_min(&self.arena, &dst.roots);
    }

    /// Phase I–III union of two non-empty root arrays, planned with
    /// `engine`. The scratch buffers make repeated sequential melds
    /// allocation-free.
    fn plan_union(
        &mut self,
        dst: &mut PooledHeap,
        other_roots: &[Option<NodeId>],
        other_len: usize,
        engine: Engine,
    ) {
        let n1 = dst.len;
        let n2 = other_len;
        let width = plan_width(n1, n2);
        self.scratch_h1.clear();
        for i in 0..width {
            self.scratch_h1
                .push(dst.roots.get(i).copied().flatten().map(|id| RootRef {
                    key: self.arena.get(id).key,
                    id,
                }));
        }
        self.scratch_h2.clear();
        for i in 0..width {
            self.scratch_h2
                .push(other_roots.get(i).copied().flatten().map(|id| RootRef {
                    key: self.arena.get(id).key,
                    id,
                }));
        }
        match engine {
            Engine::Sequential => {
                build_plan_into(&mut self.scratch_plan, &self.scratch_h1, &self.scratch_h2);
            }
            Engine::Rayon => {
                crate::engine_rayon::build_plan_rayon_into(
                    &mut self.scratch_plan,
                    &self.scratch_h1,
                    &self.scratch_h2,
                );
            }
        }
        #[cfg(feature = "debug-validate")]
        if let Err(e) = crate::check::check_plan(&self.scratch_plan) {
            panic!("debug-validate (UnionPlan, pooled): {e}");
        }
        let (arena, plan) = (&mut self.arena, &self.scratch_plan);
        debug_assert!(plan.links.windows(2).all(|w| w[0].slot <= w[1].slot));
        for l in &plan.links {
            debug_assert_eq!(arena.get(l.child).children.len(), l.slot);
            debug_assert_eq!(arena.get(l.parent).children.len(), l.slot);
            arena.get_mut(l.parent).children.push(l.child);
            arena.get_mut(l.child).parent = Some(l.parent);
        }
        dst.roots.clear();
        dst.roots.extend_from_slice(&plan.new_roots);
        for r in dst.roots.iter().flatten() {
            arena.get_mut(*r).parent = None;
        }
        trim(&mut dst.roots);
        dst.len = n1 + n2;
    }
}

/// Walk one binomial tree verifying shape, heap order and parent pointers;
/// returns the subtree size.
fn walk_tree<K: Ord + Copy>(
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
        size += walk_tree(arena, c, i)?;
    }
    Ok(size)
}

/// Deep-copy a subtree within one arena (recursion depth = tree order ≤ 32).
fn copy_subtree<K: Ord + Copy>(arena: &mut Arena<K>, id: NodeId, parent: Option<NodeId>) -> NodeId {
    let key = arena.get(id).key;
    let kids = arena.get(id).children.clone();
    let new = arena.alloc_node(Node {
        key,
        parent,
        children: Vec::with_capacity(kids.len()),
    });
    for c in kids {
        let nc = copy_subtree(arena, c, Some(new));
        arena.get_mut(new).children.push(nc);
    }
    new
}

/// Move a subtree out of `src` into `dst` (recursion depth = order ≤ 32).
fn move_subtree<K>(
    dst: &mut Arena<K>,
    src: &mut Arena<K>,
    id: NodeId,
    parent: Option<NodeId>,
) -> NodeId {
    let node = src.dealloc(id);
    let new = dst.alloc_node(Node {
        key: node.key,
        parent,
        children: Vec::with_capacity(node.children.len()),
    });
    for c in node.children {
        let nc = move_subtree(dst, src, c, Some(new));
        dst.get_mut(new).children.push(nc);
    }
    new
}

/// Recursive slab builder: build `keys` into `slab` (a disjoint slice of the
/// final arena slab) with node `i` at global id `base + i`, melding the two
/// halves' root arrays inside the slab on the way up. `cutoff` is the
/// calibrated minimum sub-range worth a `rayon::join` split
/// ([`crate::cutoff::bulk_join_cutoff`]); smaller ranges run the leaf kernel.
fn build_slab_rec<K: Ord + Copy + Send + Sync>(
    keys: &[K],
    slab: &mut [Option<Node<K>>],
    base: u32,
    engine: Engine,
    cutoff: usize,
) -> Vec<Option<NodeId>> {
    debug_assert_eq!(keys.len(), slab.len());
    // Admission (`can_admit`) bounds base + keys.len() below u32::MAX, so
    // the u32 offset arithmetic below cannot wrap.
    debug_assert!((base as u64) + (keys.len() as u64) < u32::MAX as u64);
    if keys.len() <= cutoff {
        return build_slab_leaf(keys, slab, base);
    }
    let mid = keys.len() / 2;
    let (left_slab, right_slab) = slab.split_at_mut(mid);
    let (left_roots, right_roots) = rayon::join(
        || build_slab_rec(&keys[..mid], left_slab, base, engine, cutoff),
        || build_slab_rec(&keys[mid..], right_slab, base + mid as u32, engine, cutoff),
    );
    meld_in_slab(
        slab,
        base,
        left_roots,
        &right_roots,
        mid,
        keys.len() - mid,
        engine,
    )
}

/// Sequential ripple-carry build of one slab segment (ids = `base + index`):
/// the same [`carry_add`] as [`HeapPool::insert`], one key at a time.
/// `pub(crate)` so the cutoff calibrator can probe its per-key cost.
pub(crate) fn build_slab_leaf<K: Ord + Copy>(
    keys: &[K],
    slab: &mut [Option<Node<K>>],
    base: u32,
) -> Vec<Option<NodeId>> {
    let mut seg = Segment { slab, base };
    let mut roots: Vec<Option<NodeId>> = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        seg.slab[i] = Some(Node {
            key: k,
            parent: None,
            children: Vec::new(),
        });
        carry_add(&mut seg, &mut roots, &[NodeId(base + i as u32)], 0);
    }
    roots
}

/// Plan + apply a union of two root arrays whose nodes live in `slab`.
fn meld_in_slab<K: Ord + Copy + Send + Sync>(
    slab: &mut [Option<Node<K>>],
    base: u32,
    mut left_roots: Vec<Option<NodeId>>,
    right_roots: &[Option<NodeId>],
    left_len: usize,
    right_len: usize,
    engine: Engine,
) -> Vec<Option<NodeId>> {
    if right_len == 0 {
        return left_roots;
    }
    if left_len == 0 {
        left_roots.clear();
        left_roots.extend_from_slice(right_roots);
        return left_roots;
    }
    let idx = |id: NodeId| (id.0 - base) as usize;
    let key_of = |slab: &[Option<Node<K>>], id: NodeId| slab[idx(id)].as_ref().expect("live").key;
    let width = plan_width(left_len, right_len);
    let h1: Vec<Option<RootRef<K>>> = (0..width)
        .map(|i| {
            left_roots.get(i).copied().flatten().map(|id| RootRef {
                key: key_of(slab, id),
                id,
            })
        })
        .collect();
    let h2: Vec<Option<RootRef<K>>> = (0..width)
        .map(|i| {
            right_roots.get(i).copied().flatten().map(|id| RootRef {
                key: key_of(slab, id),
                id,
            })
        })
        .collect();
    let plan = match engine {
        Engine::Sequential => crate::plan::build_plan_seq(&h1, &h2),
        Engine::Rayon => crate::engine_rayon::build_plan_rayon(&h1, &h2),
    };
    for l in &plan.links {
        debug_assert_eq!(
            slab[idx(l.child)].as_ref().expect("live").children.len(),
            l.slot
        );
        debug_assert_eq!(
            slab[idx(l.parent)].as_ref().expect("live").children.len(),
            l.slot
        );
        slab[idx(l.parent)]
            .as_mut()
            .expect("live")
            .children
            .push(l.child);
        slab[idx(l.child)].as_mut().expect("live").parent = Some(l.parent);
    }
    let mut out = plan.new_roots.clone();
    for r in out.iter().flatten() {
        slab[idx(*r)].as_mut().expect("live").parent = None;
    }
    trim(&mut out);
    out
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

    /// Every live node as `(id, key, parent, children)`, in id order.
    type Shape = Vec<(NodeId, i64, Option<NodeId>, Vec<NodeId>)>;
    fn shape(arena: &Arena<i64>) -> Shape {
        arena
            .iter()
            .map(|(id, n)| (id, n.key, n.parent, n.children.clone()))
            .collect()
    }

    #[test]
    fn ripple_ops_build_the_planners_trees() {
        // Insert and extract link directly instead of planning. Under the one
        // tie contract they must build exactly the trees of ParBinomialHeap's
        // planned singleton Union and children re-meld — node ids, parents
        // and child order included — however many keys are equal.
        for m in [1i64, 2, 3, 5] {
            let mut pool: HeapPool<i64> = HeapPool::new();
            let mut h = pool.new_heap();
            let mut planned: ParBinomialHeap<i64> = ParBinomialHeap::new();
            for i in 0..3000i64 {
                let k = (i * 7919) % m;
                pool.insert(&mut h, k);
                planned.insert(k);
                assert_eq!(h.roots(), planned.roots(), "mod {m}, insert {i}");
                if i % 100 == 99 {
                    assert_eq!(
                        shape(pool.arena()),
                        shape(planned.arena()),
                        "mod {m}, insert {i}"
                    );
                }
            }
            for i in 0..1000i64 {
                let got = pool.extract_min(&mut h);
                assert_eq!(got, planned.extract_min(Engine::Sequential));
                if i % 3 == 0 {
                    let k = (i * 31) % m;
                    pool.insert(&mut h, k);
                    planned.insert(k);
                }
                assert_eq!(h.roots(), planned.roots(), "mod {m}, churn {i}");
                if i % 100 == 99 {
                    assert_eq!(
                        shape(pool.arena()),
                        shape(planned.arena()),
                        "mod {m}, churn {i}"
                    );
                }
            }
            pool.validate_heap(&h).unwrap();
        }
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
        // Multi-extract with orphans (peeled roots had children) ...
        assert_eq!(pool.multi_extract_min(&mut h, 3), vec![-11, -7, -3]);
        exact(&pool, &h, "multi_extract_min with orphans");
        // ... and without: [5, 6, 1] is B_1 {5, 6} plus B_0 {1}, so peeling
        // one key takes a childless root and melds nothing back.
        let mut z = pool.from_keys([5, 6, 1]);
        assert_eq!(pool.multi_extract_min(&mut z, 1), vec![1]);
        exact(&pool, &z, "multi_extract_min without orphans");
        assert_eq!(pool.min(&z), Some(5));
        let p = pool.from_keys_parallel(&[8, -2, 8, 5, -2, 40, 3]);
        exact(&pool, &p, "from_keys_parallel");
        let c = pool.clone_heap(&h);
        exact(&pool, &c, "clone_heap");
        let a = pool.adopt(ParBinomialHeap::from_keys([6, -4, 6, 1]));
        exact(&pool, &a, "adopt");
        // A stale or non-root cache is rejected.
        let mut bad = pool.from_keys([3, 1, 2]);
        bad.min = bad.roots[0];
        assert!(pool.validate_heap(&bad).unwrap_err().contains("min cache"));
        let child = pool.arena.get(bad.roots[1].unwrap()).children[0];
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
            let mut dp = crate::wal::DurablePool::open(&dir, Engine::Sequential).unwrap();
            let (a, _) = dp.create_heap().unwrap();
            dp.from_keys(a, &[9, 3, 3, 7, 1, 12, 1]).unwrap();
            dp.extract_min(a).unwrap();
            let (b, _) = dp.create_heap().unwrap();
            dp.insert(b, 4).unwrap();
            dp.checkpoint().unwrap();
        }
        let rec = crate::wal::recover_dir(&dir, Engine::Sequential).unwrap();
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
    fn adopt_and_into_heap_roundtrip() {
        let mut pool: HeapPool<i64> = HeapPool::new();
        let h = pool.adopt(ParBinomialHeap::from_keys([3, 1, 2]));
        assert_eq!(pool.stats().copies, 3);
        pool.validate_heap(&h).unwrap();
        let free = pool.into_heap(h);
        free.validate().unwrap();
        assert_eq!(free.into_sorted_vec(), vec![1, 2, 3]);
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
        let h = pool.from_keys_parallel_with(&keys, Engine::Rayon);
        assert_eq!(pool.stats().allocs, keys.len() as u64);
        assert_eq!(pool.stats().copies, 0, "parallel build must never copy");
        pool.validate_heap(&h).unwrap();
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(pool.into_sorted_vec(h), expected);
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
