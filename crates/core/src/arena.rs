//! Slab arena for binomial-heap nodes.
//!
//! Nodes are stored in one contiguous `Vec` and addressed by [`NodeId`]
//! handles, mirroring the paper's shared-memory representation (§2): each
//! node carries `key`, `parent` and the child array `L`. `L` is a child
//! list, highest order first: a node of degree `d` names its first child,
//! the root of `B_{d-1}`, and each child names its next sibling, the root
//! of the next lower order, down to `B_0`. A binomial link is then a
//! prepend (the Hollow Heaps child/next layout). Every link is a `u32`
//! word with `u32::MAX` as NIL, so a node is its key plus four words
//! (24 bytes for `i64`) and owns no heap allocation.
//!
//! A freed slot stays in the slab with a tombstone degree and every link
//! NIL; the free list recycles it, and [`Arena::alloc`] resets every link
//! word.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// Handle to a node in an [`Arena`]. `u32` keeps the hot structures small
/// (perf-book: smaller indices beat pointers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Convert to a PRAM machine word.
    pub fn to_word(self) -> i64 {
        self.0 as i64
    }

    /// Convert back from a PRAM machine word (must not be `NIL`).
    pub fn from_word(w: i64) -> NodeId {
        debug_assert!(w >= 0, "NIL is not a NodeId");
        NodeId(w as u32)
    }
}

/// The absent link: no parent, no child, no next sibling.
pub(crate) const NIL: u32 = u32::MAX;
/// The degree word of a free slot.
pub(crate) const FREE: u32 = u32::MAX;
/// Room for every child of a node. Ids stay below `u32::MAX`, so a heap
/// holds fewer than `2^32` nodes and no tree has order 32 or more.
pub(crate) const MAX_DEGREE: usize = 32;

/// A binomial-tree node: the key, the paper's `parent`, and `L` as a
/// first-child link plus the next-sibling link it holds as a child of its
/// own parent. Links are raw `u32` ids with `u32::MAX` for none; the degree
/// is the length of the child list.
#[derive(Debug, Clone, Copy)]
pub struct Node<K> {
    /// The priority key.
    pub key: K,
    pub(crate) parent: u32,
    /// The highest-order child.
    pub(crate) child: u32,
    /// The next lower-order child of `parent`.
    pub(crate) sibling: u32,
    /// Number of children; `FREE` marks a free slot.
    pub(crate) degree: u32,
}

const _: () = assert!(std::mem::size_of::<Node<i64>>() == 24);

fn link_id(w: u32) -> Option<NodeId> {
    (w != NIL).then_some(NodeId(w))
}

impl<K> Node<K> {
    /// A parentless, childless node.
    pub(crate) fn leaf(key: K) -> Self {
        Node {
            key,
            parent: NIL,
            child: NIL,
            sibling: NIL,
            degree: 0,
        }
    }

    /// Parent pointer (`None` for roots).
    pub fn parent(&self) -> Option<NodeId> {
        link_id(self.parent)
    }

    /// Number of children: the order of the tree rooted here.
    pub fn degree(&self) -> usize {
        self.degree as usize
    }

    /// Next lower-order sibling (`None` for `B_0` children and roots).
    pub(crate) fn sibling(&self) -> Option<NodeId> {
        link_id(self.sibling)
    }

    fn is_free(&self) -> bool {
        self.degree == FREE
    }
}

/// The children of one node, highest order first: `B_{d-1}, …, B_0`.
/// Yields at most the node's degree ids, so even a corrupt sibling chain
/// ends. It follows links without checking that they name live nodes (a
/// free or out-of-range id ends the chain), so a validator can check each
/// id it is given.
#[derive(Debug, Clone)]
pub struct Children<'a, K> {
    nodes: &'a [Node<K>],
    next: u32,
    left: u32,
}

impl<K> Children<'_, K> {
    /// The link after the last child yielded: NIL once a chain of exactly
    /// the node's degree is walked.
    pub(crate) fn rest(&self) -> Option<NodeId> {
        link_id(self.next)
    }
}

impl<K> Iterator for Children<'_, K> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.left == 0 || self.next == NIL {
            return None;
        }
        let id = NodeId(self.next);
        self.left -= 1;
        self.next = self
            .nodes
            .get(self.next as usize)
            .map_or(NIL, |n| n.sibling);
        Some(id)
    }
}

/// The children of one node in ascending order, `B_0` first, held on the
/// stack: what [`Arena::take_children`] hands the pop's carry, so child
/// `i` is the tree that lands in root slot `i`.
#[derive(Debug)]
pub(crate) struct ChildBuf {
    ids: [NodeId; MAX_DEGREE],
    len: usize,
}

impl ChildBuf {
    /// An empty buffer.
    pub(crate) const fn new() -> Self {
        ChildBuf {
            ids: [NodeId(NIL); MAX_DEGREE],
            len: 0,
        }
    }
}

impl std::ops::Deref for ChildBuf {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        &self.ids[..self.len]
    }
}

/// Allocation counters for an [`Arena`] — the instrumentation behind the
/// zero-copy meld guarantee (see `pool.rs` and DESIGN.md §7): a same-pool
/// meld must leave *both* counters unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Fresh nodes created (`alloc`, slab extension).
    pub allocs: u64,
    /// Nodes copied in: cross-pool moves and `clone_heap`.
    pub copies: u64,
}

/// Slab arena with free-list recycling.
#[derive(Debug, Clone, Default)]
pub struct Arena<K> {
    nodes: Vec<Node<K>>,
    free: Vec<u32>,
    stats: ArenaStats,
}

/// Every id the pool reads names a live node: it comes from a root array
/// or a child list of live nodes, and recovery validates an image's links
/// before the pool serves from it. A dead id is a bug in the pool.
#[cold]
#[track_caller]
fn dead(id: NodeId) -> ! {
    panic!("dead node {id:?}")
}

impl<K> Arena<K> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            nodes: Vec::new(),
            free: Vec::new(),
            stats: ArenaStats::default(),
        }
    }

    /// An empty arena with room for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            nodes: Vec::with_capacity(cap),
            free: Vec::new(),
            stats: ArenaStats::default(),
        }
    }

    /// Allocation counters since construction (clones inherit the history).
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Number of slab slots (live + free) — the id space upper bound, used
    /// by the pool's capacity check.
    pub fn slab_len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a fresh leaf node.
    pub fn alloc(&mut self, key: K) -> NodeId {
        self.stats.allocs += 1;
        self.place(key)
    }

    /// Allocate a leaf holding a key copied in from a tree of this or
    /// another arena (cross-pool moves, `clone_heap`). Counted as a copy,
    /// not a fresh allocation.
    pub(crate) fn alloc_copy(&mut self, key: K) -> NodeId {
        self.stats.copies += 1;
        self.place(key)
    }

    fn place(&mut self, key: K) -> NodeId {
        let node = Node::leaf(key);
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = node;
                NodeId(idx)
            }
            None => {
                // NIL is `u32::MAX`, so the last id is `u32::MAX - 1`.
                assert!(
                    self.nodes.len() < NIL as usize,
                    "arena slab exceeds the u32 id space"
                );
                self.nodes.push(node);
                NodeId((self.nodes.len() - 1) as u32)
            }
        }
    }

    /// Free a node, recycling its slot, and return it as it was. The
    /// caller must have unlinked it.
    ///
    /// # Panics
    ///
    /// If `id` is not a live node (see [`Arena::get`]).
    #[track_caller]
    pub fn dealloc(&mut self, id: NodeId) -> Node<K>
    where
        K: Copy,
    {
        let slot = self.get_mut(id);
        let node = *slot;
        slot.parent = NIL;
        slot.child = NIL;
        slot.sibling = NIL;
        slot.degree = FREE;
        self.free.push(id.0);
        node
    }

    /// Borrow a live node, or `None` for a free or out-of-range id.
    #[inline]
    pub fn try_get(&self, id: NodeId) -> Option<&Node<K>> {
        self.nodes.get(id.0 as usize).filter(|n| !n.is_free())
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// If `id` is not a live node. Every id the pool reads comes from a
    /// root array or a child list of live nodes, so this never fires on a
    /// valid pool; [`Arena::try_get`] is the checked form.
    #[inline]
    #[track_caller]
    pub fn get(&self, id: NodeId) -> &Node<K> {
        match self.try_get(id) {
            Some(n) => n,
            None => dead(id),
        }
    }

    /// Borrow a node mutably.
    ///
    /// # Panics
    ///
    /// If `id` is not a live node, as [`Arena::get`].
    #[inline]
    #[track_caller]
    pub fn get_mut(&mut self, id: NodeId) -> &mut Node<K> {
        match self.nodes.get_mut(id.0 as usize) {
            Some(n) if !n.is_free() => n,
            _ => dead(id),
        }
    }

    /// Whether `id` refers to a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.try_get(id).is_some()
    }

    /// The children of live node `id`, highest order first.
    ///
    /// # Panics
    ///
    /// If `id` is not a live node, as [`Arena::get`].
    #[inline]
    #[track_caller]
    pub fn children(&self, id: NodeId) -> Children<'_, K> {
        let n = self.get(id);
        Children {
            nodes: &self.nodes,
            next: n.child,
            left: n.degree,
        }
    }

    /// The children of live node `id` in ascending order, `B_0` first,
    /// with no allocation.
    #[track_caller]
    pub(crate) fn children_ascending(&self, id: NodeId) -> ChildBuf {
        let mut buf = ChildBuf::new();
        let d = self.get(id).degree().min(MAX_DEGREE);
        for (j, c) in self.children(id).take(d).enumerate() {
            buf.ids[d - 1 - j] = c;
            buf.len += 1;
        }
        debug_assert_eq!(
            buf.len, d,
            "child list of {id:?} is shorter than its degree"
        );
        buf
    }

    /// Detach every child of live node `id` in one walk of its child list:
    /// `out` receives them in ascending order, `B_0` first, each now a
    /// parentless root with no sibling, and `id` is left childless. The
    /// caller owns the buffer, so no copy of it is returned.
    ///
    /// # Panics
    ///
    /// If `id` or a node on its child list is not live, as [`Arena::get`]
    /// (a chain shorter than the degree ends in NIL, which is never live).
    #[inline]
    #[track_caller]
    pub(crate) fn take_children(&mut self, id: NodeId, out: &mut ChildBuf) {
        let n = self.get_mut(id);
        let d = n.degree().min(MAX_DEGREE);
        let mut next = n.child;
        n.child = NIL;
        n.degree = 0;
        out.len = d;
        // The list runs highest order first, so it fills the buffer from
        // the top.
        for slot in out.ids[..d].iter_mut().rev() {
            let c = NodeId(next);
            let child = self.get_mut(c);
            next = child.sibling;
            child.parent = NIL;
            child.sibling = NIL;
            *slot = c;
        }
        debug_assert_eq!(next, NIL, "child list of {id:?} is longer than its degree");
    }

    /// Iterate over `(id, node)` for all live nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node<K>)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.is_free())
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Raw slab view for checkpoint serialization: every slot, free or
    /// live, in id order. Free slots carry the `FREE` degree.
    pub(crate) fn raw_slots(&self) -> &[Node<K>] {
        &self.nodes
    }

    /// The free-list slots, in pop order (last entry is popped first).
    pub(crate) fn free_list(&self) -> &[u32] {
        &self.free
    }

    /// Rebuild an arena from a checkpoint image. The image crosses a trust
    /// boundary (it was read from disk), so this rejects it unless:
    ///
    /// * `free` names exactly the free slots, each once, and a free slot
    ///   has every link NIL;
    /// * a live node's degree is below [`MAX_DEGREE`], and each of its
    ///   links is NIL or names a live slot;
    /// * each live node's sibling chain from its first child holds exactly
    ///   `degree` nodes, every one naming it as parent — so no later walk
    ///   over the slab can loop or leave it.
    pub(crate) fn from_raw_parts(nodes: Vec<Node<K>>, free: Vec<u32>) -> Option<Self> {
        if nodes.len() > NIL as usize {
            return None;
        }
        let n_free = nodes.iter().filter(|n| n.is_free()).count();
        if free.len() != n_free {
            return None;
        }
        let mut seen = vec![false; nodes.len()];
        for &f in &free {
            let slot = nodes.get(f as usize)?;
            if !slot.is_free() || seen[f as usize] {
                return None;
            }
            seen[f as usize] = true;
        }
        let live = |w: u32| w == NIL || nodes.get(w as usize).is_some_and(|n| !n.is_free());
        for (i, n) in nodes.iter().enumerate() {
            if n.is_free() {
                if n.parent != NIL || n.child != NIL || n.sibling != NIL {
                    return None;
                }
                continue;
            }
            if n.degree as usize >= MAX_DEGREE
                || !live(n.parent)
                || !live(n.child)
                || !live(n.sibling)
            {
                return None;
            }
            let mut next = n.child;
            for _ in 0..n.degree {
                let c = nodes.get(next as usize)?;
                if c.parent as usize != i {
                    return None;
                }
                next = c.sibling;
            }
            if next != NIL {
                return None;
            }
        }
        Some(Arena {
            nodes,
            free,
            stats: ArenaStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_dealloc_roundtrip() {
        let mut a: Arena<i64> = Arena::new();
        let x = a.alloc(5);
        let y = a.alloc(9);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(x).key, 5);
        assert_eq!(a.get(y).key, 9);
        let n = a.dealloc(x);
        assert_eq!(n.key, 5);
        assert!(!a.contains(x));
        assert_eq!(a.len(), 1);
        // Slot is recycled.
        let z = a.alloc(7);
        assert_eq!(z, x);
    }

    #[test]
    #[should_panic(expected = "dead node")]
    fn get_after_dealloc_panics() {
        let mut a: Arena<i64> = Arena::new();
        let x = a.alloc(1);
        a.dealloc(x);
        let _ = a.get(x);
    }

    #[test]
    fn word_roundtrip() {
        let id = NodeId(42);
        assert_eq!(NodeId::from_word(id.to_word()), id);
    }

    #[test]
    fn recycled_slots_come_back_with_every_link_reset() {
        // Build p with children c1 (higher order first) then c0, where c1
        // itself has a child: every link word of the four nodes is in use.
        let mut a: Arena<i64> = Arena::new();
        let [p, c1, g, c0] = [1, 2, 3, 4].map(|k| a.alloc(k));
        let adopt = |a: &mut Arena<i64>, parent: NodeId, child: NodeId| {
            let head = a.get(parent).child;
            let c = a.get_mut(child);
            c.sibling = head;
            c.parent = parent.0;
            let p = a.get_mut(parent);
            p.child = child.0;
            p.degree += 1;
        };
        adopt(&mut a, c1, g);
        adopt(&mut a, p, c0);
        adopt(&mut a, p, c1);
        assert_eq!(a.children(p).collect::<Vec<_>>(), vec![c1, c0]);
        assert_eq!(&*a.children_ascending(p), &[c0, c1]);
        assert_eq!(a.get(c1).sibling(), Some(c0));
        // Taking the children walks the list once and leaves every link of
        // the two children and of p cleared, g still under c1.
        let mut t = a.clone();
        let mut taken = ChildBuf::new();
        t.take_children(p, &mut taken);
        assert_eq!(&*taken, &[c0, c1]);
        for id in [c0, c1] {
            assert_eq!(t.get(id).parent(), None, "{id:?}");
            assert_eq!(t.get(id).sibling(), None, "{id:?}");
        }
        assert_eq!((t.get(p).degree(), t.get(p).child), (0, NIL));
        assert_eq!(t.children(c1).collect::<Vec<_>>(), vec![g]);
        for id in [g, c0, c1, p] {
            a.dealloc(id);
        }
        assert!(a.iter().next().is_none());
        for k in 10..14 {
            let id = a.alloc(k);
            let n = a.get(id);
            assert_eq!(n.key, k);
            assert_eq!(n.parent(), None, "slot {id:?}");
            assert_eq!(n.child, NIL, "slot {id:?}");
            assert_eq!(n.sibling(), None, "slot {id:?}");
            assert_eq!(n.degree(), 0, "slot {id:?}");
            assert_eq!(a.children(id).count(), 0);
        }
        assert_eq!(a.len(), 4);
        assert_eq!(a.slab_len(), 4, "every slot was recycled");
    }

    #[test]
    fn from_raw_parts_rejects_bad_links() {
        let leaf = |key| Node::leaf(key);
        let mut parent = leaf(0i64);
        parent.child = 1;
        parent.degree = 1;
        let mut child = leaf(1);
        child.parent = 0;
        let good = vec![parent, child];
        assert!(Arena::from_raw_parts(good.clone(), vec![]).is_some());
        let mut cycle = good.clone();
        cycle[1].sibling = 1;
        assert!(
            Arena::from_raw_parts(cycle, vec![]).is_none(),
            "chain too long"
        );
        let mut short = good.clone();
        short[0].degree = 2;
        assert!(
            Arena::from_raw_parts(short, vec![]).is_none(),
            "chain too short"
        );
        let mut orphan = good.clone();
        orphan[1].parent = NIL;
        assert!(
            Arena::from_raw_parts(orphan, vec![]).is_none(),
            "wrong parent"
        );
        let mut freed = good.clone();
        freed.push(Node {
            degree: FREE,
            ..leaf(2)
        });
        assert!(Arena::from_raw_parts(freed.clone(), vec![2]).is_some());
        freed[0].child = 2;
        assert!(
            Arena::from_raw_parts(freed, vec![2]).is_none(),
            "free child"
        );
    }
}
