//! Slab arena for binomial-heap nodes.
//!
//! Nodes are stored in a contiguous `Vec` and addressed by [`NodeId`]
//! handles, mirroring the paper's shared-memory representation (§2): each
//! node carries `key`, `parent`, and the child array `L` where slot `i`
//! points at the root of the child sub-tree `B_i`. The arena keeps a free
//! list so deleted nodes are recycled.

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

/// A binomial-tree node: key plus the paper's `parent` and `L` fields.
/// The degree is `children.len()`.
#[derive(Debug, Clone)]
pub struct Node<K> {
    /// The priority key.
    pub key: K,
    /// Parent pointer (`None` for roots).
    pub parent: Option<NodeId>,
    /// Child array `L`: slot `i` is the root of the child `B_i`. Dense for a
    /// clean binomial tree of degree `children.len()`.
    pub children: Vec<NodeId>,
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
    nodes: Vec<Option<Node<K>>>,
    free: Vec<u32>,
    stats: ArenaStats,
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
    /// by the pool builder to reserve a fresh contiguous id range.
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
        let node = Node {
            key,
            parent: None,
            children: Vec::new(),
        };
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = Some(node);
                NodeId(idx)
            }
            None => {
                assert!(
                    self.nodes.len() < u32::MAX as usize,
                    "arena slab exceeds the u32 id space"
                );
                self.nodes.push(Some(node));
                NodeId((self.nodes.len() - 1) as u32)
            }
        }
    }

    /// Free a node, recycling its slot. The caller must have unlinked it.
    pub fn dealloc(&mut self, id: NodeId) -> Node<K> {
        let n = self.nodes[id.0 as usize]
            .take()
            .expect("dealloc of a dead node");
        self.free.push(id.0);
        n
    }

    /// Borrow a node.
    pub fn get(&self, id: NodeId) -> &Node<K> {
        self.nodes[id.0 as usize].as_ref().expect("dead node")
    }

    /// Borrow a node mutably.
    pub fn get_mut(&mut self, id: NodeId) -> &mut Node<K> {
        self.nodes[id.0 as usize].as_mut().expect("dead node")
    }

    /// Whether `id` refers to a live node.
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes
            .get(id.0 as usize)
            .is_some_and(|slot| slot.is_some())
    }

    /// Iterate over `(id, node)` for all live nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node<K>)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (NodeId(i as u32), n)))
    }

    /// Move a fully-formed node in from another arena (pointers still in the
    /// source id space — the caller rewrites them afterwards). Counted as a
    /// copy, not a fresh allocation.
    pub(crate) fn alloc_node(&mut self, node: Node<K>) -> NodeId {
        self.stats.copies += 1;
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = Some(node);
                NodeId(idx)
            }
            None => {
                assert!(
                    self.nodes.len() < u32::MAX as usize,
                    "arena slab exceeds the u32 id space"
                );
                self.nodes.push(Some(node));
                NodeId((self.nodes.len() - 1) as u32)
            }
        }
    }

    /// Append a pre-built contiguous slab of live nodes whose ids were baked
    /// against `self.slab_len()` at build time (the pool's parallel builder).
    /// No remapping happens — the ids are already final.
    pub(crate) fn extend_slab(&mut self, slab: Vec<Option<Node<K>>>) {
        debug_assert!(slab.iter().all(|s| s.is_some()), "slab must be dense");
        self.stats.allocs += slab.len() as u64;
        if self.nodes.is_empty() && self.free.is_empty() {
            self.nodes = slab;
        } else {
            self.nodes.extend(slab);
        }
    }

    /// Raw slab view for checkpoint serialization: every slot, dead or alive,
    /// in id order. Dead slots are the free list.
    pub(crate) fn raw_slots(&self) -> &[Option<Node<K>>] {
        &self.nodes
    }

    /// The free-list slots, in pop order (last entry is popped first).
    pub(crate) fn free_list(&self) -> &[u32] {
        &self.free
    }

    /// Rebuild an arena from a checkpoint image. The caller guarantees that
    /// `free` names exactly the `None` slots of `nodes`; this is re-checked
    /// here because the image crosses a trust boundary (it was read from
    /// disk).
    pub(crate) fn from_raw_parts(nodes: Vec<Option<Node<K>>>, free: Vec<u32>) -> Option<Self> {
        let dead = nodes.iter().filter(|s| s.is_none()).count();
        if free.len() != dead {
            return None;
        }
        let mut seen = vec![false; nodes.len()];
        for &f in &free {
            let slot = nodes.get(f as usize)?;
            if slot.is_some() || seen[f as usize] {
                return None;
            }
            seen[f as usize] = true;
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
}
