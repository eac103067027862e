//! `Decrease-Key` across every sequential baseline.
//!
//! The paper's Definition 1 stops at `Union`; its §4 lazy structure adds
//! `Change-Key` via `-∞` empty nodes. This module gives the *sequential*
//! fleet the same surface so every engine can run an SSSP-style workload
//! through [`DecreaseKeyPq`](crate::DecreaseKeyPq):
//!
//! * [`PqHandle`] — the opaque handle `insert_handle` returns. Handles are
//!   minted from one process-wide counter ([`mint`]), so they stay unique
//!   across melds — absorbing a heap never needs a handle translation
//!   (contrast `IndexedBinomialHeap::meld`, which returns a remapper).
//! * [`TrackedKeys`] — the shared bookkeeping for queues *without stable
//!   node identity* (binomial / leftist / skew here, the lazy heap in
//!   `meldpq`). Those structures move keys between nodes, so a tracked
//!   handle names "one element currently holding key `k`", not a physical
//!   node: `decrease_key` finds *an* element with the old key and sifts
//!   it, and `extract_min` retires the oldest handle holding the popped
//!   key. Under multiset semantics (what the differential fuzzer checks)
//!   this is indistinguishable from physical identity; an engine with real
//!   node identity (pairing) tracks the node itself and decreases by
//!   cutting its subtree and relinking it with the root.

use std::collections::{BTreeMap, HashMap};
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::OpStats;

/// An opaque, process-unique handle to a tracked element.
///
/// Handles survive `meld` (both queues' handles stay valid on the merged
/// queue) and go stale when their element is extracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PqHandle(u64);

impl PqHandle {
    /// The raw unique id (stable for the process lifetime).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// Mint a fresh process-unique handle — the one counter behind every
/// [`DecreaseKeyPq`](crate::DecreaseKeyPq) in the workspace.
pub fn mint() -> PqHandle {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    PqHandle(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Handle bookkeeping for queues without stable node identity.
///
/// Invariant: the multiset of tracked keys is a sub-multiset of the queue's
/// keys — every map entry corresponds to a distinct live element. Preserved
/// by retiring (at most) one handle per extraction, oldest first.
#[derive(Debug, Clone)]
pub struct TrackedKeys<K> {
    /// handle → current key.
    by_handle: HashMap<PqHandle, K>,
    /// key → handles holding it, oldest (smallest id) first.
    by_key: BTreeMap<K, Vec<PqHandle>>,
}

impl<K> Default for TrackedKeys<K> {
    fn default() -> Self {
        TrackedKeys {
            by_handle: HashMap::new(),
            by_key: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Clone> TrackedKeys<K> {
    /// Number of tracked elements.
    pub(crate) fn len(&self) -> usize {
        self.by_handle.len()
    }

    /// The key currently recorded for `h`.
    pub fn key_of(&self, h: PqHandle) -> Option<&K> {
        self.by_handle.get(&h)
    }

    /// Each tracked key with the number of handles holding it, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (&K, usize)> {
        self.by_key.iter().map(|(k, hs)| (k, hs.len()))
    }

    /// Start tracking a fresh element holding `k`.
    pub fn track(&mut self, k: K) -> PqHandle {
        let h = mint();
        // Minted ids are globally increasing, so a plain push keeps the
        // bucket oldest-first.
        self.by_key.entry(k.clone()).or_default().push(h);
        self.by_handle.insert(h, k);
        h
    }

    /// Record the popped key: the oldest handle holding `k` (if any) goes
    /// stale and is returned, keeping tracked keys a sub-multiset of the
    /// queue.
    pub fn on_extract(&mut self, k: &K) -> Option<PqHandle> {
        let handles = self.by_key.get_mut(k)?;
        let h = handles.remove(0);
        if handles.is_empty() {
            self.by_key.remove(k);
        }
        self.by_handle.remove(&h);
        Some(h)
    }

    /// Move `h` from its current key to `new`; returns the old key, or
    /// `None` when the handle is stale.
    pub fn rekey(&mut self, h: PqHandle, new: K) -> Option<K> {
        let old = self.by_handle.get(&h)?.clone();
        if let Some(hs) = self.by_key.get_mut(&old) {
            hs.retain(|x| *x != h);
            if hs.is_empty() {
                self.by_key.remove(&old);
            }
        }
        let slot = self.by_key.entry(new.clone()).or_default();
        let pos = slot.binary_search(&h).unwrap_or_else(|p| p);
        slot.insert(pos, h);
        self.by_handle.insert(h, new);
        Some(old)
    }

    /// The `Decrease-Key` contract for queues that track by key: refuse a
    /// stale handle or a raise, accept a no-op, else let `sift` move one
    /// element holding the old key to `new` and, when it did, rekey `h`.
    pub fn decrease(&mut self, h: PqHandle, new: K, sift: impl FnOnce(&K, &K) -> bool) -> bool {
        let Some(old) = self.key_of(h).cloned() else {
            return false;
        };
        if new > old {
            return false;
        }
        if new == old {
            return true;
        }
        let moved = sift(&old, &new);
        if moved {
            self.rekey(h, new);
        }
        moved
    }

    /// Absorb another queue's tracking (meld). Handle ids are globally
    /// unique, so this is a plain union.
    pub fn merge(&mut self, other: TrackedKeys<K>) {
        self.by_handle.extend(other.by_handle);
        for (k, hs) in other.by_key {
            let slot = self.by_key.entry(k).or_default();
            slot.extend(hs);
            slot.sort_unstable();
        }
    }

    /// Internal-consistency check: the two maps mirror each other and
    /// every bucket is non-empty and oldest-first.
    pub fn check(&self) -> Result<(), String> {
        let mut mirrored = 0usize;
        for (k, hs) in &self.by_key {
            if hs.is_empty() {
                return Err("tracked: empty handle bucket".into());
            }
            if hs.windows(2).any(|w| w[0] >= w[1]) {
                return Err("tracked: bucket not sorted oldest-first".into());
            }
            for h in hs {
                match self.by_handle.get(h) {
                    Some(kk) if kk == k => mirrored += 1,
                    Some(_) => return Err(format!("tracked: handle {} key mismatch", h.0)),
                    None => return Err(format!("tracked: handle {} missing from map", h.0)),
                }
            }
        }
        if mirrored != self.by_handle.len() {
            return Err("tracked: by_handle has entries absent from by_key".into());
        }
        Ok(())
    }
}

/// Node-shape abstraction for the binary-tree sift engines (leftist, skew)
/// so both share one iterative decrease routine.
pub(crate) trait BinaryNode<K>: Sized {
    fn key(&self) -> &K;
    fn key_mut(&mut self) -> &mut K;
    fn left(&self) -> Option<&Self>;
    fn right(&self) -> Option<&Self>;
    fn left_mut(&mut self) -> Option<&mut Self>;
    fn right_mut(&mut self) -> Option<&mut Self>;
}

/// Iterative pruned DFS for *an* element holding `old`; returns the
/// root-to-target edge trail (`false` = left). Explicit stack — leftist and
/// skew trees can be `O(n)` deep under sorted inserts, so recursion is out.
fn find_path<K: Ord, N: BinaryNode<K>>(root: &N, old: &K, stats: &OpStats) -> Option<Vec<bool>> {
    let mut trail: Vec<bool> = Vec::new();
    // (node, next step: 0 = visit/left, 1 = right, 2 = backtrack, owns-edge)
    let mut stack: Vec<(&N, u8, bool)> = vec![(root, 0, false)];
    while let Some((n, state, has_edge)) = stack.pop() {
        match state {
            0 => {
                if n.key() == old {
                    return Some(trail);
                }
                stack.push((n, 1, has_edge));
                if let Some(l) = n.left() {
                    stats.add_comparisons(1);
                    // Prune: `old` only lives below roots with key ≤ old.
                    if l.key() <= old {
                        trail.push(false);
                        stack.push((l, 0, true));
                    }
                }
            }
            1 => {
                stack.push((n, 2, has_edge));
                if let Some(r) = n.right() {
                    stats.add_comparisons(1);
                    if r.key() <= old {
                        trail.push(true);
                        stack.push((r, 0, true));
                    }
                }
            }
            _ => {
                if has_edge {
                    trail.pop();
                }
            }
        }
    }
    None
}

/// Apply a decrease along a discovered trail: the keys on the path are
/// non-decreasing (heap order), so placing `new` at the first node whose key
/// exceeds it and shifting the rest down one step is exactly the bottom-up
/// swap sift, done top-down in one mutable walk. The target's old key falls
/// off the end.
fn apply_decrease<K: Ord + Clone, N: BinaryNode<K>>(
    root: &mut N,
    trail: &[bool],
    new: &K,
    stats: &OpStats,
) {
    let mut cur = root;
    let mut carry: Option<K> = None;
    for &dir in trail {
        match carry.take() {
            None => {
                stats.add_comparisons(1);
                if *cur.key() > *new {
                    carry = Some(mem::replace(cur.key_mut(), new.clone()));
                    stats.add_link();
                }
            }
            Some(c) => {
                carry = Some(mem::replace(cur.key_mut(), c));
                stats.add_link();
            }
        }
        cur = if dir { cur.right_mut() } else { cur.left_mut() }
            .expect("trail follows existing edges");
    }
    match carry {
        None => *cur.key_mut() = new.clone(),
        Some(c) => *cur.key_mut() = c,
    }
}

/// Sift-based decrease for binary heap-ordered trees: find `old`, replace
/// with `new`, restore order by shifting path keys. Structure (and any rank
/// bookkeeping) is untouched. Returns `false` when `old` is absent.
pub(crate) fn binary_decrease<K: Ord + Clone, N: BinaryNode<K>>(
    root: &mut N,
    old: &K,
    new: &K,
    stats: &OpStats,
) -> bool {
    let Some(trail) = find_path(root, old, stats) else {
        return false;
    };
    apply_decrease(root, &trail, new, stats);
    true
}
