//! `DecreaseKeyPq` — Definition 1 operation 6 for this crate's engines.
//!
//! The trait ([`DecreaseKeyPq`]) and its handle type ([`PqHandle`]) live
//! in `seqheaps` next to [`MeldablePq`]. There the pairing heap, the one
//! baseline with real node identity, implements them natively by cut and
//! link; the other baselines move keys between nodes and have no decrease
//! (a Dijkstra over them reinserts and skips stale pops). This module adds
//! the two arena engines, so SSSP-style workloads (the shootout's Dijkstra
//! class, the differential fuzzer's decrease ops) can dispatch over them:
//!
//! * [`IndexedBinomialPq`] wraps the sequential arena heap, remapping its
//!   `ItemId`s through the meld translator so process-unique [`PqHandle`]s
//!   survive `Union`;
//! * [`LazyDecreasePq`] wraps the paper's §4 lazy heap, mapping handles to
//!   `NodeId` hints and realising `Decrease-Key` as `Change-Key`
//!   (delete + reinsert via a persistent empty node).
//!
//! Every handle comes from the one process-wide counter
//! ([`seqheaps::decrease::mint`]), so melding two queues never collides or
//! needs caller-side translation. The lazy engine tracks handles by *key*
//! (`TrackedKeys`, multiset semantics, below); the arena engine tracks
//! physical identity. Under the fuzzer's multiset checking the two are
//! indistinguishable.
//!
//! A stale handle — one whose element already left the queue — makes
//! `decrease_key` return `false` and change nothing; no path here panics
//! on one.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, HashMap};

use crate::check::check_lazy;
use crate::lazy::LazyBinomialHeap;
use crate::NodeId;
use seqheaps::decrease::mint;
pub use seqheaps::{DecreaseKeyPq, PqHandle};
use seqheaps::{IndexedBinomialHeap, ItemId, MeldablePq};

/// The sequential arena binomial heap (`seqheaps::IndexedBinomialHeap`)
/// behind the [`DecreaseKeyPq`] surface.
///
/// The inner heap's `ItemId`s are dense per-heap indices that shift on
/// `meld` (its translator closure); this wrapper owns the remapping so the
/// outward [`PqHandle`]s stay valid across any number of `Union`s.
#[derive(Debug, Default)]
pub struct IndexedBinomialPq {
    heap: IndexedBinomialHeap,
    /// handle → current item.
    by_handle: HashMap<PqHandle, ItemId>,
    /// item → handle (retire the right handle on extraction).
    by_item: HashMap<ItemId, PqHandle>,
}

impl IndexedBinomialPq {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow the wrapped heap (stats, inspection).
    pub fn heap(&self) -> &IndexedBinomialHeap {
        &self.heap
    }

    fn retire_item(&mut self, id: ItemId) {
        if let Some(h) = self.by_item.remove(&id) {
            self.by_handle.remove(&h);
        }
    }
}

impl MeldablePq<i64> for IndexedBinomialPq {
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn insert(&mut self, key: i64) {
        let _ = self.heap.insert(key);
    }

    fn peek_min(&mut self) -> Option<i64> {
        self.heap.min()
    }

    fn extract_min(&mut self) -> Option<i64> {
        let (id, key) = self.heap.extract_min()?;
        self.retire_item(id);
        Some(key)
    }

    fn meld(&mut self, other: Self) {
        let translate = self.heap.meld(other.heap);
        for (h, id) in other.by_handle {
            let new_id = translate(id);
            self.by_handle.insert(h, new_id);
            self.by_item.insert(new_id, h);
        }
    }

    /// Deep validation: the heap's own invariants plus the handle maps
    /// mirroring each other and naming only live items.
    fn check_invariants(&self) -> Result<(), String> {
        self.heap.validate()?;
        if self.by_handle.len() != self.by_item.len() {
            return Err("indexed-pq: handle maps disagree on size".into());
        }
        for (h, id) in &self.by_handle {
            if self.by_item.get(id) != Some(h) {
                return Err(format!("indexed-pq: handle {} not mirrored", h.raw()));
            }
            if self.heap.key_of(*id).is_none() {
                return Err(format!("indexed-pq: handle {} names a dead item", h.raw()));
            }
        }
        Ok(())
    }
}

impl DecreaseKeyPq<i64> for IndexedBinomialPq {
    fn insert_handle(&mut self, key: i64) -> PqHandle {
        let id = self.heap.insert(key);
        let h = mint();
        self.by_handle.insert(h, id);
        self.by_item.insert(id, h);
        h
    }

    fn decrease_key(&mut self, h: PqHandle, new_key: i64) -> bool {
        let Some(&id) = self.by_handle.get(&h) else {
            return false;
        };
        // Extraction retires tracked items, so a dead item is a stale handle.
        let Some(current) = self.heap.key_of(id) else {
            return false;
        };
        if new_key > current {
            return false;
        }
        self.heap.decrease_key(id, new_key);
        true
    }

    fn key_of_handle(&self, h: PqHandle) -> Option<i64> {
        self.by_handle.get(&h).and_then(|&id| self.heap.key_of(id))
    }
}

/// Handle bookkeeping for the lazy heap, which has no stable node identity.
///
/// Arrange-Heap's bubble-up swaps node contents, so a tracked handle names
/// "one element currently holding key `k`", not a physical node:
/// `decrease_key` moves *an* element with the old key, and `extract_min`
/// retires the oldest handle holding the popped key. Under multiset
/// semantics (what the differential fuzzer checks) this is
/// indistinguishable from physical identity.
///
/// Invariant: the multiset of tracked keys is a sub-multiset of the queue's
/// keys — every map entry corresponds to a distinct live element. Preserved
/// by retiring (at most) one handle per extraction, oldest first.
#[derive(Debug, Default)]
struct TrackedKeys {
    /// handle → current key.
    by_handle: HashMap<PqHandle, i64>,
    /// key → handles holding it, oldest (smallest id) first.
    by_key: BTreeMap<i64, Vec<PqHandle>>,
}

impl TrackedKeys {
    /// The key currently recorded for `h`.
    fn key_of(&self, h: PqHandle) -> Option<i64> {
        self.by_handle.get(&h).copied()
    }

    /// Start tracking a fresh element holding `k`.
    fn track(&mut self, k: i64) -> PqHandle {
        let h = mint();
        // Minted ids are globally increasing, so a plain push keeps the
        // bucket oldest-first.
        self.by_key.entry(k).or_default().push(h);
        self.by_handle.insert(h, k);
        h
    }

    /// Record the popped key: the oldest handle holding `k` (if any) goes
    /// stale and is returned, keeping tracked keys a sub-multiset of the
    /// queue.
    fn on_extract(&mut self, k: i64) -> Option<PqHandle> {
        let handles = self.by_key.get_mut(&k)?;
        let h = handles.remove(0);
        if handles.is_empty() {
            self.by_key.remove(&k);
        }
        self.by_handle.remove(&h);
        Some(h)
    }

    /// Move `h` from its current key `old` to `new`.
    fn rekey(&mut self, h: PqHandle, old: i64, new: i64) {
        if let Some(hs) = self.by_key.get_mut(&old) {
            hs.retain(|x| *x != h);
            if hs.is_empty() {
                self.by_key.remove(&old);
            }
        }
        let slot = self.by_key.entry(new).or_default();
        let pos = slot.binary_search(&h).unwrap_or_else(|p| p);
        slot.insert(pos, h);
        self.by_handle.insert(h, new);
    }

    /// Absorb another queue's tracking (meld). Handle ids are globally
    /// unique, so this is a plain union.
    fn merge(&mut self, other: TrackedKeys) {
        self.by_handle.extend(other.by_handle);
        for (k, hs) in other.by_key {
            let slot = self.by_key.entry(k).or_default();
            slot.extend(hs);
            slot.sort_unstable();
        }
    }

    /// Internal-consistency check: the two maps mirror each other and
    /// every bucket is non-empty and oldest-first.
    fn check(&self) -> Result<(), String> {
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
                    Some(_) => return Err(format!("tracked: handle {} key mismatch", h.raw())),
                    None => return Err(format!("tracked: handle {} missing from map", h.raw())),
                }
            }
        }
        if mirrored != self.by_handle.len() {
            return Err("tracked: by_handle has entries absent from by_key".into());
        }
        Ok(())
    }
}

/// The paper's §4 lazy heap ([`LazyBinomialHeap`]) behind the
/// [`DecreaseKeyPq`] surface: `Decrease-Key` is realised as the paper's
/// `Change-Key` (delete via a persistent empty node + reinsert).
///
/// Eager deletes sift keys along ancestor paths, so a `NodeId` does not
/// permanently name an element; the wrapper tracks handles by key multiset
/// and keeps a per-handle `NodeId` *hint* that short-circuits the locate
/// step whenever it still holds the expected key.
#[derive(Debug)]
pub struct LazyDecreasePq {
    heap: LazyBinomialHeap,
    tracked: TrackedKeys,
    /// handle → last known node (fast path; verified before use).
    hints: HashMap<PqHandle, NodeId>,
}

impl LazyDecreasePq {
    /// An empty queue assuming `p` processors for the inner heap's planner.
    pub fn new(p: usize) -> Self {
        LazyDecreasePq {
            heap: LazyBinomialHeap::new(p),
            tracked: TrackedKeys::default(),
            hints: HashMap::new(),
        }
    }

    /// Borrow the wrapped lazy heap (cost log, inspection).
    pub fn heap(&self) -> &LazyBinomialHeap {
        &self.heap
    }
}

/// Locate a live node of `heap` holding `key`: the `hint` if still
/// accurate, else a full walk (empty nodes are skipped; their children are
/// real and descended into).
fn find_live_with_key(heap: &LazyBinomialHeap, hint: Option<NodeId>, key: i64) -> Option<NodeId> {
    if let Some(hint) = hint {
        if heap.key_of(hint) == Some(key) {
            return Some(hint);
        }
    }
    let mut stack: Vec<NodeId> = heap.roots_snapshot().into_iter().flatten().collect();
    while let Some(id) = stack.pop() {
        if heap.key_of(id) == Some(key) {
            return Some(id);
        }
        stack.extend(heap.children_of(id));
    }
    None
}

impl MeldablePq<i64> for LazyDecreasePq {
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn insert(&mut self, key: i64) {
        let _ = self.heap.insert(key);
    }

    fn peek_min(&mut self) -> Option<i64> {
        MeldablePq::peek_min(&mut self.heap)
    }

    fn extract_min(&mut self) -> Option<i64> {
        let key = MeldablePq::extract_min(&mut self.heap)?;
        if let Some(h) = self.tracked.on_extract(key) {
            self.hints.remove(&h);
        }
        Some(key)
    }

    fn meld(&mut self, other: Self) {
        LazyBinomialHeap::meld(&mut self.heap, other.heap);
        self.tracked.merge(other.tracked);
        // The absorb remapped the other arena's ids; its hints are dead
        // weight, and the locate fallback recovers without them.
    }

    fn meld_from_keys(&mut self, keys: &[i64]) {
        MeldablePq::meld_from_keys(&mut self.heap, keys);
    }

    /// Deep validation: the lazy heap's own invariants plus the handle
    /// bookkeeping (mirrored maps; tracked keys a sub-multiset of the live
    /// key multiset).
    fn check_invariants(&self) -> Result<(), String> {
        check_lazy(&self.heap)?;
        self.tracked.check()?;
        // Sub-multiset: count live keys once, then subtract tracked ones.
        let mut live: HashMap<i64, usize> = HashMap::new();
        for k in self.heap.live_keys() {
            *live.entry(k).or_default() += 1;
        }
        for (k, hs) in &self.tracked.by_key {
            let tracked = hs.len();
            let avail = live.get(k).copied().unwrap_or(0);
            if tracked > avail {
                return Err(format!(
                    "lazy-pq: {tracked} handles track key {k} but only {avail} live copies exist"
                ));
            }
        }
        Ok(())
    }
}

impl DecreaseKeyPq<i64> for LazyDecreasePq {
    fn insert_handle(&mut self, key: i64) -> PqHandle {
        let id = self.heap.insert(key);
        let h = self.tracked.track(key);
        self.hints.insert(h, id);
        h
    }

    fn decrease_key(&mut self, h: PqHandle, new_key: i64) -> bool {
        let Some(old) = self.tracked.key_of(h) else {
            return false;
        };
        if new_key > old {
            return false;
        }
        if new_key == old {
            return true;
        }
        // Tracked keys are a sub-multiset of live keys, so a miss means the
        // bookkeeping lost the element: treat the handle as stale.
        let Some(node) = find_live_with_key(&self.heap, self.hints.get(&h).copied(), old) else {
            return false;
        };
        self.hints.insert(h, self.heap.change_key(node, new_key));
        self.tracked.rekey(h, old, new_key);
        true
    }

    fn key_of_handle(&self, h: PqHandle) -> Option<i64> {
        self.tracked.key_of(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One generic driver; every engine must produce the same transcript.
    fn transcript<Q: DecreaseKeyPq<i64>>(mut q: Q) -> Vec<i64> {
        let mut out = Vec::new();
        q.insert(50);
        let a = q.insert_handle(40);
        let b = q.insert_handle(30);
        q.insert(20);
        assert_eq!(q.key_of_handle(a), Some(40));
        assert!(q.decrease_key(a, 10)); // a: 40 → 10
        assert!(!q.decrease_key(b, 35), "raise must refuse");
        assert!(q.decrease_key(b, 30), "no-op decrease is fine");
        out.push(q.extract_min().expect("nonempty")); // 10 (= a)
        assert_eq!(q.key_of_handle(a), None, "a went stale");
        assert!(!q.decrease_key(a, 0), "stale handle refuses");
        assert!(q.decrease_key(b, 5)); // b: 30 → 5
        out.extend(q.drain_sorted()); // 5, 20, 50
        assert_eq!(q.key_of_handle(b), None);
        out.push(q.len() as i64);
        out
    }

    fn expected() -> Vec<i64> {
        vec![10, 5, 20, 50, 0]
    }

    #[test]
    fn seqheaps_engines_agree() {
        assert_eq!(transcript(seqheaps::PairingHeap::new()), expected());
    }

    #[test]
    fn indexed_adapter_agrees() {
        let q = IndexedBinomialPq::new();
        assert_eq!(transcript(q), expected());
    }

    #[test]
    fn lazy_adapter_agrees() {
        assert_eq!(transcript(LazyDecreasePq::new(2)), expected());
        assert_eq!(transcript(LazyDecreasePq::new(4)), expected());
    }

    #[test]
    fn indexed_handles_survive_meld_translation() {
        let mut a = IndexedBinomialPq::new();
        let ha = a.insert_handle(100);
        let mut b = IndexedBinomialPq::new();
        let hb = b.insert_handle(200);
        b.insert(150);
        a.meld(b);
        a.check_invariants().expect("valid after meld");
        assert_eq!(a.key_of_handle(ha), Some(100));
        assert_eq!(a.key_of_handle(hb), Some(200));
        assert!(a.decrease_key(hb, 1));
        assert_eq!(a.extract_min(), Some(1));
        assert_eq!(a.key_of_handle(hb), None);
        a.check_invariants().expect("valid after extract");
    }

    #[test]
    fn lazy_adapter_survives_key_sifting_deletes() {
        // Eager deletes swap keys along ancestor paths; the multiset
        // tracking (plus hint fallback) must keep handles answering.
        let mut q = LazyDecreasePq::new(2);
        let hs: Vec<PqHandle> = (0..32).map(|k| q.insert_handle(k * 10)).collect();
        for (i, h) in hs.iter().enumerate().skip(16) {
            assert!(q.decrease_key(*h, (i as i64 * 10) - 155));
            q.check_invariants().expect("valid after decrease");
        }
        let mut drained = q.drain_sorted();
        drained.sort_unstable();
        assert_eq!(drained.len(), 32);
        q.check_invariants().expect("valid when empty");
    }

    #[test]
    fn object_safe_fleet() {
        let mut fleet: Vec<Box<dyn DecreaseKeyPq<i64>>> = vec![
            Box::new(seqheaps::PairingHeap::new()),
            Box::new(IndexedBinomialPq::new()),
            Box::new(LazyDecreasePq::new(2)),
        ];
        for q in &mut fleet {
            let h = q.insert_handle(9);
            q.insert(4);
            assert!(q.decrease_key(h, 1));
            assert_eq!(q.extract_min(), Some(1));
            assert_eq!(q.key_of_handle(h), None);
        }
    }
}
