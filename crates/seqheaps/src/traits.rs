//! The one queue trait every engine in the workspace implements.
//!
//! Definition 1 of the paper names five operations (`Make-Queue`, `Insert`,
//! `Min`, `Extract-Min`, `Union`) and §4 adds `Change-Key`. [`MeldablePq`]
//! is operations 2–5 plus the bulk operations the batched engines
//! accelerate. `Make-Queue` stays with each type (`Default` plus an
//! inherent `new`), because the parallel engines need a processor count to
//! construct. `Change-Key` needs node identity, so it stays with the one
//! engine that has it: `meldpq`'s lazy heap, on its `NodeId`s.
//!
//! Every baseline in this crate implements [`MeldablePq`] directly. The
//! parallel and lazy engines in `meldpq` implement it next to their own
//! types, so generic harnesses (the differential fuzzer, the wall-clock
//! suite's shootout) dispatch over any backend through one surface. The
//! trait is object safe.

/// A meldable priority queue: the paper's Definition 1 surface plus the
/// bulk operations (`Multi-Insert` / `Multi-Extract-Min`) that the batched
/// engines accelerate. Object safe — harnesses hold `Box<dyn MeldablePq<K>>`.
///
/// `peek_min` takes `&mut self` because the lazy engine tidies (and meters)
/// on reads; pure engines simply ignore the mutability.
pub trait MeldablePq<K: Ord + Copy> {
    /// Number of keys stored.
    fn len(&self) -> usize;

    /// Whether the queue holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Insert(Q, x)`: add a key.
    fn insert(&mut self, key: K);

    /// `Min(Q)`: the minimum key without removing it.
    fn peek_min(&mut self) -> Option<K>;

    /// `Extract-Min(Q)`: remove and return the minimum key.
    fn extract_min(&mut self) -> Option<K>;

    /// `Union(Q1, Q2)`: absorb all keys of `other`, destroying it (by move),
    /// as the paper's Union destroys its arguments.
    fn meld(&mut self, other: Self)
    where
        Self: Sized;

    /// `Multi-Insert`: add a batch of keys. Default: one `insert` per key;
    /// bulk engines override with a parallel build + single meld.
    fn multi_insert(&mut self, keys: &[K]) {
        for &k in keys {
            self.insert(k);
        }
    }

    /// Build a queue from `keys` and meld it in — the shape of the
    /// differential fuzzer's `Meld` op. Default: [`Self::multi_insert`].
    fn meld_from_keys(&mut self, keys: &[K]) {
        self.multi_insert(keys);
    }

    /// `Multi-Extract-Min`: remove and return the `k` smallest keys in
    /// ascending order. Default: `k` sequential extracts; bulk engines
    /// override with the root-frontier peel.
    fn multi_extract_min(&mut self, k: usize) -> Vec<K> {
        let mut out = Vec::with_capacity(k.min(self.len()));
        for _ in 0..k {
            match self.extract_min() {
                Some(x) => out.push(x),
                None => break,
            }
        }
        out
    }

    /// Drain everything in ascending order.
    fn drain_sorted(&mut self) -> Vec<K> {
        let n = self.len();
        self.multi_extract_min(n)
    }

    /// Verify every structural invariant this queue maintains. Read-only;
    /// returns a human-readable description of the first violation found.
    fn check_invariants(&self) -> Result<(), String>;
}
