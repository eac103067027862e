//! `MeldablePq` for the paper's engines.
//!
//! The one queue trait, [`MeldablePq`], lives in `seqheaps` (the lowest
//! crate, whose baselines implement it directly) and is re-exported here.
//! This module implements it for the engines of this crate, each of which
//! exposes Definition 1 with a different accent — `ParBinomialHeap` plans
//! its unions on the host, `LazyBinomialHeap` returns `NodeId`s,
//! [`PramMeasured`] meters every op on the PRAM simulator — so generic
//! harnesses (the differential fuzzer, the shootout) dispatch over *any*
//! backend with zero per-engine duplication.
//!
//! Heaps that share one slab (`HeapPool` handles) are not queues on their
//! own; a one-heap pool is `ParBinomialHeap`.
//!
//! ```
//! use meldpq::{MeldablePq, ParBinomialHeap};
//!
//! fn drain_two<Q: MeldablePq<i64>>(mut a: Q, b: Q) -> Vec<i64> {
//!     a.meld(b);
//!     a.drain_sorted()
//! }
//!
//! let a = ParBinomialHeap::from_keys([3, 1]);
//! let b = ParBinomialHeap::from_keys([2]);
//! assert_eq!(drain_two(a, b), vec![1, 2, 3]);
//!
//! let mut pa = ParBinomialHeap::new();
//! pa.multi_insert(&[3, 1]).unwrap();
//! let mut pb = ParBinomialHeap::new();
//! pb.insert(2);
//! assert_eq!(drain_two(pa, pb), vec![1, 2, 3]);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::check::{check_heap, check_lazy};
use crate::heap::ParBinomialHeap;
use crate::lazy::LazyBinomialHeap;
pub use seqheaps::MeldablePq;

// NOTE: inherent methods shadow trait methods of the same name on concrete
// receivers, so every body below calls the inherent op fully qualified.

impl<K: Ord + Copy> MeldablePq<K> for ParBinomialHeap<K> {
    fn len(&self) -> usize {
        ParBinomialHeap::len(self)
    }

    fn insert(&mut self, key: K) {
        ParBinomialHeap::insert(self, key);
    }

    fn peek_min(&mut self) -> Option<K> {
        ParBinomialHeap::min(self)
    }

    fn extract_min(&mut self) -> Option<K> {
        ParBinomialHeap::extract_min(self)
    }

    fn meld(&mut self, other: Self) {
        ParBinomialHeap::meld(self, other);
    }

    // `multi_insert` keeps the trait's default, one `insert` per key: the
    // trees of the inherent `ParBinomialHeap::multi_insert`, whose capacity
    // error the trait has no channel for.

    fn multi_extract_min(&mut self, k: usize) -> Vec<K> {
        ParBinomialHeap::multi_extract_min(self, k)
    }

    fn check_invariants(&self) -> Result<(), String> {
        check_heap(self)
    }
}

impl MeldablePq<i64> for LazyBinomialHeap {
    fn len(&self) -> usize {
        LazyBinomialHeap::len(self)
    }

    fn insert(&mut self, key: i64) {
        let _ = LazyBinomialHeap::insert(self, key);
    }

    fn peek_min(&mut self) -> Option<i64> {
        LazyBinomialHeap::min(self)
    }

    fn extract_min(&mut self) -> Option<i64> {
        LazyBinomialHeap::extract_min(self)
    }

    fn meld(&mut self, other: Self) {
        LazyBinomialHeap::meld(self, other);
    }

    fn meld_from_keys(&mut self, keys: &[i64]) {
        let batch = LazyBinomialHeap::from_keys_fast(self.processors(), keys.iter().copied());
        LazyBinomialHeap::meld(self, batch);
    }

    fn check_invariants(&self) -> Result<(), String> {
        check_lazy(self)
    }
}

/// The PRAM-measured engine behind the [`MeldablePq`] surface: every op is
/// planned on the `p`-processor EREW simulator and its Theorem-1 cost lands
/// on the heap's ledger ([`ParBinomialHeap::pram_ledger`]).
#[derive(Debug, Clone)]
pub struct PramMeasured {
    heap: ParBinomialHeap<i64>,
    p: usize,
}

impl PramMeasured {
    /// An empty measured queue assuming `p` processors.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1);
        PramMeasured {
            heap: ParBinomialHeap::new(),
            p,
        }
    }

    /// Processors assumed for cost accounting.
    pub fn processors(&self) -> usize {
        self.p
    }

    /// The cumulative Theorem-1 cost so far.
    pub fn cost(&self) -> pram::Cost {
        *self.heap.pram_ledger()
    }

    /// Borrow the underlying heap (validation, inspection).
    pub fn heap(&self) -> &ParBinomialHeap<i64> {
        &self.heap
    }
}

impl MeldablePq<i64> for PramMeasured {
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn insert(&mut self, key: i64) {
        self.heap.insert_pram(key, self.p);
    }

    fn peek_min(&mut self) -> Option<i64> {
        // Reads are free in the ledger model (the fuzzer compares only
        // mutation costs); the unmeasured root scan keeps it that way.
        self.heap.min()
    }

    fn extract_min(&mut self) -> Option<i64> {
        self.heap.extract_min_pram(self.p)
    }

    fn meld(&mut self, other: Self) {
        self.heap.meld_pram(other.heap, self.p);
    }

    fn meld_from_keys(&mut self, keys: &[i64]) {
        let batch = ParBinomialHeap::from_keys(keys.iter().copied());
        self.heap.meld_pram(batch, self.p);
    }

    fn multi_insert(&mut self, keys: &[i64]) {
        self.heap.multi_insert_pram(keys, self.p);
    }

    fn check_invariants(&self) -> Result<(), String> {
        check_heap(&self.heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One generic driver exercising every trait method; each engine must
    /// produce the identical transcript.
    fn transcript<Q: MeldablePq<i64>>(mut q: Q, fresh: impl Fn(&[i64]) -> Q) -> Vec<i64> {
        let mut out = Vec::new();
        q.insert(5);
        q.insert(1);
        q.multi_insert(&[9, 3, 7]);
        out.push(q.peek_min().unwrap());
        out.push(q.extract_min().unwrap());
        q.meld(fresh(&[2, 8]));
        q.meld_from_keys(&[4, 6]);
        out.extend(q.multi_extract_min(3));
        out.push(q.len() as i64);
        out.extend(q.drain_sorted());
        assert!(q.is_empty());
        q.check_invariants().expect("valid after drain");
        out
    }

    fn expected() -> Vec<i64> {
        // peek 1, extract 1, multi-extract [2,3,4], len 5, drain [5..=9].
        vec![1, 1, 2, 3, 4, 5, 5, 6, 7, 8, 9]
    }

    #[test]
    fn par_heap_both_engines() {
        // The melded operands come from both host builders: `from_keys` and
        // a `multi_insert` into an empty heap.
        let ripple = |ks: &[i64]| ParBinomialHeap::from_keys(ks.iter().copied());
        let batch = |ks: &[i64]| {
            let mut h = ParBinomialHeap::new();
            h.multi_insert(ks).unwrap();
            h
        };
        assert_eq!(transcript(ParBinomialHeap::new(), ripple), expected());
        assert_eq!(transcript(ParBinomialHeap::new(), batch), expected());
    }

    #[test]
    fn lazy_heap() {
        let got = transcript(LazyBinomialHeap::new(3), |ks| {
            LazyBinomialHeap::from_keys_fast(3, ks.iter().copied())
        });
        assert_eq!(got, expected());
    }

    #[test]
    fn pram_measured_accumulates_cost() {
        let mut q = PramMeasured::new(3);
        let got = transcript(
            PramMeasured {
                heap: ParBinomialHeap::new(),
                p: 3,
            },
            |ks| {
                let mut f = PramMeasured::new(3);
                f.multi_insert(ks);
                f
            },
        );
        assert_eq!(got, expected());
        q.multi_insert(&[4, 2, 7]);
        q.extract_min();
        let c = q.cost();
        assert!(c.time > 0 && c.work >= c.time);
    }

    #[test]
    fn seqheaps_backends() {
        fn built<Q: MeldablePq<i64> + Default>(ks: &[i64]) -> Q {
            let mut q = Q::default();
            q.multi_insert(ks);
            q
        }
        assert_eq!(transcript(seqheaps::BinomialHeap::new(), built), expected());
        assert_eq!(transcript(seqheaps::LeftistHeap::new(), built), expected());
        assert_eq!(
            transcript(seqheaps::BinaryHeapAdapter::new(), built),
            expected()
        );
    }

    #[test]
    fn object_safe() {
        let mut boxed: Vec<Box<dyn MeldablePq<i64>>> = vec![
            Box::new(ParBinomialHeap::new()),
            Box::new(LazyBinomialHeap::new(2)),
            Box::new(seqheaps::LeftistHeap::new()),
        ];
        for q in &mut boxed {
            q.multi_insert(&[3, 1, 2]);
            assert_eq!(q.extract_min(), Some(1));
            assert_eq!(q.len(), 2);
        }
    }
}
