//! `MeldablePq` for the paper's engines.
//!
//! The one queue trait, [`MeldablePq`], lives in `seqheaps` (the lowest
//! crate, whose baselines implement it directly) and is re-exported here.
//! This module implements it for the engines of this crate, each of which
//! exposes Definition 1 with a different accent — `ParBinomialHeap`
//! threads an [`Engine`] through every call, `LazyBinomialHeap` returns
//! `NodeId`s, pooled heaps split the state between a [`HeapPool`] and a
//! [`PooledHeap`] handle — so generic harnesses (the differential fuzzer,
//! the service layer's boxed tenants) dispatch over *any* backend with zero
//! per-engine duplication.
//!
//! Engine selection moves into the value: `ParBinomialHeap::with_engine` /
//! `HeapPool::with_engine` pick the planner once at construction, and the
//! trait methods use it. The explicit-engine inherent methods remain for
//! call sites that mix planners.
//!
//! ```
//! use meldpq::{MeldablePq, ParBinomialHeap, PoolGuard};
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
//! let mut pa = PoolGuard::new();
//! pa.multi_insert(&[3, 1]);
//! let mut pb = PoolGuard::new();
//! pb.insert(2);
//! assert_eq!(drain_two(pa, pb), vec![1, 2, 3]);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::check::{check_heap, check_lazy};
use crate::heap::{Engine, ParBinomialHeap};
use crate::lazy::LazyBinomialHeap;
use crate::pool::{HeapPool, PooledHeap};
pub use seqheaps::MeldablePq;

// NOTE: inherent methods shadow trait methods of the same name on concrete
// receivers, so every body below calls the inherent op fully qualified.

impl<K: Ord + Copy + Send + Sync> MeldablePq<K> for ParBinomialHeap<K> {
    fn len(&self) -> usize {
        ParBinomialHeap::len(self)
    }

    fn insert(&mut self, key: K) {
        // A singleton Union through the configured planner, so a
        // `with_engine(Engine::Rayon)` queue exercises the rayon planner on
        // every op — not just on melds.
        let engine = self.engine();
        ParBinomialHeap::meld(self, ParBinomialHeap::from_keys([key]), engine);
    }

    fn peek_min(&mut self) -> Option<K> {
        ParBinomialHeap::min(self)
    }

    fn extract_min(&mut self) -> Option<K> {
        let engine = self.engine();
        ParBinomialHeap::extract_min(self, engine)
    }

    fn meld(&mut self, other: Self) {
        let engine = self.engine();
        ParBinomialHeap::meld(self, other, engine);
    }

    fn multi_insert(&mut self, keys: &[K]) {
        let engine = self.engine();
        ParBinomialHeap::multi_insert_with(self, keys, engine);
    }

    fn multi_extract_min(&mut self, k: usize) -> Vec<K> {
        let engine = self.engine();
        ParBinomialHeap::multi_extract_min(self, k, engine)
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

/// An owning pool-plus-handle pair: the `O(log n)` zero-copy pooled engine
/// behind the engine-less [`MeldablePq`] surface.
///
/// [`HeapPool`] deliberately splits state (one slab, many handles); this
/// guard re-joins a pool with its *single* heap so the pair can be passed
/// around as one value. Melding two guards is the cross-pool fallback
/// (counted moves); `multi_insert` stays zero-copy because the batch builds
/// in this guard's own slab.
#[derive(Debug)]
pub struct PoolGuard<K = i64> {
    pool: HeapPool<K>,
    heap: PooledHeap,
}

impl<K: Ord + Copy + Send + Sync> Default for PoolGuard<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy + Send + Sync> PoolGuard<K> {
    /// An empty queue in a fresh pool (sequential planning).
    pub fn new() -> Self {
        let pool = HeapPool::new();
        let heap = pool.new_heap();
        PoolGuard { pool, heap }
    }

    /// Builder: pick the pool's default planning engine.
    pub fn with_engine(engine: Engine) -> Self {
        let pool = HeapPool::new().with_engine(engine);
        let heap = pool.new_heap();
        PoolGuard { pool, heap }
    }

    /// Build from keys with the pool's parallel slab builder.
    pub fn from_keys(keys: &[K]) -> Self {
        let mut pool = HeapPool::with_capacity(keys.len());
        let heap = pool.from_keys_parallel(keys);
        PoolGuard { pool, heap }
    }

    /// The underlying pool (stats, validation).
    pub fn pool(&self) -> &HeapPool<K> {
        &self.pool
    }

    /// The underlying handle.
    pub fn heap(&self) -> &PooledHeap {
        &self.heap
    }

    /// Split back into pool + handle.
    pub fn into_parts(self) -> (HeapPool<K>, PooledHeap) {
        (self.pool, self.heap)
    }
}

impl<K: Ord + Copy + Send + Sync> MeldablePq<K> for PoolGuard<K> {
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn insert(&mut self, key: K) {
        self.pool.insert(&mut self.heap, key);
    }

    fn peek_min(&mut self) -> Option<K> {
        self.pool.min(&self.heap)
    }

    fn extract_min(&mut self) -> Option<K> {
        self.pool.extract_min(&mut self.heap)
    }

    fn meld(&mut self, mut other: Self) {
        self.pool
            .meld_cross_pool(&mut self.heap, &mut other.pool, other.heap);
    }

    fn multi_insert(&mut self, keys: &[K]) {
        let batch = self.pool.from_keys_parallel(keys);
        self.pool.meld(&mut self.heap, batch);
    }

    fn multi_extract_min(&mut self, k: usize) -> Vec<K> {
        self.pool.multi_extract_min(&mut self.heap, k)
    }

    /// Deep structural validation of the guarded heap.
    fn check_invariants(&self) -> Result<(), String> {
        self.pool.validate_heap(&self.heap)
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

    /// The cumulative Theorem-1 cost so far (implements `obs::Recorder`).
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
        for e in [Engine::Sequential, Engine::Rayon] {
            let got = transcript(ParBinomialHeap::new().with_engine(e), |ks| {
                ParBinomialHeap::from_keys(ks.iter().copied()).with_engine(e)
            });
            assert_eq!(got, expected(), "{e:?}");
        }
    }

    #[test]
    fn lazy_heap() {
        let got = transcript(LazyBinomialHeap::new(3), |ks| {
            LazyBinomialHeap::from_keys_fast(3, ks.iter().copied())
        });
        assert_eq!(got, expected());
    }

    #[test]
    fn pool_guard() {
        let got = transcript(PoolGuard::new(), PoolGuard::from_keys);
        assert_eq!(got, expected());
        let got = transcript(PoolGuard::with_engine(Engine::Rayon), PoolGuard::from_keys);
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
            transcript(seqheaps::DaryHeap::<i64, 4>::new(), built),
            expected()
        );
    }

    #[test]
    fn object_safe() {
        let mut boxed: Vec<Box<dyn MeldablePq<i64>>> = vec![
            Box::new(ParBinomialHeap::new()),
            Box::new(LazyBinomialHeap::new(2)),
            Box::new(PoolGuard::new()),
            Box::new(seqheaps::SkewHeap::new()),
        ];
        for q in &mut boxed {
            q.multi_insert(&[3, 1, 2]);
            assert_eq!(q.extract_min(), Some(1));
            assert_eq!(q.len(), 2);
        }
    }
}
