//! Seeded differential fuzzer: every engine in the workspace runs the same
//! random operation program in lockstep and must agree at every step.
//!
//! Two fleets:
//!
//! * [`all_engines_agree_on_mixed_programs`] drives every engine through the
//!   unified [`MeldablePq`] trait — `ParBinomialHeap`, the measured EREW
//!   PRAM wrapper (`PramMeasured`), `LazyBinomialHeap`, `dmpq::DistributedPq` (behind a fault-free local
//!   adapter) and a seqheaps baseline — against a sorted-vector oracle over
//!   mixed insert / meld / extract-min / min programs. The fleet is a
//!   `Vec<Box<dyn MeldablePq<i64>>>`: one generic dispatch loop, zero
//!   per-engine match arms. Keys are drawn from a narrow band (`-64..64`)
//!   so duplicate keys are common and tie-breaking divergence cannot hide.
//! * [`lazy_delete_programs_match_multiset_oracle`] adds `Delete` and
//!   `Change-Key` (which only the lazy structure supports) and checks the
//!   lazy heap against a multiset oracle. Handles may be invalidated by
//!   `Arrange-Heap` rebuilds, so victims are chosen among handles that
//!   still name live nodes — any live arena node is a real element, which
//!   keeps the multiset comparison sound under handle reuse.
//!
//! Every eighth step each structure re-verifies its invariants through
//! `MeldablePq::check_invariants`; at program end all engines drain and must
//! produce the oracle's sorted key sequence. Failing programs shrink to
//! minimal reproducers (the harness removes and simplifies ops greedily)
//! and report the seed, so failures replay deterministically.

use dmpq::DistributedPq;
use meldpq::check::check_pool;
use meldpq::lazy::LazyBinomialHeap;
use meldpq::{
    DecreaseKeyPq, HeapPool, IndexedBinomialPq, LazyDecreasePq, MeldablePq, NodeId,
    ParBinomialHeap, PqHandle, PramMeasured,
};
use proptest::prelude::*;

/// One step of a differential program.
#[derive(Debug, Clone)]
enum Op {
    /// Insert one key everywhere.
    Insert(i64),
    /// Extract the minimum everywhere; all results must agree.
    ExtractMin,
    /// Read the minimum everywhere; all results must agree.
    Min,
    /// Meld in a fresh heap built from these keys.
    Meld(Vec<i64>),
    /// (Lazy fleet only) delete the `i % candidates`-th live handle.
    Delete(usize),
    /// (Lazy fleet only) change that handle's key to the given value.
    ChangeKey(usize, i64),
}

fn key_strategy() -> impl Strategy<Value = i64> {
    // Narrow band: collisions every few ops, so equal-key tie-breaking is
    // exercised constantly.
    -64i64..64
}

fn mixed_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => key_strategy().prop_map(Op::Insert),
        3 => Just(Op::ExtractMin),
        1 => Just(Op::Min),
        1 => proptest::collection::vec(key_strategy(), 0..10).prop_map(Op::Meld),
    ]
}

fn lazy_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => key_strategy().prop_map(Op::Insert),
        2 => Just(Op::ExtractMin),
        1 => Just(Op::Min),
        2 => any::<usize>().prop_map(Op::Delete),
        2 => (any::<usize>(), key_strategy()).prop_map(|(i, k)| Op::ChangeKey(i, k)),
        1 => proptest::collection::vec(key_strategy(), 0..8).prop_map(Op::Meld),
    ]
}

/// One step of a pool-aware program (the zero-copy representation fleet).
#[derive(Debug, Clone)]
enum PoolOp {
    /// Insert one key everywhere.
    Insert(i64),
    /// Extract the minimum everywhere; results must match the oracles.
    ExtractMin,
    /// Read the minimum everywhere.
    Min,
    /// Same-pool meld — must be zero-copy (asserted on the slab counters).
    Meld(Vec<i64>),
    /// Ripple a batch into the pooled heap (pool side only), reusing the
    /// slots earlier extracts freed.
    MultiInsert(Vec<i64>),
    /// Cross-pool meld — the counted fallback path (pool side only).
    CrossMeld(Vec<i64>),
    /// Deep-copy the pooled heap, drain the copy, compare with the oracle;
    /// the original must be untouched.
    CloneCheck,
    /// Lazy-side delete of the `i % candidates`-th live handle — exercised
    /// *between* the zero-copy melds above.
    Delete(usize),
}

fn pool_op_strategy() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        5 => key_strategy().prop_map(PoolOp::Insert),
        3 => Just(PoolOp::ExtractMin),
        1 => Just(PoolOp::Min),
        2 => proptest::collection::vec(key_strategy(), 0..10).prop_map(PoolOp::Meld),
        2 => proptest::collection::vec(key_strategy(), 0..10).prop_map(PoolOp::MultiInsert),
        1 => proptest::collection::vec(key_strategy(), 1..8).prop_map(PoolOp::CrossMeld),
        1 => Just(PoolOp::CloneCheck),
        2 => any::<usize>().prop_map(PoolOp::Delete),
    ]
}

/// One step of a decrease-key program (the [`DecreaseKeyPq`] fleet).
#[derive(Debug, Clone)]
enum DecOp {
    /// Insert a tracked key everywhere (each engine keeps its own handle).
    Insert(i64),
    /// Extract the minimum; each engine must match its own oracle's min.
    ExtractMin,
    /// Read the minimum.
    Min,
    /// Decrease the `slot % live`-th tracked handle to `to` (may be a
    /// no-op when `to` exceeds the current key — that must return false).
    Decrease { slot: usize, to: i64 },
    /// Decrease slot `a`'s key to exactly slot `b`'s current key — the
    /// decrease-to-duplicate tie-break case: afterwards two live elements
    /// share a key and every later extract exercises equal-key breaking.
    DecreaseToDuplicate { a: usize, b: usize },
    /// Meld in untracked keys (no handles — the adapters must keep their
    /// handle bookkeeping a sub-multiset of the physical keys).
    Meld(Vec<i64>),
}

fn dec_op_strategy() -> impl Strategy<Value = DecOp> {
    prop_oneof![
        5 => key_strategy().prop_map(DecOp::Insert),
        3 => Just(DecOp::ExtractMin),
        1 => Just(DecOp::Min),
        3 => (any::<usize>(), -128i64..64).prop_map(|(slot, to)| DecOp::Decrease { slot, to }),
        2 => (any::<usize>(), any::<usize>())
            .prop_map(|(a, b)| DecOp::DecreaseToDuplicate { a, b }),
        1 => proptest::collection::vec(key_strategy(), 0..8).prop_map(DecOp::Meld),
    ]
}

/// One decrease-key engine under test: name, queue, its private oracle,
/// and its handle slots (parallel across engines).
type DecLane = (
    &'static str,
    Box<dyn DecreaseKeyPq<i64>>,
    Oracle,
    Vec<PqHandle>,
);

/// Every engine with native decrease-key, one trait object each.
fn decrease_fleet(p: usize) -> Vec<(&'static str, Box<dyn DecreaseKeyPq<i64>>)> {
    vec![
        ("binomial", Box::new(seqheaps::BinomialHeap::<i64>::new())),
        ("leftist", Box::new(seqheaps::LeftistHeap::<i64>::new())),
        ("skew", Box::new(seqheaps::SkewHeap::<i64>::new())),
        ("pairing", Box::new(seqheaps::PairingHeap::<i64>::new())),
        (
            "pairing-multipass",
            Box::new(seqheaps::PairingHeap::<i64>::with_strategy(
                seqheaps::MergeStrategy::MultiPass,
            )),
        ),
        ("hollow", Box::new(seqheaps::HollowHeap::<i64>::new())),
        (
            "indexed-dary",
            Box::new(seqheaps::IndexedDaryHeap::<i64, 4>::new()),
        ),
        ("indexed-binomial", Box::new(IndexedBinomialPq::new())),
        ("lazy-decrease", Box::new(LazyDecreasePq::new(p))),
    ]
}

/// Sorted-vector oracle: the trivially correct meldable priority queue.
#[derive(Default)]
struct Oracle {
    keys: Vec<i64>,
}

impl Oracle {
    fn insert(&mut self, k: i64) {
        let at = self.keys.partition_point(|&x| x <= k);
        self.keys.insert(at, k);
    }
    fn extract_min(&mut self) -> Option<i64> {
        if self.keys.is_empty() {
            None
        } else {
            Some(self.keys.remove(0))
        }
    }
    fn min(&self) -> Option<i64> {
        self.keys.first().copied()
    }
    fn remove_one(&mut self, k: i64) -> bool {
        match self.keys.binary_search(&k) {
            Ok(i) => {
                self.keys.remove(i);
                true
            }
            Err(_) => false,
        }
    }
}

/// `DistributedPq` behind the trait. The orphan rule forbids implementing
/// the workspace trait for the dmpq type from this test crate, and the
/// distributed API is fallible (message faults), so this local newtype
/// adapts it: every op runs on a fault-free net and unwraps.
struct FaultFree {
    pq: DistributedPq,
    q: usize,
    b: usize,
}

impl FaultFree {
    fn new(q: usize, b: usize) -> Self {
        FaultFree {
            pq: DistributedPq::new(q, b),
            q,
            b,
        }
    }
}

impl MeldablePq<i64> for FaultFree {
    fn len(&self) -> usize {
        self.pq.len()
    }
    fn insert(&mut self, key: i64) {
        self.pq.insert(key).expect("fault-free net");
    }
    fn peek_min(&mut self) -> Option<i64> {
        self.pq.min()
    }
    fn extract_min(&mut self) -> Option<i64> {
        self.pq.extract_min().expect("fault-free net")
    }
    fn meld(&mut self, other: Self) {
        self.pq.meld(other.pq).expect("fault-free net");
    }
    fn meld_from_keys(&mut self, keys: &[i64]) {
        let mut incoming = DistributedPq::new(self.q, self.b);
        for &k in keys {
            incoming.insert(k).expect("fault-free net");
        }
        self.pq.meld(incoming).expect("fault-free net");
    }
    fn check_invariants(&self) -> Result<(), String> {
        self.pq.validate()
    }
}

/// Every engine in the workspace, one trait object each. Adding an engine
/// to the fuzzer is now one line here — the op loop never changes.
fn fleet(p: usize) -> Vec<(&'static str, Box<dyn MeldablePq<i64>>)> {
    vec![
        ("seq", Box::new(ParBinomialHeap::new())),
        ("pram", Box::new(PramMeasured::new(p))),
        ("lazy", Box::new(LazyBinomialHeap::new(p))),
        ("dist", Box::new(FaultFree::new(2, 4))),
        (
            "seq-binomial",
            Box::new(seqheaps::BinomialHeap::<i64>::new()),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn all_engines_agree_on_mixed_programs(
        ops in proptest::collection::vec(mixed_op_strategy(), 0..40),
        p in 1usize..5,
    ) {
        let mut engines = fleet(p);
        let mut oracle = Oracle::default();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Insert(k) => {
                    oracle.insert(*k);
                    for (_, q) in engines.iter_mut() {
                        q.insert(*k);
                    }
                }
                Op::ExtractMin => {
                    let want = oracle.extract_min();
                    for (name, q) in engines.iter_mut() {
                        prop_assert_eq!(q.extract_min(), want, "{} extract at step {}", name, step);
                    }
                }
                Op::Min => {
                    let want = oracle.min();
                    for (name, q) in engines.iter_mut() {
                        prop_assert_eq!(q.peek_min(), want, "{} min at step {}", name, step);
                    }
                }
                Op::Meld(keys) => {
                    for &k in keys {
                        oracle.insert(k);
                    }
                    for (_, q) in engines.iter_mut() {
                        q.meld_from_keys(keys);
                    }
                }
                // Mixed fleet runs no handle ops.
                Op::Delete(_) | Op::ChangeKey(_, _) => unreachable!(),
            }
            if step % 8 == 7 {
                for (name, q) in engines.iter() {
                    if let Err(e) = q.check_invariants() {
                        panic!("{name} invariants broken after step {step}: {e}");
                    }
                }
            }
        }
        for (name, q) in engines.iter() {
            if let Err(e) = q.check_invariants() {
                panic!("{name} invariants broken after final step: {e}");
            }
        }
        // Drain everything; all engines must produce the oracle's sequence.
        let want = oracle.keys;
        for (name, q) in engines.iter_mut() {
            prop_assert_eq!(&q.drain_sorted(), &want, "{} drain", name);
            prop_assert_eq!(q.len(), 0, "{} empty after drain", name);
        }
    }
    #[test]
    fn lazy_delete_programs_match_multiset_oracle(
        ops in proptest::collection::vec(lazy_op_strategy(), 0..48),
        p in 1usize..5,
    ) {
        let mut heap = LazyBinomialHeap::new(p);
        let mut oracle = Oracle::default();
        let mut handles: Vec<NodeId> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Insert(k) => {
                    handles.push(heap.insert(*k));
                    oracle.insert(*k);
                }
                Op::ExtractMin => {
                    let got = heap.extract_min();
                    let want = oracle.extract_min();
                    prop_assert_eq!(got, want, "extract at step {}", step);
                }
                Op::Min => {
                    prop_assert_eq!(heap.min(), oracle.min(), "min at step {}", step);
                }
                Op::Meld(keys) => {
                    // Melding invalidates the other heap's handles, so the
                    // incoming keys are only reachable via extract-min —
                    // fine for the multiset semantics under test.
                    heap.meld(LazyBinomialHeap::from_keys_fast(p, keys.iter().copied()));
                    for &k in keys {
                        oracle.insert(k);
                    }
                }
                Op::Delete(raw) | Op::ChangeKey(raw, _) => {
                    // Arrange-Heap may invalidate handles; a live arena node
                    // is a real element whatever its history, so filtering
                    // to live handles keeps the oracle comparison sound.
                    handles.retain(|id| heap.node_exists(*id) && !heap.is_empty_node(*id));
                    if handles.is_empty() {
                        continue;
                    }
                    let victim = handles.swap_remove(raw % handles.len());
                    let removed = match op {
                        Op::Delete(_) => heap.delete(victim),
                        Op::ChangeKey(_, k) => {
                            let old = heap.delete(victim);
                            handles.push(heap.insert(*k));
                            oracle.insert(*k);
                            old
                        }
                        _ => unreachable!(),
                    };
                    prop_assert!(
                        oracle.remove_one(removed),
                        "deleted key {} absent from oracle at step {}",
                        removed,
                        step
                    );
                }
            }
            if step % 8 == 7 {
                if let Err(e) = heap.check_invariants() {
                    panic!("lazy invariants broken after step {step}: {e}");
                }
            }
        }
        if let Err(e) = heap.check_invariants() {
            panic!("lazy invariants broken after final step: {e}");
        }
        prop_assert_eq!(heap.into_sorted_vec(), oracle.keys, "final drain");
    }

    /// The pooled-representation fleet: a [`HeapPool`]-resident heap runs
    /// the program against the sorted-vec oracle, with the slab counters
    /// asserting that every same-pool meld is zero-copy and every
    /// `multi_insert` allocates one node per key, the cross-pool fallback
    /// and clone-heap exercised mid-program, and a lazy heap
    /// running the same inserts/melds *plus* deletes interleaved between
    /// the zero-copy melds (against its own multiset oracle). `check_pool`
    /// guards ownership + aliasing every eighth step.
    #[test]
    fn pooled_programs_match_oracles(
        ops in proptest::collection::vec(pool_op_strategy(), 0..36),
        p in 1usize..5,
    ) {
        let mut pool: HeapPool<i64> = HeapPool::new();
        let mut main = pool.new_heap();
        let mut pool_oracle = Oracle::default();
        let mut lazy = LazyBinomialHeap::new(p);
        let mut lazy_oracle = Oracle::default();
        let mut handles: Vec<NodeId> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                PoolOp::Insert(k) => {
                    pool.insert(&mut main, *k);
                    pool_oracle.insert(*k);
                    handles.push(lazy.insert(*k));
                    lazy_oracle.insert(*k);
                }
                PoolOp::ExtractMin => {
                    let got = pool.extract_min(&mut main);
                    prop_assert_eq!(got, pool_oracle.extract_min(), "pool extract at step {}", step);
                    prop_assert_eq!(lazy.extract_min(), lazy_oracle.extract_min(),
                        "lazy extract at step {}", step);
                }
                PoolOp::Min => {
                    prop_assert_eq!(pool.min(&main), pool_oracle.min(), "pool min at step {}", step);
                    prop_assert_eq!(lazy.min(), lazy_oracle.min(), "lazy min at step {}", step);
                }
                PoolOp::Meld(keys) => {
                    let part = pool.from_keys(keys.iter().copied());
                    let before = pool.stats();
                    pool.meld(&mut main, part);
                    prop_assert_eq!(before, pool.stats(),
                        "same-pool meld allocated or copied at step {}", step);
                    for &k in keys { pool_oracle.insert(k); }
                    lazy.meld(LazyBinomialHeap::from_keys_fast(p, keys.iter().copied()));
                    for &k in keys { lazy_oracle.insert(k); }
                }
                PoolOp::MultiInsert(keys) => {
                    let before = pool.stats();
                    pool.multi_insert(&mut main, keys).unwrap();
                    prop_assert_eq!(pool.stats().allocs - before.allocs, keys.len() as u64,
                        "one allocation per key at step {}", step);
                    prop_assert_eq!(pool.stats().copies, before.copies);
                    for &k in keys { pool_oracle.insert(k); }
                }
                PoolOp::CrossMeld(keys) => {
                    let mut other: HeapPool<i64> = HeapPool::new();
                    let h = other.from_keys(keys.iter().copied());
                    pool.meld_cross_pool(&mut main, &mut other, h);
                    prop_assert_eq!(other.live_nodes(), 0, "source pool drained at step {}", step);
                    for &k in keys { pool_oracle.insert(k); }
                }
                PoolOp::CloneCheck => {
                    let copy = pool.clone_heap(&main);
                    prop_assert_eq!(pool.into_sorted_vec(copy), pool_oracle.keys.clone(),
                        "clone drain at step {}", step);
                    if let Err(e) = pool.validate_heap(&main) {
                        panic!("main corrupted by clone at step {step}: {e}");
                    }
                }
                PoolOp::Delete(raw) => {
                    handles.retain(|id| lazy.node_exists(*id) && !lazy.is_empty_node(*id));
                    if handles.is_empty() {
                        continue;
                    }
                    let victim = handles.swap_remove(raw % handles.len());
                    let removed = lazy.delete(victim);
                    prop_assert!(lazy_oracle.remove_one(removed),
                        "deleted key {} absent from lazy oracle at step {}", removed, step);
                }
            }
            if step % 8 == 7 {
                if let Err(e) = check_pool(&pool, &[&main]) {
                    panic!("pool invariants broken after step {step}: {e}");
                }
                if let Err(e) = lazy.check_invariants() {
                    panic!("lazy invariants broken after step {step}: {e}");
                }
            }
        }
        if let Err(e) = check_pool(&pool, &[&main]) {
            panic!("pool invariants broken after final step: {e}");
        }
        prop_assert_eq!(pool.into_sorted_vec(main), pool_oracle.keys, "pool drain");
        prop_assert_eq!(lazy.into_sorted_vec(), lazy_oracle.keys, "lazy drain");
    }

    /// The decrease-key fleet: every engine with native decrease-key runs
    /// the same handle program. With duplicate keys an extract may retire
    /// *different* physical elements in different engines (equal-key
    /// tie-breaking is engine-specific), after which the multisets can
    /// legitimately diverge — so each engine carries its **own** sorted-vec
    /// oracle, advanced by that engine's observable answers
    /// (`key_of_handle` before each decrease). Every engine must stay
    /// exactly consistent with priority-queue semantics: a decrease with
    /// `new <= current` must succeed and replace the key; a stale handle or
    /// an increase must refuse and change nothing; extract/min/drain must
    /// match the oracle at every step.
    #[test]
    fn decrease_key_fleet_matches_handle_oracles(
        ops in proptest::collection::vec(dec_op_strategy(), 0..40),
        p in 1usize..5,
    ) {
        let mut engines: Vec<DecLane> = decrease_fleet(p)
                .into_iter()
                .map(|(name, q)| (name, q, Oracle::default(), Vec::new()))
                .collect();
        // Handle slots are parallel across engines: slot i in every engine
        // names the element created by the i-th Insert.
        let mut slots = 0usize;
        for (step, op) in ops.iter().enumerate() {
            match op {
                DecOp::Insert(k) => {
                    slots += 1;
                    for (_, q, oracle, handles) in engines.iter_mut() {
                        handles.push(q.insert_handle(*k));
                        oracle.insert(*k);
                    }
                }
                DecOp::ExtractMin => {
                    for (name, q, oracle, _) in engines.iter_mut() {
                        let want = oracle.extract_min();
                        prop_assert_eq!(q.extract_min(), want, "{} extract at step {}", name, step);
                    }
                }
                DecOp::Min => {
                    for (name, q, oracle, _) in engines.iter_mut() {
                        prop_assert_eq!(q.peek_min(), oracle.min(), "{} min at step {}", name, step);
                    }
                }
                DecOp::Decrease { slot, to } => {
                    if slots == 0 {
                        continue;
                    }
                    let slot = slot % slots;
                    for (name, q, oracle, handles) in engines.iter_mut() {
                        let h = handles[slot];
                        let cur = q.key_of_handle(h);
                        let ok = q.decrease_key(h, *to);
                        match cur {
                            Some(c) if *to <= c => {
                                prop_assert!(ok, "{} refused a legal decrease at step {}", name, step);
                                prop_assert!(oracle.remove_one(c), "{} oracle lost key {}", name, c);
                                oracle.insert(*to);
                                prop_assert_eq!(
                                    q.key_of_handle(h), Some(*to),
                                    "{} handle key after decrease at step {}", name, step
                                );
                            }
                            _ => prop_assert!(
                                !ok,
                                "{} accepted a stale handle or an increase at step {}", name, step
                            ),
                        }
                    }
                }
                DecOp::DecreaseToDuplicate { a, b } => {
                    if slots == 0 {
                        continue;
                    }
                    let (a, b) = (a % slots, b % slots);
                    for (name, q, oracle, handles) in engines.iter_mut() {
                        // The duplicate target is this engine's view of slot
                        // b — engines may disagree once tie-breaks diverged,
                        // and each must honor its own answer.
                        let (Some(tgt), Some(cur)) =
                            (q.key_of_handle(handles[b]), q.key_of_handle(handles[a]))
                        else {
                            continue;
                        };
                        let ok = q.decrease_key(handles[a], tgt);
                        if tgt <= cur {
                            prop_assert!(ok, "{} refused dup-decrease at step {}", name, step);
                            prop_assert!(oracle.remove_one(cur), "{} oracle lost key {}", name, cur);
                            oracle.insert(tgt);
                        } else {
                            prop_assert!(!ok, "{} accepted an increase at step {}", name, step);
                        }
                    }
                }
                DecOp::Meld(keys) => {
                    for (_, q, oracle, _) in engines.iter_mut() {
                        q.meld_from_keys(keys);
                        for &k in keys {
                            oracle.insert(k);
                        }
                    }
                }
            }
            if step % 8 == 7 {
                for (name, q, _, _) in engines.iter() {
                    if let Err(e) = q.check_invariants() {
                        panic!("{name} invariants broken after step {step}: {e}");
                    }
                }
            }
        }
        for (name, q, _, _) in engines.iter() {
            if let Err(e) = q.check_invariants() {
                panic!("{name} invariants broken after final step: {e}");
            }
        }
        for (name, q, oracle, _) in engines.iter_mut() {
            prop_assert_eq!(&q.drain_sorted(), &oracle.keys, "{} drain", name);
            prop_assert_eq!(q.len(), 0, "{} empty after drain", name);
        }
    }
}
