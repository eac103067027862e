//! Differential tests: every heap against a sorted-vector oracle, over random
//! operation scripts, with structural validation after every mutation.

use proptest::prelude::*;
use seqheaps::{BinaryHeapAdapter, BinomialHeap, LeftistHeap, MeldablePq, OpStats};

#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    ExtractMin,
    /// Meld in a freshly built heap holding these keys.
    Meld(Vec<i64>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => any::<i64>().prop_map(Op::Insert),
        3 => Just(Op::ExtractMin),
        1 => proptest::collection::vec(any::<i64>(), 0..12).prop_map(Op::Meld),
    ]
}

/// A trivially correct priority queue.
#[derive(Default)]
struct Oracle {
    keys: Vec<i64>,
}

impl Oracle {
    fn insert(&mut self, k: i64) {
        self.keys.push(k);
    }
    fn extract_min(&mut self) -> Option<i64> {
        let (idx, _) = self.keys.iter().enumerate().min_by_key(|(_, k)| **k)?;
        Some(self.keys.swap_remove(idx))
    }
    fn min(&self) -> Option<i64> {
        self.keys.iter().min().copied()
    }
}

fn run_script<H: MeldablePq<i64> + Default>(ops: &[Op]) {
    let mut heap = H::default();
    let mut oracle = Oracle::default();
    for op in ops {
        match op {
            Op::Insert(k) => {
                heap.insert(*k);
                oracle.insert(*k);
            }
            Op::ExtractMin => {
                assert_eq!(heap.extract_min(), oracle.extract_min());
            }
            Op::Meld(keys) => {
                let mut other = H::default();
                for k in keys {
                    other.insert(*k);
                    oracle.insert(*k);
                }
                heap.meld(other);
            }
        }
        assert_eq!(heap.len(), oracle.keys.len());
        assert_eq!(heap.peek_min(), oracle.min());
        heap.check_invariants()
            .expect("structural invariant violated");
    }
    // Drain and compare total ordering.
    let mut expected = oracle.keys.clone();
    expected.sort_unstable();
    assert_eq!(heap.drain_sorted(), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binomial_matches_oracle(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        run_script::<BinomialHeap<i64>>(&ops);
    }

    #[test]
    fn leftist_matches_oracle(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        run_script::<LeftistHeap<i64>>(&ops);
    }

    #[test]
    fn binary_matches_oracle(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        run_script::<BinaryHeapAdapter<i64>>(&ops);
    }

    /// BH2 / binary-representation isomorphism: after any build, the orders of
    /// the binomial trees present are exactly the set bits of n (paper §2).
    #[test]
    fn binomial_roots_are_set_bits(keys in proptest::collection::vec(any::<i32>(), 0..200)) {
        let mut h = BinomialHeap::new();
        h.multi_insert(&keys);
        let n = keys.len();
        let expected: Vec<usize> = (0..usize::BITS as usize)
            .filter(|i| n >> i & 1 == 1)
            .collect();
        prop_assert_eq!(h.root_orders(), expected);
    }

    /// Union-addition isomorphism (paper §3): melding heaps of sizes n1, n2
    /// produces the tree set of the bits of n1 + n2.
    #[test]
    fn union_is_binary_addition(
        a in proptest::collection::vec(any::<i32>(), 0..200),
        b in proptest::collection::vec(any::<i32>(), 0..200),
    ) {
        let mut ha = BinomialHeap::new();
        ha.multi_insert(&a);
        let mut hb = BinomialHeap::new();
        hb.multi_insert(&b);
        ha.meld(hb);
        let n = a.len() + b.len();
        let expected: Vec<usize> = (0..usize::BITS as usize)
            .filter(|i| n >> i & 1 == 1)
            .collect();
        prop_assert_eq!(ha.root_orders(), expected);
        prop_assert!(ha.check_invariants().is_ok());
    }
}

/// All three heaps sort the same random multiset identically (heap-sort
/// equivalence across implementations).
#[test]
fn all_heaps_agree_on_heapsort() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let keys: Vec<i64> = (0..5_000).map(|_| rng.gen_range(-1000..1000)).collect();
    let mut expected = keys.clone();
    expected.sort_unstable();

    fn heapsort<H: MeldablePq<i64> + Default>(keys: &[i64]) -> Vec<i64> {
        let mut h = H::default();
        h.multi_insert(keys);
        h.drain_sorted()
    }
    assert_eq!(heapsort::<BinomialHeap<i64>>(&keys), expected);
    assert_eq!(heapsort::<LeftistHeap<i64>>(&keys), expected);
    assert_eq!(heapsort::<BinaryHeapAdapter<i64>>(&keys), expected);
}

/// W1's machine-independent claim (EXPERIMENTS.md): melding 64 heaps of
/// 2,000 seeded keys each into one costs the binomial heap the fewest key
/// comparisons, the leftist heap more, and the binary-heap adapter, which
/// re-inserts every key of the absorbed heap, at least 10x the binomial
/// heap's. The seed and key range are the bench crate's
/// `workloads::rng(0xC0)` and `random_keys`, W1's inputs.
#[test]
fn meld_storm_comparisons_order_binomial_leftist_binary() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x000B_100D ^ 0xC0);
    let parts: Vec<Vec<i64>> = (0..64)
        .map(|_| {
            (0..2_000)
                .map(|_| rng.gen_range(-1_000_000..1_000_000))
                .collect()
        })
        .collect();
    fn comparisons<H: MeldablePq<i64> + Default>(
        parts: &[Vec<i64>],
        stats: fn(&H) -> &OpStats,
    ) -> u64 {
        let mut acc = H::default();
        for part in parts {
            let mut h = H::default();
            h.multi_insert(part);
            acc.meld(h);
        }
        assert_eq!(acc.len(), 64 * 2_000);
        stats(&acc).comparisons()
    }
    let binomial = comparisons(&parts, BinomialHeap::stats);
    let leftist = comparisons(&parts, LeftistHeap::stats);
    let binary = comparisons(&parts, BinaryHeapAdapter::stats);
    println!("comparisons: binomial {binomial}, leftist {leftist}, binary {binary}");
    assert!(
        binomial < leftist && leftist < binary,
        "binomial {binomial}, leftist {leftist}, binary {binary}"
    );
    assert!(
        binary >= 10 * binomial,
        "binary {binary} < 10x binomial {binomial}"
    );
}
