//! Property-based differential tests: the two Union planners (sequential
//! and PRAM) must produce bit-identical plans, their links and new root
//! array must equal an independent ripple-carry reference, and the plans
//! must obey the union–addition isomorphism, on arbitrary inputs.

use meldpq::engine_pram::build_plan_pram;
use meldpq::plan::{build_plan_seq, plan_width, LinkOp, RootRef, UnionPlan};
use meldpq::NodeId;
use proptest::prelude::*;

fn side(n: usize, width: usize, keys: &[i64], base: u32) -> Vec<Option<RootRef>> {
    let mut k = keys.iter().copied().cycle();
    (0..width)
        .map(|i| {
            (n >> i & 1 == 1).then(|| RootRef {
                key: k.next().expect("cycle"),
                id: NodeId(base + i as u32),
            })
        })
        .collect()
}

/// The third engine: `Union` as plain binary addition over the two root
/// arrays, one link per carry, written from the tie contract alone. The
/// first operand wins equal keys; at a position holding both heaps' trees,
/// h1's is the first operand; a carry is the first operand against the one
/// tree it meets, and stays a root when it meets two. Returns the links in
/// slot order and the new root array.
fn ripple_union(
    h1: &[Option<RootRef>],
    h2: &[Option<RootRef>],
) -> (Vec<LinkOp>, Vec<Option<NodeId>>) {
    let mut links = Vec::new();
    let mut link = |x: RootRef, y: RootRef, slot: usize| {
        let (win, lose) = if y.key < x.key { (y, x) } else { (x, y) };
        links.push(LinkOp {
            child: lose.id,
            parent: win.id,
            slot,
        });
        win
    };
    let mut roots = vec![None; h1.len()];
    let mut carry: Option<RootRef> = None;
    for (i, (&a, &b)) in h1.iter().zip(h2).enumerate() {
        let (root, next) = match (carry, a, b) {
            (c, Some(x), Some(y)) => (c, Some(link(x, y, i))),
            (Some(c), Some(t), None) | (Some(c), None, Some(t)) => (None, Some(link(c, t, i))),
            (t, None, None) | (None, t, None) | (None, None, t) => (t, None),
        };
        roots[i] = root.map(|r| r.id);
        carry = next;
    }
    assert!(carry.is_none(), "the plan width holds the carry-out");
    (links, roots)
}

/// Both planners and the ripple reference agree on `h1 ⊔ h2`; returns the
/// sequential plan.
fn three_way(h1: &[Option<RootRef>], h2: &[Option<RootRef>], p: usize) -> UnionPlan {
    let seq = build_plan_seq(h1, h2);
    let pram = build_plan_pram(h1, h2, p).expect("EREW-legal");
    assert_eq!(seq, pram.plan, "pram diverged");
    let (links, roots) = ripple_union(h1, h2);
    assert_eq!(seq.links, links, "links differ from the ripple reference");
    assert_eq!(
        seq.new_roots, roots,
        "roots differ from the ripple reference"
    );
    seq.validate().expect("structurally sound");
    seq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn three_engines_agree(
        n1 in 0usize..1_000_000,
        n2 in 0usize..1_000_000,
        keys in proptest::collection::vec(any::<i64>().prop_map(|k| k.clamp(i64::MIN + 1, i64::MAX - 1)), 1..64),
        p in 1usize..8,
    ) {
        let width = plan_width(n1, n2);
        let h1 = side(n1, width, &keys, 0);
        let h2 = side(n2, width, &keys[keys.len() / 2..].iter().chain(&keys).copied().collect::<Vec<_>>(), 10_000);
        let seq = three_way(&h1, &h2, p);

        // Union-addition isomorphism.
        let result: usize = seq
            .new_roots
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(i, _)| 1usize << i)
            .sum();
        prop_assert_eq!(result, n1 + n2);
    }

    /// The melded heap preserves every key and all invariants.
    #[test]
    fn meld_preserves_multiset(
        a in proptest::collection::vec(-1000i64..1000, 0..300),
        b in proptest::collection::vec(-1000i64..1000, 0..300),
    ) {
        use meldpq::ParBinomialHeap;
        let mut h = ParBinomialHeap::from_keys(a.iter().copied());
        h.meld(ParBinomialHeap::from_keys(b.iter().copied()));
        h.validate().expect("valid");
        let mut expected: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(h.into_sorted_vec(), expected);
    }

    /// Duplicate keys: with keys drawn from a two-value set, equal-key
    /// ties happen at almost every position, and the tie-breaking contract
    /// (first/left operand wins — see `meldpq::plan` docs) must keep all
    /// three engines identical.
    #[test]
    fn three_engines_agree_on_duplicate_keys(
        n1 in 0usize..100_000,
        n2 in 0usize..100_000,
        bits in proptest::collection::vec(any::<bool>(), 1..64),
        p in 1usize..8,
    ) {
        let keys: Vec<i64> = bits.iter().map(|&b| b as i64).collect();
        let width = plan_width(n1, n2);
        let h1 = side(n1, width, &keys, 0);
        let h2 = side(n2, width, &keys, 10_000);
        three_way(&h1, &h2, p);
    }

    /// All-equal keys, the extreme of the previous test: every comparison
    /// is a tie, so the plan is decided purely by the contract. Checks the
    /// documented consequence directly: wherever both heaps hold a tree,
    /// the h1 root wins, and every fragment's dominant root is its
    /// lowest-position candidate.
    #[test]
    fn tie_break_contract_holds_on_all_equal_keys(
        n1 in 1usize..100_000,
        n2 in 1usize..100_000,
        p in 1usize..8,
    ) {
        let width = plan_width(n1, n2);
        let keys = [7i64];
        let h1 = side(n1, width, &keys, 0);
        let h2 = side(n2, width, &keys, 10_000);
        let seq = three_way(&h1, &h2, p);
        // Indexing four parallel vectors; an iterator over one obscures that.
        #[allow(clippy::needless_range_loop)]
        for i in 0..width {
            // Rule at the seed: h1 wins the position on a tie.
            if let (Some(a), Some(w)) = (h1[i], seq.i_value_b[i]) {
                prop_assert_eq!(w.id, a.id, "position {} winner must be h1's root", i);
            }
            // Rule along the scan: the dominant root never moves to a
            // higher position on equal keys.
            if let (Some(prev), Some(dom)) = (
                (i > 0).then(|| seq.i_value_a[i - 1]).flatten(),
                seq.i_value_a[i],
            ) {
                if !seq.i_lim[i] {
                    prop_assert_eq!(
                        dom.id, prev.id,
                        "dominant must stay leftmost within a fragment (position {})", i
                    );
                }
            }
        }
    }

    /// PRAM Min agrees with the host min on arbitrary root arrays.
    #[test]
    fn pram_min_agrees(
        n in 1usize..100_000,
        keys in proptest::collection::vec(-1_000_000i64..1_000_000, 1..40),
    ) {
        let width = plan_width(n, 0).max(1);
        let roots = side(n, width, &keys, 0);
        let (got, _) = meldpq::engine_pram::min_pram(&roots, 3).expect("legal");
        let want = roots.iter().flatten().map(|r| r.key).min();
        prop_assert_eq!(got.map(|r| r.key), want);
    }
}
