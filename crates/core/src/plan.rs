//! The `Union` plan: Phases I–III of the paper as pure data transforms.
//!
//! A [`UnionPlan`] captures everything the three phases decide:
//!
//! * **Phase I** (§3.1): presence bits, carry generators/propagators/carries,
//!   point classification (`str`/`int`/`end`/`ind`), and the segment limits
//!   `I_lim`;
//! * **Phase II** (§3.2): per-position winners `I_valueB` and the segmented
//!   prefix minima `I_valueA` identifying dominant roots;
//! * **Phase III** (§3.3): the link operations (child, parent, slot) and the
//!   new root array `H` (rules 1–3).
//!
//! Both planners — this module's sequential [`build_plan_into`] on the host
//! and `engine_pram` on the PRAM simulator — produce this same structure,
//! and the differential tests require bit-identical plans. This module
//! holds the sequential planner plus the shared per-position logic the PRAM
//! program mirrors.
//!
//! # Tie-breaking contract (equal keys)
//!
//! Plans are only comparable across engines if equal keys resolve the same
//! way everywhere, so the workspace fixes **one** rule: *the first/left
//! operand wins ties*. Concretely:
//!
//! * [`position_winner`]: on `h1.key == h2.key` the **h1** root wins (the
//!   comparison is strict — `y.key < x.key` — so `x`, the first operand,
//!   survives ties);
//! * [`seg_combine`]: on equal keys the **left** (lower-position prefix)
//!   operand wins, again via a strict comparison on the right operand;
//! * `engine_pram` implements the identical rule arithmetically: the
//!   Phase II seed picks h1 on `a_key <= b_key`, and the tuple scan keeps
//!   the left tuple unless the right key is strictly smaller.
//!
//! Consequences: with all-equal keys the dominant root of every fragment is
//! the *lowest-position* candidate, preferring **h1** at its seed position,
//! and both planners emit bit-identical plans — enforced by the
//! duplicate-key regression tests in `tests/engine_differential.rs` and
//! continuously by the differential fuzzer.

use crate::arena::NodeId;

/// Classification of a bit position (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointType {
    /// `g_i ∧ p_{i+1}`: the link of the two `B_i` cascades into `B_{i+1}`.
    Start,
    /// `p_i ∧ c_{i-1} ∧ p_{i+1}`: mid-chain position.
    Internal,
    /// `p_i ∧ c_{i-1} ∧ ¬p_{i+1}`: the chain terminates here.
    End,
    /// Everything else: an isolated link (`g_i = 1`), a copied tree, or an
    /// empty position.
    Independent,
}

/// A root candidate at a position: the key (for ordering decisions) and the
/// arena node. Orders by `(key, tie → first operand)` — engines must apply
/// identical tie-breaking for plans to be comparable.
///
/// Generic over the key type (default `i64`, the PRAM machine word); the
/// sequential planner plans over any `K: Ord + Copy`, while the PRAM
/// engine requires word keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootRef<K = i64> {
    /// Root key.
    pub key: K,
    /// The node in the melded arena.
    pub id: NodeId,
}

/// One link of Phase III: make `child` the `slot`-th child of `parent`
/// (`L_parent[slot] := child`, `child.parent := parent`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOp {
    /// The tree becoming a child.
    pub child: NodeId,
    /// The dominant root receiving the child.
    pub parent: NodeId,
    /// Child-array slot, equal to the order of `child`'s tree.
    pub slot: usize,
}

/// The complete decision record of one `Union`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionPlan<K = i64> {
    /// Number of bit positions considered (enough for `n1 + n2`).
    pub width: usize,
    /// Presence bits of the two heaps.
    pub a: Vec<bool>,
    /// Presence bits of the second heap.
    pub b: Vec<bool>,
    /// Carry generators `g_i = a_i ∧ b_i`.
    pub g: Vec<bool>,
    /// Carry propagators `p_i = a_i ⊕ b_i`.
    pub p: Vec<bool>,
    /// Carries `c_i` (out of position `i`).
    pub c: Vec<bool>,
    /// Sum bits `s_i` — `B_i ∈ H` iff `s_i`.
    pub s: Vec<bool>,
    /// Point classification.
    pub class: Vec<PointType>,
    /// Segment limits: `true` starts a fragment (`I_lim[i] = 1`).
    pub i_lim: Vec<bool>,
    /// `I_value` before the prefix: the smaller of the two roots at `i`.
    pub i_value_b: Vec<Option<RootRef<K>>>,
    /// `I_value` after the segmented prefix minima: the dominant root.
    pub i_value_a: Vec<Option<RootRef<K>>>,
    /// Phase III links, in ascending slot order.
    pub links: Vec<LinkOp>,
    /// The new root array `H` (slot `i` = root of `B_i`).
    pub new_roots: Vec<Option<NodeId>>,
}

impl<K> Default for UnionPlan<K> {
    /// An empty plan (all vectors empty, width 0) — the starting state for
    /// the buffer-reusing [`build_plan_into`]. Hand-written so `K` needs no
    /// `Default` bound.
    fn default() -> Self {
        UnionPlan {
            width: 0,
            a: Vec::new(),
            b: Vec::new(),
            g: Vec::new(),
            p: Vec::new(),
            c: Vec::new(),
            s: Vec::new(),
            class: Vec::new(),
            i_lim: Vec::new(),
            i_value_b: Vec::new(),
            i_value_a: Vec::new(),
            links: Vec::new(),
            new_roots: Vec::new(),
        }
    }
}

/// Width (bit positions) needed to meld heaps of `n1` and `n2` elements.
pub fn plan_width(n1: usize, n2: usize) -> usize {
    let n = n1 + n2;
    if n == 0 {
        0
    } else {
        (usize::BITS - n.leading_zeros()) as usize
    }
}

/// Pick the smaller root of a position, ties to `h1` — the shared Phase II
/// seed logic.
pub fn position_winner<K: Ord + Copy>(
    h1: Option<RootRef<K>>,
    h2: Option<RootRef<K>>,
) -> Option<RootRef<K>> {
    match (h1, h2) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => Some(if y.key < x.key { y } else { x }),
    }
}

/// Segmented-minimum combine for `Option<RootRef>` values, ties to the left
/// (prefix) operand — the shared Phase II scan operator.
pub fn seg_combine<K: Ord + Copy>(
    l: (bool, Option<RootRef<K>>),
    r: (bool, Option<RootRef<K>>),
) -> (bool, Option<RootRef<K>>) {
    if r.0 {
        r
    } else {
        let v = match (l.1, r.1) {
            (None, x) | (x, None) => x,
            (Some(x), Some(y)) => Some(if y.key < x.key { y } else { x }),
        };
        (l.0, v)
    }
}

/// Classify position `i` given its flags (shared with the PRAM program).
/// `p_next` is `p_{i+1}` (false past the top), `c_prev` is `c_{i-1}`.
pub fn classify_point(g: bool, p: bool, c_prev: bool, p_next: bool) -> PointType {
    if g && p_next {
        PointType::Start
    } else if p && c_prev && p_next {
        PointType::Internal
    } else if p && c_prev && !p_next {
        PointType::End
    } else {
        PointType::Independent
    }
}

/// Phase III per-position link decision (shared with the PRAM program).
///
/// * internal/ending points emit Case 1 or Case 2;
/// * starting points and independent points with `g_i = 1` emit Case 3
///   (the plain linking rule on the two local roots).
///
/// `h1`/`h2` are the original roots at `i`; `winner` is `I_valueB[i]`;
/// `dom` is `I_valueA[i]`; `dom_prev` is `I_valueA[i-1]`.
#[allow(clippy::too_many_arguments)]
pub fn link_decision<K: Ord + Copy>(
    class: PointType,
    g: bool,
    h1: Option<RootRef<K>>,
    h2: Option<RootRef<K>>,
    winner: Option<RootRef<K>>,
    dom: Option<RootRef<K>>,
    dom_prev: Option<RootRef<K>>,
    slot: usize,
) -> Option<LinkOp> {
    match class {
        PointType::Internal | PointType::End => {
            let t = dom.expect("chain positions have a dominant root");
            let prev = dom_prev.expect("chain positions follow a nonempty prefix");
            if t.id == prev.id {
                // Case 1: the unique local tree joins the running dominant.
                let r = winner.expect("internal/ending points hold exactly one tree");
                Some(LinkOp {
                    child: r.id,
                    parent: t.id,
                    slot,
                })
            } else {
                // Case 2: a new fragment begins; the previous aggregate
                // (order = slot) becomes a child of the new dominant.
                Some(LinkOp {
                    child: prev.id,
                    parent: t.id,
                    slot,
                })
            }
        }
        PointType::Start | PointType::Independent if g => {
            // Case 3: linking rule on the two local roots.
            let x = h1.expect("g implies both trees present");
            let y = h2.expect("g implies both trees present");
            let w = winner.expect("both present");
            let loser = if w.id == x.id { y } else { x };
            Some(LinkOp {
                child: loser.id,
                parent: w.id,
                slot,
            })
        }
        _ => None,
    }
}

/// New-root-array decision for position `i` (paper §3.3 rules 1–3), shared
/// with the PRAM program. Returns `(target_slot, root)` pairs to store into `H`.
pub fn new_root_decision<K: Ord + Copy>(
    i: usize,
    class: PointType,
    g: bool,
    p: bool,
    c_prev: bool,
    p_next: bool,
    dom: Option<RootRef<K>>,
) -> Option<(usize, NodeId)> {
    // Rule 1: independent point with g=1 and no cascade — the freshly linked
    // B_{i+1} lands in H[i+1].
    if g && !p_next {
        return Some((i + 1, dom.expect("g implies a dominant root").id));
    }
    // Rule 2: a lone tree with no incoming carry is copied across.
    if p && !c_prev {
        return Some((i, dom.expect("p implies a tree").id));
    }
    // Rule 3: an ending point produces B_{i+1}.
    if class == PointType::End {
        return Some((i + 1, dom.expect("chains have dominants").id));
    }
    None
}

/// Sequential oracle: build the full plan with plain loops.
///
/// `h1`/`h2` give, per position, the root reference if the heap has a `B_i`.
/// All root ids must be *distinct across both inputs* (the Phase III case
/// analysis compares ids); every `Union` in `pool.rs` guarantees this by
/// planning over two heaps of one slab, after a cross-pool meld has moved
/// the second heap's nodes in.
pub fn build_plan_seq<K: Ord + Copy>(
    h1: &[Option<RootRef<K>>],
    h2: &[Option<RootRef<K>>],
) -> UnionPlan<K> {
    let mut plan = UnionPlan::default();
    build_plan_into(&mut plan, h1, h2);
    plan
}

/// Sequential oracle, reusing a caller-owned plan's buffers: every vector is
/// cleared and refilled in place, so hot loops (pooled melds, the parallel
/// builder's reduction tree) plan without per-meld allocation after the
/// first call. Produces exactly what [`build_plan_seq`] returns.
pub fn build_plan_into<K: Ord + Copy>(
    plan: &mut UnionPlan<K>,
    h1: &[Option<RootRef<K>>],
    h2: &[Option<RootRef<K>>],
) {
    #[cfg(debug_assertions)]
    {
        let mut ids: Vec<u32> = h1
            .iter()
            .chain(h2.iter())
            .flatten()
            .map(|r| r.id.0)
            .collect();
        ids.sort_unstable();
        let len = ids.len();
        ids.dedup();
        debug_assert_eq!(ids.len(), len, "root ids must be unique across inputs");
    }
    let width = h1.len().max(h2.len());
    let at = |v: &[Option<RootRef<K>>], i: usize| v.get(i).copied().flatten();

    plan.width = width;
    plan.a.clear();
    plan.a.extend((0..width).map(|i| at(h1, i).is_some()));
    plan.b.clear();
    plan.b.extend((0..width).map(|i| at(h2, i).is_some()));
    plan.g.clear();
    plan.g.extend((0..width).map(|i| plan.a[i] && plan.b[i]));
    plan.p.clear();
    plan.p.extend((0..width).map(|i| plan.a[i] ^ plan.b[i]));
    // The ripple carry recurrence (`parscan::carry::carries_ripple`),
    // inlined so no scratch vector is allocated per meld.
    plan.c.clear();
    let mut carry = false;
    for i in 0..width {
        carry = plan.g[i] || (plan.p[i] && carry);
        plan.c.push(carry);
    }
    plan.s.clear();
    plan.s.extend((0..width).map(|i| {
        let c_prev = i > 0 && plan.c[i - 1];
        plan.p[i] ^ c_prev
    }));
    plan.class.clear();
    plan.class.extend((0..width).map(|i| {
        let c_prev = i > 0 && plan.c[i - 1];
        let p_next = i + 1 < width && plan.p[i + 1];
        classify_point(plan.g[i], plan.p[i], c_prev, p_next)
    }));
    plan.i_lim.clear();
    plan.i_lim.extend((0..width).map(|i| {
        let c_prev = i > 0 && plan.c[i - 1];
        !(plan.p[i] && c_prev)
    }));
    plan.i_value_b.clear();
    plan.i_value_b
        .extend((0..width).map(|i| position_winner(at(h1, i), at(h2, i))));

    // Phase II: segmented prefix minima.
    plan.i_value_a.clear();
    let mut acc: (bool, Option<RootRef<K>>) = (false, None);
    for i in 0..width {
        let elem = (plan.i_lim[i], plan.i_value_b[i]);
        acc = if i == 0 { elem } else { seg_combine(acc, elem) };
        plan.i_value_a.push(acc.1);
    }

    // Phase III.
    plan.links.clear();
    plan.new_roots.clear();
    plan.new_roots.resize(width, None);
    for i in 0..width {
        let c_prev = i > 0 && plan.c[i - 1];
        let p_next = i + 1 < width && plan.p[i + 1];
        let dom_prev = if i > 0 { plan.i_value_a[i - 1] } else { None };
        if let Some(op) = link_decision(
            plan.class[i],
            plan.g[i],
            at(h1, i),
            at(h2, i),
            plan.i_value_b[i],
            plan.i_value_a[i],
            dom_prev,
            i,
        ) {
            plan.links.push(op);
        }
        if let Some((slot, root)) = new_root_decision(
            i,
            plan.class[i],
            plan.g[i],
            plan.p[i],
            c_prev,
            p_next,
            plan.i_value_a[i],
        ) {
            debug_assert!(slot < width, "result width must accommodate all roots");
            debug_assert!(plan.new_roots[slot].is_none(), "H slot assigned twice");
            plan.new_roots[slot] = Some(root);
        }
    }
}

impl<K> UnionPlan<K> {
    /// Structural sanity: `H[i]` occupied exactly when `s_i = 1`; every link
    /// slot below width, self-loop-free and strictly ascending (each bit
    /// position emits at most one link, and `pool::union_into` relies on the order
    /// to keep child vectors dense); chains produce one more link than their
    /// length-1.
    pub fn validate(&self) -> Result<(), String> {
        for i in 0..self.width {
            if self.s[i] != self.new_roots[i].is_some() {
                return Err(format!(
                    "position {i}: s={} but H[{i}] {}",
                    self.s[i],
                    if self.new_roots[i].is_some() {
                        "occupied"
                    } else {
                        "empty"
                    }
                ));
            }
        }
        for (k, l) in self.links.iter().enumerate() {
            if l.slot >= self.width {
                return Err(format!(
                    "link {k}: slot {} outside width {}",
                    l.slot, self.width
                ));
            }
            if l.child == l.parent {
                return Err(format!("link {k}: self-link at {:?}", l.child));
            }
        }
        if let Some(w) = self.links.windows(2).position(|w| w[0].slot >= w[1].slot) {
            return Err(format!(
                "links out of order: slot {} at index {w} then slot {}",
                self.links[w].slot,
                self.links[w + 1].slot
            ));
        }
        // Total links = number of positions with both trees (g) + chain
        // continuations (internal/ending points).
        let expected = self.g.iter().filter(|&&x| x).count()
            + self
                .class
                .iter()
                .filter(|t| matches!(t, PointType::Internal | PointType::End))
                .count();
        if self.links.len() != expected {
            return Err(format!(
                "expected {expected} links, planned {}",
                self.links.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(
        present: &[usize],
        width: usize,
        base: u32,
        mut key_of: impl FnMut(usize) -> i64,
    ) -> Vec<Option<RootRef>> {
        let mut v = vec![None; width];
        for &i in present {
            v[i] = Some(RootRef {
                key: key_of(i),
                id: NodeId(base + i as u32),
            });
        }
        v
    }

    /// Figure 1 of the paper: H1 = {B1,B3,B5,B6}, H2 = {B0,B1,B2,B5}.
    #[test]
    fn figure1_classification() {
        use PointType::*;
        let width = 8;
        let h1 = refs(&[1, 3, 5, 6], width, 0, |i| i as i64);
        let h2 = refs(&[0, 1, 2, 5], width, 1000, |i| 10 + i as i64);
        let plan = build_plan_seq(&h1, &h2);
        // Paper's rows, positions 0..=7.
        assert_eq!(
            plan.g,
            [false, true, false, false, false, true, false, false]
        );
        assert_eq!(plan.p, [true, false, true, true, false, false, true, false]);
        assert_eq!(plan.c, [false, true, true, true, false, true, true, false]);
        assert_eq!(
            plan.s,
            [true, false, false, false, true, false, false, true]
        );
        assert_eq!(
            plan.class,
            [
                Independent,
                Start,
                Internal,
                End,
                Independent,
                Start,
                End,
                Independent
            ]
        );
        plan.validate().unwrap();
    }

    /// The sum-bit/H-array correspondence on random inputs.
    #[test]
    fn h_array_matches_sum_bits_randomized() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let n1 = rng.gen_range(0usize..4096);
            let n2 = rng.gen_range(0usize..4096);
            let width = plan_width(n1, n2);
            let h1pos: Vec<usize> = (0..width).filter(|i| n1 >> i & 1 == 1).collect();
            let h2pos: Vec<usize> = (0..width).filter(|i| n2 >> i & 1 == 1).collect();
            let h1 = refs(&h1pos, width, 0, |_| rng.gen_range(-100..100));
            let h2 = refs(&h2pos, width, 1000, |_| rng.gen_range(-100..100));
            let plan = build_plan_seq(&h1, &h2);
            plan.validate().unwrap();
            let result_bits: usize = plan
                .new_roots
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_some())
                .map(|(i, _)| 1usize << i)
                .sum();
            assert_eq!(result_bits, n1 + n2, "n1={n1} n2={n2}");
        }
    }

    #[test]
    fn empty_union_plan() {
        let plan = build_plan_seq::<i64>(&[], &[]);
        assert_eq!(plan.width, 0);
        assert!(plan.links.is_empty());
        plan.validate().unwrap();
    }

    #[test]
    fn singleton_vs_singleton_links_once() {
        let h1 = refs(&[0], 2, 0, |_| 5);
        let h2 = refs(&[0], 2, 1000, |_| 3);
        let plan = build_plan_seq(&h1, &h2);
        assert_eq!(plan.links.len(), 1);
        let l = plan.links[0];
        // Winner is the key-3 root from H2.
        assert_eq!(l.parent, h2[0].unwrap().id);
        assert_eq!(l.child, h1[0].unwrap().id);
        assert_eq!(l.slot, 0);
        assert_eq!(plan.new_roots[1], Some(h2[0].unwrap().id));
        assert_eq!(plan.new_roots[0], None);
    }

    #[test]
    fn tie_break_prefers_h1() {
        let h1 = refs(&[0], 2, 0, |_| 5);
        let h2 = refs(&[0], 2, 1000, |_| 5);
        let plan = build_plan_seq(&h1, &h2);
        assert_eq!(plan.links[0].parent, h1[0].unwrap().id);
        assert_eq!(plan.links[0].child, h2[0].unwrap().id);
    }
}
