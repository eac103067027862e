//! Workspace-wide invariant checking.
//!
//! The engines of this crate carry a `validate()` method checking their own
//! representation. This module layers on top of those:
//!
//! * [`check_heap`] / [`check_lazy`] / [`check_plan`] — *deep* checks that
//!   re-derive redundant facts (binary-representation isomorphism, the
//!   carry recurrence, deletion-buffer hygiene) instead of trusting the
//!   structure's own bookkeeping;
//! * [`crate::MeldablePq::check_invariants`] — one spelling for "assert
//!   everything you know about yourself", required of every queue in the
//!   workspace, so harnesses like the differential fuzzer and the service
//!   layer can validate heterogeneous fleets through one interface (the
//!   heap and lazy impls delegate to the deep checks here);
//! * the `debug-validate` cargo feature — when enabled, the hot paths
//!   (`meld`, `extract_min`, `insert`, `delete`, `arrange_heap`) run these
//!   checks after every mutation and panic on the first violation. CI runs
//!   the core test suite once with the feature on; release builds pay
//!   nothing.
//!
//! The checks return `Err(String)` with a human-readable reason rather than
//! panicking, so property tests can assert on the message.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashSet;

use crate::heap::ParBinomialHeap;
use crate::lazy::LazyBinomialHeap;
use crate::plan::{classify_point, PointType, UnionPlan};
use crate::pool::{HeapPool, PooledHeap};

/// Deep check of a [`ParBinomialHeap`]: [`HeapPool::validate_heap`] on its
/// one heap (BH1 heap order, BH2 shapes, parent pointers, the exact cached
/// min, and the binary-representation isomorphism — the orders present in
/// `H` are exactly the set bits of `len`, paper §2), plus no stray node in
/// its slab.
pub fn check_heap<K: Ord + Copy>(h: &ParBinomialHeap<K>) -> Result<(), String> {
    h.validate()
}

/// Deep check of a [`LazyBinomialHeap`]: the structure's own `validate`
/// (Invariants 1.2/1.3, live heap order, live roots, ledgers) plus
/// deletion-buffer hygiene — every `Del`-buffer entry that still exists
/// must be an empty marker (a live entry would mean a deletion was
/// recorded but never performed).
pub fn check_lazy(h: &LazyBinomialHeap) -> Result<(), String> {
    h.validate()?;
    for (i, d) in h.del_buffer.iter().enumerate() {
        if h.key_of(*d).is_some() {
            return Err(format!(
                "Del buffer entry {i} ({d:?}) refers to a live node"
            ));
        }
    }
    Ok(())
}

/// Deep check of a [`UnionPlan`]: the plan's own `validate` (sum-bit/H
/// agreement, link count, slot ordering) plus a re-derivation of Phase I
/// from the presence bits — the carry recurrence, sum bits, point
/// classification and segment limits must all be consistent, and every
/// Phase II winner slot must match the presence bits.
pub fn check_plan<K: Ord + Copy>(plan: &UnionPlan<K>) -> Result<(), String> {
    plan.validate()?;
    let w = plan.width;
    for (name, len) in [
        ("a", plan.a.len()),
        ("b", plan.b.len()),
        ("g", plan.g.len()),
        ("p", plan.p.len()),
        ("c", plan.c.len()),
        ("s", plan.s.len()),
        ("class", plan.class.len()),
        ("i_lim", plan.i_lim.len()),
        ("i_value_b", plan.i_value_b.len()),
        ("i_value_a", plan.i_value_a.len()),
        ("new_roots", plan.new_roots.len()),
    ] {
        if len != w {
            return Err(format!("vector {name} has length {len}, width is {w}"));
        }
    }
    for i in 0..w {
        let c_prev = i > 0 && plan.c[i - 1];
        let p_next = i + 1 < w && plan.p[i + 1];
        if plan.g[i] != (plan.a[i] && plan.b[i]) {
            return Err(format!("position {i}: g != a∧b"));
        }
        if plan.p[i] != (plan.a[i] ^ plan.b[i]) {
            return Err(format!("position {i}: p != a⊕b"));
        }
        if plan.c[i] != (plan.g[i] || (plan.p[i] && c_prev)) {
            return Err(format!("position {i}: carry recurrence broken"));
        }
        if plan.s[i] != (plan.p[i] ^ c_prev) {
            return Err(format!("position {i}: s != p⊕c_prev"));
        }
        if plan.class[i] != classify_point(plan.g[i], plan.p[i], c_prev, p_next) {
            return Err(format!("position {i}: classification mismatch"));
        }
        if plan.i_lim[i] == (plan.p[i] && c_prev) {
            return Err(format!("position {i}: segment limit mismatch"));
        }
        // A winner exists exactly where at least one tree sits.
        if plan.i_value_b[i].is_some() != (plan.a[i] || plan.b[i]) {
            return Err(format!("position {i}: winner/presence mismatch"));
        }
        // Chain positions always carry a dominant root.
        if matches!(plan.class[i], PointType::Internal | PointType::End)
            && plan.i_value_a[i].is_none()
        {
            return Err(format!("position {i}: chain position without dominant"));
        }
    }
    // The top position never carries out (widths are chosen to fit n1+n2).
    if w > 0 && plan.c[w - 1] {
        return Err("carry out of the top position".into());
    }
    Ok(())
}

/// Deep check of a [`HeapPool`] against the full set of heaps it is
/// supposed to hold: every heap passes [`HeapPool::validate_heap`]
/// (ownership stamp, BH1/BH2, binary representation), **no node is
/// reachable from two heaps** (the aliasing hazard of the shared-slab
/// representation — a corrupted meld could splice one tree under two
/// parents), and the heaps together account for every live node of the
/// pool (no leaks, no strays).
pub fn check_pool<K: Ord + Copy>(pool: &HeapPool<K>, heaps: &[&PooledHeap]) -> Result<(), String> {
    let mut seen: HashSet<u32> = HashSet::new();
    let mut ids = Vec::new();
    for (hi, h) in heaps.iter().enumerate() {
        pool.validate_heap(h)
            .map_err(|e| format!("heap {hi}: {e}"))?;
        ids.clear();
        pool.collect_node_ids(h, &mut ids);
        for id in &ids {
            if !seen.insert(id.0) {
                return Err(format!(
                    "node {id:?} is reachable from heap {hi} and an earlier heap \
                     (cross-heap aliasing)"
                ));
            }
        }
    }
    if seen.len() != pool.live_nodes() {
        return Err(format!(
            "pool holds {} live nodes but the heaps account for {} \
             (leaked or stray nodes in the slab)",
            pool.live_nodes(),
            seen.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plan_seq, RootRef};
    use crate::MeldablePq;
    use crate::NodeId;

    fn refs(present_mask: usize, width: usize, base: u32) -> Vec<Option<RootRef>> {
        (0..width)
            .map(|i| {
                (present_mask >> i & 1 == 1).then_some(RootRef {
                    key: (base as i64) * 100 + i as i64,
                    id: NodeId(base + i as u32),
                })
            })
            .collect()
    }

    #[test]
    fn deep_checks_accept_healthy_structures() {
        let h = ParBinomialHeap::from_keys(0..13);
        check_heap(&h).unwrap();
        h.check_invariants().unwrap();

        let mut lz = LazyBinomialHeap::new(2);
        let ids: Vec<NodeId> = (0..16).map(|k| lz.insert(k)).collect();
        lz.delete(ids[15]);
        check_lazy(&lz).unwrap();
        lz.check_invariants().unwrap();

        let plan = build_plan_seq(&refs(0b1011, 5, 0), &refs(0b0110, 5, 100));
        check_plan(&plan).unwrap();
    }

    #[test]
    fn plan_check_catches_carry_corruption() {
        let mut plan = build_plan_seq(&refs(0b1011, 5, 0), &refs(0b0110, 5, 100));
        plan.c[1] = !plan.c[1];
        let err = check_plan(&plan).unwrap_err();
        assert!(err.contains("carry") || err.contains("s !="), "got: {err}");
    }

    #[test]
    fn plan_check_catches_classification_corruption() {
        let mut plan = build_plan_seq(&refs(0b1011, 5, 0), &refs(0b0110, 5, 100));
        // Find a non-Independent point and flip it.
        let i = plan
            .class
            .iter()
            .position(|c| *c != PointType::Independent)
            .expect("this shape has chain points");
        plan.class[i] = PointType::Independent;
        let err = check_plan(&plan).unwrap_err();
        assert!(
            err.contains("classification") || err.contains("links"),
            "got: {err}"
        );
    }

    #[test]
    fn plan_check_catches_length_mismatch() {
        let mut plan = build_plan_seq(&refs(0b1011, 5, 0), &refs(0b0110, 5, 100));
        plan.g.push(false);
        assert!(check_plan(&plan).unwrap_err().contains("length"));
    }

    #[test]
    fn pool_check_accepts_healthy_pools_and_finds_leaks() {
        let mut pool: HeapPool<i64> = HeapPool::new();
        let mut a = pool.from_keys(0..9);
        let b = pool.from_keys(20..25);
        check_pool(&pool, &[&a, &b]).unwrap();
        pool.meld(&mut a, b);
        check_pool(&pool, &[&a]).unwrap();
        // A heap the caller forgot to list shows up as leaked nodes.
        let c = pool.from_keys([99]);
        let err = check_pool(&pool, &[&a]).unwrap_err();
        assert!(err.contains("account for"), "got: {err}");
        check_pool(&pool, &[&a, &c]).unwrap();
    }

    #[test]
    fn pool_check_catches_cross_heap_aliasing() {
        let mut pool: HeapPool<i64> = HeapPool::new();
        let a = pool.from_keys([1, 2, 3, 4]);
        // Listing the same heap twice makes every node "shared" — the exact
        // signature of a meld that left a tree reachable from two handles.
        let err = check_pool(&pool, &[&a, &a]).unwrap_err();
        assert!(err.contains("aliasing"), "got: {err}");
    }

    #[test]
    fn lazy_check_catches_stale_del_buffer() {
        let mut lz = LazyBinomialHeap::new(2);
        let ids: Vec<NodeId> = (0..8).map(|k| lz.insert(k)).collect();
        // Record a deletion that never happened.
        lz.del_buffer.push(ids[3]);
        assert!(check_lazy(&lz).unwrap_err().contains("live node"));
    }
}
