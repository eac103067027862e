//! `Arrange-Heap` (paper §4.2): the periodic global rebuild.
//!
//! 1. **Distance computation** (CREW): each empty marker climbs to its root
//!    recording depth — charged per the paper's schedule.
//! 2. **Pipelined bubble-up** (Fact 3): markers sorted by distance, nearest
//!    first, swap upward through live ancestors; afterwards the empty
//!    positions form an upward-closed *crown* containing the root of every
//!    dirty tree, and every live node owns an all-live subtree.
//! 3. **Regeneration**: the live child lists `L` of the crown nodes are
//!    combined by a balanced binary tree of `Union`s into `H'` (each round's
//!    unions run concurrently — time is the round maximum, work the sum),
//!    then `H'` melds with the untouched trees of `H`. Every `Union` here is
//!    measured on the PRAM simulator.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use pram::Cost;

use crate::arena::NodeId;
use crate::lazy::meter::CostMeter;
use crate::lazy::{LazyBinomialHeap, OpKind};

impl LazyBinomialHeap {
    /// Release all persistent empty nodes and regenerate the heap.
    pub fn arrange_heap(&mut self) {
        let _sp = obs::span("lazy/arrange_heap");
        let mut meter = CostMeter::new(self.p);

        // ---- gather the live set of empty markers ----
        let mut empties: Vec<NodeId> = std::mem::take(&mut self.del_buffer)
            .into_iter()
            .filter(|&id| self.arena.contains(id) && self.is_empty_node(id))
            .collect();
        empties.sort_unstable();
        empties.dedup();
        self.deleted_since_arrange = 0;
        if empties.is_empty() {
            self.cost_log.push((OpKind::ArrangeHeap, meter.total()));
            return;
        }

        // ---- 1. distances: a measured CREW PRAM program (converging
        //         ancestor paths read cells concurrently) ----
        let sp_stage = obs::span("distance");
        let (depths, dist_cost) = match self.distances_pram(&empties, self.p, pram::Model::Crew) {
            Ok(found) => found,
            // Processors only read ancestor cells and write nothing shared:
            // CREW admits every such step.
            Err(e) => unreachable!("the distance program is CREW-legal: {e}"),
        };
        meter.add(dist_cost);
        // Roots of the dirty trees (host bookkeeping; the climb itself was
        // charged above).
        let mut dirty_roots: Vec<NodeId> = empties
            .iter()
            .map(|&e| {
                let mut cur = e;
                while let Some(p) = self.parent_of(cur) {
                    cur = p;
                }
                cur
            })
            .collect();

        // ---- 2. pipelined bubble-up: a measured PRAM program whose
        //         conflict-freedom (Fact 3) the simulator verifies ----
        drop(sp_stage);
        let sp_stage = obs::span("bubble_up");
        let mut order: Vec<(usize, NodeId)> = depths
            .iter()
            .copied()
            .zip(empties.iter().copied())
            .collect();
        order.sort_unstable_by_key(|(d, id)| (*d, id.0));
        let markers: Vec<NodeId> = order.into_iter().map(|(_, id)| id).collect();
        let out = match self.bubble_up_pram(&markers, self.p, pram::Model::Crew) {
            Ok(out) => out,
            // The schedule admits a swap only when its two cells are
            // untouched this round, so no step has a conflict.
            Err(e) => unreachable!("the pipelined swap schedule is conflict-free (Fact 3): {e}"),
        };
        meter.add(out.cost);
        let crown = out.crown;
        dirty_roots.sort_unstable();
        dirty_roots.dedup();
        debug_assert!(
            dirty_roots.iter().all(|&r| self.is_empty_node(r)),
            "the shallowest marker of every dirty tree must reach its root"
        );

        drop(sp_stage);
        let sp_stage = obs::span("regenerate");
        // ---- 3a. collect the live child lists of the crown ----
        let mut lists: Vec<Vec<Option<NodeId>>> = Vec::with_capacity(crown.len());
        for &c in &crown {
            let list = self.live_view(c);
            for &r in list.iter().flatten() {
                self.orphan(r);
            }
            if list.iter().any(|r| r.is_some()) {
                lists.push(list);
            }
            meter.charge_par(self.arena.get(c).degree());
        }
        // Free the crown itself.
        for &c in &crown {
            self.arena.dealloc(c);
        }

        // ---- 3b. detach dirty trees from H ----
        for &r in &dirty_roots {
            if let Some(slot) = self.roots.iter_mut().find(|s| **s == Some(r)) {
                *slot = None;
            }
        }
        while matches!(self.roots.last(), Some(None)) {
            self.roots.pop();
        }

        // ---- 3c. balanced binary tree of Unions over the lists ----
        let p_total = self.p;
        let mut round = lists;
        while round.len() > 1 {
            let pairs = round.len() / 2;
            let p_eff = (p_total / pairs.max(1)).max(1);
            let mut next: Vec<Vec<Option<NodeId>>> = Vec::with_capacity(round.len().div_ceil(2));
            let mut round_time = 0u64;
            let mut round_work = 0u64;
            let mut it = round.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => {
                        let (merged, c) = self.union(a, &b, p_eff);
                        round_time = round_time.max(c.time);
                        round_work += c.work;
                        next.push(merged);
                    }
                    None => next.push(a),
                }
            }
            meter.add(Cost {
                time: round_time,
                work: round_work,
            });
            round = next;
        }

        // ---- 3d. meld H' with the untouched trees ----
        if let Some(h_prime) = round.pop() {
            let old = std::mem::take(&mut self.roots);
            let (roots, c) = self.union(old, &h_prime, p_total);
            self.roots = roots;
            meter.add(c);
        }

        drop(sp_stage);
        self.cost_log.push((OpKind::ArrangeHeap, meter.total()));
        debug_assert!(self.validate().is_ok(), "{:?}", self.validate());
        self.debug_validate();
    }
}

#[cfg(test)]
mod tests {
    use crate::lazy::{LazyBinomialHeap, OpKind};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn arrange_clears_all_empties() {
        let mut h = LazyBinomialHeap::new(2);
        let ids: Vec<_> = (0..32).map(|k| h.insert(k)).collect();
        // Delete a few internal nodes but stay under the threshold, then
        // force the rebuild directly.
        let mut deleted = Vec::new();
        for &id in ids.iter().rev() {
            if h.parent_of(id).is_some() {
                h.delete(id);
                deleted.push(id);
                if deleted.len() == 2 {
                    break;
                }
            }
        }
        h.arrange_heap();
        h.validate().unwrap();
        assert!(h.del_buffer.is_empty());
        // No empty nodes remain anywhere.
        for slot in 0..64u32 {
            let id = crate::arena::NodeId(slot);
            if h.arena.contains(id) {
                assert!(!h.is_empty_node(id));
            }
        }
        assert_eq!(h.len(), 30);
    }

    #[test]
    fn arrange_on_clean_heap_is_noop() {
        let mut h = LazyBinomialHeap::new(2);
        for k in 0..10 {
            h.insert(k);
        }
        let before = h.len();
        h.arrange_heap();
        h.validate().unwrap();
        assert_eq!(h.len(), before);
        assert_eq!(h.into_sorted_vec(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn randomized_delete_storm_stays_consistent() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..10 {
            let n = rng.gen_range(8usize..200);
            let mut h = LazyBinomialHeap::new(rng.gen_range(1usize..6));
            let mut live: Vec<(crate::arena::NodeId, i64)> = Vec::new();
            for _ in 0..n {
                let k = rng.gen_range(-1000i64..1000);
                live.push((h.insert(k), k));
            }
            // Randomly delete half of the keys by handle; handles are only
            // valid until the next arrange, so refresh liveness each time.
            let mut expected: Vec<i64> = live.iter().map(|(_, k)| *k).collect();
            let mut deletions = n / 2;
            while deletions > 0 {
                let idx = rng.gen_range(0..live.len());
                let (id, k) = live[idx];
                if h.key_of(id) == Some(k) {
                    h.delete(id);
                    h.validate().expect("invariant violated");
                    live.swap_remove(idx);
                    let pos = expected.iter().position(|&e| e == k).expect("key tracked");
                    expected.swap_remove(pos);
                    deletions -= 1;
                } else {
                    // Handle invalidated by arrange; drop it from the pool.
                    live.swap_remove(idx);
                    if live.is_empty() {
                        break;
                    }
                }
            }
            expected.sort_unstable();
            assert_eq!(h.into_sorted_vec(), expected, "trial {trial}");
        }
    }

    #[test]
    fn arrange_cost_recorded_with_union_rounds() {
        let mut h = LazyBinomialHeap::new(4);
        let ids: Vec<_> = (0..64).map(|k| h.insert(k)).collect();
        for &id in ids.iter().rev().take(20) {
            if h.key_of(id).is_some() && h.parent_of(id).is_some() {
                h.delete(id);
            }
        }
        let arranges: Vec<_> = h
            .cost_log()
            .iter()
            .filter(|(k, _)| *k == OpKind::ArrangeHeap)
            .collect();
        assert!(!arranges.is_empty());
        assert!(arranges.iter().any(|(_, c)| c.time > 0));
    }
}
