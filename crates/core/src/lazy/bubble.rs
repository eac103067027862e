//! The Arrange-Heap bubble-up as a *PRAM program* — Fact 3, machine-checked.
//!
//! The paper claims (Fact 3) that if the empty markers are ordered by their
//! distance from the roots and the swap operations are scheduled in a
//! pipelined manner (nearest markers first), no two processors ever access
//! the same node in a step. This module makes that claim executable:
//!
//! * [`LazyBinomialHeap::distances_pram`] — the distance computation: every
//!   marker climbs its ancestor chain one level per step. Converging paths
//!   *read the same ancestor cell concurrently*, which is exactly why the
//!   paper needs the CREW model here; a test in this module shows the same
//!   program aborts with a read conflict under EREW.
//! * [`LazyBinomialHeap::bubble_up_pram`] — the pipelined bubble-up: marker
//!   `i` (in `(distance, id)` order) starts two rounds after marker `i-1`
//!   and swaps contents with its live parent once per round; blocked markers
//!   (parent currently empty) resume when the occupant moves on, or settle
//!   when the occupant has settled. The stagger keeps any two moving markers
//!   at least two levels apart, so every round's access set is disjoint —
//!   the simulator verifies this on every run (the swap rounds are in fact
//!   EREW-legal; only the distance phase needs CREW).
//!
//! Costs are *measured* simulator costs; `arrange.rs` charges them instead
//! of analytic estimates.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;

use pram::{Cost, Model, Pram, PramError, Word, NIL};

use crate::arena::NodeId;
use crate::lazy::{LazyBinomialHeap, EMPTY_KEY};

/// Result of the measured bubble-up.
#[derive(Debug, Clone)]
pub struct BubbleOutcome {
    /// Measured PRAM cost of the swap schedule.
    pub cost: Cost,
    /// Total content swaps performed.
    pub swaps: usize,
    /// Final marker positions (the crown).
    pub crown: Vec<NodeId>,
}

/// Per-node PRAM record: `[key, empty, parent_index]`. The arena marks an
/// empty node by its key alone (`EMPTY_KEY`); the image also carries the
/// flag word, which each swap writes as in the paper's schedule.
const REC: usize = 3;

struct Image {
    m: Pram,
    base: usize,
    index: HashMap<NodeId, usize>,
    nodes: Vec<NodeId>,
}

impl LazyBinomialHeap {
    /// Nodes on the root paths of the markers (the cells the programs touch).
    fn path_closure(&self, markers: &[NodeId]) -> Vec<NodeId> {
        let mut seen: HashMap<NodeId, ()> = HashMap::new();
        let mut order = Vec::new();
        for &m in markers {
            let mut cur = Some(m);
            while let Some(id) = cur {
                if seen.insert(id, ()).is_some() {
                    break;
                }
                order.push(id);
                cur = self.parent_of(id);
            }
        }
        order
    }

    fn build_image(&self, model: Model, p: usize, markers: &[NodeId]) -> Image {
        let nodes = self.path_closure(markers);
        let index: HashMap<NodeId, usize> =
            nodes.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut m = Pram::new(model, p);
        let base = m.alloc(nodes.len() * REC, 0);
        for (i, &id) in nodes.iter().enumerate() {
            let n = self.arena.get(id);
            m.host_write(base + i * REC, n.key);
            m.host_write(base + i * REC + 1, Word::from(n.key == EMPTY_KEY));
            let parent_idx = n
                .parent()
                .and_then(|pid| index.get(&pid).copied())
                .map_or(NIL, |x| x as Word);
            m.host_write(base + i * REC + 2, parent_idx);
        }
        m.reset_cost();
        Image {
            m,
            base,
            index,
            nodes,
        }
    }

    /// Measured CREW distance computation: returns `(depths, cost)` for the
    /// markers, in input order. Fails with a read conflict if run under EREW
    /// and two markers' ancestor paths converge at the same step.
    pub fn distances_pram(
        &self,
        markers: &[NodeId],
        p: usize,
        model: Model,
    ) -> Result<(Vec<usize>, Cost), PramError> {
        let mut img = self.build_image(model, p, markers);
        // Per-marker register: current position index (processor-local).
        let mut pos: Vec<Option<usize>> = markers.iter().map(|id| Some(img.index[id])).collect();
        let mut depth = vec![0usize; markers.len()];
        loop {
            // The active markers this wave, with their positions
            // (Brent-scheduled over p).
            let live: Vec<(usize, usize)> = pos
                .iter()
                .enumerate()
                .filter_map(|(i, at)| at.map(|at| (i, at)))
                .collect();
            if live.is_empty() {
                break;
            }
            let base = img.base;
            let mut next: Vec<(usize, Word)> = Vec::with_capacity(live.len());
            {
                let mut sink = |i: usize, w: Word| next.push((i, w));
                for batch in live.chunks(p) {
                    img.m.step(batch.len(), |slot, ctx| {
                        let (i, at) = batch[slot];
                        let parent = ctx.read(base + at * REC + 2)?;
                        sink(i, parent);
                        Ok(())
                    })?;
                }
            }
            for (i, parent) in next {
                if parent == NIL {
                    pos[i] = None;
                } else {
                    pos[i] = Some(parent as usize);
                    depth[i] += 1;
                }
            }
        }
        Ok((depth, img.m.cost()))
    }

    /// Measured pipelined bubble-up (Fact 3). `markers` must be sorted by
    /// `(distance, id)` — the order the paper prescribes. The arena is
    /// updated from the final PRAM image; returns the measured cost and the
    /// crown (final marker positions).
    pub fn bubble_up_pram(
        &mut self,
        markers: &[NodeId],
        p: usize,
        model: Model,
    ) -> Result<BubbleOutcome, PramError> {
        if markers.is_empty() {
            return Ok(BubbleOutcome {
                cost: Cost::ZERO,
                swaps: 0,
                crown: Vec::new(),
            });
        }
        let mut img = self.build_image(model, p, markers);
        let base = img.base;

        // Host-side schedule state (mirrors emptiness; contents stay in PRAM
        // memory only).
        let mut pos: Vec<NodeId> = markers.to_vec();
        let mut done = vec![false; markers.len()];
        // Which marker currently occupies a node (for settle cascades).
        let mut occupant: HashMap<NodeId, usize> =
            markers.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut round = 0usize;
        let mut swaps = 0usize;
        while done.iter().any(|d| !d) {
            // Settle cascade: marker at a root settles; a marker blocked on a
            // settled occupant settles too.
            loop {
                let mut changed = false;
                for i in 0..markers.len() {
                    if done[i] {
                        continue;
                    }
                    match self.parent_of(pos[i]) {
                        None => {
                            done[i] = true;
                            changed = true;
                        }
                        Some(par) => {
                            if let Some(&j) = occupant.get(&par) {
                                if done[j] {
                                    done[i] = true;
                                    changed = true;
                                }
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            // Select this round's swaps: started, unblocked, disjoint cells.
            let mut touched: HashMap<NodeId, ()> = HashMap::new();
            let mut active: Vec<(usize, NodeId, NodeId)> = Vec::new();
            for i in 0..markers.len() {
                if done[i] || round < 2 * i {
                    continue;
                }
                let Some(par) = self.parent_of(pos[i]) else {
                    continue;
                };
                if occupant.contains_key(&par) {
                    continue; // blocked: the node above is empty
                }
                if touched.contains_key(&pos[i]) || touched.contains_key(&par) {
                    continue; // defer to keep the round conflict-free
                }
                touched.insert(pos[i], ());
                touched.insert(par, ());
                active.push((i, pos[i], par));
            }
            if !active.is_empty() {
                // Execute the swaps as PRAM steps (Brent-scheduled waves).
                let index = &img.index;
                let mut k = 0usize;
                while k < active.len() {
                    let batch: Vec<(usize, NodeId, NodeId)> =
                        active[k..(k + p).min(active.len())].to_vec();
                    img.m.step(batch.len(), |slot, ctx| {
                        let (_, v, u) = batch[slot];
                        let vi = index[&v];
                        let ui = index[&u];
                        // Swap: the live parent key sinks into v; u empties.
                        let parent_key = ctx.read(base + ui * REC)?;
                        ctx.write(base + vi * REC, parent_key)?;
                        ctx.write(base + vi * REC + 1, 0)?;
                        ctx.write(base + ui * REC, EMPTY_KEY)?;
                        ctx.write(base + ui * REC + 1, 1)?;
                        Ok(())
                    })?;
                    k += batch.len();
                }
                for (i, v, u) in active {
                    occupant.remove(&v);
                    occupant.insert(u, i);
                    pos[i] = u;
                    swaps += 1;
                }
            }
            round += 1;
            assert!(
                round <= 4 * markers.len() + 4 * img.nodes.len() + 8,
                "bubble-up schedule failed to converge"
            );
        }

        // Read the final keys back into the arena; an emptied node reads
        // back `EMPTY_KEY`.
        let cost = img.m.cost();
        for (i, &id) in img.nodes.iter().enumerate() {
            self.arena.get_mut(id).key = img.m.host_read(base + i * REC);
        }
        Ok(BubbleOutcome {
            cost,
            swaps,
            crown: pos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram::Model;

    /// Build a lazy heap with some deleted internal nodes and return the
    /// empties.
    fn dirty_heap(n: usize, deletes: usize) -> (LazyBinomialHeap, Vec<NodeId>) {
        let mut h = LazyBinomialHeap::new(4);
        h.set_auto_arrange(false);
        let ids: Vec<NodeId> = (0..n as i64).map(|k| h.insert(k)).collect();
        let mut empties = Vec::new();
        for id in ids.iter().rev() {
            if empties.len() == deletes {
                break;
            }
            if h.key_of(*id).is_some() && h.parent_of(*id).is_some() {
                h.delete(*id);
                empties.push(*id);
            }
        }
        (h, empties)
    }

    fn sorted_markers(h: &LazyBinomialHeap, empties: &[NodeId]) -> Vec<NodeId> {
        let mut with_depth: Vec<(usize, NodeId)> = empties
            .iter()
            .map(|&e| {
                let mut d = 0;
                let mut cur = e;
                while let Some(p) = h.parent_of(cur) {
                    d += 1;
                    cur = p;
                }
                (d, e)
            })
            .collect();
        with_depth.sort_unstable_by_key(|(d, id)| (*d, id.0));
        with_depth.into_iter().map(|(_, id)| id).collect()
    }

    #[test]
    fn distances_match_host_computation() {
        let (h, empties) = dirty_heap(64, 4);
        let (depths, cost) = h
            .distances_pram(&empties, 2, Model::Crew)
            .expect("CREW-legal");
        for (i, &e) in empties.iter().enumerate() {
            let mut d = 0;
            let mut cur = e;
            while let Some(p) = h.parent_of(cur) {
                d += 1;
                cur = p;
            }
            assert_eq!(depths[i], d);
        }
        assert!(cost.time > 0);
    }

    #[test]
    fn converging_paths_need_crew() {
        // Two sibling leaves of one B_k share every ancestor above their
        // parents; climbing in lockstep forces a concurrent read.
        let (h, empties) = dirty_heap(64, 6);
        let crew = h.distances_pram(&empties, 8, Model::Crew);
        assert!(crew.is_ok(), "CREW must accept the distance program");
        let erew = h.distances_pram(&empties, 8, Model::Erew);
        assert!(
            erew.is_err(),
            "EREW must reject converging ancestor reads (the paper's reason \
             for requiring CREW)"
        );
    }

    #[test]
    fn bubble_up_reaches_fixed_point_and_preserves_keys() {
        let (mut h, empties) = dirty_heap(128, 5);
        // Sum of live keys as a cheap multiset fingerprint, computed from
        // the inserts rather than read back from the heap, so it also
        // checks that the Take-Ups kept every live key: `dirty_heap` hands
        // out ids 0..n in order and frees nothing, so a deleted node's key
        // was its id.
        let live_before =
            (0..128i64).sum::<i64>() - empties.iter().map(|e| i64::from(e.0)).sum::<i64>();
        let markers = sorted_markers(&h, &empties);
        let out = h
            .bubble_up_pram(&markers, 4, Model::Crew)
            .expect("CREW-legal");
        assert_eq!(out.crown.len(), markers.len());
        assert!(out.swaps > 0);
        // Fixed point: every empty node's parent is empty or it is a root.
        let mut live_after = 0i64;
        for slot in 0..512u32 {
            let id = NodeId(slot);
            if !h.node_exists(id) {
                continue;
            }
            if h.is_empty_node(id) {
                if let Some(p) = h.parent_of(id) {
                    assert!(h.is_empty_node(p), "upward-closed crown violated");
                }
            } else {
                live_after += h.key_of(id).expect("live node");
            }
        }
        assert_eq!(live_after, live_before, "live key multiset changed");
    }

    #[test]
    fn bubble_up_swap_rounds_are_erew_legal() {
        // Fact 3's stronger reading: the *swap* schedule itself never
        // double-touches a node, so it passes even EREW.
        let (mut h, empties) = dirty_heap(256, 7);
        let markers = sorted_markers(&h, &empties);
        h.bubble_up_pram(&markers, 4, Model::Erew)
            .expect("the pipelined swap schedule is EREW-legal");
    }

    /// The negative side of Fact 3: a *naive* schedule that swaps all
    /// markers at once violates exclusivity as soon as two empties share a
    /// live parent — the simulator rejects it with a write conflict. This is
    /// why the paper insists on the distance-ordered pipeline.
    #[test]
    fn naive_simultaneous_schedule_is_rejected() {
        use pram::{Pram, Word};
        // A live parent cell plus two empty children, swapped concurrently.
        let mut m = Pram::new(Model::Crew, 2);
        let parent = m.alloc_init(&[50, 0]); // key, empty
        let child_a = m.alloc_init(&[EMPTY_KEY, 1]);
        let child_b = m.alloc_init(&[EMPTY_KEY, 1]);
        let children = [child_a, child_b];
        let err = m
            .step(2, |pid, ctx| {
                let me = children[pid];
                let pk = ctx.read(parent)?;
                ctx.write(me, pk)?;
                ctx.write(me + 1, 0)?;
                ctx.write(parent, EMPTY_KEY as Word)?;
                ctx.write(parent + 1, 1)?;
                Ok(())
            })
            .unwrap_err();
        assert!(
            matches!(err, pram::PramError::WriteConflict { .. }),
            "both children writing the parent must collide: {err:?}"
        );
    }

    #[test]
    fn empty_marker_set_is_noop() {
        let (mut h, _) = dirty_heap(16, 0);
        let out = h.bubble_up_pram(&[], 2, Model::Crew).unwrap();
        assert_eq!(out.swaps, 0);
        assert_eq!(out.cost, Cost::ZERO);
    }
}
