//! Parallel `Make-Queue` from `n` keys — the paper's operation 1, made
//! concrete with the classic optimal-initialization strategy (cf. the
//! paper's reference \[8], Olariu & Wen): decompose `n` into its binary
//! representation, carve the key sequence into one segment per set bit, and
//! build each `B_i` by `i` rounds of pairwise linking. All rounds across all
//! trees run concurrently, so with `p` processors the whole build takes
//! `O(n/p + log n)` time and `O(n)` work — measured here on the EREW
//! simulator (`ParBinomialHeap::from_keys_pram`), with a rayon twin for
//! wall clock (`HeapPool::from_keys_parallel`).
//!
//! The PRAM program per round: one processor per surviving pair reads the
//! two roots' keys and writes the comparison outcome; the host mirrors the
//! winning links into the pool's slab through `pool::link`, whose tie rule
//! (the left root wins equal keys) is the program's. Each round's reads and
//! writes are disjoint across pairs, so the program is EREW-legal —
//! machine-checked on every run.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use pram::{Cost, Model, Pram, PramError, Word};

use crate::arena::NodeId;
use crate::pool::{link, HeapPool, PooledHeap};

impl HeapPool<i64> {
    /// Build a heap of this pool from `keys` with the linking rounds
    /// executed (and metered) on a `p`-processor EREW PRAM. Returns the
    /// heap and the measured cost.
    pub(crate) fn build_pram(
        &mut self,
        keys: &[i64],
        p: usize,
    ) -> Result<(PooledHeap, Cost), PramError> {
        let n = keys.len();
        if n == 0 {
            return Ok((self.new_heap(), Cost::ZERO));
        }
        // Host: allocate every node; lay the keys out in PRAM memory.
        let arena = self.arena_mut();
        let ids: Vec<NodeId> = keys.iter().map(|&k| arena.alloc(k)).collect();
        let mut m = Pram::new(Model::Erew, p);
        let key_base = m.alloc_init(
            keys.iter()
                .map(|&k| k as Word)
                .collect::<Vec<_>>()
                .as_slice(),
        );
        // Decision buffer: one word per pair per round (reused).
        let max_pairs = n / 2;
        let dec = m.alloc(max_pairs.max(1), 0);
        m.reset_cost();

        // Segment the keys: the lowest set bit takes the first 2^i keys, etc.
        // (Any fixed assignment works; this one keeps segments contiguous.)
        let mut segments: Vec<(usize, usize)> = Vec::new(); // (start, order)
        let mut start = 0usize;
        for i in 0..usize::BITS as usize {
            if n >> i & 1 == 1 {
                segments.push((start, i));
                start += 1 << i;
            }
        }

        // Current roots per segment: initially every key is a B_0 root.
        // roots[s] = list of live tree roots (as index into ids/keys).
        let mut roots: Vec<Vec<usize>> = segments
            .iter()
            .map(|&(start, order)| (start..start + (1 << order)).collect())
            .collect();

        // Rounds: while any segment still has more than one root, link its
        // roots pairwise. All segments' pairs share each round.
        loop {
            let mut pairs: Vec<(usize, usize)> = Vec::new(); // (left idx, right idx)
            for seg in &roots {
                debug_assert!(seg.len().is_power_of_two());
                if seg.len() > 1 {
                    for c in seg.chunks(2) {
                        pairs.push((c[0], c[1]));
                    }
                }
            }
            if pairs.is_empty() {
                break;
            }
            // PRAM: each pair's processor reads both keys, writes 0/1.
            let mut k = 0usize;
            while k < pairs.len() {
                let batch = &pairs[k..(k + p).min(pairs.len())];
                let base = k;
                m.step(batch.len(), |slot, ctx| {
                    let (a, b) = batch[slot];
                    let ka = ctx.read(key_base + a)?;
                    let kb = ctx.read(key_base + b)?;
                    // Tie rule: the left (earlier) root wins, matching the
                    // planners.
                    ctx.write(dec + base + slot, (kb < ka) as Word)
                })?;
                k += batch.len();
            }
            // Host: apply the links and shrink the root lists.
            let mut pair_idx = 0usize;
            for seg in roots.iter_mut() {
                if seg.len() <= 1 {
                    continue;
                }
                let mut next = Vec::with_capacity(seg.len() / 2);
                for c in seg.chunks(2) {
                    let right_wins = m.host_read(dec + pair_idx) != 0;
                    pair_idx += 1;
                    let win = if right_wins { c[1] } else { c[0] };
                    let linked = link(self.arena_mut(), ids[c[0]], ids[c[1]]);
                    debug_assert_eq!(linked, ids[win], "PRAM and host tie rules agree");
                    next.push(win);
                }
                *seg = next;
            }
            debug_assert_eq!(pair_idx, pairs.len());
        }

        // Install the root array: one tree per set bit of `n`.
        let mut heap_roots = vec![None; usize::BITS as usize - n.leading_zeros() as usize];
        for (seg, &(_, order)) in roots.iter().zip(&segments) {
            debug_assert_eq!(seg.len(), 1);
            heap_roots[order] = Some(ids[seg[0]]);
        }
        let heap = self.restore_heap(heap_roots, n);
        self.debug_validate(&heap);
        Ok((heap, m.cost()))
    }
}

#[cfg(test)]
mod tests {
    use crate::ParBinomialHeap;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn builds_valid_heaps_of_every_small_size() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in 0..64usize {
            let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(-100..100)).collect();
            let (h, cost) = ParBinomialHeap::from_keys_pram(&keys, 3).unwrap();
            h.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(h.len(), n);
            if n > 1 {
                assert!(cost.time > 0);
            }
            let mut expected = keys;
            expected.sort_unstable();
            assert_eq!(h.into_sorted_vec(), expected, "n={n}");
        }
    }

    #[test]
    fn build_work_is_linear_and_time_parallelises() {
        let mut rng = StdRng::seed_from_u64(4);
        let keys: Vec<i64> = (0..4096).map(|_| rng.gen_range(-1000..1000)).collect();
        let (_, c1) = ParBinomialHeap::from_keys_pram(&keys, 1).unwrap();
        let (_, c8) = ParBinomialHeap::from_keys_pram(&keys, 8).unwrap();
        // Work = number of links = n - #trees, identical regardless of p.
        assert_eq!(c1.work, c8.work);
        assert!(c1.work as usize <= keys.len());
        // Time drops by roughly the processor count.
        assert!(c8.time * 6 < c1.time, "t1={} t8={}", c1.time, c8.time);
    }

    #[test]
    fn matches_sequential_builder_content() {
        let keys: Vec<i64> = (0..1000).map(|i| (i * 37) % 257).collect();
        let (h, _) = ParBinomialHeap::from_keys_pram(&keys, 4).unwrap();
        let seq = ParBinomialHeap::from_keys(keys.iter().copied());
        assert_eq!(h.root_orders(), seq.root_orders());
        assert_eq!(h.into_sorted_vec(), seq.into_sorted_vec());
    }
}
