//! Seeded workload generators.

use meldpq::ParBinomialHeap;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A deterministic RNG for experiment `tag`.
pub fn rng(tag: u64) -> StdRng {
    StdRng::seed_from_u64(0x000B_100D ^ tag)
}

/// Random keys, uniform over a wide range.
pub fn random_keys(rng: &mut StdRng, n: usize) -> Vec<i64> {
    (0..n)
        .map(|_| rng.gen_range(-1_000_000..1_000_000))
        .collect()
}

/// A random `ParBinomialHeap` of exactly `n` keys.
pub fn random_heap(rng: &mut StdRng, n: usize) -> ParBinomialHeap {
    ParBinomialHeap::from_keys(random_keys(rng, n))
}

/// Root references of a heap at the width needed to meld it with a heap of
/// `other_n` keys.
pub fn root_refs_for_meld(h: &ParBinomialHeap, other_n: usize) -> Vec<Option<meldpq::RootRef>> {
    let width = meldpq::plan::plan_width(h.len(), other_n);
    h.root_refs(width)
}

/// The worst-case meld shape: two heaps of `2^bits - 1` keys each (all
/// positions generate, maximal carry chains).
pub fn all_ones_pair(rng: &mut StdRng, bits: usize) -> (ParBinomialHeap, ParBinomialHeap) {
    let n = (1usize << bits) - 1;
    (random_heap(rng, n), random_heap(rng, n))
}

/// A mixed operation script: `(insert_weight, extract_weight)` out of 10.
#[derive(Debug, Clone, Copy)]
pub enum ScriptOp {
    /// Insert this key.
    Insert(i64),
    /// Extract the minimum.
    ExtractMin,
}

/// Generate a script of `len` operations with the given insert bias (0..=10).
pub fn script(rng: &mut StdRng, len: usize, insert_bias: u32) -> Vec<ScriptOp> {
    let mut live = 0usize;
    (0..len)
        .map(|_| {
            if live == 0 || rng.gen_range(0..10) < insert_bias {
                live += 1;
                ScriptOp::Insert(rng.gen_range(-1_000_000..1_000_000))
            } else {
                live -= 1;
                ScriptOp::ExtractMin
            }
        })
        .collect()
}

/// `p = ⌈log n / log log n⌉` — the processor count of Theorems 1–2.
pub fn theorem_p(n: usize) -> usize {
    let log = (usize::BITS - n.max(4).leading_zeros()) as usize;
    let loglog = ((usize::BITS - log.leading_zeros()) as usize).max(1);
    (log / loglog).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_sizes_exact() {
        let mut r = rng(1);
        for n in [0usize, 1, 7, 100] {
            assert_eq!(random_heap(&mut r, n).len(), n);
        }
    }

    #[test]
    fn scripts_never_extract_from_empty() {
        let mut r = rng(2);
        let s = script(&mut r, 500, 3);
        let mut live = 0i64;
        for op in s {
            match op {
                ScriptOp::Insert(_) => live += 1,
                ScriptOp::ExtractMin => {
                    live -= 1;
                    assert!(live >= 0);
                }
            }
        }
    }

    #[test]
    fn theorem_p_values() {
        assert_eq!(theorem_p(1 << 8), 2); // log=9? bits(256)=9, loglog=4 → 2
        assert!(theorem_p(1 << 20) >= 4);
        assert!(theorem_p(2) >= 1);
    }
}
