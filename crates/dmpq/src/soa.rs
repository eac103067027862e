//! SoA key blocks and the merge kernel for b-Union preprocessing.
//!
//! The b-Union preprocessing (paper §5) re-establishes the *chunk order*
//! invariant: listing roots by ascending max key, their key ranges must not
//! overlap. The paper sorts **all** keys (bitonic, `O(N log² N)` compare
//! rounds) because it assumes nothing about the inputs — but when two valid
//! queues meld, *each side already satisfies chunk order*, so each side's
//! blocks concatenated in max-key root order form one sorted stream, and the
//! union's global sort collapses to a **merge of two sorted streams**:
//! `O(N)` work instead of `O(N log² N)`.
//!
//! This module supplies the pieces:
//!
//! * [`SoaBlocks`] — the structure-of-arrays view of one side's key blocks:
//!   a single flat `keys` vector (block `j` = `keys[j*b .. (j+1)*b]`) plus
//!   the roots in max-key order. Gathering into SoA is what makes the merge
//!   kernel run over one contiguous stream per side instead of hopping
//!   through per-node `Vec`s.
//! * [`merge_into`] — the sequential two-pointer merge of the two streams,
//!   run once per union by [`merged_stream`]. The win is algorithmic (a
//!   merge instead of a sort), so the merge runs on one thread.
//!
//! Ties break toward the **first** operand, matching the workspace-wide
//! tie-break contract of the planners.

use crate::bheap::{BbHeap, BbNodeId};

/// One side's key blocks in structure-of-arrays layout: roots ordered by
/// ascending max key (ties by id), all keys flattened block-by-block in that
/// same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoaBlocks {
    /// Bandwidth (keys per block).
    pub b: usize,
    /// Roots in gather order.
    pub roots: Vec<BbNodeId>,
    /// Flat keys; block `j` = `keys[j*b .. (j+1)*b]`.
    pub keys: Vec<i64>,
}

impl SoaBlocks {
    /// Gather a root collection into SoA layout (roots sorted by max key,
    /// ties by id — the preprocessing deal order).
    pub fn gather(heap: &BbHeap, roots: &[Option<BbNodeId>]) -> SoaBlocks {
        let mut ordered: Vec<BbNodeId> = roots.iter().flatten().copied().collect();
        ordered.sort_by_key(|&id| (heap.get(id).max_key(), id));
        let mut keys = Vec::with_capacity(ordered.len() * heap.b);
        for &id in &ordered {
            keys.extend_from_slice(&heap.get(id).keys);
        }
        SoaBlocks {
            b: heap.b,
            roots: ordered,
            keys,
        }
    }

    /// Block `j` as a slice.
    pub fn block(&self, j: usize) -> &[i64] {
        &self.keys[j * self.b..(j + 1) * self.b]
    }

    /// Whether the flat stream is globally sorted — true exactly when this
    /// side satisfies the chunk-order invariant (non-overlapping block
    /// ranges in max-key order, each block internally sorted).
    pub fn is_sorted(&self) -> bool {
        self.keys.windows(2).all(|w| w[0] <= w[1])
    }
}

/// Sequential two-pointer merge of sorted `a` and `b` into `out`
/// (`out.len() == a.len() + b.len()`), ties taken from `a` first.
pub fn merge_into(a: &[i64], b: &[i64], out: &mut [i64]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_a = i < a.len() && (j >= b.len() || a[i] <= b[j]);
        if take_a {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// The preprocessing fast path: if both sides' SoA streams are sorted (the
/// chunk-order invariant holds), return the globally sorted union stream via
/// one [`merge_into`]; `None` means the caller must fall back to the general
/// sort (e.g. the orphaned children of an extracted root are not
/// chunk-ordered among themselves).
pub fn merged_stream(s1: &SoaBlocks, s2: &SoaBlocks) -> Option<Vec<i64>> {
    if !s1.is_sorted() || !s2.is_sorted() {
        return None;
    }
    let mut out = vec![0i64; s1.keys.len() + s2.keys.len()];
    merge_into(&s1.keys, &s2.keys, &mut out);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_orders_blocks_and_detects_chunk_order() {
        let mut h = BbHeap::new(2);
        let lo = h.alloc(vec![1, 2]);
        let hi = h.alloc(vec![5, 9]);
        let mid = h.alloc(vec![3, 4]);
        let roots = vec![Some(hi), Some(lo), Some(mid)];
        let soa = SoaBlocks::gather(&h, &roots);
        assert_eq!(soa.roots, vec![lo, mid, hi]);
        assert_eq!(soa.keys, vec![1, 2, 3, 4, 5, 9]);
        assert!(soa.is_sorted());
        assert_eq!(soa.block(1), &[3, 4]);
        // Overlapping ranges -> unsorted stream -> fast path refuses.
        let bad = h.alloc(vec![0, 100]);
        let roots = vec![Some(lo), Some(bad)];
        let soa_bad = SoaBlocks::gather(&h, &roots);
        assert!(!soa_bad.is_sorted());
        assert_eq!(merged_stream(&soa, &soa_bad), None);
    }

    #[test]
    fn merged_stream_is_the_sorted_union() {
        let mut h = BbHeap::new(3);
        let a1 = h.alloc(vec![1, 2, 3]);
        let a2 = h.alloc(vec![7, 8, 9]);
        let b1 = h.alloc(vec![2, 4, 6]);
        let b2 = h.alloc(vec![10, 11, 12]);
        let s1 = SoaBlocks::gather(&h, &[Some(a2), Some(a1)]);
        let s2 = SoaBlocks::gather(&h, &[Some(b2), Some(b1)]);
        let merged = merged_stream(&s1, &s2).expect("both sides chunk-ordered");
        let mut expected = [1, 2, 3, 7, 8, 9, 2, 4, 6, 10, 11, 12].to_vec();
        expected.sort_unstable();
        assert_eq!(merged, expected);
        let empty = SoaBlocks::gather(&h, &[]);
        assert_eq!(merged_stream(&s1, &empty), Some(s1.keys.clone()));
        assert_eq!(merged_stream(&empty, &s2), Some(s2.keys.clone()));
    }
}
