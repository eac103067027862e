//! Seeded workload generators.

use meldpq::ParBinomialHeap;
use rand::{rngs::StdRng, Rng, SeedableRng};
use service::{QueueId, QueueService, ServiceError};

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

/// One call of the service mix drawn by [`service_op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceOp {
    /// `insert` this key.
    Insert(i64),
    /// `extract_min`.
    ExtractMin,
    /// `extract_k` of this many keys.
    ExtractK(usize),
    /// `peek_min`.
    Peek,
    /// `len`.
    Len,
}

/// Draw one call of the service mix: a queue index below `queues`, then
/// 55% insert, 30% extract-min, 7% extract-k(8), 5% peek and 3% len. An
/// insert adds one key and a pop takes at most 8, so the queues keep a
/// steady depth of a few thousand keys under a long run.
pub fn service_op(rng: &mut StdRng, queues: usize) -> (usize, ServiceOp) {
    let q = rng.gen_range(0..queues);
    let op = match rng.gen_range(0..100) {
        0..=54 => ServiceOp::Insert(rng.gen_range(-1_000_000..1_000_000)),
        55..=84 => ServiceOp::ExtractMin,
        85..=91 => ServiceOp::ExtractK(8),
        92..=96 => ServiceOp::Peek,
        _ => ServiceOp::Len,
    };
    (q, op)
}

impl ServiceOp {
    /// Run this call on queue `q` of `svc`, dropping its answer.
    pub fn run(self, svc: &QueueService, q: QueueId) -> Result<(), ServiceError> {
        match self {
            ServiceOp::Insert(k) => svc.insert(q, k),
            ServiceOp::ExtractMin => svc.extract_min(q).map(drop),
            ServiceOp::ExtractK(k) => svc.extract_k(q, k).map(drop),
            ServiceOp::Peek => svc.peek_min(q).map(drop),
            ServiceOp::Len => svc.len(q).map(drop),
        }
    }
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
    fn service_mix_draws_every_op_near_its_share() {
        let mut r = rng(3);
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            let (q, op) = service_op(&mut r, 8);
            assert!(q < 8);
            counts[match op {
                ServiceOp::Insert(_) => 0,
                ServiceOp::ExtractMin => 1,
                ServiceOp::ExtractK(k) => {
                    assert_eq!(k, 8);
                    2
                }
                ServiceOp::Peek => 3,
                ServiceOp::Len => 4,
            }] += 1;
        }
        for (got, pct) in counts.iter().zip([55, 30, 7, 5, 3]) {
            let want = pct * 100;
            assert!(got.abs_diff(want) <= want / 5 + 50, "{counts:?}");
        }
    }

    #[test]
    fn theorem_p_values() {
        assert_eq!(theorem_p(1 << 8), 2); // log=9? bits(256)=9, loglog=4 → 2
        assert!(theorem_p(1 << 20) >= 4);
        assert!(theorem_p(2) >= 1);
    }
}
