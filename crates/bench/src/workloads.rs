//! Seeded workload generators.

use meldpq::{MeldablePq, ParBinomialHeap};
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

/// The workload classes of the backend shootout (EXPERIMENTS.md W3): four
/// key streams and a Dijkstra-shaped relaxation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadClass {
    /// Well-mixed keys, insert/extract churn with periodic melds.
    Uniform,
    /// Ascending key stream (adversarial for self-adjusting shapes).
    Sorted,
    /// Descending key stream.
    Reverse,
    /// Heavy key duplication (16 distinct keys).
    DupHeavy,
    /// SSSP-style: inserts, decrease-key bursts (by reinsert), extract-all.
    Dijkstra,
}

impl WorkloadClass {
    /// Every class, in shootout order.
    pub const ALL: [WorkloadClass; 5] = [
        WorkloadClass::Uniform,
        WorkloadClass::Sorted,
        WorkloadClass::Reverse,
        WorkloadClass::DupHeavy,
        WorkloadClass::Dijkstra,
    ];

    /// Stable snake_case name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadClass::Uniform => "uniform",
            WorkloadClass::Sorted => "sorted",
            WorkloadClass::Reverse => "reverse",
            WorkloadClass::DupHeavy => "dup_heavy",
            WorkloadClass::Dijkstra => "dijkstra",
        }
    }

    /// This class's seeded script at size `n`, the one every backend
    /// replays.
    pub fn script(self, n: usize) -> ClassScript {
        if self == WorkloadClass::Dijkstra {
            return dijkstra_script(&mut rng(0xD175_7824 ^ n as u64), n);
        }
        let mut rng = rng(0x5400_0075 ^ n as u64);
        let keys = match self {
            WorkloadClass::Sorted => (0..n as i64).collect(),
            WorkloadClass::Reverse => (0..n as i64).rev().collect(),
            WorkloadClass::DupHeavy => (0..n).map(|_| rng.gen_range(0i64..16)).collect(),
            _ => random_keys(&mut rng, n),
        };
        // Churn pairs and meld bursts use uniform keys for every class: the
        // adversarial shape lives in the initial stream.
        let churn = random_keys(&mut rng, n / 2);
        let meld_burst = random_keys(&mut rng, (n / 8).max(1));
        ClassScript::Stream {
            keys,
            churn,
            meld_burst,
        }
    }
}

/// One relaxation decision of the Dijkstra script.
#[derive(Debug, Clone, Copy)]
pub enum Relax {
    /// Offer node `id` the tentative distance `new_key`.
    Decrease {
        /// The node.
        id: usize,
        /// Its offered distance; a no-op when not below the current one.
        new_key: i64,
    },
    /// Settle the closest unsettled node.
    Extract,
}

/// A class's operation script, generated before any clock starts.
pub enum ClassScript {
    /// Insert `keys`, then one insert and one extract per `churn` key,
    /// then four melds of a heap of `meld_burst`, then drain.
    Stream {
        /// The initial key stream, in the class's shape.
        keys: Vec<i64>,
        /// One insert/extract pair per key.
        churn: Vec<i64>,
        /// The keys of each melded heap.
        meld_burst: Vec<i64>,
    },
    /// Insert every node at its `init` distance, run `relax`, then
    /// extract-all.
    Dijkstra {
        /// Each node's initial tentative distance.
        init: Vec<i64>,
        /// The relaxation decisions.
        relax: Vec<Relax>,
    },
}

/// The Dijkstra script: `n` tracked inserts, `4n` relaxations (7 in 8 are
/// decrease-keys to a fresh lower tentative distance, 1 in 8 settles a
/// node), then extract-all.
fn dijkstra_script(rng: &mut StdRng, n: usize) -> ClassScript {
    let init: Vec<i64> = (0..n)
        .map(|_| rng.gen_range(500_000i64..1_000_000))
        .collect();
    let mut best = init.clone();
    let relax = (0..4 * n)
        .map(|_| {
            if rng.gen_range(0..8) < 7 {
                let id = rng.gen_range(0..n);
                // A strictly lower tentative distance when possible; a no-op
                // relaxation (new >= current) otherwise — both are charged.
                let new_key = (best[id] - rng.gen_range(1..10_000)).max(0);
                if new_key < best[id] {
                    best[id] = new_key;
                }
                Relax::Decrease { id, new_key }
            } else {
                Relax::Extract
            }
        })
        .collect();
    ClassScript::Dijkstra { init, relax }
}

impl ClassScript {
    /// Replay this script on the empty queue `q`; returns the logical op
    /// count, the denominator of the shootout's per-op time. Every key
    /// popped as a logical op goes to `popped`.
    ///
    /// Dijkstra runs by reinsert-and-skip-stale, the sequential form of
    /// the paper's §4 insert-and-orphan `Change-Key`: a queued key is
    /// `distance · n + id`, so every queued key is distinct and a stale
    /// entry is known when popped. The logical ops are the inserts, the
    /// relaxations and the pops that settle a node (the ones `popped`
    /// sees); stale pops cost time but count nothing.
    pub fn replay(&self, q: &mut dyn MeldablePq<i64>, mut popped: impl FnMut(i64)) -> u64 {
        let mut ops = 0u64;
        match self {
            ClassScript::Stream {
                keys,
                churn,
                meld_burst,
            } => {
                for &k in keys {
                    q.insert(k);
                    ops += 1;
                }
                for &k in churn {
                    q.insert(k);
                    if let Some(min) = q.extract_min() {
                        popped(min);
                    }
                    ops += 2;
                }
                for _ in 0..4 {
                    q.meld_from_keys(meld_burst);
                    ops += meld_burst.len() as u64;
                }
                while let Some(min) = q.extract_min() {
                    popped(min);
                    ops += 1;
                }
            }
            ClassScript::Dijkstra { init, relax } => {
                let n = init.len() as i64;
                let encode = |key: i64, id: usize| key * n + id as i64;
                let mut best = init.clone();
                let mut settled = vec![false; init.len()];
                // Whether popping `enc` settles its node, and if so settle it.
                let settles = |enc: i64, best: &[i64], settled: &mut [bool]| {
                    let (key, id) = (enc.div_euclid(n), enc.rem_euclid(n) as usize);
                    let fresh = !settled[id] && key == best[id];
                    settled[id] |= fresh;
                    fresh
                };
                for (id, &k) in init.iter().enumerate() {
                    q.insert(encode(k, id));
                    ops += 1;
                }
                for step in relax {
                    ops += 1;
                    match *step {
                        Relax::Decrease { id, new_key } => {
                            if !settled[id] && new_key < best[id] {
                                best[id] = new_key;
                                q.insert(encode(new_key, id));
                            }
                        }
                        Relax::Extract => {
                            while let Some(enc) = q.extract_min() {
                                if settles(enc, &best, &mut settled) {
                                    popped(enc);
                                    break;
                                }
                            }
                        }
                    }
                }
                while let Some(enc) = q.extract_min() {
                    if settles(enc, &best, &mut settled) {
                        popped(enc);
                        ops += 1;
                    }
                }
            }
        }
        ops
    }
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

    /// The shootout's denominator claim (EXPERIMENTS.md W3): every
    /// correct backend pops the same keys, settles the same distances and
    /// so divides by the same logical op count.
    #[test]
    fn every_backend_replays_a_class_to_the_same_ops_and_pops() {
        let n = 256;
        for class in WorkloadClass::ALL {
            let script = class.script(n);
            let runs: Vec<(u64, Vec<i64>)> = meldpq::Backend::ALL
                .iter()
                .map(|b| {
                    let mut q = b.make();
                    let mut pops = Vec::new();
                    let ops = script.replay(q.as_mut(), |k| pops.push(k));
                    assert!(q.is_empty(), "{} left keys on {}", class.name(), b.name());
                    (ops, pops)
                })
                .collect();
            for (b, run) in meldpq::Backend::ALL.iter().zip(&runs) {
                assert!(
                    *run == runs[0],
                    "{} replays {} differently from {}",
                    b.name(),
                    class.name(),
                    meldpq::Backend::ALL[0].name()
                );
            }
            let (ops, pops) = &runs[0];
            if let ClassScript::Dijkstra { relax, .. } = &script {
                // Each node settles once, and stale pops are not counted:
                // n inserts, 4n relaxations (an `Extract` step is one op
                // with the pop that settles) and the drain's settling pops.
                let mut ids: Vec<i64> = pops.iter().map(|enc| enc.rem_euclid(n as i64)).collect();
                ids.sort_unstable();
                assert_eq!(ids, (0..n as i64).collect::<Vec<_>>());
                let extracts = relax.iter().filter(|r| matches!(r, Relax::Extract)).count();
                assert_eq!(*ops, (6 * n - extracts) as u64);
            } else {
                // n inserts, n/2 churn pairs, 4 melds of n/8 keys, and a
                // drain of the n + 4·n/8 keys left.
                assert_eq!(*ops, (n + n + n / 2 + n + n / 2) as u64, "{}", class.name());
                assert_eq!(pops.len(), n / 2 + n + n / 2, "{}", class.name());
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
