//! Soak test: one long, seeded, mixed workload driven simultaneously
//! through every queue implementation in the workspace, with a shared
//! oracle, periodic structural validation, and cross-implementation
//! equality checks. Interaction bugs (meld after delete after arrange after
//! extract...) show up here if anywhere.

use meldpq::lazy::LazyBinomialHeap;
use meldpq::{NodeId, ParBinomialHeap};
use rand::{rngs::StdRng, Rng, SeedableRng};
use seqheaps::{BinomialHeap, LeftistHeap, MeldablePq, PairingHeap, SkewHeap};

/// Default step count; override with `SOAK_STEPS` (the nightly CI job runs
/// 50_000).
fn steps() -> usize {
    std::env::var("SOAK_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_500)
}

/// A fresh `H` holding `keys` — the operand of a baseline's meld.
fn built<H: MeldablePq<i64> + Default>(keys: &[i64]) -> H {
    let mut h = H::default();
    h.multi_insert(keys);
    h
}

struct Fleet {
    oracle: Vec<i64>,
    binomial: BinomialHeap<i64>,
    leftist: LeftistHeap<i64>,
    skew: SkewHeap<i64>,
    pairing: PairingHeap<i64>,
    /// Ripple `extract_min`; meld operands built by ripple insertion.
    par_seq: ParBinomialHeap,
    /// Planned one-key `multi_extract_min`; meld operands built by the
    /// parallel slab builder.
    par_peel: ParBinomialHeap,
    lazy: LazyBinomialHeap,
    lazy_handles: Vec<(NodeId, i64)>,
    dq: dmpq::DistributedPq,
}

impl Fleet {
    fn new() -> Self {
        Fleet {
            oracle: Vec::new(),
            binomial: BinomialHeap::new(),
            leftist: LeftistHeap::new(),
            skew: SkewHeap::new(),
            pairing: PairingHeap::new(),
            par_seq: ParBinomialHeap::new(),
            par_peel: ParBinomialHeap::new(),
            lazy: LazyBinomialHeap::new(3),
            lazy_handles: Vec::new(),
            dq: dmpq::DistributedPq::new(2, 5),
        }
    }

    fn insert(&mut self, k: i64) {
        self.oracle.push(k);
        self.binomial.insert(k);
        self.leftist.insert(k);
        self.skew.insert(k);
        self.pairing.insert(k);
        self.par_seq.insert(k);
        self.par_peel.insert(k);
        self.lazy_handles.push((self.lazy.insert(k), k));
        self.dq.insert(k).expect("fault-free net");
    }

    fn extract(&mut self) {
        let Some((i, _)) = self.oracle.iter().enumerate().min_by_key(|(_, k)| **k) else {
            return;
        };
        let want = self.oracle.swap_remove(i);
        assert_eq!(self.binomial.extract_min(), Some(want));
        assert_eq!(self.leftist.extract_min(), Some(want));
        assert_eq!(self.skew.extract_min(), Some(want));
        assert_eq!(self.pairing.extract_min(), Some(want));
        assert_eq!(self.par_seq.extract_min(), Some(want));
        assert_eq!(self.par_peel.multi_extract_min(1), [want]);
        assert_eq!(self.lazy.extract_min(), Some(want));
        assert_eq!(self.dq.extract_min().expect("fault-free net"), Some(want));
    }

    fn lazy_delete_random(&mut self, rng: &mut StdRng) {
        // Only the lazy heap supports Delete-by-handle; mirror the removal
        // in every other structure by... not possible without handles — so
        // the fleet instead routes deletions through extract-equivalents:
        // pick a *fresh minimum* delete (delete the min via handle) so all
        // structures can follow with extract_min.
        if self.oracle.is_empty() {
            return;
        }
        let min = *self.oracle.iter().min().expect("nonempty");
        // Find a live handle carrying the min key.
        let Some(pos) = self
            .lazy_handles
            .iter()
            .position(|&(id, k)| k == min && self.lazy.key_of(id) == Some(k))
        else {
            // Handle was invalidated by an arrange; fall back to extract.
            self.extract();
            return;
        };
        let (id, _) = self.lazy_handles.swap_remove(pos);
        let got = self.lazy.delete(id);
        assert_eq!(got, min);
        // Everyone else extracts the same minimum.
        let i = self.oracle.iter().position(|&k| k == min).expect("tracked");
        self.oracle.swap_remove(i);
        assert_eq!(self.binomial.extract_min(), Some(min));
        assert_eq!(self.leftist.extract_min(), Some(min));
        assert_eq!(self.skew.extract_min(), Some(min));
        assert_eq!(self.pairing.extract_min(), Some(min));
        assert_eq!(self.par_seq.extract_min(), Some(min));
        assert_eq!(self.par_peel.multi_extract_min(1), [min]);
        assert_eq!(self.dq.extract_min().expect("fault-free net"), Some(min));
        let _ = rng;
    }

    fn meld_in(&mut self, keys: &[i64]) {
        self.oracle.extend_from_slice(keys);
        self.binomial.meld(built(keys));
        self.leftist.meld(built(keys));
        self.skew.meld(built(keys));
        self.pairing.meld(built(keys));
        self.par_seq
            .meld(ParBinomialHeap::from_keys(keys.iter().copied()));
        let mut batch = ParBinomialHeap::new();
        batch.multi_insert(keys).expect("fits the id space");
        self.par_peel.meld(batch);
        let mut other = LazyBinomialHeap::new(3);
        for &k in keys {
            other.insert(k);
        }
        self.lazy.meld(other);
        let mut dq_other = dmpq::DistributedPq::new(2, 5);
        for &k in keys {
            dq_other.insert(k).expect("fault-free net");
        }
        self.dq.meld(dq_other).expect("fault-free net");
    }

    fn check(&mut self) {
        let n = self.oracle.len();
        let min = self.oracle.iter().min().copied();
        assert_eq!(self.binomial.len(), n);
        assert_eq!(self.leftist.len(), n);
        assert_eq!(self.skew.len(), n);
        assert_eq!(self.pairing.len(), n);
        assert_eq!(self.par_seq.len(), n);
        assert_eq!(self.par_peel.len(), n);
        assert_eq!(self.lazy.len(), n);
        assert_eq!(self.dq.len(), n);
        assert_eq!(self.binomial.peek_min(), min);
        assert_eq!(self.par_seq.min(), min);
        assert_eq!(self.dq.min(), min);
        self.binomial.check_invariants().expect("binomial");
        self.leftist.check_invariants().expect("leftist");
        self.skew.check_invariants().expect("skew");
        self.pairing.check_invariants().expect("pairing");
        self.par_seq.validate().expect("par_seq");
        self.par_peel.validate().expect("par_peel");
        self.lazy.validate().expect("lazy");
        self.dq.heap().validate().expect("dq");
    }
}

#[test]
fn soak_every_queue_through_one_long_workload() {
    let mut rng = StdRng::seed_from_u64(0x50AB);
    let mut fleet = Fleet::new();
    let steps = steps();
    for step in 0..steps {
        match rng.gen_range(0..10) {
            0..=4 => fleet.insert(rng.gen_range(-1_000_000..1_000_000)),
            5..=6 => fleet.extract(),
            7 => fleet.lazy_delete_random(&mut rng),
            8 => {
                let m = rng.gen_range(0..12);
                let keys: Vec<i64> = (0..m)
                    .map(|_| rng.gen_range(-1_000_000..1_000_000))
                    .collect();
                fleet.meld_in(&keys);
            }
            _ => {
                // Min probe on everyone (non-mutating).
                let min = fleet.oracle.iter().min().copied();
                assert_eq!(fleet.par_seq.min(), min);
                assert_eq!(fleet.dq.min(), min);
            }
        }
        if step % 250 == 0 {
            fleet.check();
        }
    }
    fleet.check();
    // Final drain: all implementations produce the identical sorted tail.
    let mut expected = fleet.oracle.clone();
    expected.sort_unstable();
    assert_eq!(fleet.binomial.drain_sorted(), expected);
    assert_eq!(fleet.par_peel.into_sorted_vec(), expected);
    assert_eq!(fleet.lazy.into_sorted_vec(), expected);
    assert_eq!(
        fleet.dq.into_sorted_vec().expect("fault-free net"),
        expected
    );
}
