//! Output checks and the small statistics the report needs.

use crate::gen::mix64;

/// An incremental multiset fingerprint: count, sum and sum of hashes, all
/// wrapping. Two multisets with equal fingerprints are equal except with
/// negligible probability, and `a - b` is the fingerprint of `a \ b` when
/// `b ⊆ a` — so "inserted = popped + remainder" is checked without keeping
/// every key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    n: u64,
    sum: u64,
    hash: u64,
}

impl Fingerprint {
    /// Add one key.
    pub fn add(&mut self, k: i64) {
        self.n = self.n.wrapping_add(1);
        self.sum = self.sum.wrapping_add(k as u64);
        self.hash = self.hash.wrapping_add(mix64(k as u64));
    }

    /// Add every key of `keys`.
    pub fn add_all(&mut self, keys: &[i64]) {
        for &k in keys {
            self.add(k);
        }
    }

    /// Add another multiset.
    pub fn merge(&mut self, o: Fingerprint) {
        self.n = self.n.wrapping_add(o.n);
        self.sum = self.sum.wrapping_add(o.sum);
        self.hash = self.hash.wrapping_add(o.hash);
    }

    /// The multiset difference `self \ o`, valid when `o ⊆ self`.
    pub fn minus(self, o: Fingerprint) -> Fingerprint {
        Fingerprint {
            n: self.n.wrapping_sub(o.n),
            sum: self.sum.wrapping_sub(o.sum),
            hash: self.hash.wrapping_sub(o.hash),
        }
    }

    /// Number of keys.
    pub fn len(&self) -> u64 {
        self.n
    }
}

/// Keys put into and taken out of one long-lived queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    /// Every key acknowledged as inserted.
    pub inserted: Fingerprint,
    /// Every key a pop returned.
    pub popped: Fingerprint,
}

impl Ledger {
    /// Fold another client's ledger of the same queue into this one.
    pub fn merge(&mut self, o: &Ledger) {
        self.inserted.merge(o.inserted);
        self.popped.merge(o.popped);
    }

    /// What the queue must hold now.
    pub fn expected(&self) -> Fingerprint {
        self.inserted.minus(self.popped)
    }
}

/// Whether `keys` is ascending (what `extract_k` promises).
pub fn ascending(keys: &[i64]) -> bool {
    keys.windows(2).all(|w| w[0] <= w[1])
}

/// Sub-buckets per power of two: quantiles resolve to 1/128 of their value.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let top = 63 - v.leading_zeros();
    let shift = top - SUB_BITS;
    ((top - SUB_BITS + 1) as u64 * SUB + ((v >> shift) & (SUB - 1))) as usize
}

/// `(lowest value, width)` of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    let (block, sub) = (i as u64 / SUB, i as u64 % SUB);
    if block == 0 {
        return (sub as f64, 1.0);
    }
    let width = 1u64 << (block - 1);
    (((SUB + sub) * width) as f64, width as f64)
}

/// Timing samples (nanoseconds, or nanoseconds per key) in a log-linear
/// histogram: fixed memory however long the run, so the run's resident
/// size does not grow with its throughput, and quantiles within 1/128 of
/// their value.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        let i = bucket(v.max(0.0).round() as u64);
        if self.buckets.len() <= i {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Add another set of samples.
    pub fn extend(&mut self, o: &Samples) {
        if self.buckets.len() < o.buckets.len() {
            self.buckets.resize(o.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&o.buckets) {
            *a += b;
        }
        self.count += o.count;
        self.sum += o.sum;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Sum of all samples.
    pub fn total(&self) -> f64 {
        self.sum
    }

    /// Nearest-rank quantile (0 when empty), placed by rank within its
    /// bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = bucket_range(i);
                return lo + width * ((rank - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank is at most the count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_checks_conservation() {
        let mut ins = Fingerprint::default();
        ins.add_all(&[5, 3, 9, 3]);
        let mut popped = Fingerprint::default();
        popped.add_all(&[3, 9]);
        let mut rest = Fingerprint::default();
        rest.add_all(&[3, 5]);
        assert_eq!(ins.minus(popped), rest);
        let mut wrong = Fingerprint::default();
        wrong.add_all(&[4, 4]);
        assert_ne!(ins.minus(popped), wrong, "same count and sum, other keys");
    }

    #[test]
    fn quantiles_resolve_to_one_part_in_128() {
        let mut s = Samples::default();
        for v in (1..=1000).rev() {
            s.push(v as f64);
        }
        for (q, want) in [(0.5, 500.0), (0.99, 990.0), (1.0, 1000.0)] {
            let got = s.quantile(q);
            assert!((got - want).abs() <= want / 128.0, "q{q}: {got} vs {want}");
        }
        assert_eq!(s.len(), 1000);
        assert_eq!(s.total(), 500_500.0);
    }
}
