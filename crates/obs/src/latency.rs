//! Log-bucketed latency histogram for the service layer's per-op timings.
//!
//! A fixed-shape histogram in the HdrHistogram family: buckets are powers of
//! two subdivided into `2^SUB_BITS` linear sub-buckets, giving a guaranteed
//! relative error of `2^-SUB_BITS` (6.25%) at every magnitude — accurate
//! enough for p50/p95/p99 tails while recording in O(1) with no allocation
//! on the hot path after warm-up. Thread-local histograms merge losslessly
//! ([`LatencyHistogram::merge`]), so client threads record contention-free
//! and the harness folds them at the end.

/// Sub-bucket resolution: each power-of-two range splits into `2^SUB_BITS`
/// linear buckets.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power-of-two range.
const SUB: usize = 1 << SUB_BITS;

/// A latency histogram over `u64` samples (nanoseconds by convention).
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros();
    let shift = top - SUB_BITS;
    let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
    (top - SUB_BITS + 1) as usize * SUB + sub
}

/// Lower bound of the value range covered by bucket `idx` (the histogram's
/// reported quantiles are these conservative lower bounds).
fn bucket_value(idx: usize) -> u64 {
    let block = idx / SUB;
    let sub = (idx % SUB) as u64;
    if block == 0 {
        return sub;
    }
    (SUB as u64 + sub) << (block as u32 - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Counters saturate instead of wrapping, so a
    /// histogram that has been fed astronomically many samples degrades to
    /// pinned counts rather than corrupting its quantiles.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one (lossless until counters
    /// saturate, at which point they pin at `u64::MAX`).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] = self.buckets[i].saturating_add(c);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples (exact sum / count), `0` when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`: the bucket lower bound below
    /// which at least `q * count` samples fall. `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_value(i);
            }
        }
        self.max
    }

    /// The summary a report prints, in a stable order: the count, then
    /// mean, p50, p95, p99 and max in nanoseconds.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("count", self.count),
            ("mean_ns", self.mean()),
            ("p50_ns", self.quantile(0.50)),
            ("p95_ns", self.quantile(0.95)),
            ("p99_ns", self.quantile(0.99)),
            ("max_ns", self.max),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_continuous_and_monotone() {
        let mut prev = 0;
        for v in 0..100_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index regressed at {v}");
            prev = idx;
            let lo = bucket_value(idx);
            assert!(lo <= v, "lower bound {lo} above sample {v}");
            // Relative error bounded by one sub-bucket width.
            assert!(v - lo <= v >> SUB_BITS, "error too large at {v}");
        }
    }

    #[test]
    fn quantiles_on_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.max(), 10_000);
        let p50 = h.quantile(0.5);
        // Bucket lower bounds under-report by at most 6.25%.
        assert!((4600..=5000).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((9200..=9900).contains(&p99), "p99={p99}");
        assert!(h.quantile(1.0) <= 10_000);
        assert!(h.mean() >= 4900 && h.mean() <= 5100);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in [3u64, 17, 90_000, 5, 1 << 40, 0, 12_345] {
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.mean(), whole.mean());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn recorder_fields() {
        let mut h = LatencyHistogram::new();
        h.record(100);
        let fields = h.fields();
        assert_eq!(fields[0], ("count", 1));
        assert!(fields.iter().any(|&(k, _)| k == "p99_ns"));
    }
}
