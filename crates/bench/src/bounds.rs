//! Theorem-bound envelopes for the conformance check in
//! `tests/theorem_shapes.rs`.
//!
//! The paper's claims are cost claims, so each theorem's measured cost is
//! held against the shape that covers it:
//!
//! * **Theorem 1** — `Union` (and the other basic operations) on the EREW
//!   PRAM: `O(log log n + log n / p)` time and `O(log n)` work.
//! * **Theorem 2** — lazy `Delete`/`Change-Key` on the CREW PRAM: amortized
//!   `O(log log n)` time and `O(log n)` work with
//!   `p = O(log n / log log n)` processors.
//! * **Theorem 3** — `b-Union` on the single-port `q`-cube:
//!   `O(log² n + b·log n·log b / 2^q)` communication time.
//!
//! Asymptotic bounds hide constants, so each [`Envelope`] carries an
//! explicit constant `c` *fitted at small n* ([`Envelope::fit`] takes
//! `(shape, measured)` calibration samples and keeps the max ratio). A
//! conformance check then reports `measured / (c · shape)` at a larger
//! problem size: a ratio ≤ 1 means the small-n constant still covers the
//! large-n run; the threshold ([`DEFAULT_THRESHOLD`]) allows bounded drift
//! before a row is declared non-conforming — a regressing schedule fails
//! loudly instead of silently losing its `O(log log n)` story.

use std::fmt;

/// Default headroom on `measured / (c · shape)` before a row fails.
pub const DEFAULT_THRESHOLD: f64 = 1.5;

/// `log2` clamped so that the shapes stay positive and finite for `n ≥ 1`.
fn log2(n: f64) -> f64 {
    n.max(2.0).log2()
}

/// `log2 log2`, same clamping.
fn loglog2(n: f64) -> f64 {
    log2(log2(n))
}

/// Theorem 1 time shape: `log log n + log n / p`.
pub fn th1_union_time(n: f64, p: f64) -> f64 {
    loglog2(n) + log2(n) / p.max(1.0)
}

/// Theorem 1 work shape: `log n`.
pub fn th1_union_work(n: f64) -> f64 {
    log2(n)
}

/// Theorem 2 amortized-time shape: `log log n`.
pub fn th2_amortized_time(n: f64) -> f64 {
    loglog2(n)
}

/// Theorem 2 amortized-work shape: `log n`.
pub fn th2_amortized_work(n: f64) -> f64 {
    log2(n)
}

/// Theorem 3 `b-Union` communication-time shape:
/// `log² n + b·log n·log b / 2^q`.
pub fn th3_bunion_time(n: f64, b: f64, q: f64) -> f64 {
    let cube = (2.0_f64).powf(q.max(0.0));
    log2(n) * log2(n) + b.max(1.0) * log2(n) * log2(b) / cube
}

/// A theorem bound with an explicitly fitted constant.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Which theorem, e.g. `"theorem1"`.
    pub theorem: &'static str,
    /// Which metric of it, e.g. `"union.time"`.
    pub metric: &'static str,
    /// The fitted constant `c`.
    pub c: f64,
}

impl Envelope {
    /// Fit `c` as the max `measured / shape` over small-n calibration
    /// samples (each sample is `(shape value, measured value)`). Degenerate
    /// samples (`shape ≤ 0`) are skipped; returns `None` when no usable
    /// sample remains (an empty or zero-ops calibration run) — a constant
    /// fitted from nothing would make every later check an artificial
    /// `VIOLATION`, so absence is made explicit instead. The constant is
    /// floored at a tiny epsilon so later ratios stay finite.
    pub fn fit(
        theorem: &'static str,
        metric: &'static str,
        samples: &[(f64, f64)],
    ) -> Option<Envelope> {
        let usable = samples.iter().filter(|(shape, _)| *shape > 0.0);
        let mut any = false;
        let c = usable
            .map(|(shape, measured)| {
                any = true;
                measured / shape
            })
            .fold(0.0, f64::max)
            .max(1e-9);
        any.then_some(Envelope { theorem, metric, c })
    }

    /// Evaluate `measured` against `c · shape` at the full problem size.
    pub fn check(&self, label: &str, shape: f64, measured: f64) -> Conformance {
        let bound = self.c * shape;
        let ratio = if bound > 0.0 {
            measured / bound
        } else if measured == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
        Conformance {
            theorem: self.theorem,
            metric: self.metric,
            label: label.to_string(),
            measured,
            bound,
            ratio,
        }
    }
}

/// One measured-vs-bound row of the conformance report.
#[derive(Debug, Clone, PartialEq)]
pub struct Conformance {
    /// Which theorem.
    pub theorem: &'static str,
    /// Which metric.
    pub metric: &'static str,
    /// Operation/size label, e.g. `"n=4096 p=4"`.
    pub label: String,
    /// The measured value.
    pub measured: f64,
    /// The envelope value `c · shape` at this size.
    pub bound: f64,
    /// `measured / bound`.
    pub ratio: f64,
}

impl Conformance {
    /// Whether the row conforms: a finite ratio within
    /// [`DEFAULT_THRESHOLD`].
    pub fn within(&self) -> bool {
        self.ratio.is_finite() && self.ratio <= DEFAULT_THRESHOLD
    }
}

impl fmt::Display for Conformance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} {:<22} {:<18} measured={:<10.2} bound={:<10.2} ratio={:.3} [{}]",
            self.theorem,
            self.metric,
            self.label,
            self.measured,
            self.bound,
            self.ratio,
            if self.within() { "ok" } else { "VIOLATION" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_finite_and_monotone() {
        for &n in &[1.0, 2.0, 64.0, 1e6] {
            assert!(th1_union_time(n, 4.0).is_finite());
            assert!(th1_union_work(n) > 0.0);
            assert!(th2_amortized_time(n) > 0.0);
            assert!(th3_bunion_time(n, 8.0, 3.0) > 0.0);
        }
        assert!(th1_union_work(1e6) > th1_union_work(64.0));
        assert!(th3_bunion_time(1e6, 8.0, 3.0) > th3_bunion_time(64.0, 8.0, 3.0));
    }

    #[test]
    fn fit_takes_max_ratio_and_check_divides() {
        let env =
            Envelope::fit("theorem1", "union.time", &[(2.0, 6.0), (4.0, 8.0)]).expect("samples");
        assert!((env.c - 3.0).abs() < 1e-12);
        let row = env.check("n=64", 10.0, 15.0);
        assert!((row.bound - 30.0).abs() < 1e-9);
        assert!((row.ratio - 0.5).abs() < 1e-9);
        assert!(row.within());
        let bad = env.check("n=64", 10.0, 60.0);
        assert!(!bad.within());
    }

    #[test]
    fn degenerate_calibration_yields_no_envelope() {
        // A zero-ops calibration (no samples, or only shape-0 samples) has
        // nothing to fit a constant from: the fit says so instead of
        // handing back an epsilon constant that fails every later check.
        assert_eq!(Envelope::fit("theorem2", "amortized.time", &[]), None);
        assert_eq!(
            Envelope::fit("theorem2", "amortized.time", &[(0.0, 5.0), (-1.0, 2.0)]),
            None
        );
        // One usable sample among degenerates still fits.
        let env = Envelope::fit("theorem2", "amortized.time", &[(0.0, 5.0), (2.0, 4.0)])
            .expect("one usable sample");
        assert!((env.c - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_bound_cases() {
        let env = Envelope::fit("theorem2", "amortized.time", &[(1.0, 1e-12)]).expect("sample");
        // A vanishing constant: zero measured conforms, nonzero does not.
        let ok = env.check("zero", 0.0, 0.0);
        assert!(ok.within());
        let bad = env.check("zero", 0.0, 1.0);
        assert!(!bad.within());
    }

    #[test]
    fn display_marks_violations() {
        let env = Envelope::fit("theorem3", "bunion.time", &[(1.0, 1.0)]).expect("sample");
        let row = env.check("q=3", 1.0, 10.0);
        let line = row.to_string();
        assert!(line.contains("VIOLATION"));
    }
}
