//! The wall-clock suite's one gate rule: two arms timed as interleaved
//! pairs, judged by the median pair ratio against a noise floor the pairs
//! themselves give.
//!
//! `benches/wallclock.rs` runs every gate through [`interleave`] and
//! [`Paired::eval`]; the rule lives here so its unit tests run with the
//! crate's (a `harness = false` bench target runs no tests).

use std::time::Duration;

use crate::json::J;

/// Blocks of consecutive pairs a gate's noise floor compares. A gate's
/// pair count must be a positive multiple of it.
pub const PAIRED_BLOCKS: usize = 10;

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

/// A gate's two arms as `pairs` interleaved pairs, after `warmup` untimed
/// ones: each pair runs both arms back to back, the first arm alternating
/// from pair to pair, so a drift of the host hits both arms alike. Each
/// arm times its own run and returns the time. Returns each arm's samples.
pub fn interleave(
    pairs: usize,
    warmup: usize,
    mut fast: impl FnMut() -> Duration,
    mut slow: impl FnMut() -> Duration,
) -> (Vec<Duration>, Vec<Duration>) {
    for _ in 0..warmup {
        fast();
        slow();
    }
    let (mut f, mut s) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for pair in 0..pairs {
        if pair % 2 == 0 {
            f.push(fast());
            s.push(slow());
        } else {
            s.push(slow());
            f.push(fast());
        }
    }
    (f, s)
}

/// A gate checked on interleaved pairs: the median over pairs of
/// `slow / fast` must reach `threshold` (an overhead bound "`fast` within
/// `b`× of `slow`" is the threshold `1 / b`). Its noise floor is half
/// the range of the medians of [`PAIRED_BLOCKS`] consecutive blocks of
/// pairs: how far the run disagrees with itself over time. (The
/// confidence interval of the overall median, 0.004–0.013 on a 2-vCPU
/// host, was narrower than the medians of repeated runs spread, 0.90 to
/// 0.92 for the flight gate.) A margin beyond the floor passes or
/// fails; a margin inside it is `inconclusive` and does not fail the run.
pub struct Paired {
    /// The gate's name in the report.
    pub name: String,
    /// Row id of the arm that must be fast.
    pub fast: String,
    /// Row id of the arm it is compared against.
    pub slow: String,
    /// Required median `slow / fast`.
    pub threshold: f64,
}

impl Paired {
    /// Evaluate on the arms' samples, pair `i` being `(fast[i], slow[i])`;
    /// prints the verdict and returns (gate row, not failed).
    ///
    /// # Panics
    /// If the pair count is not a positive multiple of [`PAIRED_BLOCKS`].
    pub fn eval(&self, fast: &[Duration], slow: &[Duration]) -> (J, bool) {
        let ratios: Vec<f64> = fast
            .iter()
            .zip(slow)
            .map(|(f, s)| s.as_secs_f64() / f.as_secs_f64().max(1e-12))
            .collect();
        let n = ratios.len();
        assert!(
            n > 0 && n.is_multiple_of(PAIRED_BLOCKS),
            "gate {}: {n} pairs is not a positive multiple of the {PAIRED_BLOCKS} noise-floor blocks",
            self.name
        );
        let (lo, hi) = ratios
            .chunks(n / PAIRED_BLOCKS)
            .map(median)
            .fold((f64::MAX, f64::MIN), |(lo, hi), b| (lo.min(b), hi.max(b)));
        let floor = (hi - lo) / 2.0;
        let median = median(&ratios);
        let threshold = self.threshold;
        let verdict = match median - threshold {
            m if m > floor => "pass",
            m if m < -floor => "fail",
            _ => "inconclusive",
        };
        let mean = |d: &[Duration]| d.iter().sum::<Duration>().as_nanos() as f64 / d.len() as f64;
        println!(
            "gate {}: median {} / {} over {n} pairs = {median:.3}x (need >={threshold:.3}x, \
             noise floor {floor:.3}) {verdict}",
            self.name, self.slow, self.fast,
        );
        let row = J::obj([
            ("name", J::Str(self.name.clone())),
            ("fast", J::Str(self.fast.clone())),
            ("slow", J::Str(self.slow.clone())),
            ("fast_mean_ns", J::Num(mean(fast))),
            ("slow_mean_ns", J::Num(mean(slow))),
            ("pairs", J::UInt(n as u64)),
            ("ratio", J::Num(median)),
            ("noise_floor", J::Num(floor)),
            ("threshold", J::Num(threshold)),
            ("verdict", J::Str(verdict.into())),
            ("pass", J::Bool(verdict == "pass")),
        ]);
        (row, verdict != "fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATE: Paired = Paired {
        name: String::new(),
        fast: String::new(),
        slow: String::new(),
        threshold: 2.0,
    };

    /// Pair samples whose `slow / fast` ratios are `ratios` (fast = 1 ms).
    fn arms(ratios: &[f64]) -> (Vec<Duration>, Vec<Duration>) {
        let ms = Duration::from_millis(1);
        (
            vec![ms; ratios.len()],
            ratios.iter().map(|r| ms.mul_f64(*r)).collect(),
        )
    }

    fn verdict(ratios: &[f64]) -> (String, f64, f64, bool) {
        let (fast, slow) = arms(ratios);
        let (row, ok) = GATE.eval(&fast, &slow);
        let field = |k| row.get(k).and_then(J::as_f64).expect("numeric field");
        let verdict = row.get("verdict").and_then(J::as_str).expect("verdict");
        (
            verdict.to_string(),
            field("ratio"),
            field("noise_floor"),
            ok,
        )
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interleave_alternates_the_first_arm_and_drops_warmup() {
        let order = std::cell::RefCell::new(Vec::new());
        let tick = |arm| {
            order.borrow_mut().push(arm);
            Duration::from_nanos(order.borrow().len() as u64)
        };
        let (f, s) = interleave(4, 1, || tick('f'), || tick('s'));
        assert_eq!(order.into_inner(), "fsfssffssf".chars().collect::<Vec<_>>());
        assert_eq!((f.len(), s.len()), (4, 4));
        // The timed samples start after the warm-up pair's two runs.
        assert_eq!(f[0], Duration::from_nanos(3));
    }

    #[test]
    fn steady_ratio_beyond_threshold_passes() {
        let ratios: Vec<f64> = (0..20).map(|i| 3.0 + 0.01 * (i % 3) as f64).collect();
        let (v, ratio, floor, ok) = verdict(&ratios);
        assert_eq!(v, "pass");
        assert!(ok);
        assert!((ratio - 3.01).abs() < 1e-9, "{ratio}");
        assert!(floor < 0.02, "{floor}");
    }

    #[test]
    fn steady_ratio_below_threshold_fails() {
        let (v, ratio, _, ok) = verdict(&[1.5; 20]);
        assert_eq!(v, "fail");
        assert!(!ok);
        assert!((ratio - 1.5).abs() < 1e-9);
    }

    #[test]
    fn margin_inside_the_floor_is_inconclusive() {
        // Block medians drift from 1.5 to 2.4 while the overall median
        // sits just above the threshold: the run disagrees with itself by
        // more than the margin, so it neither passes nor fails.
        let ratios: Vec<f64> = (0..20).map(|i| 1.5 + 0.1 * (i / 2) as f64).collect();
        let (v, ratio, floor, ok) = verdict(&ratios);
        assert_eq!(v, "inconclusive");
        assert!(ok, "an inconclusive gate does not fail the run");
        assert!((ratio - 1.95).abs() < 1e-9, "{ratio}");
        assert!((floor - 0.45).abs() < 1e-9, "{floor}");
    }

    #[test]
    #[should_panic(expected = "not a positive multiple of the 10 noise-floor blocks")]
    fn fewer_pairs_than_blocks_is_refused() {
        verdict(&[3.0; PAIRED_BLOCKS - 1]);
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn a_ragged_last_block_is_refused() {
        verdict(&[3.0; PAIRED_BLOCKS + 5]);
    }
}
