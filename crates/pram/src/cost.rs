//! Time/work accounting — the currencies of Theorems 1–3.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Parallel cost of a (fragment of a) PRAM computation.
///
/// *Time* is the number of synchronous steps executed; *work* is the total
/// number of active processor-steps (the sum over steps of how many processors
/// did something). An algorithm is work-optimal when its work matches the best
/// sequential time bound — for the paper's `Union`, `O(log n)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Synchronous steps.
    pub time: u64,
    /// Active processor-steps.
    pub work: u64,
}

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost { time: 0, work: 0 };

    /// Cost of one step with `active` processors.
    pub fn step(active: usize) -> Cost {
        Cost {
            time: 1,
            work: active as u64,
        }
    }

    /// The classical `cost` upper bound: `time × p`.
    pub fn cost_bound(&self, p: usize) -> u64 {
        self.time * p as u64
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            time: self.time + rhs.time,
            work: self.work + rhs.work,
        }
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        self.time += rhs.time;
        self.work += rhs.work;
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "time={} work={}", self.time, self.work)
    }
}

/// Per-phase cost breakdown, labelled by the host program (e.g. the paper's
/// Phase I/II/III of `Union`).
#[derive(Debug, Clone, Default)]
pub struct PhaseCost {
    entries: Vec<(String, Cost)>,
}

impl PhaseCost {
    /// Empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `cost` to the phase named `label`, merging with an existing
    /// entry of the same name.
    pub fn charge(&mut self, label: &str, cost: Cost) {
        if let Some((_, c)) = self.entries.iter_mut().find(|(l, _)| l == label) {
            *c += cost;
        } else {
            self.entries.push((label.to_string(), cost));
        }
    }

    /// The recorded phases in first-charged order.
    pub fn entries(&self) -> &[(String, Cost)] {
        &self.entries
    }

    /// Total across phases.
    pub fn total(&self) -> Cost {
        self.entries.iter().fold(Cost::ZERO, |acc, (_, c)| acc + *c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_arithmetic() {
        let a = Cost { time: 3, work: 10 };
        let b = Cost::step(4);
        assert_eq!(a + b, Cost { time: 4, work: 14 });
        assert_eq!((a + b).cost_bound(8), 32);
    }

    #[test]
    fn phase_merging() {
        let mut pc = PhaseCost::new();
        pc.charge("I", Cost { time: 1, work: 2 });
        pc.charge("II", Cost { time: 5, work: 9 });
        pc.charge("I", Cost { time: 2, work: 3 });
        assert_eq!(pc.entries().len(), 2);
        assert_eq!(pc.entries()[0].1, Cost { time: 3, work: 5 });
        assert_eq!(pc.total(), Cost { time: 8, work: 14 });
    }
}
