//! Cost meter for the non-Union phases of the lazy operations.
//!
//! Every `Union` inside `Take-Up`/`Arrange-Heap` is *measured* on the PRAM
//! simulator. The remaining phases — constant-time pointer surgery,
//! data-parallel passes over `O(log n)` slots, the CREW distance computation
//! and the pipelined bubble-up — are charged here with exactly the schedule
//! the paper's analysis uses (Brent-scheduled `⌈n/p⌉` rounds; pipeline time
//! `max-depth + #markers`).

use pram::Cost;

/// Accumulates charged parallel cost for one lazy (sub)operation.
#[derive(Debug, Clone)]
pub struct CostMeter {
    p: usize,
    cost: Cost,
}

impl CostMeter {
    /// A meter for a `p`-processor schedule.
    pub fn new(p: usize) -> Self {
        CostMeter {
            p,
            cost: Cost::ZERO,
        }
    }

    /// Add an already-measured cost (e.g. from a PRAM-run Union).
    pub fn add(&mut self, c: Cost) {
        self.cost += c;
    }

    /// A constant number of sequential steps on one processor.
    pub fn charge_const(&mut self, steps: u64) {
        self.cost += Cost {
            time: steps,
            work: steps,
        };
    }

    /// A data-parallel pass over `n` items, Brent-scheduled on `p`
    /// processors: `⌈n/p⌉` time, `n` work.
    pub fn charge_par(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.cost += Cost {
            time: n.div_ceil(self.p) as u64,
            work: n as u64,
        };
    }

    /// The CREW distance computation of Arrange-Heap: each of `markers`
    /// processors walks up at most `max_depth` ancestors concurrently
    /// (concurrent *reads* of shared ancestors — this is the paper's reason
    /// for requiring CREW). Time `⌈markers/p⌉ · max_depth`, work
    /// `Σ depths ≤ markers · max_depth` (we charge the actual sum).
    pub fn charge_distance_computation(&mut self, depths: &[usize]) {
        let Some(&max) = depths.iter().max() else {
            return;
        };
        let max = max as u64;
        let rounds = depths.len().div_ceil(self.p) as u64;
        self.cost += Cost {
            time: rounds * max,
            work: depths.iter().map(|&d| d as u64).sum(),
        };
    }

    /// The pipelined bubble-up (Fact 3): markers sorted by depth move up one
    /// level per step, pipelined, so the parallel time is
    /// `max_depth + #markers` and the work is the total number of swaps.
    pub fn charge_pipeline(&mut self, max_depth: usize, markers: usize, total_swaps: usize) {
        if markers == 0 {
            return;
        }
        // With fewer processors than markers the pipeline issues in waves.
        let waves = markers.div_ceil(self.p) as u64;
        self.cost += Cost {
            time: max_depth as u64 + waves.max(1) * markers.min(self.p) as u64,
            work: total_swaps as u64,
        };
    }

    /// The accumulated cost.
    pub fn total(&self) -> Cost {
        self.cost
    }

    /// The processor count this meter schedules for.
    pub fn p(&self) -> usize {
        self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_charge_is_brent_scheduled() {
        let mut m = CostMeter::new(4);
        m.charge_par(10);
        assert_eq!(m.total(), Cost { time: 3, work: 10 });
        m.charge_par(0);
        assert_eq!(m.total(), Cost { time: 3, work: 10 });
    }

    #[test]
    fn pipeline_charge_shape() {
        let mut m = CostMeter::new(8);
        m.charge_pipeline(10, 5, 23);
        let c = m.total();
        assert_eq!(c.time, 10 + 5);
        assert_eq!(c.work, 23);
    }

    #[test]
    fn distance_charge_uses_sum_for_work() {
        let mut m = CostMeter::new(2);
        m.charge_distance_computation(&[3, 1, 2]);
        let c = m.total();
        assert_eq!(c.work, 6);
        assert_eq!(c.time, 2 * 3); // ceil(3/2) rounds × max depth 3
    }
}
