//! Cost meter for the lazy operations' phases that are charged, not simulated.
//!
//! Every `Union` inside `Take-Up`/`Arrange-Heap` is *measured* on the PRAM
//! simulator, and so are Arrange-Heap's CREW distance computation and
//! pipelined bubble-up (`distances_pram`, `bubble_up_pram`). The remaining
//! phases — constant-time pointer surgery and data-parallel passes over
//! `O(log n)` slots — are charged here with the schedule the paper's
//! analysis uses (Brent-scheduled `⌈n/p⌉` rounds).

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
}
