//! Machine-independent operation counters.
//!
//! The 1996 paper argues about *work* (total primitive operations) rather than
//! wall clock, so every heap in this crate counts the primitives its analysis
//! charges: key comparisons and structural links. The `oracle` integration
//! test asserts W1's claim on them: over 64 melds, the binomial heap does
//! the fewest comparisons and the binary-heap adapter, which re-inserts on
//! meld, the most.

use std::cell::Cell;

/// Counters for the primitive operations a heap performs.
///
/// Interior mutability (`Cell`) lets read-only operations such as `Min`
/// account their comparisons without requiring `&mut self`.
#[derive(Debug, Default)]
pub struct OpStats {
    comparisons: Cell<u64>,
    links: Cell<u64>,
}

impl Clone for OpStats {
    fn clone(&self) -> Self {
        OpStats {
            comparisons: Cell::new(self.comparisons.get()),
            links: Cell::new(self.links.get()),
        }
    }
}

impl OpStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` key comparisons.
    #[inline]
    pub fn add_comparisons(&self, n: u64) {
        self.comparisons.set(self.comparisons.get() + n);
    }

    /// Record one structural link (a node becoming the child of another, or a
    /// spine pointer rewrite in self-adjusting heaps).
    #[inline]
    pub fn add_link(&self) {
        self.links.set(self.links.get() + 1);
    }

    /// Total key comparisons recorded.
    pub fn comparisons(&self) -> u64 {
        self.comparisons.get()
    }

    /// Total structural links recorded.
    pub fn links(&self) -> u64 {
        self.links.get()
    }

    /// Fold another counter block into this one (used by `meld`, which
    /// inherits the absorbed heap's history).
    pub fn absorb(&self, other: &OpStats) {
        self.add_comparisons(other.comparisons());
        self.links.set(self.links.get() + other.links());
    }
}

impl std::fmt::Display for OpStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "comparisons={} links={}",
            self.comparisons(),
            self.links()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_and_absorb() {
        let s = OpStats::new();
        s.add_comparisons(3);
        s.add_link();
        s.add_link();
        assert_eq!(s.comparisons(), 3);
        assert_eq!(s.links(), 2);
        let t = OpStats::new();
        t.add_comparisons(5);
        t.add_link();
        s.absorb(&t);
        assert_eq!(s.comparisons(), 8);
        assert_eq!(s.links(), 3);
        // The absorbed block is untouched.
        assert_eq!(t.comparisons(), 5);
    }

    #[test]
    fn display_names_both_counts() {
        let s = OpStats::new();
        s.add_comparisons(7);
        s.add_link();
        assert_eq!(s.to_string(), "comparisons=7 links=1");
    }

    #[test]
    fn clone_snapshots_values() {
        let s = OpStats::new();
        s.add_comparisons(7);
        let c = s.clone();
        s.add_comparisons(1);
        assert_eq!(c.comparisons(), 7);
        assert_eq!(s.comparisons(), 8);
    }
}
