//! Machine-independent operation counters.
//!
//! The 1996 paper argues about *work* (total primitive operations) rather than
//! wall clock, so every heap in this crate counts the primitives its analysis
//! charges: key comparisons and structural links. The benchmark harness (W1)
//! reports these next to wall-clock numbers.

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

    /// Zero all counters.
    pub fn reset(&self) {
        self.comparisons.set(0);
        self.links.set(0);
    }

    /// Fold another counter block into this one (used by `meld`, which
    /// inherits the absorbed heap's history).
    pub fn absorb(&self, other: &OpStats) {
        self.add_comparisons(other.comparisons());
        self.links.set(self.links.get() + other.links());
    }

    /// The sum of two counter blocks as a fresh value (the non-mutating
    /// sibling of [`OpStats::absorb`], for aggregating across heaps).
    pub fn merge(&self, other: &OpStats) -> OpStats {
        OpStats {
            comparisons: Cell::new(self.comparisons() + other.comparisons()),
            links: Cell::new(self.links() + other.links()),
        }
    }

    /// `self - before` for two snapshots of the *same* cumulative counters,
    /// taken without an intervening [`OpStats::reset`] — `self` must be the
    /// later snapshot. Saturates at zero rather than panicking if the
    /// contract is broken (e.g. a reset slipped between the snapshots).
    pub fn delta(&self, before: &OpStats) -> OpStats {
        OpStats {
            comparisons: Cell::new(self.comparisons().saturating_sub(before.comparisons())),
            links: Cell::new(self.links().saturating_sub(before.links())),
        }
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
    fn counts_accumulate_and_reset() {
        let s = OpStats::new();
        s.add_comparisons(3);
        s.add_link();
        s.add_link();
        assert_eq!(s.comparisons(), 3);
        assert_eq!(s.links(), 2);
        let t = OpStats::new();
        t.add_comparisons(5);
        s.absorb(&t);
        assert_eq!(s.comparisons(), 8);
        s.reset();
        assert_eq!(s.comparisons(), 0);
        assert_eq!(s.links(), 0);
    }

    #[test]
    fn merge_delta_display() {
        let a = OpStats::new();
        a.add_comparisons(5);
        a.add_link();
        let b = OpStats::new();
        b.add_comparisons(2);
        let m = a.merge(&b);
        assert_eq!(m.comparisons(), 7);
        assert_eq!(m.links(), 1);
        // a itself is untouched (merge is the non-mutating absorb).
        assert_eq!(a.comparisons(), 5);
        let d = m.delta(&b);
        assert_eq!(d.comparisons(), 5);
        assert_eq!(d.links(), 1);
        // Swapped arguments saturate instead of panicking.
        let swapped = b.delta(&m);
        assert_eq!(swapped.comparisons(), 0);
        assert_eq!(swapped.links(), 0);
        assert_eq!(m.to_string(), "comparisons=7 links=1");
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
