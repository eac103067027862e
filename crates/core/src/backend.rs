//! The shootout roster.
//!
//! The workspace carries several queue engines behind one [`MeldablePq`]
//! surface; [`Backend`] lists the ones the shootout benchmark
//! (`crates/bench/src/bin/shootout.rs`) races: the §3 binomial heap, the
//! baselines PAPER.md §2 names (the CLRS binomial heap it parallelises and
//! the leftist heap it does not claim to beat) and `std`'s binary heap. The
//! shootout gates the paper's positioning on them and writes
//! `reports/BENCH_shootout.json`. Every backend runs the shootout's Dijkstra
//! class by reinsert-and-skip-stale, the sequential form of the paper's §4
//! insert-and-orphan `Change-Key`.
//!
//! Nothing dispatches on a backend: the service's tenant queues are always
//! heaps of a shard's [`crate::HeapPool`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::heap::ParBinomialHeap;
use crate::meldable::MeldablePq;

/// Every constructible queue engine in the workspace (the shootout roster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The §3 parallel binomial heap (`ParBinomialHeap`, a one-heap
    /// `HeapPool`), sequential planner.
    Pooled,
    /// Sequential CLRS binomial heap.
    Binomial,
    /// Leftist heap.
    Leftist,
    /// `std::collections::BinaryHeap` adapter (meld rebuilds).
    Binary,
}

impl Backend {
    /// The full roster, in shootout order.
    pub const ALL: [Backend; 4] = [
        Backend::Pooled,
        Backend::Binomial,
        Backend::Leftist,
        Backend::Binary,
    ];

    /// Stable snake_case name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Pooled => "pooled",
            Backend::Binomial => "binomial",
            Backend::Leftist => "leftist",
            Backend::Binary => "binary",
        }
    }

    /// Construct an empty queue of this backend.
    pub fn make(self) -> Box<dyn MeldablePq<i64>> {
        match self {
            Backend::Pooled => Box::new(ParBinomialHeap::new()),
            Backend::Binomial => Box::new(seqheaps::BinomialHeap::new()),
            Backend::Leftist => Box::new(seqheaps::LeftistHeap::new()),
            Backend::Binary => Box::new(seqheaps::BinaryHeapAdapter::new()),
        }
    }
}

/// One-line rendering of the roster, `backends: pooled binomial ...`.
///
/// Its only caller is perfbench's provenance stamp (the `backends` field);
/// ROADMAP item 1 deletes it together with `QueueService::backend()`.
pub fn describe() -> String {
    let names: Vec<&str> = Backend::ALL.iter().map(|b| b.name()).collect();
    format!("backends: {}", names.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_backend_constructs_a_working_queue() {
        for b in Backend::ALL {
            let mut q = b.make();
            q.multi_insert(&[5, 1, 3]);
            assert_eq!(q.peek_min(), Some(1), "{}", b.name());
            assert_eq!(q.extract_min(), Some(1), "{}", b.name());
            assert_eq!(q.len(), 2, "{}", b.name());
            assert_eq!(q.drain_sorted(), vec![3, 5], "{}", b.name());
        }
    }

    #[test]
    fn describe_lists_the_roster() {
        assert_eq!(describe(), "backends: pooled binomial leftist binary");
    }
}
