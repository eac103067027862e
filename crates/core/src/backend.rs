//! The shootout roster and its record of measured winners.
//!
//! The workspace carries many queue engines behind one [`MeldablePq`]
//! surface; [`Backend`] lists the ones worth constructing: the §3 binomial
//! heap, the paper's baselines and the hollow heap. The shootout benchmark
//! (`crates/bench/src/bin/shootout.rs`) races every backend over uniform,
//! adversarial and Dijkstra-style sequential workloads and writes
//! `reports/BENCH_shootout.json`; the selection table in this module is the
//! committed record of which engine won each class.
//!
//! Nothing dispatches on the table: the service's tenant queues are always
//! heaps of a shard's [`crate::HeapPool`], whatever the table says.

use crate::heap::ParBinomialHeap;
use crate::meldable::MeldablePq;

/// Every constructible queue engine in the workspace (the shootout roster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are the engine names
pub enum Backend {
    /// The §3 parallel binomial heap (`ParBinomialHeap`, a one-heap
    /// `HeapPool`), sequential planner.
    Pooled,
    /// Sequential CLRS binomial heap.
    Binomial,
    /// Leftist heap.
    Leftist,
    /// Pairing heap, two-pass combine.
    Pairing,
    /// Implicit 4-ary heap.
    Dary4,
    /// Hollow heap (lazy deletion, O(1) decrease-key).
    Hollow,
    /// `std::collections::BinaryHeap` adapter (meld rebuilds).
    Binary,
}

impl Backend {
    /// The full roster, in shootout order.
    pub const ALL: [Backend; 7] = [
        Backend::Pooled,
        Backend::Binomial,
        Backend::Leftist,
        Backend::Pairing,
        Backend::Dary4,
        Backend::Hollow,
        Backend::Binary,
    ];

    /// Stable snake_case name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Pooled => "pooled",
            Backend::Binomial => "binomial",
            Backend::Leftist => "leftist",
            Backend::Pairing => "pairing",
            Backend::Dary4 => "dary4",
            Backend::Hollow => "hollow",
            Backend::Binary => "binary",
        }
    }

    /// Construct an empty queue of this backend.
    pub fn make(self) -> Box<dyn MeldablePq<i64>> {
        match self {
            Backend::Pooled => Box::new(ParBinomialHeap::new()),
            Backend::Binomial => Box::new(seqheaps::BinomialHeap::new()),
            Backend::Leftist => Box::new(seqheaps::LeftistHeap::new()),
            Backend::Pairing => Box::new(seqheaps::PairingHeap::new()),
            Backend::Dary4 => Box::new(seqheaps::DaryHeap::<i64, 4>::new()),
            Backend::Hollow => Box::new(seqheaps::HollowHeap::new()),
            Backend::Binary => Box::new(seqheaps::BinaryHeapAdapter::new()),
        }
    }

    /// Construct an empty queue with native decrease-key, when this backend
    /// has one. `None` means the engine must fall back to the
    /// reinsert-and-skip-stale simulation (the classic Dijkstra workaround),
    /// which is exactly what the shootout charges it for.
    pub fn make_decrease(self) -> Option<Box<dyn crate::decrease::DecreaseKeyPq<i64>>> {
        match self {
            Backend::Binomial => Some(Box::new(seqheaps::BinomialHeap::new())),
            Backend::Leftist => Some(Box::new(seqheaps::LeftistHeap::new())),
            Backend::Pairing => Some(Box::new(seqheaps::PairingHeap::new())),
            Backend::Hollow => Some(Box::new(seqheaps::HollowHeap::new())),
            Backend::Pooled | Backend::Dary4 | Backend::Binary => None,
        }
    }
}

/// The workload classes the shootout measures (one selection-table row
/// each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Well-mixed keys, insert/extract churn with periodic melds.
    Uniform,
    /// Ascending key stream (adversarial for self-adjusting shapes).
    Sorted,
    /// Descending key stream.
    Reverse,
    /// Heavy key duplication (16 distinct keys).
    DupHeavy,
    /// SSSP-style: tracked inserts, decrease-key bursts, extract-all.
    Dijkstra,
}

impl WorkloadClass {
    /// Every class, in shootout order.
    pub const ALL: [WorkloadClass; 5] = [
        WorkloadClass::Uniform,
        WorkloadClass::Sorted,
        WorkloadClass::Reverse,
        WorkloadClass::DupHeavy,
        WorkloadClass::Dijkstra,
    ];

    /// Stable snake_case name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadClass::Uniform => "uniform",
            WorkloadClass::Sorted => "sorted",
            WorkloadClass::Reverse => "reverse",
            WorkloadClass::DupHeavy => "dup_heavy",
            WorkloadClass::Dijkstra => "dijkstra",
        }
    }
}

/// The committed selection table: measured winners of the shootout run in
/// `reports/BENCH_shootout.json` (regenerate with
/// `cargo run --release --bin shootout`, then update here; the CI
/// `shootout-smoke` job gates the table against drifting more than 1.25×
/// from the measured best).
/// Measured 2026-08: `binary` (std `BinaryHeap` behind the adapter) sweeps
/// every sequential class at every size — even Dijkstra, where its
/// reinsert-and-skip-stale simulation beats the native decrease-key
/// engines' pointer chasing, a well-documented real-world result.
const SELECTION: [(WorkloadClass, Backend); 5] = [
    (WorkloadClass::Uniform, Backend::Binary),
    (WorkloadClass::Sorted, Backend::Binary),
    (WorkloadClass::Reverse, Backend::Binary),
    (WorkloadClass::DupHeavy, Backend::Binary),
    (WorkloadClass::Dijkstra, Backend::Binary),
];

/// The measured-fastest backend for `class`.
pub fn table_pick(class: WorkloadClass) -> Backend {
    SELECTION
        .iter()
        .find(|(c, _)| *c == class)
        .map(|(_, b)| *b)
        .expect("selection table covers every class")
}

/// One-line rendering of the selection table (bench logs, provenance).
pub fn describe() -> String {
    let rows: Vec<String> = WorkloadClass::ALL
        .iter()
        .map(|c| format!("{}={}", c.name(), table_pick(*c).name()))
        .collect();
    format!("backends: {}", rows.join(" "))
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
    fn decrease_capable_backends_honor_handles() {
        let mut native = 0;
        for b in Backend::ALL {
            let Some(mut q) = b.make_decrease() else {
                continue;
            };
            native += 1;
            let h = q.insert_handle(50);
            q.insert_handle(20);
            assert!(q.decrease_key(h, 5), "{}", b.name());
            assert_eq!(q.extract_min(), Some(5), "{}", b.name());
            assert_eq!(q.extract_min(), Some(20), "{}", b.name());
        }
        assert_eq!(native, 4, "decrease-key roster drifted");
    }

    #[test]
    fn table_covers_every_class() {
        for c in WorkloadClass::ALL {
            // Must not panic; the winner must be on the roster.
            let b = table_pick(c);
            assert!(Backend::ALL.contains(&b), "{}", c.name());
        }
    }

    #[test]
    fn describe_lists_all_classes() {
        let d = describe();
        for c in WorkloadClass::ALL {
            assert!(d.contains(c.name()), "missing {}: {d}", c.name());
        }
    }
}
