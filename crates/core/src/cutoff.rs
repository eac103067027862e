//! Two fixed answers for the benchmark crate (`perfbench/`), which calls
//! these names.
//!
//! The crate has no host-thread kernels. Every multi-key insert is one
//! ripple ([`crate::HeapPool::multi_insert`]), so there is no cutoff to
//! calibrate and no batch size at which a different kernel takes over. The
//! paper's parallelism is measured on the PRAM and hypercube simulators,
//! where `p` is exact (DESIGN.md §12).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// The batch size from which a bulk kernel would replace the ripple:
/// none, so `usize::MAX`.
pub fn batch_bulk_cutoff() -> usize {
    usize::MAX
}

/// One-line provenance for bench logs.
pub fn describe() -> String {
    "cutoffs: none (every insert ripples)".to_string()
}
