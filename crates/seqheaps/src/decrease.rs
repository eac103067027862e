//! Handles for `Decrease-Key`.
//!
//! The paper's Definition 1 stops at `Union`; its §4 lazy structure adds
//! `Change-Key` via `-∞` empty nodes. Engines that expose a decrease
//! (through [`DecreaseKeyPq`](crate::DecreaseKeyPq)) hand out a
//! [`PqHandle`] per tracked element. Handles are minted from one
//! process-wide counter ([`mint`]), so they stay unique across melds —
//! absorbing a heap never needs a handle translation (contrast
//! `IndexedBinomialHeap::meld`, which returns a remapper).
//!
//! Only an engine with real node identity decreases in place: the pairing
//! heap cuts the node's subtree and relinks it with the root. The binomial,
//! leftist and skew heaps move keys between nodes, so they have no node to
//! name; a Dijkstra over them reinserts the new key and skips stale pops,
//! which is the paper's §4 insert-and-orphan `Change-Key` in sequential form.

use std::sync::atomic::{AtomicU64, Ordering};

/// An opaque, process-unique handle to a tracked element.
///
/// Handles survive `meld` (both queues' handles stay valid on the merged
/// queue) and go stale when their element is extracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PqHandle(u64);

impl PqHandle {
    /// The raw unique id (stable for the process lifetime).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

/// Mint a fresh process-unique handle — the one counter behind every
/// [`DecreaseKeyPq`](crate::DecreaseKeyPq) in the workspace.
pub fn mint() -> PqHandle {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    PqHandle(NEXT.fetch_add(1, Ordering::Relaxed))
}
