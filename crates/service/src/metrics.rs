//! Per-shard counters proving the admission layer actually batches.
//!
//! The interesting invariantly-testable facts live here: how many inserts
//! arrived coalesced vs. alone, how often the bulk build kernel fired, how
//! much pop demand one `multi_extract_min` served. The batching-ingress unit
//! test asserts on these (together with `meldpq::ArenaStats`) to prove
//! coalescing triggers the bulk kernels rather than degenerate one-by-one
//! execution.

use obs::Recorder;

/// Cumulative counters for one shard. Snapshot via
/// [`crate::QueueService::shard_stats`]; reported through [`obs::Recorder`]
/// under the `service.shard` family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Combiner rounds that executed at least one request.
    pub batches: u64,
    /// Largest single batch drained from the ingress.
    pub max_batch: u64,
    /// Requests executed in total.
    pub requests: u64,
    /// Keys inserted one-by-one (batch for their queue was below the bulk
    /// threshold).
    pub single_inserts: u64,
    /// Keys inserted through a coalesced bulk build.
    pub coalesced_inserts: u64,
    /// Bulk `from_keys_parallel` builds triggered by coalescing.
    pub bulk_builds: u64,
    /// Keys served to pop requests through a shared `multi_extract_min`
    /// (batches whose pop demand exceeded one key).
    pub coalesced_pops: u64,
    /// `multi_extract_min` kernel invocations serving ≥ 2 keys of demand.
    pub multi_extracts: u64,
    /// Same-shard melds (zero-copy plan application).
    pub melds_same_shard: u64,
    /// Cross-shard melds (counted node moves).
    pub melds_cross_shard: u64,
    /// Requests rejected because their handle was stale or unknown.
    pub stale_ops: u64,
    /// Queues created on this shard.
    pub queues_created: u64,
    /// Queues destroyed (or consumed by meld) on this shard.
    pub queues_destroyed: u64,
    /// Combiner sessions that served at least one batch (one lock tenure
    /// may drain several batches; this counts tenures, not drains).
    pub combines: u64,
    /// Total wall-clock nanoseconds spent inside working combiner
    /// sessions. `combine_ns / combines` is the mean combiner occupancy.
    pub combine_ns: u64,
    /// Times a poisoned state lock was recovered (a combiner panicked while
    /// holding it and the next locker cleared the poison).
    pub poison_recoveries: u64,
    /// Poison recoveries where `check_pool` found the state damaged and the
    /// shard was reset to empty (every queue lost).
    pub poison_resets: u64,
    /// Per-queue batch executions that panicked and were contained by the
    /// combiner's catch-unwind barrier.
    pub combiner_panics: u64,
    /// Logical ops appended to this shard's write-ahead log.
    pub wal_appends: u64,
    /// Durability checkpoints written by this shard.
    pub wal_checkpoints: u64,
    /// WAL/checkpoint I/O failures. Any failure disables durability on the
    /// shard (it keeps serving from memory) rather than failing requests.
    pub wal_errors: u64,
}

impl ShardStats {
    /// Count one executed batch of `n` requests.
    pub(crate) fn count_batch(&mut self, n: usize) {
        self.batches += 1;
        self.max_batch = self.max_batch.max(n as u64);
        self.requests += n as u64;
    }
}

impl Recorder for ShardStats {
    fn family(&self) -> &'static str {
        "service.shard"
    }

    fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("batches", self.batches),
            ("max_batch", self.max_batch),
            ("requests", self.requests),
            ("single_inserts", self.single_inserts),
            ("coalesced_inserts", self.coalesced_inserts),
            ("bulk_builds", self.bulk_builds),
            ("coalesced_pops", self.coalesced_pops),
            ("multi_extracts", self.multi_extracts),
            ("melds_same_shard", self.melds_same_shard),
            ("melds_cross_shard", self.melds_cross_shard),
            ("stale_ops", self.stale_ops),
            ("queues_created", self.queues_created),
            ("queues_destroyed", self.queues_destroyed),
            ("combines", self.combines),
            ("combine_ns", self.combine_ns),
            ("poison_recoveries", self.poison_recoveries),
            ("poison_resets", self.poison_resets),
            ("combiner_panics", self.combiner_panics),
            ("wal_appends", self.wal_appends),
            ("wal_checkpoints", self.wal_checkpoints),
            ("wal_errors", self.wal_errors),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_surface() {
        let s = ShardStats {
            batches: 3,
            coalesced_inserts: 12,
            ..Default::default()
        };
        assert_eq!(s.family(), "service.shard");
        let f = s.fields();
        assert!(f.contains(&("batches", 3)));
        assert!(f.contains(&("coalesced_inserts", 12)));
    }
}
