//! Per-shard counters: how many requests ran, which kernels served them,
//! and what the WAL and the panic barrier did. Unit and integration tests
//! assert on these (together with `meldpq::ArenaStats`) to prove which
//! kernel a request ran. A shard keeps one per bookkeeping lane
//! ([`crate::shard`]) and sums them when read.

/// Declares [`ShardStats`] and its field-wise sum from one field list, so
/// a counter added later cannot be left out when lanes are summed.
macro_rules! counters {
    ($(#[$meta:meta])* pub struct $name:ident { $($(#[$doc:meta])* pub $field:ident: u64,)* }) => {
        $(#[$meta])*
        pub struct $name { $($(#[$doc])* pub $field: u64,)* }

        impl $name {
            /// Add every counter of `other` into `self`.
            pub(crate) fn add(&mut self, other: &$name) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

counters! {
/// Cumulative counters for one shard. Snapshot via
/// [`crate::QueueService::shard_stats`]; reported by
/// [`crate::ServiceSnapshot::to_json`] through [`ShardStats::fields`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// `requests`, copied in when the lanes are summed: every request runs
    /// alone, so no op writes it. Kept because the benchmark reads it.
    pub batches: u64,
    /// Requests executed in total.
    pub requests: u64,
    /// Keys inserted alone: their request held exactly one key.
    pub single_inserts: u64,
    /// Keys inserted through the `multi_insert` of a request holding two
    /// or more keys.
    pub coalesced_inserts: u64,
    /// Keys served by `multi_extract_min` (requests whose pop demand
    /// exceeded one key).
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
    /// Always 0: no code writes it. Read only by the benchmark, and kept
    /// out of [`ShardStats::fields`], until the benchmark stops reading it.
    pub combines: u64,
    /// Always 0, like [`ShardStats::combines`].
    pub combine_ns: u64,
    /// Times a poisoned state lock was recovered (a thread panicked while
    /// holding it and the next locker cleared the poison).
    pub poison_recoveries: u64,
    /// Poison recoveries where `check_pool` found the state damaged and the
    /// shard was reset to empty (every queue lost).
    pub poison_resets: u64,
    /// Requests that panicked and were contained by the executor's
    /// catch-unwind barrier.
    pub combiner_panics: u64,
    /// Logical ops appended to this shard's write-ahead log.
    pub wal_appends: u64,
    /// Durability checkpoints written by this shard.
    pub wal_checkpoints: u64,
    /// WAL/checkpoint I/O failures. Any failure disables durability on the
    /// shard (it keeps serving from memory) rather than failing requests.
    pub wal_errors: u64,
}
}

impl ShardStats {
    /// The counters a report prints, in a stable order; `combines` and
    /// `combine_ns` stay out.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("batches", self.batches),
            ("requests", self.requests),
            ("single_inserts", self.single_inserts),
            ("coalesced_inserts", self.coalesced_inserts),
            ("coalesced_pops", self.coalesced_pops),
            ("multi_extracts", self.multi_extracts),
            ("melds_same_shard", self.melds_same_shard),
            ("melds_cross_shard", self.melds_cross_shard),
            ("stale_ops", self.stale_ops),
            ("queues_created", self.queues_created),
            ("queues_destroyed", self.queues_destroyed),
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
        let f = s.fields();
        assert!(f.contains(&("batches", 3)));
        assert!(f.contains(&("coalesced_inserts", 12)));
        assert!(
            f.iter()
                .all(|(k, _)| !["combines", "combine_ns"].contains(k)),
            "counters nothing writes stay out"
        );
    }
}
