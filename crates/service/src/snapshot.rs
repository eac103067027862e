//! Live introspection: a point-in-time view of every shard, cheap enough
//! to poll while the service is under load.
//!
//! [`crate::QueueService::snapshot`] takes each shard's lock in turn and
//! sums its lanes' counters and latency histograms. The result renders as
//! JSON ([`ServiceSnapshot::to_json`], the service's one report) or as a
//! text table ([`ServiceSnapshot::render`], what `pqtop` shows).

use obs::json::J;
use obs::LatencyHistogram;

use crate::metrics::ShardStats;

/// Point-in-time view of one shard.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// The shard's index in the service's shard map.
    pub shard: u16,
    /// Live (not destroyed/melded-away) queues on the shard.
    pub live_queues: usize,
    /// Total keys across the shard's live queues.
    pub total_keys: usize,
    /// Whether the shard's write-ahead log is open. `false` with
    /// `stats.wal_errors > 0` means an I/O error closed the log: ops
    /// acknowledged since then are served from memory and are not
    /// recoverable (DESIGN.md §15).
    pub durable: bool,
    /// Cumulative counters.
    pub stats: ShardStats,
    /// Call latency of every request served so far.
    pub latency: LatencyHistogram,
}

/// Point-in-time view of the whole service (one entry per shard).
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    /// Per-shard views, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
}

impl ServiceSnapshot {
    /// Keys held across all shards.
    pub fn total_keys(&self) -> usize {
        self.shards.iter().map(|s| s.total_keys).sum()
    }

    /// Latency across all shards (merged histograms).
    pub fn latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for s in &self.shards {
            merged.merge(&s.latency);
        }
        merged
    }

    /// The snapshot as a JSON document: per shard, its occupancy, the
    /// [`ShardStats::fields`] counters and the
    /// [`LatencyHistogram::fields`] summary.
    pub fn to_json(&self) -> J {
        let fields = |fields: Vec<(&str, u64)>| {
            J::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), J::UInt(v)))
                    .collect(),
            )
        };
        J::obj([
            ("report", J::Str("service_snapshot".into())),
            (
                "shards",
                J::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            J::obj([
                                ("shard", J::UInt(s.shard as u64)),
                                ("live_queues", J::UInt(s.live_queues as u64)),
                                ("total_keys", J::UInt(s.total_keys as u64)),
                                ("durable", J::Bool(s.durable)),
                                ("stats", fields(s.stats.fields())),
                                ("latency", fields(s.latency.fields())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The snapshot as an aligned text table, one row per shard plus a
    /// totals row — what `pqtop` refreshes on screen.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("shard  queues      keys  requests   p50_us   p99_us    stale  durable\n");
        let us = |ns: u64| ns / 1_000;
        for s in &self.shards {
            out.push_str(&format!(
                "{:>5}  {:>6}  {:>8}  {:>8}  {:>7}  {:>7}  {:>7}  {:>7}\n",
                s.shard,
                s.live_queues,
                s.total_keys,
                s.stats.requests,
                us(s.latency.quantile(0.50)),
                us(s.latency.quantile(0.99)),
                s.stats.stale_ops,
                if s.durable { "yes" } else { "no" },
            ));
        }
        let all = self.latency();
        out.push_str(&format!(
            "total  {:>6}  {:>8}  ops={} p50={}us p99={}us max={}us\n",
            self.shards.iter().map(|s| s.live_queues).sum::<usize>(),
            self.total_keys(),
            all.count(),
            us(all.quantile(0.50)),
            us(all.quantile(0.99)),
            us(all.max()),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServiceSnapshot {
        let mut latency = LatencyHistogram::new();
        for v in [1_000u64, 2_000, 50_000] {
            latency.record(v);
        }
        ServiceSnapshot {
            shards: vec![
                ShardSnapshot {
                    shard: 0,
                    live_queues: 2,
                    total_keys: 100,
                    durable: true,
                    stats: ShardStats {
                        requests: 5,
                        ..Default::default()
                    },
                    latency,
                },
                ShardSnapshot {
                    shard: 1,
                    live_queues: 0,
                    total_keys: 0,
                    durable: false,
                    stats: ShardStats::default(),
                    latency: LatencyHistogram::new(),
                },
            ],
        }
    }

    #[test]
    fn totals_occupancy_and_render() {
        let snap = sample();
        assert_eq!(snap.total_keys(), 100);
        assert_eq!(snap.latency().count(), 3);
        let table = snap.render();
        assert_eq!(table.lines().count(), 4, "header + 2 shards + totals");
        assert!(table.contains("requests"));
        let total = table.lines().last().expect("totals row");
        assert!(
            total.starts_with("total       2       100  ops=3"),
            "{total}"
        );
    }

    #[test]
    fn json_view_round_trips() {
        let snap = sample();
        let doc = snap.to_json();
        let parsed = J::parse(&doc.to_string()).expect("snapshot JSON parses");
        let shards = parsed.get("shards").and_then(J::as_arr).expect("shards");
        assert_eq!(shards.len(), 2);
        assert_eq!(
            shards[0].get("total_keys"),
            Some(&J::UInt(100)),
            "totals survive the JSON round trip"
        );
        let stats = shards[0].get("stats").expect("stats");
        assert_eq!(stats.get("requests"), Some(&J::UInt(5)));
        assert_eq!(stats.get("combines"), None, "unwritten counters stay out");
    }

    #[test]
    fn json_bytes_are_pinned() {
        // The exact bytes of the report: a field added, dropped or moved
        // is a format change and must show up here.
        let zeros = "\"single_inserts\":0,\"coalesced_inserts\":0,\"coalesced_pops\":0,\
            \"multi_extracts\":0,\"melds_same_shard\":0,\"melds_cross_shard\":0,\
            \"stale_ops\":0,\"queues_created\":0,\"queues_destroyed\":0,\
            \"poison_recoveries\":0,\"poison_resets\":0,\"combiner_panics\":0,\
            \"wal_appends\":0,\"wal_checkpoints\":0,\"wal_errors\":0";
        let want = format!(
            "{{\"report\":\"service_snapshot\",\"shards\":[\
             {{\"shard\":0,\"live_queues\":2,\"total_keys\":100,\"durable\":true,\
             \"stats\":{{\"batches\":0,\"requests\":5,{zeros}}},\
             \"latency\":{{\"count\":3,\"mean_ns\":17666,\"p50_ns\":1984,\
             \"p95_ns\":49152,\"p99_ns\":49152,\"max_ns\":50000}}}},\
             {{\"shard\":1,\"live_queues\":0,\"total_keys\":0,\"durable\":false,\
             \"stats\":{{\"batches\":0,\"requests\":0,{zeros}}},\
             \"latency\":{{\"count\":0,\"mean_ns\":0,\"p50_ns\":0,\"p95_ns\":0,\
             \"p99_ns\":0,\"max_ns\":0}}}}]}}"
        );
        assert_eq!(sample().to_json().to_string(), want);
    }
}
