//! The meter registry: one place where the service's counters land.
//!
//! The service's meters — `service::ShardStats` (per-shard op counts and
//! lock waits) and [`crate::LatencyHistogram`] — implement [`Recorder`]; a
//! [`Registry`] collects labelled snapshots of them and serialises the lot
//! as one JSON array (`QueueService::record_into`, `service-load`). The
//! simulators' cost ledgers (`pram::Cost`, the lazy heap's cost log,
//! `hypercube::NetStats`) stay in their home crates and are checked against
//! the Theorem 1–3 envelopes by the bench crate instead.

use crate::json::J;

/// A meter that can dump itself as a flat record of named counters.
///
/// Implemented by `service::ShardStats` and [`crate::LatencyHistogram`].
/// Implementations should report *cumulative* values; callers that want
/// per-operation numbers snapshot before/after and record the delta.
pub trait Recorder {
    /// Stable family name, e.g. `"service.shard"` or `"latency.histogram"`.
    fn family(&self) -> &'static str;
    /// The counters, in a stable order.
    fn fields(&self) -> Vec<(&'static str, u64)>;
}

/// One labelled snapshot of a meter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The meter family (from [`Recorder::family`]).
    pub family: String,
    /// Caller-chosen label, e.g. `"service/shard0"`.
    pub label: String,
    /// Counter names and values.
    pub fields: Vec<(String, u64)>,
}

/// Insertion-ordered collection of meter snapshots for one run.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    records: Vec<Record>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot `meter` under `label`.
    pub fn record(&mut self, label: &str, meter: &dyn Recorder) {
        self.records.push(Record {
            family: meter.family().to_string(),
            label: label.to_string(),
            fields: meter
                .fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        });
    }

    /// Everything recorded so far, in insertion order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// The distinct families recorded, in first-seen order.
    pub fn families(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for r in &self.records {
            if !out.contains(&r.family.as_str()) {
                out.push(&r.family);
            }
        }
        out
    }

    /// JSON array of the records.
    pub fn to_json(&self) -> J {
        J::Arr(
            self.records
                .iter()
                .map(|r| {
                    J::Obj(vec![
                        ("family".to_string(), J::Str(r.family.clone())),
                        ("label".to_string(), J::Str(r.label.clone())),
                        (
                            "fields".to_string(),
                            J::Obj(
                                r.fields
                                    .iter()
                                    .map(|(k, v)| (k.clone(), J::UInt(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;
    impl Recorder for Fake {
        fn family(&self) -> &'static str {
            "fake.meter"
        }
        fn fields(&self) -> Vec<(&'static str, u64)> {
            vec![("a", 1), ("b", 2)]
        }
    }

    #[test]
    fn registry_records_and_serialises() {
        let mut reg = Registry::new();
        reg.record("op1", &Fake);
        reg.record("op2", &Fake);
        assert_eq!(reg.records().len(), 2);
        assert_eq!(reg.families(), vec!["fake.meter"]);
        let s = reg.to_json().to_string();
        assert!(s.contains(r#""family":"fake.meter""#));
        assert!(s.contains(r#""label":"op2""#));
        assert!(s.contains(r#""a":1"#));
    }
}
