//! JSON emission for the report binaries' `--json` mode. The value type
//! [`J`] and the printer live in `obs::json` (the service snapshot and
//! perfbench share them); this module re-exports them and keeps the
//! experiment-row serializers.

pub use obs::json::{json_mode, J};

// ---- serializers for the experiment rows ----

use crate::experiments::{A1Row, A3MeasuredRow, A3Row, T1OpsRow, T1Row, T2Row, T3Row};

/// T1 rows → JSON array.
pub fn t1_json(rows: &[T1Row]) -> J {
    J::Arr(
        rows.iter()
            .map(|r| {
                J::obj([
                    ("n", J::UInt(r.n as u64)),
                    ("p", J::UInt(r.p as u64)),
                    ("time", J::UInt(r.time)),
                    ("work", J::UInt(r.work)),
                    ("seq_steps", J::UInt(r.seq_steps)),
                ])
            })
            .collect(),
    )
}

/// T1 per-operation rows → JSON array.
pub fn t1_ops_json(rows: &[T1OpsRow]) -> J {
    J::Arr(
        rows.iter()
            .map(|r| {
                J::obj([
                    ("n", J::UInt(r.n as u64)),
                    ("p", J::UInt(r.p as u64)),
                    ("insert_time", J::UInt(r.insert_time)),
                    ("extract_time", J::UInt(r.extract_time)),
                    ("union_time", J::UInt(r.union_time)),
                ])
            })
            .collect(),
    )
}

/// T2 rows → JSON array.
pub fn t2_json(rows: &[T2Row]) -> J {
    J::Arr(
        rows.iter()
            .map(|r| {
                J::obj([
                    ("n", J::UInt(r.n as u64)),
                    ("p", J::UInt(r.p as u64)),
                    ("deletes", J::UInt(r.deletes as u64)),
                    ("take_up_time", J::UInt(r.take_up.time)),
                    ("take_up_work", J::UInt(r.take_up.work)),
                    ("arrange_time", J::UInt(r.arrange.time)),
                    ("arrange_work", J::UInt(r.arrange.work)),
                    ("amortized_time", J::Num(r.amortized_time)),
                    ("amortized_work", J::Num(r.amortized_work)),
                    ("eager_time", J::UInt(r.eager.time)),
                ])
            })
            .collect(),
    )
}

/// T3 rows → JSON array.
pub fn t3_json(rows: &[T3Row]) -> J {
    J::Arr(
        rows.iter()
            .map(|r| {
                J::obj([
                    ("q", J::UInt(r.q as u64)),
                    ("b", J::UInt(r.b as u64)),
                    ("ops", J::UInt(r.ops as u64)),
                    ("total_time", J::UInt(r.total_time)),
                    ("words", J::UInt(r.words)),
                    ("amortized_time", J::Num(r.amortized_time)),
                    ("per_multiop_time", J::Num(r.per_multiop_time)),
                ])
            })
            .collect(),
    )
}

/// A1 rows → JSON array.
pub fn a1_json(rows: &[A1Row]) -> J {
    J::Arr(
        rows.iter()
            .map(|r| {
                J::obj([
                    ("n", J::UInt(r.n as u64)),
                    ("ripple_chain", J::UInt(r.ripple_chain)),
                    ("pram_time", J::UInt(r.pram_time)),
                    ("pram_time_p1", J::UInt(r.pram_time_p1)),
                ])
            })
            .collect(),
    )
}

/// A3 rows → JSON array.
pub fn a3_json(rows: &[A3Row]) -> J {
    J::Arr(
        rows.iter()
            .map(|r| {
                J::obj([
                    ("q", J::UInt(r.q as u64)),
                    ("gray_hops", J::UInt(r.gray_hops)),
                    ("identity_hops", J::UInt(r.identity_hops)),
                ])
            })
            .collect(),
    )
}

/// Measured A3 row → JSON object.
pub fn a3_measured_json(r: &A3MeasuredRow) -> J {
    J::obj([
        ("q", J::UInt(r.q as u64)),
        ("b", J::UInt(r.b as u64)),
        ("gray_time", J::UInt(r.gray_time)),
        ("gray_words", J::UInt(r.gray_words)),
        ("identity_time", J::UInt(r.identity_time)),
        ("identity_words", J::UInt(r.identity_words)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_rows_serialise() {
        let rows = crate::experiments::theorem1(&[8], &[1, 2]);
        let s = t1_json(&rows).to_string();
        assert!(s.starts_with('['));
        assert!(s.contains("\"work\""));
        // Every row appears.
        assert_eq!(s.matches("{\"n\"").count(), 2);
    }
}
