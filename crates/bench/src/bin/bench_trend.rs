//! `bench-trend` — machine-relative drift detector for the wallclock gates.
//!
//! Compares a fresh `BENCH_wallclock.json` against a committed baseline and
//! exits non-zero when any gate's *ratio* regressed by more than the
//! tolerance (default 25%, override with `BENCH_TREND_TOLERANCE`; CI's
//! `bench-smoke` job sets `0.4`, since a quick suite is noisier than the
//! default allows). Gate ratios are slow-arm / fast-arm on the *same*
//! machine in the *same* run, so they compare fairly across hosts — unlike
//! raw `mean_ns`, which this tool prints per benchmark id as context but
//! never judges.
//!
//! A gate ratio measures "how much the optimized arm wins"; regression
//! means the fresh ratio fell below `baseline_ratio * (1 - tolerance)`.
//! Gates present only on one side are reported but never fail the run
//! (new gates appear, old ones retire — that is trend, not regression).
//!
//! Usage: `bench-trend <baseline.json> [fresh.json]` (fresh defaults to
//! `reports/BENCH_wallclock.json`).

use std::collections::BTreeMap;
use std::process::ExitCode;

use bench::json::J;

/// Fraction of a gate's baseline ratio it may lose before this tool fails.
const TOLERANCE: f64 = 0.25;

fn load(path: &str) -> J {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench-trend: cannot read {path}: {e}"));
    J::parse(&text).unwrap_or_else(|e| panic!("bench-trend: {path} is not valid JSON: {e}"))
}

/// `name -> ratio` for every gate in a wallclock report.
fn gate_ratios(doc: &J) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(gates) = doc.get("gates").and_then(J::as_arr) else {
        return out;
    };
    for g in gates {
        if let (Some(name), Some(ratio)) = (
            g.get("name").and_then(J::as_str),
            g.get("ratio").and_then(J::as_f64),
        ) {
            out.insert(name.to_string(), ratio);
        }
    }
    out
}

/// `id -> mean_ns` for every benchmark result in a wallclock report.
fn result_means(doc: &J) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(results) = doc.get("results").and_then(J::as_arr) else {
        return out;
    };
    for r in results {
        if let (Some(id), Some(mean)) = (
            r.get("id").and_then(J::as_str),
            r.get("mean_ns").and_then(J::as_f64),
        ) {
            out.insert(id.to_string(), mean);
        }
    }
    out
}

/// Diff two gate maps under the floor rule. Returns true when any shared
/// gate regressed past the tolerance; one-sided gates only inform.
fn compare_gates(
    base_gates: &BTreeMap<String, f64>,
    fresh_gates: &BTreeMap<String, f64>,
    tolerance: f64,
) -> bool {
    let mut failed = false;
    for (name, base_ratio) in base_gates {
        let Some(fresh_ratio) = fresh_gates.get(name) else {
            println!("  gate {name}: retired (absent from fresh report)");
            continue;
        };
        let floor = base_ratio * (1.0 - tolerance);
        let verdict = if *fresh_ratio < floor {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "  gate {name}: ratio {base_ratio:.2} -> {fresh_ratio:.2} (floor {floor:.2}) {verdict}"
        );
    }
    for name in fresh_gates.keys().filter(|n| !base_gates.contains_key(*n)) {
        println!("  gate {name}: new (absent from baseline)");
    }
    failed
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let baseline_path = args
        .next()
        .expect("usage: bench-trend <baseline.json> [fresh.json]");
    let fresh_path = args
        .next()
        .unwrap_or_else(|| "reports/BENCH_wallclock.json".to_string());
    let tolerance = std::env::var("BENCH_TREND_TOLERANCE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t > 0.0 && *t < 1.0)
        .unwrap_or(TOLERANCE);
    let tol_pct = tolerance * 100.0;

    let baseline = load(&baseline_path);
    let fresh = load(&fresh_path);
    let base_gates = gate_ratios(&baseline);
    let fresh_gates = gate_ratios(&fresh);
    assert!(
        !fresh_gates.is_empty(),
        "bench-trend: {fresh_path} has no gates — was the wallclock bench run?"
    );

    println!("bench-trend: {baseline_path} -> {fresh_path} (tolerance {tol_pct:.0}%)");
    let failed = compare_gates(&base_gates, &fresh_gates, tolerance);

    // Raw means are machine-dependent — context for a human reading CI
    // logs, never part of the verdict.
    let base_means = result_means(&baseline);
    let fresh_means = result_means(&fresh);
    println!("  per-benchmark mean_ns deltas (informational):");
    for (id, fresh_mean) in &fresh_means {
        match base_means.get(id) {
            Some(base_mean) if *base_mean > 0.0 => {
                let pct = (fresh_mean - base_mean) / base_mean * 100.0;
                println!("    {id}: {base_mean:.0} -> {fresh_mean:.0} ns ({pct:+.1}%)");
            }
            _ => println!("    {id}: (new) {fresh_mean:.0} ns"),
        }
    }

    if failed {
        eprintln!("FAIL: a wallclock gate ratio regressed more than {tol_pct:.0}% vs baseline");
        return ExitCode::FAILURE;
    }
    println!("bench-trend: all gate ratios within {tol_pct:.0}% of baseline");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gates(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|&(n, r)| (n.to_string(), r)).collect()
    }

    #[test]
    fn shared_gate_below_the_floor_fails() {
        let base = gates(&[("g", 2.0)]);
        // Floor is 2.0 * (1 - 0.25) = 1.5.
        assert!(compare_gates(&base, &gates(&[("g", 1.49)]), 0.25));
    }

    #[test]
    fn shared_gate_at_or_above_the_floor_passes() {
        let base = gates(&[("g", 2.0)]);
        assert!(!compare_gates(&base, &gates(&[("g", 1.5)]), 0.25));
        assert!(!compare_gates(&base, &gates(&[("g", 3.0)]), 0.25));
    }

    #[test]
    fn one_sided_gates_never_fail() {
        let base = gates(&[("retired", 5.0), ("shared", 1.0)]);
        let fresh = gates(&[("new", 0.01), ("shared", 1.0)]);
        assert!(!compare_gates(&base, &fresh, 0.25));
        assert!(!compare_gates(&fresh, &base, 0.25));
    }
}
