//! `shootout` — per-op wall-clock race of every queue backend on the
//! roster ([`meldpq::Backend::ALL`]) over the workload classes the
//! selection table covers ([`meldpq::WorkloadClass::ALL`]).
//!
//! Each (class, backend, size) cell replays the same seeded operation
//! script and records best-of-[`TRIALS`] total nanoseconds divided by the
//! *logical* op count. Logical matters for the Dijkstra class: engines
//! without native decrease-key run the classic reinsert-and-skip-stale
//! simulation, and the extra stale pops are charged to their clock, not
//! excused from their denominator.
//!
//! The run writes `reports/BENCH_shootout.json`: per-backend per-size ns,
//! the winner at each size, crossover sizes (where the leader changes as n
//! grows), and one gate per class — `shootout_<class>` fails when the
//! committed selection-table pick ([`meldpq::backend::table_pick`]) loses
//! to the measured best by more than [`GATE_FACTOR`]× on geomean per-op ns
//! (ratio = best/selected, so higher is better and `bench-trend
//! --shootout` can diff it with the wallclock semantics). Any gate miss
//! exits non-zero.
//!
//! Flags: `--quick` (CI smoke: sizes 256/1024, 2 trials) ·
//! `--full` (default: sizes 256..16384, 3 trials).

use std::time::Instant;

use bench::json::J;
use bench::workloads;
use meldpq::backend::{describe, table_pick};
use meldpq::{Backend, DecreaseKeyPq, MeldablePq, PqHandle, WorkloadClass};
use rand::rngs::StdRng;
use rand::Rng;

/// The selected backend may lose at most this factor to the measured best
/// on its own class before the gate fails (the CI `shootout-smoke` bound).
const GATE_FACTOR: f64 = 1.25;

struct Config {
    sizes: Vec<usize>,
    trials: usize,
    mode: &'static str,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        sizes: vec![256, 1024, 4096, 16384],
        trials: 3,
        mode: "full",
    };
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => {
                cfg.sizes = vec![256, 1024];
                cfg.trials = 2;
                cfg.mode = "quick";
            }
            "--full" => {}
            other => panic!("unknown flag {other}"),
        }
    }
    cfg
}

/// The insert key stream for one class at size `n`.
fn key_stream(class: WorkloadClass, rng: &mut StdRng, n: usize) -> Vec<i64> {
    match class {
        WorkloadClass::Sorted => (0..n as i64).collect(),
        WorkloadClass::Reverse => (0..n as i64).rev().collect(),
        WorkloadClass::DupHeavy => (0..n).map(|_| rng.gen_range(0i64..16)).collect(),
        _ => workloads::random_keys(rng, n),
    }
}

/// Replay the insert/churn/meld/drain script for the four key-stream
/// classes. Returns (elapsed, logical ops).
fn run_stream_class(
    class: WorkloadClass,
    backend: Backend,
    n: usize,
    trial: usize,
) -> (std::time::Duration, u64) {
    let mut rng = workloads::rng(0x5400_0075 ^ (n as u64) ^ ((trial as u64) << 40));
    let keys = key_stream(class, &mut rng, n);
    // Churn pairs and meld bursts use uniform keys for every class: the
    // adversarial shape lives in the initial stream.
    let churn: Vec<i64> = workloads::random_keys(&mut rng, n / 2);
    let meld_burst: Vec<i64> = workloads::random_keys(&mut rng, (n / 8).max(1));
    let mut ops = 0u64;

    let t0 = Instant::now();
    let mut q = backend.make();
    for &k in &keys {
        q.insert(k);
        ops += 1;
    }
    for &k in &churn {
        q.insert(k);
        q.extract_min();
        ops += 2;
    }
    for _ in 0..4 {
        q.meld_from_keys(&meld_burst);
        ops += meld_burst.len() as u64;
    }
    while q.extract_min().is_some() {
        ops += 1;
    }
    (t0.elapsed(), ops)
}

/// One relaxation decision of the synthetic SSSP script.
enum Relax {
    Decrease { id: usize, new_key: i64 },
    Extract,
}

/// The Dijkstra script: `n` tracked inserts, `4n` relaxations (7 in 8 are
/// decrease-keys to a fresh lower tentative distance, 1 in 8 settles a
/// node), then extract-all. Generated once per (n, trial) so native and
/// simulated paths replay identical decisions.
fn dijkstra_script(rng: &mut StdRng, n: usize) -> (Vec<i64>, Vec<Relax>) {
    let init: Vec<i64> = (0..n)
        .map(|_| rng.gen_range(500_000i64..1_000_000))
        .collect();
    let mut best = init.clone();
    let script = (0..4 * n)
        .map(|_| {
            if rng.gen_range(0..8) < 7 {
                let id = rng.gen_range(0..n);
                // A strictly lower tentative distance when possible; a no-op
                // relaxation (new >= current) otherwise — both are charged.
                let new_key = (best[id] - rng.gen_range(1..10_000)).max(0);
                if new_key < best[id] {
                    best[id] = new_key;
                }
                Relax::Decrease { id, new_key }
            } else {
                Relax::Extract
            }
        })
        .collect();
    (init, script)
}

/// Dijkstra on a native decrease-key engine.
fn dijkstra_native(
    q: &mut dyn DecreaseKeyPq<i64>,
    init: &[i64],
    script: &[Relax],
) -> (std::time::Duration, u64) {
    let mut ops = 0u64;
    let t0 = Instant::now();
    let handles: Vec<PqHandle> = init
        .iter()
        .map(|&k| {
            ops += 1;
            q.insert_handle(k)
        })
        .collect();
    for step in script {
        ops += 1;
        match step {
            Relax::Decrease { id, new_key } => {
                q.decrease_key(handles[*id], *new_key);
            }
            Relax::Extract => {
                q.extract_min();
            }
        }
    }
    while q.extract_min().is_some() {
        ops += 1;
    }
    (t0.elapsed(), ops)
}

/// Dijkstra via reinsert-and-skip-stale on a plain meldable queue. Keys
/// encode `(distance, node id)` so stale entries are identifiable; the
/// extra pops this costs land on the clock while the logical op count
/// matches the native path.
fn dijkstra_simulated(
    q: &mut dyn MeldablePq<i64>,
    init: &[i64],
    script: &[Relax],
) -> (std::time::Duration, u64) {
    let n = init.len() as i64;
    let encode = |key: i64, id: usize| key * n + id as i64;
    let mut ops = 0u64;
    let t0 = Instant::now();
    let mut best = init.to_vec();
    let mut settled = vec![false; init.len()];
    for (id, &k) in init.iter().enumerate() {
        ops += 1;
        q.insert(encode(k, id));
    }
    for step in script {
        ops += 1;
        match step {
            Relax::Decrease { id, new_key } => {
                if !settled[*id] && *new_key < best[*id] {
                    best[*id] = *new_key;
                    q.insert(encode(*new_key, *id));
                }
            }
            Relax::Extract => {
                while let Some(enc) = q.extract_min() {
                    let (key, id) = (enc.div_euclid(n), enc.rem_euclid(n) as usize);
                    if !settled[id] && key == best[id] {
                        settled[id] = true;
                        break;
                    } // stale — pop again, time charged, no logical op
                }
            }
        }
    }
    while q.extract_min().is_some() {
        ops += 1;
    }
    (t0.elapsed(), ops)
}

fn run_dijkstra(backend: Backend, n: usize, trial: usize) -> (std::time::Duration, u64) {
    let mut rng = workloads::rng(0xD175_7824 ^ (n as u64) ^ ((trial as u64) << 40));
    let (init, script) = dijkstra_script(&mut rng, n);
    match backend.make_decrease() {
        Some(mut q) => dijkstra_native(q.as_mut(), &init, &script),
        None => dijkstra_simulated(backend.make().as_mut(), &init, &script),
    }
}

/// Best-of-trials per-op ns for one cell.
fn measure(cfg: &Config, class: WorkloadClass, backend: Backend, n: usize) -> f64 {
    let mut best = f64::INFINITY;
    for trial in 0..cfg.trials {
        let (dt, ops) = match class {
            WorkloadClass::Dijkstra => run_dijkstra(backend, n, trial),
            _ => run_stream_class(class, backend, n, trial),
        };
        best = best.min(dt.as_nanos() as f64 / ops.max(1) as f64);
    }
    best
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.max(1e-3).ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn main() {
    let cfg = parse_args();
    println!(
        "shootout ({}): {} backends x {} classes x sizes {:?}, best of {} trials",
        cfg.mode,
        Backend::ALL.len(),
        WorkloadClass::ALL.len(),
        cfg.sizes,
        cfg.trials
    );
    println!("{}", describe());

    let mut class_docs = Vec::new();
    let mut gates = Vec::new();
    let mut all_pass = true;

    for class in WorkloadClass::ALL {
        // cell[b][s] = per-op ns for backend b at size s.
        let cells: Vec<Vec<f64>> = Backend::ALL
            .iter()
            .map(|&b| {
                cfg.sizes
                    .iter()
                    .map(|&n| measure(&cfg, class, b, n))
                    .collect()
            })
            .collect();
        let geo: Vec<f64> = cells.iter().map(|row| geomean(row)).collect();

        // Winner at each size, and the sizes where the leader changes.
        let winner_at = |si: usize| -> usize {
            (0..Backend::ALL.len())
                .min_by(|&a, &b| cells[a][si].total_cmp(&cells[b][si]))
                .expect("roster not empty")
        };
        let winners: Vec<usize> = (0..cfg.sizes.len()).map(winner_at).collect();
        let crossovers: Vec<usize> = (1..cfg.sizes.len())
            .filter(|&si| winners[si] != winners[si - 1])
            .map(|si| cfg.sizes[si])
            .collect();
        let best_i = (0..Backend::ALL.len())
            .min_by(|&a, &b| geo[a].total_cmp(&geo[b]))
            .expect("roster not empty");

        let selected = table_pick(class);
        let sel_i = Backend::ALL
            .iter()
            .position(|&b| b == selected)
            .expect("selection is on the roster");
        // best/selected: 1.0 = the table holds the crown, 0.8 = the 1.25×
        // loss bound. Higher is better (bench-trend floor semantics).
        let ratio = geo[best_i] / geo[sel_i].max(1e-3);
        let pass = ratio >= 1.0 / GATE_FACTOR;
        all_pass &= pass;

        println!(
            "  {:<9} winner {} ({:.0} ns/op) | table {} ({:.0} ns/op) ratio {:.2} {}",
            class.name(),
            Backend::ALL[best_i].name(),
            geo[best_i],
            selected.name(),
            geo[sel_i],
            ratio,
            if pass { "ok" } else { "GATE FAIL" }
        );

        let results: Vec<J> = Backend::ALL
            .iter()
            .enumerate()
            .map(|(bi, &b)| {
                J::obj([
                    ("backend", J::Str(b.name().into())),
                    (
                        "per_op_ns",
                        J::Arr(
                            cfg.sizes
                                .iter()
                                .zip(&cells[bi])
                                .map(|(&n, &ns)| {
                                    J::obj([("n", J::UInt(n as u64)), ("ns", J::Num(ns))])
                                })
                                .collect(),
                        ),
                    ),
                    ("geomean_ns", J::Num(geo[bi])),
                ])
            })
            .collect();
        class_docs.push(J::obj([
            ("class", J::Str(class.name().into())),
            ("selected", J::Str(selected.name().into())),
            ("winner", J::Str(Backend::ALL[best_i].name().into())),
            (
                "winner_by_size",
                J::Arr(
                    cfg.sizes
                        .iter()
                        .zip(&winners)
                        .map(|(&n, &wi)| {
                            J::obj([
                                ("n", J::UInt(n as u64)),
                                ("winner", J::Str(Backend::ALL[wi].name().into())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "crossover_sizes",
                J::Arr(crossovers.iter().map(|&n| J::UInt(n as u64)).collect()),
            ),
            ("results", J::Arr(results)),
        ]));
        gates.push(J::obj([
            ("name", J::Str(format!("shootout_{}", class.name()))),
            ("selected", J::Str(selected.name().into())),
            ("selected_geomean_ns", J::Num(geo[sel_i])),
            ("best", J::Str(Backend::ALL[best_i].name().into())),
            ("best_geomean_ns", J::Num(geo[best_i])),
            ("ratio", J::Num(ratio)),
            ("threshold", J::Num(1.0 / GATE_FACTOR)),
            ("pass", J::Bool(pass)),
        ]));
    }

    let selection: Vec<(&str, J)> = WorkloadClass::ALL
        .iter()
        .map(|&c| (c.name(), J::Str(table_pick(c).name().into())))
        .collect();
    let doc = J::obj([
        ("report", J::Str("shootout".into())),
        (
            "note",
            J::Str(
                "per-op ns = best-of-trials total time / logical ops; Dijkstra \
                 charges reinsert-simulation backends their stale pops on the \
                 clock but not the denominator; gate ratio = best/selected \
                 geomean (higher is better, floor = 1/1.25)"
                    .into(),
            ),
        ),
        ("mode", J::Str(cfg.mode.into())),
        (
            "sizes",
            J::Arr(cfg.sizes.iter().map(|&n| J::UInt(n as u64)).collect()),
        ),
        ("trials", J::UInt(cfg.trials as u64)),
        ("selection_table", J::obj(selection)),
        ("backend_describe", J::Str(describe())),
        ("classes", J::Arr(class_docs)),
        ("gates", J::Arr(gates)),
    ]);

    let reports = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    let _ = std::fs::create_dir_all(&reports);
    let out = reports.join("BENCH_shootout.json");
    std::fs::write(&out, format!("{doc}\n")).expect("write BENCH_shootout.json");
    println!("wrote {}", out.display());

    if !all_pass {
        eprintln!(
            "FAIL: a selection-table pick lost more than {GATE_FACTOR}x to the measured best"
        );
        std::process::exit(1);
    }
}
