//! `shootout` — per-op wall-clock race of every queue backend on the
//! roster ([`meldpq::Backend::ALL`]) over five sequential workload classes,
//! gating the paper's positioning (PAPER.md §2).
//!
//! Each (class, backend, size) cell replays the same seeded operation
//! script and records the best-of-trials total nanoseconds divided by the
//! *logical* op count. Logical matters for the Dijkstra class: every
//! engine lowers a key by reinserting it and skipping stale pops, the
//! sequential form of the paper's §4 insert-and-orphan `Change-Key`. The
//! stale pops are charged to the clock but not counted in the denominator,
//! which counts the script's inserts, relaxations and settling pops.
//!
//! The run writes `reports/BENCH_shootout.json`: the host's core count,
//! per-backend per-size ns, each backend's geomean over sizes, each class's
//! winner, and two gates per class on geomean per-op ns. The §3 heap
//! (`pooled`) must beat the sequential binomial heap it parallelises
//! (`pooled_vs_binomial_<class>`: ratio binomial/pooled ≥ 1.0), and it may
//! lose to the leftist heap, which the paper does not claim to beat, by at
//! most 2× (`pooled_vs_leftist_<class>`: ratio leftist/pooled ≥ 0.5).
//! Higher is better, so `bench-trend --shootout` diffs the ratios with the
//! wallclock semantics. Any gate miss exits non-zero.
//!
//! Flags: `--quick` (CI smoke: sizes 256/1024, 2 trials) ·
//! `--full` (default: sizes 256..16384, 3 trials).

use std::time::Instant;

use bench::json::J;
use bench::workloads;
use meldpq::{Backend, MeldablePq};
use rand::rngs::StdRng;
use rand::Rng;

/// The positioning gates: per class, `baseline / pooled` geomean per-op
/// ns must reach the floor. The CLRS binomial heap is the sequential heap
/// the §3 machinery parallelises, so pooled must be at least as fast; the
/// leftist heap is the baseline the paper does not claim to beat, so
/// pooled may be at most 2× slower.
const POSITIONING: [(Backend, f64); 2] = [(Backend::Binomial, 1.0), (Backend::Leftist, 0.5)];

/// The workload classes the shootout measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadClass {
    /// Well-mixed keys, insert/extract churn with periodic melds.
    Uniform,
    /// Ascending key stream (adversarial for self-adjusting shapes).
    Sorted,
    /// Descending key stream.
    Reverse,
    /// Heavy key duplication (16 distinct keys).
    DupHeavy,
    /// SSSP-style: inserts, decrease-key bursts (by reinsert), extract-all.
    Dijkstra,
}

impl WorkloadClass {
    /// Every class, in shootout order.
    const ALL: [WorkloadClass; 5] = [
        WorkloadClass::Uniform,
        WorkloadClass::Sorted,
        WorkloadClass::Reverse,
        WorkloadClass::DupHeavy,
        WorkloadClass::Dijkstra,
    ];

    /// Stable snake_case name (report keys).
    fn name(self) -> &'static str {
        match self {
            WorkloadClass::Uniform => "uniform",
            WorkloadClass::Sorted => "sorted",
            WorkloadClass::Reverse => "reverse",
            WorkloadClass::DupHeavy => "dup_heavy",
            WorkloadClass::Dijkstra => "dijkstra",
        }
    }
}

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
/// node), then extract-all. Generated once per (n, trial) so every
/// backend replays identical decisions.
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

/// Dijkstra via reinsert-and-skip-stale on a plain meldable queue. Keys
/// encode `(distance, node id)` so stale entries are identifiable; the
/// extra pops this costs land on the clock, and only pops that settle a
/// node count as logical ops.
fn dijkstra_simulated(
    q: &mut dyn MeldablePq<i64>,
    init: &[i64],
    script: &[Relax],
) -> (std::time::Duration, u64) {
    let n = init.len() as i64;
    let encode = |key: i64, id: usize| key * n + id as i64;
    let decode = |enc: i64| (enc.div_euclid(n), enc.rem_euclid(n) as usize);
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
                    let (key, id) = decode(enc);
                    if !settled[id] && key == best[id] {
                        settled[id] = true;
                        break;
                    } // stale — pop again, time charged, no logical op
                }
            }
        }
    }
    while let Some(enc) = q.extract_min() {
        let (key, id) = decode(enc);
        if !settled[id] && key == best[id] {
            settled[id] = true;
            ops += 1;
        }
    }
    (t0.elapsed(), ops)
}

fn run_dijkstra(backend: Backend, n: usize, trial: usize) -> (std::time::Duration, u64) {
    let mut rng = workloads::rng(0xD175_7824 ^ (n as u64) ^ ((trial as u64) << 40));
    let (init, script) = dijkstra_script(&mut rng, n);
    dijkstra_simulated(backend.make().as_mut(), &init, &script)
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

/// The roster index of `backend`.
fn slot(backend: Backend) -> usize {
    Backend::ALL
        .iter()
        .position(|&b| b == backend)
        .expect("positioning baselines are on the roster")
}

fn main() {
    let cfg = parse_args();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "shootout ({}): {} backends x {} classes x sizes {:?}, best of {} trials, nproc {nproc}",
        cfg.mode,
        Backend::ALL.len(),
        WorkloadClass::ALL.len(),
        cfg.sizes,
        cfg.trials
    );

    let pooled = slot(Backend::Pooled);
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
        let best_i = (0..Backend::ALL.len())
            .min_by(|&a, &b| geo[a].total_cmp(&geo[b]))
            .expect("roster not empty");

        let mut line = format!(
            "  {:<9} winner {} ({:.0} ns/op) | pooled {:.0} ns/op",
            class.name(),
            Backend::ALL[best_i].name(),
            geo[best_i],
            geo[pooled],
        );
        for (baseline, floor) in POSITIONING {
            let bi = slot(baseline);
            // baseline/pooled: above 1.0 pooled is the faster one.
            let ratio = geo[bi] / geo[pooled].max(1e-3);
            let pass = ratio >= floor;
            all_pass &= pass;
            line += &format!(
                " | {} {ratio:.2}x (>= {floor}) {}",
                baseline.name(),
                if pass { "ok" } else { "GATE FAIL" }
            );
            gates.push(J::obj([
                (
                    "name",
                    J::Str(format!("pooled_vs_{}_{}", baseline.name(), class.name())),
                ),
                ("fast", J::Str(Backend::Pooled.name().into())),
                ("slow", J::Str(baseline.name().into())),
                ("fast_geomean_ns", J::Num(geo[pooled])),
                ("slow_geomean_ns", J::Num(geo[bi])),
                ("ratio", J::Num(ratio)),
                ("threshold", J::Num(floor)),
                ("pass", J::Bool(pass)),
            ]));
        }
        println!("{line}");

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
            ("winner", J::Str(Backend::ALL[best_i].name().into())),
            ("results", J::Arr(results)),
        ]));
    }

    let doc = J::obj([
        ("report", J::Str("shootout".into())),
        (
            "note",
            J::Str(
                "per-op ns = best-of-trials total time / logical ops; Dijkstra \
                 runs every backend by reinsert-and-skip-stale, whose stale \
                 pops are charged to the clock but not the denominator; gate \
                 ratio = baseline/pooled geomean (higher is better; floor 1.0 \
                 for binomial, 0.5 for leftist)"
                    .into(),
            ),
        ),
        ("mode", J::Str(cfg.mode.into())),
        ("nproc", J::UInt(nproc as u64)),
        (
            "sizes",
            J::Arr(cfg.sizes.iter().map(|&n| J::UInt(n as u64)).collect()),
        ),
        ("trials", J::UInt(cfg.trials as u64)),
        ("classes", J::Arr(class_docs)),
        ("gates", J::Arr(gates)),
    ]);

    let reports = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    let _ = std::fs::create_dir_all(&reports);
    let out = reports.join("BENCH_shootout.json");
    std::fs::write(&out, format!("{doc}\n")).expect("write BENCH_shootout.json");
    println!("wrote {}", out.display());

    if !all_pass {
        eprintln!("FAIL: pooled missed a positioning gate (see lines above)");
        std::process::exit(1);
    }
}
