//! `meldpq-trace` — the reference consumer of the `obs` telemetry layer.
//!
//! Runs a scripted mixed Insert/Union/Extract-Min/Delete workload across the
//! engines, captures every meter family into one `obs::Telemetry` document,
//! evaluates the Theorem 1–3 envelopes (constants fitted at small `n`,
//! checked at the full size), writes `reports/TELEMETRY_<workload>.json`,
//! prints the human-readable phase tree, and exits non-zero if any
//! conformance ratio exceeds its threshold — the nightly CI gate.
//!
//! ```text
//! cargo run -p bench --bin meldpq-trace --features telemetry -- [workload] [--out DIR]
//! ```
//!
//! Workloads: `mixed` (default, the full-size gate) and `smoke` (tiny sizes,
//! used by the bench test suite). Without `--features telemetry` the run
//! still measures costs and checks bounds — the spans section is just empty
//! (they compile to no-ops).

use bench::workloads;
use dmpq::queue::DOp;
use dmpq::DistributedPq;
use hypercube::NetStats;
use meldpq::engine_pram::build_plan_pram;
use meldpq::lazy::{CostMeter, LazyBinomialHeap, OpKind};
use meldpq::plan::plan_width;
use meldpq::ParBinomialHeap;
use obs::bounds::{self, Envelope};
use obs::{Registry, Telemetry};
use pram::Cost;
use rand::Rng;
use seqheaps::{BinomialHeap, MeldablePq};

/// Sizes for one run.
struct Sizes {
    /// Calibration heap sizes (per side) for Theorem 1.
    t1_fit: &'static [usize],
    /// Full Theorem 1 union size (per side).
    t1_n: usize,
    /// Calibration sizes for Theorem 2.
    t2_fit: &'static [usize],
    /// Full Theorem 2 lazy-heap size.
    t2_n: usize,
    /// Calibration `(q, b, ops)` triples for Theorem 3.
    t3_fit: &'static [(usize, usize, usize)],
    /// Full Theorem 3 run.
    t3: (usize, usize, usize),
}

fn sizes_for(workload: &str) -> Sizes {
    match workload {
        "smoke" => Sizes {
            t1_fit: &[16, 32],
            t1_n: 128,
            t2_fit: &[32, 64],
            t2_n: 128,
            t3_fit: &[(2, 4, 32)],
            t3: (2, 8, 64),
        },
        _ => Sizes {
            t1_fit: &[16, 32, 64, 128],
            t1_n: 4096,
            t2_fit: &[64, 128, 256],
            t2_n: 2048,
            t3_fit: &[(2, 4, 64), (3, 8, 128)],
            t3: (3, 16, 512),
        },
    }
}

// ---------------------------------------------------------------- Theorem 1

/// Union of two `n`-key heaps on the PRAM with the paper's `p`; returns the
/// measured cost and per-phase breakdown.
fn measure_union(n: usize, seed: u64) -> (Cost, Vec<(String, Cost)>, usize) {
    let mut rng = workloads::rng(seed);
    let h1 = ParBinomialHeap::from_keys((0..n).map(|_| rng.gen_range(-1_000_000..1_000_000i64)));
    let h2 = ParBinomialHeap::from_keys((0..n).map(|_| rng.gen_range(-1_000_000..1_000_000i64)));
    let total = 2 * n;
    let p = bounds::paper_p(total);
    let w = plan_width(h1.len(), h2.len());
    let out = build_plan_pram(&h1.root_refs(w), &h2.root_refs(w), p).expect("EREW-legal union");
    (out.cost, out.phases.entries().to_vec(), p)
}

fn theorem1(sizes: &Sizes, reg: &mut Registry, conf: &mut Vec<bounds::Conformance>) {
    let mut time_samples = Vec::new();
    let mut work_samples = Vec::new();
    for &n in sizes.t1_fit {
        let (cost, _, p) = measure_union(n, 0x71 + n as u64);
        let total = (2 * n) as f64;
        time_samples.push((bounds::th1_union_time(total, p as f64), cost.time as f64));
        work_samples.push((bounds::th1_union_work(total), cost.work as f64));
    }
    let env_time =
        Envelope::fit("theorem1", "union.time", &time_samples).expect("t1 calibration ran");
    let env_work =
        Envelope::fit("theorem1", "union.work", &work_samples).expect("t1 calibration ran");

    let (cost, phases, p) = measure_union(sizes.t1_n, 0x11);
    reg.record("union/total", &cost);
    for (label, c) in &phases {
        reg.record(&format!("union/phase{label}"), c);
    }
    let total = (2 * sizes.t1_n) as f64;
    let label = format!("n={} p={p}", 2 * sizes.t1_n);
    conf.push(env_time.check(
        &label,
        bounds::th1_union_time(total, p as f64),
        cost.time as f64,
    ));
    conf.push(env_work.check(&label, bounds::th1_union_work(total), cost.work as f64));
}

// ---------------------------------------------------------------- Theorem 2

/// A mixed lazy workload: build `n` keys, then interleave internal Deletes
/// (2/4), Inserts (1/4) and Extract-Mins (1/4) over `n/4` operations with
/// auto Arrange-Heap. Returns (total cost, per-kind costs, op count).
fn run_lazy(n: usize, seed: u64) -> (Cost, Vec<(OpKind, Cost)>, usize) {
    let mut rng = workloads::rng(seed);
    let p = bounds::paper_p(n);
    let mut h = LazyBinomialHeap::from_keys_fast(
        p,
        (0..n).map(|_| rng.gen_range(-1_000_000..1_000_000i64)),
    );
    let mut handles: Vec<meldpq::NodeId> = Vec::new();
    h.reset_cost_log();
    // One mid-stream Union so the lazy ledger carries all four op families.
    let side = LazyBinomialHeap::from_keys_fast(
        p,
        (0..n / 8).map(|_| rng.gen_range(-1_000_000..1_000_000i64)),
    );
    h.meld(side);
    let ops = (n / 4).max(8) + 1; // the meld counts as one operation
    for i in 0..ops - 1 {
        match i % 4 {
            0 | 2 => {
                // Delete a random live node (roots included — the paper
                // treats those as Extract-Min-like).
                let mut tries = 0;
                while tries < 8 {
                    if let Some(&id) = handles.get(rng.gen_range(0..handles.len().max(1))) {
                        if h.node_exists(id) && !h.is_empty_node(id) {
                            h.delete(id);
                            break;
                        }
                    }
                    tries += 1;
                }
                if tries == 8 && !h.is_empty() {
                    h.extract_min();
                }
            }
            1 => {
                handles.push(h.insert(rng.gen_range(-1_000_000..1_000_000i64)));
            }
            _ => {
                h.extract_min();
            }
        }
    }
    let mut by_kind: Vec<(OpKind, Cost)> = Vec::new();
    for &(kind, c) in h.cost_log() {
        match by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, acc)) => *acc += c,
            None => by_kind.push((kind, c)),
        }
    }
    (h.total_cost(), by_kind, ops)
}

fn theorem2(sizes: &Sizes, reg: &mut Registry, conf: &mut Vec<bounds::Conformance>) {
    let mut time_samples = Vec::new();
    let mut work_samples = Vec::new();
    for &n in sizes.t2_fit {
        let (total, _, ops) = run_lazy(n, 0x72 + n as u64);
        time_samples.push((
            bounds::th2_amortized_time(n as f64),
            total.time as f64 / ops as f64,
        ));
        work_samples.push((
            bounds::th2_amortized_work(n as f64),
            total.work as f64 / ops as f64,
        ));
    }
    let env_time = Envelope::fit("theorem2", "lazy.amortized.time", &time_samples)
        .expect("t2 calibration ran");
    let env_work = Envelope::fit("theorem2", "lazy.amortized.work", &work_samples)
        .expect("t2 calibration ran");

    let n = sizes.t2_n;
    let (total, by_kind, ops) = run_lazy(n, 0x22);
    // The lazy meter charges are part of these costs; expose both the raw
    // per-kind ledgers and a CostMeter-shaped rollup.
    for (kind, c) in &by_kind {
        reg.record(&format!("lazy/{kind:?}"), c);
    }
    let mut rollup = CostMeter::new(bounds::paper_p(n));
    rollup.add(total);
    reg.record("lazy/total", &rollup);
    let label = format!("n={n} ops={ops}");
    conf.push(env_time.check(
        &label,
        bounds::th2_amortized_time(n as f64),
        total.time as f64 / ops as f64,
    ));
    conf.push(env_work.check(
        &label,
        bounds::th2_amortized_work(n as f64),
        total.work as f64 / ops as f64,
    ));
}

// ---------------------------------------------------------------- Theorem 3

/// Distributed workload on a `q`-cube at bandwidth `b`: `ops` inserts, a
/// meld with a second queue of `ops/2` keys, then a full drain. Returns the
/// queue (for its meters), the per-multiop mean time and the multiop count.
fn run_distributed(q: usize, b: usize, ops: usize, seed: u64) -> (DistributedPq, f64, usize) {
    let mut rng = workloads::rng(seed);
    let mut pq = DistributedPq::new(q, b);
    for _ in 0..ops {
        pq.insert(rng.gen_range(-1_000_000..1_000_000))
            .expect("fault-free net");
    }
    let mut other = DistributedPq::new(q, b);
    for _ in 0..ops / 2 {
        other
            .insert(rng.gen_range(-1_000_000..1_000_000))
            .expect("fault-free net");
    }
    pq.meld(other).expect("fault-free net");
    while pq.extract_min().expect("fault-free net").is_some() {}
    let totals = pq
        .ledger()
        .iter()
        .fold(NetStats::default(), |acc, (_, s)| acc.merge(s));
    let multis = pq.ledger().len().max(1);
    (pq, totals.time as f64 / multis as f64, multis)
}

fn theorem3(
    sizes: &Sizes,
    reg: &mut Registry,
    conf: &mut Vec<bounds::Conformance>,
    seq_witness: &mut BinomialHeap<i64>,
) {
    let mut samples = Vec::new();
    for &(q, b, ops) in sizes.t3_fit {
        let (_, per_multiop, _) = run_distributed(q, b, ops, 0x73 + ops as u64);
        let n = (ops + ops / 2) as f64;
        samples.push((bounds::th3_bunion_time(n, b as f64, q as f64), per_multiop));
    }
    let env = Envelope::fit("theorem3", "bunion.time", &samples).expect("t3 calibration ran");

    let (q, b, ops) = sizes.t3;
    let (pq, per_multiop, multis) = run_distributed(q, b, ops, 0x33);
    let n = (ops + ops / 2) as f64;
    reg.record("dmpq/net", &pq.net_stats());
    let mut ledger_by_op: Vec<(DOp, NetStats)> = Vec::new();
    for &(op, s) in pq.ledger() {
        match ledger_by_op.iter_mut().find(|(o, _)| *o == op) {
            Some((_, acc)) => *acc = acc.merge(&s),
            None => ledger_by_op.push((op, s)),
        }
    }
    for (op, s) in &ledger_by_op {
        reg.record(&format!("dmpq/{op:?}"), s);
    }
    // Per-link congestion: the profile behind word_hops.
    let loads = pq.link_loads();
    reg.record_fields(
        "hypercube.net.links",
        "congestion",
        vec![
            ("links_used".to_string(), loads.len() as u64),
            ("max_link_load".to_string(), pq.max_link_load()),
            (
                "total_link_words".to_string(),
                loads.iter().map(|(_, w)| *w).sum(),
            ),
        ],
    );
    conf.push(env.check(
        &format!("q={q} b={b} multis={multis}"),
        bounds::th3_bunion_time(n, b as f64, q as f64),
        per_multiop,
    ));

    // Sequential witness: the same op mix through a plain binomial heap,
    // counting comparisons/links (the OpStats family).
    let mut rng = workloads::rng(0x33);
    for _ in 0..ops.min(512) {
        seq_witness.insert(rng.gen_range(-1_000_000..1_000_000));
    }
    for _ in 0..ops.min(512) / 2 {
        seq_witness.extract_min();
    }
}

// ------------------------------------------------------------------- main

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = "mixed".to_string();
    let mut out_dir = "reports".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = args.get(i).expect("--out needs a directory").clone();
            }
            "--json" => {} // JSON always goes to the report file; flag kept for symmetry
            flag if flag.starts_with("--") => panic!("unknown flag {flag}"),
            name => workload = name.to_string(),
        }
        i += 1;
    }
    let sizes = sizes_for(&workload);

    let mut telemetry = Telemetry::new(&workload);
    let mut conf = Vec::new();
    let mut seq_witness: BinomialHeap<i64> = BinomialHeap::new();

    theorem1(&sizes, &mut telemetry.registry, &mut conf);
    theorem2(&sizes, &mut telemetry.registry, &mut conf);
    theorem3(&sizes, &mut telemetry.registry, &mut conf, &mut seq_witness);
    telemetry
        .registry
        .record("seq_witness/binomial", seq_witness.stats());

    // Drain every thread's spans, not just main's: each thread records
    // into its own sink.
    telemetry.spans = obs::take_all_spans();
    telemetry.conformance = conf;

    let path = format!("{out_dir}/TELEMETRY_{workload}.json");
    let doc = telemetry.to_json();
    std::fs::create_dir_all(&out_dir).expect("create report dir");
    std::fs::write(&path, format!("{doc}\n")).expect("write report");

    print!("{}", telemetry.render());
    println!(
        "report: {path} (spans={}, meters={}, conformance={} rows, worst ratio {:.3})",
        telemetry.spans.len(),
        telemetry.registry.records().len(),
        telemetry.conformance.len(),
        telemetry.worst_ratio()
    );
    if !obs::enabled() {
        println!("note: spans empty — rebuild with --features telemetry to record them");
    }
    if !telemetry.all_within() {
        eprintln!("CONFORMANCE FAILURE: a theorem envelope was exceeded (see rows above)");
        std::process::exit(1);
    }
}
