//! `perfbench` — one workload run of the repository benchmark.
//!
//! ```text
//! perfbench --workload <mixed|durable-ingest> --seed <n>
//!           --seconds <s> --trace <0|1> --dir <scratch dir> [--setup-only]
//! ```
//!
//! Untraced (`--trace 0`) runs time every `QueueService` call from the
//! client side and print the end-to-end metrics. Traced runs (`--trace 1`)
//! run the same seed twice, untraced then traced, and print the per-layer
//! metrics: `service` from its counters and the flight recorder, `pool` and
//! `wal` from replaying the traced run's calls against bare `HeapPool`s and
//! `WalWriter`s. `--setup-only` stops before the timed phase and prints the
//! set-up time, so `run.py` can take its median over fresh processes.
//!
//! Every line but the last is for people; the last is one JSON object.
//! The exit code is non-zero when any output check failed.

mod check;
mod drive;
mod gen;
mod layers;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use obs::json::J;
use service::{QueueId, QueueService, ServiceBuilder};

use check::{Ledger, Samples};
use drive::{ClientResult, Setup};
use gen::{Inputs, Kind, Spec, Workload};
use layers::{FlightSampler, Replay};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut dir = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(val()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = val()? == "1",
            "--dir" => dir = Some(PathBuf::from(val()?)),
            "--setup-only" => setup_only = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        dir: dir.ok_or("--dir is required")?,
        setup_only,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// A metric as the report prints it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// `<name>_p50` and `<name>_p99` of `s`, scaled by `scale`.
    fn timing(&mut self, name: &str, s: &Samples, scale: f64, unit: &'static str) {
        let tail = match s.len() {
            0 => " (layer not loaded)",
            1..=999 => " (under 1000 samples: p99 is not resolved)",
            _ => "",
        };
        println!("  {name}: n={}{tail}", s.len());
        self.put(&format!("{name}_p50"), s.quantile(0.50) * scale, unit);
        self.put(&format!("{name}_p99"), s.quantile(0.99) * scale, unit);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.messages.len() < 16 {
            self.messages.push(what);
        }
    }

    fn to_json(&self) -> J {
        J::obj([
            ("correct", J::Bool(self.failed == 0)),
            ("attempted", J::UInt(self.attempted.max(1))),
            ("failed", J::UInt(self.failed)),
            (
                "metrics",
                J::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let v = J::obj([
                                ("value", J::Num(m.value)),
                                ("unit", J::Str(m.unit.into())),
                            ]);
                            (m.name.clone(), v)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Median of a non-empty list.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Bytes in every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Host facts every result depends on.
fn stamp(args: &Args, spec: &Spec, svc: &QueueService) -> J {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    J::obj([
        ("workload", J::Str(args.workload.name().into())),
        ("seed", J::UInt(args.seed)),
        ("nproc", J::UInt(nproc as u64)),
        ("cutoffs", J::Str(meldpq::cutoff::describe())),
        ("backends", J::Str(meldpq::backend::describe())),
        ("service_backend", J::Str(svc.backend().name().into())),
        ("shards", J::UInt(svc.shard_count() as u64)),
        ("clients", J::UInt(spec.clients as u64)),
        ("durable", J::Bool(spec.durable)),
        ("flight_recorder", J::Bool(obs::flight::is_enabled())),
        ("trace", J::Bool(args.trace)),
    ])
}

/// The clients' results of one timed phase, folded together.
struct Phase {
    results: Vec<ClientResult>,
    wall: Duration,
    /// The phase's nominal length; the last call may end after it.
    seconds: f64,
}

impl Phase {
    fn calls(&self) -> u64 {
        self.sum(|r| r.all.len() as u64)
    }

    fn ops_per_s(&self) -> f64 {
        self.calls() as f64 / self.wall.as_secs_f64()
    }

    /// Keys ever inserted: the prefill and every acknowledged insert.
    fn keys_ever(&self, spec: &Spec) -> u64 {
        self.sum(|r| r.keys_in) + (spec.queues * spec.prefill) as u64
    }

    fn sum(&self, f: impl Fn(&ClientResult) -> u64) -> u64 {
        self.results.iter().map(f).sum()
    }

    /// Every client's slices, summed slice by slice.
    fn slices(&self) -> Vec<drive::Slice> {
        (0..drive::SLICES)
            .map(|i| drive::Slice {
                calls: self.sum(|r| r.slices[i].calls),
                keys: self.sum(|r| r.slices[i].keys),
            })
            .collect()
    }

    fn merged(&self, f: impl Fn(&ClientResult) -> &Samples) -> Samples {
        let mut s = Samples::default();
        for r in &self.results {
            s.extend(f(r));
        }
        s
    }

    fn ledgers(&self) -> Vec<Ledger> {
        let mut out = vec![Ledger::default(); self.results[0].ledgers.len()];
        for r in &self.results {
            for (l, o) in out.iter_mut().zip(&r.ledgers) {
                l.merge(o);
            }
        }
        out
    }

    /// Count calls and per-call failures into `report`.
    fn account(&self, report: &mut Report) {
        report.attempted += self.calls();
        for r in &self.results {
            report.failed += r.errors + r.bad_outputs;
            report.messages.extend(r.messages.iter().cloned());
        }
    }

    fn print_counts(&self, spec: &Spec) {
        let ops: Vec<(&'static str, J)> = Kind::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.sum(|r| r.ops_by_kind[i]) > 0)
            .map(|(i, k)| (k.name(), J::UInt(self.sum(|r| r.ops_by_kind[i]))))
            .collect();
        let (block_in, block_out) = spec.block_balance();
        println!("mix: one block puts {block_in} keys in and asks {block_out} out");
        let keys_in = self.sum(|r| r.keys_in);
        let keys_out = self.sum(|r| r.keys_out);
        println!(
            "realized: {} calls in {:.3} s; ops {}; keys in {keys_in}, keys out {keys_out} \
             ({:.3} popped per inserted); {} clients",
            self.calls(),
            self.wall.as_secs_f64(),
            J::obj(ops),
            keys_out as f64 / keys_in.max(1) as f64,
            spec.clients,
        );
    }
}

/// What the end-of-phase checks found, and what the durable reopen cost.
struct PhaseEnd {
    recover_s: f64,
    disk_bytes: u64,
}

/// Check a finished phase's outputs, counting every failure into `report`:
/// the service validates, and every long-lived queue holds exactly what
/// its ledgers say — after a drop and reopen when the service is durable.
fn finish_phase(
    spec: &Spec,
    setup: Setup,
    phase: &Phase,
    dir: &Path,
    report: &mut Report,
) -> PhaseEnd {
    let handles: Vec<QueueId> = setup.handles.clone();
    let ledgers = phase.ledgers();
    let mut end = PhaseEnd {
        recover_s: 0.0,
        disk_bytes: 0,
    };
    let mut svc = setup.svc;
    if let Err(e) = svc.validate() {
        report.fail(format!("validate: {e}"));
    }
    if spec.durable {
        let wal_errors: u64 = (0..svc.shard_count())
            .map(|i| svc.shard_stats(i).wal_errors)
            .sum();
        if wal_errors > 0 {
            report.fail(format!("{wal_errors} WAL errors turned durability off"));
        }
        drop(svc);
        end.disk_bytes = dir_bytes(dir);
        let t = Instant::now();
        let reopened = ServiceBuilder::new().durable(dir).try_build();
        end.recover_s = t.elapsed().as_secs_f64();
        svc = match reopened {
            Ok(s) => s,
            Err(e) => {
                report.fail(format!("reopen: {e}"));
                return end;
            }
        };
        if let Err(e) = svc.validate() {
            report.fail(format!("validate after reopen: {e}"));
        }
    }
    for f in drive::drain_and_check(&svc, &handles, &ledgers) {
        report.fail(f);
    }
    end
}

fn run(args: &Args) -> Result<bool, String> {
    let process_start = Instant::now();
    let spec = args.workload.spec();
    // The first call into the cutoffs calibrates them; time it on its own.
    let t = Instant::now();
    let cutoffs = meldpq::cutoff::describe();
    let calibrate_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let inputs = gen::generate(args.workload, args.seed);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
    let first_dir = args.dir.join("service");
    let t = Instant::now();
    let setup = drive::setup(&spec, &inputs, &first_dir)?;
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let setup_s = process_start.elapsed().as_secs_f64();
    println!("{}", stamp(args, &spec, &setup.svc));
    println!(
        "set-up {setup_s:.4} s: cutoff calibration {calibrate_ms:.2} ms ({cutoffs}), \
         inputs {generate_ms:.2} ms, service build and prefill {build_ms:.2} ms"
    );
    if args.setup_only {
        println!("{}", J::obj([("setup_s", J::Num(setup_s))]));
        return Ok(true);
    }

    let mut report = Report::default();
    // A traced run times two phases, untraced then traced, in the time an
    // untraced run times one.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (results, wall) = drive::run_phase(&spec, &inputs, &setup, seconds, false);
    let phase = Phase {
        results,
        wall,
        seconds,
    };
    let rss = match phase.results[0].rss_mib {
        Some(mib) => mib,
        None => {
            println!(
                "peak_rss_mib: fewer than {} calls, read at the end",
                spec.rss_after_calls
            );
            drive::peak_rss_mib()
        }
    };
    phase.print_counts(&spec);
    phase.account(&mut report);
    let end = finish_phase(&spec, setup, &phase, &first_dir, &mut report);
    if spec.durable {
        let keys_ever = phase.keys_ever(&spec);
        println!(
            "durable: recover_s {:.4}; disk_bytes_per_key {:.2} ({} bytes over {keys_ever} keys ever inserted)",
            end.recover_s,
            end.disk_bytes as f64 / keys_ever as f64,
            end.disk_bytes
        );
    }

    if args.trace {
        trace_run(args, &spec, &inputs, &phase, calibrate_ms, &mut report)?;
    } else {
        end_to_end(&phase, setup_s, rss, &mut report);
    }
    println!(
        "error_rate {:.6} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for m in &report.messages {
        println!("FAILED: {m}");
    }
    for m in &report.metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!("process peak memory: {:.1} MiB", drive::peak_rss_mib());
    println!("{}", report.to_json());
    Ok(report.failed == 0)
}

/// Throughput is the median over the phase's slices; latencies take every
/// sample of the phase, and the log states how many.
fn end_to_end(phase: &Phase, setup_s: f64, rss: f64, report: &mut Report) {
    let secs = phase.seconds / drive::SLICES as f64;
    let slices = phase.slices();
    let per_slice = |name: &str, f: &dyn Fn(&drive::Slice) -> f64| -> f64 {
        let v: Vec<f64> = slices.iter().map(f).collect();
        let shown: Vec<String> = v.iter().map(|x| format!("{x:.0}")).collect();
        println!("  {name} per slice: {}", shown.join(" "));
        median(v)
    };
    let ops = per_slice("ops_per_s", &|s| s.calls as f64 / secs);
    report.put("ops_per_s", ops, "ops/s");
    let keys = per_slice("keys_per_s", &|s| s.keys as f64 / secs);
    report.put("keys_per_s", keys, "keys/s");
    let (all, ins, pops) = (
        phase.merged(|r| &r.all),
        phase.merged(|r| &r.inserts),
        phase.merged(|r| &r.pops),
    );
    println!(
        "  latency samples: all {}, insert {}, pop {}",
        all.len(),
        ins.len(),
        pops.len()
    );
    report.put("latency_p50_us", all.quantile(0.50) / 1e3, "us");
    report.put("latency_p99_us", all.quantile(0.99) / 1e3, "us");
    report.put("insert_p99_us", ins.quantile(0.99) / 1e3, "us");
    report.put("pop_p99_us", pops.quantile(0.99) / 1e3, "us");
    report.put("setup_s", setup_s, "s");
    report.put("peak_rss_mib", rss, "MiB");
}

/// The traced run: a fresh service for the same seed, traced this time,
/// then the pool and WAL replays of its calls.
fn trace_run(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    untraced: &Phase,
    calibrate_ms: f64,
    report: &mut Report,
) -> Result<(), String> {
    let dir = args.dir.join("traced");
    let setup = drive::setup(spec, inputs, &dir)?;
    let setup_recs = setup.recs.clone();
    let (mut results, wall) = drive::run_phase(spec, inputs, &setup, untraced.seconds, true);
    let flight: FlightSampler = results[0].flight.take().unwrap_or_default();
    let mut recs: Vec<drive::Rec> = results
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.recs))
        .collect();
    let phase = Phase {
        results,
        wall,
        seconds: untraced.seconds,
    };
    phase.print_counts(spec);
    phase.account(report);

    let svc = &setup.svc;
    let shards = svc.shard_count();
    let stats: Vec<_> = (0..shards).map(|i| svc.shard_stats(i)).collect();
    let snap = svc.snapshot();
    let copies: u64 = (0..shards).map(|i| svc.arena_stats(i).copies).sum();
    let end = finish_phase(spec, setup, &phase, &dir, report);

    let wall_ns = wall.as_nanos() as f64;
    let call_ns = phase.merged(|r| &r.all).total();
    let st = |f: fn(&service::ShardStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    println!(
        "service: {} flight samples, {} requests seen, {} with their end, {} ended by another thread",
        flight.samples, flight.requests, flight.ended, flight.combined
    );
    report.put(
        "service.batch_mean",
        ratio(st(|s| s.requests), st(|s| s.batches)),
        "req/batch",
    );
    report.put(
        "service.coalesced_frac",
        ratio(flight.combined as f64, flight.ended as f64),
        "fraction",
    );
    report.put(
        "service.combine_us",
        ratio(st(|s| s.combine_ns), st(|s| s.combines)) / 1e3,
        "us",
    );
    report.put(
        "service.combiner_busy_frac",
        ratio(st(|s| s.combine_ns), wall_ns * shards as f64),
        "fraction",
    );
    let parks = flight.parks;
    report.put(
        "service.park_frac",
        ratio(parks.len() as f64, flight.requests as f64),
        "fraction",
    );
    let park_ns = parks.total();
    report.timing("service.park_us", &parks, 1e-3, "us");
    let lat = snap.latency();
    println!("  service.shard_latency_us: n={}", lat.count());
    report.put(
        "service.shard_latency_us_p50",
        lat.quantile(0.50) as f64 / 1e3,
        "us",
    );
    report.put(
        "service.shard_latency_us_p99",
        lat.quantile(0.99) as f64 / 1e3,
        "us",
    );
    report.put("service.recover_s", end.recover_s, "s");

    let wal_root = args.dir.join("replay");
    let mut replay = Replay::new(inputs, shards, spec.durable.then_some(wal_root.as_path()))?;
    let t = Instant::now();
    replay.run(&setup_recs, &mut recs);
    replay.recover();
    println!(
        "replay: {} calls in {:.3} s",
        recs.len(),
        t.elapsed().as_secs_f64()
    );
    let times = replay.times;
    report.timing("pool.insert_ns", &times.insert, 1.0, "ns");
    report.timing("pool.extract_min_ns", &times.extract_min, 1.0, "ns");
    report.timing(
        "pool.multi_extract_ns_per_key",
        &times.multi_extract_per_key,
        1.0,
        "ns/key",
    );
    report.timing(
        "pool.bulk_build_ns_per_key",
        &times.bulk_build_per_key,
        1.0,
        "ns/key",
    );
    report.timing("pool.meld_ns", &times.meld, 1.0, "ns");
    report.timing(
        "pool.meld_cross_ns_per_key",
        &times.meld_cross_per_key,
        1.0,
        "ns/key",
    );
    let melds = st(|s| s.melds_same_shard) + st(|s| s.melds_cross_shard);
    println!(
        "melds: {} same-shard, {} cross-shard",
        st(|s| s.melds_same_shard),
        st(|s| s.melds_cross_shard)
    );
    report.put(
        "pool.copies_per_meld",
        ratio(copies as f64, melds),
        "copies/meld",
    );
    report.put(
        "pool.empty_pop_frac",
        ratio(
            phase.sum(|r| r.empty_pops) as f64,
            phase.sum(|r| r.pop_calls) as f64,
        ),
        "fraction",
    );
    report.put("pool.busy_frac", ratio(times.pool_ns, call_ns), "fraction");

    report.timing("wal.append_ns", &times.append, 1.0, "ns");
    report.timing("wal.flush_ns", &times.flush, 1.0, "ns");
    report.put(
        "wal.bytes_per_op",
        ratio(
            (times.wal_bytes - times.wal_bytes_setup) as f64,
            phase.calls() as f64,
        ),
        "B/op",
    );
    report.put("wal.checkpoints", st(|s| s.wal_checkpoints), "count");
    report.timing("wal.checkpoint_ms", &times.checkpoint, 1e-6, "ms");
    report.put("wal.recover_s", times.recover_s, "s");
    report.put(
        "wal.errors",
        (st(|s| s.wal_errors) as u64 + times.wal_errors) as f64,
        "count",
    );
    if times.wal_errors > 0 {
        report.fail(format!("{} WAL replay errors", times.wal_errors));
    }
    let keys_ever = phase.keys_ever(spec);
    let per_key = if spec.durable {
        end.disk_bytes as f64 / keys_ever as f64
    } else {
        0.0
    };
    report.put("wal.disk_bytes_per_key", per_key, "B/key");

    report.put("cutoff.calibrate_ms", calibrate_ms, "ms");
    report.put(
        "trace.overhead_frac",
        1.0 - ratio(phase.ops_per_s(), untraced.ops_per_s()),
        "fraction",
    );
    let park_est = ratio(park_ns, parks.len() as f64)
        * ratio(parks.len() as f64, flight.requests as f64)
        * phase.calls() as f64;
    report.put(
        "trace.covered_frac",
        ratio(times.pool_ns + times.wal_ns + park_est, call_ns),
        "fraction",
    );
    Ok(())
}
