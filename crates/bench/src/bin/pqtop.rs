//! `pqtop` — live introspection console for the sharded queue service.
//!
//! Drives a mixed background load ([`bench::workloads::service_op`], the
//! mix the wall-clock suite's service gate runs) against an in-process
//! [`service::QueueService`] and refreshes a `top`-style view:
//! the [`service::ServiceSnapshot`] shard table (queues, keys, requests,
//! latency quantiles) over the tail of the flight recorder's event stream.
//! On exit it drains the recorder into `reports/FLIGHT_<run>.json` so a run
//! leaves the same evidence a failing stress test attaches to its panic.
//!
//! Flags: `--seconds N` (4) · `--hz N` (10 refreshes/s) · `--threads N` (4)
//! · `--queues N` (8) · `--shards N` (default: `ServiceBuilder::new()`'s,
//! [`service::default_shards`]) · `--once` (single plain snapshot,
//! no screen control — the CI smoke mode) · `--run NAME` (report suffix,
//! default `pqtop`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::workloads;
use obs::flight;
use service::{QueueId, QueueService, ServiceBuilder};

struct Args {
    seconds: f64,
    hz: f64,
    threads: usize,
    queues: usize,
    shards: Option<usize>,
    once: bool,
    run: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        seconds: 4.0,
        hz: 10.0,
        threads: 4,
        queues: 8,
        shards: None,
        once: false,
        run: "pqtop".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |what: &str| it.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match a.as_str() {
            "--seconds" => args.seconds = next("--seconds").parse().expect("--seconds"),
            "--hz" => args.hz = next("--hz").parse().expect("--hz"),
            "--threads" => args.threads = next("--threads").parse().expect("--threads"),
            "--queues" => args.queues = next("--queues").parse().expect("--queues"),
            "--shards" => args.shards = Some(next("--shards").parse().expect("--shards")),
            "--once" => args.once = true,
            "--run" => args.run = next("--run"),
            other => panic!("unknown flag {other}"),
        }
    }
    args.hz = args.hz.clamp(0.5, 60.0);
    args.threads = args.threads.max(1);
    args.queues = args.queues.max(1);
    args
}

/// Spawn the background load: each worker hammers the service with the
/// [`workloads::service_op`] mix until `stop` flips.
fn spawn_load(
    svc: &Arc<QueueService>,
    queues: &Arc<Vec<QueueId>>,
    stop: &Arc<AtomicBool>,
    threads: usize,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..threads)
        .map(|tid| {
            let (svc, queues, stop) = (Arc::clone(svc), Arc::clone(queues), Arc::clone(stop));
            std::thread::Builder::new()
                .name(format!("pqtop-load-{tid}"))
                .spawn(move || {
                    let mut rng = workloads::rng(0x709_0000 ^ tid as u64);
                    while !stop.load(Ordering::Relaxed) {
                        let (qi, op) = workloads::service_op(&mut rng, queues.len());
                        op.run(&svc, queues[qi]).expect("load op failed");
                    }
                })
                .expect("spawn load worker")
        })
        .collect()
}

/// One screenful: the shard table plus the newest flight events.
fn frame(svc: &QueueService, elapsed: f64, tail: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "pqtop — {} shard(s), {:.1}s elapsed, recorder {}\n\n",
        svc.shard_count(),
        elapsed,
        if flight::is_enabled() { "on" } else { "off" }
    ));
    out.push_str(&svc.snapshot().render());
    if tail > 0 {
        out.push_str("\nrecent flight events:\n");
        out.push_str(&flight::render(&flight::tail(tail)));
    }
    out
}

fn main() {
    let args = parse_args();
    let builder = match args.shards {
        Some(n) => ServiceBuilder::new().shards(n),
        None => ServiceBuilder::new(),
    };
    let svc = Arc::new(builder.build());
    let queues: Arc<Vec<QueueId>> =
        Arc::new((0..args.queues).map(|_| svc.create_queue()).collect());

    let stop = Arc::new(AtomicBool::new(false));
    let workers = spawn_load(&svc, &queues, &stop, args.threads);

    let t0 = Instant::now();
    if args.once {
        // Let the load put something on the board, then one plain frame.
        std::thread::sleep(Duration::from_millis(200));
        print!("{}", frame(&svc, t0.elapsed().as_secs_f64(), 8));
    } else {
        let tick = Duration::from_secs_f64(1.0 / args.hz);
        while t0.elapsed().as_secs_f64() < args.seconds {
            // Home + clear-to-end keeps the table flicker-free without
            // pulling in a terminal library.
            print!("\x1b[H\x1b[J{}", frame(&svc, t0.elapsed().as_secs_f64(), 8));
            use std::io::Write;
            std::io::stdout().flush().ok();
            std::thread::sleep(tick);
        }
    }

    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("load worker panicked");
    }
    svc.validate()
        .expect("service state corrupt after pqtop load");
    if !args.once {
        print!("\n{}", frame(&svc, t0.elapsed().as_secs_f64(), 8));
    }

    let reports = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    std::fs::create_dir_all(&reports).expect("create reports dir");
    flight::dump(&reports.join(format!("FLIGHT_{}.json", args.run)));
}
