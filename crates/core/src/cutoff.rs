//! Machine-calibrated sequential↔parallel cutoffs, measured at first use.
//!
//! Every hybrid kernel in the crate needs a granularity constant: the
//! sub-range size below which the slab builder stops splitting
//! `rayon::join`, and the batch size above which the bulk build kernel beats
//! a ripple-insert loop. A hardcoded constant (`SEQ_THRESHOLD = 8 * 1024`)
//! is right for one machine and wrong for the next. This module replaces
//! the guesses with [`obs::calib::CostModel`] fits over micro-probes run
//! **once per process at first use** (`OnceLock`), on the machine the kernel
//! is about to run on:
//!
//! * each probe times the real sequential kernel and the real parallel
//!   kernel on a representative input plus the fixed dispatch overhead
//!   (an empty `rayon::join`, or the kernel at trivial size);
//! * the fitted affine model is solved for the crossover with a 25% win
//!   margin, so fit noise cannot flip a borderline machine to the slower
//!   path;
//! * the result is clamped into a per-kernel sane range
//!   ([`obs::calib::clamp_cutoff`]).
//!
//! On a single-core host the parallel probes come back no faster than the
//! sequential ones, the crossover is [`obs::calib::Crossover::Never`], and
//! every cutoff saturates at its ceiling — the kernels degenerate to their
//! sequential paths, which is the wall-clock-optimal schedule there.
//!
//! **CI determinism:** each cutoff honors an environment variable override
//! (`MELDPQ_BULK_CUTOFF`, `MELDPQ_BATCH_CUTOFF`) read before any probe runs,
//! so pinned CI runs and the differential fuzzer can force both sides of
//! every threshold regardless of host speed.
//!
//! A single `Union` has no cutoff: it plans at most 64 positions, far below
//! thread-dispatch granularity, so it always runs the sequential
//! [`crate::plan::build_plan_into`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::OnceLock;
use std::time::Instant;

use obs::calib::{clamp_cutoff, CostModel};

use crate::arena::Node;
use crate::pool::HeapPool;

/// Clamp range for [`bulk_join_cutoff`]: splitting below a few cache lines
/// of keys is absurd, serializing multi-megabyte builds is equally so.
const BULK_RANGE: (usize, usize) = (1 << 10, 1 << 22);
/// Clamp range for [`batch_bulk_cutoff`]: a batch of 2 can already win, and
/// past 64k keys the bulk kernel wins on any plausible hardware.
const BATCH_RANGE: (usize, usize) = (2, 1 << 16);

/// Fallbacks when a probe cannot produce a usable fit (e.g. a timer of too
/// little resolution): the old hardcoded constants, now demoted to last
/// resort.
const BULK_FALLBACK: usize = 8 * 1024;
const BATCH_FALLBACK: usize = 64;

/// The margin the parallel path must win by before it is chosen.
const MARGIN: f64 = 1.25;

/// Minimum sub-range size the parallel slab builder keeps splitting with
/// `rayon::join`; ranges below it build with the sequential leaf kernel.
/// Override: `MELDPQ_BULK_CUTOFF`.
pub fn bulk_join_cutoff() -> usize {
    static CUTOFF: OnceLock<usize> = OnceLock::new();
    *CUTOFF.get_or_init(|| {
        env_override("MELDPQ_BULK_CUTOFF", BULK_RANGE).unwrap_or_else(calibrate_bulk)
    })
}

/// Minimum batch size at which the bulk build-then-meld kernel beats a
/// per-key ripple-insert loop — the default admission threshold for
/// `multi_insert` and the service layer's batcher. Override:
/// `MELDPQ_BATCH_CUTOFF`.
pub fn batch_bulk_cutoff() -> usize {
    static CUTOFF: OnceLock<usize> = OnceLock::new();
    *CUTOFF.get_or_init(|| {
        env_override("MELDPQ_BATCH_CUTOFF", BATCH_RANGE).unwrap_or_else(calibrate_batch)
    })
}

/// One-line rendering of the two calibrated cutoffs (for bench logs and
/// `EXPERIMENTS.md` provenance).
pub fn describe() -> String {
    format!(
        "cutoffs: bulk_join={} batch_bulk={}",
        bulk_join_cutoff(),
        batch_bulk_cutoff()
    )
}

/// Parse an environment override, clamped into the kernel's sane range so a
/// typo cannot request a pathological schedule.
fn env_override(var: &str, range: (usize, usize)) -> Option<usize> {
    let v = std::env::var(var).ok()?;
    parse_override(&v, range)
}

fn parse_override(v: &str, (lo, hi): (usize, usize)) -> Option<usize> {
    v.trim().parse::<usize>().ok().map(|n| n.clamp(lo, hi))
}

/// Best-of-`reps` wall-clock of one invocation of `f`, in ns.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Probe keys: deterministic, well-mixed, key-comparison-realistic.
fn probe_keys(n: usize) -> Vec<i64> {
    (0..n as i64)
        .map(|i| i.wrapping_mul(2654435761) % 65537)
        .collect()
}

/// Probe the slab builder: one sequential leaf build of `n` keys vs a
/// `rayon::join` of two half builds into the split slab, overhead = an empty
/// join (thread scope + spawn).
fn calibrate_bulk() -> usize {
    const N: usize = 8 * 1024;
    let keys = probe_keys(N);
    let mut slab: Vec<Node<i64>> = Vec::with_capacity(N);
    let seq_ns = time_ns(3, || {
        slab.clear();
        slab.extend(keys.iter().map(|&k| Node::leaf(k)));
        std::hint::black_box(crate::pool::build_slab_leaf(&mut slab, 0));
    });
    let par_ns = time_ns(3, || {
        slab.clear();
        slab.extend(keys.iter().map(|&k| Node::leaf(k)));
        let (left, right) = slab.split_at_mut(N / 2);
        std::hint::black_box(rayon::join(
            || crate::pool::build_slab_leaf(left, 0),
            || crate::pool::build_slab_leaf(right, (N / 2) as u32),
        ));
    });
    let join_ns = time_ns(16, || {
        std::hint::black_box(rayon::join(|| (), || ()));
    });
    match CostModel::fit("bulk_build", &[(N, seq_ns)], &[(N, par_ns)], join_ns) {
        Some(m) => clamp_cutoff(m.crossover(MARGIN), BULK_RANGE.0, BULK_RANGE.1),
        None => BULK_FALLBACK,
    }
}

/// Probe batch admission: a ripple-insert loop of `m` keys vs the bulk slab
/// kernel on the same keys, overhead = the bulk kernel at trivial size (its
/// fixed slab-staging and meld cost).
fn calibrate_batch() -> usize {
    const M: usize = 1024;
    const TINY: usize = 16;
    let keys = probe_keys(M);
    let mut pool: HeapPool<i64> = HeapPool::with_capacity(2 * M);
    // Warm both paths once so neither arm pays first-touch growth.
    let h = pool.from_keys(keys.iter().copied());
    pool.free_heap(h);
    let h = pool.from_keys_parallel(&keys);
    pool.free_heap(h);
    let seq_ns = time_ns(3, || {
        let h = pool.from_keys(keys.iter().copied());
        pool.free_heap(std::hint::black_box(h));
    });
    let par_ns = time_ns(3, || {
        let h = pool.from_keys_parallel(&keys);
        pool.free_heap(std::hint::black_box(h));
    });
    let overhead_ns = time_ns(8, || {
        let h = pool.from_keys_parallel(&keys[..TINY]);
        pool.free_heap(std::hint::black_box(h));
    });
    match CostModel::fit("batch_bulk", &[(M, seq_ns)], &[(M, par_ns)], overhead_ns) {
        Some(m) => clamp_cutoff(m.crossover(MARGIN), BATCH_RANGE.0, BATCH_RANGE.1),
        None => BATCH_FALLBACK,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overrides_parse_and_clamp() {
        assert_eq!(parse_override("4096", (2, 1 << 16)), Some(4096));
        assert_eq!(parse_override(" 12 ", (2, 1 << 16)), Some(12));
        assert_eq!(parse_override("1", (2, 1 << 16)), Some(2));
        assert_eq!(parse_override("999999999", (2, 1 << 16)), Some(1 << 16));
        assert_eq!(parse_override("not-a-number", (2, 1 << 16)), None);
        assert_eq!(parse_override("", (2, 1 << 16)), None);
    }

    #[test]
    fn cutoffs_are_cached_and_in_range() {
        // First call calibrates (or reads the env override), later calls
        // return the identical cached value.
        let b1 = bulk_join_cutoff();
        let m1 = batch_bulk_cutoff();
        assert_eq!(b1, bulk_join_cutoff());
        assert_eq!(m1, batch_bulk_cutoff());
        assert!((BULK_RANGE.0..=BULK_RANGE.1).contains(&b1), "bulk {b1}");
        assert!((BATCH_RANGE.0..=BATCH_RANGE.1).contains(&m1), "batch {m1}");
    }

    #[test]
    fn describe_mentions_every_cutoff() {
        let d = describe();
        assert!(d.contains("bulk_join="));
        assert!(d.contains("batch_bulk="));
    }

    #[test]
    fn probes_produce_usable_fits() {
        // Run the probes directly (bypassing env overrides) — whatever the
        // host, the probe must come back with an in-range answer rather
        // than panicking or falling outside the clamps.
        let b = calibrate_bulk();
        assert!((BULK_RANGE.0..=BULK_RANGE.1).contains(&b), "bulk {b}");
        let m = calibrate_batch();
        assert!((BATCH_RANGE.0..=BATCH_RANGE.1).contains(&m), "batch {m}");
    }
}
