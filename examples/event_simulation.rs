//! Federated discrete-event simulation on meldable future-event lists.
//!
//! The motivating workload for meldable queues: several sub-simulations each
//! keep their own future-event list; when federations merge (here: traffic
//! rebalancing), their event lists *meld* in `O(log n)` instead of being
//! re-inserted one by one. The same simulation runs on every queue type and
//! must produce identical event traces.
//!
//! ```text
//! cargo run --example event_simulation
//! ```

use meldpq::ParBinomialHeap;
use seqheaps::{BinomialHeap, LeftistHeap, MeldablePq};

/// An event: fires at `time`, at `station`, with a deterministic service
/// demand. Packed into an i64 key as (time << 16 | station) so the queues
/// stay key-only; stations < 2^8, times < 2^40.
fn pack(time: u64, station: u16) -> i64 {
    ((time as i64) << 16) | station as i64
}

fn unpack(key: i64) -> (u64, u16) {
    ((key >> 16) as u64, (key & 0xFFFF) as u16)
}

/// Simple deterministic LCG so every queue sees the same workload.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Run the federated simulation on any meldable queue; returns the trace of
/// the first `horizon` completions.
fn simulate<H: MeldablePq<i64> + Default>(horizon: usize) -> Vec<(u64, u16)> {
    // Two federations, each with its own event list.
    let mut lcg = Lcg(42);
    let mut fed_a = H::default();
    let mut fed_b = H::default();
    for i in 0..512 {
        let t = lcg.next() % 10_000;
        let station = (i % 50) as u16;
        if i % 2 == 0 {
            fed_a.insert(pack(t, station));
        } else {
            fed_b.insert(pack(t, 50 + station));
        }
    }
    // Rebalancing: federation B joins A — one meld.
    fed_a.meld(fed_b);

    let mut trace = Vec::with_capacity(horizon);
    let mut completed = 0;
    while completed < horizon {
        let Some(key) = fed_a.extract_min() else {
            break;
        };
        let (t, s) = unpack(key);
        trace.push((t, s));
        completed += 1;
        // Each completion schedules a follow-up with deterministic delay.
        if completed + trace.len() < 4 * horizon {
            let delay = 1 + lcg.next() % 500;
            fed_a.insert(pack(t + delay, s));
        }
    }
    trace
}

/// The same simulation on the paper's parallel heap. The initial meld is
/// planned on the host, or with `pram` on the PRAM simulator.
fn simulate_parallel(pram: bool, horizon: usize) -> Vec<(u64, u16)> {
    let mut lcg = Lcg(42);
    let mut fed_a = ParBinomialHeap::new();
    let mut fed_b = ParBinomialHeap::new();
    for i in 0..512 {
        let t = lcg.next() % 10_000;
        let station = (i % 50) as u16;
        if i % 2 == 0 {
            fed_a.insert(pack(t, station));
        } else {
            fed_b.insert(pack(t, 50 + station));
        }
    }
    if pram {
        fed_a.meld_pram(fed_b, 4);
    } else {
        fed_a.meld(fed_b);
    }
    let mut trace = Vec::with_capacity(horizon);
    let mut completed = 0;
    while completed < horizon {
        let Some(key) = fed_a.extract_min() else {
            break;
        };
        let (t, s) = unpack(key);
        trace.push((t, s));
        completed += 1;
        if completed + trace.len() < 4 * horizon {
            let delay = 1 + lcg.next() % 500;
            fed_a.insert(pack(t + delay, s));
        }
    }
    trace
}

fn main() {
    let horizon = 400;
    let t_binomial = simulate::<BinomialHeap<i64>>(horizon);
    let t_leftist = simulate::<LeftistHeap<i64>>(horizon);
    let t_par_seq = simulate_parallel(false, horizon);
    let t_par_pram = simulate_parallel(true, horizon);

    assert_eq!(t_binomial, t_leftist, "leftist trace diverged");
    assert_eq!(t_binomial, t_par_seq, "parallel/seq trace diverged");
    assert_eq!(t_binomial, t_par_pram, "parallel/pram trace diverged");

    println!("all four queue implementations produced identical traces ✓");
    println!("first 10 completions (time, station):");
    for (t, s) in t_binomial.iter().take(10) {
        println!("  t={t:>6}  station {s}");
    }
    let last = t_binomial.last().expect("nonempty");
    println!(
        "... {} completions, horizon reached at t={}",
        t_binomial.len(),
        last.0
    );
}
