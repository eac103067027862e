//! Quickstart: a tour of every queue in the workspace.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use meldable_binomial_heaps::*;
use meldpq::ParBinomialHeap;
use seqheaps::{BinomialHeap, LeftistHeap, MeldablePq};

fn main() {
    // --- 1. the sequential binomial heap (the structure the paper parallelises)
    let mut a = BinomialHeap::new();
    let mut b = BinomialHeap::new();
    for k in [5, 1, 9, 3] {
        a.insert(k);
    }
    for k in [2, 8, 4] {
        b.insert(k);
    }
    println!("heap A trees: {:?} (set bits of 4)", a.root_orders());
    println!("heap B trees: {:?} (set bits of 3)", b.root_orders());
    a.meld(b);
    println!(
        "melded trees: {:?} (set bits of 7 = 4 + 3)",
        a.root_orders()
    );
    println!("sorted drain: {:?}\n", a.drain_sorted());

    // --- 2. the parallel heap: same API, planned on the host or the PRAM
    let mut p1 = ParBinomialHeap::from_keys([10, 30, 50, 70]);
    let p2 = ParBinomialHeap::from_keys([20, 40, 60]);
    p1.meld(p2);
    println!("parallel heap min after meld: {:?}", p1.min());

    // The PRAM engine *measures* the Theorem 1 cost of the same meld:
    let h1 = ParBinomialHeap::from_keys(0..127);
    let h2 = ParBinomialHeap::from_keys(200..327);
    let width = meldpq::plan::plan_width(h1.len(), h2.len());
    let outcome =
        meldpq::engine_pram::build_plan_pram(&h1.root_refs(width), &h2.root_refs(width), 3)
            .expect("EREW-legal program");
    println!(
        "PRAM Union of 127+127 keys with p=3: {} (phases: {:?})\n",
        outcome.cost,
        outcome
            .phases
            .entries()
            .iter()
            .map(|(l, c)| format!("{l}: {c}"))
            .collect::<Vec<_>>()
    );

    // --- 3. lazy deletion (paper §4): delete by handle, amortized rebuilds
    let mut lazy = meldpq::lazy::LazyBinomialHeap::new(2);
    let ids: Vec<_> = (0..32).map(|k| lazy.insert(k)).collect();
    lazy.delete(ids[17]);
    let new_handle = lazy.change_key(ids[9], -5);
    println!("lazy heap min after change_key(9 → -5): {:?}", lazy.min());
    println!("handle key: {:?}", lazy.key_of(new_handle));
    println!(
        "cost ledger has {} entries, total {}\n",
        lazy.cost_log().len(),
        lazy.total_cost()
    );

    // --- 4. the distributed queue on a simulated hypercube (paper §5)
    let mut dq = dmpq::DistributedPq::new(3, 8);
    for k in (0..64).rev() {
        dq.insert(k).expect("fault-free net");
    }
    let first: Vec<_> = (0..5)
        .filter_map(|_| dq.extract_min().expect("fault-free net"))
        .collect();
    println!("distributed queue first five: {first:?}");
    println!(
        "network cost so far: {} over {} multi-operations",
        dq.net_stats(),
        dq.ledger().len()
    );

    // --- 4b. generic keys: (priority, payload) tuples carry data
    let mut jobs: meldpq::ParBinomialHeap<(u32, &str)> = meldpq::ParBinomialHeap::new();
    jobs.insert((2, "compile"));
    jobs.insert((1, "fetch sources"));
    jobs.insert((3, "run tests"));
    let (_, first) = jobs.extract_min().expect("nonempty");
    println!("first scheduled job: {first}\n");

    // --- 5. the meldable baselines share one trait
    let mut l = LeftistHeap::new();
    l.multi_insert(&[3, 1, 2]);
    let mut r = LeftistHeap::new();
    r.multi_insert(&[0, 4]);
    l.meld(r);
    println!("leftist drain: {:?}", l.drain_sorted());
}
