//! The experiment drivers (DESIGN.md §4): figure reproductions F1–F4,
//! theorem scalings T1–T3, ablations A1–A3. Each returns structured data so
//! the report binaries, integration tests and Criterion benches share one
//! implementation.

use dmpq::bheap::BbHeap;
use dmpq::mapping::{assignment, load_per_processor, processor_of_degree};
use dmpq::DistributedPq;
use meldpq::engine_pram::build_plan_pram;
use meldpq::lazy::{LazyBinomialHeap, OpKind};
use meldpq::plan::{build_plan_seq, plan_width, PointType, RootRef, UnionPlan};
use meldpq::NodeId;
use pram::Cost;

use crate::workloads::{self, theorem_p};

fn type_str(t: PointType) -> &'static str {
    match t {
        PointType::Start => "str",
        PointType::Internal => "int",
        PointType::End => "end",
        PointType::Independent => "ind",
    }
}

// ====================================================================
// F1 — Figure 1: carry-chain point classification
// ====================================================================

/// The Figure 1 instance: `H1 = {B1,B3,B5,B6}`, `H2 = {B0,B1,B2,B5}`.
pub fn figure1_plan() -> UnionPlan {
    let mk = |present: &[usize], base: u32| -> Vec<Option<RootRef>> {
        (0..8)
            .map(|i| {
                present.contains(&i).then(|| RootRef {
                    key: i as i64,
                    id: NodeId(base + i as u32),
                })
            })
            .collect()
    };
    build_plan_seq(&mk(&[1, 3, 5, 6], 0), &mk(&[0, 1, 2, 5], 100))
}

/// Figure 1 as printable rows: position, a, b, g, p, c, s, type — matching
/// the paper's table (most significant position first).
pub fn figure1_rows() -> (Vec<&'static str>, Vec<Vec<String>>) {
    let plan = figure1_plan();
    let headers = vec!["Position", "a_i", "b_i", "g_i", "p_i", "c_i", "s_i", "Type"];
    let rows = (0..plan.width)
        .rev()
        .map(|i| {
            vec![
                i.to_string(),
                (plan.a[i] as u8).to_string(),
                (plan.b[i] as u8).to_string(),
                (plan.g[i] as u8).to_string(),
                (plan.p[i] as u8).to_string(),
                (plan.c[i] as u8).to_string(),
                (plan.s[i] as u8).to_string(),
                type_str(plan.class[i]).to_string(),
            ]
        })
        .collect();
    (headers, rows)
}

// ====================================================================
// F2 — Figure 2: segmented prefix minima
// ====================================================================

/// The Figure 2 instance (root keys per position; `None` = nil). Width 15:
/// the chain ending at position 13 produces a `B_14`.
pub fn figure2_inputs() -> (Vec<Option<i64>>, Vec<Option<i64>>) {
    // Little-endian positions 0..=13 read off the paper's table.
    let h1 = vec![
        Some(5),
        Some(3),
        Some(10),
        None,
        None,
        Some(2),
        None,
        Some(12),
        Some(6),
        Some(7),
        Some(8),
        Some(4),
        None,
        Some(6),
        None,
    ];
    let h2 = vec![
        None,
        Some(4),
        None,
        Some(5),
        Some(7),
        None,
        Some(9),
        None,
        Some(13),
        Some(5),
        None,
        None,
        Some(3),
        None,
        None,
    ];
    (h1, h2)
}

/// Build the Figure 2 plan.
pub fn figure2_plan() -> UnionPlan {
    let (h1, h2) = figure2_inputs();
    let refs = |v: &[Option<i64>], base: u32| -> Vec<Option<RootRef>> {
        v.iter()
            .enumerate()
            .map(|(i, k)| {
                k.map(|key| RootRef {
                    key,
                    id: NodeId(base + i as u32),
                })
            })
            .collect()
    };
    build_plan_seq(&refs(&h1, 0), &refs(&h2, 100))
}

/// The values the paper's Figure 2 table reports for `I_valueA`, positions
/// 0..=13 (little-endian).
pub fn figure2_expected_iva() -> Vec<i64> {
    vec![5, 3, 3, 3, 3, 2, 2, 2, 6, 5, 5, 4, 3, 3]
}

/// Figure 2 rows: position, H1, H2, type, I_lim, I_valueB, I_valueA.
pub fn figure2_rows() -> (Vec<&'static str>, Vec<Vec<String>>) {
    let (h1, h2) = figure2_inputs();
    let plan = figure2_plan();
    let headers = vec![
        "Position", "H1", "H2", "Type", "I_lim", "I_valueB", "I_valueA",
    ];
    let show = |v: Option<i64>| v.map_or("-".to_string(), |k| k.to_string());
    let rows = (0..14)
        .rev()
        .map(|i| {
            vec![
                i.to_string(),
                show(h1[i]),
                show(h2[i]),
                type_str(plan.class[i]).to_string(),
                (plan.i_lim[i] as u8).to_string(),
                show(plan.i_value_b[i].map(|r| r.key)),
                show(plan.i_value_a[i].map(|r| r.key)),
            ]
        })
        .collect();
    (headers, rows)
}

// ====================================================================
// F3 — Figure 3: Take-Up before/after
// ====================================================================

/// A snapshot of the Figure 3 heap state: per interesting node, its key and
/// the derived `L`/`D` child views (as the keys of the children).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig3State {
    /// `(slot, child key)` pairs in `D_{p(x)}`.
    pub d_p: Vec<(usize, i64)>,
    /// `(slot, child key)` pairs in `L_{p(x)}`.
    pub l_p: Vec<(usize, i64)>,
    /// Children keys of `x` (its retained empty subtree).
    pub x_children: Vec<i64>,
    /// Children keys of `y` after the live unions.
    pub y_children: Vec<i64>,
}

/// Reproduce Figure 3: build the `B_3` of keys `0..8`, delete `z` (key 1)
/// and `s` (key 5) to reach the 3(a) state, then `Take-Up(x)` (key 4).
/// Returns the post-state, which the paper's 3(b) predicts exactly.
pub fn figure3() -> Fig3State {
    let mut h = LazyBinomialHeap::new(2);
    h.set_auto_arrange(false);
    let ids: Vec<NodeId> = (0..8).map(|k| h.insert(k)).collect();
    // Structure after sequential inserts: root 0 with children
    // slot0 = 1 (z), slot1 = 2 (y, child 3 = t), slot2 = 4 (x, children
    // slot0 = 5 (s), slot1 = 6 (w, child 7)).
    h.delete(ids[1]); // z
    h.delete(ids[5]); // s  → Figure 3(a)
    h.validate().expect("3(a) state valid");
    h.delete(ids[4]); // Take-Up(x) → Figure 3(b)
    h.validate().expect("3(b) state valid");

    let root = h.roots_snapshot()[3].expect("B_3 root");
    // A node's figure label is its insertion index, the key it was given:
    // an empty node's key is `-∞`.
    let label = |id: NodeId| ids.iter().position(|&i| i == id).expect("inserted node") as i64;
    let view = |v: Vec<Option<NodeId>>| -> Vec<(usize, i64)> {
        v.into_iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|id| (i, label(id))))
            .collect()
    };
    let d_p = view(h.dead_view(root));
    let l_p = view(h.live_view(root));
    let x = ids[4];
    let y = ids[2];
    let x_children: Vec<i64> = h.children_of(x).into_iter().map(label).collect();
    let y_children: Vec<i64> = h.children_of(y).into_iter().map(label).collect();
    Fig3State {
        d_p,
        l_p,
        x_children,
        y_children,
    }
}

// ====================================================================
// F4 — Figure 4: hypercube mapping of the 27-node heap
// ====================================================================

/// Build a size-`n` (b=1) b-binomial heap of complete trees.
pub fn unit_heap_of_size(n: usize) -> BbHeap {
    fn build(h: &mut BbHeap, order: usize, seed: &mut i64) -> dmpq::BbNodeId {
        if order == 0 {
            let id = h.alloc(vec![*seed]);
            *seed += 1;
            return id;
        }
        let a = build(h, order - 1, seed);
        let b = build(h, order - 1, seed);
        h.get_mut(a).children.push(b);
        h.get_mut(b).parent = Some(a);
        a
    }
    let mut h = BbHeap::new(1);
    let mut seed = 0i64;
    let mut roots = Vec::new();
    for i in 0..usize::BITS as usize {
        if n >> i & 1 == 1 {
            while roots.len() <= i {
                roots.push(None);
            }
            roots[i] = Some(build(&mut h, i, &mut seed));
        }
    }
    h.roots = roots;
    h
}

/// Figure 4 rows: for the 27-node heap on `Q_2` — per degree, the processor
/// and node count; plus the per-processor load.
pub fn figure4_rows() -> (Vec<&'static str>, Vec<Vec<String>>, Vec<usize>) {
    let h = unit_heap_of_size(27);
    let q = 2;
    let mut per_degree: std::collections::BTreeMap<usize, usize> = Default::default();
    for (_, deg, _) in assignment(&h, q) {
        *per_degree.entry(deg).or_default() += 1;
    }
    let headers = vec!["degree", "processor Π(d mod 4)", "nodes"];
    let rows = per_degree
        .iter()
        .map(|(deg, count)| {
            vec![
                deg.to_string(),
                processor_of_degree(*deg, q).to_string(),
                count.to_string(),
            ]
        })
        .collect();
    (headers, rows, load_per_processor(&h, q))
}

// ====================================================================
// T1 — Theorem 1: EREW Union scaling
// ====================================================================

/// One measurement of the PRAM Union.
#[derive(Debug, Clone)]
pub struct T1Row {
    /// Heap sizes (both sides `2^bits - 1`: worst-case carry chains).
    pub n: usize,
    /// Processors.
    pub p: usize,
    /// Measured PRAM time of the Union plan.
    pub time: u64,
    /// Measured PRAM work.
    pub work: u64,
    /// Sequential baseline: the ripple-carry dependent-link chain length
    /// (`Θ(log n)` — the best sequential union walks every position).
    pub seq_steps: u64,
}

/// Measure the Union at `n = 2^bits - 1` for each processor count.
pub fn theorem1(bits_list: &[usize], ps: &[usize]) -> Vec<T1Row> {
    let mut rng = workloads::rng(0x71);
    let mut out = Vec::new();
    for &bits in bits_list {
        let n = (1usize << bits) - 1;
        let width = plan_width(n, n);
        let mk = |base: u32, rng: &mut rand::rngs::StdRng| -> Vec<Option<RootRef>> {
            use rand::Rng;
            (0..width)
                .map(|i| {
                    (n >> i & 1 == 1).then(|| RootRef {
                        key: rng.gen_range(-1_000_000..1_000_000),
                        id: NodeId(base + i as u32),
                    })
                })
                .collect()
        };
        let h1 = mk(0, &mut rng);
        let h2 = mk(1000, &mut rng);
        for &p in ps {
            let outcome = build_plan_pram(&h1, &h2, p).expect("EREW-legal");
            out.push(T1Row {
                n,
                p,
                time: outcome.cost.time,
                work: outcome.cost.work,
                seq_steps: width as u64,
            });
        }
    }
    out
}

/// Measured costs of all three Theorem 1 operations at `p*`.
#[derive(Debug, Clone)]
pub struct T1OpsRow {
    /// Heap size.
    pub n: usize,
    /// Processors.
    pub p: usize,
    /// `Insert` (singleton Union) time.
    pub insert_time: u64,
    /// `Extract-Min` (reduction + children Union) time.
    pub extract_time: u64,
    /// `Union` with an equal-size heap, time.
    pub union_time: u64,
}

/// Measure Insert/Extract-Min/Union on a random heap of `2^bits - 1` keys.
pub fn theorem1_ops(bits_list: &[usize]) -> Vec<T1OpsRow> {
    let mut rng = workloads::rng(0x10_05);
    bits_list
        .iter()
        .map(|&bits| {
            let n = (1usize << bits) - 1;
            let p = theorem_p(n);
            // n = 2^k - 1: all tree orders present (the busiest root array).
            let mut h = workloads::random_heap(&mut rng, n);
            let before = h.pram_ledger().time;
            let got = h.extract_min_pram(p);
            assert!(got.is_some());
            let extract_time = h.pram_ledger().time - before;
            // Insert into the (n-2^j)-shaped heap left behind.
            let before = h.pram_ledger().time;
            h.insert_pram(0, p);
            let insert_time = h.pram_ledger().time - before;
            // Union of two fresh all-ones heaps (maximal carry chains).
            let union_time = {
                let mut a = workloads::random_heap(&mut rng, n);
                let before = a.pram_ledger().time;
                a.meld_pram(workloads::random_heap(&mut rng, n), p);
                a.pram_ledger().time - before
            };
            T1OpsRow {
                n,
                p,
                insert_time,
                extract_time,
                union_time,
            }
        })
        .collect()
}

/// Measured `Make-Queue` (parallel initialization) costs.
#[derive(Debug, Clone)]
pub struct MakeQueueRow {
    /// Keys.
    pub n: usize,
    /// Processors.
    pub p: usize,
    /// Measured PRAM time.
    pub time: u64,
    /// Measured PRAM work (= links performed).
    pub work: u64,
}

/// Measure the parallel `Make-Queue` across sizes and processor counts.
pub fn make_queue(ns: &[usize], ps: &[usize]) -> Vec<MakeQueueRow> {
    let mut rng = workloads::rng(0x3A4E);
    let mut out = Vec::new();
    for &n in ns {
        let keys = workloads::random_keys(&mut rng, n);
        for &p in ps {
            let (h, cost) =
                meldpq::ParBinomialHeap::from_keys_pram(&keys, p).expect("EREW-legal build");
            assert_eq!(h.len(), n);
            out.push(MakeQueueRow {
                n,
                p,
                time: cost.time,
                work: cost.work,
            });
        }
    }
    out
}

// ====================================================================
// T2 — Theorem 2: amortized Delete
// ====================================================================

/// One measurement of a Delete batch.
#[derive(Debug, Clone)]
pub struct T2Row {
    /// Live keys at the start.
    pub n: usize,
    /// Processors (`⌈log n / log log n⌉`).
    pub p: usize,
    /// Deletions performed (one arrange threshold's worth).
    pub deletes: usize,
    /// Total Take-Up cost over the batch.
    pub take_up: Cost,
    /// Arrange-Heap cost (fires once at the end of the batch).
    pub arrange: Cost,
    /// Amortized time per Delete.
    pub amortized_time: f64,
    /// Amortized work per Delete.
    pub amortized_work: f64,
    /// Eager-deletion baseline: total cost for the same victims.
    pub eager: Cost,
}

/// Delete exactly one threshold batch of random internal nodes from a heap
/// of `n` keys and decompose the measured costs.
pub fn theorem2(ns: &[usize]) -> Vec<T2Row> {
    use rand::Rng;
    let mut rng = workloads::rng(0xBEEF);
    let mut out = Vec::new();
    for &n in ns {
        let p = theorem_p(n);
        // Setup is unmetered (from_keys_fast); only the delete batch below
        // is measured.
        let keys: Vec<i64> = (0..n as i64).collect();
        let mut lazy = LazyBinomialHeap::from_keys_fast(p, keys.iter().copied());
        let mut eager = LazyBinomialHeap::from_keys_fast(p, keys.iter().copied());
        let lazy_ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let eager_ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let batch = lazy.arrange_threshold();
        // Pick internal victims (non-roots) valid in BOTH heaps; the two
        // heaps are built identically so handles coincide structurally.
        let mut victims: Vec<usize> = Vec::new();
        let mut tries = 0;
        while victims.len() < batch && tries < 100 * batch {
            tries += 1;
            let i = rng.gen_range(0..n);
            if victims.contains(&i) {
                continue;
            }
            if lazy.parent_of(lazy_ids[i]).is_some() && eager.parent_of(eager_ids[i]).is_some() {
                victims.push(i);
            }
        }
        lazy.reset_cost_log();
        eager.reset_cost_log();
        for &i in &victims {
            lazy.delete(lazy_ids[i]);
        }
        for &i in &victims {
            eager.delete_eager(eager_ids[i]);
        }
        let sum_of = |h: &LazyBinomialHeap, kind: OpKind| -> Cost {
            h.cost_log()
                .iter()
                .filter(|(k, _)| *k == kind)
                .fold(Cost::ZERO, |acc, (_, c)| acc + *c)
        };
        let take_up = sum_of(&lazy, OpKind::TakeUp);
        let arrange = sum_of(&lazy, OpKind::ArrangeHeap);
        let eager_cost = sum_of(&eager, OpKind::EagerDelete) + sum_of(&eager, OpKind::ExtractMin);
        let d = victims.len().max(1) as f64;
        out.push(T2Row {
            n,
            p,
            deletes: victims.len(),
            take_up,
            arrange,
            amortized_time: (take_up.time + arrange.time) as f64 / d,
            amortized_work: (take_up.work + arrange.work) as f64 / d,
            eager: eager_cost,
        });
    }
    out
}

// ====================================================================
// T3 — Theorem 3: hypercube b-Union / amortized buffered ops
// ====================================================================

/// One measurement of the distributed queue at a bandwidth.
#[derive(Debug, Clone)]
pub struct T3Row {
    /// Cube dimension.
    pub q: usize,
    /// Bandwidth.
    pub b: usize,
    /// Items pushed through the queue.
    pub ops: usize,
    /// Total communication time over all multi-operations.
    pub total_time: u64,
    /// Total words moved.
    pub words: u64,
    /// Amortized communication time per single `Insert`/`Extract-Min`.
    pub amortized_time: f64,
    /// Mean time of one `b-Union`-backed multi-operation.
    pub per_multiop_time: f64,
}

/// Drive `n_ops` inserts followed by `n_ops` extracts at each bandwidth —
/// the A4 sweep and the Theorem 3 evidence.
pub fn theorem3(q: usize, bs: &[usize], n_ops: usize) -> Vec<T3Row> {
    use hypercube::NetStats;
    use rand::Rng;
    let mut out = Vec::new();
    for &b in bs {
        let mut rng = workloads::rng(0x7_3 + b as u64);
        let mut pq = DistributedPq::new(q, b);
        for _ in 0..n_ops {
            pq.insert(rng.gen_range(-1_000_000..1_000_000))
                .expect("fault-free net");
        }
        let mut drained = 0usize;
        while pq.extract_min().expect("fault-free net").is_some() {
            drained += 1;
        }
        assert_eq!(drained, n_ops);
        let ledger = pq.ledger();
        let totals = ledger
            .iter()
            .fold(NetStats::default(), |acc, (_, s)| acc.merge(s));
        let (total_time, words) = (totals.time, totals.word_hops);
        let multis = ledger.len().max(1) as f64;
        out.push(T3Row {
            q,
            b,
            ops: 2 * n_ops,
            total_time,
            words,
            amortized_time: total_time as f64 / (2 * n_ops) as f64,
            per_multiop_time: total_time as f64 / multis,
        });
    }
    out
}

// ====================================================================
// A1 — ablation: carry-chain union vs ripple-carry union
// ====================================================================

/// Dependent-step comparison on the all-ones worst case.
#[derive(Debug, Clone)]
pub struct A1Row {
    /// Heap size (`2^bits - 1`).
    pub n: usize,
    /// Ripple-carry dependent link chain (sequential union's critical path).
    pub ripple_chain: u64,
    /// PRAM time with `p = ⌈log n / log log n⌉` processors.
    pub pram_time: u64,
    /// PRAM time with 1 processor (sanity: ≈ total work).
    pub pram_time_p1: u64,
}

/// Measure A1 across sizes.
pub fn ablation_a1(bits_list: &[usize]) -> Vec<A1Row> {
    bits_list
        .iter()
        .map(|&bits| {
            let n = (1usize << bits) - 1;
            let p = theorem_p(n);
            let rows = theorem1(&[bits], &[1, p]);
            A1Row {
                n,
                ripple_chain: rows[0].seq_steps,
                pram_time: rows[1].time,
                pram_time_p1: rows[0].time,
            }
        })
        .collect()
}

// ====================================================================
// A3 — ablation: Gray-code mapping vs identity mapping
// ====================================================================

/// Link-hop comparison for degree promotions (`Property 3`).
#[derive(Debug, Clone)]
pub struct A3Row {
    /// Cube dimension.
    pub q: usize,
    /// Total hop distance for promotions `i → i+1`, `i = 0..L`, under the
    /// Gray-code mapping (always 1 per promotion).
    pub gray_hops: u64,
    /// Same under the naive identity mapping `deg mod 2^q` (no Gray code).
    pub identity_hops: u64,
}

/// Sum the promotion distances over `levels` consecutive degrees.
pub fn ablation_a3(qs: &[usize], levels: usize) -> Vec<A3Row> {
    use hypercube::gray::{gray, hamming};
    qs.iter()
        .map(|&q| {
            let p = 1usize << q;
            let mut gray_hops = 0u64;
            let mut identity_hops = 0u64;
            for i in 0..levels {
                gray_hops += hamming(gray(i % p), gray((i + 1) % p)) as u64;
                identity_hops += hamming(i % p, (i + 1) % p) as u64;
            }
            A3Row {
                q,
                gray_hops,
                identity_hops,
            }
        })
        .collect()
}

// ====================================================================
// A3 (measured): full queue workload under Gray vs Identity mapping
// ====================================================================

/// End-to-end communication comparison of the two mappings.
#[derive(Debug, Clone)]
pub struct A3MeasuredRow {
    /// Cube dimension.
    pub q: usize,
    /// Bandwidth.
    pub b: usize,
    /// Network time under the paper's Gray mapping.
    pub gray_time: u64,
    /// Word·hops under Gray.
    pub gray_words: u64,
    /// Network time under the identity mapping.
    pub identity_time: u64,
    /// Word·hops under identity.
    pub identity_words: u64,
}

/// Run the same insert/extract workload under both mappings and compare the
/// measured network cost (the end-to-end version of [`ablation_a3`]).
pub fn ablation_a3_measured(q: usize, b: usize, n_ops: usize) -> A3MeasuredRow {
    use dmpq::mapping::MappingKind;
    use rand::Rng;
    let run = |kind: MappingKind| -> (u64, u64) {
        let mut rng = workloads::rng(0xA3);
        let mut pq = DistributedPq::with_mapping(q, b, kind);
        for _ in 0..n_ops {
            pq.insert(rng.gen_range(-1_000_000..1_000_000))
                .expect("fault-free net");
        }
        while pq.extract_min().expect("fault-free net").is_some() {}
        let s = pq.net_stats();
        (s.time, s.word_hops)
    };
    let (gray_time, gray_words) = run(MappingKind::Gray);
    let (identity_time, identity_words) = run(MappingKind::Identity);
    A3MeasuredRow {
        q,
        b,
        gray_time,
        gray_words,
        identity_time,
        identity_words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `q = 2` at 80 ops is where Gray starts to win at `b = 8`: below it
    /// (40–79 ops) identity moves fewer words (EXPERIMENTS.md A3).
    #[test]
    fn a3_measured_gray_moves_fewer_words() {
        for (q, b, n_ops) in [(2, 8, 80), (3, 8, 128)] {
            let r = ablation_a3_measured(q, b, n_ops);
            assert!(
                r.identity_words > r.gray_words,
                "q = {q}, {n_ops} ops: identity mapping must move more words: {} !> {}",
                r.identity_words,
                r.gray_words
            );
        }
    }

    #[test]
    fn figure2_iva_matches_paper() {
        let plan = figure2_plan();
        let got: Vec<i64> = (0..14).map(|i| plan.i_value_a[i].unwrap().key).collect();
        assert_eq!(got, figure2_expected_iva());
        // The overflow position: the chain ending at 13 yields B_14.
        assert!(plan.s[14]);
        assert_eq!(plan.class[13], PointType::End);
    }

    #[test]
    fn figure2_types_match_paper() {
        let plan = figure2_plan();
        use PointType::*;
        let expect = [
            Independent,
            Start,
            Internal,
            Internal,
            Internal,
            Internal,
            Internal,
            End,
            Independent,
            Start,
            Internal,
            Internal,
            Internal,
            End,
        ];
        assert_eq!(&plan.class[..14], &expect);
    }

    #[test]
    fn figure3_matches_paper() {
        let st = figure3();
        // D_{p(x)}: z (key 1) at slot 0, x (key 4) at slot 1.
        assert_eq!(st.d_p, vec![(0, 1), (1, 4)]);
        // L_{p(x)}: y (key 2) at slot 2.
        assert_eq!(st.l_p, vec![(2, 2)]);
        // x retains s (key 5) as its empty child.
        assert_eq!(st.x_children, vec![5]);
        // y gains w: children t (key 3) and w (key 6).
        assert_eq!(st.y_children, vec![3, 6]);
    }

    #[test]
    fn figure4_loads() {
        let (_, rows, load) = figure4_rows();
        assert!(!rows.is_empty());
        // 27 nodes total.
        assert_eq!(load.iter().sum::<usize>(), 27);
        // Degree-0 nodes dominate processor Π(0) = 0 (and Π(0) also hosts
        // the B_4 root, degree 4 ≡ 0 mod 4).
        assert!(load[0] > load[1]);
    }

    #[test]
    fn t1_time_shrinks_with_p() {
        let rows = theorem1(&[16], &[1, 2, 4, 8]);
        for w in rows.windows(2) {
            assert!(w[1].time <= w[0].time);
        }
        // Work never explodes past a constant of the p=1 time.
        assert!(rows[3].work <= 2 * rows[0].time);
    }

    #[test]
    fn make_queue_scales() {
        let rows = make_queue(&[1024], &[1, 4]);
        assert_eq!(rows[0].work, rows[1].work);
        assert!(rows[1].time < rows[0].time / 2);
    }

    #[test]
    fn t2_amortized_below_arrange_total() {
        let rows = theorem2(&[1 << 10]);
        let r = &rows[0];
        assert!(r.deletes >= 1);
        assert!(r.amortized_time > 0.0);
        assert!(r.amortized_time < (r.take_up.time + r.arrange.time) as f64);
    }

    #[test]
    fn t3_amortized_falls_with_bandwidth() {
        let rows = theorem3(2, &[2, 16], 64);
        assert!(rows[1].amortized_time < rows[0].amortized_time);
    }

    #[test]
    fn a3_gray_always_one_hop() {
        let rows = ablation_a3(&[2, 3, 4], 64);
        for r in &rows {
            assert_eq!(r.gray_hops, 64);
            assert!(r.identity_hops > r.gray_hops);
        }
    }
}
