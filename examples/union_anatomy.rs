//! Anatomy of one `Union`: prints the Phase I–III decision tables (the
//! Figure 1/2 format) for any pair of heap sizes.
//!
//! ```text
//! cargo run --example union_anatomy -- 106 39    # the Figure 1 sizes
//! cargo run --example union_anatomy -- 12345 999
//! ```

use meldpq::plan::{build_plan_seq, plan_width, PointType};
use meldpq::ParBinomialHeap;

fn type_str(t: PointType) -> &'static str {
    match t {
        PointType::Start => "str",
        PointType::Internal => "int",
        PointType::End => "end",
        PointType::Independent => "ind",
    }
}

fn main() {
    let mut args: Vec<usize> = Vec::new();
    for a in std::env::args().skip(1) {
        if a.starts_with('-') {
            continue; // flags (e.g. --dot) handled below
        }
        match a.parse() {
            Ok(v) => args.push(v),
            Err(_) => {
                eprintln!("error: expected an integer heap size, got {a:?}");
                eprintln!("usage: union_anatomy [N1 N2] [--dot]");
                std::process::exit(2);
            }
        }
    }
    let (n1, n2) = match args.as_slice() {
        [a, b] => (*a, *b),
        _ => (106, 39), // Figure 1's sizes
    };

    let h1 = ParBinomialHeap::from_keys((0..n1 as i64).map(|k| k * 7 % 101));
    let h2 = ParBinomialHeap::from_keys((0..n2 as i64).map(|k| 50 + k * 13 % 97));
    let width = plan_width(n1, n2);
    // The two heaps come from separate arenas, so offset H2's ids to keep
    // them distinct (melding for real does this by absorbing the arena).
    let r1 = h1.root_refs(width);
    let mut r2 = h2.root_refs(width);
    for r in r2.iter_mut().flatten() {
        r.id = meldpq::NodeId(r.id.0 + 1_000_000);
    }
    let plan = build_plan_seq(&r1, &r2);

    println!(
        "Union of |H1| = {n1} and |H2| = {n2}  (result: {} keys)\n",
        n1 + n2
    );
    println!("pos | a b | g p c s | type | I_lim | I_valueB -> I_valueA");
    println!("----+-----+---------+------+-------+---------------------");
    for i in (0..plan.width).rev() {
        let show = |r: Option<meldpq::RootRef>| r.map_or("  -".into(), |x| format!("{:>3}", x.key));
        println!(
            "{:>3} | {} {} | {} {} {} {} | {}  |   {}   | {} -> {}",
            i,
            plan.a[i] as u8,
            plan.b[i] as u8,
            plan.g[i] as u8,
            plan.p[i] as u8,
            plan.c[i] as u8,
            plan.s[i] as u8,
            type_str(plan.class[i]),
            plan.i_lim[i] as u8,
            show(plan.i_value_b[i]),
            show(plan.i_value_a[i]),
        );
    }
    println!("\nPhase III emits {} links:", plan.links.len());
    for l in &plan.links {
        println!(
            "  node {:?} becomes child {} of node {:?}",
            l.child, l.slot, l.parent
        );
    }
    let roots: Vec<usize> = plan
        .new_roots
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.map(|_| i))
        .collect();
    println!("\nresult root orders {roots:?} = set bits of {}", n1 + n2);

    // Execute it for real and validate.
    let mut a = h1;
    a.meld(h2);
    a.validate().expect("valid result");
    println!("meld executed and validated ✓ (min = {:?})", a.min());

    if std::env::args().any(|x| x == "--dot") {
        println!(
            "
// Graphviz of the melded heap (pipe into `dot -Tsvg`):"
        );
        println!("{}", meldpq::viz::par_heap_dot(&a));
    }
}
