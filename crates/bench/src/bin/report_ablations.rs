//! Ablations A1–A3 (DESIGN.md §4).
//!
//! ```text
//! cargo run --release -p bench --bin report_ablations
//! ```

use bench::experiments::{ablation_a1, ablation_a3, ablation_a3_measured, theorem2};
use bench::row;
use bench::table::render;

fn main() {
    if bench::json::json_mode() {
        use bench::json::{a1_json, a3_json, a3_measured_json, t2_json, J};
        let measured: Vec<J> = [(2usize, 8usize), (3, 8), (4, 16)]
            .iter()
            .map(|&(q, b)| a3_measured_json(&ablation_a3_measured(q, b, 256)))
            .collect();
        println!(
            "{}",
            J::obj([
                ("a1", a1_json(&ablation_a1(&[8, 12, 16, 20, 24]))),
                (
                    "a2",
                    t2_json(&theorem2(&[1 << 12, 1 << 16, 1 << 20, 1 << 24]))
                ),
                ("a3_hops", a3_json(&ablation_a3(&[2, 3, 4, 5, 6], 256))),
                ("a3_measured", J::Arr(measured)),
            ])
        );
        return;
    }
    println!("== A1: carry-chain Union vs ripple-carry Union ==\n");
    let rows = ablation_a1(&[8, 12, 16, 20, 24]);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            row![
                r.n,
                r.ripple_chain,
                r.pram_time,
                r.pram_time_p1,
                format!("{:.2}", r.ripple_chain as f64 / r.pram_time as f64)
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "n",
                "ripple_chain",
                "pram_time(p*)",
                "pram_time(p=1)",
                "depth_ratio"
            ],
            &table
        )
    );
    println!("The ripple chain grows as log n; the planned union's parallel time");
    println!("grows as log log n — the depth_ratio widens with n.\n");

    println!("== A2: lazy Delete (Take-Up + Arrange) vs eager Delete ==\n");
    let rows = theorem2(&[1 << 12, 1 << 16, 1 << 20, 1 << 24]);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let lazy_total = r.take_up.time + r.arrange.time;
            row![
                r.n,
                r.deletes,
                lazy_total,
                r.eager.time,
                format!("{:.2}", r.eager.time as f64 / lazy_total.max(1) as f64)
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "n",
                "deletes",
                "lazy_total_t",
                "eager_total_t",
                "eager/lazy"
            ],
            &table
        )
    );
    println!();

    println!("== A3: Gray-code mapping vs identity mapping (Property 3) ==\n");
    let rows = ablation_a3(&[2, 3, 4, 5, 6], 256);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            row![
                r.q,
                r.gray_hops,
                r.identity_hops,
                format!("{:.2}", r.identity_hops as f64 / r.gray_hops as f64)
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &["q", "gray_hops (256 promotions)", "identity_hops", "ratio"],
            &table
        )
    );
    println!("Gray-code mapping makes every degree promotion a single-hop move");
    println!("(Property 3); the naive mapping pays up to q hops at binary-carry");
    println!("boundaries.\n");

    println!("== A3 (measured): full queue workload, Gray vs identity mapping ==\n");
    let rows: Vec<Vec<String>> = [(2usize, 8usize), (3, 8), (4, 16)]
        .iter()
        .map(|&(q, b)| {
            let r = ablation_a3_measured(q, b, 256);
            row![
                r.q,
                r.b,
                r.gray_time,
                r.identity_time,
                r.gray_words,
                r.identity_words,
                format!("{:.2}", r.identity_words as f64 / r.gray_words as f64)
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "q",
                "b",
                "gray_t",
                "ident_t",
                "gray_words",
                "ident_words",
                "word_ratio"
            ],
            &rows
        )
    );
}
