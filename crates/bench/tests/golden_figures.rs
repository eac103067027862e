//! Golden-output tests: the *rendered* figure tables are pinned verbatim so
//! the paper reproduction cannot drift silently (value tests live next to
//! the experiments; these catch formatting/indexing regressions too).
//! The simulators' Theorem 2 and 3 ledgers are pinned too: the envelope
//! tests in `tests/theorem_shapes.rs` fit their constant on the code they
//! run, so only these exact integers see a constant-factor change.

use bench::experiments::{figure1_rows, figure2_rows, figure4_rows, theorem2, theorem3};
use bench::table::render;

#[test]
fn figure1_renders_exactly() {
    let (h, rows) = figure1_rows();
    let expected = "\
Position  a_i  b_i  g_i  p_i  c_i  s_i  Type
--------------------------------------------
       7    0    0    0    0    0    1   ind
       6    1    0    0    1    1    0   end
       5    1    1    1    0    1    0   str
       4    0    0    0    0    0    1   ind
       3    1    0    0    1    1    0   end
       2    0    1    0    1    1    0   int
       1    1    1    1    0    1    0   str
       0    0    1    0    1    0    1   ind
";
    assert_eq!(render(&h, &rows), expected);
}

#[test]
fn figure2_renders_exactly() {
    let (h, rows) = figure2_rows();
    let expected = "\
Position  H1  H2  Type  I_lim  I_valueB  I_valueA
-------------------------------------------------
      13   6   -   end      0         6         3
      12   -   3   int      0         3         3
      11   4   -   int      0         4         4
      10   8   -   int      0         8         5
       9   7   5   str      1         5         5
       8   6  13   ind      1         6         6
       7  12   -   end      0        12         2
       6   -   9   int      0         9         2
       5   2   -   int      0         2         2
       4   -   7   int      0         7         3
       3   -   5   int      0         5         3
       2  10   -   int      0        10         3
       1   3   4   str      1         3         3
       0   5   -   ind      1         5         5
";
    assert_eq!(render(&h, &rows), expected);
}

#[test]
fn figure4_loads_render_exactly() {
    let (_, rows, load) = figure4_rows();
    // Degree → (processor, count) for the 27-node heap on Q_2.
    let flat: Vec<(String, String, String)> = rows
        .into_iter()
        .map(|r| (r[0].clone(), r[1].clone(), r[2].clone()))
        .collect();
    // 27 = B_0 + B_1 + B_3 + B_4; each B_k holds 2^{k-j-1} nodes of degree
    // j plus its root of degree k: deg0 = 1+1+4+8, deg1 = 1+2+4, deg2 = 1+2,
    // deg3 = 1+1, deg4 = 1.
    assert_eq!(
        flat,
        vec![
            ("0".into(), "0".into(), "14".into()),
            ("1".into(), "1".into(), "7".into()),
            ("2".into(), "3".into(), "3".into()),
            ("3".into(), "2".into(), "2".into()),
            ("4".into(), "0".into(), "1".into()),
        ]
    );
    // Processor loads: Π(0)=0 hosts deg 0 and 4; Π(1)=1 deg 1; Π(2)=3 deg 2;
    // Π(3)=2 deg 3.
    assert_eq!(load, vec![15, 7, 2, 3]);
}

/// One small `theorem2` call, every integer of its rows. The rows share
/// one RNG across the size list, so the call is pinned exactly as made.
#[test]
fn theorem2_ledger_is_pinned() {
    let got: Vec<_> = theorem2(&[1 << 8, 1 << 11])
        .iter()
        .map(|r| {
            (
                r.n,
                r.p,
                r.deletes,
                (r.take_up.time, r.take_up.work),
                (r.arrange.time, r.arrange.work),
                (r.eager.time, r.eager.work),
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            (256, 2, 2, (47, 80), (88, 157), (74, 131)),
            (2048, 3, 3, (69, 111), (101, 234), (171, 397)),
        ]
    );
}

/// One small `theorem3` call: net time and word·hops per bandwidth.
#[test]
fn theorem3_ledger_is_pinned() {
    let got: Vec<_> = theorem3(2, &[1, 4], 64)
        .iter()
        .map(|r| (r.q, r.b, r.ops, r.total_time, r.words))
        .collect();
    assert_eq!(got, vec![(2, 1, 128, 4443, 12758), (2, 4, 128, 1285, 2926)]);
}
