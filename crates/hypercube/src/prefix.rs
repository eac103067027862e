//! The Hamiltonian prefix (paper §5, citing Das–Pinotti–Sarkar).
//!
//! A prefix computation over values laid out in *path-rank order*
//! (`values[r]` lives on node `Π(r) = gray(r)`), in exactly `q` exchange
//! rounds. It works because flipping node bit `d` flips rank bits `0..=d`
//! (see [`mod@crate::gray`]): a node's dimension-`d` neighbour is always in the
//! sibling half of its `2^{d+1}`-aligned rank group, so group totals can be
//! combined dimension by dimension — non-commutative operators included.
//!
//! [`hamiltonian_prefix_cyclic`] extends this to the paper's cyclic layout
//! of the heap's root array (`H[i]` on `Π(i mod 2^q)`): one `q`-round sweep
//! per row of `2^q` positions plus free local carry composition, i.e.
//! `O((m/2^q)·q)` time — `O(m/2^q + q)` in the `2^q = O(log n)` regime the
//! paper operates in.

use crate::engine::{NetError, NetSim, Word};
use crate::gray::{gray, gray_inv};

/// Element values are fixed-arity word tuples (e.g. `[flag, key, ptr]`).
pub type Tuple = Vec<Word>;

/// Inclusive prefix in path-rank order: `values[r]` sits on node `gray(r)`;
/// returns `out[r] = values[0] ⊕ … ⊕ values[r]`. Runs `q` exchange rounds.
pub fn hamiltonian_prefix<Op>(
    net: &mut NetSim,
    values: &[Tuple],
    op: Op,
) -> Result<Vec<Tuple>, NetError>
where
    Op: Fn(&[Word], &[Word]) -> Tuple,
{
    let _sp = obs::span("hc/prefix");
    let p = net.nodes();
    assert_eq!(values.len(), p, "one value per node (pad with identity)");
    // Node-indexed state: (prefix, total).
    let mut pre: Vec<Tuple> = (0..p).map(|node| values[gray_inv(node)].clone()).collect();
    let mut tot = pre.clone();
    for d in 0..net.q() {
        // Every node swaps its running group total with its dim-d partner.
        let payloads: Vec<Option<Tuple>> = tot.iter().cloned().map(Some).collect();
        let inbox = net.exchange(d, payloads)?;
        for node in 0..p {
            let (_, other_tot) = inbox[node]
                .as_ref()
                .expect("a full exchange delivers to every node");
            let r = gray_inv(node);
            if (r >> d) & 1 == 1 {
                // Partner's half precedes mine in rank order.
                pre[node] = op(other_tot, &pre[node]);
                tot[node] = op(other_tot, &tot[node]);
            } else {
                tot[node] = op(&tot[node], other_tot);
            }
        }
    }
    Ok((0..p).map(|r| pre[gray(r)].clone()).collect())
}

/// Inclusive prefix over `m` elements in the paper's cyclic layout
/// (`element[i]` on node `Π(i mod 2^q)`): row-by-row Hamiltonian prefixes
/// with locally composed carries. `identity` pads ragged rows.
pub fn hamiltonian_prefix_cyclic<Op>(
    net: &mut NetSim,
    elements: &[Tuple],
    identity: &[Word],
    op: Op,
) -> Result<Vec<Tuple>, NetError>
where
    Op: Fn(&[Word], &[Word]) -> Tuple,
{
    let _sp = obs::span("hc/prefix");
    let p = net.nodes();
    let m = elements.len();
    let mut out: Vec<Tuple> = Vec::with_capacity(m);
    let mut carry: Tuple = identity.to_vec();
    let mut row = 0usize;
    while row * p < m {
        let base = row * p;
        let row_vals: Vec<Tuple> = (0..p)
            .map(|r| {
                elements
                    .get(base + r)
                    .cloned()
                    .unwrap_or_else(|| identity.to_vec())
            })
            .collect();
        let pre = hamiltonian_prefix(net, &row_vals, &op)?;
        let row_len = (m - base).min(p);
        for t in pre.iter().take(row_len) {
            out.push(op(&carry, t));
        }
        carry = op(&carry, &pre[p - 1]);
        row += 1;
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn add(a: &[Word], b: &[Word]) -> Tuple {
        vec![a[0] + b[0]]
    }

    /// "Right wins unless identity" — deliberately non-commutative.
    fn last_nonzero(a: &[Word], b: &[Word]) -> Tuple {
        if b[0] == 0 {
            a.to_vec()
        } else {
            b.to_vec()
        }
    }

    #[test]
    fn prefix_sum_matches_oracle_all_q() {
        for q in 0..=6usize {
            let p = 1 << q;
            let mut net = NetSim::new(q);
            let values: Vec<Tuple> = (0..p).map(|i| vec![(i * i % 13) as Word]).collect();
            let got = hamiltonian_prefix(&mut net, &values, add).unwrap();
            let mut acc = 0;
            for (r, t) in got.iter().enumerate() {
                acc += values[r][0];
                assert_eq!(t[0], acc, "q={q} r={r}");
            }
            assert_eq!(net.stats().rounds, q as u64);
        }
    }

    #[test]
    fn noncommutative_prefix_respects_rank_order() {
        for q in 1..=6usize {
            let p = 1 << q;
            let mut net = NetSim::new(q);
            let values: Vec<Tuple> = (0..p)
                .map(|i| vec![if i % 3 == 0 { (i + 1) as Word } else { 0 }])
                .collect();
            let got = hamiltonian_prefix(&mut net, &values, last_nonzero).unwrap();
            let mut acc = vec![0 as Word];
            for (r, t) in got.iter().enumerate() {
                acc = last_nonzero(&acc, &values[r]);
                assert_eq!(t, &acc, "q={q} r={r}");
            }
        }
    }

    #[test]
    fn cyclic_prefix_over_many_rows() {
        let q = 3usize;
        let mut net = NetSim::new(q);
        let m = 29; // ragged: 3 full rows + 5
        let elements: Vec<Tuple> = (0..m).map(|i| vec![(i % 7) as Word + 1]).collect();
        let got = hamiltonian_prefix_cyclic(&mut net, &elements, &[0], add).unwrap();
        let mut acc = 0;
        for (i, t) in got.iter().enumerate() {
            acc += elements[i][0];
            assert_eq!(t[0], acc, "i={i}");
        }
        // 4 rows × q rounds.
        assert_eq!(net.stats().rounds, 4 * q as u64);
    }

    #[test]
    fn tuple_payloads_flow_through() {
        // Segmented-min style tuples (flag, value).
        let segmin = |a: &[Word], b: &[Word]| -> Tuple {
            if b[0] != 0 {
                b.to_vec()
            } else {
                vec![a[0], a[1].min(b[1])]
            }
        };
        let q = 2usize;
        let mut net = NetSim::new(q);
        let values = vec![vec![1, 9], vec![0, 4], vec![1, 7], vec![0, 5]];
        let got = hamiltonian_prefix(&mut net, &values, segmin).unwrap();
        assert_eq!(
            got.iter().map(|t| t[1]).collect::<Vec<_>>(),
            vec![9, 4, 7, 5]
        );
    }

    #[test]
    fn q0_trivial() {
        let mut net = NetSim::new(0);
        let got = hamiltonian_prefix(&mut net, &[vec![42]], add).unwrap();
        assert_eq!(got, vec![vec![42]]);
    }
}
