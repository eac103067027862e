//! Collective operations on the single-port cube: binomial-tree broadcast
//! and reduction, dimension-exchange all-reduce, and gather.
//!
//! These are the textbook `O(q)`-round hypercube collectives (Leighton,
//! ch. 3 — the paper's reference \[7]); the queue algorithms use the prefix
//! variant, but a complete hypercube substrate ships the full set, and the
//! tests double as single-port legality proofs for the classic schedules.

use crate::engine::{NetError, NetSim, Send, Word};
use crate::routing::{route, Packet};

/// Binomial-tree broadcast from `root`: after `q` rounds every node holds
/// `payload`. Returns the per-node copies.
pub fn broadcast(
    net: &mut NetSim,
    root: usize,
    payload: Vec<Word>,
) -> Result<Vec<Vec<Word>>, NetError> {
    let n = net.nodes();
    if root >= n {
        return Err(NetError::BadNode {
            node: root,
            size: n,
        });
    }
    let mut have: Vec<Option<Vec<Word>>> = vec![None; n];
    have[root] = Some(payload);
    for d in 0..net.q() {
        let sends: Vec<Send> = (0..n)
            .filter_map(|node| {
                // Nodes whose relative label fits in d bits already hold the
                // payload; they fan out across dimension d.
                if (node ^ root) >= (1 << d).max(1) {
                    return None;
                }
                have[node].as_ref().map(|p| Send {
                    from: node,
                    to: node ^ (1 << d),
                    payload: p.clone(),
                })
            })
            .collect();
        let inbox = net.round(sends)?;
        for (node, got) in inbox.into_iter().enumerate() {
            if let Some((_, p)) = got {
                debug_assert!(have[node].is_none());
                have[node] = Some(p);
            }
        }
    }
    // After q rounds every relative label has been reached.
    Ok(have
        .into_iter()
        .map(|p| p.expect("broadcast reaches every node"))
        .collect())
}

/// Binomial-tree reduction to `root`: combines all nodes' values with `op`
/// in `q` rounds; the result lands at `root` (left operand = lower relative
/// label, so non-commutative operators see a fixed order).
pub fn reduce(
    net: &mut NetSim,
    root: usize,
    values: Vec<Vec<Word>>,
    op: impl Fn(&[Word], &[Word]) -> Vec<Word>,
) -> Result<Vec<Word>, NetError> {
    let n = net.nodes();
    if root >= n {
        return Err(NetError::BadNode {
            node: root,
            size: n,
        });
    }
    assert_eq!(values.len(), n);
    let mut acc: Vec<Option<Vec<Word>>> = values.into_iter().map(Some).collect();
    for d in (0..net.q()).rev() {
        // Senders: relative label has bit d set and all higher bits clear.
        let mut sends: Vec<Send> = Vec::new();
        for (node, slot) in acc.iter_mut().enumerate() {
            let rel = node ^ root;
            if rel >> d != 1 {
                continue;
            }
            // A node sends once, at its top relative bit, and has not sent yet.
            let payload = slot.take().expect("a sender still holds its value");
            sends.push(Send {
                from: node,
                to: node ^ (1 << d),
                payload,
            });
        }
        let inbox = net.round(sends)?;
        for (node, got) in inbox.into_iter().enumerate() {
            if let Some((_, theirs)) = got {
                let mine = acc[node].take().expect("a receiver still holds its value");
                // Receiver has the lower relative label: it is the left operand.
                acc[node] = Some(op(&mine, &theirs));
            }
        }
    }
    Ok(acc[root].take().expect("the root never sends"))
}

/// Dimension-exchange all-reduce: every node ends with the total, `q` full
/// exchange rounds. Requires a commutative-enough usage or acceptance of
/// the butterfly order (left operand = lower label on each link).
pub fn all_reduce(
    net: &mut NetSim,
    values: Vec<Vec<Word>>,
    op: impl Fn(&[Word], &[Word]) -> Vec<Word>,
) -> Result<Vec<Vec<Word>>, NetError> {
    let n = net.nodes();
    assert_eq!(values.len(), n);
    let mut acc = values;
    for d in 0..net.q() {
        let payloads: Vec<Option<Vec<Word>>> = acc.iter().cloned().map(Some).collect();
        let inbox = net.exchange(d, payloads)?;
        for node in 0..n {
            let (_, theirs) = inbox[node]
                .clone()
                .expect("a full exchange delivers to every node");
            let mine = &acc[node];
            acc[node] = if node & (1 << d) == 0 {
                op(mine, &theirs)
            } else {
                op(&theirs, mine)
            };
        }
    }
    Ok(acc)
}

/// Gather all nodes' payloads at `root` (e-cube routed; the root's single
/// port makes this inherently `Ω(P)` rounds — measured, not hidden).
pub fn gather(
    net: &mut NetSim,
    root: usize,
    values: Vec<Vec<Word>>,
) -> Result<Vec<(usize, Vec<Word>)>, NetError> {
    let n = net.nodes();
    if root >= n {
        return Err(NetError::BadNode {
            node: root,
            size: n,
        });
    }
    assert_eq!(values.len(), n);
    let packets: Vec<Packet> = values
        .into_iter()
        .enumerate()
        .map(|(src, payload)| Packet {
            src,
            dst: root,
            payload,
        })
        .collect();
    let mut delivered = route(net, packets)?;
    Ok(delivered
        .swap_remove(root)
        .into_iter()
        .map(|p| (p.src, p.payload))
        .collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_reaches_all_nodes_every_root() {
        for q in 0..=5usize {
            let n = 1 << q;
            for root in [0usize, n - 1, n / 2] {
                let mut net = NetSim::new(q);
                let out = broadcast(&mut net, root, vec![7, 8]).unwrap();
                assert!(out.iter().all(|p| p == &vec![7, 8]));
                assert_eq!(net.stats().rounds, q as u64);
            }
        }
    }

    #[test]
    fn reduce_sums_everything_to_any_root() {
        for q in 0..=5usize {
            let n = 1 << q;
            for root in [0usize, n - 1] {
                let mut net = NetSim::new(q);
                let values: Vec<Vec<Word>> = (0..n).map(|i| vec![i as Word]).collect();
                let total = reduce(&mut net, root, values, |a, b| vec![a[0] + b[0]]).unwrap();
                assert_eq!(total, vec![(n * (n - 1) / 2) as Word]);
            }
        }
    }

    #[test]
    fn reduce_respects_operand_order() {
        // Concatenation-ish operator: keeps (min_label_seen, count).
        let q = 3usize;
        let mut net = NetSim::new(q);
        let values: Vec<Vec<Word>> = (0..8).map(|i| vec![i as Word, 1]).collect();
        let out = reduce(&mut net, 0, values, |a, b| {
            vec![a[0].min(b[0]), a[1] + b[1]]
        })
        .unwrap();
        assert_eq!(out, vec![0, 8]);
    }

    #[test]
    fn all_reduce_gives_everyone_the_total() {
        for q in 1..=5usize {
            let n = 1 << q;
            let mut net = NetSim::new(q);
            let values: Vec<Vec<Word>> = (0..n).map(|i| vec![(i * i) as Word]).collect();
            let expect: Word = (0..n as Word).map(|i| i * i).sum();
            let out = all_reduce(&mut net, values, |a, b| vec![a[0] + b[0]]).unwrap();
            assert!(out.iter().all(|v| v[0] == expect));
            assert_eq!(net.stats().rounds, q as u64);
        }
    }

    #[test]
    fn gather_collects_with_serialised_root_port() {
        let q = 3usize;
        let n = 1 << q;
        let mut net = NetSim::new(q);
        let values: Vec<Vec<Word>> = (0..n).map(|i| vec![100 + i as Word]).collect();
        let got = gather(&mut net, 2, values).unwrap();
        assert_eq!(got.len(), n);
        let mut srcs: Vec<usize> = got.iter().map(|(s, _)| *s).collect();
        srcs.sort_unstable();
        assert_eq!(srcs, (0..n).collect::<Vec<_>>());
        // n-1 remote payloads through one port: at least n-1 rounds.
        assert!(net.stats().rounds >= (n - 1) as u64);
    }
}
