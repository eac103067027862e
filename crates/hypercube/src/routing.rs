//! E-cube (dimension-ordered) store-and-forward routing and path shifts.

use crate::engine::{NetError, NetSim, Send, Word};
use crate::gray::gray;

/// A packet travelling through the cube.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Origin node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Payload words.
    pub payload: Vec<Word>,
}

/// Next hop under e-cube routing: correct the lowest differing dimension.
pub fn ecube_next_hop(at: usize, dst: usize) -> usize {
    debug_assert_ne!(at, dst);
    let d = (at ^ dst).trailing_zeros();
    at ^ (1 << d)
}

/// Deliver all packets with store-and-forward e-cube routing under the
/// single-port rules. Each round every node forwards at most one resident
/// packet (FIFO), deferring when the receiver is already claimed. Returns
/// the packets grouped by destination, in delivery order.
///
/// A packet whose endpoint is out of range is reported as
/// [`NetError::BadNode`] before any round runs.
pub fn route(net: &mut NetSim, packets: Vec<Packet>) -> Result<Vec<Vec<Packet>>, NetError> {
    let n = net.nodes();
    let mut delivered: Vec<Vec<Packet>> = vec![Vec::new(); n];
    // Queues of in-flight packets per current node.
    let mut queues: Vec<std::collections::VecDeque<Packet>> =
        vec![std::collections::VecDeque::new(); n];
    let mut pending = 0usize;
    for p in packets {
        if p.src >= n || p.dst >= n {
            return Err(NetError::BadNode {
                node: if p.src >= n { p.src } else { p.dst },
                size: n,
            });
        }
        if p.src == p.dst {
            delivered[p.dst].push(p);
        } else {
            queues[p.src].push_back(p);
            pending += 1;
        }
    }
    while pending > 0 {
        let mut claimed = vec![false; n];
        let mut sends: Vec<Send> = Vec::new();
        let mut moving: Vec<(usize, Packet)> = Vec::new(); // (to, packet)
        #[allow(clippy::needless_range_loop)] // queues is mutably indexed
        for node in 0..n {
            // FIFO, but skip past packets whose next hop is claimed this
            // round (single-port receive).
            let mut rotated = 0;
            while rotated < queues[node].len() {
                let hop = ecube_next_hop(node, queues[node][0].dst);
                if claimed[hop] {
                    queues[node].rotate_left(1);
                    rotated += 1;
                    continue;
                }
                claimed[hop] = true;
                let Some(pkt) = queues[node].pop_front() else {
                    break;
                };
                // Wire format: dst, then payload (so the simulator moves the
                // real number of words a header-carrying packet needs).
                let mut wire = Vec::with_capacity(pkt.payload.len() + 1);
                wire.push(pkt.dst as Word);
                wire.extend_from_slice(&pkt.payload);
                sends.push(Send {
                    from: node,
                    to: hop,
                    payload: wire,
                });
                moving.push((hop, pkt));
                break;
            }
        }
        // The lowest busy node finds no hop claimed yet, so every round
        // moves at least one packet.
        debug_assert!(!sends.is_empty());
        net.round(sends)?;
        for (to, pkt) in moving {
            if to == pkt.dst {
                delivered[to].push(pkt);
                pending -= 1;
            } else {
                queues[to].push_back(pkt);
            }
        }
    }
    Ok(delivered)
}

/// One step of a shift along the Hamiltonian path: node `Π(r)` sends its
/// payload to `Π(r+1)` (its physical neighbour). The last node's payload is
/// dropped unless `wrap` is set, in which case it goes to `Π(0)` (also a
/// neighbour: the path is a cycle). Returns the received payloads in rank
/// order.
pub fn shift_along_path(
    net: &mut NetSim,
    payloads: Vec<Option<Vec<Word>>>,
    wrap: bool,
) -> Result<Vec<Option<Vec<Word>>>, NetError> {
    let p = net.nodes();
    assert_eq!(payloads.len(), p, "rank-indexed payloads");
    let mut sends = Vec::new();
    for (r, payload) in payloads.into_iter().enumerate() {
        let Some(payload) = payload else { continue };
        let to_rank = if r + 1 < p {
            r + 1
        } else if wrap {
            0
        } else {
            continue;
        };
        sends.push(Send {
            from: gray(r),
            to: gray(to_rank),
            payload,
        });
    }
    let inbox = net.round(sends)?;
    Ok((0..p)
        .map(|r| inbox[gray(r)].clone().map(|(_, pl)| pl))
        .collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn ecube_hops_toward_destination() {
        let mut at = 0b000;
        let dst = 0b110;
        let mut hops = 0;
        while at != dst {
            at = ecube_next_hop(at, dst);
            hops += 1;
        }
        assert_eq!(hops, 2);
    }

    #[test]
    fn out_of_range_destination_rejected() {
        let mut net = NetSim::new(2);
        let err = route(
            &mut net,
            vec![Packet {
                src: 1,
                dst: 4,
                payload: vec![5],
            }],
        )
        .unwrap_err();
        assert_eq!(err, NetError::BadNode { node: 4, size: 4 });
        assert_eq!(net.stats().rounds, 0);
    }

    #[test]
    fn random_permutation_routes_deliver_everything() {
        let mut rng = StdRng::seed_from_u64(9);
        for q in 1..=6usize {
            let n = 1 << q;
            let mut net = NetSim::new(q);
            let mut dsts: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                dsts.swap(i, j);
            }
            let packets: Vec<Packet> = (0..n)
                .map(|src| Packet {
                    src,
                    dst: dsts[src],
                    payload: vec![src as Word],
                })
                .collect();
            let delivered = route(&mut net, packets).unwrap();
            for (node, got) in delivered.iter().enumerate() {
                let senders: Vec<usize> = got.iter().map(|p| p.src).collect();
                let expected: Vec<usize> = (0..n).filter(|&s| dsts[s] == node).collect();
                assert_eq!(senders, expected);
            }
        }
    }

    #[test]
    fn many_to_one_serialises_but_delivers() {
        let mut net = NetSim::new(3);
        let packets: Vec<Packet> = (1..8)
            .map(|src| Packet {
                src,
                dst: 0,
                payload: vec![src as Word],
            })
            .collect();
        let delivered = route(&mut net, packets).unwrap();
        assert_eq!(delivered[0].len(), 7);
        // Node 0 can receive at most one packet per round.
        assert!(net.stats().rounds >= 7);
    }

    #[test]
    fn self_packet_delivers_without_communication() {
        let mut net = NetSim::new(2);
        let delivered = route(
            &mut net,
            vec![Packet {
                src: 2,
                dst: 2,
                payload: vec![5],
            }],
        )
        .unwrap();
        assert_eq!(delivered[2].len(), 1);
        assert_eq!(net.stats().rounds, 0);
    }

    #[test]
    fn path_shift_moves_rank_payloads() {
        let mut net = NetSim::new(2);
        let payloads = vec![Some(vec![0]), Some(vec![1]), Some(vec![2]), Some(vec![3])];
        let out = shift_along_path(&mut net, payloads, false).unwrap();
        assert_eq!(out, vec![None, Some(vec![0]), Some(vec![1]), Some(vec![2])]);
        let payloads = vec![Some(vec![0]), None, None, Some(vec![3])];
        let out = shift_along_path(&mut net, payloads, true).unwrap();
        assert_eq!(out, vec![Some(vec![3]), Some(vec![0]), None, None]);
    }
}
