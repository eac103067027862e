//! Bitonic sort of block-distributed keys.
//!
//! The `b-Union` preprocessing (paper §5) sorts `O(b log n)` keys on the
//! cube. We use the classic hypercube realisation of Batcher's bitonic
//! network: every node locally sorts its block, then each compare-exchange
//! of the network becomes a *merge-split* between direct neighbours (full
//! blocks cross one link — a legal single-port exchange — and each side
//! keeps the lower/upper half). Replacing compare-exchanges by merge-splits
//! in a sorting network sorts blocks (Knuth), so correctness is inherited
//! from the bitonic network.
//!
//! Cost: `O((M/P)·log²P)` moved words plus local `O((M/P) log(M/P))` work —
//! the paper cites asymptotically faster hypercube sorts for huge `M`; the
//! experiments note the substitution (same `b log b`-style growth in the
//! regime measured).

use crate::engine::{NetError, NetSim, Word};

/// Sentinel used to pad ragged blocks; callers' keys must be below it.
pub const PAD: Word = i64::MAX;

/// Sort `keys` ascending across the cube. Keys are dealt into `2^q` equal
/// blocks in **node-id order**; the sorted sequence is returned (and
/// internally lives) in node-id order, block `i` on node `i`.
pub fn bitonic_sort(net: &mut NetSim, keys: &[Word]) -> Result<Vec<Word>, NetError> {
    let _sp = obs::span("hc/sort");
    let p = net.nodes();
    let m = keys.len().div_ceil(p).max(1);
    // Local blocks, padded.
    let mut blocks: Vec<Vec<Word>> = (0..p)
        .map(|i| {
            let mut b: Vec<Word> = keys.iter().skip(i * m).take(m).copied().collect();
            b.resize(m, PAD);
            b.sort_unstable();
            b
        })
        .collect();

    let q = net.q();
    for k in 0..q {
        let size = 1usize << (k + 1);
        for j in (0..=k).rev() {
            let stride = 1usize << j;
            // Full exchange across dimension j: every node swaps its whole
            // block with its partner, then keeps one half of the merge.
            let payloads: Vec<Option<Vec<Word>>> = blocks.iter().cloned().map(Some).collect();
            let inbox = net.exchange(j, payloads)?;
            for node in 0..p {
                let (_, other) = inbox[node]
                    .clone()
                    .expect("a full exchange delivers to every node");
                let ascending = node & size == 0;
                let low_side = node & stride == 0;
                let mut merged = Vec::with_capacity(2 * m);
                merged.extend_from_slice(&blocks[node]);
                merged.extend_from_slice(&other);
                merged.sort_unstable();
                blocks[node] = if low_side == ascending {
                    merged[..m].to_vec()
                } else {
                    merged[m..].to_vec()
                };
            }
        }
    }
    let mut out: Vec<Word> = blocks.into_iter().flatten().collect();
    out.truncate(keys.len());
    // Drop padding that sorted to the tail.
    while out.last() == Some(&PAD) && out.len() > keys.len() {
        out.pop();
    }
    out.truncate(keys.len());
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn sorts_random_inputs_all_q() {
        let mut rng = StdRng::seed_from_u64(77);
        for q in 0..=6usize {
            for m in [1usize, 3, 8, 17] {
                let n = (1usize << q) * m;
                let mut net = NetSim::new(q);
                let keys: Vec<Word> = (0..n).map(|_| rng.gen_range(-500..500)).collect();
                let sorted = bitonic_sort(&mut net, &keys).unwrap();
                let mut expected = keys.clone();
                expected.sort_unstable();
                assert_eq!(sorted, expected, "q={q} m={m}");
            }
        }
    }

    #[test]
    fn ragged_input_with_padding() {
        let mut net = NetSim::new(3);
        let keys: Vec<Word> = vec![9, -2, 7, 0, 3];
        let sorted = bitonic_sort(&mut net, &keys).unwrap();
        assert_eq!(sorted, vec![-2, 0, 3, 7, 9]);
    }

    #[test]
    fn duplicates_preserved() {
        let mut net = NetSim::new(2);
        let keys = vec![5, 5, 5, 1, 1, 9, 9, 9];
        assert_eq!(
            bitonic_sort(&mut net, &keys).unwrap(),
            vec![1, 1, 5, 5, 5, 9, 9, 9]
        );
    }

    #[test]
    fn communication_cost_scales_with_block_size() {
        let q = 4usize;
        let mut small = NetSim::new(q);
        bitonic_sort(&mut small, &[1; 16]).unwrap();
        let mut big = NetSim::new(q);
        bitonic_sort(&mut big, &vec![1; 16 * 64]).unwrap();
        assert!(big.stats().time > small.stats().time);
        // Rounds are block-size independent: q(q+1)/2 exchanges.
        assert_eq!(small.stats().rounds, big.stats().rounds);
        assert_eq!(small.stats().rounds, (4 * 5 / 2) as u64);
    }
}
