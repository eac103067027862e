//! Property-based tests of the scan toolkit: every execution strategy
//! (sequential, PRAM-EREW Blelloch, PRAM-CREW Hillis–Steele) computes
//! the same prefixes for arbitrary inputs and for both commutative and
//! non-commutative associative operators.

#![allow(clippy::unwrap_used)] // test code: panics are the failure mode

use parscan::{carry, pram_crew, pram_host, seq};
use pram::{Model, Pram, Word};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three scan strategies agree on prefix sums.
    #[test]
    fn scan_strategies_agree_on_sums(
        xs in proptest::collection::vec(-1000i64..1000, 0..96),
        p in 1usize..7,
    ) {
        let oracle = seq::scan_inclusive(&xs, |a, b| a + b);

        if !xs.is_empty() {
            let mut m = Pram::new(Model::Erew, p);
            let input = m.alloc_init(&xs);
            let out = m.alloc(xs.len(), 0);
            pram_host::scan_inclusive(&mut m, input, out, xs.len(), 0, |a, b| a + b).unwrap();
            prop_assert_eq!(m.host_slice(out, xs.len()), &oracle[..]);

            let mut m = Pram::new(Model::Crew, p);
            let buf = m.alloc_init(&xs);
            pram_crew::hillis_steele_scan(&mut m, buf, xs.len(), |a, b| a + b).unwrap();
            prop_assert_eq!(m.host_slice(buf, xs.len()), &oracle[..]);
        }
    }

    /// Segmented prefix minima agree across strategies for arbitrary flags.
    #[test]
    fn segmented_min_strategies_agree(
        pairs in proptest::collection::vec((any::<bool>(), -10_000i64..10_000), 1..80),
        p in 1usize..6,
    ) {
        let flags: Vec<bool> = pairs.iter().map(|(f, _)| *f).collect();
        let values: Vec<i64> = pairs.iter().map(|(_, v)| *v).collect();
        let oracle = seq::segmented_prefix_min(&flags, &values);

        let mut m = Pram::new(Model::Erew, p);
        let flags_w: Vec<Word> = flags.iter().map(|&f| f as Word).collect();
        let fa = m.alloc_init(&flags_w);
        let va = m.alloc_init(&values);
        let out = m.alloc(values.len(), 0);
        pram_host::segmented_prefix_min(&mut m, fa, va, out, values.len()).unwrap();
        prop_assert_eq!(m.host_slice(out, values.len()), &oracle[..]);
    }

    /// Carry computation: scan-based equals ripple for arbitrary operands,
    /// and reassembling sum bits reproduces the addition.
    #[test]
    fn carries_and_sums_correct(n1 in 0usize..1_000_000, n2 in 0usize..1_000_000) {
        let width = 22;
        let a = carry::bits_of(n1, width);
        let b = carry::bits_of(n2, width);
        let ripple = carry::carries_ripple(&a, &b);
        let scanned = carry::carries_by_scan(&a, &b);
        prop_assert_eq!(&ripple, &scanned);
        let mut s = carry::sum_bits(&a, &b, &ripple);
        s.push(ripple[width - 1]); // the carry-out becomes the top bit
        prop_assert_eq!(carry::bits_to_usize(&s), n1 + n2);
    }

    /// The EREW broadcast writes the same value everywhere for any n.
    #[test]
    fn broadcast_fans_out(n in 0usize..200, v in any::<i32>()) {
        let mut m = Pram::new(Model::Erew, 4);
        let cell = m.alloc_init(&[v as Word]);
        let out = m.alloc(n.max(1), -1);
        pram_crew::broadcast(&mut m, cell, out, n).unwrap();
        for i in 0..n {
            prop_assert_eq!(m.host_read(out + i), v as Word);
        }
    }
}
