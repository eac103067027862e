//! Property-based tests of the PRAM machine itself: arbitrary *disjoint*
//! programs always run (and cost exactly what Brent says), arbitrary
//! *colliding* programs are always caught, and the write-commit semantics
//! (pre-step reads, post-step writes) hold for any access pattern.

#![allow(clippy::unwrap_used)] // test code: panics are the failure mode

use pram::{Cost, Model, Pram, PramError, Word};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A per-processor-disjoint program (processor i touches only cell i)
    /// is legal under every model and costs ceil(n/p) time, n work.
    #[test]
    fn disjoint_programs_always_run(
        n in 1usize..200,
        p in 1usize..17,
        deltas in proptest::collection::vec(-50i64..50, 1..200),
    ) {
        for model in [Model::Erew, Model::Crew, Model::CrcwCommon, Model::CrcwArbitrary] {
            let mut m = Pram::new(model, p);
            let a = m.alloc(n, 7);
            m.reset_cost();
            m.par_for(n, |i, ctx| {
                let v = ctx.read(a + i)?;
                ctx.write(a + i, v + deltas[i % deltas.len()])
            })
            .unwrap();
            for i in 0..n {
                prop_assert_eq!(m.host_read(a + i), 7 + deltas[i % deltas.len()]);
            }
            prop_assert_eq!(
                m.cost(),
                Cost { time: n.div_ceil(p) as u64, work: n as u64 }
            );
        }
    }

    /// Any program in which two distinct processors touch one shared cell is
    /// rejected under EREW, whatever the access kinds.
    #[test]
    fn erew_catches_any_collision(
        p in 2usize..9,
        shared in 0usize..8,
        kinds in proptest::collection::vec(any::<bool>(), 2..9),
    ) {
        let mut m = Pram::new(Model::Erew, p);
        let a = m.alloc(8, 0);
        let colliders = kinds.len().min(p);
        let err = m.step(colliders, |pid, ctx| {
            if kinds[pid] {
                ctx.read(a + shared).map(|_| ())
            } else {
                ctx.write(a + shared, pid as Word)
            }
        });
        if colliders >= 2 {
            prop_assert!(err.is_err());
            let e = err.unwrap_err();
            let is_collision = matches!(
                e,
                PramError::ReadConflict { .. }
                    | PramError::WriteConflict { .. }
                    | PramError::ReadWriteConflict { .. }
            );
            prop_assert!(is_collision, "unexpected error kind");
        }
    }

    /// Reads always observe the pre-step image regardless of write pattern.
    #[test]
    fn reads_are_pre_step_for_any_rotation(
        p in 1usize..9,
        init in proptest::collection::vec(-100i64..100, 1..9),
    ) {
        // Processor i reads cell i and writes cell (i+1) mod n — a rotation.
        // Legal under EREW only if n > 1 (no self-collision), and every read
        // must see the ORIGINAL value even though the cell is written in the
        // same step by another processor... which would be an EREW R/W
        // conflict; so run under CRCW-arbitrary where it is legal.
        let n = init.len();
        let mut m = Pram::new(Model::CrcwArbitrary, p.max(n));
        let a = m.alloc_init(&init);
        let out = m.alloc(n, 0);
        m.step(n, |i, ctx| {
            let v = ctx.read(a + i)?;
            ctx.write(out + i, v)?;
            ctx.write(a + (i + 1) % n, v * 10)
        })
        .unwrap();
        for (i, &v) in init.iter().enumerate() {
            prop_assert_eq!(m.host_read(out + i), v, "pre-step read");
            prop_assert_eq!(m.host_read(a + (i + 1) % n), v * 10);
        }
    }

    /// CRCW-common accepts exactly the agreeing-writes programs.
    #[test]
    fn crcw_common_agreement(
        p in 2usize..9,
        value in any::<i32>(),
        disagree in any::<bool>(),
    ) {
        let mut m = Pram::new(Model::CrcwCommon, p);
        let a = m.alloc(1, 0);
        let r = m.step(p, |pid, ctx| {
            let v = if disagree && pid == 1 {
                value as Word + 1
            } else {
                value as Word
            };
            ctx.write(a, v)
        });
        if disagree {
            prop_assert!(r.is_err());
        } else {
            prop_assert!(r.is_ok());
            prop_assert_eq!(m.host_read(a), value as Word);
        }
    }
}
