//! The PRAM engine: Phases I–III executed on the EREW simulator.
//!
//! This is the measured reproduction of Theorem 1. The host lays the two root
//! arrays out in shared memory, then the whole decision process — carry
//! statuses, the carry prefix scan, point classification, `I_lim`,
//! `I_valueB`, the segmented prefix minima, the per-position link round and
//! the new-`H` assignment — runs as synchronous PRAM steps under EREW
//! conflict checking. Neighbour values (`c_{i-1}`, `p_{i+1}`,
//! `I_valueA[i-1]`) are staged through shifted copies so no cell is ever
//! double-read in a step; the simulator verifies this.
//!
//! The extracted [`UnionPlan`] must equal the sequential oracle's bit for bit
//! (tested), and the returned [`Cost`] is the measured `{time, work}`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use pram::{Cost, Model, PhaseCost, Pram, PramError, Word, NIL};

use crate::arena::NodeId;
use crate::plan::{
    classify_point, link_decision, new_root_decision, PointType, RootRef, UnionPlan,
};

/// Key word for an absent tree.
const NO_KEY: Word = i64::MAX;

fn encode_class(t: PointType) -> Word {
    match t {
        PointType::Start => 0,
        PointType::Internal => 1,
        PointType::End => 2,
        PointType::Independent => 3,
    }
}

/// The inverse of [`encode_class`], total over its two low bits. The class
/// cells are written only by `encode_class` in Phase I, so every word read
/// back is one of its four codes; the plan the run returns is checked
/// against the sequential oracle's bit for bit in the tests.
fn decode_class(w: Word) -> PointType {
    match w & 3 {
        0 => PointType::Start,
        1 => PointType::Internal,
        2 => PointType::End,
        _ => PointType::Independent,
    }
}

fn root_ref(key: Word, ptr: Word) -> Option<RootRef> {
    (ptr != NIL).then(|| RootRef {
        key,
        id: NodeId::from_word(ptr),
    })
}

/// Result of a PRAM-hosted union planning run.
#[derive(Debug, Clone)]
pub struct PramUnionOutcome {
    /// The plan (identical to the sequential oracle's).
    pub plan: UnionPlan,
    /// Total measured cost.
    pub cost: Cost,
    /// Per-phase breakdown (labels "I", "II", "III").
    pub phases: PhaseCost,
}

/// Build the union plan on a fresh `p`-processor EREW PRAM.
pub fn build_plan_pram(
    h1: &[Option<RootRef>],
    h2: &[Option<RootRef>],
    p: usize,
) -> Result<PramUnionOutcome, PramError> {
    let width = h1.len().max(h2.len());
    // `i64::MAX` is this engine's absent-root sentinel: a real key equal to
    // it would be silently treated as "no tree" and dropped. Reject loudly.
    for r in h1.iter().chain(h2.iter()).flatten() {
        assert!(
            r.key != NO_KEY,
            "key i64::MAX is reserved as the PRAM engine's nil sentinel"
        );
    }
    let mut m = Pram::new(Model::Erew, p);
    let at = |v: &[Option<RootRef>], i: usize| v.get(i).copied().flatten();

    // -------- host I/O: lay the inputs out in shared memory --------
    let key_of = |r: Option<RootRef>| r.map_or(NO_KEY, |x| x.key);
    let ptr_of = |r: Option<RootRef>| r.map_or(NIL, |x| x.id.to_word());
    let a_key = m.alloc_init(&(0..width).map(|i| key_of(at(h1, i))).collect::<Vec<_>>());
    let a_ptr = m.alloc_init(&(0..width).map(|i| ptr_of(at(h1, i))).collect::<Vec<_>>());
    let b_key = m.alloc_init(&(0..width).map(|i| key_of(at(h2, i))).collect::<Vec<_>>());
    let b_ptr = m.alloc_init(&(0..width).map(|i| ptr_of(at(h2, i))).collect::<Vec<_>>());

    let g = m.alloc(width, 0);
    let pw = m.alloc(width, 0);
    let status = m.alloc(width, 0);
    let carry = m.alloc(width, 0);
    let c_prev = m.alloc(width, 0); // c_{i-1}, 0 at i = 0
    let p_next = m.alloc(width, 0); // p_{i+1}, 0 at i = width-1
    let s = m.alloc(width, 0);
    let class = m.alloc(width, 3);
    let i_lim = m.alloc(width, 0);
    let ivb_key = m.alloc(width, NO_KEY);
    let ivb_ptr = m.alloc(width, NIL);
    let iva_flag = m.alloc(width, 0); // scratch for the scanned flag component
    let iva_key = m.alloc(width, NO_KEY);
    let iva_ptr = m.alloc(width, NIL);
    let ivp_key = m.alloc(width, NO_KEY); // I_valueA[i-1]
    let ivp_ptr = m.alloc(width, NIL);
    let link_child = m.alloc(width, NIL);
    let link_parent = m.alloc(width, NIL);
    let h_out = m.alloc(width, NIL);

    if width == 0 {
        let plan = UnionPlan {
            width: 0,
            a: vec![],
            b: vec![],
            g: vec![],
            p: vec![],
            c: vec![],
            s: vec![],
            class: vec![],
            i_lim: vec![],
            i_value_b: vec![],
            i_value_a: vec![],
            links: vec![],
            new_roots: vec![],
        };
        return Ok(PramUnionOutcome {
            plan,
            cost: Cost::ZERO,
            phases: PhaseCost::new(),
        });
    }

    m.reset_cost();
    let _sp = obs::span("union/pram");

    // -------- Phase I: g, p, carry statuses, carries, classification --------
    m.phase("I");
    let sp_phase = obs::span("union/phase1");
    m.par_for(width, |i, ctx| {
        let ak = ctx.read(a_key + i)?;
        let bk = ctx.read(b_key + i)?;
        let a = ak != NO_KEY;
        let b = bk != NO_KEY;
        ctx.write(g + i, (a && b) as Word)?;
        ctx.write(pw + i, (a ^ b) as Word)?;
        ctx.write(status + i, parscan::carry_status(a, b).to_word())
    })?;
    parscan::pram_host::scan_inclusive(
        &mut m,
        status,
        carry,
        width,
        parscan::CarryStatus::Propagate.to_word(),
        parscan::compose_status_words,
    )?;
    // carry[i] currently holds the status prefix; collapse to a carry bit.
    // A malformed word (or propagated poison) can only mean corrupted PRAM
    // cells; it collapses to "no carry" here and is impossible for statuses
    // written by Phase I above.
    m.par_for(width, |i, ctx| {
        let st = ctx.read(carry + i)?;
        let is_generate = matches!(
            parscan::CarryStatus::try_from_word(st),
            Ok(parscan::CarryStatus::Generate)
        );
        ctx.write(carry + i, is_generate as Word)
    })?;
    // Shifted neighbours.
    if width > 1 {
        m.par_for(width - 1, |i, ctx| {
            let c = ctx.read(carry + i)?;
            ctx.write(c_prev + i + 1, c)
        })?;
        m.par_for(width - 1, |i, ctx| {
            let pv = ctx.read(pw + i + 1)?;
            ctx.write(p_next + i, pv)
        })?;
    }
    // s, classification, I_lim.
    m.par_for(width, |i, ctx| {
        let gi = ctx.read(g + i)? != 0;
        let pi = ctx.read(pw + i)? != 0;
        let cp = ctx.read(c_prev + i)? != 0;
        let pn = ctx.read(p_next + i)? != 0;
        ctx.write(s + i, (pi ^ cp) as Word)?;
        ctx.write(class + i, encode_class(classify_point(gi, pi, cp, pn)))?;
        ctx.write(i_lim + i, !(pi && cp) as Word)
    })?;

    // -------- Phase II: I_valueB, segmented prefix minima --------
    drop(sp_phase);
    m.phase("II");
    let sp_phase = obs::span("union/phase2");
    m.par_for(width, |i, ctx| {
        let ak = ctx.read(a_key + i)?;
        let ap = ctx.read(a_ptr + i)?;
        let bk = ctx.read(b_key + i)?;
        let bp = ctx.read(b_ptr + i)?;
        // position_winner with the same tie rule: H1 wins ties.
        let (wk, wp) = if ap == NIL {
            (bk, bp)
        } else if bp == NIL || ak <= bk {
            (ak, ap)
        } else {
            (bk, bp)
        };
        ctx.write(ivb_key + i, wk)?;
        ctx.write(ivb_ptr + i, wp)
    })?;
    // Segmented min over tuples (flag, key, ptr); ties keep the left.
    parscan::pram_host::scan_inclusive_tuples::<3, _>(
        &mut m,
        [i_lim, ivb_key, ivb_ptr],
        [iva_flag, iva_key, iva_ptr],
        width,
        [0, NO_KEY, NIL],
        |l, r| {
            if r[0] != 0 {
                r
            } else {
                if r[1] < l[1] {
                    [l[0], r[1], r[2]]
                } else {
                    [l[0], l[1], l[2]]
                }
            }
        },
    )?;
    // Shifted dominant-of-previous-position copies.
    if width > 1 {
        m.par_for(width - 1, |i, ctx| {
            let k = ctx.read(iva_key + i)?;
            let q = ctx.read(iva_ptr + i)?;
            ctx.write(ivp_key + i + 1, k)?;
            ctx.write(ivp_ptr + i + 1, q)
        })?;
    }

    // -------- Phase III: links and the new root array --------
    drop(sp_phase);
    m.phase("III");
    let sp_phase = obs::span("union/phase3");
    m.par_for(width, |i, ctx| {
        let cls = decode_class(ctx.read(class + i)?);
        let gi = ctx.read(g + i)? != 0;
        let pi = ctx.read(pw + i)? != 0;
        let cp = ctx.read(c_prev + i)? != 0;
        let pn = ctx.read(p_next + i)? != 0;
        let h1r = root_ref(ctx.read(a_key + i)?, ctx.read(a_ptr + i)?);
        let h2r = root_ref(ctx.read(b_key + i)?, ctx.read(b_ptr + i)?);
        let winner = root_ref(ctx.read(ivb_key + i)?, ctx.read(ivb_ptr + i)?);
        let dom = root_ref(ctx.read(iva_key + i)?, ctx.read(iva_ptr + i)?);
        let dom_prev = root_ref(ctx.read(ivp_key + i)?, ctx.read(ivp_ptr + i)?);
        if let Some(op) = link_decision(cls, gi, h1r, h2r, winner, dom, dom_prev, i) {
            ctx.write(link_child + i, op.child.to_word())?;
            ctx.write(link_parent + i, op.parent.to_word())?;
        }
        if let Some((slot, root)) = new_root_decision(i, cls, gi, pi, cp, pn, dom) {
            // Distinct positions target distinct slots (the simulator's EREW
            // write check proves this on every run).
            ctx.write(h_out + slot, root.to_word())?;
        }
        Ok(())
    })?;

    drop(sp_phase);
    let cost = m.cost();
    let phases = m.phases().clone();

    // -------- host I/O: extract the plan --------
    let rd = |base: usize| m.host_slice(base, width).to_vec();
    let gv = rd(g);
    let pv = rd(pw);
    let cv = rd(carry);
    let sv = rd(s);
    let classv = rd(class);
    let limv = rd(i_lim);
    let ivbk = rd(ivb_key);
    let ivbp = rd(ivb_ptr);
    let ivak = rd(iva_key);
    let ivap = rd(iva_ptr);
    let lc = rd(link_child);
    let lp = rd(link_parent);
    let hv = rd(h_out);

    let plan = UnionPlan {
        width,
        a: (0..width).map(|i| at(h1, i).is_some()).collect(),
        b: (0..width).map(|i| at(h2, i).is_some()).collect(),
        g: gv.iter().map(|&w| w != 0).collect(),
        p: pv.iter().map(|&w| w != 0).collect(),
        c: cv.iter().map(|&w| w != 0).collect(),
        s: sv.iter().map(|&w| w != 0).collect(),
        class: classv.iter().map(|&w| decode_class(w)).collect(),
        i_lim: limv.iter().map(|&w| w != 0).collect(),
        i_value_b: (0..width).map(|i| root_ref(ivbk[i], ivbp[i])).collect(),
        i_value_a: (0..width).map(|i| root_ref(ivak[i], ivap[i])).collect(),
        links: (0..width)
            .filter(|&i| lc[i] != NIL)
            .map(|i| crate::plan::LinkOp {
                child: NodeId::from_word(lc[i]),
                parent: NodeId::from_word(lp[i]),
                slot: i,
            })
            .collect(),
        new_roots: hv
            .iter()
            .map(|&w| (w != NIL).then(|| NodeId::from_word(w)))
            .collect(),
    };

    Ok(PramUnionOutcome { plan, cost, phases })
}

/// PRAM-measured `Min`: an EREW reduction over the root array; returns the
/// minimum key and the measured cost.
pub fn min_pram(roots: &[Option<RootRef>], p: usize) -> Result<(Option<RootRef>, Cost), PramError> {
    let width = roots.len();
    for r in roots.iter().flatten() {
        assert!(
            r.key != NO_KEY,
            "key i64::MAX is reserved as the PRAM engine's nil sentinel"
        );
    }
    let mut m = Pram::new(Model::Erew, p);
    let keys: Vec<Word> = roots.iter().map(|r| r.map_or(NO_KEY, |x| x.key)).collect();
    let vals = m.alloc_init(&keys);
    let ov = m.alloc(1, 0);
    let oi = m.alloc(1, 0);
    m.reset_cost();
    parscan::pram_host::reduce_min_argmin(&mut m, vals, width, ov, oi)?;
    let idx = m.host_read(oi);
    let out = if idx == NIL || m.host_read(ov) == NO_KEY {
        None
    } else {
        roots[idx as usize]
    };
    Ok((out, m.cost()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_plan_seq;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_side(rng: &mut StdRng, n: usize, width: usize, id_base: u32) -> Vec<Option<RootRef>> {
        (0..width)
            .map(|i| {
                (n >> i & 1 == 1).then(|| RootRef {
                    key: rng.gen_range(-1000..1000),
                    id: NodeId(id_base + i as u32),
                })
            })
            .collect()
    }

    #[test]
    fn pram_plan_equals_sequential_plan() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..200 {
            let n1 = rng.gen_range(0usize..50_000);
            let n2 = rng.gen_range(0usize..50_000);
            let width = crate::plan::plan_width(n1, n2);
            let h1 = random_side(&mut rng, n1, width, 0);
            let h2 = random_side(&mut rng, n2, width, 1_000);
            let p = rng.gen_range(1usize..8);
            let seq = build_plan_seq(&h1, &h2);
            let out = build_plan_pram(&h1, &h2, p).expect("EREW-legal program");
            assert_eq!(seq, out.plan, "trial {trial}: n1={n1} n2={n2} p={p}");
        }
    }

    #[test]
    fn erew_legality_on_worst_case_chains() {
        // All-ones inputs maximise chain length; the simulator must not
        // report a single conflict.
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [1usize, 2, 4, 8, 16, 30] {
            let n = (1usize << bits) - 1;
            let width = crate::plan::plan_width(n, n);
            let h1 = random_side(&mut rng, n, width, 0);
            let h2 = random_side(&mut rng, n, width, 100);
            for p in [1usize, 2, 3, 5, 8] {
                let out = build_plan_pram(&h1, &h2, p).expect("EREW-legal program");
                out.plan.validate().unwrap();
            }
        }
    }

    #[test]
    fn cost_decreases_with_processors() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = (1usize << 20) - 1;
        let width = crate::plan::plan_width(n, n);
        let h1 = random_side(&mut rng, n, width, 0);
        let h2 = random_side(&mut rng, n, width, 100);
        let t1 = build_plan_pram(&h1, &h2, 1).unwrap().cost.time;
        let t4 = build_plan_pram(&h1, &h2, 4).unwrap().cost.time;
        assert!(t4 < t1, "t1={t1} t4={t4}");
        // Work stays within a constant of the p=1 time (work-optimality).
        let w4 = build_plan_pram(&h1, &h2, 4).unwrap().cost.work;
        assert!(w4 <= 2 * t1, "w4={w4} t1={t1}");
    }

    #[test]
    fn min_reduction_matches_host_min() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let n = rng.gen_range(1usize..10_000);
            let width = crate::plan::plan_width(n, 0).max(1);
            let roots = random_side(&mut rng, n, width, 0);
            let (got, _) = min_pram(&roots, 3).unwrap();
            let expect = roots
                .iter()
                .flatten()
                .copied()
                .min_by_key(|r| (r.key, r.id.0));
            // min_pram ties to lowest index, which is the same as lowest
            // position; keys are random so exact tie semantics rarely bite,
            // but compare keys which must always agree.
            assert_eq!(got.map(|r| r.key), expect.map(|r| r.key));
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn sentinel_key_rejected_not_dropped() {
        // A real i64::MAX key must abort rather than silently vanish
        // (regression: found by the verification probe).
        let h1 = vec![Some(RootRef {
            key: i64::MAX,
            id: NodeId(0),
        })];
        let h2 = vec![Some(RootRef {
            key: 5,
            id: NodeId(1),
        })];
        let _ = build_plan_pram(&h1, &h2, 2);
    }

    #[test]
    fn empty_inputs() {
        let out = build_plan_pram(&[], &[], 2).unwrap();
        assert_eq!(out.plan.width, 0);
        assert_eq!(out.cost, Cost::ZERO);
        let (min, _) = min_pram(&[], 2).unwrap();
        assert!(min.is_none());
    }
}
