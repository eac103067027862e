//! Direct unit coverage for `pram::trace::StepTrace` aggregation
//! (`touched_cells` / `max_accesses_per_proc`), which previously was only
//! exercised indirectly through whole-machine runs.

#![allow(clippy::unwrap_used)] // test code: panics are the failure mode

use pram::trace::{ProcAccess, StepTrace, Trace};
use pram::{Model, Pram};

fn acc(pid: usize, reads: &[usize], writes: &[(usize, i64)]) -> ProcAccess {
    ProcAccess {
        pid,
        reads: reads.to_vec(),
        writes: writes.to_vec(),
    }
}

#[test]
fn empty_step_and_empty_trace() {
    let st = StepTrace::default();
    assert_eq!(st.touched_cells(), 0);
    assert_eq!(st.max_accesses_per_proc(), 0);
    let t = Trace::default();
    assert!(t.steps.is_empty());
    assert_eq!(t.render(), "");
}

#[test]
fn duplicate_addresses_across_read_and_write_sets_count_once() {
    // One processor reads cell 7 and also writes it, plus reads cell 7
    // twice: the cell is *touched* once, but each access still counts
    // toward the per-processor access tally.
    let st = StepTrace {
        phase: "I".into(),
        procs: vec![acc(0, &[7, 7, 3], &[(7, 42)])],
    };
    assert_eq!(st.touched_cells(), 2, "cells {{3, 7}}");
    assert_eq!(st.max_accesses_per_proc(), 4, "3 reads + 1 write");
}

#[test]
fn multi_processor_overlap_dedupes_across_procs() {
    // Three processors touching overlapping cells: {0,1}, {1,2}, {2,0,9}.
    let st = StepTrace {
        phase: "II".into(),
        procs: vec![
            acc(0, &[0], &[(1, -1)]),
            acc(1, &[1], &[(2, -2)]),
            acc(2, &[2, 0], &[(9, -3)]),
        ],
    };
    assert_eq!(st.touched_cells(), 4, "cells {{0, 1, 2, 9}}");
    assert_eq!(st.max_accesses_per_proc(), 3, "proc 2: 2 reads + 1 write");
}

#[test]
fn render_one_line_per_step_with_phase_labels() {
    let t = Trace {
        steps: vec![
            StepTrace {
                phase: "I".into(),
                procs: vec![acc(0, &[1], &[])],
            },
            StepTrace {
                phase: "III".into(),
                procs: vec![acc(0, &[], &[(5, 9)]), acc(1, &[5], &[])],
            },
        ],
    };
    let out = t.render();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("[I]") && lines[0].contains("active=1"));
    assert!(lines[1].contains("[III]") && lines[1].contains("active=2"));
    assert!(lines[1].contains("cells=1"), "both procs touch only cell 5");
}

#[test]
fn machine_trace_matches_direct_aggregation() {
    // End-to-end: a CREW program whose every processor reads the same cell
    // and writes its own — the trace must show the overlap collapsing in
    // touched_cells and a per-proc access count of 2.
    let mut m = Pram::new(Model::Crew, 4);
    let shared = m.alloc(1, 7);
    let out = m.alloc(4, 0);
    m.par_for(4, |i, ctx| {
        let v = ctx.read(shared)?;
        ctx.write(out + i, v + i as i64)
    })
    .map_err(|e| panic!("unexpected conflict: {e:?}"))
    .ok();
    // No trace enabled: nothing recorded.
    assert!(m.trace().is_none());

    let mut m = Pram::new(Model::Crew, 4);
    m.enable_trace();
    let shared = m.alloc(1, 7);
    let out = m.alloc(4, 0);
    m.par_for(4, |i, ctx| {
        let v = ctx.read(shared)?;
        ctx.write(out + i, v + i as i64)
    })
    .unwrap();
    let t = m.trace().expect("tracing on");
    assert_eq!(t.steps.len(), 1);
    let st = &t.steps[0];
    assert_eq!(st.procs.len(), 4);
    // 1 shared read cell + 4 distinct write cells.
    assert_eq!(st.touched_cells(), 5);
    assert_eq!(st.max_accesses_per_proc(), 2);
}
