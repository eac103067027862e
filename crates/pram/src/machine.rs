//! The simulated machine: shared memory, synchronous steps, conflict rules.

use crate::cost::{Cost, PhaseCost};
use crate::error::PramError;

/// The machine word. Keys, pointers, booleans and counters are all words, as
/// on the abstract PRAM.
pub type Word = i64;

/// Shared-memory address (word index).
pub type Addr = usize;

/// The nil pointer: the paper's `nil` for absent trees/children/parents.
pub const NIL: Word = -1;

/// Per-processor, per-step access budget enforcing the O(1) rule.
pub const ACCESS_BUDGET: usize = 64;

/// PRAM sub-model, ordered weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// Exclusive read, exclusive write.
    Erew,
    /// Concurrent read, exclusive write.
    Crew,
    /// Concurrent read, concurrent write — writers must agree on the value.
    CrcwCommon,
    /// Concurrent read, concurrent write — an arbitrary writer wins (here:
    /// the lowest processor id, for determinism).
    CrcwArbitrary,
}

/// A processor's view of one synchronous step: reads come from the pre-step
/// memory image, writes are buffered until the step completes.
pub struct Ctx<'a> {
    mem: &'a [Word],
    pid: usize,
    accesses: usize,
    reads: Vec<Addr>,
    writes: Vec<(Addr, Word)>,
}

impl<'a> Ctx<'a> {
    fn new(mem: &'a [Word], pid: usize) -> Self {
        Ctx {
            mem,
            pid,
            accesses: 0,
            reads: Vec::with_capacity(4),
            writes: Vec::with_capacity(2),
        }
    }

    /// This processor's id within the step.
    pub fn pid(&self) -> usize {
        self.pid
    }

    fn budget(&mut self) -> Result<(), PramError> {
        self.accesses += 1;
        if self.accesses > ACCESS_BUDGET {
            return Err(PramError::AccessBudgetExceeded {
                pid: self.pid,
                budget: ACCESS_BUDGET,
            });
        }
        Ok(())
    }

    /// Read a shared-memory cell (pre-step value).
    pub fn read(&mut self, addr: Addr) -> Result<Word, PramError> {
        self.budget()?;
        let w = *self.mem.get(addr).ok_or(PramError::OutOfBounds {
            addr,
            size: self.mem.len(),
        })?;
        self.reads.push(addr);
        Ok(w)
    }

    /// Buffer a write; it lands when the step commits. If the same processor
    /// writes a cell twice in one step, the last value wins.
    pub fn write(&mut self, addr: Addr, value: Word) -> Result<(), PramError> {
        self.budget()?;
        if addr >= self.mem.len() {
            return Err(PramError::OutOfBounds {
                addr,
                size: self.mem.len(),
            });
        }
        self.writes.push((addr, value));
        Ok(())
    }
}

/// The PRAM machine: model + processor count + shared memory + cost meters.
pub struct Pram {
    model: Model,
    p: usize,
    mem: Vec<Word>,
    cost: Cost,
    phases: PhaseCost,
    current_phase: String,
    trace: Option<crate::trace::Trace>,
}

impl Pram {
    /// A machine with `p` processors and empty memory.
    pub fn new(model: Model, p: usize) -> Self {
        assert!(p >= 1, "a PRAM needs at least one processor");
        Pram {
            model,
            p,
            mem: Vec::new(),
            cost: Cost::ZERO,
            phases: PhaseCost::new(),
            current_phase: "setup".to_string(),
            trace: None,
        }
    }

    /// Start recording per-step access traces (see [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(crate::trace::Trace::default());
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&crate::trace::Trace> {
        self.trace.as_ref()
    }

    /// Number of processors.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The configured model.
    pub fn model(&self) -> Model {
        self.model
    }

    /// Accumulated cost so far.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Per-phase breakdown.
    pub fn phases(&self) -> &PhaseCost {
        &self.phases
    }

    /// Zero the meters (memory is untouched).
    pub fn reset_cost(&mut self) {
        self.cost = Cost::ZERO;
        self.phases = PhaseCost::new();
    }

    /// Label subsequent steps for the per-phase breakdown.
    pub fn phase(&mut self, label: &str) {
        self.current_phase = label.to_string();
    }

    // ---- host (front-end) memory management: free, not part of the cost ----

    /// Allocate `len` words initialised to `init`; returns the base address.
    pub fn alloc(&mut self, len: usize, init: Word) -> Addr {
        let base = self.mem.len();
        self.mem.resize(base + len, init);
        base
    }

    /// Allocate and copy `data`; returns the base address.
    pub fn alloc_init(&mut self, data: &[Word]) -> Addr {
        let base = self.mem.len();
        self.mem.extend_from_slice(data);
        base
    }

    /// Host read (I/O, outside the simulated computation).
    pub fn host_read(&self, addr: Addr) -> Word {
        self.mem[addr]
    }

    /// Host write (I/O: initial placement of the input).
    pub fn host_write(&mut self, addr: Addr, value: Word) {
        self.mem[addr] = value;
    }

    /// Host view of a memory region.
    pub fn host_slice(&self, base: Addr, len: usize) -> &[Word] {
        &self.mem[base..base + len]
    }

    /// Memory size in words.
    pub fn mem_len(&self) -> usize {
        self.mem.len()
    }

    // ---- the synchronous step ----

    /// Run one synchronous step with processors `0..active` (`active <= p`).
    /// All reads observe the pre-step memory; writes commit together at the
    /// end after model-specific conflict checking.
    pub fn step<F>(&mut self, active: usize, mut body: F) -> Result<(), PramError>
    where
        F: FnMut(usize, &mut Ctx) -> Result<(), PramError>,
    {
        assert!(
            active <= self.p,
            "step activated {active} processors on a {}-processor machine",
            self.p
        );
        if active == 0 {
            return Ok(());
        }
        let mut reads: Vec<(Addr, usize)> = Vec::new();
        let mut writes: Vec<(Addr, usize, Word)> = Vec::new();
        let mut step_trace = self.trace.as_ref().map(|_| crate::trace::StepTrace {
            phase: self.current_phase.clone(),
            procs: Vec::with_capacity(active),
        });
        for pid in 0..active {
            let mut ctx = Ctx::new(&self.mem, pid);
            body(pid, &mut ctx)?;
            // Deduplicate per-pid repeated reads of one cell (legal: it is
            // the processor's own register reuse) and keep the last write per
            // cell per pid.
            ctx.reads.sort_unstable();
            ctx.reads.dedup();
            reads.extend(ctx.reads.iter().map(|&a| (a, pid)));
            let mut last: Vec<(Addr, Word)> = Vec::with_capacity(ctx.writes.len());
            for (a, w) in ctx.writes {
                if let Some(e) = last.iter_mut().find(|(ea, _)| *ea == a) {
                    e.1 = w;
                } else {
                    last.push((a, w));
                }
            }
            if let Some(t) = step_trace.as_mut() {
                t.procs.push(crate::trace::ProcAccess {
                    pid,
                    reads: ctx.reads.clone(),
                    writes: last.clone(),
                });
            }
            writes.extend(last.into_iter().map(|(a, w)| (a, pid, w)));
        }
        self.check_conflicts(&mut reads, &mut writes)?;
        // Commit; under CRCW-arbitrary the lowest pid wins on collisions
        // (writes are sorted by (addr, pid): apply in reverse so the lowest
        // pid's value lands last).
        if self.model == Model::CrcwArbitrary {
            for (addr, _, w) in writes.into_iter().rev() {
                self.mem[addr] = w;
            }
        } else {
            for (addr, _, w) in writes {
                self.mem[addr] = w;
            }
        }
        if let (Some(trace), Some(st)) = (self.trace.as_mut(), step_trace) {
            trace.steps.push(st);
        }
        let c = Cost::step(active);
        self.cost += c;
        self.phases.charge(&self.current_phase, c);
        Ok(())
    }

    fn check_conflicts(
        &self,
        reads: &mut [(Addr, usize)],
        writes: &mut [(Addr, usize, Word)],
    ) -> Result<(), PramError> {
        reads.sort_unstable();
        writes.sort_unstable();

        // Write/write conflicts.
        for pair in writes.windows(2) {
            let (a0, p0, w0) = pair[0];
            let (a1, p1, w1) = pair[1];
            if a0 == a1 && p0 != p1 {
                match self.model {
                    Model::Erew | Model::Crew => {
                        return Err(PramError::WriteConflict {
                            addr: a0,
                            pids: (p0, p1),
                            model: self.model,
                        })
                    }
                    Model::CrcwCommon => {
                        if w0 != w1 {
                            return Err(PramError::WriteConflict {
                                addr: a0,
                                pids: (p0, p1),
                                model: self.model,
                            });
                        }
                    }
                    Model::CrcwArbitrary => {}
                }
            }
        }

        // Read/read conflicts (EREW only).
        if self.model == Model::Erew {
            for pair in reads.windows(2) {
                let (a0, p0) = pair[0];
                let (a1, p1) = pair[1];
                if a0 == a1 && p0 != p1 {
                    return Err(PramError::ReadConflict {
                        addr: a0,
                        pids: (p0, p1),
                    });
                }
            }
        }

        // Read/write conflicts (EREW and CREW): another processor reading a
        // cell some processor writes this step.
        if matches!(self.model, Model::Erew | Model::Crew) {
            let mut wi = 0;
            for &(raddr, rpid) in reads.iter() {
                while wi < writes.len() && writes[wi].0 < raddr {
                    wi += 1;
                }
                let mut j = wi;
                while j < writes.len() && writes[j].0 == raddr {
                    if writes[j].1 != rpid {
                        return Err(PramError::ReadWriteConflict {
                            addr: raddr,
                            reader: rpid,
                            writer: writes[j].1,
                        });
                    }
                    j += 1;
                }
            }
        }
        Ok(())
    }

    /// Brent-scheduled data-parallel loop: apply `body` to items `0..n` using
    /// the machine's `p` processors, `⌈n/p⌉` synchronous steps. In round `r`,
    /// processor `q` handles item `r·p + q`.
    pub fn par_for<F>(&mut self, n: usize, mut body: F) -> Result<(), PramError>
    where
        F: FnMut(usize, &mut Ctx) -> Result<(), PramError>,
    {
        let p = self.p;
        let mut done = 0;
        while done < n {
            let active = (n - done).min(p);
            let base = done;
            self.step(active, |pid, ctx| body(base + pid, ctx))?;
            done += active;
        }
        Ok(())
    }

    /// A purely sequential step on processor 0 (time 1, work 1).
    pub fn solo<F>(&mut self, body: F) -> Result<(), PramError>
    where
        F: FnOnce(&mut Ctx) -> Result<(), PramError>,
    {
        let mut once = Some(body);
        self.step(1, |_pid, ctx| (once.take().expect("runs once"))(ctx))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn reads_see_pre_step_values() {
        let mut m = Pram::new(Model::Erew, 1);
        let a = m.alloc_init(&[10]);
        m.solo(|ctx| {
            let before = ctx.read(a)?;
            assert_eq!(before, 10);
            ctx.write(a, 99)?;
            // The write is buffered: a re-read in the same step still sees 10.
            let during = ctx.read(a)?;
            assert_eq!(during, 10);
            Ok(())
        })
        .unwrap();
        assert_eq!(m.host_read(a), 99);
        assert_eq!(m.cost(), Cost { time: 1, work: 1 });
    }

    #[test]
    fn parallel_swap_needs_two_erew_steps() {
        // The one-step cross swap is an EREW read/write conflict; the legal
        // schedule stages through scratch cells in two steps.
        let mut m = Pram::new(Model::Erew, 2);
        let a = m.alloc_init(&[10, 20]);
        let tmp = m.alloc(2, 0);
        m.step(2, |pid, ctx| {
            let v = ctx.read(a + pid)?;
            ctx.write(tmp + 1 - pid, v)
        })
        .unwrap();
        m.step(2, |pid, ctx| {
            let v = ctx.read(tmp + pid)?;
            ctx.write(a + pid, v)
        })
        .unwrap();
        assert_eq!(m.host_slice(a, 2), &[20, 10]);
        assert_eq!(m.cost(), Cost { time: 2, work: 4 });
    }

    #[test]
    fn erew_detects_read_conflict() {
        let mut m = Pram::new(Model::Erew, 2);
        let a = m.alloc(1, 7);
        let err = m.step(2, |_pid, ctx| ctx.read(a).map(|_| ())).unwrap_err();
        assert!(matches!(err, PramError::ReadConflict { .. }));
    }

    #[test]
    fn crew_allows_concurrent_reads() {
        let mut m = Pram::new(Model::Crew, 8);
        let a = m.alloc(1, 7);
        let out = m.alloc(8, 0);
        m.step(8, |pid, ctx| {
            let v = ctx.read(a)?;
            ctx.write(out + pid, v)
        })
        .unwrap();
        assert!(m.host_slice(out, 8).iter().all(|&w| w == 7));
    }

    #[test]
    fn crew_detects_write_conflict() {
        let mut m = Pram::new(Model::Crew, 2);
        let a = m.alloc(1, 0);
        let err = m.step(2, |_pid, ctx| ctx.write(a, 1)).unwrap_err();
        assert!(matches!(err, PramError::WriteConflict { .. }));
    }

    #[test]
    fn crcw_common_accepts_agreeing_writes_rejects_disagreeing() {
        let mut m = Pram::new(Model::CrcwCommon, 4);
        let a = m.alloc(1, 0);
        m.step(4, |_pid, ctx| ctx.write(a, 9)).unwrap();
        assert_eq!(m.host_read(a), 9);
        let err = m.step(2, |pid, ctx| ctx.write(a, pid as Word)).unwrap_err();
        assert!(matches!(err, PramError::WriteConflict { .. }));
    }

    #[test]
    fn erew_detects_read_write_conflict() {
        let mut m = Pram::new(Model::Erew, 2);
        let a = m.alloc(1, 0);
        let err = m
            .step(2, |pid, ctx| {
                if pid == 0 {
                    ctx.read(a).map(|_| ())
                } else {
                    ctx.write(a, 5)
                }
            })
            .unwrap_err();
        assert!(matches!(err, PramError::ReadWriteConflict { .. }));
    }

    #[test]
    fn same_pid_may_read_and_write_its_own_cell() {
        let mut m = Pram::new(Model::Erew, 3);
        let a = m.alloc(3, 1);
        m.step(3, |pid, ctx| {
            let v = ctx.read(a + pid)?;
            ctx.write(a + pid, v * 2)
        })
        .unwrap();
        assert_eq!(m.host_slice(a, 3), &[2, 2, 2]);
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut m = Pram::new(Model::Erew, 1);
        let err = m.solo(|ctx| ctx.read(99).map(|_| ())).unwrap_err();
        assert!(matches!(err, PramError::OutOfBounds { .. }));
    }

    #[test]
    fn access_budget_enforced() {
        let mut m = Pram::new(Model::Erew, 1);
        let a = m.alloc(ACCESS_BUDGET + 2, 0);
        let err = m
            .solo(|ctx| {
                for i in 0..=ACCESS_BUDGET {
                    ctx.read(a + i)?;
                }
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, PramError::AccessBudgetExceeded { .. }));
    }

    #[test]
    fn par_for_costs_ceil_n_over_p() {
        let mut m = Pram::new(Model::Erew, 4);
        let a = m.alloc(10, 0);
        m.par_for(10, |i, ctx| ctx.write(a + i, i as Word)).unwrap();
        assert_eq!(m.host_slice(a, 10), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        // ceil(10/4) = 3 steps; work = 10 active processor-steps.
        assert_eq!(m.cost(), Cost { time: 3, work: 10 });
    }

    #[test]
    fn phase_breakdown_accumulates() {
        let mut m = Pram::new(Model::Erew, 2);
        let a = m.alloc(4, 0);
        m.phase("write");
        m.par_for(4, |i, ctx| ctx.write(a + i, 1)).unwrap();
        m.phase("read");
        m.par_for(4, |i, ctx| ctx.read(a + i).map(|_| ())).unwrap();
        let phases = m.phases().entries();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "write");
        assert_eq!(phases[0].1, Cost { time: 2, work: 4 });
        assert_eq!(m.phases().total(), m.cost());
    }

    #[test]
    fn zero_active_step_is_free() {
        let mut m = Pram::new(Model::Erew, 2);
        m.step(0, |_, _| Ok(())).unwrap();
        assert_eq!(m.cost(), Cost::ZERO);
    }

    #[test]
    fn double_write_same_pid_last_wins() {
        let mut m = Pram::new(Model::Erew, 1);
        let a = m.alloc(1, 0);
        m.solo(|ctx| {
            ctx.write(a, 1)?;
            ctx.write(a, 2)
        })
        .unwrap();
        assert_eq!(m.host_read(a), 2);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod model_and_trace_tests {
    use super::*;

    #[test]
    fn crcw_arbitrary_lowest_pid_wins() {
        let mut m = Pram::new(Model::CrcwArbitrary, 4);
        let a = m.alloc(1, 0);
        m.step(4, |pid, ctx| ctx.write(a, 10 + pid as Word))
            .unwrap();
        assert_eq!(m.host_read(a), 10);
    }

    #[test]
    fn crcw_arbitrary_allows_read_during_write() {
        let mut m = Pram::new(Model::CrcwArbitrary, 2);
        let a = m.alloc(1, 7);
        let out = m.alloc(1, 0);
        m.step(2, |pid, ctx| {
            if pid == 0 {
                let v = ctx.read(a)?;
                ctx.write(out, v)
            } else {
                ctx.write(a, 99)
            }
        })
        .unwrap();
        // Reads observe pre-step memory.
        assert_eq!(m.host_read(out), 7);
        assert_eq!(m.host_read(a), 99);
    }

    #[test]
    fn trace_records_phases_and_accesses() {
        let mut m = Pram::new(Model::Erew, 2);
        m.enable_trace();
        let a = m.alloc(4, 1);
        m.phase("double");
        m.par_for(4, |i, ctx| {
            let v = ctx.read(a + i)?;
            ctx.write(a + i, 2 * v)
        })
        .unwrap();
        let t = m.trace().expect("tracing on");
        assert_eq!(t.steps.len(), 2); // ceil(4/2) steps
        assert!(t.steps.iter().all(|s| s.phase == "double"));
        assert!(t.steps.iter().all(|s| s.max_accesses_per_proc() == 2));
        assert_eq!(t.steps[0].touched_cells(), 2);
        let rendered = t.render();
        assert!(rendered.contains("step    0 [double] active=2"));
    }

    #[test]
    fn trace_is_off_by_default() {
        let mut m = Pram::new(Model::Erew, 1);
        let a = m.alloc(1, 0);
        m.solo(|ctx| ctx.write(a, 1)).unwrap();
        assert!(m.trace().is_none());
    }

    #[test]
    fn model_hierarchy_on_three_programs() {
        // A: everyone reads one cell — only EREW objects.
        let read_all = |model: Model| -> Result<(), PramError> {
            let mut m = Pram::new(model, 3);
            let a = m.alloc(1, 5);
            m.step(3, |_pid, ctx| ctx.read(a).map(|_| ()))
        };
        assert!(matches!(
            read_all(Model::Erew),
            Err(PramError::ReadConflict { .. })
        ));
        read_all(Model::Crew).expect("CREW reads concurrently");
        read_all(Model::CrcwCommon).expect("CRCW reads concurrently");
        read_all(Model::CrcwArbitrary).expect("CRCW reads concurrently");

        // B: everyone writes the SAME value — EREW/CREW object, CRCW accepts.
        let write_same = |model: Model| -> Result<(), PramError> {
            let mut m = Pram::new(model, 3);
            let a = m.alloc(1, 0);
            m.step(3, |_pid, ctx| ctx.write(a, 5))
        };
        assert!(matches!(
            write_same(Model::Erew),
            Err(PramError::WriteConflict { .. })
        ));
        assert!(matches!(
            write_same(Model::Crew),
            Err(PramError::WriteConflict { .. })
        ));
        write_same(Model::CrcwCommon).expect("agreeing writes are fine");
        write_same(Model::CrcwArbitrary).expect("any writes are fine");

        // C: everyone writes a DIFFERENT value — only CRCW-arbitrary accepts.
        let write_diff = |model: Model| -> Result<(), PramError> {
            let mut m = Pram::new(model, 3);
            let a = m.alloc(1, 0);
            m.step(3, |pid, ctx| ctx.write(a, pid as Word))
        };
        assert!(write_diff(Model::CrcwCommon).is_err());
        write_diff(Model::CrcwArbitrary).expect("arbitrary resolves the race");
    }
}
