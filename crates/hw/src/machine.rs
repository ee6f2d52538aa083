//! The simulated processor: address translation, access checks, calls.
//!
//! [`Machine`] owns primary memory, the AST, the clock and the cost model,
//! and exposes exactly what the 6180's appending unit did: word reads and
//! writes through a descriptor segment (with bounds, mode, ring-bracket and
//! residency checks, in that order) and the CALL mechanics (with gate
//! entry-point validation and ring switching).
//!
//! Everything above this — fault handling, page control, the kernel — is
//! software and lives in other crates.

use crate::ast::{Ast, PageState};
use crate::clock::{Clock, Cycles};
use crate::cost::{CostModel, CpuModel};
use crate::fault::{AttemptKind, Fault};
use crate::inject::InjectorHandle;
use crate::lockorder::LockOrderHandle;
use crate::mem::{PhysMem, PAGE_WORDS};
use crate::ring::{CallEffect, RingNo};
use crate::sdw::Sdw;
use crate::space::{AddrSpace, SegNo};
use crate::word::Word;
use mks_trace::{EventKind, Layer, TraceHandle};

/// What kind of memory access to perform/check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessType {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

/// The result of a successful call: which ring execution continues in and
/// whether the transfer crossed rings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CallOutcome {
    /// Ring of execution after the call.
    pub new_ring: RingNo,
    /// True if the call crossed a ring boundary (through a gate).
    pub crossed: bool,
}

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    /// Which CPU generation this machine is.
    pub model: CpuModel,
    /// The shared cycle clock.
    pub clock: Clock,
    /// Cycle costs for this CPU generation.
    pub cost: CostModel,
    /// Primary memory.
    pub mem: PhysMem,
    /// The active segment table.
    pub ast: Ast,
    /// The flight recorder, sharing this machine's clock. Every layer
    /// of the simulation reaches the recorder through the machine.
    pub trace: TraceHandle,
    /// The fault injector. Disarmed by default; layers consult it at
    /// their injection points exactly like they reach the recorder.
    pub inject: InjectorHandle,
    /// The lock-ordering tracker: kernel paths bracket their would-be
    /// critical sections so the acquired-lock graph can be audited for
    /// rank violations and cycles (see [`crate::lockorder`]).
    pub locks: LockOrderHandle,
    faults_taken: u64,
    ring_crossings: u64,
}

impl Machine {
    /// Builds a machine of the given generation with `nr_frames` of primary
    /// memory and the default boot-time trace-ring capacity (see
    /// [`resolve_trace_capacity`]).
    pub fn new(model: CpuModel, nr_frames: usize) -> Machine {
        Machine::with_trace_capacity(model, nr_frames, None)
    }

    /// Builds a machine with an explicit trace-ring capacity (`None` falls
    /// back to the crate default).
    pub fn with_trace_capacity(
        model: CpuModel,
        nr_frames: usize,
        trace_capacity: Option<usize>,
    ) -> Machine {
        let clock = Clock::new();
        let capacity = resolve_trace_capacity(trace_capacity);
        let trace = TraceHandle::with_capacity(clock.clone(), capacity);
        Machine {
            model,
            clock,
            cost: CostModel::for_model(model),
            mem: PhysMem::new(nr_frames),
            ast: Ast::new(),
            trace,
            inject: InjectorHandle::disarmed(),
            locks: LockOrderHandle::new(),
            faults_taken: 0,
            ring_crossings: 0,
        }
    }

    /// Total faults the machine has raised (directed or otherwise).
    #[cfg(test)]
    fn faults_taken(&self) -> u64 {
        self.faults_taken
    }

    /// Total ring crossings executed.
    pub fn ring_crossings(&self) -> u64 {
        self.ring_crossings
    }

    fn fault(&mut self, f: Fault) -> Fault {
        self.faults_taken += 1;
        self.clock.advance(self.cost.fault_entry);
        self.trace.counter_add("hw.faults", 1);
        self.trace
            .event(Layer::Hw, EventKind::FaultDispatch, f.name());
        f
    }

    /// Translates `(seg, offset)` under `space`, checking bounds, mode and
    /// ring brackets for `kind` from `ring`, and returns the SDW plus the
    /// physical location if the page is resident.
    fn translate(
        &mut self,
        space: &AddrSpace,
        ring: RingNo,
        seg: SegNo,
        offset: usize,
        kind: AccessType,
    ) -> Result<(Sdw, crate::mem::FrameId, usize), Fault> {
        let sdw = match space.get(seg) {
            Some(s) => *s,
            None => return Err(self.fault(Fault::NoDescriptor { seg })),
        };
        let entry = self.ast.entry(sdw.astx);
        if offset >= entry.len_words {
            return Err(self.fault(Fault::OutOfBounds { seg, offset }));
        }
        let (mode_ok, ring_ok, attempted) = match kind {
            AccessType::Read => (
                sdw.mode.read,
                sdw.brackets.read_allowed(ring),
                AttemptKind::Read,
            ),
            AccessType::Write => (
                sdw.mode.write,
                sdw.brackets.write_allowed(ring),
                AttemptKind::Write,
            ),
            AccessType::Execute => (
                sdw.mode.execute,
                sdw.brackets.read_allowed(ring),
                AttemptKind::Execute,
            ),
        };
        if !mode_ok {
            return Err(self.fault(Fault::AccessViolation { seg, attempted }));
        }
        if !ring_ok {
            return Err(self.fault(Fault::RingViolation {
                seg,
                from_ring: ring,
                attempted,
            }));
        }
        let page = offset / PAGE_WORDS;
        let entry = self.ast.entry_mut(sdw.astx);
        let ptw = entry.pt.ptw_mut(page);
        match ptw.state {
            PageState::InCore(frame) => {
                ptw.used = true;
                if kind == AccessType::Write {
                    ptw.modified = true;
                }
                Ok((sdw, frame, offset % PAGE_WORDS))
            }
            PageState::NotInCore => Err(self.fault(Fault::MissingPage { seg, page })),
        }
    }

    /// Checks whether an access of `kind` to `(seg, offset)` from `ring`
    /// would pass the descriptor checks (bounds, mode, brackets), without
    /// touching memory or requiring the page to be resident. The kernel
    /// uses this to let the ordinary memory-protection state answer policy
    /// questions — e.g. "may this process notify this event channel?".
    pub fn probe(
        &mut self,
        space: &AddrSpace,
        ring: RingNo,
        seg: SegNo,
        offset: usize,
        kind: AccessType,
    ) -> Result<(), Fault> {
        let sdw = match space.get(seg) {
            Some(s) => *s,
            None => return Err(self.fault(Fault::NoDescriptor { seg })),
        };
        let entry = self.ast.entry(sdw.astx);
        if offset >= entry.len_words {
            return Err(self.fault(Fault::OutOfBounds { seg, offset }));
        }
        let (mode_ok, ring_ok, attempted) = match kind {
            AccessType::Read => (
                sdw.mode.read,
                sdw.brackets.read_allowed(ring),
                AttemptKind::Read,
            ),
            AccessType::Write => (
                sdw.mode.write,
                sdw.brackets.write_allowed(ring),
                AttemptKind::Write,
            ),
            AccessType::Execute => (
                sdw.mode.execute,
                sdw.brackets.read_allowed(ring),
                AttemptKind::Execute,
            ),
        };
        if !mode_ok {
            return Err(self.fault(Fault::AccessViolation { seg, attempted }));
        }
        if !ring_ok {
            return Err(self.fault(Fault::RingViolation {
                seg,
                from_ring: ring,
                attempted,
            }));
        }
        Ok(())
    }

    /// Reads one word from `ring` through `space`.
    pub fn read(
        &mut self,
        space: &AddrSpace,
        ring: RingNo,
        seg: SegNo,
        offset: usize,
    ) -> Result<Word, Fault> {
        let (_, frame, off) = self.translate(space, ring, seg, offset, AccessType::Read)?;
        self.clock.advance(self.cost.read_word);
        Ok(self.mem.read(frame, off))
    }

    /// Writes one word from `ring` through `space`.
    pub fn write(
        &mut self,
        space: &AddrSpace,
        ring: RingNo,
        seg: SegNo,
        offset: usize,
        value: Word,
    ) -> Result<(), Fault> {
        let (_, frame, off) = self.translate(space, ring, seg, offset, AccessType::Write)?;
        self.clock.advance(self.cost.write_word);
        self.mem.write(frame, off, value);
        Ok(())
    }

    /// Fetches one instruction word (execute access).
    pub fn fetch(
        &mut self,
        space: &AddrSpace,
        ring: RingNo,
        seg: SegNo,
        offset: usize,
    ) -> Result<Word, Fault> {
        let (_, frame, off) = self.translate(space, ring, seg, offset, AccessType::Execute)?;
        self.clock.advance(self.cost.read_word);
        Ok(self.mem.read(frame, off))
    }

    /// Executes the CALL mechanics: checks that `seg` is executable from
    /// `from_ring`, validates gate entry points for call-bracket callers,
    /// charges the (model-dependent) call cost and reports the new ring.
    ///
    /// The target word need not be resident — real Multics would take the
    /// page fault on the first instruction fetch; we let the caller fetch.
    pub fn call(
        &mut self,
        space: &AddrSpace,
        from_ring: RingNo,
        seg: SegNo,
        entry_offset: usize,
    ) -> Result<CallOutcome, Fault> {
        let sdw = match space.get(seg) {
            Some(s) => *s,
            None => return Err(self.fault(Fault::NoDescriptor { seg })),
        };
        if !sdw.mode.execute {
            return Err(self.fault(Fault::AccessViolation {
                seg,
                attempted: AttemptKind::Call,
            }));
        }
        let entry = self.ast.entry(sdw.astx);
        if entry_offset >= entry.len_words {
            return Err(self.fault(Fault::OutOfBounds {
                seg,
                offset: entry_offset,
            }));
        }
        self.trace.counter_add("hw.calls", 1);
        match sdw.brackets.classify_call(seg, from_ring) {
            Ok(CallEffect::SameRing) => {
                self.clock.advance(self.cost.call_intra_ring);
                Ok(CallOutcome {
                    new_ring: from_ring,
                    crossed: false,
                })
            }
            Ok(CallEffect::InwardTo(target)) => {
                if !sdw.is_gate_entry(entry_offset) {
                    return Err(self.fault(Fault::NotAGate {
                        seg,
                        offset: entry_offset,
                    }));
                }
                self.ring_crossings += 1;
                self.clock.advance(self.cost.call_cross_ring);
                self.trace.counter_add("hw.ring_crossings", 1);
                self.trace.event(
                    Layer::Hw,
                    EventKind::GateTransfer,
                    format!("call seg {} ring {} -> {}", seg.0, from_ring, target),
                );
                Ok(CallOutcome {
                    new_ring: target,
                    crossed: true,
                })
            }
            Err(f) => Err(self.fault(f)),
        }
    }

    /// Charges one gate crossing performed by kernel software on behalf of
    /// a caller (the monitor's gate entries), counting it with the
    /// hardware's own crossings.
    pub fn charge_gate_crossing(&mut self) -> Cycles {
        self.ring_crossings += 1;
        self.trace.counter_add("hw.ring_crossings", 1);
        self.trace
            .event(Layer::Hw, EventKind::GateTransfer, "kernel gate entry");
        self.clock.advance(self.cost.call_cross_ring)
    }

    /// Charges the cost of dispatching a processor to another virtual
    /// processor (descriptor-base swap); used by the traffic controller.
    pub fn charge_processor_swap(&mut self) -> Cycles {
        self.clock.advance(self.cost.processor_swap)
    }

    /// Charges the cost of an interprocess wakeup.
    pub fn charge_wakeup(&mut self) -> Cycles {
        self.clock.advance(self.cost.wakeup)
    }

    /// Charges the cost of interrupt entry.
    pub fn charge_interrupt(&mut self) -> Cycles {
        self.clock.advance(self.cost.interrupt_entry)
    }
}

/// Resolves the boot-time trace-ring capacity: explicit configuration
/// wins, otherwise the crate default. The host environment is never
/// consulted, so equal configurations boot equal recorders everywhere.
/// Capacity zero is clamped to 1 — a ringless recorder cannot honor the
/// metering contract.
fn resolve_trace_capacity(explicit: Option<usize>) -> usize {
    explicit.unwrap_or(mks_trace::DEFAULT_RING_CAPACITY).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::PageState;
    use crate::mem::FrameId;
    use crate::ring::RingBrackets;
    use crate::sdw::AccessMode;
    use crate::word::SegUid;

    /// Builds a machine with one active, fully resident segment mapped at
    /// seg#1 with the given mode/brackets.
    fn setup(mode: AccessMode, brackets: RingBrackets) -> (Machine, AddrSpace) {
        let mut m = Machine::new(CpuModel::H6180, 8);
        let astx = m.ast.activate(SegUid(1), 2 * PAGE_WORDS);
        m.ast.entry_mut(astx).pt.ptw_mut(0).state = PageState::InCore(FrameId(0));
        m.ast.entry_mut(astx).pt.ptw_mut(1).state = PageState::InCore(FrameId(1));
        let mut sp = AddrSpace::new();
        sp.set(SegNo(1), Sdw::plain(astx, mode, brackets));
        (m, sp)
    }

    #[test]
    fn trace_capacity_resolution_order_is_config_default() {
        // Explicit configuration wins.
        assert_eq!(resolve_trace_capacity(Some(128)), 128);
        // Absent configuration falls back to the default.
        assert_eq!(
            resolve_trace_capacity(None),
            mks_trace::DEFAULT_RING_CAPACITY
        );
        // Zero is clamped to a one-slot ring.
        assert_eq!(resolve_trace_capacity(Some(0)), 1);
    }

    #[test]
    fn machine_boots_with_an_explicit_trace_capacity() {
        let m = Machine::with_trace_capacity(CpuModel::H6180, 8, Some(32));
        assert_eq!(m.trace.ring_stats().capacity, 32);
    }

    #[test]
    fn read_write_round_trip_and_dirty_bits() {
        let (mut m, sp) = setup(AccessMode::RW, RingBrackets::private_to(4));
        m.write(&sp, 4, SegNo(1), 5, Word::new(7)).unwrap();
        assert_eq!(m.read(&sp, 4, SegNo(1), 5).unwrap(), Word::new(7));
        let astx = m.ast.find(SegUid(1)).unwrap();
        let ptw = *m.ast.entry(astx).pt.ptw(0);
        assert!(ptw.used && ptw.modified);
    }

    #[test]
    fn missing_descriptor_faults() {
        let (mut m, sp) = setup(AccessMode::RW, RingBrackets::private_to(4));
        assert!(matches!(
            m.read(&sp, 4, SegNo(9), 0),
            Err(Fault::NoDescriptor { .. })
        ));
        assert_eq!(m.faults_taken(), 1);
    }

    #[test]
    fn bounds_checked_before_residency() {
        let (mut m, sp) = setup(AccessMode::RW, RingBrackets::private_to(4));
        assert!(matches!(
            m.read(&sp, 4, SegNo(1), 2 * PAGE_WORDS),
            Err(Fault::OutOfBounds { .. })
        ));
    }

    #[test]
    fn mode_bits_deny_write_on_read_only() {
        let (mut m, sp) = setup(AccessMode::R, RingBrackets::private_to(4));
        assert!(matches!(
            m.write(&sp, 4, SegNo(1), 0, Word::ZERO),
            Err(Fault::AccessViolation { .. })
        ));
    }

    #[test]
    fn ring_brackets_deny_write_from_outer_ring() {
        // Writable only in rings 0..=1, readable to 4.
        let (mut m, sp) = setup(AccessMode::RW, RingBrackets::new(1, 4, 4));
        assert!(matches!(
            m.write(&sp, 4, SegNo(1), 0, Word::ZERO),
            Err(Fault::RingViolation { .. })
        ));
        assert!(m.write(&sp, 1, SegNo(1), 0, Word::ZERO).is_ok());
        assert!(m.read(&sp, 4, SegNo(1), 0).is_ok());
    }

    #[test]
    fn non_resident_page_takes_missing_page_fault() {
        let mut m = Machine::new(CpuModel::H6180, 8);
        let astx = m.ast.activate(SegUid(2), PAGE_WORDS);
        let mut sp = AddrSpace::new();
        sp.set(
            SegNo(1),
            Sdw::plain(astx, AccessMode::RW, RingBrackets::private_to(4)),
        );
        assert!(matches!(
            m.read(&sp, 4, SegNo(1), 3),
            Err(Fault::MissingPage { page: 0, .. })
        ));
    }

    #[test]
    fn gate_call_crosses_inward_only_at_entry_points() {
        let mut m = Machine::new(CpuModel::H6180, 8);
        let astx = m.ast.activate(SegUid(3), PAGE_WORDS);
        m.ast.entry_mut(astx).pt.ptw_mut(0).state = PageState::InCore(FrameId(0));
        let mut sp = AddrSpace::new();
        sp.set(SegNo(2), Sdw::gate(astx, RingBrackets::gate(0, 5), 4));
        let out = m.call(&sp, 4, SegNo(2), 2).unwrap();
        assert_eq!(
            out,
            CallOutcome {
                new_ring: 0,
                crossed: true
            }
        );
        assert!(matches!(
            m.call(&sp, 4, SegNo(2), 7),
            Err(Fault::NotAGate { .. })
        ));
        assert!(matches!(
            m.call(&sp, 6, SegNo(2), 2),
            Err(Fault::RingViolation { .. })
        ));
        assert_eq!(m.ring_crossings(), 1);
    }

    #[test]
    fn intra_ring_call_does_not_cross() {
        let (mut m, sp) = setup(AccessMode::RE, RingBrackets::new(4, 4, 4));
        let out = m.call(&sp, 4, SegNo(1), 0).unwrap();
        assert_eq!(
            out,
            CallOutcome {
                new_ring: 4,
                crossed: false
            }
        );
    }

    #[test]
    fn cross_ring_cost_gap_depends_on_model() {
        for (model, max_ratio) in [(CpuModel::H645, 200.0), (CpuModel::H6180, 1.2)] {
            let mut m = Machine::new(model, 8);
            let astx = m.ast.activate(SegUid(4), PAGE_WORDS);
            m.ast.entry_mut(astx).pt.ptw_mut(0).state = PageState::InCore(FrameId(0));
            let mut sp = AddrSpace::new();
            sp.set(SegNo(1), Sdw::gate(astx, RingBrackets::gate(0, 5), 1));
            sp.set(
                SegNo(2),
                Sdw::plain(astx, AccessMode::RE, RingBrackets::new(4, 4, 4)),
            );
            let t0 = m.clock.now();
            m.call(&sp, 4, SegNo(2), 0).unwrap();
            let intra = m.clock.now() - t0;
            let t1 = m.clock.now();
            m.call(&sp, 4, SegNo(1), 0).unwrap();
            let cross = m.clock.now() - t1;
            let ratio = cross as f64 / intra as f64;
            assert!(ratio <= max_ratio, "{model:?}: ratio {ratio}");
            if model == CpuModel::H645 {
                assert!(
                    ratio > 50.0,
                    "645 crossing should be expensive, got {ratio}"
                );
            }
        }
    }
}
