//! # mks-vm — the three-level memory hierarchy and page control
//!
//! Multics moved pages among **primary memory**, the **bulk store** (a large
//! slow core/drum store), and **disk**. The paper uses page control as its
//! flagship simplification example, contrasting two designs:
//!
//! * the **sequential** design ([`sequential`]), where the process that takes
//!   a page fault executes the whole cascade itself — if primary memory is
//!   full it must first move a page to the bulk store, and if *that* is full
//!   it must first move a bulk page (via primary memory) to disk — a long,
//!   branching path run in whatever process happened to fault, finished off
//!   in whatever processes happened to receive the I/O interrupts; and
//! * the **parallel** design ([`parallel`]), where two *dedicated kernel
//!   processes* (on layer-1 virtual processors, see `mks-procs`) keep free
//!   primary frames and free bulk records always available, so the faulting
//!   process "can just wait until a primary memory block is free and then
//!   initiate the transfer of the desired page" — a short, straight-line
//!   path.
//!
//! The crate also implements the paper's **policy/mechanism partitioning**
//! (its second partitioning technique): the [`mechanism`] module is the
//! ring-0 part that can actually move pages, exposing only gate-shaped
//! operations; the [`policy`] module is the replacement algorithm that runs
//! in a less privileged ring and can see usage statistics but never page
//! contents — so a wrong policy can cause **denial of use but never
//! unauthorized disclosure or modification** (experiment E9).

pub mod hierarchy;
pub mod mechanism;
pub mod parallel;
pub mod policy;
pub mod segctl;
pub mod sequential;
pub mod stats;
pub mod workload;

pub use hierarchy::{BulkStore, Disk, PageAddr};
pub use mechanism::{MechError, PageUsage};
pub use parallel::{BulkFreerJob, CoreFreerJob, ParallelConfig, ParallelPageControl, VmAccess};
pub use policy::{ClockPolicy, FifoPolicy, LruPolicy, ReplacePolicy};
pub use segctl::SegControl;
pub use sequential::{FaultResolution, SequentialPageControl};
pub use stats::VmStats;
pub use workload::{RefTrace, TraceConfig};

use mks_hw::{AstIndex, Cycles, FrameId, Machine, SegUid};

/// Bookkeeping for one page resident in primary memory (page control's side
/// table; in real Multics this was the core map).
#[derive(Clone, Copy, Debug)]
pub struct ResidentPage {
    /// AST slot of the owning segment.
    pub astx: AstIndex,
    /// Owning segment uid.
    pub uid: SegUid,
    /// Page number.
    pub page: usize,
    /// When the page was brought in.
    pub loaded_at: Cycles,
    /// Last time the used bit was observed set.
    pub last_used: Cycles,
}

/// The virtual-memory world: the machine plus the lower hierarchy levels and
/// the free lists. Both page-control designs operate on this.
#[derive(Debug)]
pub struct VmWorld {
    /// The machine (primary memory, AST, clock, costs).
    pub machine: Machine,
    /// The bulk store level.
    pub bulk: BulkStore,
    /// The disk level.
    pub disk: Disk,
    /// Free primary-memory frames.
    pub free_frames: Vec<FrameId>,
    /// The core map: pages currently resident, in load order.
    pub resident: Vec<ResidentPage>,
}

impl VmWorld {
    /// Creates a world in which *all* primary frames start free and the bulk
    /// store holds `bulk_records` page records.
    pub fn new(machine: Machine, bulk_records: usize) -> VmWorld {
        let free_frames = (0..machine.mem.nr_frames() as u32)
            .rev()
            .map(FrameId)
            .collect();
        VmWorld {
            machine,
            bulk: BulkStore::new(bulk_records),
            disk: Disk::new(),
            free_frames,
            resident: Vec::new(),
        }
    }

    /// Materializes the activity counters from the flight recorder's
    /// metrics registry. [`VmStats`] is a view: page control writes the
    /// registry (see [`stats::keys`]) and this is the only reader, so
    /// the struct and the registry cannot disagree.
    pub fn stats(&self) -> VmStats {
        self.machine.trace.read(VmStats::from_registry)
    }

    /// Increments one of the [`stats::keys`] counters.
    pub(crate) fn bump(&self, key: &str) {
        self.machine.trace.counter_add(key, 1);
    }

    /// Records the completion of one fault service that took `steps`
    /// distinct actions and `latency` cycles: bumps the fault counter
    /// and feeds both fault-path histograms, as one atomic step —
    /// which is what keeps `VmStats.faults` and the histogram counts
    /// in exact agreement.
    pub(crate) fn record_fault_path(&self, steps: u32, latency: Cycles) {
        let trace = &self.machine.trace;
        trace.counter_add(stats::keys::FAULTS, 1);
        trace.observe(stats::keys::FAULT_STEPS, u64::from(steps));
        trace.observe(stats::keys::FAULT_LATENCY, latency);
        trace.observe_quantile(
            "q.vm.fault_service.all",
            latency,
            None,
            &format!("steps {steps}"),
        );
        trace.event(
            mks_trace::Layer::Vm,
            mks_trace::EventKind::FaultService,
            format!("steps {steps} latency {latency}"),
        );
    }

    /// Takes a free frame if one is available.
    pub fn take_free_frame(&mut self) -> Option<FrameId> {
        self.free_frames.pop()
    }

    /// Returns a frame to the free pool, scrubbing it first so no residue
    /// can leak to the next user (a kernel obligation, not an optimization).
    pub(crate) fn release_frame(&mut self, frame: FrameId) {
        self.machine.mem.zero_frame(frame);
        self.free_frames.push(frame);
    }

    /// Number of free primary frames.
    pub fn nr_free_frames(&self) -> usize {
        self.free_frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mks_hw::CpuModel;

    #[test]
    fn new_world_has_all_frames_free() {
        let w = VmWorld::new(Machine::new(CpuModel::H6180, 16), 32);
        assert_eq!(w.nr_free_frames(), 16);
    }

    #[test]
    fn release_scrubs_frames() {
        let mut w = VmWorld::new(Machine::new(CpuModel::H6180, 2), 4);
        let f = w.take_free_frame().unwrap();
        w.machine.mem.write(f, 0, mks_hw::Word::new(42));
        w.release_frame(f);
        let f2 = w.take_free_frame().unwrap();
        assert_eq!(f2, f);
        assert_eq!(w.machine.mem.read(f2, 0), mks_hw::Word::ZERO);
    }
}
