//! Overload resilience: pressure gauges, priority classes, and admission
//! control at the kernel's gate layer.
//!
//! Schroeder's auditability argument is hollow if the kernel can be
//! wedged by a quota storm or a page-frame famine: a supervisor that
//! stalls or panics under hostile load has lost its invariants just as
//! surely as one that leaks a segment. This module gives the kernel a
//! *graceful degradation* posture instead:
//!
//! * [`read_pressure`] computes per-resource **pressure gauges** (page
//!   frames, AST occupancy, traffic-controller run slots, the root quota
//!   cell, audit-log headroom) directly from kernel state, in permille;
//! * every kernel process carries a [`Priority`] class (default
//!   [`Priority::Normal`]), and each class has an admission threshold —
//!   strictly increasing with priority, so under rising pressure the
//!   kernel **sheds lowest-priority work first**, provably: a class is
//!   refused only at pressures where every lower class is also refused;
//! * a shed request gets a typed
//!   [`AccessError::Overload`](crate::monitor::AccessError::Overload)
//!   refusal — audited, never a stall, never a panic;
//! * admitted requests may carry a **deadline** (trace-clock cycles);
//!   bounded retry paths (paging famine, quota storms) give up with the
//!   same typed refusal once the deadline passes.
//!
//! The whole layer is **disabled by default** and is then a strict
//! no-op: [`AdmissionControl::disabled`] admits everything without
//! reading a gauge or writing a metric, so a system that never calls
//! [`AdmissionControl::enable`] is behavior-identical to one built
//! before this module existed (machine-checked by the differential test
//! in `tests/overload_resilience.rs`).

use mks_hw::Cycles;
use mks_trace::digest::IdMap;

use crate::world::{KProcId, KernelWorld};

/// Priority classes for kernel gate calls, lowest first. The discriminant
/// order *is* the shed order: under pressure, `Background` is refused
/// first and `System` last (by default, never).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Priority {
    /// Bulk, deferrable work (backup sweeps, absentee jobs).
    Background = 0,
    /// Ordinary interactive computing — the default class.
    Normal = 1,
    /// Latency-sensitive sessions (the operator's terminal).
    Interactive = 2,
    /// Kernel housekeeping and the answering service: never shed.
    System = 3,
}

/// Number of [`Priority`] classes.
pub const NR_PRIORITIES: usize = 4;

impl Priority {
    /// Every class, lowest (shed-first) to highest.
    pub const ALL: [Priority; NR_PRIORITIES] = [
        Priority::Background,
        Priority::Normal,
        Priority::Interactive,
        Priority::System,
    ];

    /// Stable lower-case name, used in metrics and reports.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Background => "background",
            Priority::Normal => "normal",
            Priority::Interactive => "interactive",
            Priority::System => "system",
        }
    }

    /// The class's index in discriminant order.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The resources the pressure gauges track.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resource {
    /// Primary-memory cascade saturation: core occupancy blended with
    /// bulk-store occupancy (a full core behind an empty bulk store is
    /// healthy demand paging; a full core behind a full bulk store is
    /// imminent famine).
    Frames = 0,
    /// Active-segment-table occupancy against the configured soft cap
    /// (the simulated AST grows unboundedly, so the cap supplies the
    /// "table full" notion real hardware imposed).
    AstSlots = 1,
    /// Traffic-controller shared run slots (fed externally via
    /// [`AdmissionControl::set_run_slots`]; zero pressure until fed).
    RunSlots = 2,
    /// The root quota cell's used fraction — the storage system's
    /// aggregate headroom.
    Quota = 3,
    /// Audit-log length against the configured cap: a flooded log is a
    /// review activity that can no longer keep up.
    AuditHeadroom = 4,
}

/// Number of tracked [`Resource`]s.
const NR_RESOURCES: usize = 5;

impl Resource {
    /// Every resource, in discriminant order.
    pub const ALL: [Resource; NR_RESOURCES] = [
        Resource::Frames,
        Resource::AstSlots,
        Resource::RunSlots,
        Resource::Quota,
        Resource::AuditHeadroom,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Resource::Frames => "frames",
            Resource::AstSlots => "ast-slots",
            Resource::RunSlots => "run-slots",
            Resource::Quota => "quota",
            Resource::AuditHeadroom => "audit-headroom",
        }
    }

    /// The flight-recorder gauge name (`pressure.<resource>`), published
    /// as histogram observations so `hcs_$metering_get` exports the
    /// distribution.
    pub(crate) fn gauge_name(self) -> &'static str {
        match self {
            Resource::Frames => "pressure.frames",
            Resource::AstSlots => "pressure.ast_slots",
            Resource::RunSlots => "pressure.run_slots",
            Resource::Quota => "pressure.quota",
            Resource::AuditHeadroom => "pressure.audit_headroom",
        }
    }
}

/// Tuning for the pressure layer. All thresholds are in permille of
/// utilization (0 = idle, 1000 = exhausted).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PressureConfig {
    /// Soft capacity for AST occupancy (the simulated table is unbounded;
    /// this supplies the exhaustion point).
    pub ast_soft_cap: usize,
    /// Audit-log record count treated as a full log.
    pub audit_cap: usize,
    /// Admission threshold per priority class, indexed by
    /// [`Priority::index`]. A call of class `p` is admitted iff the peak
    /// pressure is *below* `shed_permille[p]`. Must be non-decreasing in
    /// priority so shedding is lowest-priority-first; a value above 1000
    /// means "never shed".
    pub shed_permille: [u32; NR_PRIORITIES],
    /// Deadline budget granted to each admitted call, if any: the call's
    /// deadline is `now + budget` on the trace clock, and bounded retry
    /// paths refuse with `Overload` once it passes.
    pub deadline_budget: Option<Cycles>,
}

/// One pressure reading: per-resource utilization in permille.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PressureReading {
    /// Utilization per resource, indexed in [`Resource::ALL`] order.
    pub permille: [u32; NR_RESOURCES],
}

impl PressureReading {
    /// The peak pressure across all resources — the number admission
    /// decisions are made on.
    pub fn peak(&self) -> u32 {
        self.permille.iter().copied().fold(0, u32::max)
    }
}

fn permille(used: usize, capacity: usize) -> u32 {
    if capacity == 0 {
        return 0;
    }
    ((used.min(capacity) as u64 * 1000) / capacity as u64) as u32
}

/// Computes the current pressure gauges from kernel state. Pure
/// observation: reads counters and table sizes, moves no clock, writes no
/// metric.
pub fn read_pressure(world: &KernelWorld) -> PressureReading {
    let cfg = &world.admission.cfg;
    // Primary-memory pressure is *cascade saturation*, not occupancy: a
    // demand-paged kernel keeps its free pool near empty by design, so a
    // full core alone is healthy. Famine risk is real when the bulk store
    // behind it is also filling — eviction then cascades to disk on every
    // fault. Blend the two levels so the gauge rises smoothly toward 1000
    // as the whole hierarchy saturates.
    let total_frames = world.vm.machine.mem.nr_frames();
    let free_frames = world.vm.nr_free_frames();
    let core = permille(total_frames.saturating_sub(free_frames), total_frames);
    let bulk_cap = world.vm.bulk.capacity();
    let bulk = permille(bulk_cap - world.vm.bulk.free_records(), bulk_cap);
    let frames = (core + bulk) / 2;
    let ast = permille(world.vm.machine.ast.nr_active(), cfg.ast_soft_cap);
    let run_slots = match world.admission.run_slots {
        Some((used, total)) => permille(used, total),
        None => 0,
    };
    let quota = match world.fs.quota_cell(mks_fs::FileSystem::ROOT) {
        Ok(Some(cell)) => permille(cell.used_pages as usize, cell.limit_pages as usize),
        _ => 0,
    };
    let audit = permille(world.log.len(), cfg.audit_cap);
    PressureReading {
        permille: [frames, ast, run_slots, quota, audit],
    }
}

/// One admission decision, recorded for the shed-order checks: the
/// experiment and the sweep prove that no lower-priority request was
/// admitted at a pressure at or above one where a higher-priority request
/// was shed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AdmissionDecision {
    /// The caller's priority class.
    pub priority: Priority,
    /// Peak pressure (permille) at decision time.
    pub pressure: u32,
    /// Whether the call was admitted.
    pub admitted: bool,
}

/// Admission-control state: per-process priorities, the externally fed
/// run-slot gauge, and the decision log. Lives on [`KernelWorld`];
/// **disabled by default**, in which state every query is a constant-time
/// no-op.
#[derive(Clone, Debug, Default)]
pub struct AdmissionControl {
    enabled: bool,
    /// The active tuning (gauge caps, shed thresholds, deadline budget).
    pub cfg: PressureConfig,
    priorities: IdMap<KProcId, Priority>,
    run_slots: Option<(usize, usize)>,
    decisions: Vec<AdmissionDecision>,
    admitted_by_class: [u64; NR_PRIORITIES],
    shed_by_class: [u64; NR_PRIORITIES],
}

impl Default for PressureConfig {
    /// Background sheds at 60% utilization, Normal at 75%, Interactive at
    /// 90%, System never.
    fn default() -> PressureConfig {
        PressureConfig {
            ast_soft_cap: 96,
            audit_cap: 4096,
            shed_permille: [600, 750, 900, 1001],
            deadline_budget: None,
        }
    }
}

impl AdmissionControl {
    /// A disabled controller (identical to `Default`): admits everything,
    /// reads nothing, records nothing.
    pub fn disabled() -> AdmissionControl {
        AdmissionControl::default()
    }

    /// Arms admission control with `cfg`.
    ///
    /// # Panics
    /// Panics if the shed thresholds are not non-decreasing in priority —
    /// a configuration that would shed high-priority work before low
    /// would silently break the lowest-priority-first guarantee.
    pub fn enable(&mut self, cfg: PressureConfig) {
        assert!(
            cfg.shed_permille.windows(2).all(|w| w[0] <= w[1]),
            "shed thresholds must be non-decreasing in priority: {:?}",
            cfg.shed_permille
        );
        self.enabled = true;
        self.cfg = cfg;
    }

    /// True when the layer is armed.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Assigns `pid`'s priority class (processes default to
    /// [`Priority::Normal`]).
    pub fn set_priority(&mut self, pid: KProcId, priority: Priority) {
        self.priorities.insert(pid, priority);
    }

    /// The class `pid`'s gate calls are admitted under.
    pub(crate) fn priority_of(&self, pid: KProcId) -> Priority {
        self.priorities
            .get(&pid)
            .copied()
            .unwrap_or(Priority::Normal)
    }

    /// Feeds the traffic-controller run-slot gauge (`used` of `total`
    /// shared slots occupied). The scheduler cannot be read from inside a
    /// gate call, so whoever drives the system publishes its census here.
    pub fn set_run_slots(&mut self, used: usize, total: usize) {
        self.run_slots = Some((used, total));
    }

    /// Decides admission for a call of class `priority` at `pressure`
    /// permille, recording the decision. `true` = admitted.
    pub fn decide(&mut self, priority: Priority, pressure: u32) -> bool {
        let admitted = pressure < self.cfg.shed_permille[priority.index()];
        self.decisions.push(AdmissionDecision {
            priority,
            pressure,
            admitted,
        });
        if admitted {
            self.admitted_by_class[priority.index()] += 1;
        } else {
            self.shed_by_class[priority.index()] += 1;
        }
        admitted
    }

    /// Every admission decision, oldest first.
    pub fn decisions(&self) -> &[AdmissionDecision] {
        &self.decisions
    }

    /// Admitted calls per class, indexed by [`Priority::index`].
    #[cfg(test)]
    fn admitted_by_class(&self) -> [u64; NR_PRIORITIES] {
        self.admitted_by_class
    }

    /// Shed calls per class, indexed by [`Priority::index`].
    pub fn shed_by_class(&self) -> [u64; NR_PRIORITIES] {
        self.shed_by_class
    }

    /// Counts **priority inversions** in the decision log: pairs where a
    /// *lower*-priority call was admitted at a pressure at or above one
    /// where a *higher*-priority call was shed. Zero is the
    /// lowest-priority-first guarantee; with monotone thresholds it is
    /// zero by construction, and this check proves it from the record
    /// rather than the implementation.
    pub fn priority_inversions(&self) -> u64 {
        let mut inversions = 0;
        for shed in self.decisions.iter().filter(|d| !d.admitted) {
            for adm in self.decisions.iter().filter(|d| d.admitted) {
                if adm.priority < shed.priority && adm.pressure >= shed.pressure {
                    inversions += 1;
                }
            }
        }
        inversions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;
    use crate::world::{admin_user, System};
    use mks_mls::Label;

    #[test]
    fn disabled_controller_admits_everything_and_records_nothing() {
        let ac = AdmissionControl::disabled();
        assert!(!ac.is_enabled());
        assert!(ac.decisions().is_empty());
        assert_eq!(ac.priority_of(KProcId(1)), Priority::Normal);
    }

    #[test]
    fn monotone_thresholds_shed_lowest_priority_first() {
        let mut ac = AdmissionControl::disabled();
        ac.enable(PressureConfig::default());
        // At 80% pressure: Background and Normal shed, Interactive and
        // System admitted.
        assert!(!ac.decide(Priority::Background, 800));
        assert!(!ac.decide(Priority::Normal, 800));
        assert!(ac.decide(Priority::Interactive, 800));
        assert!(ac.decide(Priority::System, 800));
        // System survives total exhaustion.
        assert!(ac.decide(Priority::System, 1000));
        assert_eq!(ac.priority_inversions(), 0);
        assert_eq!(ac.shed_by_class(), [1, 1, 0, 0]);
        assert_eq!(ac.admitted_by_class(), [0, 0, 1, 2]);
    }

    #[test]
    fn inversion_counter_detects_a_violation() {
        let mut ac = AdmissionControl::disabled();
        ac.enable(PressureConfig::default());
        // Hand-build an inverted log: high priority shed at 500, low
        // priority admitted at 500.
        ac.decisions.push(AdmissionDecision {
            priority: Priority::Interactive,
            pressure: 500,
            admitted: false,
        });
        ac.decisions.push(AdmissionDecision {
            priority: Priority::Background,
            pressure: 500,
            admitted: true,
        });
        assert_eq!(ac.priority_inversions(), 1);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_thresholds_are_rejected() {
        let mut ac = AdmissionControl::disabled();
        ac.enable(PressureConfig {
            shed_permille: [900, 750, 600, 1001],
            ..PressureConfig::default()
        });
    }

    #[test]
    fn pressure_reading_tracks_frame_consumption() {
        let mut sys = System::new(KernelConfig::kernel());
        let before = read_pressure(&sys.world);
        let pid = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
        let root = sys.world.bind_root(pid);
        // Paging traffic consumes frames; the gauge must move.
        let seg = crate::monitor::Monitor::create_segment(
            &mut sys.world,
            pid,
            root,
            "hog",
            mks_fs::Acl::of("*.*.*", mks_fs::AclMode::RW),
            mks_hw::RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap();
        crate::monitor::Monitor::write(&mut sys.world, pid, seg, 0, mks_hw::Word::new(1)).unwrap();
        let after = read_pressure(&sys.world);
        let fi = Resource::Frames as usize;
        assert!(after.permille[fi] > before.permille[fi]);
        assert!(after.peak() <= 1000);
    }

    #[test]
    fn run_slot_gauge_is_externally_fed() {
        let mut sys = System::new(KernelConfig::kernel());
        sys.world.admission.enable(PressureConfig::default());
        assert_eq!(
            read_pressure(&sys.world).permille[Resource::RunSlots as usize],
            0
        );
        sys.world.admission.set_run_slots(6, 8);
        assert_eq!(
            read_pressure(&sys.world).permille[Resource::RunSlots as usize],
            750
        );
    }
}
