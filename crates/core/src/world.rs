//! Whole-system state: the kernel's view of everything.
//!
//! [`KernelWorld`] owns the machine, the memory hierarchy, the file system,
//! the gate table, the authentication database and the per-process state;
//! [`System`] couples it with the traffic controller (which cannot live
//! *inside* the world because scheduled jobs receive the world as their
//! mutable context). Per-process state ([`ProcState`]) is the kernel-side
//! record Multics kept for each process: principal, label, ring of
//! execution, descriptor segment, and KST — in whichever configuration the
//! system was assembled with.

use std::rc::Rc;

use mks_fs::{FileSystem, KernelKst, LegacyKst, UserId};
use mks_hw::{AddrSpace, CpuModel, LockId, Machine, RingNo};
use mks_io::interrupts::ProcessInterrupts;
use mks_io::NetworkAttachment;
use mks_linker::kernel_cfg::LegacyLinker;
use mks_linker::user_cfg::UserLinker;
use mks_mls::Label;
use mks_procs::{HasMachine, SchedMode, TcConfig, TrafficController};
use mks_trace::digest::IdMap;
use mks_vm::{
    ClockPolicy, ParallelConfig, ParallelPageControl, SequentialPageControl, VmAccess, VmWorld,
};

use crate::auth::AuthDb;
use crate::config::KernelConfig;
use crate::flaws::FlawRegistry;
use crate::gatetable::GateTable;
use crate::pressure::AdmissionControl;
use crate::statemachine::CommitLog;
use crate::syslog::{AuditEvent, AuditLog};

/// Kernel process identifier (distinct from the traffic controller's
/// scheduling identifier; a kernel process may or may not be scheduled).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct KProcId(pub u32);

/// The per-process KST, per configuration.
#[derive(Debug)]
pub enum KstState {
    /// Post-removal: minimal kernel bindings.
    Kernel(KernelKst),
    /// Pre-removal: the monolithic supervisor object.
    Legacy(Box<LegacyKst>),
}

impl KstState {
    /// The segno↔uid bindings, which both configurations keep in a
    /// [`KernelKst`] (the legacy object wraps one as its `core`).
    pub(crate) fn core(&self) -> &KernelKst {
        match self {
            KstState::Kernel(k) => k,
            KstState::Legacy(k) => &k.core,
        }
    }

    /// Mutable [`KstState::core`].
    pub(crate) fn core_mut(&mut self) -> &mut KernelKst {
        match self {
            KstState::Kernel(k) => k,
            KstState::Legacy(k) => &mut k.core,
        }
    }
}

/// Kernel-side state of one process.
pub struct ProcState {
    /// The logged-in principal.
    pub user: UserId,
    /// The process's mandatory label (fixed at creation).
    pub label: Label,
    /// Current ring of execution.
    pub ring: RingNo,
    /// The descriptor segment.
    pub aspace: AddrSpace,
    /// The known segment table.
    pub kst: KstState,
    /// The user-ring linker (meaningful in the kernel configuration; it is
    /// per-process *private* mechanism).
    pub linker: UserLinker,
    /// `user` rendered once, at creation: the monitor's trace records
    /// and profiled spans share this copy instead of rendering per op.
    principal: Rc<str>,
}

impl ProcState {
    /// The principal as rendered in trace records (`Person.Project.tag`).
    pub fn principal(&self) -> &Rc<str> {
        &self.principal
    }
}

/// Everything the kernel knows.
pub struct KernelWorld {
    /// The assembled configuration.
    pub cfg: KernelConfig,
    /// Machine + memory hierarchy.
    pub vm: VmWorld,
    /// Parallel page-control channels (driven when `cfg.paging` says so).
    pub pc: ParallelPageControl,
    /// Synchronous pager for monitor-level fault service.
    pub pager: SequentialPageControl,
    /// The file-system hierarchy.
    pub fs: FileSystem,
    /// The gate census for this configuration.
    pub gates: GateTable,
    /// The password database.
    pub auth: AuthDb,
    /// The network attachment (the kernel configuration's only I/O).
    pub net: NetworkAttachment,
    /// The interrupt interceptor (process-per-handler design).
    pub interrupts: ProcessInterrupts,
    /// The shared, supervisor-resident linker (legacy configuration).
    pub legacy_linker: LegacyLinker,
    /// The review activity's flaw registry.
    pub flaws: FlawRegistry,
    /// The kernel audit log (append-only).
    pub log: AuditLog,
    /// Overload-resilience state: pressure tuning, per-process priority
    /// classes, and the admission decision log. Disabled by default —
    /// and then a strict no-op on every kernel path.
    pub admission: AdmissionControl,
    /// The sealed commit log (E20). Empty and rooted at 0 on a plain
    /// system; `statemachine::Genesis::build` re-roots it, and every
    /// `KernelStateMachine::apply` seals into it. Read-only here: the
    /// metering gate exports its head digest.
    pub commits: CommitLog,
    /// Replication status (E21): a replica's own view of its role, epoch
    /// and lag, published by `replicate::Cluster` each tick and exported
    /// read-only by the metering gate. `None` on an unreplicated kernel.
    /// Observational only — never folded into the state digest, so
    /// replicas with different vantage points still digest equal.
    pub repl_status: Option<mks_trace::ReplSnapshot>,
    procs: IdMap<KProcId, ProcState>,
    next_pid: u32,
}

impl HasMachine for KernelWorld {
    fn machine(&mut self) -> &mut Machine {
        &mut self.vm.machine
    }
}

impl VmAccess for KernelWorld {
    fn vm_parts(&mut self) -> (&mut VmWorld, &mut ParallelPageControl) {
        (&mut self.vm, &mut self.pc)
    }
}

/// The administrator principal the hierarchy is initialized with.
pub fn admin_user() -> UserId {
    UserId::new("Admin", "SysAdmin", "a")
}

/// A complete system: scheduler plus world.
pub struct System {
    /// The two-layer scheduler.
    pub tc: TrafficController<KernelWorld>,
    /// Everything else.
    pub world: KernelWorld,
}

/// Sizing for a newly built system.
#[derive(Clone, Copy, Debug)]
pub struct SystemSize {
    /// Primary memory frames.
    pub frames: usize,
    /// Bulk-store records.
    pub bulk_records: usize,
    /// Which CPU generation to build on.
    pub cpu: CpuModel,
    /// Trace-ring capacity; `None` means the `mks-trace` default.
    pub trace_capacity: Option<usize>,
}

impl Default for SystemSize {
    fn default() -> SystemSize {
        SystemSize {
            frames: 64,
            bulk_records: 256,
            cpu: CpuModel::H6180,
            trace_capacity: None,
        }
    }
}

impl System {
    /// Builds a system in configuration `cfg` with default sizing.
    pub fn new(cfg: KernelConfig) -> System {
        System::with_size(cfg, SystemSize::default())
    }

    /// Builds a system with explicit memory sizing.
    pub fn with_size(cfg: KernelConfig, size: SystemSize) -> System {
        let mut tc = TrafficController::new(TcConfig {
            nr_cpus: 2,
            nr_vprocs: 8,
            quantum: 8,
            sched: SchedMode::GlobalQueue,
        });
        let machine = Machine::with_trace_capacity(size.cpu, size.frames, size.trace_capacity);
        let vm = VmWorld::new(machine, size.bulk_records);
        let pc = ParallelPageControl::new(ParallelConfig::default(), &mut tc);
        let mut fs = FileSystem::new(&admin_user());
        fs.set_trace(vm.machine.trace.clone());
        fs.set_inject(vm.machine.inject.clone());
        let world = KernelWorld {
            cfg,
            vm,
            pc,
            pager: SequentialPageControl::new(Box::new(ClockPolicy::default())),
            fs,
            gates: GateTable::build(&cfg),
            auth: AuthDb::new(),
            net: NetworkAttachment::new(),
            interrupts: ProcessInterrupts::new(),
            legacy_linker: LegacyLinker::new(),
            flaws: FlawRegistry::new(),
            log: AuditLog::new(),
            admission: AdmissionControl::disabled(),
            commits: CommitLog::new(),
            repl_status: None,
            procs: IdMap::default(),
            next_pid: 1,
        };
        System { tc, world }
    }
}

impl KernelWorld {
    /// Creates a kernel process record for `user` at `label` in `ring`.
    pub fn create_process(&mut self, user: UserId, label: Label, ring: RingNo) -> KProcId {
        let pid = KProcId(self.next_pid);
        self.next_pid += 1;
        let kst = match self.cfg.naming {
            crate::config::NamingConfig::UserRing => {
                let mut k = KernelKst::new();
                k.set_trace(self.vm.machine.trace.clone());
                mks_fs::kst::bind_root(&mut k);
                KstState::Kernel(k)
            }
            crate::config::NamingConfig::InKernel => {
                let mut k = Box::new(LegacyKst::new());
                k.core.set_trace(self.vm.machine.trace.clone());
                KstState::Legacy(k)
            }
        };
        let mut aspace = AddrSpace::new();
        aspace.reserve_low(mks_fs::kst::FIRST_USER_SEGNO);
        self.procs.insert(
            pid,
            ProcState {
                principal: user.to_acl_string().into(),
                user,
                label,
                ring,
                aspace,
                kst,
                linker: UserLinker::new(),
            },
        );
        pid
    }

    /// Borrows a process record.
    ///
    /// # Panics
    /// Panics on an unknown pid — process ids are kernel-internal and never
    /// accepted from user input, so a bad one is a kernel bug.
    pub fn proc(&self, pid: KProcId) -> &ProcState {
        self.procs.get(&pid).expect("unknown kernel process")
    }

    /// Mutably borrows a process record.
    pub fn proc_mut(&mut self, pid: KProcId) -> &mut ProcState {
        self.procs.get_mut(&pid).expect("unknown kernel process")
    }

    /// True when `pid` names a live process record. The replay
    /// dispatcher uses this to refuse (rather than panic on) commits
    /// whose acting process does not exist — a log under replay is
    /// external data, so a dangling pid must be a typed verdict.
    pub fn has_proc(&self, pid: KProcId) -> bool {
        self.procs.contains_key(&pid)
    }

    /// Destroys a process record, returning it.
    pub fn destroy_process(&mut self, pid: KProcId) -> Option<ProcState> {
        self.procs.remove(&pid)
    }

    /// Number of live processes.
    pub fn nr_processes(&self) -> usize {
        self.procs.len()
    }

    /// Appends a security-relevant record to the kernel audit log — the
    /// single choke point every kernel-side append goes through.
    ///
    /// Two fault-injection sites live here: `SkewClock` may warp the
    /// timestamp the log sees (never the clock itself), and `AuditFlood`
    /// stuffs the log with synthetic lifecycle noise *before* the real
    /// record, modeling a review log drowning under event storms. The real
    /// record is always appended — flooding delays review, it never erases
    /// evidence.
    pub fn audit(&mut self, who: Option<UserId>, event: AuditEvent) -> u64 {
        let _log = self.vm.machine.locks.hold(LockId::AuditLog);
        let at = self.vm.machine.clock.now();
        let at = self.vm.machine.inject.warp_time(at);
        if let Some(detail) = self.vm.machine.inject.fires(mks_hw::InjectKind::AuditFlood) {
            let noise = 1 + detail % 8;
            self.vm.machine.trace.counter_add("inject.audit_floods", 1);
            // Batched emission: one log growth for the whole storm.
            self.log.append_batch(
                at,
                (0..noise).map(|i| {
                    (
                        None,
                        AuditEvent::Lifecycle {
                            what: format!("flood noise {i}"),
                        },
                    )
                }),
            );
        }
        // Observatory tap: the analytics see the same stream the log
        // does, classified, at the same (possibly warped) timestamp.
        self.vm.machine.trace.ingest_audit(&mks_trace::AuditSample {
            at,
            principal: who.as_ref().map(|u| u.to_acl_string()),
            kind: Self::classify_audit(&event),
        });
        self.log.append(at, who, event)
    }

    /// How the observatory buckets an audit event.
    fn classify_audit(event: &AuditEvent) -> mks_trace::AuditKind {
        match event {
            AuditEvent::AccessDenied { .. } => mks_trace::AuditKind::Denial,
            AuditEvent::Overload { .. } => mks_trace::AuditKind::Overload,
            AuditEvent::ProtectionFault { .. } | AuditEvent::GateRefused { .. } => {
                mks_trace::AuditKind::Fault
            }
            _ => mks_trace::AuditKind::Other,
        }
    }

    /// Batched audit emission for high-rate paths (login churn, the E18
    /// traffic driver): every record is classified and tapped into the
    /// observatory exactly as [`KernelWorld::audit`] does, at one shared
    /// timestamp, and the log grows once for the whole batch. On an
    /// uninjected world a batch of N is byte-identical to N single
    /// `audit` calls at the same instant — a machine-checked E18 claim.
    /// (The `SkewClock`/`AuditFlood` injection sites are consulted once
    /// per *batch* rather than once per record.)
    pub fn audit_batch(&mut self, batch: Vec<(Option<UserId>, AuditEvent)>) -> u64 {
        let _log = self.vm.machine.locks.hold(LockId::AuditLog);
        let at = self.vm.machine.clock.now();
        let at = self.vm.machine.inject.warp_time(at);
        if let Some(detail) = self.vm.machine.inject.fires(mks_hw::InjectKind::AuditFlood) {
            let noise = 1 + detail % 8;
            self.vm.machine.trace.counter_add("inject.audit_floods", 1);
            self.log.append_batch(
                at,
                (0..noise).map(|i| {
                    (
                        None,
                        AuditEvent::Lifecycle {
                            what: format!("flood noise {i}"),
                        },
                    )
                }),
            );
        }
        for (who, event) in &batch {
            self.vm.machine.trace.ingest_audit(&mks_trace::AuditSample {
                at,
                principal: who.as_ref().map(|u| u.to_acl_string()),
                kind: Self::classify_audit(event),
            });
        }
        self.log.append_batch(at, batch)
    }

    /// Binds the root directory into `pid`'s KST and returns its segment
    /// number (done implicitly at process creation in real Multics; an
    /// explicit call here so tests and examples read naturally).
    pub fn bind_root(&mut self, pid: KProcId) -> mks_hw::SegNo {
        let kst = self.proc_mut(pid).kst.core_mut();
        kst.bind(FileSystem::ROOT, true)
    }

    /// Split borrow: the file system (shared) plus every live process
    /// record (mutable), in no particular order. Used by revocation to
    /// retract descriptors system-wide: each process's descriptor is
    /// recomputed on its own, so the walk order is unobservable.
    pub(crate) fn fs_and_procs_mut(
        &mut self,
    ) -> (&FileSystem, impl Iterator<Item = &mut ProcState>) {
        (&self.fs, self.procs.values_mut())
    }

    /// Split borrow: the file system (mutable) plus one process (shared).
    /// The mutation gates hand the caller's principal to the hierarchy
    /// without copying it.
    pub(crate) fn fs_mut_and_proc(&mut self, pid: KProcId) -> (&mut FileSystem, &ProcState) {
        let p = self.procs.get(&pid).expect("unknown kernel process");
        (&mut self.fs, p)
    }

    /// Split borrow: the file system (shared) plus one process (mutable).
    /// Used by the monitor to run user-ring path resolution, which reads
    /// the hierarchy while binding KST entries.
    pub(crate) fn fs_and_proc_mut(&mut self, pid: KProcId) -> (&FileSystem, &mut ProcState) {
        let fs = &self.fs;
        let p = self.procs.get_mut(&pid).expect("unknown kernel process");
        (fs, p)
    }

    /// Split borrow: the memory world (mutable) plus one process (mutable).
    pub(crate) fn vm_and_proc_mut(&mut self, pid: KProcId) -> (&mut VmWorld, &mut ProcState) {
        let vm = &mut self.vm;
        let p = self.procs.get_mut(&pid).expect("unknown kernel process");
        (vm, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_builds_in_both_configurations() {
        for cfg in [KernelConfig::legacy(), KernelConfig::kernel()] {
            let sys = System::new(cfg);
            assert_eq!(sys.world.nr_processes(), 0);
            assert!(sys.world.gates.total_entries() > 0);
        }
    }

    #[test]
    fn process_kst_matches_configuration() {
        let mut sys = System::new(KernelConfig::kernel());
        let pid = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
        assert!(matches!(sys.world.proc(pid).kst, KstState::Kernel(_)));

        let mut sys = System::new(KernelConfig::legacy());
        let pid = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
        assert!(matches!(sys.world.proc(pid).kst, KstState::Legacy(_)));
    }

    #[test]
    fn destroy_removes_the_record() {
        let mut sys = System::new(KernelConfig::kernel());
        let pid = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
        assert!(sys.world.destroy_process(pid).is_some());
        assert!(sys.world.destroy_process(pid).is_none());
        assert_eq!(sys.world.nr_processes(), 0);
    }

    #[test]
    fn pids_are_never_reused() {
        let mut sys = System::new(KernelConfig::kernel());
        let a = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
        sys.world.destroy_process(a);
        let b = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
        assert_ne!(a, b);
    }
}
