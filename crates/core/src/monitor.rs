//! The reference monitor: every acquisition of access is mediated here.
//!
//! The kernel's security argument has exactly one shape: a process can
//! touch a word of a segment **only** through an SDW in its descriptor
//! segment, and SDWs are installed **only** by this module, which checks
//!
//! 1. the **mandatory** (Mitre-model) rules first — no read up, no write
//!    down — when the configuration runs the MLS layer;
//! 2. the **discretionary** ACL of the branch;
//! 3. and then lets the *hardware* enforce the result on every reference,
//!    via the mode bits and ring brackets it writes into the SDW.
//!
//! Refusals are deliberately uninformative ([`AccessError::NoInfo`]): a
//! process not entitled to a segment is not entitled to know whether the
//! segment exists either — the same principle as the KST's phantom
//! directories.

use std::fmt::{Display, Write as _};

use mks_fs::kst::kernel_initiate_dir;
use mks_fs::pathres::{parse_path, DirInitiator};
use mks_fs::{Acl, AclMode, BranchKind, FsError, LegacyKstError, QuotaCell, QuotaError};
use mks_hw::{
    AccessType, Backoff, BackoffPolicy, Cycles, Fault, RingBrackets, SegNo, SegUid, Word,
};
use mks_mls::{mls_check, AccessKind, Label, MlsDenied};
use mks_vm::{MechError, SegControl};

use crate::config::NamingConfig;
use crate::pressure::{read_pressure, Priority, Resource};
use crate::world::{KProcId, KernelWorld, KstState};

/// Monitor refusals and failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AccessError {
    /// The caller is not entitled to any information about the target
    /// (covers: no such entry, no access, wrong kind, phantom directory).
    NoInfo,
    /// A hardware fault that could not be serviced transparently.
    Fault(Fault),
    /// A file-system refusal on an operation the caller *was* entitled to
    /// attempt (e.g. creating over an existing name).
    Fs(FsError),
    /// A mandatory-policy denial surfaced on an explicit label operation.
    Mls(MlsDenied),
    /// Page-control mechanism refusal that could not be recovered.
    Mech(MechError),
    /// Legacy naming error (legacy configuration only — and an existence
    /// oracle, which is the point of comparing the two).
    Legacy(LegacyKstError),
    /// A quota cell refused the charge (record quota overflow).
    Quota(QuotaError),
    /// Bad pathname syntax.
    BadPath,
    /// No such gate or entry point.
    UnknownGate,
    /// The caller's ring may not call that gate.
    GateDenied,
    /// Admission control shed the call under resource pressure: the peak
    /// pressure (permille) that triggered the refusal. Typed, audited, and
    /// retryable — the graceful alternative to stalling or panicking.
    Overload(u32),
}

impl core::fmt::Display for AccessError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AccessError::NoInfo => write!(f, "no information"),
            AccessError::Fault(x) => write!(f, "fault: {x}"),
            AccessError::Fs(x) => write!(f, "file system: {x}"),
            AccessError::Mls(x) => write!(f, "mandatory policy: {x}"),
            AccessError::Mech(x) => write!(f, "page control: {x}"),
            AccessError::Legacy(x) => write!(f, "legacy naming: {x}"),
            AccessError::Quota(x) => write!(f, "quota: {x}"),
            AccessError::BadPath => write!(f, "bad pathname"),
            AccessError::UnknownGate => write!(f, "unknown gate or entry"),
            AccessError::GateDenied => write!(f, "gate not callable from this ring"),
            AccessError::Overload(p) => {
                write!(f, "shed under resource pressure ({p} permille)")
            }
        }
    }
}

impl std::error::Error for AccessError {}

/// Declares the operations the monitor profiles: each op's span (layer
/// and label) and its row of static `q.monitor.<op>.<class>` sketch
/// names, one per [`Priority`] class in [`Priority::ALL`] order. The
/// names are literals, so opening a profiled span formats nothing.
macro_rules! monitor_ops {
    ($($op:ident $name:literal => $layer:ident $label:literal,)+) => {
        /// A gated operation with a profiled span and a sketch family.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum MonitorOp {
            $(#[doc = $name] $op,)+
        }

        impl MonitorOp {
            /// Every profiled operation.
            pub const ALL: &'static [MonitorOp] = &[$(MonitorOp::$op),+];

            /// The op's name, as it appears in its sketch names.
            pub fn name(self) -> &'static str {
                match self {
                    $(MonitorOp::$op => $name,)+
                }
            }

            /// The layer and label of the op's profiled span.
            fn span_site(self) -> (mks_trace::Layer, &'static str) {
                match self {
                    $(MonitorOp::$op => (mks_trace::Layer::$layer, $label),)+
                }
            }

            /// The quantile sketch the op's spans land in for callers of
            /// priority `class`: `q.monitor.<op>.<class>`.
            pub fn sketch_name(self, class: Priority) -> &'static str {
                let row = match self {
                    $(MonitorOp::$op => [
                        concat!("q.monitor.", $name, ".background"),
                        concat!("q.monitor.", $name, ".normal"),
                        concat!("q.monitor.", $name, ".interactive"),
                        concat!("q.monitor.", $name, ".system"),
                    ],)+
                };
                row[class.index()]
            }
        }
    };
}

monitor_ops! {
    Initiate "initiate" => Hw "gate.initiate_segno",
    InitiateDir "initiate_dir" => Hw "gate.initiate_dir_segno",
    InitiatePath "initiate_path" => Hw "gate.initiate_path",
    CreateSegment "create_segment" => Monitor "monitor.create_segment",
    QuotaGet "quota_get" => Monitor "monitor.quota_get",
    SetQuota "set_quota" => Monitor "monitor.set_quota",
    DeleteSegment "delete_segment" => Monitor "monitor.delete_segment",
    CreateDirectory "create_directory" => Monitor "monitor.create_directory",
    ListDir "list_dir" => Monitor "monitor.list_dir",
    Status "status" => Monitor "monitor.status",
    SetSegmentAcl "set_segment_acl" => Monitor "monitor.set_segment_acl",
    Terminate "terminate" => Hw "gate.terminate_segno",
    Read "read" => Monitor "monitor.read",
    Write "write" => Monitor "monitor.write",
    CallGate "call_gate" => Monitor "monitor.call_gate",
}

/// The reference monitor (stateless; all state is in the world).
pub struct Monitor;

/// Mode bits granted after combining the ACL with the mandatory rules.
fn combine(acl_mode: AclMode, subject: &Label, object: &Label, mls_on: bool) -> mks_hw::AccessMode {
    let read_ok = !mls_on || mls_check(subject, object, AccessKind::Read).is_ok();
    let write_ok = !mls_on || mls_check(subject, object, AccessKind::Write).is_ok();
    mks_hw::AccessMode {
        read: acl_mode.read && read_ok,
        write: acl_mode.write && write_ok,
        execute: acl_mode.execute && read_ok,
    }
}

/// Everything the monitor needs to know about a branch to grant access.
#[derive(Clone, Debug)]
struct GrantTarget {
    uid: SegUid,
    len_words: usize,
    brackets: RingBrackets,
    mode: mks_hw::AccessMode,
}

/// What `status_long` reveals about a branch (to a caller entitled to it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchStatus {
    /// All entry names (primary first).
    pub names: Vec<String>,
    /// Directory or segment.
    pub is_directory: bool,
    /// Segment length in words (0 for directories).
    pub len_words: usize,
    /// Ring brackets (segments only).
    pub brackets: Option<RingBrackets>,
    /// Mandatory label.
    pub label: mks_mls::Label,
    /// Creating principal.
    pub author: String,
}

impl Monitor {
    /// Records a reference-monitor verdict in the flight recorder: one
    /// `Verdict` event attributed to the calling principal, plus the
    /// `monitor.granted` / `monitor.denied` counter.
    fn verdict(world: &KernelWorld, pid: KProcId, what: impl Display, granted: bool) {
        let t = &world.vm.machine.trace;
        let outcome = if granted { "granted" } else { "denied" };
        t.counter_add(
            if granted {
                "monitor.granted"
            } else {
                "monitor.denied"
            },
            1,
        );
        // Rendered into one buffer sized for a verdict line: `format!`
        // would regrow it piecewise, since `what` is itself formatted.
        let mut detail = String::with_capacity(64);
        let _ = write!(detail, "{what}: {outcome}");
        t.event_for(
            mks_trace::Layer::Monitor,
            mks_trace::EventKind::Verdict,
            world.proc(pid).principal().clone(),
            detail,
        );
    }

    /// Admission control at the gate layer. With admission **disabled**
    /// (the default) this is a strict no-op: no gauge is read, no metric
    /// written, no record appended — the differential test pins that.
    ///
    /// When enabled: reads the pressure gauges, publishes them to the
    /// flight recorder, and decides by the caller's priority class. An
    /// admitted call gets back its deadline (if the config grants one);
    /// a shed call gets an audited, typed [`AccessError::Overload`] —
    /// the kernel refuses *now* rather than stall, panic, or silently
    /// queue unbounded work. Every decision — admit or shed — is recorded
    /// as a reference-monitor verdict, so mediation of admitted requests
    /// is checkable from the trace.
    ///
    /// `what` is rendered only when a decision is recorded, so a
    /// disabled admission layer formats nothing.
    fn admit(
        world: &mut KernelWorld,
        pid: KProcId,
        what: impl Display,
    ) -> Result<Option<Cycles>, AccessError> {
        if !world.admission.is_enabled() {
            return Ok(None);
        }
        let reading = read_pressure(world);
        for (i, r) in Resource::ALL.iter().enumerate() {
            world
                .vm
                .machine
                .trace
                .observe(r.gauge_name(), Cycles::from(reading.permille[i]));
        }
        let priority = world.admission.priority_of(pid);
        let peak = reading.peak();
        let admitted = world.admission.decide(priority, peak);
        Self::verdict(world, pid, format_args!("admit {what}"), admitted);
        if admitted {
            world.vm.machine.trace.counter_add("admission.admitted", 1);
            let deadline = world
                .admission
                .cfg
                .deadline_budget
                .map(|b| world.vm.machine.clock.now().saturating_add(b));
            Ok(deadline)
        } else {
            world.vm.machine.trace.counter_add("admission.shed", 1);
            let who = world.proc(pid).user.clone();
            world.audit(
                Some(who),
                crate::syslog::AuditEvent::Overload {
                    what: what.to_string(),
                    pressure_permille: peak,
                },
            );
            Err(AccessError::Overload(peak))
        }
    }

    /// Opens the profiled span for one gated operation. On close (any
    /// exit path — the guard drops), the span's inclusive cycles land in
    /// the `q.monitor.<op>.<class>` quantile sketch, where the class is
    /// the caller's admission priority, with the calling principal riding
    /// into the sketch's exemplar reservoir — so a tail latency in a
    /// snapshot names who paid it.
    #[must_use = "the profiled span closes when the guard drops"]
    fn op_span(world: &KernelWorld, pid: KProcId, op: MonitorOp) -> mks_trace::SpanGuard {
        let (layer, label) = op.span_site();
        let sketch = op.sketch_name(world.admission.priority_of(pid));
        let principal = Some(world.proc(pid).principal().clone());
        world
            .vm
            .machine
            .trace
            .span_profiled(layer, label, sketch, principal)
    }

    /// Refuses an operation whose bounded retries ran out (or whose
    /// deadline passed): audits the give-up as an `Overload` record and
    /// counts it, so backpressure is reviewable, never silent.
    fn overload_refusal(world: &mut KernelWorld, pid: KProcId, what: &str) -> AccessError {
        let peak = read_pressure(world).peak();
        world.vm.machine.trace.counter_add("admission.overload", 1);
        let who = world.proc(pid).user.clone();
        world.audit(
            Some(who),
            crate::syslog::AuditEvent::Overload {
                what: what.to_string(),
                pressure_permille: peak,
            },
        );
        AccessError::Overload(peak)
    }

    /// Looks up the branch `name` in the *real* directory `dir_uid` and
    /// computes the access `pid` would get. Returns `NoInfo` unless the
    /// caller ends up with at least one mode bit.
    fn resolve_target(
        world: &KernelWorld,
        pid: KProcId,
        dir_uid: SegUid,
        name: &str,
    ) -> Result<GrantTarget, AccessError> {
        let proc = world.proc(pid);
        let Some(branch) = world.fs.peek_branch(dir_uid, name) else {
            Self::verdict(world, pid, format_args!("access {name}"), false);
            return Err(AccessError::NoInfo);
        };
        let BranchKind::Segment {
            acl,
            len_words,
            brackets,
        } = &branch.kind
        else {
            Self::verdict(world, pid, format_args!("access {name}"), false);
            return Err(AccessError::NoInfo);
        };
        let acl_mode = acl.effective(&proc.user).unwrap_or(AclMode::NULL);
        let mode = combine(acl_mode, &proc.label, &branch.label, world.cfg.mls);
        if !mode.read && !mode.write && !mode.execute {
            Self::verdict(world, pid, format_args!("access {name}"), false);
            return Err(AccessError::NoInfo);
        }
        Self::verdict(world, pid, format_args!("access {name}"), true);
        Ok(GrantTarget {
            uid: branch.uid,
            len_words: *len_words,
            brackets: *brackets,
            mode,
        })
    }

    /// Activates the target and installs its SDW; returns the segno.
    ///
    /// Activation rides the bounded-backoff discipline: an injected AST
    /// exhaustion is retried a few times with deterministic jittered
    /// delays (a real system would wait for the deactivation daemon to
    /// free slots), then surfaces as an audited overload refusal instead
    /// of a stall. With the injector disarmed the fast path is taken
    /// unconditionally.
    fn grant(
        world: &mut KernelWorld,
        pid: KProcId,
        target: GrantTarget,
    ) -> Result<SegNo, AccessError> {
        let len = target.len_words.max(mks_hw::PAGE_WORDS);
        let mut backoff = Backoff::new(
            target.uid.0 ^ world.vm.machine.clock.now(),
            BackoffPolicy::default(),
        );
        let astx = loop {
            match SegControl::try_activate(&mut world.vm, target.uid, len) {
                Ok(astx) => break astx,
                Err(MechError::AstExhausted) => match backoff.next_delay() {
                    Some(delay) => {
                        world.vm.machine.clock.advance(delay);
                        world.vm.machine.trace.counter_add("backoff.retries", 1);
                    }
                    None => {
                        return Err(Self::overload_refusal(world, pid, "activate"));
                    }
                },
                Err(e) => return Err(AccessError::Mech(e)),
            }
        };
        let (_, proc) = world.vm_and_proc_mut(pid);
        let segno = proc.kst.core_mut().bind(target.uid, false);
        proc.aspace.set(
            segno,
            mks_hw::Sdw::plain(astx, target.mode, target.brackets),
        );
        Ok(segno)
    }

    /// Resolves `dir_segno` to a real directory uid via the caller's KST;
    /// phantoms and non-directories yield `NoInfo`.
    fn real_dir(
        world: &KernelWorld,
        pid: KProcId,
        dir_segno: SegNo,
    ) -> Result<SegUid, AccessError> {
        let kst = world.proc(pid).kst.core();
        let entry = kst.entry(dir_segno).ok_or(AccessError::NoInfo)?;
        if entry.phantom || !entry.is_dir {
            return Err(AccessError::NoInfo);
        }
        Ok(entry.uid)
    }

    /// Gate `initiate_segno` (kernel configuration): initiate the segment
    /// `name` in the directory bound at `dir_segno`.
    pub fn initiate(
        world: &mut KernelWorld,
        pid: KProcId,
        dir_segno: SegNo,
        name: &str,
    ) -> Result<SegNo, AccessError> {
        Self::admit(world, pid, format_args!("initiate {name}"))?;
        let trace = world.vm.machine.trace.clone();
        let gate_span = Self::op_span(world, pid, MonitorOp::Initiate);
        world.vm.machine.charge_gate_crossing();
        let mon_span = trace.span(mks_trace::Layer::Monitor, "monitor.initiate");
        let result = Self::real_dir(world, pid, dir_segno)
            .and_then(|dir_uid| Self::resolve_target(world, pid, dir_uid, name));
        let out = match result {
            Ok(target) => Self::grant(world, pid, target),
            Err(e) => {
                let who = world.proc(pid).user.clone();
                world.audit(
                    Some(who),
                    crate::syslog::AuditEvent::AccessDenied {
                        what: format!("initiate {name}"),
                    },
                );
                Err(e)
            }
        };
        Self::verdict(world, pid, format_args!("initiate {name}"), out.is_ok());
        mon_span.end();
        gate_span.end();
        out
    }

    /// Gate `initiate_dir_segno` (kernel configuration): initiate a
    /// directory for traversal. Never errs — lies instead (see
    /// [`mks_fs::kst`]).
    pub fn initiate_dir(
        world: &mut KernelWorld,
        pid: KProcId,
        dir_segno: SegNo,
        name: &str,
    ) -> SegNo {
        let trace = world.vm.machine.trace.clone();
        let gate_span = Self::op_span(world, pid, MonitorOp::InitiateDir);
        world.vm.machine.charge_gate_crossing();
        let mon_span = trace.span(mks_trace::Layer::Monitor, "monitor.initiate_dir");
        let (fs, proc) = world.fs_and_proc_mut(pid);
        let segno = match &mut proc.kst {
            KstState::Kernel(k) => kernel_initiate_dir(fs, k, dir_segno, name),
            // The legacy configuration reaches directories by pathname;
            // a segno-based traversal there just mints a kernel binding.
            KstState::Legacy(k) => match k.core.entry(dir_segno) {
                Some(e) if e.is_dir && !e.phantom => match fs.peek_branch(e.uid, name) {
                    Some(b) if b.is_dir() => k.core.bind(b.uid, true),
                    _ => k.core.bind_phantom(true),
                },
                _ => k.core.bind_phantom(true),
            },
        };
        // Traversal always "succeeds" (phantoms preserve that fiction).
        Self::verdict(world, pid, format_args!("initiate_dir {name}"), true);
        mon_span.end();
        gate_span.end();
        segno
    }

    /// Initiates by full pathname, in whichever style the configuration
    /// prescribes: user-ring resolution over the segno interface (kernel),
    /// or the supervisor walk (legacy — whose errors leak existence).
    pub fn initiate_path(
        world: &mut KernelWorld,
        pid: KProcId,
        path: &str,
    ) -> Result<SegNo, AccessError> {
        match world.cfg.naming {
            NamingConfig::UserRing => {
                // User-ring loop: resolve the containing directory by
                // repeated initiate_dir calls, then one initiate.
                let comps = parse_path(path).map_err(|_| AccessError::BadPath)?;
                let (leaf, dirs) = comps.split_last().ok_or(AccessError::BadPath)?;
                let mut dir = world.bind_root(pid);
                for c in dirs {
                    dir = Self::initiate_dir(world, pid, dir, c);
                }
                Self::initiate(world, pid, dir, leaf)
            }
            NamingConfig::InKernel => {
                // The legacy supervisor does the whole walk behind ONE gate.
                let trace = world.vm.machine.trace.clone();
                let gate_span = Self::op_span(world, pid, MonitorOp::InitiatePath);
                world.vm.machine.charge_gate_crossing();
                let mon_span = trace.span(mks_trace::Layer::Monitor, "monitor.initiate_path");
                let out = Self::initiate_path_in_kernel(world, pid, path);
                Self::verdict(
                    world,
                    pid,
                    format_args!("initiate_path {path}"),
                    out.is_ok(),
                );
                mon_span.end();
                gate_span.end();
                out
            }
        }
    }

    /// The legacy in-kernel pathname walk (body of the `InKernel` arm of
    /// [`Monitor::initiate_path`], split out so the gate wrapper can record
    /// the verdict on every exit path).
    fn initiate_path_in_kernel(
        world: &mut KernelWorld,
        pid: KProcId,
        path: &str,
    ) -> Result<SegNo, AccessError> {
        let ring = world.proc(pid).ring;
        let (fs, proc) = world.fs_and_proc_mut(pid);
        let KstState::Legacy(kst) = &mut proc.kst else {
            unreachable!("legacy naming config uses legacy KSTs");
        };
        kst.initiate_path(fs, path, ring, None)
            .map_err(AccessError::Legacy)?;
        // The legacy supervisor still applies ACL/MLS before
        // installing the SDW.
        let comps = parse_path(path).map_err(|_| AccessError::BadPath)?;
        let (leaf, dirs) = comps.split_last().ok_or(AccessError::BadPath)?;
        let mut dir_uid = mks_fs::FileSystem::ROOT;
        for c in dirs {
            dir_uid = world
                .fs
                .peek_branch(dir_uid, c)
                .map(|b| b.uid)
                .ok_or(AccessError::NoInfo)?;
        }
        let target = Self::resolve_target(world, pid, dir_uid, leaf)?;
        Self::grant(world, pid, target)
    }

    /// Gate `create_branch_`: create a segment and initiate it.
    pub fn create_segment(
        world: &mut KernelWorld,
        pid: KProcId,
        dir_segno: SegNo,
        name: &str,
        acl: Acl<AclMode>,
        brackets: RingBrackets,
        label: Label,
    ) -> Result<SegNo, AccessError> {
        Self::admit(world, pid, format_args!("create_segment {name}"))?;
        let _op = Self::op_span(world, pid, MonitorOp::CreateSegment);
        let dir_uid = Self::real_dir(world, pid, dir_segno)?;
        // MLS: creating in a directory is a write to it.
        if world.cfg.mls {
            let subj = world.proc(pid).label;
            let dlabel = world.fs.dir_label(dir_uid).map_err(AccessError::Fs)?;
            mls_check(&subj, &dlabel, AccessKind::Write).map_err(AccessError::Mls)?;
        }
        let (fs, proc) = world.fs_mut_and_proc(pid);
        fs.create_segment(dir_uid, name, &proc.user, acl, brackets, label)
            .map_err(AccessError::Fs)?;
        // Storage accounting: the first page is charged at creation; an
        // overflow undoes the creation entirely.
        if let Err(e) = Self::charge_quota(world, pid, dir_uid, 1) {
            let (fs, proc) = world.fs_mut_and_proc(pid);
            let _ = fs.delete_branch(dir_uid, name, &proc.user);
            return Err(e);
        }
        let target = Self::resolve_target(world, pid, dir_uid, name)?;
        Self::grant(world, pid, target)
    }

    /// Walks up from `dir_uid` to the nearest directory holding a quota
    /// cell (every hierarchy has one: the root's). A *damaged* hierarchy
    /// may contain a parent-pointer cycle until the salvager runs — the
    /// walk must answer `None` (a deterministic refusal) rather than hang
    /// the kernel on it, so revisiting a directory stops the climb.
    fn quota_account(world: &KernelWorld, mut dir_uid: SegUid) -> Option<SegUid> {
        // Hash-set cycle check: torn parent pointers can make this climb
        // arbitrarily long before the salvager runs, and a linear `seen`
        // scan would make it quadratic.
        let mut seen: mks_trace::digest::IdSet<SegUid> = Default::default();
        loop {
            if matches!(world.fs.quota_cell(dir_uid), Ok(Some(_))) {
                return Some(dir_uid);
            }
            if !seen.insert(dir_uid) {
                return None;
            }
            dir_uid = world.fs.dir_parent(dir_uid).ok().flatten()?;
        }
    }

    /// Gate `quota_move`: carve a quota cell of `limit_pages` onto the
    /// directory bound at `dir_segno`, taking the limit from its governing
    /// ancestor cell. Requires `m` on the directory.
    pub(crate) fn set_quota(
        world: &mut KernelWorld,
        pid: KProcId,
        dir_segno: SegNo,
        limit_pages: u64,
    ) -> Result<(), AccessError> {
        Self::admit(world, pid, "set_quota")?;
        let _op = Self::op_span(world, pid, MonitorOp::SetQuota);
        let dir_uid = Self::real_dir(world, pid, dir_segno)?;
        if !world
            .fs
            .dir_access(dir_uid, &world.proc(pid).user)
            .map_err(AccessError::Fs)?
            .modify
        {
            return Err(AccessError::Fs(FsError::NoPermission { needed: 'm' }));
        }
        let parent = world
            .fs
            .dir_parent(dir_uid)
            .map_err(AccessError::Fs)?
            .ok_or(AccessError::Fs(FsError::NoPermission { needed: 'm' }))?;
        let account = Self::quota_account(world, parent).ok_or(AccessError::NoInfo)?;
        let mut source = match world.fs.quota_cell(account) {
            Ok(Some(q)) => q,
            _ => return Err(AccessError::NoInfo),
        };
        let mut cell = QuotaCell::with_limit(0);
        source
            .move_to(&mut cell, limit_pages)
            .map_err(AccessError::Quota)?;
        *world.fs.quota_cell_mut(account).map_err(AccessError::Fs)? = Some(source);
        *world.fs.quota_cell_mut(dir_uid).map_err(AccessError::Fs)? = Some(cell);
        Ok(())
    }

    /// Charges `pages` against the cell governing `dir_uid`; refuses with
    /// the quota error on overflow (nothing is half-charged).
    ///
    /// The `QuotaStorm` injection point lives here: an armed plan can make
    /// the accounting cell transiently contended (many principals charging
    /// at once), and the charge rides the bounded-backoff discipline —
    /// a few deterministic jittered retries, then an audited overload
    /// refusal attributed to `pid`. Never a stall, never a half-charge.
    fn charge_quota(
        world: &mut KernelWorld,
        pid: KProcId,
        dir_uid: SegUid,
        pages: u64,
    ) -> Result<(), AccessError> {
        let mut backoff = Backoff::new(
            dir_uid.0 ^ world.vm.machine.clock.now(),
            BackoffPolicy::default(),
        );
        while world
            .vm
            .machine
            .inject
            .fires(mks_hw::InjectKind::QuotaStorm)
            .is_some()
        {
            world.vm.machine.trace.counter_add("inject.quota_storms", 1);
            match backoff.next_delay() {
                Some(delay) => {
                    world.vm.machine.clock.advance(delay);
                    world.vm.machine.trace.counter_add("backoff.retries", 1);
                }
                None => return Err(Self::overload_refusal(world, pid, "charge_quota")),
            }
        }
        let account = Self::quota_account(world, dir_uid).ok_or(AccessError::NoInfo)?;
        let mut cell = match world.fs.quota_cell(account) {
            Ok(Some(q)) => q,
            _ => return Err(AccessError::NoInfo),
        };
        cell.charge(pages).map_err(AccessError::Quota)?;
        *world.fs.quota_cell_mut(account).map_err(AccessError::Fs)? = Some(cell);
        Ok(())
    }

    fn release_quota(world: &mut KernelWorld, dir_uid: SegUid, pages: u64) {
        if let Some(account) = Self::quota_account(world, dir_uid) {
            if let Ok(Some(mut cell)) = world.fs.quota_cell(account) {
                cell.release(pages);
                if let Ok(slot) = world.fs.quota_cell_mut(account) {
                    *slot = Some(cell);
                }
            }
        }
    }

    /// Gate `delete_branch_` for segments: removes the branch (requires
    /// `m` on the directory), destroys and scrubs the storage, revokes
    /// every descriptor for it, and releases the quota charge.
    ///
    /// Revocation here does not depend on the configuration: a
    /// descriptor that outlived its segment would point at a freed AST
    /// slot, and then at whatever segment is activated into it next.
    /// The caller's binding goes away. Every other bound process loses
    /// its SDW but keeps its KST entry until it terminates it, so a
    /// stale segment number faults and no KST changes under its owner.
    pub fn delete_segment(
        world: &mut KernelWorld,
        pid: KProcId,
        dir_segno: SegNo,
        name: &str,
    ) -> Result<(), AccessError> {
        Self::admit(world, pid, format_args!("delete_segment {name}"))?;
        let _op = Self::op_span(world, pid, MonitorOp::DeleteSegment);
        let dir_uid = Self::real_dir(world, pid, dir_segno)?;
        let (fs, proc) = world.fs_mut_and_proc(pid);
        let branch = fs
            .delete_branch(dir_uid, name, &proc.user)
            .map_err(AccessError::Fs)?;
        let uid = branch.uid;
        if world.vm.machine.ast.find(uid).is_some() {
            mks_vm::SegControl::delete(&mut world.vm, uid).map_err(AccessError::Mech)?;
        }
        for proc in world.fs_and_procs_mut().1 {
            if let Some(s) = proc.kst.core().segno_of(uid) {
                proc.aspace.clear(s);
            }
        }
        let proc = world.proc_mut(pid);
        if let Some(s) = proc.kst.core().segno_of(uid) {
            match &mut proc.kst {
                KstState::Kernel(k) => {
                    k.unbind(s);
                }
                KstState::Legacy(k) => {
                    let _ = k.terminate_segno(s);
                }
            }
        }
        Self::release_quota(world, dir_uid, 1);
        Ok(())
    }

    /// Gate `create_dir_`: create a subdirectory, returning its segno
    /// binding for traversal.
    pub fn create_directory(
        world: &mut KernelWorld,
        pid: KProcId,
        dir_segno: SegNo,
        name: &str,
        label: Label,
    ) -> Result<SegNo, AccessError> {
        Self::admit(world, pid, format_args!("create_directory {name}"))?;
        let _op = Self::op_span(world, pid, MonitorOp::CreateDirectory);
        let dir_uid = Self::real_dir(world, pid, dir_segno)?;
        if world.cfg.mls {
            let subj = world.proc(pid).label;
            let dlabel = world.fs.dir_label(dir_uid).map_err(AccessError::Fs)?;
            mls_check(&subj, &dlabel, AccessKind::Write).map_err(AccessError::Mls)?;
        }
        let (fs, proc) = world.fs_mut_and_proc(pid);
        let uid = fs
            .create_directory(dir_uid, name, &proc.user, label)
            .map_err(AccessError::Fs)?;
        Ok(world.proc_mut(pid).kst.core_mut().bind(uid, true))
    }

    /// Gate `list_dir`: entry names of the directory bound at `dir_segno`,
    /// under the status permission and (if on) the mandatory read rule.
    pub fn list_dir(
        world: &mut KernelWorld,
        pid: KProcId,
        dir_segno: SegNo,
    ) -> Result<Vec<String>, AccessError> {
        Self::admit(world, pid, "list_dir")?;
        let _op = Self::op_span(world, pid, MonitorOp::ListDir);
        let dir_uid = Self::real_dir(world, pid, dir_segno)?;
        let proc = world.proc(pid);
        if world.cfg.mls {
            let dlabel = world.fs.dir_label(dir_uid).map_err(AccessError::Fs)?;
            mls_check(&proc.label, &dlabel, AccessKind::Read).map_err(|_| AccessError::NoInfo)?;
        }
        let branches = world
            .fs
            .list(dir_uid, &proc.user)
            .map_err(|_| AccessError::NoInfo)?;
        Ok(branches
            .iter()
            .map(|b| b.primary_name().to_string())
            .collect())
    }

    /// Gate `status_long`: the attributes of the branch `name` in the
    /// directory bound at `dir_segno`. Requires `s` on the directory and
    /// (when MLS is armed) mandatory read on it; phantoms answer NoInfo.
    pub fn status(
        world: &mut KernelWorld,
        pid: KProcId,
        dir_segno: SegNo,
        name: &str,
    ) -> Result<BranchStatus, AccessError> {
        Self::admit(world, pid, format_args!("status {name}"))?;
        let _op = Self::op_span(world, pid, MonitorOp::Status);
        let dir_uid = Self::real_dir(world, pid, dir_segno)?;
        let proc = world.proc(pid);
        if world.cfg.mls {
            let dlabel = world.fs.dir_label(dir_uid).map_err(AccessError::Fs)?;
            mls_check(&proc.label, &dlabel, AccessKind::Read).map_err(|_| AccessError::NoInfo)?;
        }
        let branch = world
            .fs
            .get_branch(dir_uid, name, &proc.user)
            .map_err(|_| AccessError::NoInfo)?;
        Ok(match &branch.kind {
            BranchKind::Segment {
                len_words,
                brackets,
                ..
            } => BranchStatus {
                names: branch.names.clone(),
                is_directory: false,
                len_words: *len_words,
                brackets: Some(*brackets),
                label: branch.label,
                author: branch.author.to_acl_string(),
            },
            BranchKind::Directory { .. } => BranchStatus {
                names: branch.names.clone(),
                is_directory: true,
                len_words: 0,
                brackets: None,
                label: branch.label,
                author: branch.author.to_acl_string(),
            },
        })
    }

    /// Gate `replace_acl`: replaces a segment's ACL (requires `m` on the
    /// containing directory). In a configuration with revocation, the
    /// change *retracts outstanding descriptors* ("setfaults"): every
    /// process bound to the segment has its SDW recomputed under the new
    /// ACL, so revoked access ends now, not at next initiation. The legacy
    /// supervisor skipped this — the gap penetration attack 15 exploits.
    pub fn set_segment_acl(
        world: &mut KernelWorld,
        pid: KProcId,
        dir_segno: SegNo,
        name: &str,
        new_acl: Acl<AclMode>,
    ) -> Result<(), AccessError> {
        Self::admit(world, pid, format_args!("set_segment_acl {name}"))?;
        let _op = Self::op_span(world, pid, MonitorOp::SetSegmentAcl);
        let dir_uid = Self::real_dir(world, pid, dir_segno)?;
        let (fs, proc) = world.fs_mut_and_proc(pid);
        fs.set_segment_acl(dir_uid, name, &proc.user, new_acl)
            .map_err(AccessError::Fs)?;
        if world.cfg.revocation {
            Self::setfaults(world, dir_uid, name);
        }
        Ok(())
    }

    /// Recomputes every process's descriptor for the branch `name` in
    /// `dir_uid` under its current ACL and labels, reading the ACL where
    /// the branch holds it.
    fn setfaults(world: &mut KernelWorld, dir_uid: SegUid, name: &str) {
        let mls_on = world.cfg.mls;
        let (fs, procs) = world.fs_and_procs_mut();
        let Some(branch) = fs.peek_branch(dir_uid, name) else {
            return;
        };
        let BranchKind::Segment { acl, .. } = &branch.kind else {
            return;
        };
        for proc in procs {
            let Some(segno) = proc.kst.core().segno_of(branch.uid) else {
                continue;
            };
            let acl_mode = acl.effective(&proc.user).unwrap_or(AclMode::NULL);
            let mode = combine(acl_mode, &proc.label, &branch.label, mls_on);
            if let Some(sdw) = proc.aspace.get_mut(segno) {
                sdw.mode = mode;
            }
        }
    }

    /// Gate `terminate_segno`.
    pub fn terminate(
        world: &mut KernelWorld,
        pid: KProcId,
        segno: SegNo,
    ) -> Result<(), AccessError> {
        let trace = world.vm.machine.trace.clone();
        let gate_span = Self::op_span(world, pid, MonitorOp::Terminate);
        world.vm.machine.charge_gate_crossing();
        let mon_span = trace.span(mks_trace::Layer::Monitor, "monitor.terminate");
        let (_, proc) = world.vm_and_proc_mut(pid);
        let out = if proc.kst.core_mut().unbind(segno).is_none() {
            Err(AccessError::NoInfo)
        } else {
            proc.aspace.clear(segno);
            Ok(())
        };
        Self::verdict(
            world,
            pid,
            format_args!("terminate segno {}", segno.0),
            out.is_ok(),
        );
        mon_span.end();
        gate_span.end();
        out
    }

    /// Services directed faults transparently, then performs the access.
    ///
    /// Page-fault service rides the bounded-backoff discipline: a frame
    /// famine (injected or organic) is retried with deterministic jittered
    /// delays instead of failing hard on the first refusal — eviction may
    /// free a frame on the next attempt — and gives up with an audited
    /// overload refusal once the retry budget (or the call's admission
    /// `deadline`, when one was granted) is exhausted. Retrying is safe:
    /// the famine path refuses *before* any transfer is consumed, so a
    /// retry never double-applies a disk transfer (machine-checked by the
    /// proptests in `tests/overload_resilience.rs`).
    fn access_with_fault_service<T>(
        world: &mut KernelWorld,
        pid: KProcId,
        deadline: Option<Cycles>,
        mut op: impl FnMut(&mut KernelWorld, KProcId) -> Result<T, Fault>,
    ) -> Result<T, AccessError> {
        // The retry discipline engages only when the resilience layer is
        // in play (admission enabled or an injection plan armed); off that
        // path a famine surfaces immediately, exactly as it always did.
        let resilient = world.admission.is_enabled() || world.vm.machine.inject.is_armed();
        let mut famine: Option<Backoff> = None;
        for _ in 0..4 {
            match op(world, pid) {
                Ok(v) => return Ok(v),
                Err(Fault::MissingPage { seg, page }) => {
                    let kst = world.proc(pid).kst.core();
                    let Some(uid) = kst.entry(seg).map(|e| e.uid) else {
                        return Err(AccessError::Fault(Fault::MissingPage { seg, page }));
                    };
                    loop {
                        let (vm, pager) = {
                            let w = &mut *world;
                            (&mut w.vm, &mut w.pager)
                        };
                        match pager.handle_fault(vm, uid, page) {
                            Ok(_) => break,
                            Err(MechError::NoFreeFrame) if resilient => {
                                if let Some(dl) = deadline {
                                    if world.vm.machine.clock.now() > dl {
                                        return Err(Self::overload_refusal(
                                            world,
                                            pid,
                                            "page fault (deadline)",
                                        ));
                                    }
                                }
                                let b = famine.get_or_insert_with(|| {
                                    Backoff::new(uid.0 ^ page as u64, BackoffPolicy::default())
                                });
                                match b.next_delay() {
                                    Some(delay) => {
                                        world.vm.machine.clock.advance(delay);
                                        world.vm.machine.trace.counter_add("backoff.retries", 1);
                                    }
                                    None => {
                                        return Err(Self::overload_refusal(
                                            world,
                                            pid,
                                            "page fault (frame famine)",
                                        ));
                                    }
                                }
                            }
                            Err(e) => return Err(AccessError::Mech(e)),
                        }
                    }
                }
                Err(f) => return Err(AccessError::Fault(f)),
            }
        }
        Err(AccessError::Mech(MechError::NoFreeFrame))
    }

    /// Reads one word of the segment bound at `segno`.
    pub fn read(
        world: &mut KernelWorld,
        pid: KProcId,
        segno: SegNo,
        offset: usize,
    ) -> Result<Word, AccessError> {
        let deadline = Self::admit(world, pid, "read")?;
        let _op = Self::op_span(world, pid, MonitorOp::Read);
        Self::access_with_fault_service(world, pid, deadline, |w, pid| {
            let (vm, proc) = w.vm_and_proc_mut(pid);
            vm.machine.read(&proc.aspace, proc.ring, segno, offset)
        })
    }

    /// Writes one word of the segment bound at `segno`.
    pub fn write(
        world: &mut KernelWorld,
        pid: KProcId,
        segno: SegNo,
        offset: usize,
        value: Word,
    ) -> Result<(), AccessError> {
        let deadline = Self::admit(world, pid, "write")?;
        let _op = Self::op_span(world, pid, MonitorOp::Write);
        Self::access_with_fault_service(world, pid, deadline, |w, pid| {
            let (vm, proc) = w.vm_and_proc_mut(pid);
            vm.machine
                .write(&proc.aspace, proc.ring, segno, offset, value)
        })
    }

    /// IPC guard: may `pid` notify the event channel bound to word
    /// `(segno, offset)`? Authorized exactly when the ordinary memory
    /// protection lets the process *write* that word — the paper's
    /// "controlled with the standard memory protection mechanisms".
    pub fn may_notify_channel(
        world: &mut KernelWorld,
        pid: KProcId,
        segno: SegNo,
        offset: usize,
    ) -> Result<(), AccessError> {
        let (vm, proc) = world.vm_and_proc_mut(pid);
        vm.machine
            .probe(&proc.aspace, proc.ring, segno, offset, AccessType::Write)
            .map_err(AccessError::Fault)
    }

    /// Gate-call check: may `pid` (in its current ring) call `entry` of
    /// gate `gate`? Returns the target ring on success.
    pub fn call_gate(
        world: &mut KernelWorld,
        pid: KProcId,
        gate: &str,
        entry: &str,
    ) -> Result<u8, AccessError> {
        Self::admit(world, pid, format_args!("call {gate}${entry}"))?;
        let _op = Self::op_span(world, pid, MonitorOp::CallGate);
        let ring = world.proc(pid).ring;
        let Some(g) = world.gates.gate(gate) else {
            Self::verdict(world, pid, format_args!("call {gate}${entry}"), false);
            return Err(AccessError::UnknownGate);
        };
        if g.entry(entry).is_none() {
            Self::verdict(world, pid, format_args!("call {gate}${entry}"), false);
            return Err(AccessError::UnknownGate);
        }
        if ring > g.callable_from {
            let who = world.proc(pid).user.clone();
            world.audit(
                Some(who),
                crate::syslog::AuditEvent::GateRefused {
                    target: format!("{gate}${entry}"),
                },
            );
            Self::verdict(world, pid, format_args!("call {gate}${entry}"), false);
            return Err(AccessError::GateDenied);
        }
        world
            .vm
            .machine
            .clock
            .advance(world.vm.machine.cost.call_cross_ring);
        Self::verdict(world, pid, format_args!("call {gate}${entry}"), true);
        Ok(g.target_ring)
    }

    /// The `metering_get` gate: a read-only JSON snapshot of the kernel
    /// flight recorder — counters, histograms, per-layer cycle totals and
    /// the recent trace ring. Callable from any user ring; the caller gets
    /// a serialized *copy*, so no path through this entry can reset or
    /// rewrite the recorder.
    pub fn metering_snapshot(world: &mut KernelWorld, pid: KProcId) -> Result<String, AccessError> {
        Self::call_gate(world, pid, "hcs_", "metering_get")?;
        let mut snap = world.vm.machine.trace.snapshot();
        // Commit-log exposure (E20): the same read-only gate carries the
        // log's length and chain-head digest, so a user ring can check
        // the kernel's replayable history without a new entry point.
        snap.replay = Some(mks_trace::ReplaySnapshot {
            commits: world.commits.len(),
            log_digest: world.commits.head(),
        });
        // Replication exposure (E21): when this kernel is a replica, the
        // gate also carries its role, epoch, lag and link-health gauges.
        snap.repl = world.repl_status.clone();
        Ok(snap.to_json())
    }
}

#[cfg(test)]
impl Monitor {
    /// Gate `quota_get`: the cell governing the directory bound at
    /// `dir_segno` (requires status on that directory).
    fn quota_get(
        world: &mut KernelWorld,
        pid: KProcId,
        dir_segno: SegNo,
    ) -> Result<QuotaCell, AccessError> {
        Self::admit(world, pid, "quota_get")?;
        let _op = Self::op_span(world, pid, MonitorOp::QuotaGet);
        let dir_uid = Self::real_dir(world, pid, dir_segno)?;
        if !world
            .fs
            .dir_access(dir_uid, &world.proc(pid).user)
            .map_err(AccessError::Fs)?
            .status
        {
            return Err(AccessError::NoInfo);
        }
        let account = Self::quota_account(world, dir_uid).ok_or(AccessError::NoInfo)?;
        match world.fs.quota_cell(account) {
            Ok(Some(q)) => Ok(q),
            _ => Err(AccessError::NoInfo),
        }
    }

    /// True if the page of `(segno, offset)` is resident for `pid` —
    /// a test/experiment observer, not a gate.
    fn is_resident(world: &KernelWorld, pid: KProcId, segno: SegNo, offset: usize) -> bool {
        use mks_hw::ast::PageState;
        let proc = world.proc(pid);
        let Some(sdw) = proc.aspace.get(segno) else {
            return false;
        };
        let entry = world.vm.machine.ast.entry(sdw.astx);
        let page = offset / mks_hw::PAGE_WORDS;
        page < entry.pt.nr_pages() && matches!(entry.pt.ptw(page).state, PageState::InCore(_))
    }
}

/// User-ring path resolution adapter used by examples and tests: drives
/// the monitor's segno interface exactly as a user-ring resolver would.
pub struct UserRingResolver<'a> {
    /// The world.
    pub world: &'a mut KernelWorld,
    /// The calling process.
    pub pid: KProcId,
}

impl DirInitiator for UserRingResolver<'_> {
    fn root(&mut self) -> SegNo {
        self.world.bind_root(self.pid)
    }

    fn initiate_dir(&mut self, dir: SegNo, name: &str) -> SegNo {
        Monitor::initiate_dir(self.world, self.pid, dir, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;
    use crate::world::{admin_user, System};
    use mks_fs::{DirMode, UserId};
    use mks_mls::{Compartments, Level};

    fn jones() -> UserId {
        UserId::new("Jones", "CSR", "a")
    }

    /// A system with `>udd` (status+append for everyone) and two
    /// processes: admin and Jones, both at BOTTOM in ring 4.
    fn setup(cfg: KernelConfig) -> (System, KProcId, KProcId) {
        let mut sys = System::new(cfg);
        let admin = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
        let jpid = sys.world.create_process(jones(), Label::BOTTOM, 4);
        let root = sys.world.bind_root(admin);
        Monitor::create_directory(&mut sys.world, admin, root, "udd", Label::BOTTOM).unwrap();
        sys.world
            .fs
            .set_dir_acl_entry(
                mks_fs::FileSystem::ROOT,
                "udd",
                &admin_user(),
                "*.*.*",
                DirMode::SA,
            )
            .unwrap();
        (sys, admin, jpid)
    }

    fn udd_of(sys: &mut System, pid: KProcId) -> SegNo {
        let root = sys.world.bind_root(pid);
        Monitor::initiate_dir(&mut sys.world, pid, root, "udd")
    }

    fn mk_seg(sys: &mut System, pid: KProcId, dir: SegNo, name: &str, acl: &str) -> SegNo {
        Monitor::create_segment(
            &mut sys.world,
            pid,
            dir,
            name,
            Acl::of(acl, AclMode::RW),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap()
    }

    #[test]
    fn create_write_read_round_trip() {
        for cfg in [KernelConfig::legacy(), KernelConfig::kernel()] {
            let (mut sys, _admin, jones) = setup(cfg);
            let udd = udd_of(&mut sys, jones);
            let seg = mk_seg(&mut sys, jones, udd, "notes", "Jones.CSR.a");
            Monitor::write(&mut sys.world, jones, seg, 10, Word::new(0o777)).unwrap();
            assert_eq!(
                Monitor::read(&mut sys.world, jones, seg, 10).unwrap(),
                Word::new(0o777)
            );
        }
    }

    #[test]
    fn acl_denies_the_unlisted_with_no_information() {
        let (mut sys, _admin, jones) = setup(KernelConfig::kernel());
        let udd_j = udd_of(&mut sys, jones);
        mk_seg(&mut sys, jones, udd_j, "private", "Jones.CSR.a");
        let smith = sys
            .world
            .create_process(UserId::new("Smith", "CSR", "a"), Label::BOTTOM, 4);
        let udd_s = udd_of(&mut sys, smith);
        // Denied access and nonexistence are the same answer.
        assert_eq!(
            Monitor::initiate(&mut sys.world, smith, udd_s, "private"),
            Err(AccessError::NoInfo)
        );
        assert_eq!(
            Monitor::initiate(&mut sys.world, smith, udd_s, "no_such_segment"),
            Err(AccessError::NoInfo)
        );
    }

    #[test]
    fn mls_blocks_read_up_and_write_down() {
        let (mut sys, admin, _jones) = setup(KernelConfig::kernel());
        let secret = Label::new(Level::SECRET, Compartments::NONE);
        // The BOTTOM admin creates an *upgraded* SECRET directory (writing
        // the BOTTOM parent at the admin's own level is legal; the child
        // label dominates the parent's — the Multics upgraded-directory
        // pattern).
        let udd_admin = udd_of(&mut sys, admin);
        Monitor::create_directory(&mut sys.world, admin, udd_admin, "vault", secret).unwrap();
        let udd_uid = sys
            .world
            .fs
            .peek_branch(mks_fs::FileSystem::ROOT, "udd")
            .unwrap()
            .uid;
        sys.world
            .fs
            .set_dir_acl_entry(udd_uid, "vault", &admin_user(), "*.*.*", DirMode::SA)
            .unwrap();
        let spid = sys.world.create_process(admin_user(), secret, 4);
        let udd_s = udd_of(&mut sys, spid);
        let vault_s = Monitor::initiate_dir(&mut sys.world, spid, udd_s, "vault");
        let seg = Monitor::create_segment(
            &mut sys.world,
            spid,
            vault_s,
            "dossier",
            Acl::of("*.*.*", AclMode::RW),
            RingBrackets::new(4, 4, 4),
            secret,
        )
        .unwrap();
        Monitor::write(&mut sys.world, spid, seg, 0, Word::new(1)).unwrap();
        // BOTTOM process: wide-open ACL notwithstanding, no read up; blind
        // write-up is allowed by the *-property.
        let udd_a = udd_of(&mut sys, admin);
        let vault_a = Monitor::initiate_dir(&mut sys.world, admin, udd_a, "vault");
        let seg_a = Monitor::initiate(&mut sys.world, admin, vault_a, "dossier").unwrap();
        assert!(matches!(
            Monitor::read(&mut sys.world, admin, seg_a, 0),
            Err(AccessError::Fault(Fault::AccessViolation { .. }))
        ));
        assert!(Monitor::write(&mut sys.world, admin, seg_a, 1, Word::new(2)).is_ok());
        // And the SECRET process cannot write down.
        let low = Monitor::create_segment(
            &mut sys.world,
            admin,
            udd_a,
            "public",
            Acl::of("*.*.*", AclMode::RW),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        );
        assert!(low.is_ok());
        let low_s = Monitor::initiate(&mut sys.world, spid, udd_s, "public").unwrap();
        assert!(matches!(
            Monitor::write(&mut sys.world, spid, low_s, 0, Word::new(9)),
            Err(AccessError::Fault(Fault::AccessViolation { .. }))
        ));
        assert!(Monitor::read(&mut sys.world, spid, low_s, 0).is_ok());
    }

    #[test]
    fn page_faults_are_serviced_transparently() {
        let (mut sys, _admin, jones) = setup(KernelConfig::kernel());
        let udd_j = udd_of(&mut sys, jones);
        let seg = mk_seg(&mut sys, jones, udd_j, "big", "Jones.CSR.a");
        Monitor::write(&mut sys.world, jones, seg, 0, Word::new(7)).unwrap();
        assert!(Monitor::is_resident(&sys.world, jones, seg, 0));
        assert!(sys.world.vm.stats().faults >= 1);
    }

    #[test]
    fn pathname_initiation_works_in_both_styles() {
        for cfg in [KernelConfig::legacy(), KernelConfig::kernel()] {
            let (mut sys, _admin, jones) = setup(cfg);
            let udd_j = udd_of(&mut sys, jones);
            mk_seg(&mut sys, jones, udd_j, "prog", "Jones.CSR.a");
            let seg = Monitor::initiate_path(&mut sys.world, jones, ">udd>prog").unwrap();
            assert!(Monitor::write(&mut sys.world, jones, seg, 0, Word::new(1)).is_ok());
        }
    }

    #[test]
    fn existence_oracle_differs_between_configurations() {
        // Legacy: a missing mid-path component is reported as such.
        let (mut sys, _a, jones_pid) = setup(KernelConfig::legacy());
        let err = Monitor::initiate_path(&mut sys.world, jones_pid, ">udd>ghost>x").unwrap_err();
        assert!(matches!(
            err,
            AccessError::Legacy(LegacyKstError::NoEntry(_))
        ));
        // Kernel: the same probe gets the uninformative answer.
        let (mut sys2, _a2, jones2) = setup(KernelConfig::kernel());
        let err2 = Monitor::initiate_path(&mut sys2.world, jones2, ">udd>ghost>x").unwrap_err();
        assert_eq!(err2, AccessError::NoInfo);
    }

    #[test]
    fn terminate_revokes_the_descriptor() {
        let (mut sys, _a, jones) = setup(KernelConfig::kernel());
        let udd_j = udd_of(&mut sys, jones);
        let seg = mk_seg(&mut sys, jones, udd_j, "tmp", "Jones.CSR.a");
        Monitor::write(&mut sys.world, jones, seg, 0, Word::new(5)).unwrap();
        Monitor::terminate(&mut sys.world, jones, seg).unwrap();
        assert!(matches!(
            Monitor::read(&mut sys.world, jones, seg, 0),
            Err(AccessError::Fault(Fault::NoDescriptor { .. }))
        ));
        assert_eq!(
            Monitor::terminate(&mut sys.world, jones, seg),
            Err(AccessError::NoInfo)
        );
    }

    #[test]
    fn gate_calls_respect_call_brackets() {
        let (mut sys, _a, jones) = setup(KernelConfig::kernel());
        assert_eq!(
            Monitor::call_gate(&mut sys.world, jones, "hcs_", "block"),
            Ok(0)
        );
        assert_eq!(
            Monitor::call_gate(&mut sys.world, jones, "hphcs_", "shutdown"),
            Err(AccessError::GateDenied)
        );
        assert_eq!(
            Monitor::call_gate(&mut sys.world, jones, "hcs_", "warp_core"),
            Err(AccessError::UnknownGate)
        );
        let sysproc = sys.world.create_process(admin_user(), Label::BOTTOM, 1);
        assert_eq!(
            Monitor::call_gate(&mut sys.world, sysproc, "hphcs_", "shutdown"),
            Ok(0)
        );
    }

    #[test]
    fn metering_gate_is_readable_from_user_rings() {
        let (mut sys, _a, jones) = setup(KernelConfig::kernel());
        let granted_before = sys.world.vm.machine.trace.counter("monitor.granted");
        let json = Monitor::metering_snapshot(&mut sys.world, jones).unwrap();
        assert!(
            json.contains("\"counters\""),
            "snapshot is a JSON object: {json}"
        );
        assert!(
            json.contains("monitor.granted"),
            "verdict counters are visible"
        );
        // The snapshot is a copy: reading the metering never rewinds it.
        assert!(sys.world.vm.machine.trace.counter("monitor.granted") > granted_before);
        let again = Monitor::metering_snapshot(&mut sys.world, jones).unwrap();
        assert!(again.contains("monitor.granted"));
    }

    #[test]
    fn ipc_notify_follows_write_access() {
        let (mut sys, _a, jones) = setup(KernelConfig::kernel());
        let udd_j = udd_of(&mut sys, jones);
        let chan = mk_seg(&mut sys, jones, udd_j, "mailbox", "Jones.CSR.a");
        // The channel word must be resident/present for the probe's bounds
        // check; touch it once.
        Monitor::write(&mut sys.world, jones, chan, 0, Word::ZERO).unwrap();
        assert!(Monitor::may_notify_channel(&mut sys.world, jones, chan, 0).is_ok());
        // Smith cannot even initiate the mailbox, let alone notify it.
        let smith = sys
            .world
            .create_process(UserId::new("Smith", "CSR", "a"), Label::BOTTOM, 4);
        let udd_s = udd_of(&mut sys, smith);
        assert_eq!(
            Monitor::initiate(&mut sys.world, smith, udd_s, "mailbox"),
            Err(AccessError::NoInfo)
        );
    }

    #[test]
    fn list_dir_needs_status_and_mandatory_read() {
        let (mut sys, _a, jones) = setup(KernelConfig::kernel());
        let udd_j = udd_of(&mut sys, jones);
        mk_seg(&mut sys, jones, udd_j, "visible", "Jones.CSR.a");
        let names = Monitor::list_dir(&mut sys.world, jones, udd_j).unwrap();
        assert!(names.contains(&"visible".to_string()));
        // A phantom directory lists nothing — uninformatively.
        let ghost = Monitor::initiate_dir(&mut sys.world, jones, udd_j, "ghost");
        assert_eq!(
            Monitor::list_dir(&mut sys.world, jones, ghost),
            Err(AccessError::NoInfo)
        );
    }

    #[test]
    fn quota_bounds_creation_and_delete_releases() {
        let (mut sys, _admin, jones) = setup(KernelConfig::kernel());
        let udd_j = udd_of(&mut sys, jones);
        // Jones makes a project directory and gets 2 pages of quota on it
        // (needs 'm' on the dir — the creator has sma).
        let proj =
            Monitor::create_directory(&mut sys.world, jones, udd_j, "proj", Label::BOTTOM).unwrap();
        Monitor::set_quota(&mut sys.world, jones, proj, 2).unwrap();
        assert_eq!(
            Monitor::quota_get(&mut sys.world, jones, proj)
                .unwrap()
                .limit_pages,
            2
        );
        // Two segments fit; the third overflows the cell.
        mk_seg(&mut sys, jones, proj, "a", "Jones.CSR.a");
        mk_seg(&mut sys, jones, proj, "b", "Jones.CSR.a");
        let err = Monitor::create_segment(
            &mut sys.world,
            jones,
            proj,
            "c",
            Acl::of("Jones.CSR.a", AclMode::RW),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap_err();
        assert!(matches!(err, AccessError::Quota(_)), "{err:?}");
        // The failed creation left no residue in the directory.
        assert!(!Monitor::list_dir(&mut sys.world, jones, proj)
            .unwrap()
            .contains(&"c".to_string()));
        // Deleting one releases the charge; creation works again.
        Monitor::delete_segment(&mut sys.world, jones, proj, "a").unwrap();
        assert!(Monitor::create_segment(
            &mut sys.world,
            jones,
            proj,
            "c",
            Acl::of("Jones.CSR.a", AclMode::RW),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .is_ok());
        // And the quota damage is confined to the subtree: creating under
        // udd (governed by the root's big cell) still works.
        assert!(Monitor::create_segment(
            &mut sys.world,
            jones,
            udd_j,
            "outside",
            Acl::of("Jones.CSR.a", AclMode::RW),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .is_ok());
    }

    #[test]
    fn delete_segment_scrubs_and_revokes() {
        let (mut sys, _admin, jones) = setup(KernelConfig::kernel());
        let udd_j = udd_of(&mut sys, jones);
        // Deletion needs 'm', which Jones holds on his own home directory.
        let home = Monitor::create_directory(&mut sys.world, jones, udd_j, "Jones", Label::BOTTOM)
            .unwrap();
        let seg = mk_seg(&mut sys, jones, home, "doomed", "Jones.CSR.a");
        Monitor::write(&mut sys.world, jones, seg, 0, Word::new(0o7777)).unwrap();
        // Deleting from udd without 'm' is refused…
        assert!(matches!(
            Monitor::delete_segment(&mut sys.world, jones, udd_j, "Jones"),
            Err(AccessError::Fs(_))
        ));
        // …but from his home it works.
        Monitor::delete_segment(&mut sys.world, jones, home, "doomed").unwrap();
        // Binding revoked…
        assert!(matches!(
            Monitor::read(&mut sys.world, jones, seg, 0),
            Err(AccessError::Fault(Fault::NoDescriptor { .. }))
        ));
        // …name free for reuse, and the new segment starts zeroed.
        let again = mk_seg(&mut sys, jones, home, "doomed", "Jones.CSR.a");
        assert_eq!(
            Monitor::read(&mut sys.world, jones, again, 0).unwrap(),
            Word::ZERO
        );
    }

    #[test]
    fn set_quota_requires_modify() {
        let (mut sys, admin, jones) = setup(KernelConfig::kernel());
        let udd_a = udd_of(&mut sys, admin);
        Monitor::create_directory(&mut sys.world, admin, udd_a, "shared", Label::BOTTOM).unwrap();
        // Jones (no 'm' on admin's dir) cannot carve quota onto it.
        let udd_j = udd_of(&mut sys, jones);
        let shared_j = Monitor::initiate_dir(&mut sys.world, jones, udd_j, "shared");
        assert!(matches!(
            Monitor::set_quota(&mut sys.world, jones, shared_j, 5),
            Err(AccessError::Fs(FsError::NoPermission { needed: 'm' }))
        ));
    }

    #[test]
    fn status_reveals_attributes_only_to_the_entitled() {
        let (mut sys, _admin, jones) = setup(KernelConfig::kernel());
        let udd_j = udd_of(&mut sys, jones);
        mk_seg(&mut sys, jones, udd_j, "report", "Jones.CSR.a");
        let st = Monitor::status(&mut sys.world, jones, udd_j, "report").unwrap();
        assert_eq!(st.names, vec!["report".to_string()]);
        assert!(!st.is_directory);
        assert_eq!(st.author, "Jones.CSR.a");
        assert!(st.brackets.is_some());
        // Status of a missing entry and of a phantom dir: both NoInfo.
        assert_eq!(
            Monitor::status(&mut sys.world, jones, udd_j, "ghost"),
            Err(AccessError::NoInfo)
        );
        let phantom = Monitor::initiate_dir(&mut sys.world, jones, udd_j, "phantom");
        assert_eq!(
            Monitor::status(&mut sys.world, jones, phantom, "anything"),
            Err(AccessError::NoInfo)
        );
    }

    #[test]
    fn acl_revocation_retracts_outstanding_descriptors() {
        let (mut sys, _admin, jones) = setup(KernelConfig::kernel());
        let udd_j = udd_of(&mut sys, jones);
        let home = Monitor::create_directory(&mut sys.world, jones, udd_j, "Jones", Label::BOTTOM)
            .unwrap();
        let mut acl = Acl::of("Jones.CSR.a", AclMode::RW);
        acl.add("Smith.CSR.a", AclMode::R);
        let seg = Monitor::create_segment(
            &mut sys.world,
            jones,
            home,
            "shared",
            acl,
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap();
        Monitor::write(&mut sys.world, jones, seg, 0, Word::new(9)).unwrap();
        // Smith binds it and reads happily.
        let smith = sys
            .world
            .create_process(UserId::new("Smith", "CSR", "a"), Label::BOTTOM, 4);
        let seg_s = Monitor::initiate_path(&mut sys.world, smith, ">udd>Jones>shared").unwrap();
        assert!(Monitor::read(&mut sys.world, smith, seg_s, 0).is_ok());
        // Jones revokes Smith. With setfaults, Smith's *outstanding*
        // descriptor dies immediately.
        Monitor::set_segment_acl(
            &mut sys.world,
            jones,
            home,
            "shared",
            Acl::of("Jones.CSR.a", AclMode::RW),
        )
        .unwrap();
        assert!(matches!(
            Monitor::read(&mut sys.world, smith, seg_s, 0),
            Err(AccessError::Fault(Fault::AccessViolation { .. }))
        ));
        // Jones himself still has access (his SDW was recomputed too).
        assert!(Monitor::read(&mut sys.world, jones, seg, 0).is_ok());
        // In the legacy configuration the same revocation leaves Smith's
        // old descriptor alive — the gap attack 15 exploits.
        let (mut sys2, _a2, jones2) = setup(KernelConfig::legacy());
        let udd2 = udd_of(&mut sys2, jones2);
        let home2 =
            Monitor::create_directory(&mut sys2.world, jones2, udd2, "Jones", Label::BOTTOM)
                .unwrap();
        let mut acl2 = Acl::of("Jones.CSR.a", AclMode::RW);
        acl2.add("Smith.CSR.a", AclMode::R);
        Monitor::create_segment(
            &mut sys2.world,
            jones2,
            home2,
            "shared",
            acl2,
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap();
        let smith2 = sys2
            .world
            .create_process(UserId::new("Smith", "CSR", "a"), Label::BOTTOM, 4);
        let seg_s2 = Monitor::initiate_path(&mut sys2.world, smith2, ">udd>Jones>shared").unwrap();
        Monitor::set_segment_acl(
            &mut sys2.world,
            jones2,
            home2,
            "shared",
            Acl::of("Jones.CSR.a", AclMode::RW),
        )
        .unwrap();
        assert!(
            Monitor::read(&mut sys2.world, smith2, seg_s2, 0).is_ok(),
            "legacy: the stale descriptor persists"
        );
    }

    #[test]
    fn user_ring_resolver_drives_the_segno_interface() {
        let (mut sys, _a, jones) = setup(KernelConfig::kernel());
        let udd_j = udd_of(&mut sys, jones);
        mk_seg(&mut sys, jones, udd_j, "target", "Jones.CSR.a");
        let mut resolver = UserRingResolver {
            world: &mut sys.world,
            pid: jones,
        };
        let (dir, leaf) = mks_fs::pathres::resolve_path(&mut resolver, ">udd>target").unwrap();
        assert_eq!(leaf, "target");
        let seg = Monitor::initiate(&mut sys.world, jones, dir, &leaf).unwrap();
        assert!(Monitor::read(&mut sys.world, jones, seg, 0).is_ok());
    }
}
