//! The replayable kernel: a pure state-machine core behind the runtime
//! wrapper (ROADMAP item 2, experiment E20).
//!
//! The paper's engineering argument is that a security kernel must be
//! small enough to *check*, not trust. E15 checks the first instant —
//! boot determinism pins the initial protected state. This module
//! upgrades that to full-history determinism, following the
//! `zos-kernel-core` shape: a [`Genesis`] describes how a system is
//! assembled; every subsequent state mutation flows through an atomic
//! [`Commit`] sealed into an append-only [`CommitLog`]; and
//! [`reduce`]`(genesis, log)` folds the log back into a bit-exact copy
//! of the live state. Snapshots, restores, time-travel audit queries
//! and the live-vs-replayed differential are all derived from log
//! prefixes — see [`replay`] and [`timetravel`].
//!
//! The split matters for what sits on each side of it. The state
//! machine ([`KernelStateMachine`]) owns the whole [`System`] and is
//! the only writer; observation ([`KernelStateMachine::digest`]) is
//! read-only and never perturbs what it measures. Commits are data,
//! not closures, so a log is storable, diffable and auditable — the
//! prerequisite for replication, migration, and the small-scope
//! enumeration the item-5 prover needs.

pub mod commit;
pub mod replay;
pub mod timetravel;
pub mod wire;
pub mod workload;

pub use commit::{Commit, CommitLog, ReplayError, SealedCommit};
pub use replay::{
    reduce, replay_differential, restore, snapshot_at, MachineSnapshot, Mismatch, ReplayMutation,
};
pub use timetravel::TimeTravel;
pub use wire::{decode_commit_log, decode_snapshot, encode_commit_log, encode_snapshot, WireError};
pub use workload::{record_fault_run, record_overload_ladder, RecordedRun, WorkloadSpec};

use mks_hw::{fnv64, CpuModel, Fnv64, InjectKind, Word};
use mks_procs::{Effects, FnJob, Step};

use crate::config::KernelConfig;
use crate::init::image::{build_image, load_image};
use crate::init::{state_hash, target_state};
use crate::monitor::Monitor;
use crate::world::{KProcId, KernelWorld, System, SystemSize};

/// Everything needed to assemble a replayable system from nothing:
/// configuration, sizing, and the dedicated daemons installed before
/// the first commit. Two machines built from equal geneses are
/// bit-exact, so the genesis digest roots the seal chain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Genesis {
    /// Which kernel configuration to assemble.
    pub cfg: KernelConfig,
    /// Primary-memory frames.
    pub frames: usize,
    /// Bulk-store records.
    pub bulk_records: usize,
    /// Trace-ring capacity (`None` = the `mks-trace` default).
    pub trace_capacity: Option<usize>,
    /// Dedicated daemons blocked on event channels, addressable by
    /// [`Commit::Wakeup`] index.
    pub daemons: u32,
}

impl Genesis {
    /// The E15-sized replayable system: security-kernel configuration,
    /// small memory (to force paging traffic), one blocked daemon.
    pub fn kernel_small() -> Genesis {
        Genesis {
            cfg: KernelConfig::kernel(),
            frames: 16,
            bulk_records: 64,
            trace_capacity: None,
            daemons: 1,
        }
    }

    /// The boot-image hash this genesis initializes to (E15 invariant 5).
    pub fn boot_hash(&self) -> u64 {
        state_hash(&target_state(&self.cfg))
    }

    /// Digest rooting the seal chain: FNV-1a over the recipe's wire
    /// encoding *and* the boot target, so logs from different geneses
    /// or different boot images can never be confused.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        wire::put_genesis(&mut h, self);
        wire::put_u64(&mut h, self.boot_hash());
        h.finish()
    }

    /// Assembles the machine: builds the system, installs the daemons,
    /// and roots the world's commit log at this genesis digest.
    pub fn build(&self) -> KernelStateMachine {
        let mut sys = System::with_size(
            self.cfg,
            SystemSize {
                frames: self.frames,
                bulk_records: self.bulk_records,
                cpu: CpuModel::H6180,
                trace_capacity: self.trace_capacity,
            },
        );
        let mut daemons = Vec::new();
        for _ in 0..self.daemons {
            let ev = sys.tc.alloc_event();
            sys.tc.add_dedicated(Box::new(FnJob::new(
                "replay-daemon",
                move |_e: &mut Effects<'_, KernelWorld>| Step::Block(ev),
            )));
            daemons.push(ev);
        }
        sys.world.commits.seed(self.digest());
        KernelStateMachine {
            genesis: *self,
            sys,
            daemons,
        }
    }
}

/// What applying one commit produced — returned for the driver's
/// convenience (so a workload can thread segment numbers through), not
/// part of the replay contract: equality of [`StateDigest`]s at every
/// boundary is what the differential checks.
#[derive(Clone, PartialEq, Debug)]
pub enum Outcome {
    /// The mutation completed with nothing to return.
    Unit,
    /// A process was created.
    Pid(KProcId),
    /// A segment number was produced.
    Seg(mks_hw::SegNo),
    /// A scalar result (word read, salvage problem count, digest of a
    /// gate's output, boot-check divergence flag).
    Value(u64),
    /// The `Crash` site fired (true) or stayed quiet at this boundary.
    Fired(bool),
    /// The kernel refused the operation — a deterministic verdict, not
    /// an error: refusals replay exactly like grants.
    Refused(String),
}

impl Outcome {
    /// The segment number, if this outcome carries one.
    pub fn seg(&self) -> Option<mks_hw::SegNo> {
        match self {
            Outcome::Seg(s) => Some(*s),
            _ => None,
        }
    }
}

/// The replayable kernel: the whole [`System`] behind a single-writer
/// interface. Every mutation goes through [`KernelStateMachine::apply`]
/// — which seals the commit into the world's log *then* dispatches it —
/// and every observation goes through read-only accessors, so the state
/// a digest reports is exactly the state the log proves.
pub struct KernelStateMachine {
    genesis: Genesis,
    sys: System,
    daemons: Vec<mks_procs::EventId>,
}

impl KernelStateMachine {
    /// The genesis this machine was assembled from.
    pub fn genesis(&self) -> Genesis {
        self.genesis
    }

    /// Read-only view of the world (audit log, commit log, hierarchy).
    pub fn world(&self) -> &KernelWorld {
        &self.sys.world
    }

    /// Seals `commit` into the log and applies it. Infallible by
    /// design: a commit the kernel refuses produces
    /// [`Outcome::Refused`] deterministically — the refusal *is* the
    /// state transition (audit records, counters), and it replays.
    pub fn apply(&mut self, commit: &Commit) -> Outcome {
        self.sys.world.commits.append(commit.clone());
        self.dispatch(commit)
    }

    /// Applies a commit that was sealed elsewhere (a log under replay, a
    /// primary's append), checking its seal *before* it runs: it must
    /// sit at the next position ([`ReplayError::NonMonotonic`]) and
    /// recompute from this log's head ([`ReplayError::ChainMismatch`]).
    /// A rejected seal changes nothing; an accepted one is stored as
    /// given, so each commit is sealed once.
    pub(crate) fn apply_sealed(&mut self, sealed: &SealedCommit) -> Result<Outcome, ReplayError> {
        self.sys.world.commits.append_sealed(sealed)?;
        Ok(self.dispatch(&sealed.commit))
    }

    fn dispatch(&mut self, commit: &Commit) -> Outcome {
        let world = &mut self.sys.world;
        // A log under replay is external data — a mutation arm's log is
        // chain-valid but may name processes that never existed in the
        // replayed history. Refuse deterministically; never panic.
        if let Some(pid) = commit.acting_pid() {
            if !world.has_proc(pid) {
                return Outcome::Refused(format!("NoSuchProcess({pid:?})"));
            }
        }
        match commit {
            Commit::CreateProcess { user, label, ring } => {
                Outcome::Pid(world.create_process(user.clone(), *label, *ring))
            }
            Commit::DestroyProcess { pid } => {
                world.destroy_process(*pid);
                Outcome::Unit
            }
            Commit::BindRoot { pid } => Outcome::Seg(world.bind_root(*pid)),
            Commit::Initiate { pid, dir, name } => {
                refusable_seg(Monitor::initiate(world, *pid, *dir, name))
            }
            Commit::CreateSegment {
                pid,
                dir,
                name,
                acl,
                brackets,
                label,
            } => refusable_seg(Monitor::create_segment(
                world,
                *pid,
                *dir,
                name,
                acl.clone(),
                *brackets,
                *label,
            )),
            Commit::CreateDirectory {
                pid,
                dir,
                name,
                label,
            } => refusable_seg(Monitor::create_directory(world, *pid, *dir, name, *label)),
            Commit::DeleteSegment { pid, dir, name } => {
                refusable_unit(Monitor::delete_segment(world, *pid, *dir, name))
            }
            Commit::SetSegmentAcl {
                pid,
                dir,
                name,
                acl,
            } => refusable_unit(Monitor::set_segment_acl(
                world,
                *pid,
                *dir,
                name,
                acl.clone(),
            )),
            Commit::SetQuota {
                pid,
                dir,
                limit_pages,
            } => refusable_unit(Monitor::set_quota(world, *pid, *dir, *limit_pages)),
            Commit::ListDir { pid, dir } => match Monitor::list_dir(world, *pid, *dir) {
                Ok(names) => Outcome::Value(fnv64(names.join("\n").as_bytes())),
                Err(e) => Outcome::Refused(format!("{e:?}")),
            },
            Commit::Read { pid, seg, offset } => {
                match Monitor::read(world, *pid, *seg, *offset as usize) {
                    Ok(w) => Outcome::Value(w.raw()),
                    Err(e) => Outcome::Refused(format!("{e:?}")),
                }
            }
            Commit::Write {
                pid,
                seg,
                offset,
                value,
            } => refusable_unit(Monitor::write(
                world,
                *pid,
                *seg,
                *offset as usize,
                Word::new(*value),
            )),
            Commit::Terminate { pid, seg } => refusable_unit(Monitor::terminate(world, *pid, *seg)),
            Commit::CallGate { pid, gate, entry } => {
                match Monitor::call_gate(world, *pid, gate, entry) {
                    Ok(ring) => Outcome::Value(u64::from(ring)),
                    Err(e) => Outcome::Refused(format!("{e:?}")),
                }
            }
            Commit::MeteringGet { pid } => match Monitor::metering_snapshot(world, *pid) {
                Ok(json) => Outcome::Value(fnv64(json.as_bytes())),
                Err(e) => Outcome::Refused(format!("{e:?}")),
            },
            Commit::Audit { who, event } => {
                world.audit(who.clone(), event.clone());
                Outcome::Unit
            }
            Commit::Tick { times } => {
                for _ in 0..*times {
                    self.sys.tc.tick(&mut self.sys.world);
                }
                Outcome::Unit
            }
            Commit::Wakeup { daemon } => match self.daemons.get(*daemon as usize) {
                Some(ev) => {
                    let ev = *ev;
                    self.sys.tc.wakeup_external(&mut self.sys.world, ev);
                    Outcome::Unit
                }
                None => Outcome::Refused("no such daemon".into()),
            },
            Commit::AdmissionEnable { config } => {
                world.admission.enable(*config);
                Outcome::Unit
            }
            Commit::SetPriority { pid, priority } => {
                world.admission.set_priority(*pid, *priority);
                Outcome::Unit
            }
            Commit::ArmPlan { plan } => {
                world.vm.machine.inject.arm(plan);
                Outcome::Unit
            }
            Commit::Disarm => {
                world.vm.machine.inject.disarm();
                Outcome::Unit
            }
            Commit::CrashPoll => {
                Outcome::Fired(world.vm.machine.inject.fires(InjectKind::Crash).is_some())
            }
            Commit::Salvage => {
                let report = world.fs.salvage();
                Outcome::Value(report.problems.len() as u64)
            }
            Commit::BootCheck => {
                let img = build_image(&world.cfg);
                let diverged = match load_image(&img, &world.vm.machine.clock) {
                    Ok((state, _)) => state_hash(&state) != self.genesis.boot_hash(),
                    Err(_) => true,
                };
                Outcome::Value(u64::from(diverged))
            }
        }
    }

    /// Publishes this replica's replication status into the world, where
    /// the metering gate exports it read-only (E21). Observational only:
    /// the raw trace snapshot folded into [`StateDigest::metrics_digest`]
    /// never carries it, so publishing different vantage points on
    /// different replicas cannot make their digests diverge.
    pub(crate) fn set_repl_status(&mut self, status: Option<mks_trace::ReplSnapshot>) {
        self.world_mut().repl_status = status;
    }

    /// Crate-internal mutable world access, for the legacy backup tape,
    /// the dump/restore differential tests and the crash-recovery
    /// harness ([`crate::recovery::run_plan`]), whose salvage, label
    /// mutation and invariant checks inspect the world after its
    /// workload ran through [`KernelStateMachine::apply`]. Deliberately
    /// not public: every external mutation must flow through
    /// [`KernelStateMachine::apply`] so the log stays the whole truth.
    pub(crate) fn world_mut(&mut self) -> &mut KernelWorld {
        &mut self.sys.world
    }

    /// A whole-kernel state digest at the current commit boundary.
    /// Observation only — nothing here moves a counter, takes a gate,
    /// or advances the clock, so digesting at every boundary does not
    /// change what is being digested.
    pub fn digest(&self) -> StateDigest {
        let w = &self.sys.world;
        let (audit_digest, metrics_digest, _) = audit_and_metrics_digest(w);
        // The census comes sorted by uid; each pair is digested in its
        // wire form.
        let mut labels = Fnv64::new();
        for (uid, label) in &w.fs.label_census() {
            wire::put_u64(&mut labels, uid.0);
            wire::put_label(&mut labels, label);
        }
        StateDigest {
            seq: w.commits.len(),
            clock: w.vm.machine.clock.now(),
            audit_records: w.log.len() as u64,
            audit_digest,
            metrics_digest,
            census: w.gates.user_available_entries() as u64,
            processes: w.nr_processes() as u64,
            label_digest: labels.finish(),
            boot_hash: self.genesis.boot_hash(),
            log_digest: w.commits.head(),
        }
    }
}

/// The part of a whole-kernel fingerprint that [`StateDigest`] and the
/// parallel lane report ([`crate::par::LaneReport`]) share:
/// `(audit digest, metrics digest, metrics JSON length)`, FNV-1a over
/// the audit log (one `{:?}` line per record) and over the metering
/// snapshot JSON.
pub(crate) fn audit_and_metrics_digest(w: &KernelWorld) -> (u64, u64, usize) {
    let mut log_bytes = Vec::new();
    for r in w.log.records() {
        log_bytes.extend_from_slice(format!("{r:?}\n").as_bytes());
    }
    let snap_json = w.vm.machine.trace.snapshot().to_json();
    let metrics = fnv64(snap_json.as_bytes());
    (fnv64(&log_bytes), metrics, snap_json.len())
}

/// A whole-kernel fingerprint at one commit boundary. The differential
/// claim of E20 is that a live machine and its replay produce equal
/// digests at *every* boundary — each field pins one subsystem, so a
/// mismatch names the layer that diverged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StateDigest {
    /// Commits applied so far.
    pub seq: u64,
    /// Simulated clock.
    pub clock: u64,
    /// Audit records appended so far.
    pub audit_records: u64,
    /// FNV-1a over the full audit log.
    pub audit_digest: u64,
    /// FNV-1a over the metrics-registry JSON snapshot.
    pub metrics_digest: u64,
    /// User-available gate census (pinned at 54 in the kernel config).
    pub census: u64,
    /// Live kernel processes.
    pub processes: u64,
    /// FNV-1a over the wire form of the sorted (uid, label) census of
    /// the hierarchy.
    pub label_digest: u64,
    /// The genesis boot-image hash (E15 invariant 5).
    pub boot_hash: u64,
    /// The commit log's chain head.
    pub log_digest: u64,
}

impl StateDigest {
    /// Field-by-field comparison, returning `(field, self, other)` for
    /// every divergence.
    pub(crate) fn diff(&self, other: &StateDigest) -> Vec<(&'static str, u64, u64)> {
        let pairs = [
            ("seq", self.seq, other.seq),
            ("clock", self.clock, other.clock),
            ("audit_records", self.audit_records, other.audit_records),
            ("audit_digest", self.audit_digest, other.audit_digest),
            ("metrics_digest", self.metrics_digest, other.metrics_digest),
            ("census", self.census, other.census),
            ("processes", self.processes, other.processes),
            ("label_digest", self.label_digest, other.label_digest),
            ("boot_hash", self.boot_hash, other.boot_hash),
            ("log_digest", self.log_digest, other.log_digest),
        ];
        pairs.into_iter().filter(|(_, a, b)| a != b).collect()
    }
}

fn refusable_seg(r: Result<mks_hw::SegNo, crate::monitor::AccessError>) -> Outcome {
    match r {
        Ok(s) => Outcome::Seg(s),
        Err(e) => Outcome::Refused(format!("{e:?}")),
    }
}

fn refusable_unit<T>(r: Result<T, crate::monitor::AccessError>) -> Outcome {
    match r {
        Ok(_) => Outcome::Unit,
        Err(e) => Outcome::Refused(format!("{e:?}")),
    }
}
