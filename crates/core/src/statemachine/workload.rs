//! The E15 mixed workload and the E16 overload ladder, written once as
//! commit streams.
//!
//! A generator *chooses* commits (using outcomes of earlier commits —
//! the directory pool grows only when a create succeeds, the loop stops
//! when the `Crash` site fires) and hands each one to an `Executor`.
//! Three executors run the same mix: the recorder here (which digests
//! every boundary, for E20), the crash-recovery harness
//! ([`crate::recovery::run_plan`], E15/E16) and the replicated cluster
//! ([`crate::replicate::drive_mixed_workload`], E21). Replay never
//! re-runs a generator: it folds the recorded log, so any hidden input
//! a driver smuggled past the commit stream shows up as a boundary
//! mismatch.

use mks_fs::{Acl, AclMode, UserId};
use mks_hw::{FaultPlan, RingBrackets, SplitMix64};
use mks_mls::{Compartments, Label, Level};

use crate::pressure::{PressureConfig, Priority};
use crate::world::{admin_user, KProcId};

use super::{Commit, Genesis, KernelStateMachine, Outcome, StateDigest};

/// Shape of one run of the mixed workload under a fault plan.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorkloadSpec {
    /// Seeds the operation mix (independently of the fault plan).
    pub seed: u64,
    /// Operation boundaries attempted before a natural stop.
    pub ops: u64,
    /// The fault schedule armed over the workload.
    pub plan: FaultPlan,
    /// Arm admission control (mixed priorities) under the plan.
    pub overload: bool,
}

impl WorkloadSpec {
    /// The E15 shape under `plan`: 32 ops, admission off, the mix
    /// seeded with the plan's own seed (0 for a hand-built plan).
    pub fn of_plan(plan: FaultPlan) -> WorkloadSpec {
        WorkloadSpec {
            seed: plan.seed,
            ops: 32,
            plan,
            overload: false,
        }
    }

    /// The E15 shape: 32 ops under `FaultPlan::generate(seed)`.
    pub fn faults(seed: u64) -> WorkloadSpec {
        WorkloadSpec::of_plan(FaultPlan::generate(seed))
    }

    /// The E16-crossover shape: the same mixed workload under an
    /// exhaustion-heavy plan with admission control armed.
    pub fn overload(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            overload: true,
            ..WorkloadSpec::of_plan(FaultPlan::generate_overload(seed))
        }
    }

    /// Renders the whole spec — mix seed, op count, overload flag and
    /// every event of the plan — as a ready-to-paste regression test
    /// (see `docs/FAULTS.md`, "Writing a regression from a failure").
    /// The text is laid out as `rustfmt` would, so a pasted copy stays
    /// byte-identical to what the failing sweep printed.
    pub fn to_regression_snippet(&self) -> String {
        let mut out = format!(
            "let spec = WorkloadSpec {{\n    seed: {},\n    ops: {},\n    plan: FaultPlan {{\n        seed: {},\n        events: vec![\n",
            self.seed, self.ops, self.plan.seed
        );
        for e in &self.plan.events {
            out.push_str(&format!(
                "            FaultEvent {{\n                kind: InjectKind::{},\n                nth: {},\n                detail: {:#x},\n            }},\n",
                e.kind.variant_name(),
                e.nth,
                e.detail
            ));
        }
        out.push_str(&format!(
            "        ],\n    }},\n    overload: {},\n}};\nassert!(run_plan(&spec, SalvageMutation::None).ok());\n",
            self.overload
        ));
        out
    }
}

/// Where a generated workload's commits go.
pub(crate) trait Executor {
    /// Applies one commit and reports what it produced.
    fn apply(&mut self, commit: &Commit) -> Outcome;

    /// Runs after each operation of the mix. Does nothing by default.
    fn end_op(&mut self) {}
}

impl Executor for KernelStateMachine {
    fn apply(&mut self, commit: &Commit) -> Outcome {
        KernelStateMachine::apply(self, commit)
    }
}

/// How a run of the mix ended.
pub(crate) struct MixEnd {
    /// The administrator, who reads the metering gate in the tail.
    pub(crate) admin: KProcId,
    /// Whether the `Crash` site stopped the mix mid-stream.
    pub(crate) crashed: bool,
    /// Operations executed before the stop.
    pub(crate) ops_run: u64,
}

/// The pid a `CreateProcess` commit produced.
pub(crate) fn pid_of(out: Outcome) -> KProcId {
    match out {
        Outcome::Pid(p) => p,
        other => unreachable!("process creation is infallible: {other:?}"),
    }
}

/// The E15 mixed workload, the one copy every executor runs. Setup: an
/// administrator, a stranger (whose references are denied: audit-log
/// traffic through the `SkewClock` site) and an admin-only paging
/// probe, then four priming ticks. With `overload`, admission control
/// is armed with the administrator above the stranger in the shed
/// order. With a `plan`, the plan is armed and the `Crash` site is
/// polled at every operation boundary, so the plan chooses exactly
/// which operation the kill interrupts. Then up to `ops` operations of
/// the seeded six-way mix — directory creation, segment creation,
/// paging churn, a denied initiate, a daemon wakeup, idle ticks —
/// four closing ticks, and the plan disarmed. Operations on a damaged
/// hierarchy may be refused; deterministic refusals are part of the
/// scenario.
pub(crate) fn mixed_workload(
    ex: &mut impl Executor,
    seed: u64,
    ops: u64,
    plan: Option<&FaultPlan>,
    overload: bool,
) -> MixEnd {
    let admin = pid_of(ex.apply(&Commit::CreateProcess {
        user: admin_user(),
        label: Label::BOTTOM,
        ring: 4,
    }));
    let root = ex
        .apply(&Commit::BindRoot { pid: admin })
        .seg()
        .expect("root binds");
    let stranger = pid_of(ex.apply(&Commit::CreateProcess {
        user: UserId::new("Mallory", "Guest", "a"),
        label: Label::BOTTOM,
        ring: 4,
    }));
    let sroot = ex
        .apply(&Commit::BindRoot { pid: stranger })
        .seg()
        .expect("root binds");
    let probe = ex
        .apply(&Commit::CreateSegment {
            pid: admin,
            dir: root,
            name: "probe".into(),
            acl: Acl::of("Admin.SysAdmin.a", AclMode::RW),
            brackets: RingBrackets::new(4, 4, 4),
            label: Label::BOTTOM,
        })
        .seg()
        .expect("probe segment creates on a fresh system");
    ex.apply(&Commit::Tick { times: 4 });
    if overload {
        ex.apply(&Commit::AdmissionEnable {
            config: PressureConfig::default(),
        });
        ex.apply(&Commit::SetPriority {
            pid: admin,
            priority: Priority::Interactive,
        });
        ex.apply(&Commit::SetPriority {
            pid: stranger,
            priority: Priority::Background,
        });
    }
    if let Some(plan) = plan {
        ex.apply(&Commit::ArmPlan { plan: plan.clone() });
    }

    let mut rng = SplitMix64::new(seed ^ 0xd1f7_ac75_0bad_c0de);
    let mut dirs = vec![root];
    let mut crashed = false;
    let mut ops_run = 0u64;
    let secret = Label::new(Level::SECRET, Compartments::of(&[1]));
    for i in 0..ops {
        if plan.is_some() && ex.apply(&Commit::CrashPoll) == Outcome::Fired(true) {
            crashed = true;
            break;
        }
        ops_run += 1;
        match rng.below(6) {
            0 => {
                let parent = dirs[rng.below(dirs.len() as u64) as usize];
                let label = if rng.below(2) == 0 {
                    Label::BOTTOM
                } else {
                    secret
                };
                if let Some(segno) = ex
                    .apply(&Commit::CreateDirectory {
                        pid: admin,
                        dir: parent,
                        name: format!("d{i}"),
                        label,
                    })
                    .seg()
                {
                    dirs.push(segno);
                }
            }
            1 => {
                let parent = dirs[rng.below(dirs.len() as u64) as usize];
                ex.apply(&Commit::CreateSegment {
                    pid: admin,
                    dir: parent,
                    name: format!("s{i}"),
                    acl: Acl::of("*.*.*", AclMode::RW),
                    brackets: RingBrackets::new(4, 4, 4),
                    label: secret,
                });
            }
            2 => {
                // Paging churn through the monitor: the SlowDisk and
                // FailDisk sites fire inside the transfers it provokes.
                let offset = rng.below(64);
                ex.apply(&Commit::Write {
                    pid: admin,
                    seg: probe,
                    offset,
                    value: i + 1,
                });
                ex.apply(&Commit::Read {
                    pid: admin,
                    seg: probe,
                    offset,
                });
            }
            3 => {
                ex.apply(&Commit::Initiate {
                    pid: stranger,
                    dir: sroot,
                    name: "probe".into(),
                });
            }
            4 => {
                ex.apply(&Commit::Wakeup { daemon: 0 });
                ex.apply(&Commit::Tick { times: 1 });
            }
            _ => {
                ex.apply(&Commit::Tick { times: 2 });
            }
        }
        ex.end_op();
    }
    ex.apply(&Commit::Tick { times: 4 });
    if plan.is_some() {
        ex.apply(&Commit::Disarm);
    }
    MixEnd {
        admin,
        crashed,
        ops_run,
    }
}

/// The recovery tail of the recorded and replicated drivers: salvage,
/// boot check, and a metering read by `admin` that exports the log
/// digest. Returns the salvage's problem count and whether the boot
/// check diverged.
pub(crate) fn recovery_tail(ex: &mut impl Executor, admin: KProcId) -> (u64, bool) {
    let problems = match ex.apply(&Commit::Salvage) {
        Outcome::Value(n) => n,
        _ => 0,
    };
    let diverged = ex.apply(&Commit::BootCheck) != Outcome::Value(0);
    ex.apply(&Commit::MeteringGet { pid: admin });
    (problems, diverged)
}

/// A live run and the evidence it leaves: the machine (whose world owns
/// the sealed log), the digest at every commit boundary, and the
/// workload-level facts the experiment asserts over.
pub struct RecordedRun {
    /// The live machine, log included.
    pub sm: KernelStateMachine,
    /// `boundaries[0]` = genesis; `boundaries[k]` = after commit `k-1`.
    pub boundaries: Vec<StateDigest>,
    /// Whether the `Crash` site stopped the workload mid-stream.
    pub crashed: bool,
    /// Workload operations executed before the stop.
    pub ops_run: u64,
    /// Problems the salvage commit reported.
    pub salvage_problems: u64,
    /// Whether the boot-check commit saw divergence (must be 0).
    pub boot_divergence: bool,
}

/// Applies one commit and records the boundary digest.
struct Recorder {
    sm: KernelStateMachine,
    boundaries: Vec<StateDigest>,
}

impl Executor for Recorder {
    fn apply(&mut self, commit: &Commit) -> Outcome {
        let out = self.sm.apply(commit);
        self.boundaries.push(self.sm.digest());
        out
    }
}

impl Recorder {
    fn new(genesis: &Genesis) -> Recorder {
        let sm = genesis.build();
        let boundaries = vec![sm.digest()];
        Recorder { sm, boundaries }
    }

    /// Records the recovery tail and hands back the run.
    fn finish(mut self, end: MixEnd) -> RecordedRun {
        let (salvage_problems, boot_divergence) = recovery_tail(&mut self, end.admin);
        RecordedRun {
            sm: self.sm,
            boundaries: self.boundaries,
            crashed: end.crashed,
            ops_run: end.ops_run,
            salvage_problems,
            boot_divergence,
        }
    }
}

/// Records the mixed workload under `spec.plan`, then the recovery
/// tail.
pub fn record_fault_run(genesis: &Genesis, spec: &WorkloadSpec) -> RecordedRun {
    let mut rec = Recorder::new(genesis);
    let end = mixed_workload(
        &mut rec,
        spec.seed,
        spec.ops,
        Some(&spec.plan),
        spec.overload,
    );
    rec.finish(end)
}

/// Rungs of the recorded overload ladder: principals per rung, all
/// hammering the same small machine under admission control.
const LADDER_RUNGS: [u32; 4] = [2, 4, 8, 16];

/// Operations each ladder principal issues per rung.
const LADDER_OPS: u64 = 6;

/// Records the E16-shaped overload ladder as commits: admission armed
/// up front, then for each rung a cohort of principals (priority
/// classes assigned round-robin, lowest first) creating and hammering
/// segments while pressure climbs — shed decisions and their audited
/// `Overload` refusals land in the log like any other deterministic
/// verdict. Ends with the same recovery tail as the fault runs.
pub fn record_overload_ladder(genesis: &Genesis, seed: u64) -> RecordedRun {
    let mut rec = Recorder::new(genesis);
    let admin = pid_of(rec.apply(&Commit::CreateProcess {
        user: admin_user(),
        label: Label::BOTTOM,
        ring: 4,
    }));
    let root = rec
        .apply(&Commit::BindRoot { pid: admin })
        .seg()
        .expect("root binds");
    rec.apply(&Commit::Tick { times: 4 });
    // Tight soft caps make the small machine's exhaustion visible to the
    // gauges early (the E16 recipe): the probe population crosses the
    // AST cap and the audit log crosses its headroom cap as the rungs
    // climb, so the later cohorts run into the shed thresholds.
    rec.apply(&Commit::AdmissionEnable {
        config: PressureConfig {
            ast_soft_cap: 24,
            audit_cap: 512,
            ..PressureConfig::default()
        },
    });
    rec.apply(&Commit::SetPriority {
        pid: admin,
        priority: Priority::System,
    });
    // The ladder arms the exhaustion noise of the overload schedule but
    // strips its `Crash` events: every rung must complete so the
    // differential covers the full shed progression. Crash-mid-shed is
    // the `WorkloadSpec::overload` fault runs' job.
    let plan = FaultPlan::from_events(
        FaultPlan::generate_overload(seed)
            .events
            .into_iter()
            .filter(|e| e.kind != mks_hw::InjectKind::Crash)
            .collect(),
    );
    rec.apply(&Commit::ArmPlan { plan });

    let mut rng = SplitMix64::new(seed ^ 0x0e16_1add_e50f_f00d);
    let mut crashed = false;
    let mut ops_run = 0u64;
    'ladder: for (r, rung) in LADDER_RUNGS.iter().enumerate() {
        // The cohort: per-principal probes created under ROOT by the
        // System-class administrator (creation is never shed),
        // world-writable so the principals' own paging traffic is what
        // admission judges. Each principal acquires its probe through
        // its *own* root binding — segment numbers are per-process.
        let mut cohort = Vec::new();
        for p in 0..*rung {
            let user = UserId::new(&format!("Load{p}"), &format!("Rung{r}"), "a");
            let pid = pid_of(rec.apply(&Commit::CreateProcess {
                user,
                label: Label::BOTTOM,
                ring: 4,
            }));
            let Some(own_root) = rec.apply(&Commit::BindRoot { pid }).seg() else {
                continue;
            };
            rec.apply(&Commit::SetPriority {
                pid,
                priority: Priority::ALL[(p as usize) % Priority::ALL.len()],
            });
            let name = format!("p{r}_{p}");
            rec.apply(&Commit::CreateSegment {
                pid: admin,
                dir: root,
                name: name.clone(),
                acl: Acl::of("*.*.*", AclMode::RW),
                brackets: RingBrackets::new(4, 4, 4),
                label: Label::BOTTOM,
            });
            let own = rec.apply(&Commit::Initiate {
                pid,
                dir: own_root,
                name,
            });
            if let Some(probe) = own.seg() {
                cohort.push((pid, probe));
            }
        }
        for _ in 0..LADDER_OPS {
            for (pid, probe) in &cohort {
                if rec.apply(&Commit::CrashPoll) == Outcome::Fired(true) {
                    crashed = true;
                    break 'ladder;
                }
                ops_run += 1;
                // Page-spanning traffic: frame and bulk saturation climb
                // with the rung, pushing the later cohorts into the shed
                // thresholds exactly as E16's ladder does.
                let offset = rng.below(4) * mks_hw::PAGE_WORDS as u64 + rng.below(64);
                rec.apply(&Commit::Write {
                    pid: *pid,
                    seg: *probe,
                    offset,
                    value: ops_run,
                });
                rec.apply(&Commit::Read {
                    pid: *pid,
                    seg: *probe,
                    offset,
                });
            }
            rec.apply(&Commit::Tick { times: 1 });
        }
    }
    rec.apply(&Commit::Tick { times: 4 });
    rec.apply(&Commit::Disarm);
    rec.finish(MixEnd {
        admin,
        crashed,
        ops_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_snippet_spells_out_the_whole_spec() {
        let spec = WorkloadSpec::overload(99);
        let snippet = spec.to_regression_snippet();
        assert!(snippet.starts_with("let spec = WorkloadSpec {\n    seed: 99,\n    ops: 32,\n"));
        assert!(snippet.contains("plan: FaultPlan {\n        seed: 99,\n"));
        assert!(snippet.contains("overload: true,\n"));
        for e in &spec.plan.events {
            assert!(snippet.contains(&format!(
                "kind: InjectKind::{},\n                nth: {},\n                detail: {:#x},",
                e.kind.variant_name(),
                e.nth,
                e.detail
            )));
        }
        assert!(snippet.ends_with("assert!(run_plan(&spec, SalvageMutation::None).ok());\n"));
    }
}
