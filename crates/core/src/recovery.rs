//! The crash-recovery harness: workloads under injected faults, a
//! mid-operation kill, a re-boot through initialization and the salvager,
//! and a machine-checked pass over the kernel's integrity invariants.
//!
//! The paper's engineering argument is that a security kernel must come
//! back *securely* from a crash: "the salvager repairs the hierarchy in
//! the restrictive direction" and initialization from a pre-built memory
//! image "always produces the same protected state". This module turns
//! that argument into an executable check. [`run_plan`] builds the small
//! replayable system and sends the shared mixed workload of a
//! [`WorkloadSpec`] (hierarchy creation, paging traffic, denied
//! references, IPC wakeups under a seeded fault plan) through the state
//! machine's single door as sealed commits, until the plan's `Crash`
//! event kills it mid-operation. It then recovers — re-boot from the
//! memory image, official salvage — and asserts the invariants the rest
//! of the tree relies on:
//!
//! 1. **labels only raised** — no surviving branch's label moved downward
//!    across recovery (restrictive repair, the paper's rule);
//! 2. **no residual damage** — a second salvage after recovery reports a
//!    clean hierarchy (repair is complete and idempotent);
//! 3. **gate census unchanged** — the kernel's entry-point surface is a
//!    function of configuration, not of crash history;
//! 4. **reference monitor still consulted** — post-recovery references
//!    still produce verdict records and counter movement in the flight
//!    recorder;
//! 5. **boot determinism** — the memory image still loads to the exact
//!    `target_state` hash.
//!
//! A [`SalvageMutation`] deliberately breaks the recovery path (skip the
//! salvage, or lower a label after repair) so the harness can prove its
//! own teeth: a broken salvager must surface as violations.

use std::collections::BTreeMap;

use mks_fs::Problem;
use mks_hw::FiredFault;
use mks_mls::Label;

use crate::gatetable::GateTable;
use crate::init::image::{build_image, load_image};
use crate::init::{state_hash, target_state};
use crate::statemachine::workload::{mixed_workload, pid_of};
use crate::statemachine::{Commit, Genesis, Outcome, WorkloadSpec};
use crate::world::admin_user;

/// A deliberate defect in the recovery path, used to prove the harness
/// detects a broken salvager (the mutation check of experiment E15).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SalvageMutation {
    /// Recovery as shipped: boot, then salvage.
    None,
    /// Skip the salvage entirely — damage must surface as residual
    /// problems on the post-recovery consistency check.
    SkipSalvage,
    /// Salvage, then lower one surviving branch's label — must surface as
    /// a labels-only-raised violation.
    LowerAfterRepair,
}

/// What one recovery run observed. Two runs of the same spec and
/// mutation compare equal — the harness is deterministic by construction.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RecoveryOutcome {
    /// The workload's mix seed ([`WorkloadSpec::seed`]).
    pub seed: u64,
    /// Whether a `Crash` event stopped the workload mid-stream.
    pub crashed: bool,
    /// Workload operations actually executed before the stop.
    pub ops_run: u64,
    /// Every fault the injector delivered, in order.
    pub fired: Vec<FiredFault>,
    /// Problems the official salvage found.
    pub problems_found: usize,
    /// How many of them it repaired.
    pub repaired: usize,
    /// Distinct repair arms exercised (sorted, deduplicated).
    pub problem_kinds: Vec<&'static str>,
    /// Invariant 1 failures: surviving labels that moved downward.
    pub labels_lowered: u64,
    /// Invariant 2 failures: problems still present after recovery.
    pub residual_damage: u64,
    /// Invariant 3 failures: gate census changes across recovery.
    pub census_drift: u64,
    /// Invariant 4 failures: monitor consultation not observed.
    pub monitor_misses: u64,
    /// Invariant 5 failures: memory image no longer boots to target.
    pub boot_divergence: u64,
    /// Whether the requested [`SalvageMutation`] actually took effect
    /// (`LowerAfterRepair` needs a surviving non-BOTTOM label).
    pub mutation_applied: bool,
    /// Human-readable description of every violation, in check order.
    pub violations: Vec<String>,
}

impl RecoveryOutcome {
    /// True when every integrity invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Maps a salvager problem to the stable kind name used in reports.
pub fn problem_kind(p: &Problem) -> &'static str {
    match p {
        Problem::DuplicateName { .. } => "duplicate-name",
        Problem::LabelViolation { .. } => "label-violation",
        Problem::MissingNode { .. } => "missing-node",
        Problem::OrphanNode { .. } => "orphan-node",
        Problem::WrongParent { .. } => "wrong-parent",
        Problem::NamelessBranch { .. } => "nameless-branch",
        Problem::QuotaOvercommit { .. } => "quota-overcommit",
        Problem::DuplicateUid { .. } => "duplicate-uid",
    }
}

/// The distinct kind names of `problems`, sorted.
fn kinds_of(problems: &[Problem]) -> Vec<&'static str> {
    let mut kinds: Vec<&'static str> = problems.iter().map(problem_kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    kinds
}

/// Runs the E15 workload under `FaultPlan::generate(seed)`.
pub fn run_seed(seed: u64, mutation: SalvageMutation) -> RecoveryOutcome {
    run_plan(&WorkloadSpec::faults(seed), mutation)
}

/// Runs one workload: the mix under its plan (through
/// [`KernelStateMachine::apply`](crate::statemachine::KernelStateMachine::apply),
/// so every step is a sealed commit), crash, recovery, invariants.
pub fn run_plan(spec: &WorkloadSpec, mutation: SalvageMutation) -> RecoveryOutcome {
    let mut sm = Genesis::kernel_small().build();
    let mix = mixed_workload(
        &mut sm,
        spec.seed,
        spec.ops,
        Some(&spec.plan),
        spec.overload,
    );
    let world = sm.world_mut();
    let fired = world.vm.machine.inject.fired();

    // Snapshot what must survive recovery.
    let census_before: BTreeMap<_, _> = world.fs.label_census().into_iter().collect();
    let gates_before = (
        world.gates.total_entries(),
        world.gates.user_available_entries(),
    );

    let mut out = RecoveryOutcome {
        seed: spec.seed,
        crashed: mix.crashed,
        ops_run: mix.ops_run,
        fired,
        ..RecoveryOutcome::default()
    };

    // --- Recovery step 1: re-boot through initialization. The memory
    // image is configuration state, not crash state: it must still load,
    // and load to exactly the pre-computed target.
    let img = build_image(&world.cfg);
    match load_image(&img, &world.vm.machine.clock) {
        Ok((state, _)) => {
            let expected = state_hash(&target_state(&world.cfg));
            if state_hash(&state) != expected {
                out.boot_divergence += 1;
                out.violations
                    .push("boot: image loaded to a state different from target".into());
            }
        }
        Err(e) => {
            out.boot_divergence += 1;
            out.violations
                .push(format!("boot: image failed to load: {e:?}"));
        }
    }

    // --- Recovery step 2: the salvage pass (possibly mutated).
    match mutation {
        SalvageMutation::SkipSalvage => {
            out.mutation_applied = true;
        }
        SalvageMutation::None | SalvageMutation::LowerAfterRepair => {
            let report = world.fs.salvage();
            out.problems_found = report.problems.len();
            out.repaired = report.repaired;
            out.problem_kinds = kinds_of(&report.problems);
            if mutation == SalvageMutation::LowerAfterRepair {
                // Lower the first surviving non-BOTTOM label (uids are
                // unique post-salvage, so the lookup is deterministic).
                let target = world
                    .fs
                    .label_census()
                    .into_iter()
                    .find(|(_, label)| *label != Label::BOTTOM);
                if let Some((uid, _)) = target {
                    if let Some((dir, _)) = world.fs.find_by_uid(uid) {
                        out.mutation_applied =
                            world.fs.apply_tear(dir, uid, mks_fs::TearMode::LowerLabel);
                    }
                }
            }
        }
    }

    // --- Invariant 1: labels only raised. Every branch that survived
    // recovery must carry a label dominating what it had at the crash.
    for (uid, after) in world.fs.label_census() {
        if let Some(before) = census_before.get(&uid) {
            if !after.dominates(before) {
                out.labels_lowered += 1;
                out.violations.push(format!(
                    "labels: uid {} lowered across recovery ({before:?} -> {after:?})",
                    uid.0
                ));
            }
        }
    }

    // --- Invariant 2: no residual damage. A fresh consistency pass after
    // recovery must report a clean hierarchy; anything it finds means the
    // official salvage was skipped, incomplete, or not idempotent.
    let recheck = world.fs.salvage();
    if !recheck.clean() {
        out.residual_damage += recheck.problems.len() as u64;
        out.violations.push(format!(
            "residual: {} problem(s) survived recovery: {:?}",
            recheck.problems.len(),
            kinds_of(&recheck.problems)
        ));
    }

    // --- Invariant 3: gate census unchanged. The protected entry-point
    // surface is a function of the configuration alone.
    let gates_after = (
        world.gates.total_entries(),
        world.gates.user_available_entries(),
    );
    let rebuilt = GateTable::build(&world.cfg);
    let gates_target = (rebuilt.total_entries(), rebuilt.user_available_entries());
    if gates_after != gates_before || gates_after != gates_target {
        out.census_drift += 1;
        out.violations.push(format!(
            "gates: census drifted across recovery ({gates_before:?} -> {gates_after:?}, target {gates_target:?})"
        ));
    }

    // --- Invariant 4: the reference monitor is still consulted. A
    // post-recovery reference must move the verdict counters and leave a
    // verdict record in the flight recorder — if it does not, references
    // are flowing around the monitor.
    let trace = world.vm.machine.trace.clone();
    let granted_before = trace.counter("monitor.granted");
    let denied_before = trace.counter("monitor.denied");
    let post = pid_of(sm.apply(&Commit::CreateProcess {
        user: admin_user(),
        label: Label::BOTTOM,
        ring: 4,
    }));
    let seg = sm
        .apply(&Commit::BindRoot { pid: post })
        .seg()
        .expect("root binds");
    let terminate = Commit::Terminate { pid: post, seg };
    let first = sm.apply(&terminate);
    let second = sm.apply(&terminate);
    let granted_moved = trace.counter("monitor.granted") == granted_before + 1;
    let denied_moved = trace.counter("monitor.denied") == denied_before + 1;
    let verdict_recorded = trace
        .records()
        .iter()
        .any(|r| r.kind == mks_trace::EventKind::Verdict);
    let refused = |o: &Outcome| matches!(o, Outcome::Refused(_));
    if refused(&first) || !refused(&second) || !granted_moved || !denied_moved || !verdict_recorded
    {
        out.monitor_misses += 1;
        out.violations.push(format!(
            "monitor: post-recovery consultation not observed \
             (granted {granted_moved}, denied {denied_moved}, recorded {verdict_recorded})"
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mks_hw::{FaultEvent, FaultPlan, InjectKind};

    fn run_events(events: Vec<FaultEvent>, mutation: SalvageMutation) -> RecoveryOutcome {
        run_plan(
            &WorkloadSpec::of_plan(FaultPlan::from_events(events)),
            mutation,
        )
    }

    #[test]
    fn a_quiet_plan_recovers_clean() {
        let out = run_events(vec![], SalvageMutation::None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(!out.crashed);
        assert!(out.fired.is_empty());
        assert_eq!(out.problems_found, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_seed(0xE15, SalvageMutation::None);
        let b = run_seed(0xE15, SalvageMutation::None);
        assert_eq!(a, b);
    }

    #[test]
    fn a_crash_event_stops_the_workload_early() {
        let crash = FaultEvent {
            kind: InjectKind::Crash,
            nth: 5,
            detail: 0,
        };
        let out = run_events(vec![crash], SalvageMutation::None);
        assert!(out.crashed);
        assert_eq!(out.ops_run, 5, "the kill lands at the chosen boundary");
        assert!(out.ok(), "{:?}", out.violations);
    }

    fn tear(nth: u64, detail: u64) -> FaultEvent {
        FaultEvent {
            kind: InjectKind::TearBranch,
            nth,
            detail,
        }
    }

    #[test]
    fn injected_damage_is_found_and_repaired() {
        // Tear the first few branch creations; the salvage must find and
        // repair the damage with every invariant intact.
        let out = run_events((0..3).map(|n| tear(n, n)).collect(), SalvageMutation::None);
        assert!(!out.fired.is_empty());
        assert!(out.ok(), "{:?}", out.violations);
    }

    #[test]
    fn a_parent_cycle_refuses_instead_of_hanging() {
        // Regression: a SkipParentUpdate tear on a ROOT-level directory
        // leaves a self-referential parent pointer until the salvager
        // runs. The quota walk used to spin forever on that cycle; it
        // must instead refuse deterministically and recover clean.
        let out = run_events(vec![tear(0, 3)], SalvageMutation::None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(out.problem_kinds.contains(&"wrong-parent"), "{out:?}");
    }

    #[test]
    fn skipping_the_salvage_is_caught() {
        let honest = run_events(vec![tear(0, 1)], SalvageMutation::None);
        assert!(honest.problems_found > 0, "the tear must damage the tree");
        let broken = run_events(vec![tear(0, 1)], SalvageMutation::SkipSalvage);
        assert!(broken.residual_damage > 0, "{broken:?}");
        assert!(!broken.ok());
    }

    #[test]
    fn lowering_a_label_after_repair_is_caught() {
        let out = run_events(vec![], SalvageMutation::LowerAfterRepair);
        assert!(
            out.mutation_applied,
            "a non-BOTTOM label must exist to lower"
        );
        assert!(out.labels_lowered > 0, "{out:?}");
        assert!(!out.ok());
    }
}
