//! The fault-injection property sweep: thousands of seeded fault plans
//! through the crash-recovery harness, every integrity invariant checked
//! on every one.
//!
//! A [`FaultPlan`] is a pure function of its seed, and a recovery run is
//! a pure function of its plan — so the sweep is exhaustive bookkeeping,
//! not luck: any seed that ever fails here fails forever, and the
//! minimal reproducing schedule (via [`shrink_plan`]) is a one-line
//! regression test. The randomized `proptest` block on top draws seeds
//! the pinned range never visits.

use mks_hw::{shrink_plan, FaultEvent, FaultPlan, InjectKind};
use mks_kernel::recovery::{run_plan, run_seed, RecoveryOutcome, SalvageMutation};
use mks_kernel::statemachine::WorkloadSpec;
use proptest::prelude::*;

/// On a violation, shrink to the minimal reproducing schedule before
/// failing — the report names the exact events that matter, and the
/// whole workload (mix seed included) as a ready-to-paste test.
fn check_seed(seed: u64) -> RecoveryOutcome {
    let spec = WorkloadSpec::faults(seed);
    let out = run_plan(&spec, SalvageMutation::None);
    if out.ok() {
        return out;
    }
    let with_plan = |plan: &FaultPlan| WorkloadSpec {
        plan: plan.clone(),
        ..spec.clone()
    };
    let minimal = shrink_plan(&spec.plan, |p| {
        !run_plan(&with_plan(p), SalvageMutation::None).ok()
    });
    panic!(
        "seed {seed:#x} violated recovery invariants: {:?}\n\
         minimal reproducing schedule:\n{}\n\
         ready-to-paste regression test:\n{}",
        out.violations,
        minimal.render(),
        with_plan(&minimal).to_regression_snippet()
    );
}

#[test]
fn a_thousand_seeded_plans_hold_every_invariant() {
    // The pinned sweep: 1200 seeds unless `MKS_SWEEP_SEEDS` says
    // otherwise (any seed that fails at 1200 also fails at whatever
    // prefix includes it).
    let sweep = mks_bench::sweep_seeds(1200);
    let mut crashes = 0u64;
    let mut faults = 0usize;
    let mut problems = 0usize;
    let mut kinds = std::collections::BTreeSet::new();
    for seed in 0..sweep {
        let out = check_seed(seed);
        crashes += u64::from(out.crashed);
        faults += out.fired.len();
        problems += out.problems_found;
        kinds.extend(out.problem_kinds.iter().copied());
    }
    // The sweep must be exercising the machinery, not idling: plenty of
    // mid-workload kills, plenty of delivered faults, real damage, and a
    // spread of repair arms.
    assert!(crashes > sweep / 4, "only {crashes} crashes");
    assert!(faults as u64 > sweep / 2, "only {faults} faults fired");
    assert!(
        problems as u64 > sweep / 60,
        "only {problems} hierarchy problems produced"
    );
    assert!(kinds.len() >= 6, "only {kinds:?} repair arms reached");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seeds far outside the pinned range behave identically.
    #[test]
    fn random_seeds_hold_every_invariant(seed in any::<u64>()) {
        check_seed(seed);
    }

    /// Recovery is a pure function of the plan: same seed, same outcome.
    #[test]
    fn recovery_replays_exactly(seed in any::<u64>()) {
        let honest = SalvageMutation::None;
        prop_assert_eq!(run_seed(seed, honest), run_seed(seed, honest));
    }
}

/// The sweep has teeth: run the same seeds against a deliberately-broken
/// salvager and it must object. A sweep that cannot catch a salvager
/// that skips repair (or one that lowers labels) proves nothing.
#[test]
fn a_broken_salvager_is_caught_by_the_sweep() {
    let honest = SalvageMutation::None;
    // Find seeds whose faults actually damage the hierarchy; the broken
    // recovery path must fail on them.
    let mut damaging = 0;
    let mut caught = 0;
    for seed in 0..200u64 {
        if run_seed(seed, honest).problems_found == 0 {
            continue;
        }
        damaging += 1;
        let broken = run_seed(seed, SalvageMutation::SkipSalvage);
        if !broken.ok() {
            caught += 1;
        }
    }
    assert!(damaging > 0, "no damaging seed in range");
    assert_eq!(
        caught, damaging,
        "every damaging seed must expose the skipped salvage"
    );

    // The second mutation: labels lowered after an otherwise-honest
    // repair. Needs no injected damage at all.
    let lowered = run_plan(
        &WorkloadSpec::of_plan(FaultPlan::from_events(vec![])),
        SalvageMutation::LowerAfterRepair,
    );
    assert!(lowered.mutation_applied);
    assert!(lowered.labels_lowered > 0, "{lowered:?}");
}

/// Shrinking really minimizes: for a failure that needs exactly one
/// event, the shrinker strips every bystander from a noisy plan.
#[test]
fn failures_shrink_to_minimal_reproducing_schedules() {
    // "Fails" when the plan tears branch creation 0 with mode 1 — the
    // stand-in for a real invariant violation, chosen so the expected
    // minimal schedule is known exactly.
    let needle = FaultEvent {
        kind: InjectKind::TearBranch,
        nth: 0,
        detail: 1,
    };
    let mut events = vec![needle];
    events.extend(FaultPlan::generate(0xBEEF).events);
    let noisy = FaultPlan::from_events(events);
    let reproduces = |p: &FaultPlan| {
        run_plan(&WorkloadSpec::of_plan(p.clone()), SalvageMutation::None)
            .problem_kinds
            .contains(&"missing-node")
    };
    assert!(reproduces(&noisy), "the noisy plan must reproduce");
    let minimal = shrink_plan(&noisy, reproduces);
    assert_eq!(
        minimal.events,
        vec![needle],
        "every bystander event is stripped:\n{}",
        minimal.render()
    );
}

/// The reproducer a sweep failure prints is the failing run itself:
/// pasted back, it replays the same mix under the same plan. The plan's
/// events alone are not enough: rebuilt by `FaultPlan::from_events`
/// (mix seed 0), seed 2's events fire one fault instead of two and
/// leave nothing to salvage.
#[test]
fn the_printed_reproducer_replays_the_same_run() {
    let spec = WorkloadSpec::faults(2);
    // What a failure of seed 2 prints, pasted (the check below holds the
    // pasted block to the printed text, byte for byte):
    let pasted = {
        let spec = WorkloadSpec {
            seed: 2,
            ops: 32,
            plan: FaultPlan {
                seed: 2,
                events: vec![
                    FaultEvent {
                        kind: InjectKind::DropWakeup,
                        nth: 36,
                        detail: 0x4fc446b53f17fb29,
                    },
                    FaultEvent {
                        kind: InjectKind::SlowDisk,
                        nth: 17,
                        detail: 0x5fb1940eb8cbf1ae,
                    },
                    FaultEvent {
                        kind: InjectKind::FailDisk,
                        nth: 29,
                        detail: 0x6189abe28d8e28b1,
                    },
                    FaultEvent {
                        kind: InjectKind::FailDisk,
                        nth: 38,
                        detail: 0xbd34d3aef603e583,
                    },
                    FaultEvent {
                        kind: InjectKind::FailDisk,
                        nth: 44,
                        detail: 0x56e84498e8b0e635,
                    },
                    FaultEvent {
                        kind: InjectKind::TearBranch,
                        nth: 2,
                        detail: 0x35ceedaace1296d5,
                    },
                    FaultEvent {
                        kind: InjectKind::Crash,
                        nth: 9,
                        detail: 0x333c04e09d9ae712,
                    },
                ],
            },
            overload: false,
        };
        assert!(run_plan(&spec, SalvageMutation::None).ok());
        spec
    };
    let printed: String = spec
        .to_regression_snippet()
        .lines()
        .map(|line| format!("        {line}\n"))
        .collect();
    assert!(include_str!("fault_injection.rs").contains(&printed));
    assert_eq!(pasted, spec);
    let out = run_plan(&pasted, SalvageMutation::None);
    assert_eq!(out, run_plan(&spec, SalvageMutation::None));
    assert_eq!((out.fired.len(), out.problems_found), (2, 1), "{out:?}");
}
