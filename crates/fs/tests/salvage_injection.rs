//! Every salvager repair arm, reached *via injection*.
//!
//! The unit tests in `salvage.rs` hand-build broken trees; these tests
//! instead arm a [`FaultPlan`] on the injector the hierarchy is wired to,
//! run a perfectly ordinary create workload, and let the `TearBranch` /
//! `CorruptLabel` injection points produce the damage mid-write — proving
//! the injector can reach all eight [`Problem`] variants, and that the
//! salvager repairs each injected state idempotently.

use mks_fs::{Acl, AclMode, FileSystem, Problem, UserId};
use mks_hw::{FaultEvent, FaultPlan, InjectKind, InjectorHandle, RingBrackets};
use mks_mls::Label;

fn admin() -> UserId {
    UserId::new("Admin", "SysAdmin", "a")
}

/// Runs the standard workload — two directories, two segments — with one
/// scheduled fault, returning the salvage problems it produced. Creates
/// may legitimately fail once the hierarchy is damaged (e.g. into a
/// directory whose node was torn away); those refusals are part of the
/// scenario, not errors.
fn problems_under(event: FaultEvent) -> (Vec<Problem>, FileSystem) {
    let mut fs = FileSystem::new(&admin());
    let inject = InjectorHandle::disarmed();
    fs.set_inject(inject.clone());
    inject.arm(&FaultPlan::from_events(vec![event]));
    // Branch-creation hits, in order:
    //   0: directory "d0" in ROOT
    //   1: directory "d1" in ROOT
    //   2: segment "s0" in d0
    //   3: segment "s1" in d0
    let d0 = fs.create_directory(FileSystem::ROOT, "d0", &admin(), Label::BOTTOM);
    let _ = fs.create_directory(FileSystem::ROOT, "d1", &admin(), Label::BOTTOM);
    if let Ok(d0) = d0 {
        for name in ["s0", "s1"] {
            let _ = fs.create_segment(
                d0,
                name,
                &admin(),
                Acl::of("*.*.*", AclMode::RW),
                RingBrackets::new(4, 4, 4),
                Label::BOTTOM,
            );
        }
    }
    inject.disarm();
    assert_eq!(inject.fired().len(), 1, "the scheduled fault must fire");
    let report = fs.salvage();
    assert!(fs.salvage().clean(), "repair must be idempotent");
    (report.problems, fs)
}

fn tear(nth: u64, detail: u64) -> FaultEvent {
    FaultEvent {
        kind: InjectKind::TearBranch,
        nth,
        detail,
    }
}

#[test]
fn injected_duplicate_entry_reaches_duplicate_name_arm() {
    let (problems, _) = problems_under(tear(2, 0));
    assert!(
        problems
            .iter()
            .any(|p| matches!(p, Problem::DuplicateName { .. })),
        "{problems:?}"
    );
}

#[test]
fn injected_lost_node_reaches_missing_node_arm() {
    // Hit 0 tears the d0 *directory* branch: its node vanishes.
    let (problems, _) = problems_under(tear(0, 1));
    assert!(
        problems
            .iter()
            .any(|p| matches!(p, Problem::MissingNode { .. })),
        "{problems:?}"
    );
}

#[test]
fn injected_lost_branch_reaches_orphan_node_arm() {
    let (problems, _) = problems_under(tear(0, 2));
    assert!(
        problems
            .iter()
            .any(|p| matches!(p, Problem::OrphanNode { .. })),
        "{problems:?}"
    );
}

#[test]
fn injected_skipped_parent_update_reaches_wrong_parent_arm() {
    // d0 sits in ROOT but its parent pointer is left pointing elsewhere.
    let (problems, _) = problems_under(tear(0, 3));
    assert!(
        problems
            .iter()
            .any(|p| matches!(p, Problem::WrongParent { .. })),
        "{problems:?}"
    );
}

#[test]
fn injected_name_wipe_reaches_nameless_branch_arm() {
    let (problems, _) = problems_under(tear(2, 4));
    assert!(
        problems
            .iter()
            .any(|p| matches!(p, Problem::NamelessBranch { .. })),
        "{problems:?}"
    );
}

#[test]
fn injected_quota_tear_reaches_overcommit_arm() {
    let (problems, _) = problems_under(tear(2, 5));
    assert!(
        problems
            .iter()
            .any(|p| matches!(p, Problem::QuotaOvercommit { .. })),
        "{problems:?}"
    );
}

#[test]
fn injected_stale_uid_reaches_duplicate_uid_arm() {
    // Hit 3 (segment s1) with d0, d1 and s0 already present as donors.
    let (problems, _) = problems_under(tear(3, 6));
    assert!(
        problems
            .iter()
            .any(|p| matches!(p, Problem::DuplicateUid { .. })),
        "{problems:?}"
    );
}

#[test]
fn injected_label_scribble_reaches_label_violation_arm() {
    let (problems, fs) = problems_under(tear(2, 7));
    assert!(
        problems
            .iter()
            .any(|p| matches!(p, Problem::LabelViolation { .. })),
        "{problems:?}"
    );
    // Restrictive repair: the violating branches were raised, never lowered.
    for (_, label) in fs.label_census() {
        assert!(label.dominates(&Label::BOTTOM));
    }
}

#[test]
fn corrupt_label_kind_also_reaches_label_violation_arm() {
    let (problems, _) = problems_under(FaultEvent {
        kind: InjectKind::CorruptLabel,
        nth: 2,
        detail: 0,
    });
    assert!(
        problems
            .iter()
            .any(|p| matches!(p, Problem::LabelViolation { .. })),
        "{problems:?}"
    );
}

#[test]
fn all_eight_arms_are_reachable_by_detail_sweep() {
    let mut kinds = std::collections::BTreeSet::new();
    for detail in 0..8 {
        // Target the richest hit for each mode: dir-shaped tears at hit 0,
        // segment-shaped ones at hit 3 (donors available).
        for nth in [0, 3] {
            let (problems, _) = problems_under(tear(nth, detail));
            for p in &problems {
                kinds.insert(p.kind());
            }
        }
    }
    assert_eq!(
        kinds.len(),
        8,
        "detail sweep must reach every repair arm, got {kinds:?}"
    );
}
