//! Torn directory-branch writes — the hierarchy's fault-injection points.
//!
//! A real Multics crash could interrupt a directory update between any two
//! of its constituent writes; the salvager exists because the hierarchy it
//! wakes up to may be arbitrarily damaged, and *damaged metadata is a
//! protection failure*. This module produces exactly those damaged states,
//! on demand and deterministically: each [`TearMode`] leaves the hierarchy
//! the way one specific interrupted update would have, and each one is
//! diagnosed by a distinct [`Problem`](crate::salvage::Problem) arm of the
//! salvager.
//!
//! Two injection kinds consult this module from the branch-creation paths
//! (`create_segment` / `create_directory`), via the machine's
//! [`InjectorHandle`]: [`InjectKind::TearBranch`] maps its event detail to
//! a [`TearMode`], and [`InjectKind::CorruptLabel`] scribbles (raises) the
//! containing directory's label. [`FileSystem::apply_tear`] is also public
//! so tests and the crash-recovery harness can construct targeted damage —
//! including [`TearMode::LowerLabel`], the one *downward* label move,
//! which no plan-driven tear performs: it exists to model a broken
//! (non-restrictive) salvager and must always be caught by the
//! labels-only-raised invariant.

use mks_hw::{InjectKind, InjectorHandle, RingBrackets, SegUid};
use mks_mls::{Compartments, Label, Level};

use crate::acl::{Acl, UserId};
use crate::hierarchy::{Branch, BranchKind, FileSystem};
use crate::quota::QuotaCell;

/// One way an interrupted directory update can leave the hierarchy. The
/// first eight (see [`TearMode::DAMAGE`]) each produce a distinct salvager
/// [`Problem`](crate::salvage::Problem); the ninth, [`TearMode::LowerLabel`],
/// is the deliberate *broken-salvager* mutation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TearMode {
    /// A second branch claiming the same name was left behind
    /// (→ `Problem::DuplicateName`).
    DuplicateEntry,
    /// The directory's node vanished but its branch survived
    /// (→ `Problem::MissingNode`).
    LoseNode,
    /// The branch vanished but the directory's node survived
    /// (→ `Problem::OrphanNode`).
    LoseBranch,
    /// The child's parent pointer was never rewritten
    /// (→ `Problem::WrongParent`).
    SkipParentUpdate,
    /// The branch's name list was wiped mid-write
    /// (→ `Problem::NamelessBranch`).
    LoseNames,
    /// The containing directory's quota cell was torn into overcommit
    /// (→ `Problem::QuotaOvercommit`).
    TearQuota,
    /// The branch was written with another branch's uid
    /// (→ `Problem::DuplicateUid`).
    StaleUid,
    /// The containing directory's label was scribbled upward
    /// (→ `Problem::LabelViolation` on its branches).
    ScribbleDirLabel,
    /// A label moved *down* — never produced by a plan-driven tear; this
    /// models a broken salvager and must trip the labels-only-raised
    /// invariant.
    LowerLabel,
}

impl TearMode {
    /// The eight plan-reachable tears, in detail-mapping order.
    const DAMAGE: [TearMode; 8] = [
        TearMode::DuplicateEntry,
        TearMode::LoseNode,
        TearMode::LoseBranch,
        TearMode::SkipParentUpdate,
        TearMode::LoseNames,
        TearMode::TearQuota,
        TearMode::StaleUid,
        TearMode::ScribbleDirLabel,
    ];

    /// Maps a fault event's detail payload onto a plan-reachable tear.
    fn from_detail(detail: u64) -> TearMode {
        TearMode::DAMAGE[(detail % 8) as usize]
    }

    /// Stable name for traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            TearMode::DuplicateEntry => "duplicate-entry",
            TearMode::LoseNode => "lose-node",
            TearMode::LoseBranch => "lose-branch",
            TearMode::SkipParentUpdate => "skip-parent-update",
            TearMode::LoseNames => "lose-names",
            TearMode::TearQuota => "tear-quota",
            TearMode::StaleUid => "stale-uid",
            TearMode::ScribbleDirLabel => "scribble-dir-label",
            TearMode::LowerLabel => "lower-label",
        }
    }
}

impl FileSystem {
    /// Connects the hierarchy to the machine's fault injector, exactly as
    /// [`set_trace`](FileSystem::set_trace) connects the flight recorder.
    /// Until a plan is armed on the handle this costs one `Option` check
    /// per branch creation.
    pub fn set_inject(&mut self, inject: InjectorHandle) {
        self.inject = Some(inject);
    }

    /// The `TearBranch`/`CorruptLabel` injection point, consulted at the
    /// end of every successful branch creation (`dir` is the containing
    /// directory, `uid` the branch just written).
    pub(crate) fn maybe_tear(&mut self, dir: SegUid, uid: SegUid) {
        let Some(inject) = self.inject.clone() else {
            return;
        };
        if let Some(detail) = inject.fires(InjectKind::TearBranch) {
            let mode = TearMode::from_detail(detail);
            if self.apply_tear(dir, uid, mode) {
                if let Some(t) = &self.trace {
                    t.counter_add("inject.fs_tears", 1);
                    t.event(
                        mks_trace::Layer::Fs,
                        mks_trace::EventKind::PageOp,
                        format!("INJECTED: {} tear on branch {}", mode.name(), uid.0),
                    );
                }
            }
        }
        if inject.fires(InjectKind::CorruptLabel).is_some()
            && self.apply_tear(dir, uid, TearMode::ScribbleDirLabel)
        {
            if let Some(t) = &self.trace {
                t.counter_add("inject.label_corruptions", 1);
                t.event(
                    mks_trace::Layer::Fs,
                    mks_trace::EventKind::PageOp,
                    format!("INJECTED: label scribble above branch {}", uid.0),
                );
            }
        }
    }

    /// Applies one torn-write state to the branch `uid` in directory
    /// `dir`, as if the update that created it had been interrupted.
    /// Returns `true` if the damage was applied, `false` if the target no
    /// longer exists (e.g. already torn away). Directory-only modes are
    /// remapped for segment targets (and vice versa for [`TearMode::StaleUid`])
    /// so every detail value damages *something*:
    ///
    /// * segment target: `LoseNode` → `LoseNames`, `LoseBranch` →
    ///   `DuplicateEntry`, `SkipParentUpdate` → `StaleUid`;
    /// * directory target: `StaleUid` → `SkipParentUpdate`.
    pub fn apply_tear(&mut self, dir: SegUid, uid: SegUid, mode: TearMode) -> bool {
        if !self.nodes.contains_key(&dir) {
            return false;
        }
        let is_dir = self.is_directory(uid);
        let mode = match (mode, is_dir) {
            (TearMode::LoseNode, false) => TearMode::LoseNames,
            (TearMode::LoseBranch, false) => TearMode::DuplicateEntry,
            (TearMode::SkipParentUpdate, false) => TearMode::StaleUid,
            (TearMode::StaleUid, true) => TearMode::SkipParentUpdate,
            (m, _) => m,
        };
        match mode {
            TearMode::DuplicateEntry => {
                let Some(name) = self.branch_primary_name(dir, uid) else {
                    return false;
                };
                let dup_uid = self.alloc_uid();
                let Some(node) = self.nodes.get_mut(&dir) else {
                    return false;
                };
                node.push_branch(Branch {
                    names: vec![name],
                    uid: dup_uid,
                    kind: BranchKind::Segment {
                        acl: Acl::empty(),
                        len_words: 0,
                        brackets: RingBrackets::new(4, 4, 4),
                    },
                    label: Label::BOTTOM,
                    author: UserId::new("Torn", "Write", "x"),
                });
                self.uid_dir.insert(dup_uid, dir);
                true
            }
            TearMode::LoseNode => self.nodes.remove(&uid).is_some(),
            TearMode::LoseBranch => {
                let Some(node) = self.nodes.get_mut(&dir) else {
                    return false;
                };
                let before = node.branches.len();
                node.branches.retain(|b| b.uid != uid);
                let torn = node.branches.len() < before;
                if torn {
                    node.reindex();
                }
                torn
            }
            TearMode::SkipParentUpdate => {
                let wrong = if dir == FileSystem::ROOT {
                    uid
                } else {
                    FileSystem::ROOT
                };
                match self.nodes.get_mut(&uid) {
                    Some(node) => {
                        node.parent = Some(wrong);
                        true
                    }
                    None => false,
                }
            }
            TearMode::LoseNames => match self.branch_mut(dir, uid) {
                Some(b) => {
                    b.names.clear();
                    if let Some(node) = self.nodes.get_mut(&dir) {
                        node.reindex();
                    }
                    true
                }
                None => false,
            },
            TearMode::TearQuota => {
                let Some(node) = self.nodes.get_mut(&dir) else {
                    return false;
                };
                node.quota = Some(QuotaCell {
                    limit_pages: 1,
                    used_pages: 5,
                });
                true
            }
            TearMode::StaleUid => {
                // Deterministic donor: the smallest other branch uid in the
                // sorted directory walk (HashMap order never leaks out).
                let mut donor: Option<SegUid> = None;
                for d in self.node_uids() {
                    if let Some(node) = self.nodes.get(&d) {
                        for b in &node.branches {
                            if b.uid != uid && donor.is_none_or(|cur| b.uid < cur) {
                                donor = Some(b.uid);
                            }
                        }
                    }
                }
                match donor {
                    Some(donor) => match self.branch_mut(dir, uid) {
                        Some(b) => {
                            b.uid = donor;
                            if let Some(node) = self.nodes.get_mut(&dir) {
                                node.reindex();
                            }
                            true
                        }
                        None => false,
                    },
                    None => self.apply_tear(dir, uid, TearMode::DuplicateEntry),
                }
            }
            TearMode::ScribbleDirLabel => {
                let scribble = Label::new(Level::SECRET, Compartments::of(&[1]));
                match self.nodes.get_mut(&dir) {
                    Some(node) => {
                        node.label = node.label.join(&scribble);
                        true
                    }
                    None => false,
                }
            }
            TearMode::LowerLabel => {
                let Some(b) = self.branch_mut(dir, uid) else {
                    return false;
                };
                b.label = Label::BOTTOM;
                if let Some(node) = self.nodes.get_mut(&uid) {
                    node.label = Label::BOTTOM;
                }
                true
            }
        }
    }

    /// The label of every branch in the hierarchy, keyed by uid, in the
    /// salvager's deterministic walk order (sorted directories, branches
    /// in entry order; the first claimant of a duplicated uid wins — the
    /// same claimant the salvager keeps). The crash-recovery harness
    /// compares censuses before and after repair to check that restrictive
    /// repair only ever *raises* labels.
    pub fn label_census(&self) -> Vec<(SegUid, Label)> {
        let mut seen = std::collections::BTreeMap::new();
        for dir in self.node_uids() {
            if let Some(node) = self.nodes.get(&dir) {
                for b in &node.branches {
                    seen.entry(b.uid).or_insert(b.label);
                }
            }
        }
        seen.into_iter().collect()
    }

    fn branch_primary_name(&self, dir: SegUid, uid: SegUid) -> Option<String> {
        self.nodes
            .get(&dir)?
            .branches
            .iter()
            .find(|b| b.uid == uid)
            .and_then(|b| b.names.first().cloned())
    }

    fn branch_mut(&mut self, dir: SegUid, uid: SegUid) -> Option<&mut Branch> {
        self.nodes
            .get_mut(&dir)?
            .branches
            .iter_mut()
            .find(|b| b.uid == uid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::AclMode;

    fn admin() -> UserId {
        UserId::new("Admin", "SysAdmin", "a")
    }

    fn fs_with_children() -> (FileSystem, SegUid, SegUid) {
        let mut fs = FileSystem::new(&admin());
        let sub = fs
            .create_directory(FileSystem::ROOT, "sub", &admin(), Label::BOTTOM)
            .unwrap();
        let seg = fs
            .create_segment(
                sub,
                "data",
                &admin(),
                Acl::of("*.*.*", AclMode::RW),
                RingBrackets::new(4, 4, 4),
                Label::BOTTOM,
            )
            .unwrap();
        (fs, sub, seg)
    }

    #[test]
    fn every_damage_mode_is_repaired_and_repair_is_idempotent() {
        for mode in TearMode::DAMAGE {
            let (mut fs, sub, seg) = fs_with_children();
            let target = if matches!(
                mode,
                TearMode::LoseNode | TearMode::LoseBranch | TearMode::SkipParentUpdate
            ) {
                sub
            } else {
                seg
            };
            let dir = if target == sub { FileSystem::ROOT } else { sub };
            assert!(
                fs.apply_tear(dir, target, mode),
                "{}: not applied",
                mode.name()
            );
            let report = fs.salvage();
            assert!(
                !report.problems.is_empty(),
                "{}: salvager saw nothing",
                mode.name()
            );
            assert!(
                fs.salvage().clean(),
                "{}: repair not idempotent",
                mode.name()
            );
        }
    }

    #[test]
    fn segment_targets_remap_directory_only_modes() {
        let (mut fs, sub, seg) = fs_with_children();
        assert!(fs.apply_tear(sub, seg, TearMode::LoseNode));
        // Remapped to LoseNames: the branch survives, nameless.
        assert!(fs
            .salvage()
            .problems
            .iter()
            .any(|p| matches!(p, crate::salvage::Problem::NamelessBranch { .. })));
        let _ = sub;
    }

    #[test]
    fn lower_label_is_a_downward_move_the_census_sees() {
        let (mut fs, sub, seg) = fs_with_children();
        let secret = Label::new(Level::SECRET, Compartments::NONE);
        let hi = fs
            .create_segment(
                sub,
                "hi",
                &admin(),
                Acl::of("*.*.*", AclMode::RW),
                RingBrackets::new(4, 4, 4),
                secret,
            )
            .unwrap();
        let before = fs.label_census();
        assert!(fs.apply_tear(sub, hi, TearMode::LowerLabel));
        let after = fs.label_census();
        let b = before.iter().find(|(u, _)| *u == hi).unwrap().1;
        let a = after.iter().find(|(u, _)| *u == hi).unwrap().1;
        assert!(b.dominates(&a) && b != a, "label moved down");
        let _ = seg;
    }

    #[test]
    fn armed_plan_tears_through_the_create_path() {
        use mks_hw::{FaultEvent, FaultPlan};
        let mut fs = FileSystem::new(&admin());
        let inject = InjectorHandle::disarmed();
        fs.set_inject(inject.clone());
        inject.arm(&FaultPlan::from_events(vec![FaultEvent {
            kind: InjectKind::TearBranch,
            nth: 1,
            detail: 0, // DuplicateEntry
        }]));
        fs.create_directory(FileSystem::ROOT, "a", &admin(), Label::BOTTOM)
            .unwrap();
        fs.create_directory(FileSystem::ROOT, "b", &admin(), Label::BOTTOM)
            .unwrap();
        inject.disarm();
        assert_eq!(inject.fired().len(), 1);
        let report = fs.salvage();
        assert!(report
            .problems
            .iter()
            .any(|p| matches!(p, crate::salvage::Problem::DuplicateName { .. })));
    }
}
