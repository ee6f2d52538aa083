//! The salvager: hierarchy consistency checking and repair.
//!
//! Multics ran the salvager at every bootload ("salvage_check_root" in the
//! bootstrap sequence) and after crashes: a system that enforces security
//! *through* the hierarchy must not come up with a damaged one, because
//! damaged metadata *is* a protection failure — a branch whose label
//! dropped below its directory's, or a directory entry pointing at a
//! vanished node, silently changes who can reach what.
//!
//! [`FileSystem::salvage`] walks the whole tree, reports every
//! inconsistency found, and repairs what can be repaired safely (always
//! in the *restrictive* direction: labels are raised, never lowered;
//! unreferencable state is dropped, never guessed back).

use mks_hw::SegUid;
use mks_trace::digest::{IdMap, IdSet};

use crate::hierarchy::FileSystem;

/// One inconsistency found by the salvager.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Problem {
    /// Two branches in one directory answer to the same name.
    DuplicateName {
        /// The directory.
        dir: SegUid,
        /// The colliding name.
        name: String,
    },
    /// A branch's label fails to dominate its directory's.
    LabelViolation {
        /// The directory.
        dir: SegUid,
        /// The offending branch's uid.
        uid: SegUid,
    },
    /// A directory branch whose node is missing.
    MissingNode {
        /// The dangling uid.
        uid: SegUid,
    },
    /// A directory node no branch points to (and not the root).
    OrphanNode {
        /// The orphan's uid.
        uid: SegUid,
    },
    /// A node whose recorded parent is not the directory holding its branch.
    WrongParent {
        /// The node.
        uid: SegUid,
        /// The directory that actually holds its branch.
        actual: SegUid,
    },
    /// A branch with no names at all.
    NamelessBranch {
        /// The directory holding it.
        dir: SegUid,
    },
    /// A quota cell with more use recorded than limit.
    QuotaOvercommit {
        /// The directory.
        dir: SegUid,
    },
    /// Two branches (anywhere) claim the same uid.
    DuplicateUid {
        /// The duplicated uid.
        uid: SegUid,
    },
}

impl Problem {
    /// The stable kind name reports use (E15's recovery outcomes, the
    /// tear-mode coverage test).
    pub fn kind(&self) -> &'static str {
        match self {
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
}

/// What the salvager found and did.
#[derive(Debug, Default)]
pub struct SalvageReport {
    /// Every problem found, in walk order.
    pub problems: Vec<Problem>,
    /// How many of them were repaired.
    pub repaired: usize,
}

impl SalvageReport {
    /// True when the hierarchy was already consistent.
    pub fn clean(&self) -> bool {
        self.problems.is_empty()
    }
}

impl FileSystem {
    /// Checks and repairs the hierarchy. Idempotent: a second run after a
    /// first always reports clean.
    pub fn salvage(&mut self) -> SalvageReport {
        let mut report = SalvageReport::default();
        let dirs: Vec<SegUid> = self.node_uids();

        // Pass 1: per-directory checks (names, labels, quota, node refs).
        let mut seen_uids: IdMap<SegUid, SegUid> = IdMap::default(); // uid -> first dir
        let mut referenced: IdSet<SegUid> = IdSet::default();
        for dir in &dirs {
            let dir = *dir;
            let dir_label = match self.dir_label(dir) {
                Ok(l) => l,
                Err(_) => continue, // removed by an earlier repair
            };
            // Nameless branches: drop them.
            let nameless = self.drop_nameless_branches(dir);
            for _ in 0..nameless {
                report.problems.push(Problem::NamelessBranch { dir });
                report.repaired += 1;
            }
            // Duplicate names: keep the first holder, strip the name from
            // later ones (dropping a branch that loses its last name).
            for name in self.duplicate_names_in(dir) {
                report.problems.push(Problem::DuplicateName {
                    dir,
                    name: name.clone(),
                });
                self.strip_duplicate_name(dir, &name);
                report.repaired += 1;
            }
            // Label and uid checks over the surviving branches.
            for (uid, label, is_dir) in self.branch_facts(dir) {
                if !label.dominates(&dir_label) {
                    report.problems.push(Problem::LabelViolation { dir, uid });
                    // Restrictive repair: raise to the join.
                    self.raise_branch_label(dir, uid, label.join(&dir_label));
                    report.repaired += 1;
                }
                if let Some(first_dir) = seen_uids.get(&uid) {
                    report.problems.push(Problem::DuplicateUid { uid });
                    // Drop the later claimant.
                    let _ = first_dir;
                    self.drop_branch_by_uid(dir, uid);
                    report.repaired += 1;
                    continue;
                }
                seen_uids.insert(uid, dir);
                if is_dir {
                    referenced.insert(uid);
                    if !self.is_directory(uid) {
                        report.problems.push(Problem::MissingNode { uid });
                        self.drop_branch_by_uid(dir, uid);
                        report.repaired += 1;
                    }
                }
            }
            // Quota sanity.
            if self.quota_overcommitted(dir) {
                report.problems.push(Problem::QuotaOvercommit { dir });
                self.clamp_quota(dir);
                report.repaired += 1;
            }
        }

        // Pass 2: orphan nodes and parent pointers.
        for uid in self.node_uids() {
            if uid == FileSystem::ROOT {
                continue;
            }
            match self.find_branch_dir(uid) {
                None => {
                    report.problems.push(Problem::OrphanNode { uid });
                    self.remove_node(uid);
                    report.repaired += 1;
                }
                Some(actual) => {
                    if self.dir_parent(uid).ok().flatten() != Some(actual) {
                        report.problems.push(Problem::WrongParent { uid, actual });
                        self.set_parent(uid, actual);
                        report.repaired += 1;
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{Acl, AclMode, UserId};
    use mks_hw::RingBrackets;
    use mks_mls::{Compartments, Label, Level};

    fn admin() -> UserId {
        UserId::new("Admin", "SysAdmin", "a")
    }

    fn sample() -> (FileSystem, SegUid, SegUid) {
        let mut fs = FileSystem::new(&admin());
        let udd = fs
            .create_directory(FileSystem::ROOT, "udd", &admin(), Label::BOTTOM)
            .unwrap();
        let seg = fs
            .create_segment(
                udd,
                "data",
                &admin(),
                Acl::of("*.*.*", AclMode::R),
                RingBrackets::new(4, 4, 4),
                Label::BOTTOM,
            )
            .unwrap();
        (fs, udd, seg)
    }

    #[test]
    fn clean_hierarchy_salvages_clean() {
        let (mut fs, _, _) = sample();
        let r = fs.salvage();
        assert!(r.clean(), "{:?}", r.problems);
    }

    #[test]
    fn duplicate_names_are_stripped() {
        let (mut fs, udd, _) = sample();
        fs.corrupt_add_duplicate_name(udd, "data");
        let r = fs.salvage();
        assert!(r
            .problems
            .iter()
            .any(|p| matches!(p, Problem::DuplicateName { .. })));
        // Exactly one branch answers to the name afterwards.
        assert!(fs.peek_branch(udd, "data").is_some());
        assert!(fs.salvage().clean(), "salvage must be idempotent");
    }

    #[test]
    fn label_violations_are_raised_not_lowered() {
        let (mut fs, udd, seg) = sample();
        // Corrupt: raise udd's node label above its branch's children.
        fs.corrupt_set_dir_label(udd, Label::new(Level::SECRET, Compartments::of(&[1])));
        let r = fs.salvage();
        assert!(r
            .problems
            .iter()
            .any(|p| matches!(p, Problem::LabelViolation { .. })));
        let b = fs.find_by_uid(seg).unwrap().1;
        assert!(
            b.label
                .dominates(&Label::new(Level::SECRET, Compartments::of(&[1]))),
            "repair must raise the branch label"
        );
        assert!(fs.salvage().clean());
    }

    #[test]
    fn dangling_directory_branches_are_dropped() {
        let (mut fs, udd, _) = sample();
        let ghost = fs
            .create_directory(udd, "ghost", &admin(), Label::BOTTOM)
            .unwrap();
        fs.corrupt_remove_node(ghost);
        let r = fs.salvage();
        assert!(r
            .problems
            .iter()
            .any(|p| matches!(p, Problem::MissingNode { .. })));
        assert!(fs.peek_branch(udd, "ghost").is_none());
        assert!(fs.salvage().clean());
    }

    #[test]
    fn orphan_nodes_are_removed() {
        let (mut fs, udd, _) = sample();
        let sub = fs
            .create_directory(udd, "sub", &admin(), Label::BOTTOM)
            .unwrap();
        fs.corrupt_remove_branch(udd, "sub");
        let r = fs.salvage();
        assert!(r
            .problems
            .iter()
            .any(|p| matches!(p, Problem::OrphanNode { uid } if *uid == sub)));
        assert!(!fs.is_directory(sub));
        assert!(fs.salvage().clean());
    }

    #[test]
    fn wrong_parent_pointers_are_fixed() {
        let (mut fs, udd, _) = sample();
        let sub = fs
            .create_directory(udd, "sub", &admin(), Label::BOTTOM)
            .unwrap();
        fs.corrupt_set_parent(sub, FileSystem::ROOT);
        let r = fs.salvage();
        assert!(r.problems.iter().any(
            |p| matches!(p, Problem::WrongParent { uid, actual } if *uid == sub && *actual == udd)
        ));
        assert_eq!(fs.dir_parent(sub).unwrap(), Some(udd));
        assert!(fs.salvage().clean());
    }

    #[test]
    fn quota_overcommit_is_clamped() {
        let (mut fs, udd, _) = sample();
        fs.corrupt_overcommit_quota(udd);
        let r = fs.salvage();
        assert!(r
            .problems
            .iter()
            .any(|p| matches!(p, Problem::QuotaOvercommit { .. })));
        assert!(fs.salvage().clean());
    }

    #[test]
    fn multiple_corruptions_are_all_found_in_one_pass() {
        let (mut fs, udd, _) = sample();
        let sub = fs
            .create_directory(udd, "sub", &admin(), Label::BOTTOM)
            .unwrap();
        fs.corrupt_add_duplicate_name(udd, "data");
        fs.corrupt_set_parent(sub, FileSystem::ROOT);
        fs.corrupt_overcommit_quota(udd);
        let r = fs.salvage();
        assert!(r.problems.len() >= 3, "{:?}", r.problems);
        assert_eq!(r.repaired, r.problems.len());
        assert!(fs.salvage().clean());
    }
}
