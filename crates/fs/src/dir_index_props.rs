//! Differential property test of a directory's name and uid indexes.
//!
//! [`DirNode::remove_branch`] edits both indexes in place instead of
//! re-deriving them, so after every step of a random mix of creations,
//! deletions (of the first, a middle and the last entry), added and
//! removed names and torn duplicate names and uids, both indexes must
//! equal what a fresh [`DirNode::reindex`] derives, and the indexed
//! lookup must agree with the linear specification at one probe per
//! lookup.

use mks_hw::RingBrackets;
use mks_mls::Label;
use proptest::prelude::*;

use crate::acl::{Acl, UserId};
use crate::hierarchy::{DirNode, FileSystem};
use crate::tear::TearMode;

/// Entry names are drawn from a small pool so that creations collide
/// and names recur across branches.
const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

#[derive(Clone, Copy, Debug)]
enum Step {
    CreateSegment(usize),
    CreateDirectory(usize),
    /// Delete the entry at this position, by its primary name.
    Delete(Pick),
    AddName(prop::sample::Index, usize),
    RemoveName(prop::sample::Index, prop::sample::Index),
    /// Tear the entry at this position: `DuplicateEntry` adds a branch
    /// with its primary name, `StaleUid` gives it another branch's uid.
    Tear(prop::sample::Index, TearMode),
}

#[derive(Clone, Copy, Debug)]
enum Pick {
    First,
    Middle,
    Last,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let name = 0..NAMES.len();
    let pos = any::<prop::sample::Index>;
    prop_oneof![
        4 => name.clone().prop_map(Step::CreateSegment),
        1 => name.clone().prop_map(Step::CreateDirectory),
        1 => Just(Step::Delete(Pick::First)),
        1 => Just(Step::Delete(Pick::Middle)),
        1 => Just(Step::Delete(Pick::Last)),
        2 => (pos(), name).prop_map(|(at, n)| Step::AddName(at, n)),
        2 => (pos(), pos()).prop_map(|(at, n)| Step::RemoveName(at, n)),
        1 => pos().prop_map(|at| Step::Tear(at, TearMode::DuplicateEntry)),
        1 => pos().prop_map(|at| Step::Tear(at, TearMode::StaleUid)),
    ]
}

fn admin() -> UserId {
    UserId::new("Admin", "SysAdmin", "a")
}

fn node(fs: &FileSystem) -> &DirNode {
    &fs.nodes[&FileSystem::ROOT]
}

/// The primary name and uid of the root entry at `at`, if any.
fn entry(fs: &FileSystem, at: impl FnOnce(usize) -> usize) -> Option<(String, mks_hw::SegUid)> {
    let branches = &node(fs).branches;
    if branches.is_empty() {
        return None;
    }
    let b = &branches[at(branches.len())];
    Some((b.names.first()?.clone(), b.uid))
}

fn apply(fs: &mut FileSystem, step: Step) {
    let root = FileSystem::ROOT;
    let who = admin();
    // Refusals (a taken name, a last name, a non-empty directory) are
    // part of the mix: they must leave the indexes untouched.
    match step {
        Step::CreateSegment(n) => {
            let _ = fs.create_segment(
                root,
                NAMES[n],
                &who,
                Acl::empty(),
                RingBrackets::new(4, 4, 4),
                Label::BOTTOM,
            );
        }
        Step::CreateDirectory(n) => {
            let _ = fs.create_directory(root, NAMES[n], &who, Label::BOTTOM);
        }
        Step::Delete(pick) => {
            let at = |len: usize| match pick {
                Pick::First => 0,
                Pick::Middle => len / 2,
                Pick::Last => len - 1,
            };
            if let Some((name, _)) = entry(fs, at) {
                let _ = fs.delete_branch(root, &name, &who);
            }
        }
        Step::AddName(at, n) => {
            if let Some((name, _)) = entry(fs, |len| at.index(len)) {
                let _ = fs.add_name(root, &name, NAMES[n], &who);
            }
        }
        Step::RemoveName(at, which) => {
            let branches = &node(fs).branches;
            if !branches.is_empty() {
                let names = &branches[at.index(branches.len())].names;
                if !names.is_empty() {
                    let name = names[which.index(names.len())].clone();
                    let _ = fs.remove_name(root, &name, &who);
                }
            }
        }
        Step::Tear(at, mode) => {
            if let Some((_, uid)) = entry(fs, |len| at.index(len)) {
                fs.apply_tear(root, uid, mode);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// In-place index maintenance is indistinguishable from a rebuild,
    /// and lookups stay at one probe even in a damaged directory.
    #[test]
    fn directory_indexes_equal_a_fresh_reindex_after_every_step(
        steps in prop::collection::vec(arb_step(), 1..48),
    ) {
        let mut fs = FileSystem::new(&admin());
        for (i, step) in steps.iter().enumerate() {
            apply(&mut fs, *step);
            let dir = fs.nodes.get_mut(&FileSystem::ROOT).expect("the root stays");
            let (names, uids) = (dir.name_index.clone(), dir.uid_index.clone());
            dir.reindex();
            prop_assert_eq!(&names, &dir.name_index, "name index after step {} {:?}", i, step);
            prop_assert_eq!(&uids, &dir.uid_index, "uid index after step {} {:?}", i, step);

            fs.reset_lookup_work();
            for name in NAMES {
                let indexed = fs.peek_branch(FileSystem::ROOT, name).map(std::ptr::from_ref);
                let linear = fs.peek_branch_linear(FileSystem::ROOT, name).map(std::ptr::from_ref);
                prop_assert_eq!(indexed, linear, "lookup of {} after step {} {:?}", name, i, step);
            }
            let (lookups, probes) = fs.lookup_work();
            prop_assert_eq!(lookups, probes, "probes per lookup after step {} {:?}", i, step);
        }
    }
}
