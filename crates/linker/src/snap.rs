//! Search rules and link snapping.
//!
//! Snapping a link turns a symbolic reference `seg$entry` into a concrete
//! `(segment number, word offset)`. The algorithm — try the reference names
//! already known to this ring, then search an ordered list of directories —
//! is the same whether it runs in ring 0 (legacy) or ring 4 (kernel
//! configuration); what differs is the privilege it runs with, which is the
//! entire point of the removal. The environment is abstracted as
//! [`LinkEnv`] so both packagings share this one implementation.

use mks_hw::{RingNo, SegNo};

use crate::refname::RefNameManager;

/// The services link snapping needs from the surrounding system.
pub trait LinkEnv {
    /// Attempts to initiate the segment called `name` in the directory
    /// bound at `dir`, with whatever access checking the system applies.
    /// `None` means not found / not accessible (indistinguishable!).
    fn initiate_segment(&mut self, dir: SegNo, name: &str) -> Option<SegNo>;

    /// The code offset of `entry` in the object segment bound at `segno`.
    fn entry_offset(&mut self, segno: SegNo, entry: &str) -> Option<usize>;
}

/// An ordered directory search path (dir segment numbers, pre-resolved by
/// the user ring — e.g. working dir, then system libraries).
#[derive(Clone, Debug, Default)]
pub struct SearchRules {
    /// Directories to search, in order.
    pub dirs: Vec<SegNo>,
}

impl SearchRules {
    /// Builds search rules over the given directories.
    pub fn new(dirs: Vec<SegNo>) -> SearchRules {
        SearchRules { dirs }
    }
}

/// A snapped link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SnappedLink {
    /// Target segment number.
    pub segno: SegNo,
    /// Target word offset.
    pub offset: usize,
}

/// Linking failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LinkError {
    /// No directory in the search rules yielded the segment.
    SegmentNotFound(String),
    /// The segment was found but exports no such entry point.
    EntryNotFound {
        /// Segment that was searched.
        segment: String,
        /// Entry point that was missing.
        entry: String,
    },
}

impl core::fmt::Display for LinkError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LinkError::SegmentNotFound(s) => write!(f, "segment not found: {s}"),
            LinkError::EntryNotFound { segment, entry } => {
                write!(f, "entry {entry} not found in {segment}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Snaps one symbolic reference.
///
/// 1. If `seg_name` is already a reference name in `ring`, reuse its segno.
/// 2. Otherwise search the rule directories in order; the first hit is
///    initiated and recorded as a reference name for next time.
/// 3. Resolve the entry point within the target.
pub fn snap<E: LinkEnv>(
    env: &mut E,
    refnames: &mut RefNameManager,
    rules: &SearchRules,
    ring: RingNo,
    seg_name: &str,
    entry_name: &str,
) -> Result<SnappedLink, LinkError> {
    let segno = match refnames.lookup(ring, seg_name) {
        Some(s) => s,
        None => {
            let mut found = None;
            for dir in &rules.dirs {
                if let Some(s) = env.initiate_segment(*dir, seg_name) {
                    found = Some(s);
                    break;
                }
            }
            let s = found.ok_or_else(|| LinkError::SegmentNotFound(seg_name.to_string()))?;
            refnames.bind(ring, seg_name, s);
            s
        }
    };
    let offset = env
        .entry_offset(segno, entry_name)
        .ok_or_else(|| LinkError::EntryNotFound {
            segment: seg_name.to_string(),
            entry: entry_name.to_string(),
        })?;
    Ok(SnappedLink { segno, offset })
}

#[cfg(test)]
pub(crate) mod testenv {
    use super::*;
    use crate::object::ObjectSegment;
    use std::collections::HashMap;

    /// A miniature linking environment: directories of object segments.
    #[derive(Default)]
    pub struct MiniEnv {
        pub dirs: mks_hw::IdMap<SegNo, HashMap<String, ObjectSegment>>,
        pub bound: mks_hw::IdMap<SegNo, ObjectSegment>,
        pub next_segno: u16,
        pub initiations: u32,
    }

    impl MiniEnv {
        pub fn new() -> MiniEnv {
            MiniEnv {
                next_segno: 100,
                ..MiniEnv::default()
            }
        }

        pub fn add_dir(&mut self, dir: SegNo, objects: Vec<ObjectSegment>) {
            let map = objects.into_iter().map(|o| (o.name.clone(), o)).collect();
            self.dirs.insert(dir, map);
        }
    }

    impl LinkEnv for MiniEnv {
        fn initiate_segment(&mut self, dir: SegNo, name: &str) -> Option<SegNo> {
            self.initiations += 1;
            let obj = self.dirs.get(&dir)?.get(name)?.clone();
            let segno = SegNo(self.next_segno);
            self.next_segno += 1;
            self.bound.insert(segno, obj);
            Some(segno)
        }

        fn entry_offset(&mut self, segno: SegNo, entry: &str) -> Option<usize> {
            self.bound.get(&segno)?.entry_offset(entry)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testenv::MiniEnv;
    use super::*;
    use crate::object::ObjectSegment;

    fn env() -> (MiniEnv, SearchRules) {
        let mut e = MiniEnv::new();
        let wd = SegNo(10);
        let lib = SegNo(11);
        e.add_dir(
            wd,
            vec![ObjectSegment::new(
                "mine_",
                50,
                vec![("go".into(), 5)],
                vec![],
            )],
        );
        e.add_dir(
            lib,
            vec![
                ObjectSegment::new("sqrt_", 100, vec![("sqrt".into(), 0)], vec![]),
                ObjectSegment::new("mine_", 60, vec![("go".into(), 9)], vec![]),
            ],
        );
        (e, SearchRules::new(vec![wd, lib]))
    }

    #[test]
    fn snap_finds_entries_through_search_rules() {
        let (mut e, rules) = env();
        let mut rn = RefNameManager::new();
        let l = snap(&mut e, &mut rn, &rules, 4, "sqrt_", "sqrt").unwrap();
        assert_eq!(l.offset, 0);
    }

    #[test]
    fn earlier_directories_shadow_later_ones() {
        let (mut e, rules) = env();
        let mut rn = RefNameManager::new();
        let l = snap(&mut e, &mut rn, &rules, 4, "mine_", "go").unwrap();
        assert_eq!(l.offset, 5, "working-dir copy must win");
    }

    #[test]
    fn refnames_shortcut_repeat_snaps() {
        let (mut e, rules) = env();
        let mut rn = RefNameManager::new();
        snap(&mut e, &mut rn, &rules, 4, "sqrt_", "sqrt").unwrap();
        let inits = e.initiations;
        snap(&mut e, &mut rn, &rules, 4, "sqrt_", "sqrt").unwrap();
        assert_eq!(
            e.initiations, inits,
            "second snap must hit the refname table"
        );
    }

    #[test]
    fn missing_segment_and_entry_are_distinct_errors() {
        let (mut e, rules) = env();
        let mut rn = RefNameManager::new();
        assert_eq!(
            snap(&mut e, &mut rn, &rules, 4, "ghost_", "x").unwrap_err(),
            LinkError::SegmentNotFound("ghost_".into())
        );
        assert!(matches!(
            snap(&mut e, &mut rn, &rules, 4, "sqrt_", "nosuch").unwrap_err(),
            LinkError::EntryNotFound { .. }
        ));
    }

    #[test]
    fn planted_refname_redirects_that_ring_only() {
        let (mut e, rules) = env();
        let mut rn = RefNameManager::new();
        // Ring 4 plants "sqrt_" pointing at its own segment.
        let fake = e.initiate_segment(SegNo(10), "mine_").unwrap();
        rn.bind(4, "sqrt_", fake);
        let l4 = snap(&mut e, &mut rn, &rules, 4, "sqrt_", "go").unwrap();
        assert_eq!(l4.offset, 5, "ring 4 sees its planted name");
        // Ring 1's snap is unaffected by ring 4's table.
        let l1 = snap(&mut e, &mut rn, &rules, 1, "sqrt_", "sqrt").unwrap();
        assert_eq!(l1.offset, 0);
    }
}
