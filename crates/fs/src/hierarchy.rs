//! The directory hierarchy: branches, creation, deletion, naming.
//!
//! "The actual file system hierarchy remains protected inside the
//! supervisor": every operation here is kernel mechanism, reached through
//! gates. What the removal projects changed is *how callers name things* —
//! by pathname resolved in ring 0 (legacy) versus by `(directory segment
//! number, entry name)` with pathnames resolved in the user ring (kernel
//! configuration, see [`crate::pathres`]).
//!
//! Mandatory labels: a branch's label must dominate its containing
//! directory's label (an upgraded subtree is legal; a downgrade is not), so
//! walking *down* the tree never walks *down* the lattice.

use mks_hw::{RingBrackets, SegUid};

use crate::det_hash::DetHashMap;
use mks_mls::Label;
use mks_trace::digest::IdMap;

use crate::acl::{Acl, AclMode, DirMode, UserId};
use crate::quota::QuotaCell;

/// What a branch describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BranchKind {
    /// A data/procedure segment.
    Segment {
        /// The segment ACL.
        acl: Acl<AclMode>,
        /// Current length in words.
        len_words: usize,
        /// Ring brackets assigned at creation.
        brackets: RingBrackets,
    },
    /// A subordinate directory.
    Directory {
        /// The directory ACL.
        acl: Acl<DirMode>,
        /// Optional quota cell.
        quota: Option<QuotaCell>,
    },
}

/// One directory entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Branch {
    /// Entry names; the first is the primary name. Multics entries may
    /// carry several names ("added names").
    pub names: Vec<String>,
    /// Unique identifier of the described object.
    pub uid: SegUid,
    /// Segment or directory payload.
    pub kind: BranchKind,
    /// Mandatory security label.
    pub label: Label,
    /// Creating principal.
    pub author: UserId,
}

impl Branch {
    /// Does this branch answer to `name`?
    pub fn has_name(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }

    /// Primary name.
    pub fn primary_name(&self) -> &str {
        &self.names[0]
    }

    /// Is this a directory branch?
    pub fn is_dir(&self) -> bool {
        matches!(self.kind, BranchKind::Directory { .. })
    }
}

/// File-system errors. `NoInfo` deliberately carries nothing: it is the
/// error the kernel returns when revealing more (even existence) would leak.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FsError {
    /// No such entry (only returned where the caller is entitled to know).
    NotFound(String),
    /// The uid does not name a directory known to the hierarchy.
    NotADirectory(SegUid),
    /// Entry exists but is the wrong kind for the operation.
    WrongKind(String),
    /// A name in the request is already taken in that directory.
    NameTaken(String),
    /// The caller lacks the needed directory permission.
    NoPermission {
        /// `"s"`, `"m"`, or `"a"` — which permission was missing.
        needed: char,
    },
    /// The new branch's label does not dominate the directory's.
    LabelIncompatible,
    /// Directory still has entries.
    NotEmpty(String),
    /// The caller is not entitled to any information about the target.
    NoInfo,
    /// A branch must keep at least one name.
    LastName,
}

impl core::fmt::Display for FsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FsError::NotFound(n) => write!(f, "entry not found: {n}"),
            FsError::NotADirectory(u) => write!(f, "{u:?} is not a directory"),
            FsError::WrongKind(n) => write!(f, "entry {n} is the wrong kind"),
            FsError::NameTaken(n) => write!(f, "name already in use: {n}"),
            FsError::NoPermission { needed } => write!(f, "missing '{needed}' permission"),
            FsError::LabelIncompatible => write!(f, "label does not dominate directory label"),
            FsError::NotEmpty(n) => write!(f, "directory not empty: {n}"),
            FsError::NoInfo => write!(f, "no information"),
            FsError::LastName => write!(f, "cannot remove a branch's last name"),
        }
    }
}

impl std::error::Error for FsError {}

#[derive(Debug)]
pub(crate) struct DirNode {
    pub(crate) parent: Option<SegUid>,
    pub(crate) label: Label,
    pub(crate) acl: Acl<DirMode>,
    pub(crate) quota: Option<QuotaCell>,
    pub(crate) branches: Vec<Branch>,
    /// First-wins index: entry name → branch position. Raw salvager/tear
    /// mutations may leave positions stale; lookups verify the hit and
    /// fall back to the linear spec, so damage costs probes, never
    /// correctness. Invariant kept by every name-adding site: a name
    /// absent from the index is absent from `branches`.
    pub(crate) name_index: DetHashMap<String, usize>,
    /// Same, for branch uids (first claimant wins, as the salvager does).
    pub(crate) uid_index: IdMap<SegUid, usize>,
}

impl DirNode {
    pub(crate) fn new(
        parent: Option<SegUid>,
        label: Label,
        acl: Acl<DirMode>,
        quota: Option<QuotaCell>,
    ) -> DirNode {
        DirNode {
            parent,
            label,
            acl,
            quota,
            branches: Vec::new(),
            name_index: DetHashMap::default(),
            uid_index: IdMap::default(),
        }
    }

    /// Appends a branch, keeping the indexes complete (first-wins).
    pub(crate) fn push_branch(&mut self, branch: Branch) {
        let idx = self.branches.len();
        for n in &branch.names {
            self.name_index.entry(n.clone()).or_insert(idx);
        }
        self.uid_index.entry(branch.uid).or_insert(idx);
        self.branches.push(branch);
    }

    /// Re-derives both indexes from the branch list. Called after
    /// mutations that drop names or several branches at once: name
    /// removal, the salvager and injected tears. Deleting one branch
    /// keeps the indexes in place instead ([`DirNode::remove_branch`]).
    pub(crate) fn reindex(&mut self) {
        self.name_index.clear();
        self.uid_index.clear();
        for (i, b) in self.branches.iter().enumerate() {
            for n in &b.names {
                self.name_index.entry(n.clone()).or_insert(i);
            }
            self.uid_index.entry(b.uid).or_insert(i);
        }
    }

    /// Removes the branch at `idx` and leaves both indexes exactly as
    /// [`DirNode::reindex`] would derive them, without rebuilding: each
    /// of its names and its uid passes to the next holder a damaged
    /// directory may have (first-wins) or leaves the index, and every
    /// later position moves down by one.
    pub(crate) fn remove_branch(&mut self, idx: usize) -> Branch {
        let branch = self.branches.remove(idx);
        let later = &self.branches[idx..];
        self.name_index
            .retain(|n, i| shift_past(i, idx, || later.iter().position(|b| b.has_name(n))));
        self.uid_index
            .retain(|u, i| shift_past(i, idx, || later.iter().position(|b| b.uid == *u)));
        branch
    }

    /// Position of the first branch answering to `name`, plus the number
    /// of probes spent (1 on the indexed path; the whole branch list when
    /// a stale hit forces the linear fallback).
    pub(crate) fn find_name(&self, name: &str) -> (Option<usize>, u64) {
        match self.name_index.get(name) {
            Some(&i) if self.branches.get(i).is_some_and(|b| b.has_name(name)) => (Some(i), 1),
            Some(_) => (
                self.branches.iter().position(|b| b.has_name(name)),
                1 + self.branches.len() as u64,
            ),
            None => (None, 1),
        }
    }

    /// Position of the first branch with this uid (same contract as
    /// [`DirNode::find_name`]).
    pub(crate) fn find_uid(&self, uid: SegUid) -> (Option<usize>, u64) {
        match self.uid_index.get(&uid) {
            Some(&i) if self.branches.get(i).is_some_and(|b| b.uid == uid) => (Some(i), 1),
            Some(_) => (
                self.branches.iter().position(|b| b.uid == uid),
                1 + self.branches.len() as u64,
            ),
            None => (None, 1),
        }
    }
}

/// One index entry's step when the branch at `idx` is removed: an entry
/// it held moves to the key's next holder (`next`, counted from `idx`)
/// or is dropped (returns false); a later position moves down by one.
fn shift_past(i: &mut usize, idx: usize, next: impl FnOnce() -> Option<usize>) -> bool {
    if *i == idx {
        match next() {
            Some(p) => *i = idx + p,
            None => return false,
        }
    } else if *i > idx {
        *i -= 1;
    }
    true
}

/// The hierarchy: a tree of directories rooted at [`FileSystem::ROOT`].
#[derive(Debug)]
pub struct FileSystem {
    pub(crate) nodes: IdMap<SegUid, DirNode>,
    next_uid: u64,
    /// Which directory a branch uid lives in. Verified on use (the uid
    /// may have been torn away or the node removed); a stale or missing
    /// entry falls back to the exhaustive scan.
    pub(crate) uid_dir: IdMap<SegUid, SegUid>,
    /// Deterministic lookup-work accounting for the scale experiment
    /// (E18): how many branch-slot probes the lookups above spent.
    lookups: std::sync::atomic::AtomicU64,
    lookup_probes: std::sync::atomic::AtomicU64,
    pub(crate) trace: Option<mks_trace::TraceHandle>,
    pub(crate) inject: Option<mks_hw::InjectorHandle>,
}

impl FileSystem {
    /// The root directory's uid (`>`).
    pub const ROOT: SegUid = SegUid(1);

    /// Creates a hierarchy containing only the root, with `admin` holding
    /// full control and everyone else status-only.
    pub fn new(admin: &UserId) -> FileSystem {
        let mut acl = Acl::of("*.*.*", DirMode::S);
        acl.add(&admin.to_acl_string(), DirMode::SMA);
        let root = DirNode::new(
            None,
            Label::BOTTOM,
            acl,
            Some(QuotaCell::with_limit(1 << 20)),
        );
        let mut nodes = IdMap::default();
        nodes.insert(Self::ROOT, root);
        FileSystem {
            nodes,
            next_uid: 2,
            uid_dir: IdMap::default(),
            lookups: std::sync::atomic::AtomicU64::new(0),
            lookup_probes: std::sync::atomic::AtomicU64::new(0),
            trace: None,
            inject: None,
        }
    }

    /// Records one indexed lookup and the probes it spent (E18 work
    /// accounting; relaxed — the simulation is single-threaded).
    fn note_lookup(&self, probes: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.lookups.fetch_add(1, Relaxed);
        self.lookup_probes.fetch_add(probes, Relaxed);
    }

    /// `(lookups, branch-slot probes)` since boot or the last reset. On
    /// an undamaged hierarchy probes == lookups — each lookup costs one
    /// slot regardless of directory size; that ratio staying ~1 as the
    /// population grows 10³ → 10⁶ is E18's "mediation scales" claim.
    pub fn lookup_work(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (self.lookups.load(Relaxed), self.lookup_probes.load(Relaxed))
    }

    /// Resets the lookup-work counters (between E18 population rungs).
    pub fn reset_lookup_work(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        self.lookups.store(0, Relaxed);
        self.lookup_probes.store(0, Relaxed);
    }

    /// Connects the hierarchy to the kernel flight recorder so ACL
    /// evaluations are counted and logged.
    pub fn set_trace(&mut self, trace: mks_trace::TraceHandle) {
        self.trace = Some(trace);
    }

    fn trace_acl_check(&self, user: &UserId, detail: String) {
        if let Some(t) = &self.trace {
            t.counter_add("fs.acl_checks", 1);
            t.event_for(
                mks_trace::Layer::Fs,
                mks_trace::EventKind::AclCheck,
                user.to_acl_string().into(),
                detail,
            );
        }
    }

    /// Allocates a fresh unique identifier.
    pub fn alloc_uid(&mut self) -> SegUid {
        let uid = SegUid(self.next_uid);
        self.next_uid += 1;
        uid
    }

    fn dir(&self, uid: SegUid) -> Result<&DirNode, FsError> {
        self.nodes.get(&uid).ok_or(FsError::NotADirectory(uid))
    }

    fn dir_mut(&mut self, uid: SegUid) -> Result<&mut DirNode, FsError> {
        self.nodes.get_mut(&uid).ok_or(FsError::NotADirectory(uid))
    }

    /// The caller's effective mode on directory `dir`.
    pub fn dir_access(&self, dir: SegUid, user: &UserId) -> Result<DirMode, FsError> {
        self.trace_acl_check(user, format!("dir {}", dir.0));
        Ok(self.dir(dir)?.acl.effective(user).unwrap_or(DirMode::NULL))
    }

    /// The label of directory `dir`.
    pub fn dir_label(&self, dir: SegUid) -> Result<Label, FsError> {
        Ok(self.dir(dir)?.label)
    }

    /// The parent of directory `dir` (`None` for the root).
    pub fn dir_parent(&self, dir: SegUid) -> Result<Option<SegUid>, FsError> {
        Ok(self.dir(dir)?.parent)
    }

    /// Is `uid` a directory in the hierarchy?
    pub fn is_directory(&self, uid: SegUid) -> bool {
        self.nodes.contains_key(&uid)
    }

    fn require(&self, dir: SegUid, user: &UserId, need: char) -> Result<(), FsError> {
        let mode = self.dir_access(dir, user)?;
        let ok = match need {
            's' => mode.status,
            'm' => mode.modify,
            'a' => mode.append,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(FsError::NoPermission { needed: need })
        }
    }

    /// Creates a segment branch in `dir`. Requires `a` on the directory and
    /// label compatibility. Returns the new segment's uid.
    pub fn create_segment(
        &mut self,
        dir: SegUid,
        name: &str,
        user: &UserId,
        acl: Acl<AclMode>,
        brackets: RingBrackets,
        label: Label,
    ) -> Result<SegUid, FsError> {
        self.require(dir, user, 'a')?;
        if !label.dominates(&self.dir(dir)?.label) {
            return Err(FsError::LabelIncompatible);
        }
        let (taken, probes) = self.dir(dir)?.find_name(name);
        self.note_lookup(probes);
        if taken.is_some() {
            return Err(FsError::NameTaken(name.into()));
        }
        let uid = self.alloc_uid();
        let branch = Branch {
            names: vec![name.into()],
            uid,
            kind: BranchKind::Segment {
                acl,
                len_words: 0,
                brackets,
            },
            label,
            author: user.clone(),
        };
        self.dir_mut(dir)?.push_branch(branch);
        self.uid_dir.insert(uid, dir);
        self.maybe_tear(dir, uid);
        Ok(uid)
    }

    /// Creates a subdirectory branch in `dir`. Requires `a` and label
    /// compatibility. The creator gets `sma` on the new directory.
    pub fn create_directory(
        &mut self,
        dir: SegUid,
        name: &str,
        user: &UserId,
        label: Label,
    ) -> Result<SegUid, FsError> {
        self.require(dir, user, 'a')?;
        if !label.dominates(&self.dir(dir)?.label) {
            return Err(FsError::LabelIncompatible);
        }
        let (taken, probes) = self.dir(dir)?.find_name(name);
        self.note_lookup(probes);
        if taken.is_some() {
            return Err(FsError::NameTaken(name.into()));
        }
        let uid = self.alloc_uid();
        let acl = Acl::of(&user.to_acl_string(), DirMode::SMA);
        let branch = Branch {
            names: vec![name.into()],
            uid,
            kind: BranchKind::Directory {
                acl: acl.clone(),
                quota: None,
            },
            label,
            author: user.clone(),
        };
        self.dir_mut(dir)?.push_branch(branch);
        self.uid_dir.insert(uid, dir);
        self.nodes
            .insert(uid, DirNode::new(Some(dir), label, acl, None));
        self.maybe_tear(dir, uid);
        Ok(uid)
    }

    /// Lists the entries of `dir` (the `status` operation). Requires `s`.
    pub fn list(&self, dir: SegUid, user: &UserId) -> Result<&[Branch], FsError> {
        self.require(dir, user, 's')?;
        Ok(&self.dir(dir)?.branches)
    }

    /// Finds the branch called `name` in `dir`, with a status check.
    pub fn get_branch(&self, dir: SegUid, name: &str, user: &UserId) -> Result<&Branch, FsError> {
        self.require(dir, user, 's')?;
        self.peek_branch(dir, name)
            .ok_or_else(|| FsError::NotFound(name.into()))
    }

    /// Internal unchecked lookup, for kernel paths that have already made
    /// their own access decision (e.g. `initiate`, which checks the
    /// *target's* ACL instead of the directory's). Indexed: one probe on
    /// a healthy directory, whatever its size.
    pub fn peek_branch(&self, dir: SegUid, name: &str) -> Option<&Branch> {
        let node = self.nodes.get(&dir)?;
        let (pos, probes) = node.find_name(name);
        self.note_lookup(probes);
        pos.map(|i| &node.branches[i])
    }

    /// The pre-index linear scan — kept as the executable specification
    /// for the differential tests (`peek_branch` must agree everywhere).
    pub fn peek_branch_linear(&self, dir: SegUid, name: &str) -> Option<&Branch> {
        self.nodes
            .get(&dir)?
            .branches
            .iter()
            .find(|b| b.has_name(name))
    }

    /// Mutable unchecked lookup (kernel internal).
    pub fn peek_branch_mut(&mut self, dir: SegUid, name: &str) -> Option<&mut Branch> {
        let node = self.nodes.get_mut(&dir)?;
        let (pos, probes) = node.find_name(name);
        self.lookups
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.lookup_probes
            .fetch_add(probes, std::sync::atomic::Ordering::Relaxed);
        pos.map(move |i| &mut node.branches[i])
    }

    /// Finds a branch by uid anywhere in the hierarchy (kernel internal).
    /// The uid→directory map pins the home directory; a verified index
    /// probe finds the branch, and only stale state (injected tears,
    /// mid-salvage damage) pays for the exhaustive scan.
    pub fn find_by_uid(&self, uid: SegUid) -> Option<(SegUid, &Branch)> {
        if let Some(&dir) = self.uid_dir.get(&uid) {
            if let Some(node) = self.nodes.get(&dir) {
                let (pos, probes) = node.find_uid(uid);
                self.note_lookup(probes);
                if let Some(i) = pos {
                    return Some((dir, &node.branches[i]));
                }
            }
        }
        self.find_by_uid_linear(uid)
    }

    /// The exhaustive all-nodes scan — the pre-index specification and
    /// the fallback when the uid map is stale.
    pub fn find_by_uid_linear(&self, uid: SegUid) -> Option<(SegUid, &Branch)> {
        self.nodes.iter().find_map(|(dir, node)| {
            node.branches
                .iter()
                .find(|b| b.uid == uid)
                .map(|b| (*dir, b))
        })
    }

    /// Deletes the branch `name` from `dir`. Requires `m`; a directory
    /// branch must be empty. Returns the deleted branch (the kernel then
    /// destroys the storage through segment control).
    pub fn delete_branch(
        &mut self,
        dir: SegUid,
        name: &str,
        user: &UserId,
    ) -> Result<Branch, FsError> {
        self.require(dir, user, 'm')?;
        let node = self.dir(dir)?;
        let (pos, probes) = node.find_name(name);
        self.note_lookup(probes);
        let idx = pos.ok_or_else(|| FsError::NotFound(name.into()))?;
        let uid = node.branches[idx].uid;
        if node.branches[idx].is_dir() {
            let child = self.dir(uid)?;
            if !child.branches.is_empty() {
                return Err(FsError::NotEmpty(name.into()));
            }
            self.nodes.remove(&uid);
        }
        if self.uid_dir.get(&uid) == Some(&dir) {
            self.uid_dir.remove(&uid);
        }
        Ok(self.dir_mut(dir)?.remove_branch(idx))
    }

    /// Adds an extra name to a branch. Requires `m` on the directory.
    pub fn add_name(
        &mut self,
        dir: SegUid,
        name: &str,
        new_name: &str,
        user: &UserId,
    ) -> Result<(), FsError> {
        self.require(dir, user, 'm')?;
        let (taken, probes) = self.dir(dir)?.find_name(new_name);
        self.note_lookup(probes);
        if taken.is_some() {
            return Err(FsError::NameTaken(new_name.into()));
        }
        let node = self.dir_mut(dir)?;
        let (pos, _) = node.find_name(name);
        let idx = pos.ok_or_else(|| FsError::NotFound(name.into()))?;
        node.branches[idx].names.push(new_name.into());
        node.name_index.entry(new_name.into()).or_insert(idx);
        Ok(())
    }

    /// Removes a name from a branch (never its last). Requires `m`.
    pub fn remove_name(&mut self, dir: SegUid, name: &str, user: &UserId) -> Result<(), FsError> {
        self.require(dir, user, 'm')?;
        let node = self.dir_mut(dir)?;
        let (pos, _) = node.find_name(name);
        let idx = pos.ok_or_else(|| FsError::NotFound(name.into()))?;
        if node.branches[idx].names.len() == 1 {
            return Err(FsError::LastName);
        }
        node.branches[idx].names.retain(|n| n != name);
        node.reindex();
        Ok(())
    }

    /// Replaces the ACL of a segment branch. Requires `m` on the directory.
    pub fn set_segment_acl(
        &mut self,
        dir: SegUid,
        name: &str,
        user: &UserId,
        new_acl: Acl<AclMode>,
    ) -> Result<(), FsError> {
        self.require(dir, user, 'm')?;
        let b = self
            .peek_branch_mut(dir, name)
            .ok_or_else(|| FsError::NotFound(name.into()))?;
        match &mut b.kind {
            BranchKind::Segment { acl, .. } => {
                *acl = new_acl;
                Ok(())
            }
            BranchKind::Directory { .. } => Err(FsError::WrongKind(name.into())),
        }
    }

    /// Adds (or replaces) an entry on a directory's ACL. Like all ACL
    /// changes, requires `m` on the *containing* directory. Keeps the
    /// authoritative node ACL and the branch's copy in step.
    pub fn set_dir_acl_entry(
        &mut self,
        parent: SegUid,
        name: &str,
        user: &UserId,
        pattern: &str,
        mode: DirMode,
    ) -> Result<(), FsError> {
        self.require(parent, user, 'm')?;
        let uid = {
            let b = self
                .peek_branch_mut(parent, name)
                .ok_or_else(|| FsError::NotFound(name.into()))?;
            match &mut b.kind {
                BranchKind::Directory { acl, .. } => {
                    acl.add(pattern, mode);
                    b.uid
                }
                BranchKind::Segment { .. } => return Err(FsError::WrongKind(name.into())),
            }
        };
        self.dir_mut(uid)?.acl.add(pattern, mode);
        Ok(())
    }

    /// Records a new length for a segment branch (kernel internal, called
    /// by segment control after growth/truncation). Indexed via the
    /// uid→directory map; the exhaustive scan only runs on stale state.
    pub fn note_segment_length(&mut self, uid: SegUid, len_words: usize) {
        let home = match self.find_by_uid(uid) {
            Some((dir, _)) => dir,
            None => return,
        };
        if let Some(node) = self.nodes.get_mut(&home) {
            let (pos, _) = node.find_uid(uid);
            if let Some(i) = pos {
                if let BranchKind::Segment { len_words: l, .. } = &mut node.branches[i].kind {
                    *l = len_words;
                }
            }
        }
    }

    /// The caller's effective mode on the segment branch `name` in `dir`
    /// (no directory permission needed: access to a segment is governed by
    /// the segment's own ACL).
    pub fn segment_access(
        &self,
        dir: SegUid,
        name: &str,
        user: &UserId,
    ) -> Result<AclMode, FsError> {
        self.trace_acl_check(user, format!("segment {name} in dir {}", dir.0));
        let b = self.peek_branch(dir, name).ok_or(FsError::NoInfo)?;
        match &b.kind {
            BranchKind::Segment { acl, .. } => Ok(acl.effective(user).unwrap_or(AclMode::NULL)),
            BranchKind::Directory { .. } => Err(FsError::WrongKind(name.into())),
        }
    }

    /// Total number of directories (for audits/tests).
    pub fn nr_directories(&self) -> usize {
        self.nodes.len()
    }

    /// The primary entry names of a directory, unchecked (kernel-internal
    /// walkers: backup, the salvager).
    pub fn child_names(&self, dir: SegUid) -> Vec<String> {
        self.nodes
            .get(&dir)
            .map(|n| {
                n.branches
                    .iter()
                    .map(|b| b.primary_name().to_string())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Quota cell access for a directory (kernel internal).
    pub fn quota_cell_mut(&mut self, dir: SegUid) -> Result<&mut Option<QuotaCell>, FsError> {
        Ok(&mut self.dir_mut(dir)?.quota)
    }

    /// Read-only quota cell of a directory (kernel internal).
    pub fn quota_cell(&self, dir: SegUid) -> Result<Option<QuotaCell>, FsError> {
        Ok(self.dir(dir)?.quota)
    }
}

/// Salvager support: crate-internal accessors that let the consistency
/// checker inspect and repair raw hierarchy state (see [`crate::salvage`]).
impl FileSystem {
    pub(crate) fn node_uids(&self) -> Vec<SegUid> {
        let mut v: Vec<SegUid> = self.nodes.keys().copied().collect();
        v.sort_unstable();
        v
    }

    pub(crate) fn drop_nameless_branches(&mut self, dir: SegUid) -> usize {
        let Some(node) = self.nodes.get_mut(&dir) else {
            return 0;
        };
        let before = node.branches.len();
        node.branches.retain(|b| !b.names.is_empty());
        let dropped = before - node.branches.len();
        if dropped > 0 {
            node.reindex();
        }
        dropped
    }

    pub(crate) fn duplicate_names_in(&self, dir: SegUid) -> Vec<String> {
        let Some(node) = self.nodes.get(&dir) else {
            return Vec::new();
        };
        let mut seen = std::collections::HashSet::new();
        let mut dups = Vec::new();
        for b in &node.branches {
            for n in &b.names {
                if !seen.insert(n.clone()) && !dups.contains(n) {
                    dups.push(n.clone());
                }
            }
        }
        dups
    }

    /// Keeps the first holder of `name`; later holders lose the name (and
    /// the whole branch, if it was their last).
    pub(crate) fn strip_duplicate_name(&mut self, dir: SegUid, name: &str) {
        let Some(node) = self.nodes.get_mut(&dir) else {
            return;
        };
        let mut kept = false;
        for b in &mut node.branches {
            if b.has_name(name) {
                if kept {
                    b.names.retain(|n| n != name);
                } else {
                    kept = true;
                    // Also dedupe within the branch itself.
                    let mut first = true;
                    b.names.retain(|n| {
                        if n == name {
                            let keep = first;
                            first = false;
                            keep
                        } else {
                            true
                        }
                    });
                }
            }
        }
        node.branches.retain(|b| !b.names.is_empty());
        node.reindex();
    }

    pub(crate) fn branch_facts(&self, dir: SegUid) -> Vec<(SegUid, Label, bool)> {
        self.nodes
            .get(&dir)
            .map(|n| {
                n.branches
                    .iter()
                    .map(|b| (b.uid, b.label, b.is_dir()))
                    .collect()
            })
            .unwrap_or_default()
    }

    pub(crate) fn raise_branch_label(&mut self, dir: SegUid, uid: SegUid, new_label: Label) {
        // An upward label move is always a restrictive repair, never
        // routine — record it so the observatory's surveillance sees it.
        if let Some(t) = &self.trace {
            t.event(
                mks_trace::Layer::Fs,
                mks_trace::EventKind::LabelRaise,
                format!("salvager raised label of uid {} to {new_label:?}", uid.0),
            );
        }
        if let Some(node) = self.nodes.get_mut(&dir) {
            for b in &mut node.branches {
                if b.uid == uid {
                    b.label = new_label;
                }
            }
        }
        // Keep a directory's node label consistent with its branch.
        if let Some(node) = self.nodes.get_mut(&uid) {
            node.label = new_label;
        }
    }

    pub(crate) fn drop_branch_by_uid(&mut self, dir: SegUid, uid: SegUid) {
        if let Some(node) = self.nodes.get_mut(&dir) {
            node.branches.retain(|b| b.uid != uid);
            node.reindex();
        }
        if self.uid_dir.get(&uid) == Some(&dir) {
            self.uid_dir.remove(&uid);
        }
    }

    pub(crate) fn quota_overcommitted(&self, dir: SegUid) -> bool {
        self.nodes
            .get(&dir)
            .and_then(|n| n.quota)
            .is_some_and(|q| q.used_pages > q.limit_pages)
    }

    pub(crate) fn clamp_quota(&mut self, dir: SegUid) {
        if let Some(node) = self.nodes.get_mut(&dir) {
            if let Some(q) = &mut node.quota {
                q.used_pages = q.used_pages.min(q.limit_pages);
            }
        }
    }

    pub(crate) fn find_branch_dir(&self, uid: SegUid) -> Option<SegUid> {
        self.find_by_uid(uid).map(|(dir, _)| dir)
    }

    pub(crate) fn remove_node(&mut self, uid: SegUid) {
        self.nodes.remove(&uid);
    }

    pub(crate) fn set_parent(&mut self, uid: SegUid, parent: SegUid) {
        if let Some(node) = self.nodes.get_mut(&uid) {
            node.parent = Some(parent);
        }
    }
}

/// Fault injection for the salvager's tests (crate-internal, test only).
#[cfg(test)]
impl FileSystem {
    pub(crate) fn corrupt_add_duplicate_name(&mut self, dir: SegUid, name: &str) {
        let uid = self.alloc_uid();
        let node = self.nodes.get_mut(&dir).expect("dir exists");
        node.push_branch(Branch {
            names: vec![name.to_string()],
            uid,
            kind: BranchKind::Segment {
                acl: Acl::empty(),
                len_words: 0,
                brackets: RingBrackets::new(4, 4, 4),
            },
            label: Label::BOTTOM,
            author: UserId::new("Corruptor", "Test", "x"),
        });
        self.uid_dir.insert(uid, dir);
    }

    pub(crate) fn corrupt_set_dir_label(&mut self, dir: SegUid, label: Label) {
        self.nodes.get_mut(&dir).expect("dir exists").label = label;
    }

    pub(crate) fn corrupt_remove_node(&mut self, uid: SegUid) {
        self.nodes.remove(&uid);
    }

    pub(crate) fn corrupt_remove_branch(&mut self, dir: SegUid, name: &str) {
        let node = self.nodes.get_mut(&dir).expect("dir exists");
        node.branches.retain(|b| !b.has_name(name));
        node.reindex();
    }

    pub(crate) fn corrupt_set_parent(&mut self, uid: SegUid, parent: SegUid) {
        self.nodes.get_mut(&uid).expect("dir exists").parent = Some(parent);
    }

    pub(crate) fn corrupt_overcommit_quota(&mut self, dir: SegUid) {
        self.nodes.get_mut(&dir).expect("dir exists").quota = Some(QuotaCell {
            limit_pages: 1,
            used_pages: 5,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mks_mls::{Compartments, Level};

    fn admin() -> UserId {
        UserId::new("Admin", "SysAdmin", "a")
    }

    fn jones() -> UserId {
        UserId::new("Jones", "CSR", "a")
    }

    fn fs_with_udd() -> (FileSystem, SegUid) {
        let mut fs = FileSystem::new(&admin());
        let udd = fs
            .create_directory(FileSystem::ROOT, "udd", &admin(), Label::BOTTOM)
            .unwrap();
        // Give Jones append+status on udd.
        let node = fs.nodes.get_mut(&udd).unwrap();
        node.acl.add("Jones.CSR.a", DirMode::SA);
        (fs, udd)
    }

    #[test]
    fn root_exists_and_everyone_can_list_it() {
        let fs = FileSystem::new(&admin());
        assert!(fs.list(FileSystem::ROOT, &jones()).is_ok());
        assert_eq!(fs.nr_directories(), 1);
    }

    #[test]
    fn create_requires_append() {
        let mut fs = FileSystem::new(&admin());
        let err = fs
            .create_segment(
                FileSystem::ROOT,
                "x",
                &jones(),
                Acl::empty(),
                RingBrackets::new(4, 4, 4),
                Label::BOTTOM,
            )
            .unwrap_err();
        assert_eq!(err, FsError::NoPermission { needed: 'a' });
    }

    #[test]
    fn segment_round_trip_with_acl() {
        let (mut fs, udd) = fs_with_udd();
        let acl = Acl::of("Jones.CSR.a", AclMode::RW);
        let uid = fs
            .create_segment(
                udd,
                "notes",
                &jones(),
                acl,
                RingBrackets::new(4, 4, 4),
                Label::BOTTOM,
            )
            .unwrap();
        assert_eq!(
            fs.segment_access(udd, "notes", &jones()).unwrap(),
            AclMode::RW
        );
        assert_eq!(
            fs.segment_access(udd, "notes", &admin()).unwrap(),
            AclMode::NULL
        );
        assert_eq!(fs.find_by_uid(uid).unwrap().1.primary_name(), "notes");
    }

    #[test]
    fn duplicate_names_rejected_across_all_names() {
        let (mut fs, udd) = fs_with_udd();
        fs.create_segment(
            udd,
            "a",
            &jones(),
            Acl::empty(),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap();
        let err = fs
            .create_segment(
                udd,
                "a",
                &jones(),
                Acl::empty(),
                RingBrackets::new(4, 4, 4),
                Label::BOTTOM,
            )
            .unwrap_err();
        assert_eq!(err, FsError::NameTaken("a".into()));
    }

    #[test]
    fn labels_must_dominate_parent() {
        let mut fs = FileSystem::new(&admin());
        let secret = Label::new(Level::SECRET, Compartments::NONE);
        let sdir = fs
            .create_directory(FileSystem::ROOT, "secret", &admin(), secret)
            .unwrap();
        // Creating an UNCLASSIFIED branch under a SECRET directory: refused.
        let err = fs
            .create_segment(
                sdir,
                "leak",
                &admin(),
                Acl::empty(),
                RingBrackets::new(4, 4, 4),
                Label::BOTTOM,
            )
            .unwrap_err();
        assert_eq!(err, FsError::LabelIncompatible);
        // An equal or higher label is fine.
        assert!(fs
            .create_segment(
                sdir,
                "ok",
                &admin(),
                Acl::empty(),
                RingBrackets::new(4, 4, 4),
                secret
            )
            .is_ok());
    }

    #[test]
    fn delete_requires_modify_and_empty_directories() {
        let (mut fs, udd) = fs_with_udd();
        let sub = fs
            .create_directory(udd, "sub", &jones(), Label::BOTTOM)
            .unwrap();
        fs.create_segment(
            sub,
            "inner",
            &jones(),
            Acl::empty(),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap();
        // Jones has only SA on udd: no 'm'.
        assert_eq!(
            fs.delete_branch(udd, "sub", &jones()).unwrap_err(),
            FsError::NoPermission { needed: 'm' }
        );
        // Admin lacks access on udd? Admin created root only; give admin m.
        let node = fs.nodes.get_mut(&udd).unwrap();
        node.acl.add("Admin.SysAdmin.a", DirMode::SMA);
        assert_eq!(
            fs.delete_branch(udd, "sub", &admin()).unwrap_err(),
            FsError::NotEmpty("sub".into())
        );
        // Empty it (Jones owns sub), then delete works.
        fs.delete_branch(sub, "inner", &jones()).unwrap();
        assert!(fs.delete_branch(udd, "sub", &admin()).is_ok());
        assert!(!fs.is_directory(sub));
    }

    #[test]
    fn added_names_resolve_and_last_name_is_protected() {
        let (mut fs, udd) = fs_with_udd();
        let sub = fs
            .create_directory(udd, "sub", &jones(), Label::BOTTOM)
            .unwrap();
        fs.create_segment(
            sub,
            "prog",
            &jones(),
            Acl::empty(),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap();
        fs.add_name(sub, "prog", "p", &jones()).unwrap();
        assert!(fs.peek_branch(sub, "p").is_some());
        fs.remove_name(sub, "p", &jones()).unwrap();
        assert_eq!(
            fs.remove_name(sub, "prog", &jones()).unwrap_err(),
            FsError::LastName
        );
    }

    #[test]
    fn set_acl_needs_modify_on_directory() {
        let (mut fs, udd) = fs_with_udd();
        fs.create_segment(
            udd,
            "s",
            &jones(),
            Acl::empty(),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap();
        let err = fs
            .set_segment_acl(udd, "s", &jones(), Acl::of("*.*.*", AclMode::R))
            .unwrap_err();
        assert_eq!(err, FsError::NoPermission { needed: 'm' });
    }

    #[test]
    fn list_requires_status() {
        let (mut fs, udd) = fs_with_udd();
        let sub = fs
            .create_directory(udd, "sub", &jones(), Label::BOTTOM)
            .unwrap();
        // Admin has no entry on sub's ACL.
        assert_eq!(
            fs.list(sub, &admin()).unwrap_err(),
            FsError::NoPermission { needed: 's' }
        );
        assert_eq!(fs.list(sub, &jones()).unwrap().len(), 0);
    }

    #[test]
    fn note_segment_length_updates_branch() {
        let (mut fs, udd) = fs_with_udd();
        let uid = fs
            .create_segment(
                udd,
                "s",
                &jones(),
                Acl::empty(),
                RingBrackets::new(4, 4, 4),
                Label::BOTTOM,
            )
            .unwrap();
        fs.note_segment_length(uid, 2048);
        match &fs.peek_branch(udd, "s").unwrap().kind {
            BranchKind::Segment { len_words, .. } => assert_eq!(*len_words, 2048),
            _ => panic!("expected segment"),
        }
    }
}
