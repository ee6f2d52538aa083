//! The pre-removal, monolithic Known Segment Table: everything in ring 0.
//!
//! This is the supervisor object Bratt's project dismantled. Besides the
//! segno↔uid binding (the only part the kernel configuration keeps, see
//! [`crate::kst`]), the legacy KST maintained — *inside the protection
//! boundary, behind its own gates* —
//!
//! * full **pathname resolution**: `initiate` took a character-string tree
//!   name and the supervisor walked the hierarchy itself;
//! * a per-segment **pathname cache** with invalidation on rename/delete;
//! * per-ring **reference-name tables**;
//! * the **working-directory** state and the search machinery that used it;
//! * **inferior tracking** (which initiated segments live under which
//!   initiated directory), needed so the supervisor could respond to
//!   `terminate`-subtree and detect directory reuse.
//!
//! Every line of this file is certification surface in the legacy
//! configuration. The E2 experiment weighs this file against `kst.rs`.

use std::collections::HashMap;

use mks_hw::{RingNo, SegNo, SegUid, NR_RINGS};

use crate::hierarchy::{Branch, FileSystem};
use crate::kst::{KernelKst, KstEntry};

/// Legacy `initiate`-family errors. Note how much they *reveal*: unlike the
/// kernel configuration's phantoms, the legacy error distinguishes missing
/// components from permission problems — an existence oracle the removal
/// closed as a side effect.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LegacyKstError {
    /// A pathname component does not exist.
    NoEntry(String),
    /// A mid-path component exists but is not a directory.
    NotADirectory(String),
    /// The pathname is syntactically bad.
    BadPath(String),
    /// The segment number is unknown.
    UnknownSegno(SegNo),
    /// The reference name is unknown.
    UnknownRefname(String),
}

impl core::fmt::Display for LegacyKstError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LegacyKstError::NoEntry(p) => write!(f, "no entry: {p}"),
            LegacyKstError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            LegacyKstError::BadPath(p) => write!(f, "bad pathname: {p}"),
            LegacyKstError::UnknownSegno(s) => write!(f, "unknown segment number {s:?}"),
            LegacyKstError::UnknownRefname(n) => write!(f, "unknown reference name {n}"),
        }
    }
}

impl std::error::Error for LegacyKstError {}

/// Per-segment bookkeeping the legacy supervisor kept beyond the binding.
#[derive(Clone, Debug, Default)]
struct LegacyMeta {
    /// Canonical pathname as resolved at initiate time.
    path: String,
    /// Directory (by uid) this entry was found in.
    parent_uid: Option<SegUid>,
    /// Reference names bound to this segno, per ring (back-pointers for
    /// terminate).
    names_by_ring: Vec<Vec<String>>,
}

/// The monolithic KST.
#[derive(Debug)]
pub struct LegacyKst {
    /// The binding core (identical machinery to the kernel configuration).
    pub core: KernelKst,
    meta: mks_trace::digest::IdMap<SegNo, LegacyMeta>,
    /// Per-ring reference-name tables, in supervisor storage.
    refnames: Vec<HashMap<String, SegNo>>,
    /// Pathname → segno cache, invalidated on rename/delete.
    path_cache: HashMap<String, SegNo>,
    /// Working directory per ring.
    wdirs: Vec<String>,
    /// Inferior tracking: directory uid → segnos initiated beneath it.
    inferiors: mks_trace::digest::IdMap<SegUid, Vec<SegNo>>,
    /// Gate-call counters (the legacy KST kept metering too).
    calls: u64,
}

impl Default for LegacyKst {
    fn default() -> LegacyKst {
        LegacyKst::new()
    }
}

impl LegacyKst {
    /// Creates an empty legacy KST with every ring's working directory at
    /// the root.
    pub fn new() -> LegacyKst {
        LegacyKst {
            core: KernelKst::new(),
            meta: Default::default(),
            refnames: (0..NR_RINGS).map(|_| HashMap::new()).collect(),
            path_cache: HashMap::new(),
            wdirs: (0..NR_RINGS).map(|_| ">".to_string()).collect(),
            inferiors: Default::default(),
            calls: 0,
        }
    }

    fn split_path(path: &str) -> Result<Vec<&str>, LegacyKstError> {
        if !path.starts_with('>') {
            return Err(LegacyKstError::BadPath(path.to_string()));
        }
        let comps: Vec<&str> = path.split('>').filter(|c| !c.is_empty()).collect();
        if comps.is_empty() {
            return Err(LegacyKstError::BadPath(path.to_string()));
        }
        Ok(comps)
    }

    fn walk<'fs>(
        &self,
        fs: &'fs FileSystem,
        comps: &[&str],
    ) -> Result<(SegUid, &'fs Branch), LegacyKstError> {
        let (leaf, dirs) = comps.split_last().expect("validated non-empty");
        let mut dir = FileSystem::ROOT;
        let mut walked = String::new();
        for c in dirs {
            walked.push('>');
            walked.push_str(c);
            let b = fs
                .peek_branch(dir, c)
                .ok_or_else(|| LegacyKstError::NoEntry(walked.clone()))?;
            if !b.is_dir() {
                return Err(LegacyKstError::NotADirectory(walked.clone()));
            }
            dir = b.uid;
        }
        let b = fs
            .peek_branch(dir, leaf)
            .ok_or_else(|| LegacyKstError::NoEntry(format!("{walked}>{leaf}")))?;
        Ok((dir, b))
    }

    /// The legacy `initiate_`: supervisor-side resolution of a full tree
    /// name, with pathname caching and inferior tracking, optionally
    /// binding `refname` in `ring`'s table.
    pub fn initiate_path(
        &mut self,
        fs: &FileSystem,
        path: &str,
        ring: RingNo,
        refname: Option<&str>,
    ) -> Result<SegNo, LegacyKstError> {
        self.calls += 1;
        let canonical = path.to_string();
        let segno = if let Some(hit) = self.path_cache.get(&canonical) {
            *hit
        } else {
            let comps = Self::split_path(path)?;
            let (parent, branch) = self.walk(fs, &comps)?;
            let segno = self.core.bind(branch.uid, branch.is_dir());
            let meta = self.meta.entry(segno).or_default();
            meta.path = canonical.clone();
            meta.parent_uid = Some(parent);
            if meta.names_by_ring.is_empty() {
                meta.names_by_ring = (0..NR_RINGS).map(|_| Vec::new()).collect();
            }
            self.path_cache.insert(canonical, segno);
            self.inferiors.entry(parent).or_default().push(segno);
            segno
        };
        if let Some(name) = refname {
            self.set_refname(ring, name, segno)?;
        }
        Ok(segno)
    }

    /// The legacy relative initiate: resolves against `ring`'s working
    /// directory.
    pub fn initiate_relative(
        &mut self,
        fs: &FileSystem,
        rel: &str,
        ring: RingNo,
        refname: Option<&str>,
    ) -> Result<SegNo, LegacyKstError> {
        let base = self.wdirs[ring as usize].clone();
        let path = if base == ">" {
            format!(">{rel}")
        } else {
            format!("{base}>{rel}")
        };
        self.initiate_path(fs, &path, ring, refname)
    }

    /// Gate: set `ring`'s working directory (resolving and checking it).
    pub fn set_wdir(
        &mut self,
        fs: &FileSystem,
        ring: RingNo,
        path: &str,
    ) -> Result<(), LegacyKstError> {
        self.calls += 1;
        let comps = Self::split_path(path)?;
        let (_, branch) = self.walk(fs, &comps)?;
        if !branch.is_dir() {
            return Err(LegacyKstError::NotADirectory(path.to_string()));
        }
        self.wdirs[ring as usize] = path.to_string();
        Ok(())
    }

    /// Gate: read `ring`'s working directory.
    pub fn get_wdir(&self, ring: RingNo) -> &str {
        &self.wdirs[ring as usize]
    }

    /// Gate: bind a reference name in supervisor storage.
    pub fn set_refname(
        &mut self,
        ring: RingNo,
        name: &str,
        segno: SegNo,
    ) -> Result<(), LegacyKstError> {
        self.calls += 1;
        if self.core.entry(segno).is_none() {
            return Err(LegacyKstError::UnknownSegno(segno));
        }
        self.refnames[ring as usize].insert(name.to_string(), segno);
        if let Some(meta) = self.meta.get_mut(&segno) {
            if meta.names_by_ring.is_empty() {
                meta.names_by_ring = (0..NR_RINGS).map(|_| Vec::new()).collect();
            }
            meta.names_by_ring[ring as usize].push(name.to_string());
        }
        Ok(())
    }

    /// Gate: resolve a reference name.
    pub fn refname(&self, ring: RingNo, name: &str) -> Result<SegNo, LegacyKstError> {
        self.refnames[ring as usize]
            .get(name)
            .copied()
            .ok_or_else(|| LegacyKstError::UnknownRefname(name.to_string()))
    }

    /// Gate: terminate by reference name — drops the name and, if it was
    /// the segment's last name in every ring, unbinds the segment.
    pub fn terminate_refname(&mut self, ring: RingNo, name: &str) -> Result<(), LegacyKstError> {
        self.calls += 1;
        let segno = self.refnames[ring as usize]
            .remove(name)
            .ok_or_else(|| LegacyKstError::UnknownRefname(name.to_string()))?;
        if let Some(meta) = self.meta.get_mut(&segno) {
            meta.names_by_ring[ring as usize].retain(|n| n != name);
            let any_left = meta.names_by_ring.iter().any(|v| !v.is_empty());
            if !any_left {
                self.terminate_segno(segno)?;
            }
        }
        Ok(())
    }

    /// Gate: terminate a segment number outright, clearing names, cache,
    /// and inferior tracking.
    pub fn terminate_segno(&mut self, segno: SegNo) -> Result<(), LegacyKstError> {
        self.calls += 1;
        if self.core.unbind(segno).is_none() {
            return Err(LegacyKstError::UnknownSegno(segno));
        }
        if let Some(meta) = self.meta.remove(&segno) {
            self.path_cache.remove(&meta.path);
            if let Some(parent) = meta.parent_uid {
                if let Some(list) = self.inferiors.get_mut(&parent) {
                    list.retain(|s| *s != segno);
                }
            }
        }
        for t in &mut self.refnames {
            t.retain(|_, s| *s != segno);
        }
        Ok(())
    }

    /// Gate: the pathname the supervisor recorded for `segno` (the legacy
    /// `fs_get_path_name`).
    pub fn path_of(&self, segno: SegNo) -> Result<&str, LegacyKstError> {
        self.meta
            .get(&segno)
            .map(|m| m.path.as_str())
            .ok_or(LegacyKstError::UnknownSegno(segno))
    }

    /// Invalidate cached state under a renamed/deleted directory entry
    /// (the supervisor had to hook every hierarchy mutation for this).
    pub fn invalidate_path(&mut self, path_prefix: &str) {
        let stale: Vec<String> = self
            .path_cache
            .keys()
            .filter(|p| p.starts_with(path_prefix))
            .cloned()
            .collect();
        for p in stale {
            self.path_cache.remove(&p);
        }
    }

    /// Gate: segnos initiated beneath the directory with `uid`.
    pub fn inferiors_of(&self, uid: SegUid) -> &[SegNo] {
        self.inferiors.get(&uid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Reference names currently in supervisor storage (E2 metric).
    pub fn nr_refnames(&self) -> usize {
        self.refnames.iter().map(HashMap::len).sum()
    }

    /// Gate calls serviced.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Look up an entry in the shared binding core.
    pub fn entry(&self, segno: SegNo) -> Option<KstEntry> {
        self.core.entry(segno)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{Acl, AclMode, UserId};
    use mks_hw::RingBrackets;
    use mks_mls::Label;

    fn admin() -> UserId {
        UserId::new("Admin", "SysAdmin", "a")
    }

    fn sample_fs() -> FileSystem {
        let mut fs = FileSystem::new(&admin());
        let udd = fs
            .create_directory(FileSystem::ROOT, "udd", &admin(), Label::BOTTOM)
            .unwrap();
        let csr = fs
            .create_directory(udd, "CSR", &admin(), Label::BOTTOM)
            .unwrap();
        fs.create_segment(
            csr,
            "notes",
            &admin(),
            Acl::of("*.*.*", AclMode::R),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap();
        fs
    }

    #[test]
    fn initiate_resolves_paths_in_ring0() {
        let fs = sample_fs();
        let mut kst = LegacyKst::new();
        let s = kst.initiate_path(&fs, ">udd>CSR>notes", 4, None).unwrap();
        assert_eq!(kst.path_of(s).unwrap(), ">udd>CSR>notes");
    }

    #[test]
    fn errors_leak_existence_information() {
        let fs = sample_fs();
        let mut kst = LegacyKst::new();
        // The two failures are distinguishable — the oracle the kernel
        // configuration's phantoms close.
        let missing = kst
            .initiate_path(&fs, ">udd>Nowhere>x", 4, None)
            .unwrap_err();
        let notdir = kst
            .initiate_path(&fs, ">udd>CSR>notes>x", 4, None)
            .unwrap_err();
        assert!(matches!(missing, LegacyKstError::NoEntry(_)));
        assert!(matches!(notdir, LegacyKstError::NotADirectory(_)));
    }

    #[test]
    fn path_cache_hits_skip_the_walk() {
        let fs = sample_fs();
        let mut kst = LegacyKst::new();
        let a = kst.initiate_path(&fs, ">udd>CSR>notes", 4, None).unwrap();
        let b = kst.initiate_path(&fs, ">udd>CSR>notes", 4, None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn refnames_are_supervisor_state_with_backpointers() {
        let fs = sample_fs();
        let mut kst = LegacyKst::new();
        let s = kst
            .initiate_path(&fs, ">udd>CSR>notes", 4, Some("notes_"))
            .unwrap();
        assert_eq!(kst.refname(4, "notes_").unwrap(), s);
        assert_eq!(kst.nr_refnames(), 1);
        // Terminating the last refname unbinds the segment entirely.
        kst.terminate_refname(4, "notes_").unwrap();
        assert!(kst.entry(s).is_none());
        assert_eq!(kst.nr_refnames(), 0);
    }

    #[test]
    fn working_directories_are_per_ring_supervisor_state() {
        let fs = sample_fs();
        let mut kst = LegacyKst::new();
        kst.set_wdir(&fs, 4, ">udd>CSR").unwrap();
        assert_eq!(kst.get_wdir(4), ">udd>CSR");
        assert_eq!(kst.get_wdir(1), ">", "other rings unaffected");
        let s = kst.initiate_relative(&fs, "notes", 4, None).unwrap();
        assert_eq!(kst.path_of(s).unwrap(), ">udd>CSR>notes");
        assert!(matches!(
            kst.set_wdir(&fs, 4, ">udd>CSR>notes"),
            Err(LegacyKstError::NotADirectory(_))
        ));
    }

    #[test]
    fn terminate_segno_clears_everything() {
        let fs = sample_fs();
        let mut kst = LegacyKst::new();
        let s = kst
            .initiate_path(&fs, ">udd>CSR>notes", 4, Some("n1"))
            .unwrap();
        kst.set_refname(2, "n2", s).unwrap();
        kst.terminate_segno(s).unwrap();
        assert!(kst.entry(s).is_none());
        assert_eq!(kst.nr_refnames(), 0);
        assert!(matches!(
            kst.path_of(s),
            Err(LegacyKstError::UnknownSegno(_))
        ));
        // A re-initiate must re-walk (cache was invalidated) and rebind.
        let s2 = kst.initiate_path(&fs, ">udd>CSR>notes", 4, None).unwrap();
        assert!(kst.entry(s2).is_some());
    }

    #[test]
    fn rename_invalidation_drops_stale_cache() {
        let fs = sample_fs();
        let mut kst = LegacyKst::new();
        kst.initiate_path(&fs, ">udd>CSR>notes", 4, None).unwrap();
        kst.invalidate_path(">udd>CSR");
        // Cache is cold again, but the walk still succeeds (fs unchanged).
        assert!(kst.initiate_path(&fs, ">udd>CSR>notes", 4, None).is_ok());
    }

    #[test]
    fn inferior_tracking_follows_initiations() {
        let fs = sample_fs();
        let mut kst = LegacyKst::new();
        let s = kst.initiate_path(&fs, ">udd>CSR>notes", 4, None).unwrap();
        // The parent of notes is CSR; find CSR's uid via the fs.
        let udd = fs.peek_branch(FileSystem::ROOT, "udd").unwrap().uid;
        let csr = fs.peek_branch(udd, "CSR").unwrap().uid;
        assert_eq!(kst.inferiors_of(csr), &[s]);
    }

    #[test]
    fn bad_refname_and_segno_are_reported() {
        let mut kst = LegacyKst::new();
        assert!(matches!(
            kst.refname(4, "x"),
            Err(LegacyKstError::UnknownRefname(_))
        ));
        assert!(matches!(
            kst.set_refname(4, "x", SegNo(99)),
            Err(LegacyKstError::UnknownSegno(_))
        ));
        assert!(matches!(
            kst.terminate_segno(SegNo(99)),
            Err(LegacyKstError::UnknownSegno(_))
        ));
    }
}
