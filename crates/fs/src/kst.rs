//! The Known Segment Table, in both configurations.
//!
//! A process refers to segments by small per-process *segment numbers*; the
//! KST records what each number means. The paper reports on Bratt's removal
//! project \[14\]: the monolithic KST was "split into a private and a common
//! part", reference-name management left the supervisor, directories became
//! nameable by segment number, "and ... the supervisor learn\[ed\] to lie
//! convincingly on occasion about the existence of certain file system
//! directories". Result: "a reduction by a factor of ten in the size of the
//! protected code needed to manage the address space" (experiment E2).
//!
//! * [`crate::kst_legacy::LegacyKst`] is the pre-removal supervisor object:
//!   segment numbers, pathnames, *and* reference names, all maintained in
//!   ring 0, with pathname resolution done inside the supervisor.
//! * [`KernelKst`] (this module) is the post-removal kernel part: nothing
//!   but the segno↔uid binding (plus the directory flag and the "lie"
//!   machinery). Reference names live in the user ring
//!   (`mks-linker::refname`), and pathname resolution is the user-ring loop
//!   in [`crate::pathres`].
//!
//! The two modules live in separate source files on purpose: the E2 size
//! audit weighs each configuration's protected code by measuring its file.

use mks_hw::{SegNo, SegUid};
use mks_trace::{EventKind, Layer, TraceHandle};

use crate::hierarchy::FileSystem;

/// One kernel KST entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KstEntry {
    /// The bound unique id. For a *phantom* entry this is a reserved id
    /// that names nothing.
    pub uid: SegUid,
    /// Whether the entry is (claimed to be) a directory.
    pub is_dir: bool,
    /// A phantom entry: the "convincing lie". The kernel mints these when a
    /// traversal names a directory that does not exist **or** that the
    /// caller may not know about, so the two cases are indistinguishable
    /// from the user ring.
    pub phantom: bool,
}

/// The post-removal kernel KST: minimal protected address-space state.
#[derive(Debug, Default)]
pub struct KernelKst {
    by_segno: mks_trace::digest::IdMap<SegNo, KstEntry>,
    by_uid: mks_trace::digest::IdMap<SegUid, SegNo>,
    next_segno: u16,
    free_segnos: Vec<u16>,
    next_phantom_uid: u64,
    trace: Option<TraceHandle>,
}

/// First segment number handed to user-initiated segments (lower numbers
/// are reserved for supervisor segments).
pub const FIRST_USER_SEGNO: u16 = 64;

/// Phantom uids live in a reserved band that real uids never use.
const PHANTOM_UID_BASE: u64 = 1 << 48;

impl KernelKst {
    /// Creates an empty KST.
    pub fn new() -> KernelKst {
        KernelKst {
            by_segno: Default::default(),
            by_uid: Default::default(),
            next_segno: FIRST_USER_SEGNO,
            free_segnos: Vec::new(),
            next_phantom_uid: PHANTOM_UID_BASE,
            trace: None,
        }
    }

    /// Connects the KST to the kernel flight recorder so lookups are
    /// counted and logged.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Segment numbers freed by `terminate` are reused before the counter
    /// advances — a process's address space is bounded by its *live*
    /// segments, not by how many it has ever initiated.
    fn alloc_segno(&mut self) -> SegNo {
        if let Some(s) = self.free_segnos.pop() {
            return SegNo(s);
        }
        assert!(self.next_segno != u16::MAX, "address space exhausted");
        let s = SegNo(self.next_segno);
        self.next_segno += 1;
        s
    }

    /// Binds `uid` to a segment number (idempotent: re-binding an already
    /// known uid returns the existing number — Multics `initiate` behaviour).
    pub fn bind(&mut self, uid: SegUid, is_dir: bool) -> SegNo {
        if let Some(s) = self.by_uid.get(&uid) {
            return *s;
        }
        let s = self.alloc_segno();
        self.by_segno.insert(
            s,
            KstEntry {
                uid,
                is_dir,
                phantom: false,
            },
        );
        self.by_uid.insert(uid, s);
        s
    }

    /// Mints a phantom entry (the lie). Each phantom gets its own fake uid
    /// so distinct lies stay distinct.
    pub fn bind_phantom(&mut self, is_dir: bool) -> SegNo {
        let uid = SegUid(self.next_phantom_uid);
        self.next_phantom_uid += 1;
        let s = self.alloc_segno();
        self.by_segno.insert(
            s,
            KstEntry {
                uid,
                is_dir,
                phantom: true,
            },
        );
        self.by_uid.insert(uid, s);
        s
    }

    /// Looks up a segment number.
    pub fn entry(&self, segno: SegNo) -> Option<KstEntry> {
        let hit = self.by_segno.get(&segno).copied();
        if let Some(t) = &self.trace {
            t.counter_add("fs.kst_lookups", 1);
            t.observe_quantile(
                "q.fs.kst_occupancy.all",
                self.by_segno.len() as u64,
                None,
                "kst lookup",
            );
            t.event(
                Layer::Fs,
                EventKind::KstLookup,
                format!(
                    "segno {} {}",
                    segno.0,
                    if hit.is_some() { "hit" } else { "miss" }
                ),
            );
        }
        hit
    }

    /// Finds the segment number bound to `uid`, if any.
    pub fn segno_of(&self, uid: SegUid) -> Option<SegNo> {
        self.by_uid.get(&uid).copied()
    }

    /// Unbinds a segment number (`terminate`). Returns the old entry.
    pub fn unbind(&mut self, segno: SegNo) -> Option<KstEntry> {
        let e = self.by_segno.remove(&segno)?;
        self.by_uid.remove(&e.uid);
        self.free_segnos.push(segno.0);
        Some(e)
    }

    /// Number of live bindings (including phantoms).
    pub fn len(&self) -> usize {
        self.by_segno.len()
    }

    /// True when no bindings exist.
    pub fn is_empty(&self) -> bool {
        self.by_segno.is_empty()
    }
}

/// Kernel service: initiate the directory called `name` inside the
/// directory bound to `dir_segno`.
///
/// This is the *entire* kernel surface needed for user-ring pathname
/// resolution. Traversal needs no permission on intermediate directories
/// (Multics allowed pass-through), but existence must not leak: when the
/// entry is missing, is not a directory, or is otherwise not the caller's
/// business, the kernel **lies** — it returns a fresh phantom segment
/// number exactly as if the directory existed. Errors surface only later,
/// when the caller tries to *use* the result, by which point no information
/// about the intermediate component has been disclosed.
pub fn kernel_initiate_dir(
    fs: &FileSystem,
    kst: &mut KernelKst,
    dir_segno: SegNo,
    name: &str,
) -> SegNo {
    let Some(dir_entry) = kst.entry(dir_segno) else {
        // Caller passed garbage; even that gets a phantom, not an oracle.
        return kst.bind_phantom(true);
    };
    if dir_entry.phantom || !dir_entry.is_dir {
        return kst.bind_phantom(true);
    }
    match fs.peek_branch(dir_entry.uid, name) {
        Some(branch) if branch.is_dir() => kst.bind(branch.uid, true),
        _ => kst.bind_phantom(true),
    }
}

/// Binds the root directory into a fresh KST (done once at process
/// creation; the root is world-knowable).
pub fn bind_root(kst: &mut KernelKst) -> SegNo {
    kst.bind(FileSystem::ROOT, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{Acl, UserId};
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
            Acl::of("*.*.*", crate::acl::AclMode::R),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap();
        fs
    }

    #[test]
    fn bind_is_idempotent() {
        let mut kst = KernelKst::new();
        let a = kst.bind(SegUid(5), false);
        let b = kst.bind(SegUid(5), false);
        assert_eq!(a, b);
        assert_eq!(kst.len(), 1);
    }

    #[test]
    fn unbind_releases_both_maps_and_recycles_the_number() {
        let mut kst = KernelKst::new();
        let s = kst.bind(SegUid(5), false);
        assert!(kst.unbind(s).is_some());
        assert!(kst.entry(s).is_none());
        assert!(kst.segno_of(SegUid(5)).is_none());
        assert!(kst.is_empty());
        // The freed number is reused, so long-lived processes cannot
        // exhaust their address space by initiate/terminate cycling.
        let s2 = kst.bind(SegUid(6), false);
        assert_eq!(s, s2);
    }

    #[test]
    fn initiate_dir_binds_real_directories() {
        let fs = sample_fs();
        let mut kst = KernelKst::new();
        let root = bind_root(&mut kst);
        let udd = kernel_initiate_dir(&fs, &mut kst, root, "udd");
        let e = kst.entry(udd).unwrap();
        assert!(!e.phantom && e.is_dir);
    }

    #[test]
    fn missing_directories_get_convincing_lies() {
        let fs = sample_fs();
        let mut kst = KernelKst::new();
        let root = bind_root(&mut kst);
        let real = kernel_initiate_dir(&fs, &mut kst, root, "udd");
        let fake = kernel_initiate_dir(&fs, &mut kst, root, "no_such_dir");
        // The caller gets a plausible segment number either way…
        assert!(kst.entry(fake).is_some());
        // …and from the user-ring API surface the two are indistinguishable
        // (both are valid segnos; only the kernel-side entry knows).
        assert_ne!(real, fake);
        assert!(kst.entry(fake).unwrap().phantom);
        // Walking *through* a lie keeps lying rather than erroring.
        let deeper = kernel_initiate_dir(&fs, &mut kst, fake, "anything");
        assert!(kst.entry(deeper).unwrap().phantom);
    }

    #[test]
    fn non_directory_components_also_get_lies() {
        let fs = sample_fs();
        let mut kst = KernelKst::new();
        let root = bind_root(&mut kst);
        let udd = kernel_initiate_dir(&fs, &mut kst, root, "udd");
        let csr = kernel_initiate_dir(&fs, &mut kst, udd, "CSR");
        // "notes" is a segment, not a directory: traversal lies.
        let fake = kernel_initiate_dir(&fs, &mut kst, csr, "notes");
        assert!(kst.entry(fake).unwrap().phantom);
    }

    #[test]
    fn distinct_lies_are_distinct() {
        let fs = sample_fs();
        let mut kst = KernelKst::new();
        let root = bind_root(&mut kst);
        let a = kernel_initiate_dir(&fs, &mut kst, root, "ghost_a");
        let b = kernel_initiate_dir(&fs, &mut kst, root, "ghost_b");
        assert_ne!(a, b);
        assert_ne!(kst.entry(a).unwrap().uid, kst.entry(b).unwrap().uid);
    }
}
