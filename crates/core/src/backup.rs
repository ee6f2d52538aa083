//! Backup: dumping the hierarchy to tape and restoring it.
//!
//! The paper keeps backup among the kernel's *internal* I/O even after the
//! device zoo leaves ("Internal I/O functions (for managing the virtual
//! memory, performing backup, and loading the system) would still be
//! managed in the kernel"). This module implements a complete
//! dump/restore cycle: the hierarchy's directories, branches, ACLs,
//! labels, quotas and every segment's page contents stream to a
//! [`mks_io::devices::tape::TapeDim`] as tagged records; restore
//! rebuilds an equivalent hierarchy in a fresh world.
//!
//! Record format (each record is a byte vector on tape):
//! `D <path> <label>` for a directory, `S <path> <label> <acl…>` followed
//! by one `P <page#> <data…>` record per nonzero page, and a final file
//! mark.

use mks_fs::{Acl, AclMode, BranchKind, FileSystem, UserId};
use mks_hw::{RingBrackets, SegUid, Word, PAGE_WORDS};
use mks_io::devices::tape::TapeDim;
use mks_io::devices::{Device, DeviceOp, DeviceResult};
use mks_mls::{Compartments, Label, Level};
use mks_vm::{mechanism, SegControl, VmWorld};

/// Backup/restore failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BackupError {
    /// The tape refused an operation.
    Tape(&'static str),
    /// A record on the tape is malformed.
    BadRecord(String),
    /// The restore target already has a conflicting entry.
    Conflict(String),
}

impl core::fmt::Display for BackupError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BackupError::Tape(e) => write!(f, "tape: {e}"),
            BackupError::BadRecord(r) => write!(f, "bad tape record: {r}"),
            BackupError::Conflict(p) => write!(f, "restore conflict at {p}"),
        }
    }
}

impl std::error::Error for BackupError {}

fn encode_label(l: &Label) -> String {
    format!("{}:{}", l.level.0, l.compartments.0)
}

fn decode_label(s: &str) -> Option<Label> {
    let (lvl, comps) = s.split_once(':')?;
    Some(Label::new(
        Level(lvl.parse().ok()?),
        Compartments(comps.parse().ok()?),
    ))
}

fn encode_acl(acl: &Acl<AclMode>) -> String {
    acl.entries()
        .iter()
        .map(|e| format!("{}.{}.{}={}", e.person, e.project, e.tag, e.mode))
        .collect::<Vec<_>>()
        .join(",")
}

fn decode_acl(s: &str) -> Option<Acl<AclMode>> {
    let mut acl = Acl::empty();
    if s.is_empty() {
        return Some(acl);
    }
    for part in s.split(',') {
        let (pat, mode) = part.split_once('=')?;
        acl.add(pat, AclMode::parse(mode)?);
    }
    Some(acl)
}

fn write_record(tape: &mut TapeDim, rec: String) -> Result<(), BackupError> {
    match tape.submit(DeviceOp::Write {
        data: rec.into_bytes(),
    }) {
        DeviceResult::Done => Ok(()),
        DeviceResult::Rejected(e) => Err(BackupError::Tape(e)),
        _ => Err(BackupError::Tape("unexpected tape answer")),
    }
}

/// Dumps the subtree rooted at `dir` (paths relative to it) onto `tape`,
/// pulling segment pages through page control as needed. Ends with a file
/// mark.
pub fn dump(
    fs: &FileSystem,
    vm: &mut VmWorld,
    dir: SegUid,
    tape: &mut TapeDim,
) -> Result<u32, BackupError> {
    let mut records = 0;
    dump_dir(fs, vm, dir, "", tape, &mut records)?;
    match tape.submit(DeviceOp::Control { order: "write_eof" }) {
        DeviceResult::Done => Ok(records),
        _ => Err(BackupError::Tape("eof refused")),
    }
}

fn ensure_resident(vm: &mut VmWorld, uid: SegUid, page: usize) -> Option<mks_hw::FrameId> {
    let astx = vm.machine.ast.find(uid)?;
    if page >= vm.machine.ast.entry(astx).pt.nr_pages() {
        return None;
    }
    if let mks_hw::ast::PageState::InCore(f) = vm.machine.ast.entry(astx).pt.ptw(page).state {
        return Some(f);
    }
    while vm.nr_free_frames() == 0 {
        let usage = mechanism::usage_stats(vm);
        let v = *usage.first()?;
        if mechanism::evict_to_bulk(vm, v.uid, v.page).is_err() {
            let oldest = vm.bulk.oldest()?;
            mechanism::evict_bulk_to_disk(vm, oldest).ok()?;
        }
    }
    mechanism::load_page(vm, uid, page).ok()
}

fn dump_dir(
    fs: &FileSystem,
    vm: &mut VmWorld,
    dir: SegUid,
    prefix: &str,
    tape: &mut TapeDim,
    records: &mut u32,
) -> Result<(), BackupError> {
    // Walk entries via the unchecked interface: backup is a kernel daemon.
    let branches: Vec<_> = {
        // find names by peeking through the hierarchy: reuse find_by_uid
        // style iteration via list on known structure.
        let mut v = Vec::new();
        // FileSystem has no public "children of uid" other than list(),
        // which checks ACLs; backup runs as kernel, so walk via peek by
        // collecting names from the node through the audit-safe route:
        // iterate all branches and keep those whose parent is `dir`.
        for name in fs.child_names(dir) {
            v.push(name);
        }
        v
    };
    for name in branches {
        let branch = fs.peek_branch(dir, &name).expect("listed name exists");
        let path = format!("{prefix}>{name}");
        match &branch.kind {
            BranchKind::Directory { .. } => {
                write_record(tape, format!("D {path} {}", encode_label(&branch.label)))?;
                *records += 1;
                dump_dir(fs, vm, branch.uid, &path, tape, records)?;
            }
            BranchKind::Segment { acl, len_words, .. } => {
                write_record(
                    tape,
                    format!(
                        "S {path} {} {} {}",
                        encode_label(&branch.label),
                        len_words,
                        encode_acl(acl)
                    ),
                )?;
                *records += 1;
                // Dump nonzero pages.
                let uid = branch.uid;
                SegControl::activate(vm, uid, (*len_words).max(PAGE_WORDS));
                let pages = len_words.div_ceil(PAGE_WORDS);
                for p in 0..pages.max(1) {
                    let Some(frame) = ensure_resident(vm, uid, p) else {
                        continue;
                    };
                    let mut bytes = Vec::with_capacity(PAGE_WORDS * 8);
                    let mut nonzero = false;
                    for off in 0..PAGE_WORDS {
                        let w = vm.machine.mem.read(frame, off).raw();
                        if w != 0 {
                            nonzero = true;
                        }
                        bytes.extend_from_slice(&w.to_be_bytes());
                    }
                    if nonzero {
                        let mut rec = format!("P {p} ").into_bytes();
                        rec.extend_from_slice(&bytes);
                        match tape.submit(DeviceOp::Write { data: rec }) {
                            DeviceResult::Done => *records += 1,
                            DeviceResult::Rejected(e) => return Err(BackupError::Tape(e)),
                            _ => return Err(BackupError::Tape("unexpected answer")),
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// A uid-independent digest of the subtree rooted at `dir`: sorted
/// paths, branch kind, label, ACL entries, segment length and every
/// nonzero page's contents. Ring brackets and quotas are *excluded* —
/// the tape format does not carry them (restore rebuilds user-ring
/// brackets and default quotas), so this digest captures exactly the
/// equivalence a dump/restore cycle preserves. Two worlds with equal
/// hierarchy digests hold the same protected information under the
/// same labels and ACLs, whatever uids and residency they use.
#[cfg(test)]
fn hierarchy_digest(fs: &FileSystem, vm: &mut VmWorld, dir: SegUid) -> u64 {
    let mut canon = String::new();
    digest_dir(fs, vm, dir, "", &mut canon);
    mks_hw::fnv64(canon.as_bytes())
}

#[cfg(test)]
fn digest_dir(fs: &FileSystem, vm: &mut VmWorld, dir: SegUid, prefix: &str, out: &mut String) {
    let mut names = fs.child_names(dir);
    names.sort();
    for name in names {
        let branch = fs.peek_branch(dir, &name).expect("listed name exists");
        let path = format!("{prefix}>{name}");
        match &branch.kind {
            BranchKind::Directory { .. } => {
                out.push_str(&format!("D {path} {}\n", encode_label(&branch.label)));
                digest_dir(fs, vm, branch.uid, &path, out);
            }
            BranchKind::Segment { acl, len_words, .. } => {
                out.push_str(&format!(
                    "S {path} {} {} {}\n",
                    encode_label(&branch.label),
                    len_words,
                    encode_acl(acl)
                ));
                let uid = branch.uid;
                SegControl::activate(vm, uid, (*len_words).max(PAGE_WORDS));
                let pages = len_words.div_ceil(PAGE_WORDS);
                for p in 0..pages.max(1) {
                    let Some(frame) = ensure_resident(vm, uid, p) else {
                        continue;
                    };
                    let mut cells = String::new();
                    for off in 0..PAGE_WORDS {
                        let w = vm.machine.mem.read(frame, off).raw();
                        if w != 0 {
                            cells.push_str(&format!("{off}:{w:x} "));
                        }
                    }
                    if !cells.is_empty() {
                        out.push_str(&format!("P {path} {p} {cells}\n"));
                    }
                }
            }
        }
    }
}

/// Restores a dump into `fs`/`vm` under `target` (usually the root), as
/// `owner`. Returns the number of objects created.
pub fn restore(
    fs: &mut FileSystem,
    vm: &mut VmWorld,
    target: SegUid,
    tape: &mut TapeDim,
    owner: &UserId,
) -> Result<u32, BackupError> {
    let mut created = 0;
    let mut current_seg: Option<SegUid> = None;
    loop {
        let data = match tape.submit(DeviceOp::Read { count: 1 }) {
            DeviceResult::Data(d) if d.is_empty() => break, // file mark
            DeviceResult::Data(d) => d,
            DeviceResult::Rejected(_) => break, // end of tape
            _ => return Err(BackupError::Tape("unexpected answer")),
        };
        match data.first() {
            Some(b'D') | Some(b'S') => {
                let text = String::from_utf8(data.clone())
                    .map_err(|_| BackupError::BadRecord("non-utf8 header".into()))?;
                let mut parts = text.split_whitespace();
                let kind = parts.next().unwrap();
                let path = parts
                    .next()
                    .ok_or_else(|| BackupError::BadRecord(text.clone()))?;
                let label = decode_label(
                    parts
                        .next()
                        .ok_or_else(|| BackupError::BadRecord(text.clone()))?,
                )
                .ok_or_else(|| BackupError::BadRecord(text.clone()))?;
                // Resolve the parent under the target.
                let comps: Vec<&str> = path.split('>').filter(|c| !c.is_empty()).collect();
                let (leaf, dirs) = comps
                    .split_last()
                    .ok_or_else(|| BackupError::BadRecord(text.clone()))?;
                let mut dir = target;
                for c in dirs {
                    let b = fs
                        .peek_branch(dir, c)
                        .ok_or_else(|| BackupError::Conflict((*c).to_string()))?;
                    dir = b.uid;
                }
                if kind == "D" {
                    fs.create_directory(dir, leaf, owner, label)
                        .map_err(|_| BackupError::Conflict(path.to_string()))?;
                    created += 1;
                    current_seg = None;
                } else {
                    let len: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| BackupError::BadRecord(text.clone()))?;
                    let acl = decode_acl(parts.next().unwrap_or(""))
                        .ok_or_else(|| BackupError::BadRecord(text.clone()))?;
                    let uid = fs
                        .create_segment(dir, leaf, owner, acl, RingBrackets::new(4, 4, 4), label)
                        .map_err(|_| BackupError::Conflict(path.to_string()))?;
                    fs.note_segment_length(uid, len);
                    SegControl::activate(vm, uid, len.max(PAGE_WORDS));
                    created += 1;
                    current_seg = Some(uid);
                }
            }
            Some(b'P') => {
                let uid =
                    current_seg.ok_or_else(|| BackupError::BadRecord("orphan page".into()))?;
                // Parse "P <page#> " then 8-byte words.
                let sp1 = data
                    .iter()
                    .position(|b| *b == b' ')
                    .ok_or_else(|| BackupError::BadRecord("page header".into()))?;
                let sp2 = data[sp1 + 1..]
                    .iter()
                    .position(|b| *b == b' ')
                    .map(|i| i + sp1 + 1)
                    .ok_or_else(|| BackupError::BadRecord("page header".into()))?;
                let page: usize = std::str::from_utf8(&data[sp1 + 1..sp2])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| BackupError::BadRecord("page number".into()))?;
                let body = &data[sp2 + 1..];
                if body.len() != PAGE_WORDS * 8 {
                    return Err(BackupError::BadRecord("page body size".into()));
                }
                let frame = ensure_resident(vm, uid, page)
                    .ok_or_else(|| BackupError::BadRecord("page out of range".into()))?;
                for off in 0..PAGE_WORDS {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&body[off * 8..off * 8 + 8]);
                    vm.machine
                        .mem
                        .write(frame, off, Word::new(u64::from_be_bytes(b)));
                }
                let astx = vm.machine.ast.find(uid).expect("activated");
                vm.machine.ast.entry_mut(astx).pt.ptw_mut(page).modified = true;
            }
            _ => return Err(BackupError::BadRecord(format!("{data:?}"))),
        }
    }
    Ok(created)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mks_hw::{CpuModel, Machine};

    fn admin() -> UserId {
        UserId::new("Admin", "SysAdmin", "a")
    }

    fn build_world() -> (FileSystem, VmWorld, SegUid) {
        let mut fs = FileSystem::new(&admin());
        let mut vm = VmWorld::new(Machine::new(CpuModel::H6180, 8), 32);
        let udd = fs
            .create_directory(FileSystem::ROOT, "udd", &admin(), Label::BOTTOM)
            .unwrap();
        let proj = fs
            .create_directory(udd, "CSR", &admin(), Label::BOTTOM)
            .unwrap();
        let seg = fs
            .create_segment(
                proj,
                "data",
                &admin(),
                Acl::of("Jones.CSR.a", AclMode::RW),
                RingBrackets::new(4, 4, 4),
                Label::new(Level::CONFIDENTIAL, Compartments::NONE),
            )
            .unwrap();
        fs.note_segment_length(seg, 2 * PAGE_WORDS);
        SegControl::activate(&mut vm, seg, 2 * PAGE_WORDS);
        for p in 0..2 {
            let f = mechanism::load_page(&mut vm, seg, p).unwrap();
            for off in (0..PAGE_WORDS).step_by(31) {
                vm.machine
                    .mem
                    .write(f, off, Word::new((p * 1000 + off) as u64));
            }
            let astx = vm.machine.ast.find(seg).unwrap();
            vm.machine.ast.entry_mut(astx).pt.ptw_mut(p).modified = true;
        }
        (fs, vm, seg)
    }

    #[test]
    fn dump_restore_round_trips_structure_and_contents() {
        let (fs, mut vm, _) = build_world();
        let mut tape = TapeDim::new();
        let n = dump(&fs, &mut vm, FileSystem::ROOT, &mut tape).unwrap();
        assert!(n >= 4, "dir + dir + seg + at least one page, got {n}");

        // Restore into a fresh world.
        tape.submit(DeviceOp::Control { order: "rewind" });
        let mut fs2 = FileSystem::new(&admin());
        let mut vm2 = VmWorld::new(Machine::new(CpuModel::H6180, 8), 32);
        let created = restore(&mut fs2, &mut vm2, FileSystem::ROOT, &mut tape, &admin()).unwrap();
        assert_eq!(created, 3);

        // Structure: >udd>CSR>data exists with label and ACL intact.
        let udd = fs2.peek_branch(FileSystem::ROOT, "udd").unwrap().uid;
        let csr = fs2.peek_branch(udd, "CSR").unwrap().uid;
        let b = fs2.peek_branch(csr, "data").unwrap();
        assert_eq!(b.label, Label::new(Level::CONFIDENTIAL, Compartments::NONE));
        let BranchKind::Segment { acl, len_words, .. } = &b.kind else {
            panic!()
        };
        assert_eq!(*len_words, 2 * PAGE_WORDS);
        assert_eq!(
            acl.effective(&UserId::new("Jones", "CSR", "a")),
            Some(AclMode::RW)
        );
        // Contents: every written word survives.
        let uid = b.uid;
        for p in 0..2 {
            let f = super::ensure_resident(&mut vm2, uid, p).unwrap();
            for off in (0..PAGE_WORDS).step_by(31) {
                assert_eq!(
                    vm2.machine.mem.read(f, off),
                    Word::new((p * 1000 + off) as u64),
                    "page {p} off {off}"
                );
            }
        }
    }

    #[test]
    fn restore_onto_conflicting_tree_is_refused() {
        let (fs, mut vm, _) = build_world();
        let mut tape = TapeDim::new();
        dump(&fs, &mut vm, FileSystem::ROOT, &mut tape).unwrap();
        tape.submit(DeviceOp::Control { order: "rewind" });
        // Restoring over the same (already populated) world collides.
        let mut fs2 = fs;
        let mut vm2 = vm;
        let err = restore(&mut fs2, &mut vm2, FileSystem::ROOT, &mut tape, &admin()).unwrap_err();
        assert!(matches!(err, BackupError::Conflict(_)));
    }

    #[test]
    fn write_protected_tape_refuses_the_dump() {
        let (fs, mut vm, _) = build_world();
        let mut tape = TapeDim::mounted(vec![]); // write ring out
        let err = dump(&fs, &mut vm, FileSystem::ROOT, &mut tape).unwrap_err();
        assert_eq!(err, BackupError::Tape("write ring out"));
    }

    /// Satellite check: the tape path (`dump`/`restore` into a fresh
    /// world) and the replay path (`MachineSnapshot` restore) must
    /// agree on the hierarchy digest — two entirely different recovery
    /// mechanisms converging on the same protected information.
    #[test]
    fn tape_restore_and_snapshot_restore_agree_on_hierarchy_digest() {
        use crate::statemachine::{
            restore as machine_restore, snapshot_at, Commit, Genesis, Outcome,
        };
        use mks_mls::Level;

        let genesis = Genesis::kernel_small();
        let mut sm = genesis.build();
        let admin_pid = match sm.apply(&Commit::CreateProcess {
            user: admin(),
            label: Label::BOTTOM,
            ring: 4,
        }) {
            Outcome::Pid(p) => p,
            out => panic!("admin creation returned {out:?}"),
        };
        let root = sm
            .apply(&Commit::BindRoot { pid: admin_pid })
            .seg()
            .expect("root binds");
        let d1 = sm
            .apply(&Commit::CreateDirectory {
                pid: admin_pid,
                dir: root,
                name: "archive".into(),
                label: Label::BOTTOM,
            })
            .seg()
            .expect("directory creates");
        let s1 = sm
            .apply(&Commit::CreateSegment {
                pid: admin_pid,
                dir: d1,
                name: "ledger".into(),
                acl: Acl::of("Admin.SysAdmin.a", AclMode::RW),
                brackets: RingBrackets::new(4, 4, 4),
                label: Label::new(Level::CONFIDENTIAL, Compartments::NONE),
            })
            .seg()
            .expect("segment creates");
        for off in [0u64, 7, 63] {
            sm.apply(&Commit::Write {
                pid: admin_pid,
                seg: s1,
                offset: off,
                value: 0x5a5a + off,
            });
        }
        sm.apply(&Commit::Tick { times: 3 });

        // Replay path: snapshot the full log and restore a twin.
        let log = sm.world().commits.clone();
        let snap = snapshot_at(&genesis, &log, log.len()).expect("snapshot covers the log");
        let mut twin = machine_restore(&snap).expect("snapshot restores");

        // Tape path: dump the live hierarchy, restore into a fresh
        // world that never saw the commit log.
        let mut tape = TapeDim::new();
        let w = sm.world_mut();
        dump(&w.fs, &mut w.vm, FileSystem::ROOT, &mut tape).expect("dump succeeds");
        tape.submit(DeviceOp::Control { order: "rewind" });
        let mut fs2 = FileSystem::new(&admin());
        let mut vm2 = VmWorld::new(Machine::new(CpuModel::H6180, 8), 32);
        restore(&mut fs2, &mut vm2, FileSystem::ROOT, &mut tape, &admin())
            .expect("tape restores into a fresh world");

        let live = hierarchy_digest(&w.fs, &mut w.vm, FileSystem::ROOT);
        let tw = twin.world_mut();
        let via_snapshot = hierarchy_digest(&tw.fs, &mut tw.vm, FileSystem::ROOT);
        let via_tape = hierarchy_digest(&fs2, &mut vm2, FileSystem::ROOT);
        assert_eq!(live, via_snapshot, "replay rebuilds the same hierarchy");
        assert_eq!(
            live, via_tape,
            "tape round-trip rebuilds the same hierarchy"
        );
    }

    #[test]
    fn label_and_acl_codecs_round_trip() {
        let l = Label::new(Level::SECRET, Compartments::of(&[1, 5]));
        assert_eq!(decode_label(&encode_label(&l)).unwrap(), l);
        let mut acl = Acl::of("Jones.CSR.a", AclMode::RW);
        acl.add("*.SysAdmin.*", AclMode::REW);
        acl.add("Spy.KGB.*", AclMode::NULL);
        assert_eq!(decode_acl(&encode_acl(&acl)).unwrap(), acl);
    }
}
