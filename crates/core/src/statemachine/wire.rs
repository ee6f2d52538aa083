//! Byte-level wire encoding for the replayable kernel's artifacts.
//!
//! The commit log's in-memory form (E20) is enough for replay on one
//! machine, but replication (E21) streams [`SealedCommit`]s and
//! [`MachineSnapshot`]s over a link, and a log at rest wants a stable
//! byte form that survives outside the process. This module is that
//! form: a small, explicit little-endian codec with *typed* rejection —
//! every way a frame can be corrupt, truncated, oversized or foreign
//! maps to a [`WireError`] variant, never a panic and never a silent
//! mis-parse.
//!
//! Wire integrity and chain integrity are different layers on purpose:
//! [`decode_commit_log`] proves the bytes parse, and the caller still
//! runs [`CommitLog::verify`] to prove the *seals* hold. A forged or
//! bit-flipped log that happens to parse is caught by the chain, and a
//! log whose bytes were damaged in flight is caught here first with a
//! precise reason.
//!
//! The same bytes are the canonical form of a commit: every writer
//! streams into a [`Sink`], which is either a `Vec<u8>` (the wire) or an
//! [`Fnv64`] (a seal or digest), so [`Commit::encoding_digest`] is
//! FNV-1a over exactly the bytes that travel, computed with no buffer.
//! The encoding depends only on what a value *is*: an ACL is its
//! entries in order, never its derived lookup index, so equal commits
//! seal equally and a seal survives a wire round trip. Changing the
//! layout changes every seal, so it bumps [`WIRE_VERSION`].
//!
//! One representational constraint is inherited from the ACL layer:
//! principal patterns are encoded component-wise and rebuilt through
//! [`Acl::add`], whose `Person.Project.tag` syntax makes `.` a
//! separator. Principal components are dot-free everywhere in this
//! repo (the parser enforces three components), so the round trip is
//! exact.

use mks_fs::{Acl, AclMode, UserId};
use mks_hw::{FaultEvent, FaultPlan, Fnv64, InjectKind, RingBrackets, SegNo};
use mks_mls::{Compartments, Label, Level};

use super::commit::{Commit, CommitLog, SealedCommit};
use super::replay::MachineSnapshot;
use super::{Genesis, StateDigest};
use crate::pressure::{Priority, NR_PRIORITIES};
use crate::syslog::AuditEvent;
use crate::world::KProcId;

/// Magic prefix of an encoded [`CommitLog`].
const LOG_MAGIC: [u8; 4] = *b"MKCL";
/// Magic prefix of an encoded [`MachineSnapshot`].
const SNAP_MAGIC: [u8; 4] = *b"MKSN";
/// Codec version, bumped on any layout change. Version 2 made the wire
/// bytes the seal's input (version 1 sealed a `Debug` rendering), so a
/// log sealed under the old definition is refused as
/// [`WireError::BadVersion`] instead of failing its chain.
pub(crate) const WIRE_VERSION: u16 = 2;

/// Longest string the decoder will accept (names, patterns, audit
/// details). Far above anything the kernel produces; a length field
/// beyond it is treated as corruption, not as an allocation request.
const MAX_STR: u64 = 1 << 12;
/// Most elements the decoder will accept in one vector (log entries,
/// ACL entries, fault events).
const MAX_VEC: u64 = 1 << 20;

/// Why a byte string was rejected. Every variant names the defect
/// precisely enough to distinguish truncation from corruption from
/// version/genesis mismatch — the error taxonomy test pins this.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The buffer ended before a field's bytes did.
    Truncated {
        /// Bytes the next field needed.
        need: u64,
        /// Bytes remaining.
        have: u64,
    },
    /// The leading magic is not the expected artifact tag.
    BadMagic {
        /// The four bytes found.
        found: [u8; 4],
    },
    /// The codec version is not [`WIRE_VERSION`].
    BadVersion {
        /// The version found.
        found: u16,
    },
    /// A tag byte names no variant of its enum.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The tag found.
        tag: u8,
    },
    /// A string field is not valid UTF-8.
    BadUtf8 {
        /// Which field was being decoded.
        what: &'static str,
    },
    /// A length field exceeds the decoder's hard cap — corruption, since
    /// the encoder never produces it.
    Oversize {
        /// Which field was being decoded.
        what: &'static str,
        /// The length claimed.
        len: u64,
    },
    /// The artifact parsed completely but bytes remain — a concatenation
    /// or framing error.
    Trailing {
        /// Bytes left over.
        extra: u64,
    },
    /// A snapshot is rooted at a different genesis than the receiver's.
    ForeignGenesis {
        /// The receiver's genesis digest.
        expected: u64,
        /// The digest the snapshot carries.
        found: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated: next field needs {need} bytes, {have} remain")
            }
            WireError::BadMagic { found } => write!(f, "bad magic {found:?}"),
            WireError::BadVersion { found } => {
                write!(f, "wire version {found} (this codec is {WIRE_VERSION})")
            }
            WireError::BadTag { what, tag } => write!(f, "tag {tag} names no {what} variant"),
            WireError::BadUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
            WireError::Oversize { what, len } => {
                write!(f, "{what} claims length {len}, over the decoder cap")
            }
            WireError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete artifact")
            }
            WireError::ForeignGenesis { expected, found } => write!(
                f,
                "snapshot rooted at foreign genesis {found:#018x} (expected {expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- writer

/// Where the writers put bytes: a buffer (the wire itself) or a running
/// FNV-1a digest (a seal), so what is sealed is byte for byte what
/// travels.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Sink for Fnv64 {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }
}

/// Appends one byte.
#[inline]
pub(crate) fn put_u8(buf: &mut impl Sink, v: u8) {
    buf.put(&[v]);
}

/// Appends a little-endian `u16`.
#[inline]
pub(crate) fn put_u16(buf: &mut impl Sink, v: u16) {
    buf.put(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub(crate) fn put_u32(buf: &mut impl Sink, v: u32) {
    buf.put(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub(crate) fn put_u64(buf: &mut impl Sink, v: u64) {
    buf.put(&v.to_le_bytes());
}

/// Appends a bool as one byte (0 or 1).
#[inline]
fn put_bool(buf: &mut impl Sink, v: bool) {
    put_u8(buf, u8::from(v));
}

/// Appends a length-prefixed UTF-8 string (`u32` length, then bytes).
#[inline]
fn put_str(buf: &mut impl Sink, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Appends length-prefixed raw bytes (`u32` length, then bytes).
#[inline]
pub(crate) fn put_bytes(buf: &mut impl Sink, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.put(b);
}

// ---------------------------------------------------------------- reader

/// A bounds-checked little-endian reader over a byte slice. Every read
/// that would run off the end returns [`WireError::Truncated`]; nothing
/// here panics on hostile input.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> u64 {
        (self.buf.len() - self.pos) as u64
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: u64) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n as usize];
        self.pos += n as usize;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a bool byte; any value other than 0/1 is a bad tag.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what, tag }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = u64::from(self.u32()?);
        if len > MAX_STR {
            return Err(WireError::Oversize { what, len });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { what })
    }

    /// Reads length-prefixed raw bytes (capped like a vector).
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], WireError> {
        let len = u64::from(self.u32()?);
        if len > MAX_VEC * 64 {
            return Err(WireError::Oversize { what, len });
        }
        self.take(len)
    }

    /// Reads a vector length, enforcing [`MAX_VEC`].
    pub(crate) fn vec_len(&mut self, what: &'static str) -> Result<u64, WireError> {
        let len = u64::from(self.u32()?);
        if len > MAX_VEC {
            return Err(WireError::Oversize { what, len });
        }
        Ok(len)
    }

    /// Asserts the artifact consumed every byte.
    pub fn done(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing {
                extra: self.remaining(),
            })
        }
    }
}

// ----------------------------------------------------- component codecs

fn put_user(buf: &mut impl Sink, u: &UserId) {
    put_str(buf, &u.person);
    put_str(buf, &u.project);
    put_str(buf, &u.tag);
}

fn get_user(cur: &mut Cursor<'_>) -> Result<UserId, WireError> {
    let person = cur.str("UserId.person")?;
    let project = cur.str("UserId.project")?;
    let tag = cur.str("UserId.tag")?;
    Ok(UserId {
        person,
        project,
        tag,
    })
}

pub(super) fn put_label(buf: &mut impl Sink, l: &Label) {
    put_u8(buf, l.level.0);
    put_u64(buf, l.compartments.0);
}

/// Reads ring brackets, refusing any triple [`RingBrackets::new`] would
/// normalize: a value has one byte form, so a corrupted byte cannot
/// decode to the value it replaced.
fn get_brackets(cur: &mut Cursor<'_>) -> Result<RingBrackets, WireError> {
    let raw = [cur.u8()?, cur.u8()?, cur.u8()?];
    let b = RingBrackets::new(raw[0], raw[1], raw[2]);
    match raw
        .into_iter()
        .zip([b.r1, b.r2, b.r3])
        .find(|(r, n)| r != n)
    {
        Some((tag, _)) => Err(WireError::BadTag {
            what: "RingBrackets",
            tag,
        }),
        None => Ok(b),
    }
}

fn get_label(cur: &mut Cursor<'_>) -> Result<Label, WireError> {
    let level = Level(cur.u8()?);
    let compartments = Compartments(cur.u64()?);
    Ok(Label::new(level, compartments))
}

fn put_acl(buf: &mut impl Sink, acl: &Acl<AclMode>) {
    put_u32(buf, acl.entries().len() as u32);
    for e in acl.entries() {
        put_str(buf, &e.person);
        put_str(buf, &e.project);
        put_str(buf, &e.tag);
        let mode =
            u8::from(e.mode.read) | (u8::from(e.mode.execute) << 1) | (u8::from(e.mode.write) << 2);
        put_u8(buf, mode);
    }
}

fn get_acl(cur: &mut Cursor<'_>) -> Result<Acl<AclMode>, WireError> {
    let count = cur.vec_len("Acl.entries")?;
    let mut acl = Acl::empty();
    for _ in 0..count {
        let person = cur.str("AclEntry.person")?;
        let project = cur.str("AclEntry.project")?;
        let tag = cur.str("AclEntry.tag")?;
        let bits = cur.u8()?;
        if bits > 0b111 {
            return Err(WireError::BadTag {
                what: "AclMode",
                tag: bits,
            });
        }
        let mode = AclMode {
            read: bits & 1 != 0,
            execute: bits & 2 != 0,
            write: bits & 4 != 0,
        };
        // Components are dot-free on the wire's encode side, so the
        // rebuilt pattern has exactly three parts and `add` cannot panic.
        if person.contains('.') || project.contains('.') || tag.contains('.') {
            return Err(WireError::BadUtf8 {
                what: "AclEntry.pattern",
            });
        }
        acl.add(&format!("{person}.{project}.{tag}"), mode);
    }
    Ok(acl)
}

fn put_audit_event(buf: &mut impl Sink, e: &AuditEvent) {
    match e {
        AuditEvent::AccessDenied { what } => {
            put_u8(buf, 0);
            put_str(buf, what);
        }
        AuditEvent::ProtectionFault { fault } => {
            put_u8(buf, 1);
            put_str(buf, fault);
        }
        AuditEvent::Login { success } => {
            put_u8(buf, 2);
            put_bool(buf, *success);
        }
        AuditEvent::GateRefused { target } => {
            put_u8(buf, 3);
            put_str(buf, target);
        }
        AuditEvent::Lifecycle { what } => {
            put_u8(buf, 4);
            put_str(buf, what);
        }
        AuditEvent::Overload {
            what,
            pressure_permille,
        } => {
            put_u8(buf, 5);
            put_str(buf, what);
            put_u32(buf, *pressure_permille);
        }
    }
}

fn get_audit_event(cur: &mut Cursor<'_>) -> Result<AuditEvent, WireError> {
    Ok(match cur.u8()? {
        0 => AuditEvent::AccessDenied {
            what: cur.str("AuditEvent.what")?,
        },
        1 => AuditEvent::ProtectionFault {
            fault: cur.str("AuditEvent.fault")?,
        },
        2 => AuditEvent::Login {
            success: cur.bool("AuditEvent.success")?,
        },
        3 => AuditEvent::GateRefused {
            target: cur.str("AuditEvent.target")?,
        },
        4 => AuditEvent::Lifecycle {
            what: cur.str("AuditEvent.what")?,
        },
        5 => AuditEvent::Overload {
            what: cur.str("AuditEvent.what")?,
            pressure_permille: cur.u32()?,
        },
        tag => {
            return Err(WireError::BadTag {
                what: "AuditEvent",
                tag,
            })
        }
    })
}

fn put_plan(buf: &mut impl Sink, plan: &FaultPlan) {
    put_u64(buf, plan.seed);
    put_u32(buf, plan.events.len() as u32);
    for e in &plan.events {
        put_u8(buf, e.kind as u8);
        put_u64(buf, e.nth);
        put_u64(buf, e.detail);
    }
}

fn get_plan(cur: &mut Cursor<'_>) -> Result<FaultPlan, WireError> {
    let seed = cur.u64()?;
    let count = cur.vec_len("FaultPlan.events")?;
    let mut events = Vec::new();
    for _ in 0..count {
        let tag = cur.u8()?;
        let kind = *InjectKind::ALL.get(tag as usize).ok_or(WireError::BadTag {
            what: "InjectKind",
            tag,
        })?;
        let nth = cur.u64()?;
        let detail = cur.u64()?;
        events.push(FaultEvent { kind, nth, detail });
    }
    // `from_events` would reset the seed; rebuild directly. Events on
    // the wire come from a real plan, already deduplicated and sorted.
    Ok(FaultPlan { seed, events })
}

/// Writes a [`Genesis`] recipe: the configuration switch by switch, then
/// the sizing and the daemon count. A genesis travels only as its
/// [`Genesis::digest`], which is FNV-1a over these bytes and the boot
/// hash.
pub(super) fn put_genesis(buf: &mut impl Sink, g: &Genesis) {
    let c = &g.cfg;
    for switch in [
        c.linker as u8,
        c.naming as u8,
        c.io as u8,
        c.paging as u8,
        c.policy as u8,
        c.login as u8,
        c.init as u8,
        u8::from(c.mls),
        u8::from(c.revocation),
    ] {
        put_u8(buf, switch);
    }
    put_u64(buf, g.frames as u64);
    put_u64(buf, g.bulk_records as u64);
    match g.trace_capacity {
        Some(n) => {
            put_bool(buf, true);
            put_u64(buf, n as u64);
        }
        None => put_bool(buf, false),
    }
    put_u32(buf, g.daemons);
}

// ----------------------------------------------------------- Commit

/// Writes one commit's canonical encoding: a variant tag, then its
/// fields in declaration order. [`Commit::encoding_digest`] is FNV-1a
/// over exactly these bytes.
pub(super) fn put_commit(buf: &mut impl Sink, c: &Commit) {
    match c {
        Commit::CreateProcess { user, label, ring } => {
            put_u8(buf, 0);
            put_user(buf, user);
            put_label(buf, label);
            put_u8(buf, *ring);
        }
        Commit::DestroyProcess { pid } => {
            put_u8(buf, 1);
            put_u32(buf, pid.0);
        }
        Commit::BindRoot { pid } => {
            put_u8(buf, 2);
            put_u32(buf, pid.0);
        }
        Commit::Initiate { pid, dir, name } => {
            put_u8(buf, 3);
            put_u32(buf, pid.0);
            put_u16(buf, dir.0);
            put_str(buf, name);
        }
        Commit::CreateSegment {
            pid,
            dir,
            name,
            acl,
            brackets,
            label,
        } => {
            put_u8(buf, 4);
            put_u32(buf, pid.0);
            put_u16(buf, dir.0);
            put_str(buf, name);
            put_acl(buf, acl);
            put_u8(buf, brackets.r1);
            put_u8(buf, brackets.r2);
            put_u8(buf, brackets.r3);
            put_label(buf, label);
        }
        Commit::CreateDirectory {
            pid,
            dir,
            name,
            label,
        } => {
            put_u8(buf, 5);
            put_u32(buf, pid.0);
            put_u16(buf, dir.0);
            put_str(buf, name);
            put_label(buf, label);
        }
        Commit::DeleteSegment { pid, dir, name } => {
            put_u8(buf, 6);
            put_u32(buf, pid.0);
            put_u16(buf, dir.0);
            put_str(buf, name);
        }
        Commit::SetSegmentAcl {
            pid,
            dir,
            name,
            acl,
        } => {
            put_u8(buf, 7);
            put_u32(buf, pid.0);
            put_u16(buf, dir.0);
            put_str(buf, name);
            put_acl(buf, acl);
        }
        Commit::SetQuota {
            pid,
            dir,
            limit_pages,
        } => {
            put_u8(buf, 8);
            put_u32(buf, pid.0);
            put_u16(buf, dir.0);
            put_u64(buf, *limit_pages);
        }
        Commit::ListDir { pid, dir } => {
            put_u8(buf, 9);
            put_u32(buf, pid.0);
            put_u16(buf, dir.0);
        }
        Commit::Read { pid, seg, offset } => {
            put_u8(buf, 10);
            put_u32(buf, pid.0);
            put_u16(buf, seg.0);
            put_u64(buf, *offset);
        }
        Commit::Write {
            pid,
            seg,
            offset,
            value,
        } => {
            put_u8(buf, 11);
            put_u32(buf, pid.0);
            put_u16(buf, seg.0);
            put_u64(buf, *offset);
            put_u64(buf, *value);
        }
        Commit::Terminate { pid, seg } => {
            put_u8(buf, 12);
            put_u32(buf, pid.0);
            put_u16(buf, seg.0);
        }
        Commit::CallGate { pid, gate, entry } => {
            put_u8(buf, 13);
            put_u32(buf, pid.0);
            put_str(buf, gate);
            put_str(buf, entry);
        }
        Commit::MeteringGet { pid } => {
            put_u8(buf, 14);
            put_u32(buf, pid.0);
        }
        Commit::Audit { who, event } => {
            put_u8(buf, 15);
            match who {
                Some(u) => {
                    put_bool(buf, true);
                    put_user(buf, u);
                }
                None => put_bool(buf, false),
            }
            put_audit_event(buf, event);
        }
        Commit::Tick { times } => {
            put_u8(buf, 16);
            put_u32(buf, *times);
        }
        Commit::Wakeup { daemon } => {
            put_u8(buf, 17);
            put_u32(buf, *daemon);
        }
        Commit::AdmissionEnable { config } => {
            put_u8(buf, 18);
            put_u64(buf, config.ast_soft_cap as u64);
            put_u64(buf, config.audit_cap as u64);
            for p in config.shed_permille {
                put_u32(buf, p);
            }
            match config.deadline_budget {
                Some(c) => {
                    put_bool(buf, true);
                    put_u64(buf, c);
                }
                None => put_bool(buf, false),
            }
        }
        Commit::SetPriority { pid, priority } => {
            put_u8(buf, 19);
            put_u32(buf, pid.0);
            put_u8(buf, priority.index() as u8);
        }
        Commit::ArmPlan { plan } => {
            put_u8(buf, 20);
            put_plan(buf, plan);
        }
        Commit::Disarm => put_u8(buf, 21),
        Commit::CrashPoll => put_u8(buf, 22),
        Commit::Salvage => put_u8(buf, 23),
        Commit::BootCheck => put_u8(buf, 24),
    }
}

fn get_commit(cur: &mut Cursor<'_>) -> Result<Commit, WireError> {
    Ok(match cur.u8()? {
        0 => Commit::CreateProcess {
            user: get_user(cur)?,
            label: get_label(cur)?,
            ring: cur.u8()?,
        },
        1 => Commit::DestroyProcess {
            pid: KProcId(cur.u32()?),
        },
        2 => Commit::BindRoot {
            pid: KProcId(cur.u32()?),
        },
        3 => Commit::Initiate {
            pid: KProcId(cur.u32()?),
            dir: SegNo(cur.u16()?),
            name: cur.str("Commit.name")?,
        },
        4 => Commit::CreateSegment {
            pid: KProcId(cur.u32()?),
            dir: SegNo(cur.u16()?),
            name: cur.str("Commit.name")?,
            acl: get_acl(cur)?,
            brackets: get_brackets(cur)?,
            label: get_label(cur)?,
        },
        5 => Commit::CreateDirectory {
            pid: KProcId(cur.u32()?),
            dir: SegNo(cur.u16()?),
            name: cur.str("Commit.name")?,
            label: get_label(cur)?,
        },
        6 => Commit::DeleteSegment {
            pid: KProcId(cur.u32()?),
            dir: SegNo(cur.u16()?),
            name: cur.str("Commit.name")?,
        },
        7 => Commit::SetSegmentAcl {
            pid: KProcId(cur.u32()?),
            dir: SegNo(cur.u16()?),
            name: cur.str("Commit.name")?,
            acl: get_acl(cur)?,
        },
        8 => Commit::SetQuota {
            pid: KProcId(cur.u32()?),
            dir: SegNo(cur.u16()?),
            limit_pages: cur.u64()?,
        },
        9 => Commit::ListDir {
            pid: KProcId(cur.u32()?),
            dir: SegNo(cur.u16()?),
        },
        10 => Commit::Read {
            pid: KProcId(cur.u32()?),
            seg: SegNo(cur.u16()?),
            offset: cur.u64()?,
        },
        11 => Commit::Write {
            pid: KProcId(cur.u32()?),
            seg: SegNo(cur.u16()?),
            offset: cur.u64()?,
            value: cur.u64()?,
        },
        12 => Commit::Terminate {
            pid: KProcId(cur.u32()?),
            seg: SegNo(cur.u16()?),
        },
        13 => Commit::CallGate {
            pid: KProcId(cur.u32()?),
            gate: cur.str("Commit.gate")?,
            entry: cur.str("Commit.entry")?,
        },
        14 => Commit::MeteringGet {
            pid: KProcId(cur.u32()?),
        },
        15 => Commit::Audit {
            who: if cur.bool("Commit.who")? {
                Some(get_user(cur)?)
            } else {
                None
            },
            event: get_audit_event(cur)?,
        },
        16 => Commit::Tick { times: cur.u32()? },
        17 => Commit::Wakeup { daemon: cur.u32()? },
        18 => {
            let ast_soft_cap = cur.u64()? as usize;
            let audit_cap = cur.u64()? as usize;
            let mut shed_permille = [0u32; NR_PRIORITIES];
            for p in &mut shed_permille {
                *p = cur.u32()?;
            }
            let deadline_budget = if cur.bool("PressureConfig.deadline_budget")? {
                Some(cur.u64()?)
            } else {
                None
            };
            Commit::AdmissionEnable {
                config: crate::pressure::PressureConfig {
                    ast_soft_cap,
                    audit_cap,
                    shed_permille,
                    deadline_budget,
                },
            }
        }
        19 => {
            let pid = KProcId(cur.u32()?);
            let tag = cur.u8()?;
            let priority = *Priority::ALL.get(tag as usize).ok_or(WireError::BadTag {
                what: "Priority",
                tag,
            })?;
            Commit::SetPriority { pid, priority }
        }
        20 => Commit::ArmPlan {
            plan: get_plan(cur)?,
        },
        21 => Commit::Disarm,
        22 => Commit::CrashPoll,
        23 => Commit::Salvage,
        24 => Commit::BootCheck,
        tag => {
            return Err(WireError::BadTag {
                what: "Commit",
                tag,
            })
        }
    })
}

// ----------------------------------------------------- sealed commits

/// Appends one [`SealedCommit`] (seq, chain, payload) to `buf`. Exposed
/// so the replication frame codec can embed seals without re-framing.
pub(crate) fn put_sealed(buf: &mut impl Sink, s: &SealedCommit) {
    put_u64(buf, s.seq);
    put_u64(buf, s.chain);
    put_commit(buf, &s.commit);
}

/// Reads one [`SealedCommit`] from `cur`.
pub(crate) fn get_sealed(cur: &mut Cursor<'_>) -> Result<SealedCommit, WireError> {
    let seq = cur.u64()?;
    let chain = cur.u64()?;
    let commit = get_commit(cur)?;
    Ok(SealedCommit { seq, chain, commit })
}

// ----------------------------------------------------------- artifacts

/// Encodes a whole [`CommitLog`] — magic, version, base digest, entry
/// count, entries. The byte form carries exactly what
/// [`CommitLog::from_parts`] needs; seals travel verbatim so the chain
/// can be re-verified on the far side.
pub fn encode_commit_log(log: &CommitLog) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&LOG_MAGIC);
    put_u16(&mut buf, WIRE_VERSION);
    put_u64(&mut buf, log.base());
    put_u32(&mut buf, log.entries().len() as u32);
    for s in log.entries() {
        put_sealed(&mut buf, s);
    }
    buf
}

/// Decodes a [`CommitLog`] from its byte form with typed rejection of
/// corrupt, truncated or trailing-garbage input. Wire acceptance is
/// *not* chain acceptance: run [`CommitLog::verify`] on the result to
/// prove the seals, exactly as for any externally supplied log.
pub fn decode_commit_log(bytes: &[u8]) -> Result<CommitLog, WireError> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.take(4)?;
    if magic != LOG_MAGIC {
        return Err(WireError::BadMagic {
            found: magic.try_into().unwrap(),
        });
    }
    let version = cur.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { found: version });
    }
    let base = cur.u64()?;
    let count = cur.vec_len("CommitLog.entries")?;
    let mut entries = Vec::new();
    for _ in 0..count {
        entries.push(get_sealed(&mut cur)?);
    }
    cur.done()?;
    Ok(CommitLog::from_parts(base, entries))
}

/// Encodes a [`MachineSnapshot`]: magic, version, the genesis *digest*
/// (the recipe itself lives on both ends), position, chain head, the
/// ten-field state digest, and the embedded prefix log.
pub fn encode_snapshot(snap: &MachineSnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&SNAP_MAGIC);
    put_u16(&mut buf, WIRE_VERSION);
    put_u64(&mut buf, snap.genesis.digest());
    put_u64(&mut buf, snap.upto);
    put_u64(&mut buf, snap.chain_head);
    let d = &snap.digest;
    for v in [
        d.seq,
        d.clock,
        d.audit_records,
        d.audit_digest,
        d.metrics_digest,
        d.census,
        d.processes,
        d.label_digest,
        d.boot_hash,
        d.log_digest,
    ] {
        put_u64(&mut buf, v);
    }
    put_bytes(&mut buf, &encode_commit_log(&snap.prefix));
    buf
}

/// Decodes a [`MachineSnapshot`] against the receiver's own genesis.
/// A snapshot rooted elsewhere is rejected as [`WireError::ForeignGenesis`]
/// before any state is touched; a decoded snapshot still goes through
/// [`restore`](super::replay::restore), whose chain and digest checks
/// catch staleness the byte layer cannot.
pub fn decode_snapshot(bytes: &[u8], expected: &Genesis) -> Result<MachineSnapshot, WireError> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.take(4)?;
    if magic != SNAP_MAGIC {
        return Err(WireError::BadMagic {
            found: magic.try_into().unwrap(),
        });
    }
    let version = cur.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { found: version });
    }
    let genesis_digest = cur.u64()?;
    if genesis_digest != expected.digest() {
        return Err(WireError::ForeignGenesis {
            expected: expected.digest(),
            found: genesis_digest,
        });
    }
    let upto = cur.u64()?;
    let chain_head = cur.u64()?;
    let mut d = [0u64; 10];
    for v in &mut d {
        *v = cur.u64()?;
    }
    let digest = StateDigest {
        seq: d[0],
        clock: d[1],
        audit_records: d[2],
        audit_digest: d[3],
        metrics_digest: d[4],
        census: d[5],
        processes: d[6],
        label_digest: d[7],
        boot_hash: d[8],
        log_digest: d[9],
    };
    let log_bytes = cur.bytes("MachineSnapshot.prefix")?;
    let prefix = decode_commit_log(log_bytes)?;
    cur.done()?;
    Ok(MachineSnapshot {
        genesis: *expected,
        upto,
        chain_head,
        digest,
        prefix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statemachine::workload::{record_fault_run, WorkloadSpec};
    use crate::statemachine::{reduce, snapshot_at};

    fn recorded_log() -> (Genesis, CommitLog) {
        let genesis = Genesis::kernel_small();
        let run = record_fault_run(&genesis, &WorkloadSpec::faults(3));
        (genesis, run.sm.world().commits.clone())
    }

    #[test]
    fn a_recorded_log_round_trips_and_still_verifies() {
        let (genesis, log) = recorded_log();
        let bytes = encode_commit_log(&log);
        let back = decode_commit_log(&bytes).expect("round trip");
        assert_eq!(back, log);
        back.verify().expect("seals survive the wire");
        let sm = reduce(&genesis, &back).expect("decoded log reduces");
        assert_eq!(sm.world().commits.head(), log.head());
    }

    #[test]
    fn a_snapshot_round_trips_and_still_restores() {
        let (genesis, log) = recorded_log();
        let snap = snapshot_at(&genesis, &log, log.len() / 2).expect("in range");
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes, &genesis).expect("round trip");
        assert_eq!(back.upto, snap.upto);
        assert_eq!(back.chain_head, snap.chain_head);
        assert_eq!(back.digest, snap.digest);
        assert_eq!(back.prefix, snap.prefix);
        let sm = crate::statemachine::restore(&back).expect("decoded snapshot restores");
        assert_eq!(sm.digest(), snap.digest);
    }

    #[test]
    fn truncation_at_every_length_is_rejected_not_panicked() {
        let (genesis, log) = recorded_log();
        let bytes = encode_commit_log(&log);
        for cut in 0..bytes.len() {
            match decode_commit_log(&bytes[..cut]) {
                Err(_) => {}
                Ok(parsed) => {
                    // A cut can only parse if it lands exactly on a
                    // shorter, self-consistent artifact — the count
                    // field forbids that here.
                    panic!("cut at {cut} parsed {} entries", parsed.entries().len());
                }
            }
        }
        let snap = snapshot_at(&genesis, &log, 4).expect("in range");
        let sb = encode_snapshot(&snap);
        for cut in [0, 3, 5, 20, sb.len() / 2, sb.len() - 1] {
            assert!(decode_snapshot(&sb[..cut], &genesis).is_err());
        }
    }

    #[test]
    fn corruption_maps_to_typed_errors() {
        let (genesis, log) = recorded_log();
        let good = encode_commit_log(&log);

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_commit_log(&bad),
            Err(WireError::BadMagic { .. })
        ));

        let mut bad = good.clone();
        bad[4] = 0xff;
        assert!(matches!(
            decode_commit_log(&bad),
            Err(WireError::BadVersion { found: 0xff })
        ));

        // Oversize entry count.
        let mut bad = good.clone();
        bad[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_commit_log(&bad),
            Err(WireError::Oversize { .. })
        ));

        // Trailing garbage after a complete log.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            decode_commit_log(&bad),
            Err(WireError::Trailing { extra: 1 })
        ));

        // A snapshot from a foreign genesis is refused by digest.
        let snap = snapshot_at(&genesis, &log, 2).expect("in range");
        let sb = encode_snapshot(&snap);
        let other = Genesis {
            frames: genesis.frames + 1,
            ..genesis
        };
        assert!(matches!(
            decode_snapshot(&sb, &other),
            Err(WireError::ForeignGenesis { .. })
        ));
    }

    /// One commit of every [`Commit`] variant, in declaration order.
    fn every_variant() -> Vec<Commit> {
        let pid = KProcId(1);
        let dir = SegNo(0o100);
        let label = Label::new(Level(1), Compartments(0b101));
        let mut acl = Acl::of("*.*.*", AclMode::R);
        acl.add("Jones.CSR.a", AclMode::RW);
        vec![
            Commit::CreateProcess {
                user: UserId::new("Jones", "CSR", "a"),
                label,
                ring: 4,
            },
            Commit::DestroyProcess { pid: KProcId(9) },
            Commit::BindRoot { pid },
            Commit::Initiate {
                pid,
                dir,
                name: "notes".into(),
            },
            Commit::CreateSegment {
                pid,
                dir,
                name: "notes".into(),
                acl: acl.clone(),
                brackets: RingBrackets::new(4, 4, 5),
                label,
            },
            Commit::CreateDirectory {
                pid,
                dir,
                name: "sub".into(),
                label,
            },
            Commit::DeleteSegment {
                pid,
                dir,
                name: "notes".into(),
            },
            Commit::SetSegmentAcl {
                pid,
                dir,
                name: "notes".into(),
                acl,
            },
            Commit::SetQuota {
                pid,
                dir,
                limit_pages: 64,
            },
            Commit::ListDir { pid, dir },
            Commit::Read {
                pid,
                seg: SegNo(0o101),
                offset: 3,
            },
            Commit::Write {
                pid,
                seg: SegNo(0o101),
                offset: 3,
                value: 0o52,
            },
            Commit::Terminate {
                pid,
                seg: SegNo(0o101),
            },
            Commit::CallGate {
                pid,
                gate: "hcs_".into(),
                entry: "metering_get".into(),
            },
            Commit::MeteringGet { pid },
            Commit::Audit {
                who: Some(UserId::new("Jones", "CSR", "a")),
                event: AuditEvent::Overload {
                    what: "ast".into(),
                    pressure_permille: 900,
                },
            },
            Commit::Tick { times: 2 },
            Commit::Wakeup { daemon: 0 },
            Commit::AdmissionEnable {
                config: crate::pressure::PressureConfig::default(),
            },
            Commit::SetPriority {
                pid,
                priority: Priority::Interactive,
            },
            Commit::ArmPlan {
                plan: FaultPlan {
                    seed: 7,
                    events: vec![FaultEvent {
                        kind: InjectKind::Crash,
                        nth: 3,
                        detail: 1,
                    }],
                },
            },
            Commit::Disarm,
            Commit::CrashPoll,
            Commit::Salvage,
            Commit::BootCheck,
        ]
    }

    #[test]
    fn the_chain_head_of_every_variant_is_pinned() {
        let mut log = CommitLog::new();
        log.seed(Genesis::kernel_small().digest());
        for c in every_variant() {
            log.append(c);
        }
        // Seals are FNV-1a over the wire encoding, so this head may
        // change only together with WIRE_VERSION. (Its root, the genesis
        // digest, also covers the boot target.)
        assert_eq!(WIRE_VERSION, 2);
        assert_eq!(log.len(), 25);
        assert_eq!(log.head(), 0x6010_7ad2_d30f_6573);
    }

    #[test]
    fn a_log_of_an_older_wire_version_is_refused_by_version() {
        let (_, log) = recorded_log();
        let mut old = encode_commit_log(&log);
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            decode_commit_log(&old),
            Err(WireError::BadVersion { found: 1 })
        );
    }

    #[test]
    fn brackets_decode_only_in_their_canonical_form() {
        let mut log = CommitLog::new();
        log.seed(7);
        log.append(Commit::CreateSegment {
            pid: KProcId(1),
            dir: SegNo(0o100),
            name: "s".into(),
            acl: Acl::empty(),
            brackets: RingBrackets::new(7, 7, 7),
            label: Label::BOTTOM,
        });
        let mut bytes = encode_commit_log(&log);
        // The brackets sit just before the 9-byte label at the end. A
        // flipped bit that `RingBrackets::new` would clamp back to 7 must
        // not decode to the original commit.
        let r1 = bytes.len() - 9 - 3;
        assert_eq!(bytes[r1..r1 + 3], [7, 7, 7]);
        bytes[r1] ^= 0x08;
        assert_eq!(
            decode_commit_log(&bytes),
            Err(WireError::BadTag {
                what: "RingBrackets",
                tag: 15
            })
        );
    }

    #[test]
    fn a_bad_commit_tag_is_rejected() {
        let mut log = CommitLog::new();
        log.seed(7);
        log.append(Commit::Disarm);
        let mut bytes = encode_commit_log(&log);
        let last = bytes.len() - 17; // seq(8) + chain(8) + tag(1) from the end
        bytes[last + 16] = 200;
        assert!(matches!(
            decode_commit_log(&bytes),
            Err(WireError::BadTag {
                what: "Commit",
                tag: 200
            })
        ));
    }
}
