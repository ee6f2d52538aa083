//! The commit layer: atomic state mutations and the sealed, append-only
//! log they flow through.
//!
//! A [`Commit`] is pure data — principals, segment numbers, payload
//! words, a fault plan — never a closure or a handle. Sealing a commit
//! binds it into a hash chain rooted at the genesis digest, so a log is
//! self-authenticating: any splice, reorder or truncation either breaks
//! the chain (caught by [`CommitLog::verify`] with a typed
//! [`ReplayError`]) or re-seals covertly, in which case the replay
//! differential catches the divergent state digests instead.

use mks_fs::{Acl, AclMode, UserId};
use mks_hw::{FaultPlan, Fnv64, RingBrackets, RingNo, SegNo};
use mks_mls::Label;

use crate::syslog::AuditEvent;
use crate::world::KProcId;

/// One atomic state mutation. Every change to hw/vm/procs/fs/monitor
/// state in a replayable run flows through exactly one of these; the
/// variants cover process lifecycle, reference-monitor mediation,
/// scheduling, auditing, admission control, fault injection and the
/// recovery path. Data-only by construction: applying the same commit
/// to the same state always produces the same next state.
#[derive(Clone, PartialEq, Debug)]
pub enum Commit {
    /// Create a kernel process record.
    CreateProcess {
        /// The logged-in principal.
        user: UserId,
        /// Mandatory label, fixed at creation.
        label: Label,
        /// Initial ring of execution.
        ring: RingNo,
    },
    /// Destroy a process record (idempotent on unknown pids).
    DestroyProcess {
        /// The process to destroy.
        pid: KProcId,
    },
    /// Bind the root directory into a process's KST.
    BindRoot {
        /// The binding process.
        pid: KProcId,
    },
    /// Mediated segment acquisition.
    Initiate {
        /// The requesting process.
        pid: KProcId,
        /// Directory to resolve in.
        dir: SegNo,
        /// Entry name.
        name: String,
    },
    /// Mediated segment creation.
    CreateSegment {
        /// The creating process.
        pid: KProcId,
        /// Parent directory.
        dir: SegNo,
        /// Entry name.
        name: String,
        /// Discretionary ACL installed on the branch.
        acl: Acl<AclMode>,
        /// Ring brackets installed on the branch.
        brackets: RingBrackets,
        /// Mandatory label.
        label: Label,
    },
    /// Mediated directory creation.
    CreateDirectory {
        /// The creating process.
        pid: KProcId,
        /// Parent directory.
        dir: SegNo,
        /// Entry name.
        name: String,
        /// Mandatory label.
        label: Label,
    },
    /// Mediated branch deletion.
    DeleteSegment {
        /// The deleting process.
        pid: KProcId,
        /// Parent directory.
        dir: SegNo,
        /// Entry name.
        name: String,
    },
    /// Mediated ACL replacement on a branch.
    SetSegmentAcl {
        /// The acting process.
        pid: KProcId,
        /// Parent directory.
        dir: SegNo,
        /// Entry name.
        name: String,
        /// The replacement ACL.
        acl: Acl<AclMode>,
    },
    /// Mediated quota assignment on a directory.
    SetQuota {
        /// The acting process.
        pid: KProcId,
        /// Target directory.
        dir: SegNo,
        /// New page limit.
        limit_pages: u64,
    },
    /// Mediated directory listing (moves monitor counters).
    ListDir {
        /// The listing process.
        pid: KProcId,
        /// Target directory.
        dir: SegNo,
    },
    /// Mediated word read (paging traffic).
    Read {
        /// The reading process.
        pid: KProcId,
        /// Target segment.
        seg: SegNo,
        /// Word offset.
        offset: u64,
    },
    /// Mediated word write (paging traffic).
    Write {
        /// The writing process.
        pid: KProcId,
        /// Target segment.
        seg: SegNo,
        /// Word offset.
        offset: u64,
        /// Low 36 bits become the stored word.
        value: u64,
    },
    /// Drop a segment from a process's address space.
    Terminate {
        /// The terminating process.
        pid: KProcId,
        /// The segment to drop.
        seg: SegNo,
    },
    /// Call a supervisor gate by name.
    CallGate {
        /// The calling process.
        pid: KProcId,
        /// Gate segment name.
        gate: String,
        /// Entry name.
        entry: String,
    },
    /// Read the metering snapshot through `hcs_$metering_get` (the
    /// read-only gate that also exposes this log's digest).
    MeteringGet {
        /// The calling process.
        pid: KProcId,
    },
    /// Append a record to the kernel audit log.
    Audit {
        /// Acting principal, if known.
        who: Option<UserId>,
        /// The event.
        event: AuditEvent,
    },
    /// Run the traffic controller for a number of ticks.
    Tick {
        /// How many ticks.
        times: u32,
    },
    /// Wake a genesis daemon's event channel (IPC traffic for the
    /// `DropWakeup` injection site to starve).
    Wakeup {
        /// Index into the genesis daemon list.
        daemon: u32,
    },
    /// Arm admission control.
    AdmissionEnable {
        /// Pressure tuning (thresholds, soft caps) — plain data, so the
        /// arming replays exactly.
        config: crate::pressure::PressureConfig,
    },
    /// Assign a process's priority class.
    SetPriority {
        /// The classified process.
        pid: KProcId,
        /// Its class.
        priority: crate::pressure::Priority,
    },
    /// Arm the fault injector with a deterministic plan.
    ArmPlan {
        /// The schedule to arm.
        plan: FaultPlan,
    },
    /// Disarm the fault injector.
    Disarm,
    /// Consult the `Crash` injection site at an operation boundary.
    CrashPoll,
    /// Run the official salvager over the hierarchy.
    Salvage,
    /// Re-derive the boot image and check it loads to the target state.
    BootCheck,
}

impl Commit {
    /// The commit's contribution to the seal chain: FNV-1a over its wire
    /// encoding, streamed with no buffer. The encoding is a function of
    /// the commit's value alone, so equal commits seal equally and any
    /// payload difference changes the seal.
    pub fn encoding_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        super::wire::put_commit(&mut h, self);
        h.finish()
    }

    /// The acting process this commit requires to exist, if any.
    /// `CreateProcess` creates its own and `DestroyProcess` is
    /// documented idempotent, so neither names one. The dispatcher
    /// refuses a commit whose acting process is unknown — a log under
    /// replay is external data (possibly a mutation arm's), so a
    /// dangling pid must produce a deterministic verdict, not a panic.
    pub fn acting_pid(&self) -> Option<KProcId> {
        match self {
            Commit::BindRoot { pid }
            | Commit::Initiate { pid, .. }
            | Commit::CreateSegment { pid, .. }
            | Commit::CreateDirectory { pid, .. }
            | Commit::DeleteSegment { pid, .. }
            | Commit::SetSegmentAcl { pid, .. }
            | Commit::SetQuota { pid, .. }
            | Commit::ListDir { pid, .. }
            | Commit::Read { pid, .. }
            | Commit::Write { pid, .. }
            | Commit::Terminate { pid, .. }
            | Commit::CallGate { pid, .. }
            | Commit::MeteringGet { pid }
            | Commit::SetPriority { pid, .. } => Some(*pid),
            _ => None,
        }
    }
}

/// A commit bound into the chain at a fixed position.
#[derive(Clone, PartialEq, Debug)]
pub struct SealedCommit {
    /// Position in the log, dense from 0.
    pub seq: u64,
    /// Chain digest covering every prior seal and this commit.
    pub chain: u64,
    /// The mutation itself.
    pub commit: Commit,
}

/// Why a log (or a snapshot derived from one) was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplayError {
    /// The log is shorter than the history it claims to cover.
    Truncated {
        /// Commits expected.
        expected: u64,
        /// Commits present.
        found: u64,
    },
    /// Sequence numbers are not dense from 0 — an entry was dropped or
    /// the log was spliced.
    NonMonotonic {
        /// Index of the offending entry.
        at: u64,
        /// The sequence number found there.
        seq: u64,
    },
    /// A seal does not recompute from its predecessor — the entry was
    /// reordered or its payload rewritten after sealing.
    ChainMismatch {
        /// Sequence of the offending entry.
        seq: u64,
        /// Chain digest recomputed from the predecessor.
        expected: u64,
        /// Chain digest stored in the entry.
        found: u64,
    },
    /// The log is rooted at a different genesis than the reducer's.
    BaseMismatch {
        /// The reducer's genesis digest.
        expected: u64,
        /// The log's base.
        found: u64,
    },
    /// Replaying a verified log produced a different chain head than
    /// the log itself carries — the apply path is nondeterministic.
    ChainDivergence {
        /// Sequence at which replay diverged.
        seq: u64,
        /// The input log's seal.
        expected: u64,
        /// The replayed seal.
        found: u64,
    },
    /// A snapshot's claimed position or digest does not match the
    /// prefix it carries — it is stale or mislabeled.
    SnapshotStale {
        /// The prefix length the snapshot claims.
        upto: u64,
        /// The chain head the claim requires.
        expected: u64,
        /// The chain head actually found.
        found: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Truncated { expected, found } => {
                write!(f, "log truncated: expected {expected} commits, found {found}")
            }
            ReplayError::NonMonotonic { at, seq } => {
                write!(f, "log not densely sequenced: entry {at} carries seq {seq}")
            }
            ReplayError::ChainMismatch {
                seq,
                expected,
                found,
            } => write!(
                f,
                "seal chain broken at seq {seq}: expected {expected:#018x}, found {found:#018x}"
            ),
            ReplayError::BaseMismatch { expected, found } => write!(
                f,
                "log rooted at wrong genesis: expected {expected:#018x}, found {found:#018x}"
            ),
            ReplayError::ChainDivergence {
                seq,
                expected,
                found,
            } => write!(
                f,
                "replay diverged at seq {seq}: log seal {expected:#018x}, replayed {found:#018x}"
            ),
            ReplayError::SnapshotStale {
                upto,
                expected,
                found,
            } => write!(
                f,
                "snapshot stale at prefix {upto}: claimed head {expected:#018x}, found {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The append-only, sealed commit log. Immutable in the sense that
/// entries are never rewritten or removed — the only mutation is
/// appending the next seal. Cloning a log (for prefixes, snapshots and
/// mutation arms) never disturbs the original.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CommitLog {
    base: u64,
    entries: Vec<SealedCommit>,
}

impl CommitLog {
    /// An empty log rooted at base digest 0 (re-rooted by
    /// [`CommitLog::seed`] before first use).
    pub fn new() -> CommitLog {
        CommitLog::default()
    }

    /// Roots an empty log at the genesis digest.
    ///
    /// # Panics
    /// Panics if commits were already sealed — the root is part of
    /// every seal and cannot change retroactively.
    pub fn seed(&mut self, base: u64) {
        assert!(
            self.entries.is_empty(),
            "a commit log cannot be re-rooted after sealing"
        );
        self.base = base;
    }

    /// Rebuilds a log from raw parts *without* re-sealing. For tests
    /// and mutation arms that need tampered logs; an honestly built log
    /// always comes from [`CommitLog::append`].
    pub fn from_parts(base: u64, entries: Vec<SealedCommit>) -> CommitLog {
        CommitLog { base, entries }
    }

    /// Reserves room for `additional` more seals, for a caller that
    /// knows how long the log will grow.
    pub(crate) fn reserve(&mut self, additional: u64) {
        self.entries.reserve(additional as usize);
    }

    /// The genesis digest this log is rooted at.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Commits sealed so far.
    pub fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// True when nothing has been sealed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The chain head: the last seal, or the base for an empty log.
    /// This is the digest the metering gate exports.
    pub fn head(&self) -> u64 {
        self.entries.last().map(|s| s.chain).unwrap_or(self.base)
    }

    /// All seals, in order.
    pub fn entries(&self) -> &[SealedCommit] {
        &self.entries
    }

    /// The seal at `seq`, if present.
    pub fn get(&self, seq: u64) -> Option<&SealedCommit> {
        self.entries.get(seq as usize)
    }

    /// The next seal in the chain after `prev`.
    fn chain_next(prev: u64, seq: u64, commit: &Commit) -> u64 {
        Fnv64::new()
            .bytes(&prev.to_le_bytes())
            .bytes(&seq.to_le_bytes())
            .bytes(&commit.encoding_digest().to_le_bytes())
            .finish()
    }

    /// Seals `commit` at the end of the log, returning its sequence.
    pub fn append(&mut self, commit: Commit) -> u64 {
        let seq = self.entries.len() as u64;
        let chain = CommitLog::chain_next(self.head(), seq, &commit);
        self.entries.push(SealedCommit { seq, chain, commit });
        seq
    }

    /// Checks internal consistency: sequence numbers dense from 0 and
    /// every seal recomputing from its predecessor. A log that passes
    /// is exactly a log [`CommitLog::append`] could have built.
    pub fn verify(&self) -> Result<(), ReplayError> {
        let mut prev = self.base;
        for (i, s) in self.entries.iter().enumerate() {
            if s.seq != i as u64 {
                return Err(ReplayError::NonMonotonic {
                    at: i as u64,
                    seq: s.seq,
                });
            }
            let expected = CommitLog::chain_next(prev, s.seq, &s.commit);
            if s.chain != expected {
                return Err(ReplayError::ChainMismatch {
                    seq: s.seq,
                    expected,
                    found: s.chain,
                });
            }
            prev = s.chain;
        }
        Ok(())
    }

    /// [`CommitLog::verify`], plus a check that the log reaches the
    /// expected head — the form that catches tail truncation, which is
    /// internally consistent but shorter than the history it replaces.
    pub fn verify_head(&self, expected_len: u64, expected_head: u64) -> Result<(), ReplayError> {
        self.verify()?;
        if self.len() != expected_len || self.head() != expected_head {
            return Err(ReplayError::Truncated {
                expected: expected_len,
                found: self.len(),
            });
        }
        Ok(())
    }

    /// The first `upto` commits as an independent (re-rooted) log.
    pub fn prefix(&self, upto: u64) -> CommitLog {
        CommitLog {
            base: self.base,
            entries: self.entries[..(upto as usize).min(self.entries.len())].to_vec(),
        }
    }

    /// Re-seals a transformed copy of this log's commits — the covert
    /// tampering primitive behind the mutation arms. The result passes
    /// [`CommitLog::verify`] by construction, so only the replay
    /// differential can catch it.
    pub fn resealed(&self, transform: impl FnOnce(&mut Vec<Commit>)) -> CommitLog {
        let mut commits: Vec<Commit> = self.entries.iter().map(|s| s.commit.clone()).collect();
        transform(&mut commits);
        let mut out = CommitLog::new();
        out.seed(self.base);
        for c in commits {
            out.append(c);
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::syslog::AuditEvent;

    /// `*.*.*` plus `P0.Proj.a` and `P17.Proj.a`. With `detour`, sixteen
    /// more principals are added and removed again on the way: the
    /// entries end up equal, the ACL's derived lookup index does not.
    pub(crate) fn edited_acl(detour: bool) -> Acl<AclMode> {
        let mut acl = Acl::of("*.*.*", AclMode::R);
        acl.add("P0.Proj.a", AclMode::RW);
        let others = (1..17).map(|i| format!("P{i}.Proj.a"));
        if detour {
            for p in others.clone() {
                acl.add(&p, AclMode::RW);
            }
        }
        acl.add("P17.Proj.a", AclMode::RW);
        if detour {
            for p in others {
                assert!(acl.remove(&p));
            }
        }
        acl
    }

    /// A `SetSegmentAcl` commit carrying [`edited_acl`].
    pub(crate) fn edited_acl_commit(detour: bool) -> Commit {
        Commit::SetSegmentAcl {
            pid: KProcId(1),
            dir: SegNo(0o100),
            name: "shared".into(),
            acl: edited_acl(detour),
        }
    }

    fn sample_log() -> CommitLog {
        let mut log = CommitLog::new();
        log.seed(0xfeed_f00d);
        log.append(Commit::Tick { times: 2 });
        log.append(Commit::Audit {
            who: None,
            event: AuditEvent::Login { success: true },
        });
        log.append(Commit::CrashPoll);
        log.append(Commit::Tick { times: 1 });
        log.append(Commit::Disarm);
        log
    }

    #[test]
    fn append_seals_densely_and_verifies() {
        let log = sample_log();
        assert_eq!(log.len(), 5);
        assert_eq!(log.base(), 0xfeed_f00d);
        for (i, s) in log.entries().iter().enumerate() {
            assert_eq!(s.seq, i as u64);
        }
        assert_ne!(log.head(), log.base());
        log.verify().expect("an honestly appended log verifies");
        log.verify_head(log.len(), log.head())
            .expect("and it reaches its own head");
    }

    #[test]
    fn every_payload_difference_changes_the_seal() {
        let a = Commit::Tick { times: 1 };
        let b = Commit::Tick { times: 2 };
        assert_ne!(a.encoding_digest(), b.encoding_digest());
        assert_ne!(
            CommitLog::chain_next(7, 0, &a),
            CommitLog::chain_next(7, 0, &b)
        );
        // Position and predecessor are sealed too.
        assert_ne!(
            CommitLog::chain_next(7, 0, &a),
            CommitLog::chain_next(7, 1, &a)
        );
        assert_ne!(
            CommitLog::chain_next(7, 0, &a),
            CommitLog::chain_next(8, 0, &a)
        );
    }

    #[test]
    fn equal_commits_seal_equally_however_their_acls_were_built() {
        let (edited, direct) = (edited_acl_commit(true), edited_acl_commit(false));
        assert_eq!(edited, direct);
        assert_eq!(edited.encoding_digest(), direct.encoding_digest());
    }

    #[test]
    fn tail_truncation_is_typed() {
        let log = sample_log();
        let cut = log.prefix(3);
        cut.verify()
            .expect("a prefix is internally consistent — that is the danger");
        assert_eq!(
            cut.verify_head(log.len(), log.head()),
            Err(ReplayError::Truncated {
                expected: 5,
                found: 3
            })
        );
    }

    #[test]
    fn raw_payload_tamper_is_typed() {
        let log = sample_log();
        let mut entries = log.entries().to_vec();
        entries[2].commit = Commit::Salvage;
        let tampered = CommitLog::from_parts(log.base(), entries);
        assert!(matches!(
            tampered.verify(),
            Err(ReplayError::ChainMismatch { seq: 2, .. })
        ));
    }

    #[test]
    fn raw_splice_is_typed() {
        let log = sample_log();
        let mut entries = log.entries().to_vec();
        entries.remove(1);
        let spliced = CommitLog::from_parts(log.base(), entries);
        assert_eq!(
            spliced.verify(),
            Err(ReplayError::NonMonotonic { at: 1, seq: 2 })
        );
    }

    #[test]
    fn raw_reorder_is_typed() {
        let log = sample_log();
        let mut entries = log.entries().to_vec();
        entries.swap(1, 2);
        let reordered = CommitLog::from_parts(log.base(), entries);
        assert!(matches!(
            reordered.verify(),
            Err(ReplayError::NonMonotonic { at: 1, seq: 2 })
        ));
    }

    #[test]
    fn covert_reseal_passes_verify_but_moves_the_head() {
        let log = sample_log();
        let forged = log.resealed(|commits| commits.swap(0, 1));
        forged
            .verify()
            .expect("a covert reseal is chain-consistent by construction");
        assert_eq!(forged.len(), log.len());
        assert_ne!(
            forged.head(),
            log.head(),
            "but it cannot reproduce the honest head"
        );
    }

    #[test]
    #[should_panic(expected = "cannot be re-rooted")]
    fn re_rooting_a_sealed_log_panics() {
        let mut log = sample_log();
        log.seed(1);
    }

    #[test]
    fn errors_display() {
        let e = ReplayError::Truncated {
            expected: 5,
            found: 3,
        };
        assert!(e.to_string().contains("truncated"));
        let e = ReplayError::SnapshotStale {
            upto: 4,
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("stale"));
    }
}
