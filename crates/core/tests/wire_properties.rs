//! Property tests on the byte-level wire codec (E21 satellite): the
//! sealed commit log and machine snapshots round-trip through
//! `encode`/`decode` for arbitrary commit mixes, truncation at *every*
//! cut point is refused with a typed error, and no single-byte
//! corruption is ever silently accepted as the original artifact.

use mks_fs::{Acl, AclMode};
use mks_hw::{RingBrackets, SegNo};
use mks_kernel::statemachine::{
    decode_commit_log, decode_snapshot, encode_commit_log, encode_snapshot, snapshot_at, Commit,
    CommitLog, Genesis, WireError,
};
use mks_kernel::world::KProcId;
use mks_kernel::AuditEvent;
use mks_mls::{Compartments, Label, Level};
use proptest::prelude::*;

/// An ACL of several exact principals (and perhaps `*.*.*`), built the
/// way the kernel edits one: additions, then removals of some entries.
/// The removals leave the ACL's lookup index shaped by its history,
/// which the decoder's freshly built copy does not share; the seal must
/// not see the difference.
fn arb_acl() -> impl Strategy<Value = Acl<AclMode>> {
    (
        any::<bool>(),
        prop::collection::vec(0u32..32, 0..20),
        prop::collection::vec(any::<prop::sample::Index>(), 0..16),
    )
        .prop_map(|(wild, added, removed)| {
            let mut acl = Acl::empty();
            if wild {
                acl.add("*.*.*", AclMode::R);
            }
            for p in added {
                let mode = [AclMode::R, AclMode::RW, AclMode::REW][p as usize % 3];
                acl.add(&format!("P{p}.Proj.a"), mode);
            }
            for r in removed {
                let entries = acl.entries();
                if entries.is_empty() {
                    break;
                }
                let e = &entries[r.index(entries.len())];
                let pattern = format!("{}.{}.{}", e.person, e.project, e.tag);
                acl.remove(&pattern);
            }
            acl
        })
}

/// Commits spanning every codec feature class: scalar-only, strings,
/// options, edited ACLs, labels and nested audit events.
fn arb_commit() -> impl Strategy<Value = Commit> {
    prop_oneof![
        (0u32..4).prop_map(|times| Commit::Tick { times }),
        Just(Commit::CrashPoll),
        Just(Commit::Disarm),
        Just(Commit::Salvage),
        Just(Commit::BootCheck),
        (0u32..3).prop_map(|daemon| Commit::Wakeup { daemon }),
        (0u32..9, 0u16..9, "[a-z]{1,12}").prop_map(|(pid, dir, name)| Commit::Initiate {
            pid: KProcId(pid),
            dir: SegNo(dir),
            name,
        }),
        (0u32..9, "[a-z_$]{1,10}", "[a-z_]{1,10}").prop_map(|(pid, gate, entry)| {
            Commit::CallGate {
                pid: KProcId(pid),
                gate,
                entry,
            }
        }),
        (0u32..9, 0u16..9, 0u64..1 << 20).prop_map(|(pid, dir, limit_pages)| Commit::SetQuota {
            pid: KProcId(pid),
            dir: SegNo(dir),
            limit_pages,
        }),
        (0u32..9, 0u16..9, 0u64..64, any::<u64>()).prop_map(|(pid, seg, offset, value)| {
            Commit::Write {
                pid: KProcId(pid),
                seg: SegNo(seg),
                offset,
                value,
            }
        }),
        (0u32..9, 0u16..9, "[a-z]{1,8}", arb_acl()).prop_map(|(pid, dir, name, acl)| {
            Commit::SetSegmentAcl {
                pid: KProcId(pid),
                dir: SegNo(dir),
                name,
                acl,
            }
        }),
        (
            (0u32..9, 0u16..9, "[a-z]{1,8}", arb_acl()),
            (0u8..8, 0u8..8, 0u8..8, 0u8..4, any::<u64>()),
        )
            .prop_map(
                |((pid, dir, name, acl), (r1, r2, r3, level, compartments))| {
                    Commit::CreateSegment {
                        pid: KProcId(pid),
                        dir: SegNo(dir),
                        name,
                        acl,
                        brackets: RingBrackets::new(r1, r2, r3),
                        label: Label::new(Level(level), Compartments(compartments)),
                    }
                }
            ),
        (any::<bool>(), "[a-z ]{0,20}").prop_map(|(success, what)| Commit::Audit {
            who: None,
            event: if success {
                AuditEvent::Login { success }
            } else {
                AuditEvent::AccessDenied { what }
            },
        }),
    ]
}

fn sealed_log(base: u64, commits: &[Commit]) -> CommitLog {
    let mut log = CommitLog::new();
    log.seed(base);
    for c in commits {
        log.append(c.clone());
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The byte codec is the identity on honest logs: base, length,
    /// head and every sealed entry survive, and the decoded log still
    /// chain-verifies.
    #[test]
    fn commit_logs_round_trip_through_the_wire(
        base in any::<u64>(),
        commits in prop::collection::vec(arb_commit(), 0..20),
    ) {
        let log = sealed_log(base, &commits);
        let bytes = encode_commit_log(&log);
        let back = decode_commit_log(&bytes).expect("honest bytes decode");
        prop_assert_eq!(back.base(), log.base());
        prop_assert_eq!(back.len(), log.len());
        prop_assert_eq!(back.head(), log.head());
        prop_assert_eq!(back.entries(), log.entries());
        prop_assert!(back.verify().is_ok());
    }

    /// Truncating the encoding at ANY cut point is refused with a
    /// typed error — never a panic, never a silently shorter log.
    #[test]
    fn truncation_at_every_cut_point_is_refused(
        base in any::<u64>(),
        commits in prop::collection::vec(arb_commit(), 1..8),
        cut in any::<prop::sample::Index>(),
    ) {
        let bytes = encode_commit_log(&sealed_log(base, &commits));
        let at = cut.index(bytes.len());
        prop_assert!(decode_commit_log(&bytes[..at]).is_err());
    }

    /// Tamper evidence: flipping any single byte either fails to
    /// decode (typed), fails chain verification, or yields a log that
    /// is visibly not the original. A corrupted artifact is never
    /// accepted as the honest one.
    #[test]
    fn single_byte_corruption_is_never_silently_accepted(
        base in any::<u64>(),
        commits in prop::collection::vec(arb_commit(), 1..8),
        at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let log = sealed_log(base, &commits);
        let mut bytes = encode_commit_log(&log);
        let i = at.index(bytes.len());
        bytes[i] ^= flip;
        if let Ok(back) = decode_commit_log(&bytes) {
            let same = back.verify().is_ok()
                && back.base() == log.base()
                && back.entries() == log.entries();
            prop_assert!(!same, "corrupt byte {i} decoded to the original log");
        }
    }

    /// Snapshots round-trip at arbitrary prefixes of a real kernel
    /// run, and a snapshot never decodes against a foreign genesis.
    #[test]
    fn snapshots_round_trip_and_refuse_foreign_genesis(
        ticks in 1u32..6,
        cut in any::<u64>(),
    ) {
        let genesis = Genesis::kernel_small();
        let mut sm = genesis.build();
        sm.apply(&Commit::Tick { times: ticks });
        sm.apply(&Commit::Salvage);
        let log = &sm.world().commits;
        let upto = cut % (log.len() + 1);
        let snap = snapshot_at(&genesis, log, upto).expect("prefix snapshots");
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes, &genesis).expect("snapshot decodes");
        prop_assert_eq!(&back, &snap);
        let mut foreign = genesis;
        foreign.frames += 1;
        prop_assert!(matches!(
            decode_snapshot(&bytes, &foreign),
            Err(WireError::ForeignGenesis { .. })
        ));
    }
}
