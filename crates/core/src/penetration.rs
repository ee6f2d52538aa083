//! The penetration suite: Linde-style attacks against both configurations.
//!
//! "Penetration exercises involving a large number of different systems
//! have shown that, in all general-purpose systems confronted, a wily user
//! can construct a program that can obtain unauthorized access to
//! information stored within the system." Experiment E12 runs this catalog
//! — one attack per historical flaw class — against the legacy supervisor
//! and the security kernel, and tabulates who breaches where.
//!
//! Outcome semantics:
//! * [`AttackOutcome::Breach`] — the attack obtained unauthorized release,
//!   modification, or an information oracle;
//! * [`AttackOutcome::Denied`] — refused with an error that names the
//!   refusal;
//! * [`AttackOutcome::DeniedUninformative`] — refused *and* the attacker
//!   learned nothing (the kernel's preferred answer);
//! * [`AttackOutcome::AuthorizedDenialOnly`] — the "attack" only denies
//!   service within bounds the victim authorized (e.g. quota).

use mks_fs::{Acl, AclMode, UserId};
use mks_hw::{AccessMode, CpuModel, Fault, Machine, RingBrackets, Sdw, SegNo, Word};
use mks_linker::kernel_cfg::LegacyLinkOutcome;
use mks_linker::object::ObjectSegment;
use mks_linker::user_cfg::UserLinkOutcome;
use mks_mls::{Compartments, Label, Level};

use crate::auth::AuthError;
use crate::config::{KernelConfig, LinkerConfig, NamingConfig};
use crate::monitor::{AccessError, Monitor};
use crate::world::{admin_user, KProcId, KstState, System};

/// What an attack achieved.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AttackOutcome {
    /// Unauthorized release/modification/oracle obtained.
    Breach(String),
    /// Refused.
    Denied,
    /// Refused without revealing anything.
    DeniedUninformative,
    /// Only authorized denial of service achieved.
    AuthorizedDenialOnly,
}

impl AttackOutcome {
    /// True if the system lost.
    fn is_breach(&self) -> bool {
        matches!(self, AttackOutcome::Breach(_))
    }
}

/// One catalog row.
#[derive(Clone, Debug)]
pub struct AttackReport {
    /// Attack name.
    pub name: &'static str,
    /// Flaw class exercised.
    pub class: &'static str,
    /// What happened.
    pub outcome: AttackOutcome,
}

fn attacker() -> UserId {
    UserId::new("Mallory", "Guest", "a")
}

fn victim() -> UserId {
    UserId::new("Jones", "CSR", "a")
}

/// Builds a system with an open `>udd`, a victim process owning a private
/// segment `>udd>secrets`, and an attacker process.
fn arena(cfg: KernelConfig) -> (System, KProcId, KProcId, SegNo) {
    let mut sys = System::new(cfg);
    let admin = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
    let root = sys.world.bind_root(admin);
    Monitor::create_directory(&mut sys.world, admin, root, "udd", Label::BOTTOM).unwrap();
    sys.world
        .fs
        .set_dir_acl_entry(
            mks_fs::FileSystem::ROOT,
            "udd",
            &admin_user(),
            "*.*.*",
            mks_fs::DirMode::SMA,
        )
        .unwrap();
    let vic = sys.world.create_process(victim(), Label::BOTTOM, 4);
    let atk = sys.world.create_process(attacker(), Label::BOTTOM, 4);
    let root_v = sys.world.bind_root(vic);
    let udd_v = Monitor::initiate_dir(&mut sys.world, vic, root_v, "udd");
    let secret_seg = Monitor::create_segment(
        &mut sys.world,
        vic,
        udd_v,
        "secrets",
        Acl::of("Jones.CSR.a", AclMode::RW),
        RingBrackets::new(4, 4, 4),
        Label::BOTTOM,
    )
    .unwrap();
    Monitor::write(&mut sys.world, vic, secret_seg, 0, Word::new(0o31337)).unwrap();
    (sys, vic, atk, secret_seg)
}

fn udd_of(sys: &mut System, pid: KProcId) -> SegNo {
    let root = sys.world.bind_root(pid);
    Monitor::initiate_dir(&mut sys.world, pid, root, "udd")
}

/// 1/2. The linker attacks: feed the linkage-fault service a malstructured
/// object image / a wild link index.
fn linker_attack(cfg: KernelConfig, wild_index: bool) -> AttackOutcome {
    let mut env = NoEnv;
    let rules = mks_linker::SearchRules::new(vec![]);
    let caller = ObjectSegment::new(
        "trojan",
        10,
        vec![("main".into(), 0)],
        vec![("lib_".into(), "entry".into())],
    );
    let mut image = caller.encode();
    let link_index = if wild_index { 4096 } else { 0 };
    if !wild_index {
        image[4] = Word::new(1 << 20); // forged entry count
    }
    match cfg.linker {
        LinkerConfig::InKernel => {
            let mut l = mks_linker::kernel_cfg::LegacyLinker::new();
            match l.handle_linkage_fault(&mut env, &rules, 4, &image, link_index) {
                LegacyLinkOutcome::SupervisorBreach { kind, .. } => {
                    AttackOutcome::Breach(format!("supervisor malfunction: {kind}"))
                }
                _ => AttackOutcome::Denied,
            }
        }
        LinkerConfig::UserRing => {
            let mut l = mks_linker::user_cfg::UserLinker::new();
            match l.handle_linkage_fault(&mut env, &rules, 4, &image, link_index) {
                UserLinkOutcome::BadObject(_) => AttackOutcome::Denied,
                UserLinkOutcome::Snapped(_) => {
                    AttackOutcome::Breach("snapped a forged link".into())
                }
                UserLinkOutcome::Error(_) => AttackOutcome::Denied,
            }
        }
    }
}

/// A linking environment with nothing in it (the attacks fail earlier).
struct NoEnv;

impl mks_linker::LinkEnv for NoEnv {
    fn initiate_segment(&mut self, _dir: SegNo, _name: &str) -> Option<SegNo> {
        None
    }

    fn entry_offset(&mut self, _segno: SegNo, _entry: &str) -> Option<usize> {
        None
    }
}

/// 3. Read another user's ACL-protected segment.
fn acl_bypass(cfg: KernelConfig) -> AttackOutcome {
    let (mut sys, _vic, atk, _seg) = arena(cfg);
    let udd_a = udd_of(&mut sys, atk);
    match Monitor::initiate(&mut sys.world, atk, udd_a, "secrets") {
        Ok(segno) => match Monitor::read(&mut sys.world, atk, segno, 0) {
            Ok(w) if w == Word::new(0o31337) => {
                AttackOutcome::Breach("read the victim's data".into())
            }
            _ => AttackOutcome::Denied,
        },
        Err(AccessError::NoInfo) => AttackOutcome::DeniedUninformative,
        Err(_) => AttackOutcome::Denied,
    }
}

/// 4. Probe for the existence of directories the attacker cannot see.
fn existence_probe(cfg: KernelConfig) -> AttackOutcome {
    let (mut sys, _vic, atk, _seg) = arena(cfg);
    match cfg.naming {
        NamingConfig::InKernel => {
            // Legacy initiate distinguishes "no entry" from other errors:
            // compare the answers for an existing vs missing directory.
            let real = Monitor::initiate_path(&mut sys.world, atk, ">udd>secrets>x");
            let fake = Monitor::initiate_path(&mut sys.world, atk, ">udd>ghost>x");
            if real != fake {
                AttackOutcome::Breach("error codes form an existence oracle".into())
            } else {
                AttackOutcome::Denied
            }
        }
        NamingConfig::UserRing => {
            let real = Monitor::initiate_path(&mut sys.world, atk, ">udd>secrets>x");
            let fake = Monitor::initiate_path(&mut sys.world, atk, ">udd>ghost>x");
            if real == fake {
                AttackOutcome::DeniedUninformative
            } else {
                AttackOutcome::Breach("answers differ".into())
            }
        }
    }
}

/// 5/6. Cross-label flows. In the legacy configuration there *is* no
/// mandatory layer: a permissive ACL is the only line, and labels do
/// nothing — the attack succeeds by construction.
fn mls_flow(cfg: KernelConfig, read_up: bool) -> AttackOutcome {
    let mut sys = System::new(cfg);
    let admin = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
    let root = sys.world.bind_root(admin);
    Monitor::create_directory(&mut sys.world, admin, root, "udd", Label::BOTTOM).unwrap();
    sys.world
        .fs
        .set_dir_acl_entry(
            mks_fs::FileSystem::ROOT,
            "udd",
            &admin_user(),
            "*.*.*",
            mks_fs::DirMode::SA,
        )
        .unwrap();
    let secret = Label::new(Level::SECRET, Compartments::of(&[1]));
    // Upgraded directory: the BOTTOM admin creates a SECRET-labeled vault.
    let udd_admin = udd_of(&mut sys, admin);
    Monitor::create_directory(&mut sys.world, admin, udd_admin, "vault", secret).unwrap();
    let udd_uid = sys
        .world
        .fs
        .peek_branch(mks_fs::FileSystem::ROOT, "udd")
        .unwrap()
        .uid;
    sys.world
        .fs
        .set_dir_acl_entry(
            udd_uid,
            "vault",
            &admin_user(),
            "*.*.*",
            mks_fs::DirMode::SA,
        )
        .unwrap();
    let spid = sys.world.create_process(victim(), secret, 4);
    let udd_s = udd_of(&mut sys, spid);
    let vault_s = Monitor::initiate_dir(&mut sys.world, spid, udd_s, "vault");
    let seg = Monitor::create_segment(
        &mut sys.world,
        spid,
        vault_s,
        "dossier",
        Acl::of("*.*.*", AclMode::RW), // ACL wide open: only labels protect
        RingBrackets::new(4, 4, 4),
        secret,
    )
    .unwrap();
    Monitor::write(&mut sys.world, spid, seg, 0, Word::new(0o4242)).unwrap();
    let low = sys.world.create_process(attacker(), Label::BOTTOM, 4);
    let udd_l = udd_of(&mut sys, low);
    if read_up {
        let vault_l = Monitor::initiate_dir(&mut sys.world, low, udd_l, "vault");
        match Monitor::initiate(&mut sys.world, low, vault_l, "dossier") {
            Ok(s) => match Monitor::read(&mut sys.world, low, s, 0) {
                Ok(w) if w == Word::new(0o4242) => {
                    AttackOutcome::Breach("read up across labels".into())
                }
                _ => AttackOutcome::Denied,
            },
            Err(_) => AttackOutcome::DeniedUninformative,
        }
    } else {
        // Write down: the SECRET process tries to modulate a BOTTOM
        // segment (a signaling channel to the low attacker).
        let pub_seg = Monitor::create_segment(
            &mut sys.world,
            low,
            udd_l,
            "public",
            Acl::of("*.*.*", AclMode::RW),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap();
        let _ = pub_seg;
        let pub_s = match Monitor::initiate(&mut sys.world, spid, udd_s, "public") {
            Ok(s) => s,
            Err(_) => return AttackOutcome::Denied,
        };
        match Monitor::write(&mut sys.world, spid, pub_s, 0, Word::new(1)) {
            Ok(()) => AttackOutcome::Breach("wrote down across labels".into()),
            Err(_) => AttackOutcome::Denied,
        }
    }
}

/// 7/8/9. Hardware ring attacks (configuration-independent: the 6180
/// enforces these in both configurations).
fn ring_attack(which: u8) -> AttackOutcome {
    let mut m = Machine::new(CpuModel::H6180, 4);
    let astx = m.ast.activate(mks_hw::SegUid(50), mks_hw::PAGE_WORDS);
    m.ast.entry_mut(astx).pt.ptw_mut(0).state = mks_hw::ast::PageState::InCore(mks_hw::FrameId(0));
    let mut sp = mks_hw::AddrSpace::new();
    match which {
        // Call a gate at a non-entry offset.
        7 => {
            sp.set(SegNo(1), Sdw::gate(astx, RingBrackets::gate(0, 5), 3));
            match m.call(&sp, 4, SegNo(1), 200) {
                Err(Fault::NotAGate { .. }) => AttackOutcome::Denied,
                Ok(_) => AttackOutcome::Breach("entered kernel at arbitrary offset".into()),
                Err(_) => AttackOutcome::Denied,
            }
        }
        // Call from beyond the call bracket.
        8 => {
            sp.set(SegNo(1), Sdw::gate(astx, RingBrackets::gate(0, 3), 3));
            match m.call(&sp, 5, SegNo(1), 0) {
                Err(Fault::RingViolation { .. }) => AttackOutcome::Denied,
                Ok(_) => AttackOutcome::Breach("called inside from beyond r3".into()),
                Err(_) => AttackOutcome::Denied,
            }
        }
        // Write a ring-0 data segment from ring 4.
        _ => {
            sp.set(
                SegNo(1),
                Sdw::plain(astx, AccessMode::RW, RingBrackets::private_to(0)),
            );
            match m.write(&sp, 4, SegNo(1), 0, Word::new(1)) {
                Err(Fault::RingViolation { .. }) => AttackOutcome::Denied,
                Ok(()) => AttackOutcome::Breach("wrote kernel data from ring 4".into()),
                Err(_) => AttackOutcome::Denied,
            }
        }
    }
}

/// 10. Storage residue: delete a secret segment, then try to recover its
///     contents from freshly allocated storage.
fn residue(cfg: KernelConfig) -> AttackOutcome {
    let (mut sys, vic, atk, seg) = arena(cfg);
    // Victim deletes the segment (monitor-level: terminate + fs delete +
    // storage scrub via segment control).
    let uid = sys.world.proc(vic).kst.core().entry(seg).unwrap().uid;
    Monitor::terminate(&mut sys.world, vic, seg).unwrap();
    mks_vm::SegControl::delete(&mut sys.world.vm, uid).unwrap();
    let (dir, _) = sys.world.fs.find_by_uid(uid).expect("branch still listed");
    sys.world
        .fs
        .delete_branch(dir, "secrets", &victim())
        .unwrap();
    // Attacker allocates a fresh segment and scans it for the plaintext.
    let udd_a = udd_of(&mut sys, atk);
    let fresh = Monitor::create_segment(
        &mut sys.world,
        atk,
        udd_a,
        "scavenger",
        Acl::of("Mallory.Guest.a", AclMode::RW),
        RingBrackets::new(4, 4, 4),
        Label::BOTTOM,
    )
    .unwrap();
    for off in 0..mks_hw::PAGE_WORDS {
        if Monitor::read(&mut sys.world, atk, fresh, off).unwrap() == Word::new(0o31337) {
            return AttackOutcome::Breach("recovered residue from freed storage".into());
        }
    }
    AttackOutcome::Denied
}

/// 11. Password guessing with an existence probe.
fn password_attack(cfg: KernelConfig) -> AttackOutcome {
    let mut sys = System::new(cfg);
    sys.world
        .auth
        .register(&victim(), "correct horse", Label::BOTTOM);
    // Existence oracle?
    let known = sys
        .world
        .auth
        .authenticate(&victim(), "guess-1", Label::BOTTOM);
    let ghost =
        sys.world
            .auth
            .authenticate(&UserId::new("Nobody", "X", "a"), "guess-1", Label::BOTTOM);
    if known != ghost {
        return AttackOutcome::Breach("login errors reveal which accounts exist".into());
    }
    // Brute force until lockout.
    for i in 0..100 {
        match sys
            .world
            .auth
            .authenticate(&victim(), &format!("guess-{i}"), Label::BOTTOM)
        {
            Err(AuthError::Locked) => return AttackOutcome::Denied,
            Err(AuthError::BadCredentials) => {}
            Err(AuthError::ClearanceExceeded) => {}
            Ok(_) => return AttackOutcome::Breach("guessed the password".into()),
        }
    }
    AttackOutcome::Breach("unlimited guessing permitted".into())
}

/// 12. Notify an event channel the attacker has no write access to.
fn ipc_attack(cfg: KernelConfig) -> AttackOutcome {
    let (mut sys, _vic, atk, _seg) = arena(cfg);
    // The victim's mailbox is (secrets, word 0); the attacker never even
    // obtains a segno for it, and a forged segno fails the probe.
    let forged = SegNo(200);
    match Monitor::may_notify_channel(&mut sys.world, atk, forged, 0) {
        Ok(()) => AttackOutcome::Breach("notified without write access".into()),
        Err(_) => AttackOutcome::Denied,
    }
}

/// 13. Exhaust a shared directory's quota.
fn quota_dos(_cfg: KernelConfig) -> AttackOutcome {
    // Quota is a per-subtree bound: the attacker can exhaust only cells he
    // can charge, and the overflow error is an authorized denial.
    let mut cell = mks_fs::QuotaCell::with_limit(8);
    for _ in 0..8 {
        cell.charge(1).unwrap();
    }
    match cell.charge(1) {
        Err(_) => AttackOutcome::AuthorizedDenialOnly,
        Ok(()) => AttackOutcome::Breach("quota not enforced".into()),
    }
}

/// 14. Plant a reference name so an inner-ring subsystem links to the
///     attacker's code.
fn refname_plant(cfg: KernelConfig) -> AttackOutcome {
    match cfg.naming {
        NamingConfig::InKernel => {
            // The legacy gate accepts a caller-chosen ring number with no
            // validation: ring-4 code binds into ring 1's table.
            let (mut sys, vic, _atk, seg) = arena(cfg);
            let (_, proc) = sys.world.fs_and_proc_mut(vic);
            let KstState::Legacy(kst) = &mut proc.kst else {
                unreachable!()
            };
            kst.set_refname(1, "sqrt_", seg).unwrap(); // attacker-controlled call
            match kst.refname(1, "sqrt_") {
                Ok(s) if s == seg => AttackOutcome::Breach(
                    "ring-4 call bound a reference name in ring 1's table".into(),
                ),
                _ => AttackOutcome::Denied,
            }
        }
        NamingConfig::UserRing => {
            // Post-removal: reference names are per-ring private state of
            // the linker; a ring-4 bind lands in ring 4's table only.
            let mut rn = mks_linker::RefNameManager::new();
            rn.bind(4, "sqrt_", SegNo(200));
            if rn.lookup(1, "sqrt_").is_some() {
                AttackOutcome::Breach("bind leaked across rings".into())
            } else {
                AttackOutcome::DeniedUninformative
            }
        }
    }
}

/// 15. Retain access after revocation: the victim removes the attacker
///     from an ACL; does the attacker's already-granted descriptor die?
fn revocation_gap(cfg: KernelConfig) -> AttackOutcome {
    let mut sys = System::new(cfg);
    let admin = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
    let root = sys.world.bind_root(admin);
    Monitor::create_directory(&mut sys.world, admin, root, "udd", Label::BOTTOM).unwrap();
    sys.world
        .fs
        .set_dir_acl_entry(
            mks_fs::FileSystem::ROOT,
            "udd",
            &admin_user(),
            "*.*.*",
            mks_fs::DirMode::SMA,
        )
        .unwrap();
    let vic = sys.world.create_process(victim(), Label::BOTTOM, 4);
    let atk = sys.world.create_process(attacker(), Label::BOTTOM, 4);
    let udd_v = udd_of(&mut sys, vic);
    let mut acl = Acl::of("Jones.CSR.a", AclMode::RW);
    acl.add("Mallory.Guest.a", AclMode::R); // granted… for now
    Monitor::create_segment(
        &mut sys.world,
        vic,
        udd_v,
        "minutes",
        acl,
        RingBrackets::new(4, 4, 4),
        Label::BOTTOM,
    )
    .unwrap();
    let udd_a = udd_of(&mut sys, atk);
    let seg_a = Monitor::initiate(&mut sys.world, atk, udd_a, "minutes").expect("granted");
    // The victim revokes Mallory and then writes something sensitive.
    Monitor::set_segment_acl(
        &mut sys.world,
        vic,
        udd_v,
        "minutes",
        Acl::of("Jones.CSR.a", AclMode::RW),
    )
    .unwrap();
    let seg_v = Monitor::initiate(&mut sys.world, vic, udd_v, "minutes").unwrap();
    Monitor::write(&mut sys.world, vic, seg_v, 0, Word::new(0o52525)).unwrap();
    match Monitor::read(&mut sys.world, atk, seg_a, 0) {
        Ok(w) if w == Word::new(0o52525) => {
            AttackOutcome::Breach("stale descriptor survives ACL revocation".into())
        }
        Ok(_) => AttackOutcome::Denied,
        Err(_) => AttackOutcome::Denied,
    }
}

/// Runs the whole catalog against `cfg`.
pub fn run_catalog(cfg: KernelConfig) -> Vec<AttackReport> {
    vec![
        AttackReport {
            name: "malformed object segment to linker",
            class: "argument validation",
            outcome: linker_attack(cfg, false),
        },
        AttackReport {
            name: "wild link index to linker",
            class: "argument validation",
            outcome: linker_attack(cfg, true),
        },
        AttackReport {
            name: "read another user's segment",
            class: "discretionary control",
            outcome: acl_bypass(cfg),
        },
        AttackReport {
            name: "probe directory existence",
            class: "existence oracle",
            outcome: existence_probe(cfg),
        },
        AttackReport {
            name: "read up across labels",
            class: "mandatory policy",
            outcome: mls_flow(cfg, true),
        },
        AttackReport {
            name: "write down across labels",
            class: "mandatory policy",
            outcome: mls_flow(cfg, false),
        },
        AttackReport {
            name: "enter gate at non-entry offset",
            class: "hardware rings",
            outcome: ring_attack(7),
        },
        AttackReport {
            name: "call gate from beyond r3",
            class: "hardware rings",
            outcome: ring_attack(8),
        },
        AttackReport {
            name: "write ring-0 data from ring 4",
            class: "hardware rings",
            outcome: ring_attack(9),
        },
        AttackReport {
            name: "recover residue of deleted segment",
            class: "storage residue",
            outcome: residue(cfg),
        },
        AttackReport {
            name: "password guessing + account probe",
            class: "authentication",
            outcome: password_attack(cfg),
        },
        AttackReport {
            name: "notify channel without write access",
            class: "ipc control",
            outcome: ipc_attack(cfg),
        },
        AttackReport {
            name: "exhaust shared quota",
            class: "denial of service",
            outcome: quota_dos(cfg),
        },
        AttackReport {
            name: "plant cross-ring reference name",
            class: "naming",
            outcome: refname_plant(cfg),
        },
        AttackReport {
            name: "retain access after ACL revocation",
            class: "revocation",
            outcome: revocation_gap(cfg),
        },
    ]
}

/// Number of breaches in a report set.
pub fn breaches(reports: &[AttackReport]) -> usize {
    reports.iter().filter(|r| r.outcome.is_breach()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_legacy_supervisor_falls_to_the_catalog() {
        let reports = run_catalog(KernelConfig::legacy());
        assert_eq!(reports.len(), 15);
        let b = breaches(&reports);
        assert!(b >= 6, "expected several breaches on legacy, got {b}");
        // The linker attack in particular must succeed there.
        assert!(reports[0].outcome.is_breach());
    }

    #[test]
    fn the_security_kernel_resists_every_attack() {
        let reports = run_catalog(KernelConfig::kernel());
        assert_eq!(breaches(&reports), 0, "{reports:#?}");
        // And the only "win" is an authorized denial.
        assert!(reports
            .iter()
            .any(|r| r.outcome == AttackOutcome::AuthorizedDenialOnly));
    }

    #[test]
    fn hardware_attacks_fail_in_both_configurations() {
        for which in [7, 8, 9] {
            assert!(!ring_attack(which).is_breach());
        }
    }

    #[test]
    fn intermediate_configurations_shrink_the_breach_count() {
        let legacy = breaches(&run_catalog(KernelConfig::legacy()));
        let linker_fixed = breaches(&run_catalog(KernelConfig::legacy_linker_removed()));
        let both = breaches(&run_catalog(KernelConfig::legacy_both_removals()));
        assert!(linker_fixed < legacy);
        assert!(both <= linker_fixed);
    }
}
