//! Functional parity across the removals.
//!
//! The paper's whole bet is that the kernel can shrink "while supporting
//! the complete functionality of the present system": removal must change
//! *where* code runs, never *what legitimate programs can do*. These tests
//! run identical user-level scenarios on the legacy supervisor and the
//! security kernel and demand identical observable results.

use mks_fs::{Acl, AclMode, DirMode, UserId};
use mks_hw::{RingBrackets, SegNo, Word};
use mks_kernel::monitor::Monitor;
use mks_kernel::subsystem::login;
use mks_kernel::world::{admin_user, System};
use mks_kernel::{KProcId, KernelConfig};
use mks_mls::Label;

fn root_of(sys: &mut System, pid: KProcId) -> SegNo {
    sys.world.bind_root(pid)
}

fn boot(cfg: KernelConfig) -> (System, KProcId) {
    let mut sys = System::new(cfg);
    let admin = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
    let root = root_of(&mut sys, admin);
    Monitor::create_directory(&mut sys.world, admin, root, "udd", Label::BOTTOM).unwrap();
    sys.world
        .fs
        .set_dir_acl_entry(
            mks_fs::FileSystem::ROOT,
            "udd",
            &admin_user(),
            "*.*.*",
            DirMode::SA,
        )
        .unwrap();
    (sys, admin)
}

/// A user-level scenario; returns its observable trace.
fn scenario(cfg: KernelConfig) -> Vec<String> {
    let mut out = Vec::new();
    let (mut sys, _admin) = boot(cfg);
    let jones = UserId::new("Jones", "CSR", "a");
    sys.world.auth.register(&jones, "pw", Label::BOTTOM);
    let pid = login(&mut sys.world, &jones, "pw", Label::BOTTOM, 4)
        .unwrap()
        .pid;

    // Create a tree and some segments by pathname.
    let root = root_of(&mut sys, pid);
    let udd = Monitor::initiate_dir(&mut sys.world, pid, root, "udd");
    let home = Monitor::create_directory(&mut sys.world, pid, udd, "Jones", Label::BOTTOM).unwrap();
    for name in ["alpha", "beta"] {
        Monitor::create_segment(
            &mut sys.world,
            pid,
            home,
            name,
            Acl::of("Jones.CSR.a", AclMode::RW),
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .unwrap();
    }
    // Write/read through pathname initiation.
    let alpha = Monitor::initiate_path(&mut sys.world, pid, ">udd>Jones>alpha").unwrap();
    for i in 0..10usize {
        Monitor::write(&mut sys.world, pid, alpha, i, Word::new((i * i) as u64)).unwrap();
    }
    for i in 0..10usize {
        let w = Monitor::read(&mut sys.world, pid, alpha, i).unwrap();
        out.push(format!("alpha[{i}]={}", w.raw()));
    }
    // Directory listing.
    let mut names = Monitor::list_dir(&mut sys.world, pid, home).unwrap();
    names.sort();
    out.push(format!("home={names:?}"));
    // Denials for a foreign user are also part of the observable contract.
    let smith = sys
        .world
        .create_process(UserId::new("Smith", "XYZ", "a"), Label::BOTTOM, 4);
    let denied = Monitor::initiate_path(&mut sys.world, smith, ">udd>Jones>alpha").is_err();
    out.push(format!("smith_denied={denied}"));
    // Terminate and re-initiate.
    Monitor::terminate(&mut sys.world, pid, alpha).unwrap();
    let again = Monitor::initiate_path(&mut sys.world, pid, ">udd>Jones>alpha").unwrap();
    let w = Monitor::read(&mut sys.world, pid, again, 3).unwrap();
    out.push(format!("after_reinitiate={}", w.raw()));
    out
}

#[test]
fn legitimate_programs_see_identical_behaviour() {
    let legacy = scenario(KernelConfig::legacy());
    let kernel = scenario(KernelConfig::kernel());
    assert_eq!(legacy, kernel);
}

#[test]
fn each_intermediate_rung_also_preserves_behaviour() {
    let base = scenario(KernelConfig::legacy());
    for cfg in [
        KernelConfig::legacy_linker_removed(),
        KernelConfig::legacy_both_removals(),
    ] {
        assert_eq!(base, scenario(cfg), "{}", cfg.name());
    }
}

#[test]
fn linking_resolves_identically_in_both_packagings() {
    use mks_linker::kernel_cfg::{LegacyLinkOutcome, LegacyLinker};
    use mks_linker::object::ObjectSegment;
    use mks_linker::snap::LinkEnv;
    use mks_linker::user_cfg::{UserLinkOutcome, UserLinker};
    use mks_linker::SearchRules;

    struct Env(mks_hw::IdMap<SegNo, ObjectSegment>, u16);
    impl LinkEnv for Env {
        fn initiate_segment(&mut self, dir: SegNo, name: &str) -> Option<SegNo> {
            if dir != SegNo(10) || name != "lib_" {
                return None;
            }
            let segno = SegNo(self.1);
            self.1 += 1;
            self.0.insert(
                segno,
                ObjectSegment::new("lib_", 64, vec![("f".into(), 7), ("g".into(), 21)], vec![]),
            );
            Some(segno)
        }
        fn entry_offset(&mut self, segno: SegNo, entry: &str) -> Option<usize> {
            self.0.get(&segno)?.entry_offset(entry)
        }
    }

    let image = ObjectSegment::new(
        "app",
        16,
        vec![("main".into(), 0)],
        vec![("lib_".into(), "f".into()), ("lib_".into(), "g".into())],
    )
    .encode();
    let rules = SearchRules::new(vec![SegNo(10)]);
    for link in 0..2 {
        let mut legacy = LegacyLinker::new();
        let mut user = UserLinker::new();
        let a =
            legacy.handle_linkage_fault(&mut Env(Default::default(), 100), &rules, 4, &image, link);
        let b =
            user.handle_linkage_fault(&mut Env(Default::default(), 100), &rules, 4, &image, link);
        match (a, b) {
            (LegacyLinkOutcome::Snapped(x), UserLinkOutcome::Snapped(y)) => {
                assert_eq!(x.offset, y.offset);
                assert_eq!(x.segno, y.segno);
            }
            other => panic!("{other:?}"),
        }
    }
}
