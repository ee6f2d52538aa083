//! Deleting a segment revokes every descriptor for it, in both
//! configurations. A process that still has the segment initiated keeps
//! its segment number (the KST entry waits for that process's own
//! `terminate`) but loses the SDW. A descriptor that outlived its
//! segment named a freed AST slot: following it panicked the kernel
//! ("stale AST index"), and once the slot was reused it reached
//! whatever segment had been activated into it.
//!
//! The scenarios run through `KernelStateMachine::apply`, so each is a
//! sealed commit stream.

use mks_fs::{Acl, AclMode, UserId};
use mks_hw::{RingBrackets, SegNo};
use mks_kernel::statemachine::{Commit, Genesis, KernelStateMachine, Outcome};
use mks_kernel::world::admin_user;
use mks_kernel::{KProcId, KernelConfig};
use mks_mls::Label;

/// A world where Smith holds a descriptor for a deleted segment.
struct Stale {
    sm: KernelStateMachine,
    admin: KProcId,
    root: SegNo,
    smith: KProcId,
    seg: SegNo,
}

fn create_process(sm: &mut KernelStateMachine, user: UserId) -> KProcId {
    let commit = Commit::CreateProcess {
        user,
        label: Label::BOTTOM,
        ring: 4,
    };
    match sm.apply(&commit) {
        Outcome::Pid(pid) => pid,
        other => panic!("create process: {other:?}"),
    }
}

fn segno(sm: &mut KernelStateMachine, commit: Commit) -> SegNo {
    match sm.apply(&commit) {
        Outcome::Seg(s) => s,
        other => panic!("{commit:?}: {other:?}"),
    }
}

fn create_segment(
    sm: &mut KernelStateMachine,
    pid: KProcId,
    dir: SegNo,
    name: &str,
    acl: &str,
) -> SegNo {
    segno(
        sm,
        Commit::CreateSegment {
            pid,
            dir,
            name: name.into(),
            acl: Acl::of(acl, AclMode::RW),
            brackets: RingBrackets::new(4, 4, 4),
            label: Label::BOTTOM,
        },
    )
}

/// The administrator creates a world-writable segment in the root,
/// Smith initiates and reads it, and the administrator deletes it.
fn stale_descriptor(cfg: KernelConfig) -> Stale {
    let mut sm = Genesis {
        cfg,
        ..Genesis::kernel_small()
    }
    .build();
    let admin = create_process(&mut sm, admin_user());
    let root = segno(&mut sm, Commit::BindRoot { pid: admin });
    create_segment(&mut sm, admin, root, "public", "*.*.*");
    let smith = create_process(&mut sm, UserId::new("Smith", "Guest", "a"));
    let smith_root = segno(&mut sm, Commit::BindRoot { pid: smith });
    let seg = segno(
        &mut sm,
        Commit::Initiate {
            pid: smith,
            dir: smith_root,
            name: "public".into(),
        },
    );
    let read = Commit::Read {
        pid: smith,
        seg,
        offset: 0,
    };
    assert_eq!(sm.apply(&read), Outcome::Value(0));
    let delete = Commit::DeleteSegment {
        pid: admin,
        dir: root,
        name: "public".into(),
    };
    assert_eq!(sm.apply(&delete), Outcome::Unit);
    Stale {
        sm,
        admin,
        root,
        smith,
        seg,
    }
}

fn refused(out: &Outcome) -> bool {
    matches!(out, Outcome::Refused(e) if e.starts_with("Fault(NoDescriptor"))
}

#[test]
fn deleting_a_segment_revokes_every_descriptor() {
    for cfg in [KernelConfig::legacy(), KernelConfig::kernel()] {
        let Stale {
            mut sm, smith, seg, ..
        } = stale_descriptor(cfg);
        // The descriptor named a freed AST slot; following it panicked.
        // Now it faults like any unbound segment number.
        let read = sm.apply(&Commit::Read {
            pid: smith,
            seg,
            offset: 0,
        });
        assert!(refused(&read), "{cfg:?}: {read:?}");
        // Smith's KST entry stays until Smith terminates it.
        let terminate = Commit::Terminate { pid: smith, seg };
        assert_eq!(sm.apply(&terminate), Outcome::Unit, "{cfg:?}");
    }
}

#[test]
fn a_stale_descriptor_cannot_reach_the_segment_that_reuses_its_slot() {
    for cfg in [KernelConfig::legacy(), KernelConfig::kernel()] {
        let Stale {
            mut sm,
            admin,
            root,
            smith,
            seg,
        } = stale_descriptor(cfg);
        // A segment only the administrator may touch is activated into
        // the freed AST slot.
        let private = create_segment(&mut sm, admin, root, "private", "Admin.SysAdmin.a");
        let secret = Commit::Write {
            pid: admin,
            seg: private,
            offset: 0,
            value: 0o4242,
        };
        assert_eq!(sm.apply(&secret), Outcome::Unit);
        let read = sm.apply(&Commit::Read {
            pid: smith,
            seg,
            offset: 0,
        });
        assert!(refused(&read), "{cfg:?}: Smith read {read:?}");
        let write = sm.apply(&Commit::Write {
            pid: smith,
            seg,
            offset: 0,
            value: 1,
        });
        assert!(refused(&write), "{cfg:?}: Smith wrote {write:?}");
        let check = Commit::Read {
            pid: admin,
            seg: private,
            offset: 0,
        };
        assert_eq!(sm.apply(&check), Outcome::Value(0o4242), "{cfg:?}");
    }
}
