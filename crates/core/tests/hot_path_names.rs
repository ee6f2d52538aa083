//! The names the hot path no longer formats.
//!
//! The monitor's sketch names come from a static `[op][class]` table and
//! each process's principal is rendered once, at creation. Both must
//! stay exactly what per-op formatting used to produce, because the
//! snapshot keys, the exemplars and the trace records carry them (and
//! the metering digest hashes them). A table entry that drifts from
//! `q.monitor.<op>.<class>` would silently rename a snapshot key; this
//! test makes it fail loudly instead.

use mks_fs::UserId;
use mks_kernel::config::KernelConfig;
use mks_kernel::monitor::MonitorOp;
use mks_kernel::pressure::Priority;
use mks_kernel::world::{admin_user, System};
use mks_mls::Label;

#[test]
fn every_sketch_name_is_the_formatted_name() {
    let mut seen = std::collections::BTreeSet::new();
    for &op in MonitorOp::ALL {
        for class in Priority::ALL {
            let want = format!("q.monitor.{}.{}", op.name(), class.name());
            assert_eq!(op.sketch_name(class), want, "{op:?} at {class:?}");
            assert!(seen.insert(want), "{op:?} repeats another op's name");
        }
    }
    assert_eq!(
        seen.len(),
        MonitorOp::ALL.len() * Priority::ALL.len(),
        "one distinct sketch per (op, class)"
    );
}

#[test]
fn each_process_renders_its_principal_once_and_exactly() {
    for cfg in [KernelConfig::kernel(), KernelConfig::legacy()] {
        let mut sys = System::new(cfg);
        let users = [
            admin_user(),
            UserId::new("Jones", "CSR", "a"),
            UserId::new("Jones", "CSR", "borrowed"),
            UserId::new("Load123456", "Traffic", "a"),
        ];
        for user in users {
            let pid = sys.world.create_process(user.clone(), Label::BOTTOM, 4);
            let proc = sys.world.proc(pid);
            assert_eq!(&**proc.principal(), user.to_acl_string());
            assert_eq!(proc.user, user);
        }
    }
}
