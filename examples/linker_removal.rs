//! The linker removal, side by side.
//!
//! The same trojan object segment is fed to the supervisor-resident linker
//! (legacy: the fault is serviced in ring 0) and to the user-ring linker
//! (kernel configuration: the fault is reflected back to the faulting
//! ring). One breaches the supervisor; the other is a contained,
//! process-local error. Well-formed programs link identically in both.
//!
//! ```text
//! cargo run -p mks-bench --example linker_removal
//! ```

use mks_hw::{IdMap, SegNo, Word};
use mks_linker::kernel_cfg::{LegacyLinkOutcome, LegacyLinker};
use mks_linker::object::ObjectSegment;
use mks_linker::snap::LinkEnv;
use mks_linker::user_cfg::{UserLinkOutcome, UserLinker};
use mks_linker::SearchRules;
use std::collections::HashMap;

/// A little library world: one directory of object segments.
struct Library {
    dir: SegNo,
    objects: HashMap<String, ObjectSegment>,
    bound: IdMap<SegNo, ObjectSegment>,
    next: u16,
}

impl Library {
    fn new() -> Library {
        let mut objects = HashMap::new();
        for (name, entries) in [
            ("sqrt_", vec![("sqrt".to_string(), 12)]),
            (
                "ioa_",
                vec![("format".to_string(), 0), ("print".to_string(), 30)],
            ),
        ] {
            objects.insert(
                name.to_string(),
                ObjectSegment::new(name, 100, entries, vec![]),
            );
        }
        Library {
            dir: SegNo(10),
            objects,
            bound: IdMap::default(),
            next: 100,
        }
    }
}

impl LinkEnv for Library {
    fn initiate_segment(&mut self, dir: SegNo, name: &str) -> Option<SegNo> {
        if dir != self.dir {
            return None;
        }
        let obj = self.objects.get(name)?.clone();
        let segno = SegNo(self.next);
        self.next += 1;
        self.bound.insert(segno, obj);
        Some(segno)
    }

    fn entry_offset(&mut self, segno: SegNo, entry: &str) -> Option<usize> {
        self.bound.get(&segno)?.entry_offset(entry)
    }
}

fn main() {
    let rules = SearchRules::new(vec![SegNo(10)]);

    // An honest program: calls sqrt_$sqrt and ioa_$print.
    let honest = ObjectSegment::new(
        "report_gen",
        50,
        vec![("main".into(), 0)],
        vec![
            ("sqrt_".into(), "sqrt".into()),
            ("ioa_".into(), "print".into()),
        ],
    )
    .encode();

    // A malicious "program": its linkage header claims 2^20 entries.
    let mut trojan = honest.clone();
    trojan[4] = Word::new(1 << 20);

    println!("--- legacy configuration: linker in ring 0 ---");
    let mut legacy = LegacyLinker::new();
    let mut lib = Library::new();
    for link in 0..2 {
        match legacy.handle_linkage_fault(&mut lib, &rules, 4, &honest, link) {
            LegacyLinkOutcome::Snapped(s) => {
                println!(
                    "  honest link {link} snapped to {:?} offset {}",
                    s.segno, s.offset
                )
            }
            other => panic!("{other:?}"),
        }
    }
    match legacy.handle_linkage_fault(&mut lib, &rules, 4, &trojan, 0) {
        LegacyLinkOutcome::SupervisorBreach {
            stray_address,
            kind,
        } => {
            println!("  trojan: SUPERVISOR BREACH — {kind} (stray address {stray_address:#o})");
            println!("  (ring-0 code was driven out of bounds by user data)");
        }
        other => panic!("{other:?}"),
    }

    println!("\n--- kernel configuration: linker in the faulting ring ---");
    let mut user = UserLinker::new();
    let mut lib = Library::new();
    for link in 0..2 {
        match user.handle_linkage_fault(&mut lib, &rules, 4, &honest, link) {
            UserLinkOutcome::Snapped(s) => {
                println!(
                    "  honest link {link} snapped to {:?} offset {}",
                    s.segno, s.offset
                )
            }
            other => panic!("{other:?}"),
        }
    }
    match user.handle_linkage_fault(&mut lib, &rules, 4, &trojan, 0) {
        UserLinkOutcome::BadObject(e) => {
            println!("  trojan: rejected in the user's own ring — {e}");
            println!("  (the damage radius is the faulting process itself)");
        }
        other => panic!("{other:?}"),
    }

    println!("\nsame function, ten fewer supervisor gates, one less way in.");
}
