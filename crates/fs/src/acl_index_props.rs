//! The collision path of the ACL's digest-keyed exact index.
//!
//! Unit-test builds narrow [`principal_key`] to its low 3 bits, so the
//! ACLs here collide all the time: colliding literals land on the
//! scanned `wild` list, and lookups must still agree with the linear
//! specification. With the full-width key (every other build) nothing
//! collides, and `crates/fs/tests/acl_properties.rs` pins the work
//! units E18 claims.

use proptest::prelude::*;

use crate::acl::{principal_key, Acl, AclEntry, AclMode, UserId};

/// The work [`Acl::effective_counted`] must report: one probe when the
/// indexed holder of the principal's key names it, else the probe plus
/// the whole `wild` list.
fn expected_work<M: Copy + Default>(acl: &Acl<M>, u: &UserId) -> u32 {
    let key = principal_key(&u.person, &u.project, &u.tag);
    match acl.exact.get(&key) {
        Some(&i) if acl.entries()[i].matches(u) => 1,
        _ => 1 + acl.wild.len() as u32,
    }
}

#[test]
fn colliding_literals_fall_back_to_the_wild_list() {
    // Sixteen literals over an 8-slot key: at least half collide.
    let mut acl = Acl::of("*.CSR.*", AclMode::R);
    for i in 0..16 {
        acl.add(&format!("U{i}.CSR.a"), AclMode::RW);
    }
    assert!(acl.exact.len() <= 8);
    assert!(acl.wild.len() > 8, "wild: {:?}", acl.wild);
    for i in 0..16 {
        let u = UserId::new(&format!("U{i}"), "CSR", "a");
        assert_eq!(acl.effective(&u), Some(AclMode::RW), "{u:?}");
        assert_eq!(acl.effective_counted(&u).1, expected_work(&acl, &u));
        // Replacing a colliding literal edits it in place.
        acl.add(&format!("U{i}.CSR.a"), AclMode::REW);
        assert_eq!(acl.effective(&u), Some(AclMode::REW), "{u:?}");
    }
    assert_eq!(acl.entries().len(), 17);
}

/// Principals from a pool small enough to recur, so most ACLs hold
/// colliding literals.
fn arb_pattern() -> impl Strategy<Value = String> {
    let person = prop_oneof![
        3 => (0..12u32).prop_map(|i| format!("U{i}")),
        1 => Just("*".to_string()),
    ];
    let project = prop_oneof![
        3 => (0..2usize).prop_map(|i| ["CSR", "Guest"][i].to_string()),
        1 => Just("*".to_string()),
    ];
    let tag = prop_oneof![3 => Just("a".to_string()), 1 => Just("*".to_string())];
    (person, project, tag).prop_map(|(p, j, t)| format!("{p}.{j}.{t}"))
}

fn arb_mode() -> impl Strategy<Value = AclMode> {
    (0..4usize).prop_map(|i| [AclMode::NULL, AclMode::R, AclMode::RW, AclMode::REW][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every add or remove: `effective` agrees with the linear
    /// spec and reports the work the index layout implies, `add` never
    /// duplicates a pattern, and `remove` drops exactly its pattern.
    #[test]
    fn the_index_is_invisible_under_colliding_keys(
        steps in prop::collection::vec((any::<bool>(), arb_pattern(), arb_mode()), 0..40),
    ) {
        let mut acl = Acl::empty();
        for (add, pattern, mode) in &steps {
            let probe = AclEntry::new(pattern, *mode);
            let held = |acl: &Acl<AclMode>| {
                acl.entries().iter().filter(|e| e.same_pattern(&probe)).count()
            };
            if *add {
                acl.add(pattern, *mode);
                prop_assert_eq!(held(&acl), 1);
                prop_assert!(acl.entries().iter().any(|e| e.same_pattern(&probe) && e.mode == *mode));
            } else {
                let before = (held(&acl), acl.entries().len());
                prop_assert_eq!(acl.remove(pattern), before.0 == 1);
                prop_assert_eq!(acl.entries().len(), before.1 - before.0);
                prop_assert!(!acl.remove(pattern));
            }
            for i in 0..12 {
                for project in ["CSR", "Guest"] {
                    let u = UserId::new(&format!("U{i}"), project, "a");
                    prop_assert_eq!(acl.effective(&u), acl.effective_linear(&u));
                    prop_assert_eq!(acl.effective_counted(&u).1, expected_work(&acl, &u));
                }
            }
        }
    }
}
