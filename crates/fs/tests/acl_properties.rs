//! Property tests on ACL matching and pathname parsing.

use mks_fs::acl::{Acl, AclEntry, AclMode, UserId};
use mks_fs::pathres::parse_path;
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9]{0,6}"
}

fn arb_component() -> impl Strategy<Value = String> {
    prop_oneof![3 => arb_name(), 1 => Just("*".to_string())]
}

fn arb_pattern() -> impl Strategy<Value = String> {
    (arb_component(), arb_component(), arb_component()).prop_map(|(p, j, t)| format!("{p}.{j}.{t}"))
}

fn arb_user() -> impl Strategy<Value = UserId> {
    (arb_name(), arb_name(), "[a-z]").prop_map(|(p, j, t)| UserId::new(&p, &j, &t))
}

fn arb_mode() -> impl Strategy<Value = AclMode> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(read, execute, write)| AclMode {
        read,
        execute,
        write,
    })
}

proptest! {
    /// The effective mode comes from a matching entry of maximal
    /// specificity; no non-matching entry ever contributes.
    #[test]
    fn effective_mode_is_a_matching_entrys_mode(
        entries in prop::collection::vec((arb_pattern(), arb_mode()), 0..6),
        user in arb_user(),
    ) {
        let mut acl = Acl::empty();
        for (p, m) in &entries {
            acl.add(p, *m);
        }
        match acl.effective(&user) {
            None => {
                for e in acl.entries() {
                    prop_assert!(!e.matches(&user));
                }
            }
            Some(mode) => {
                let best: u32 = acl
                    .entries()
                    .iter()
                    .filter(|e| e.matches(&user))
                    .map(AclEntry::specificity)
                    .max()
                    .expect("effective implies a match");
                // The chosen mode belongs to some maximal-specificity match.
                prop_assert!(acl
                    .entries()
                    .iter()
                    .any(|e| e.matches(&user) && e.specificity() == best && e.mode == mode));
            }
        }
    }

    /// Adding a fully-wildcarded entry guarantees *some* decision for
    /// every user, and never overrides a more specific one.
    #[test]
    fn wildcard_fallback_is_least_specific(
        entries in prop::collection::vec((arb_pattern(), arb_mode()), 0..5),
        fallback in arb_mode(),
        user in arb_user(),
    ) {
        let mut acl = Acl::empty();
        for (p, m) in &entries {
            acl.add(p, *m);
        }
        let before = acl.effective(&user);
        acl.add("*.*.*", fallback);
        let after = acl.effective(&user).expect("wildcard matches everyone");
        match before {
            // A previous decision with specificity >= 1 still wins.
            Some(m) => {
                let best: u32 = acl
                    .entries()
                    .iter()
                    .filter(|e| e.matches(&user))
                    .map(AclEntry::specificity)
                    .max()
                    .unwrap();
                if best > 0 {
                    prop_assert_eq!(after, m);
                }
            }
            None => prop_assert_eq!(after, fallback),
        }
    }

    /// add/remove round-trips: removing the exact pattern restores the
    /// prior decision for every user the pattern does not shadow.
    #[test]
    fn remove_undoes_add(pattern in arb_pattern(), mode in arb_mode(), user in arb_user()) {
        let mut acl = Acl::<AclMode>::empty();
        let before = acl.effective(&user);
        acl.add(&pattern, mode);
        prop_assert!(acl.remove(&pattern));
        prop_assert_eq!(acl.effective(&user), before);
    }

    /// The exact-principal index is invisible: indexed `effective`
    /// agrees with the linear-scan specification on every ACL shape,
    /// including after removals rebuild the index.
    #[test]
    fn indexed_effective_equals_linear_spec(
        entries in prop::collection::vec((arb_pattern(), arb_mode()), 0..8),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        user in arb_user(),
    ) {
        let mut acl = Acl::empty();
        for (p, m) in &entries {
            acl.add(p, *m);
        }
        if !entries.is_empty() {
            for r in &removals {
                acl.remove(&entries[r.index(entries.len())].0);
            }
        }
        prop_assert_eq!(acl.effective(&user), acl.effective_linear(&user));
    }

    /// Pathname parsing: every parsed component is non-empty and the
    /// parse of a rebuilt path is identical (canonicalization fixpoint).
    #[test]
    fn path_parse_fixpoint(comps in prop::collection::vec("[A-Za-z0-9_.]{1,8}", 1..6)) {
        let path = format!(">{}", comps.join(">"));
        let parsed = parse_path(&path).unwrap();
        prop_assert_eq!(&parsed, &comps);
        let rebuilt = format!(">{}", parsed.join(">"));
        prop_assert_eq!(parse_path(&rebuilt).unwrap(), comps);
    }

    /// Relative or empty paths never parse.
    #[test]
    fn bad_paths_are_rejected(s in "[A-Za-z0-9_]{0,6}") {
        prop_assert!(parse_path(&s).is_err());
    }
}

/// With the full-width index key nothing collides here, so the work
/// units E18 claims are what they were before the index was keyed by
/// digest: a literal hit costs one probe, a miss the probe plus every
/// wildcard entry. (The crate's unit tests narrow the key to force
/// collisions instead.)
#[test]
fn work_units_are_one_per_hit_and_one_plus_the_wildcards_per_miss() {
    let mut acl = Acl::of("*.*.*", AclMode::R);
    acl.add("*.CSR.*", AclMode::RW);
    acl.add("Jones.*.*", AclMode::RE);
    for i in 0..10_000 {
        acl.add(&format!("U{i}.CSR.a"), AclMode::REW);
    }
    assert!(acl.remove("U9.CSR.a"));
    for i in (0..10_000).filter(|&i| i != 9) {
        let u = UserId::new(&format!("U{i}"), "CSR", "a");
        assert_eq!(acl.effective_counted(&u), (Some(AclMode::REW), 1), "{u:?}");
    }
    let u9 = UserId::new("U9", "CSR", "a");
    assert_eq!(acl.effective_counted(&u9), (Some(AclMode::RW), 4));
}
