//! Multics access-control lists.
//!
//! A principal is `Person.Project.tag`; ACL entries may use `*` wildcards in
//! any component (`*.SysAdmin.*`). Segment modes are some subset of `rew`
//! (read, execute, write); directory modes are `sma` (status — list entries;
//! modify — change existing entries; append — add entries). Matching picks
//! the **most specific** entry that matches the requesting principal
//! (most non-wildcard components; earliest entry breaks ties), which is the
//! documented Multics rule.

use mks_trace::digest::{Fnv64, IdMap};

/// A user principal: person, project, and instance tag.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct UserId {
    /// Person name, e.g. `"Schroeder"`.
    pub person: String,
    /// Project name, e.g. `"CSR"`.
    pub project: String,
    /// Instance tag, e.g. `"a"` (interactive) or `"m"` (daemon).
    pub tag: String,
}

impl UserId {
    /// Builds a principal.
    pub fn new(person: &str, project: &str, tag: &str) -> UserId {
        UserId {
            person: person.into(),
            project: project.into(),
            tag: tag.into(),
        }
    }

    /// Canonical `Person.Project.tag` form.
    pub fn to_acl_string(&self) -> String {
        format!("{}.{}.{}", self.person, self.project, self.tag)
    }
}

/// Access modes on a segment branch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AclMode {
    /// Read.
    pub read: bool,
    /// Execute.
    pub execute: bool,
    /// Write.
    pub write: bool,
}

impl AclMode {
    /// No access (the "null" ACL mode — an explicit denial entry).
    pub const NULL: AclMode = AclMode {
        read: false,
        execute: false,
        write: false,
    };
    /// `r` — read only.
    pub const R: AclMode = AclMode {
        read: true,
        execute: false,
        write: false,
    };
    /// `re` — read and execute (pure procedure).
    pub const RE: AclMode = AclMode {
        read: true,
        execute: true,
        write: false,
    };
    /// `rw` — read and write.
    pub const RW: AclMode = AclMode {
        read: true,
        execute: false,
        write: true,
    };
    /// `rew` — everything.
    pub const REW: AclMode = AclMode {
        read: true,
        execute: true,
        write: true,
    };

    /// Parses a mode string like `"rw"` (order-insensitive; `"null"` or
    /// `""` give no access).
    pub fn parse(s: &str) -> Option<AclMode> {
        if s == "null" {
            return Some(AclMode::NULL);
        }
        let mut m = AclMode::NULL;
        for c in s.chars() {
            match c {
                'r' => m.read = true,
                'e' => m.execute = true,
                'w' => m.write = true,
                _ => return None,
            }
        }
        Some(m)
    }
}

impl core::fmt::Display for AclMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if *self == AclMode::NULL {
            return write!(f, "null");
        }
        if self.read {
            write!(f, "r")?;
        }
        if self.execute {
            write!(f, "e")?;
        }
        if self.write {
            write!(f, "w")?;
        }
        Ok(())
    }
}

/// Access modes on a directory branch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DirMode {
    /// Status: list entries and read their attributes.
    pub status: bool,
    /// Modify: change or delete existing entries.
    pub modify: bool,
    /// Append: add new entries.
    pub append: bool,
}

impl DirMode {
    /// No access.
    pub const NULL: DirMode = DirMode {
        status: false,
        modify: false,
        append: false,
    };
    /// `s` — status only.
    pub const S: DirMode = DirMode {
        status: true,
        modify: false,
        append: false,
    };
    /// `sa` — status and append.
    pub const SA: DirMode = DirMode {
        status: true,
        modify: false,
        append: true,
    };
    /// `sma` — full control.
    pub const SMA: DirMode = DirMode {
        status: true,
        modify: true,
        append: true,
    };
}

/// One component of an ACL principal pattern.
fn component_matches(pattern: &str, value: &str) -> bool {
    pattern == "*" || pattern == value
}

/// The exact index's key for a principal or a literal pattern: FNV-1a
/// over its `Person.Project.tag` bytes, streamed without building the
/// string. Unit tests keep only the low 3 bits of it, so their ACLs
/// collide all the time and exercise the collision rule.
pub(crate) fn principal_key(person: &str, project: &str, tag: &str) -> u64 {
    let key = Fnv64::new()
        .bytes(person.as_bytes())
        .bytes(b".")
        .bytes(project.as_bytes())
        .bytes(b".")
        .bytes(tag.as_bytes())
        .finish();
    key & KEY_MASK
}

#[cfg(not(test))]
const KEY_MASK: u64 = u64::MAX;
#[cfg(test)]
const KEY_MASK: u64 = 0b111;

/// An ACL entry: a principal pattern and the granted mode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AclEntry<M> {
    /// Person pattern (name or `*`).
    pub person: String,
    /// Project pattern.
    pub project: String,
    /// Tag pattern.
    pub tag: String,
    /// Granted mode (may be null: an explicit denial).
    pub mode: M,
}

impl<M: Copy> AclEntry<M> {
    /// Builds an entry from a `Person.Project.tag` pattern string.
    ///
    /// # Panics
    /// Panics if `pattern` does not have exactly three dot-separated
    /// components (caller bug; gate-level code validates first).
    pub fn new(pattern: &str, mode: M) -> AclEntry<M> {
        let mut parts = pattern.split('.');
        let (Some(person), Some(project), Some(tag), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            panic!("ACL pattern must be Person.Project.tag, got {pattern:?}");
        };
        AclEntry {
            person: person.into(),
            project: project.into(),
            tag: tag.into(),
            mode,
        }
    }

    /// Does this entry's pattern match `user`?
    pub fn matches(&self, user: &UserId) -> bool {
        component_matches(&self.person, &user.person)
            && component_matches(&self.project, &user.project)
            && component_matches(&self.tag, &user.tag)
    }

    /// Does this entry have exactly `other`'s pattern?
    pub(crate) fn same_pattern(&self, other: &AclEntry<M>) -> bool {
        self.person == other.person && self.project == other.project && self.tag == other.tag
    }

    /// Specificity for entry selection: one point per literal component.
    pub fn specificity(&self) -> u32 {
        [&self.person, &self.project, &self.tag]
            .iter()
            .filter(|c| *c != &"*")
            .count() as u32
    }
}

/// An ordered access-control list with an exact-principal index.
///
/// Entries stay in insertion order (the tie-break rule needs it), but
/// fully-literal patterns — the overwhelming majority once a system holds a
/// million principals — are additionally indexed by principal so the hot
/// [`Acl::effective`] path is O(#wildcard entries) instead of O(#entries).
/// Wildcard entries are a short, administrator-authored list in practice.
///
/// The index is keyed by a 64-bit digest of the principal
/// ([`principal_key`]), not by an owned copy of it, so it holds one word
/// per entry and a lookup builds nothing. A hit is checked against the
/// entry itself. A literal whose key an earlier literal already holds
/// goes on the scanned `wild` list instead, so a collision costs a scan,
/// never a wrong verdict. Like the fixed-key SipHash index it replaced,
/// the key is unkeyed: an ACL's author who crafted colliding principals
/// would slow lookups on that ACL alone.
#[derive(Clone, Debug, Default)]
pub struct Acl<M> {
    /// Entries, in insertion order.
    entries: Vec<AclEntry<M>>,
    /// Literal patterns by key. Invariant: `exact[k] = i` iff
    /// `entries[i]` is the first literal entry whose key is `k`.
    pub(crate) exact: IdMap<u64, usize>,
    /// Indices of the other entries — those with at least one `*`
    /// component and colliding literals — in entry order.
    pub(crate) wild: Vec<usize>,
}

/// ACL identity is the entry list; the index is derived state.
impl<M: PartialEq> PartialEq for Acl<M> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl<M: Eq> Eq for Acl<M> {}

impl<M: Copy + Default> Acl<M> {
    /// An empty ACL (denies everyone).
    pub fn empty() -> Acl<M> {
        Acl {
            entries: Vec::new(),
            exact: IdMap::default(),
            wild: Vec::new(),
        }
    }

    /// An ACL with a single entry.
    pub fn of(pattern: &str, mode: M) -> Acl<M> {
        let mut a = Acl::empty();
        a.add(pattern, mode);
        a
    }

    /// The entries, in insertion order (read-only: mutate via
    /// [`Acl::add`] / [`Acl::remove`] so the index stays consistent).
    pub fn entries(&self) -> &[AclEntry<M>] {
        &self.entries
    }

    /// Is this entry a fully-literal pattern (indexable by principal)?
    fn is_exact(entry: &AclEntry<M>) -> bool {
        entry.person != "*" && entry.project != "*" && entry.tag != "*"
    }

    /// Files `entries[i]` in the index: under its key if it is literal
    /// and the key is free, on the `wild` list otherwise.
    fn index_entry(&mut self, i: usize) {
        let e = &self.entries[i];
        if Self::is_exact(e) {
            let key = principal_key(&e.person, &e.project, &e.tag);
            if let std::collections::hash_map::Entry::Vacant(slot) = self.exact.entry(key) {
                slot.insert(i);
                return;
            }
        }
        self.wild.push(i);
    }

    /// Re-derives the exact/wildcard index from the entry list.
    fn rebuild_index(&mut self) {
        self.exact.clear();
        self.wild.clear();
        for i in 0..self.entries.len() {
            self.index_entry(i);
        }
    }

    /// Position of the entry with exactly `probe`'s pattern. A literal
    /// whose key is free has no entry at all: colliding literals reach
    /// `wild` only once their key is taken.
    fn position(&self, probe: &AclEntry<M>) -> Option<usize> {
        if Self::is_exact(probe) {
            let key = principal_key(&probe.person, &probe.project, &probe.tag);
            let &i = self.exact.get(&key)?;
            if self.entries[i].same_pattern(probe) {
                return Some(i);
            }
        }
        self.wild
            .iter()
            .copied()
            .find(|&i| self.entries[i].same_pattern(probe))
    }

    /// Adds (or replaces, if the same pattern exists) an entry.
    ///
    /// The duplicate check goes through the index, not the entry list:
    /// building a registry ACL with 10^5 exact entries must be O(n), not
    /// O(n^2).
    pub fn add(&mut self, pattern: &str, mode: M) {
        let entry = AclEntry::new(pattern, mode);
        if let Some(i) = self.position(&entry) {
            self.entries[i].mode = mode;
        } else {
            self.entries.push(entry);
            self.index_entry(self.entries.len() - 1);
        }
    }

    /// Removes the entry with exactly this pattern; returns whether one
    /// existed.
    pub fn remove(&mut self, pattern: &str) -> bool {
        let probe = AclEntry::new(pattern, M::default());
        let before = self.entries.len();
        self.entries.retain(|e| {
            !(e.person == probe.person && e.project == probe.project && e.tag == probe.tag)
        });
        if self.entries.len() == before {
            return false;
        }
        self.rebuild_index();
        true
    }

    /// The effective mode for `user`: the most specific matching entry
    /// (earliest wins ties); `None` if no entry matches.
    ///
    /// A literal entry has specificity 3 and only one literal pattern can
    /// name a given principal ([`Acl::add`] replaces duplicates), so an
    /// exact-index hit that names `user` wins outright; otherwise only the
    /// `wild` list needs scanning.
    pub fn effective(&self, user: &UserId) -> Option<M> {
        self.effective_counted(user).0
    }

    /// [`Acl::effective`] plus the number of entries examined — the
    /// deterministic work-unit the scale experiment (E18) claims stays
    /// flat as the population grows.
    pub fn effective_counted(&self, user: &UserId) -> (Option<M>, u32) {
        let key = principal_key(&user.person, &user.project, &user.tag);
        if let Some(e) = self.exact.get(&key).map(|&i| &self.entries[i]) {
            if e.matches(user) {
                return (Some(e.mode), 1);
            }
        }
        let verdict = self
            .wild
            .iter()
            .map(|&i| (i, &self.entries[i]))
            .filter(|(_, e)| e.matches(user))
            .max_by(|(ia, a), (ib, b)| {
                a.specificity().cmp(&b.specificity()).then(ib.cmp(ia)) // earlier wins ties
            })
            .map(|(_, e)| e.mode);
        (verdict, 1 + self.wild.len() as u32)
    }

    /// The pre-index linear scan over the whole entry list — kept as the
    /// executable specification. The differential tests (and an E18
    /// claim) check `effective == effective_linear` across generated
    /// workloads.
    pub fn effective_linear(&self, user: &UserId) -> Option<M> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.matches(user))
            .max_by(|(ia, a), (ib, b)| {
                a.specificity().cmp(&b.specificity()).then(ib.cmp(ia)) // earlier wins ties
            })
            .map(|(_, e)| e.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(p: &str, pr: &str) -> UserId {
        UserId::new(p, pr, "a")
    }

    #[test]
    fn mode_parse_and_display_round_trip() {
        for s in ["r", "re", "rw", "rew", "null"] {
            let m = AclMode::parse(s).unwrap();
            assert_eq!(m.to_string(), s);
        }
        assert!(AclMode::parse("rx").is_none());
    }

    #[test]
    fn exact_entry_matches_only_that_user() {
        let acl = Acl::of("Jones.CSR.a", AclMode::RW);
        assert_eq!(acl.effective(&user("Jones", "CSR")), Some(AclMode::RW));
        assert_eq!(acl.effective(&user("Smith", "CSR")), None);
    }

    #[test]
    fn wildcards_match_componentwise() {
        let acl = Acl::of("*.CSR.*", AclMode::R);
        assert_eq!(acl.effective(&user("Anyone", "CSR")), Some(AclMode::R));
        assert_eq!(acl.effective(&user("Anyone", "Guest")), None);
    }

    #[test]
    fn most_specific_entry_wins() {
        let mut acl = Acl::of("*.*.*", AclMode::R);
        acl.add("*.CSR.*", AclMode::RW);
        acl.add("Jones.CSR.a", AclMode::NULL); // explicit per-user denial
        assert_eq!(acl.effective(&user("Jones", "CSR")), Some(AclMode::NULL));
        assert_eq!(acl.effective(&user("Smith", "CSR")), Some(AclMode::RW));
        assert_eq!(acl.effective(&user("Smith", "Guest")), Some(AclMode::R));
    }

    #[test]
    fn null_mode_denial_beats_broad_grant() {
        let mut acl = Acl::of("*.*.*", AclMode::REW);
        acl.add("Spy.KGB.*", AclMode::NULL);
        let spy = user("Spy", "KGB");
        assert_eq!(acl.effective(&spy), Some(AclMode::NULL));
    }

    #[test]
    fn add_replaces_same_pattern() {
        let mut acl = Acl::of("Jones.CSR.a", AclMode::R);
        acl.add("Jones.CSR.a", AclMode::REW);
        assert_eq!(acl.entries().len(), 1);
        assert_eq!(acl.effective(&user("Jones", "CSR")), Some(AclMode::REW));
    }

    #[test]
    fn remove_deletes_exact_pattern() {
        let mut acl = Acl::of("Jones.CSR.a", AclMode::R);
        assert!(acl.remove("Jones.CSR.a"));
        assert!(!acl.remove("Jones.CSR.a"));
        assert_eq!(acl.effective(&user("Jones", "CSR")), None);
    }

    #[test]
    fn ties_go_to_the_earlier_entry() {
        let mut acl = Acl::of("Jones.*.*", AclMode::R);
        acl.add("*.CSR.*", AclMode::RW); // same specificity (1)
        assert_eq!(acl.effective(&user("Jones", "CSR")), Some(AclMode::R));
    }

    #[test]
    fn indexed_effective_matches_linear_spec() {
        // A mix of exact entries, wildcards, denials, and replacements;
        // the indexed path must agree with the linear spec everywhere,
        // including after removals force an index rebuild.
        let mut acl = Acl::of("*.*.*", AclMode::R);
        acl.add("*.CSR.*", AclMode::RW);
        acl.add("Jones.*.*", AclMode::RE);
        for i in 0..64 {
            acl.add(&format!("U{i}.CSR.a"), AclMode::REW);
        }
        acl.add("U7.CSR.a", AclMode::NULL);
        assert!(acl.remove("U9.CSR.a"));
        let mut probes = vec![
            user("Jones", "CSR"),
            user("Jones", "Guest"),
            user("Nobody", "Anywhere"),
        ];
        for i in 0..64 {
            probes.push(user(&format!("U{i}"), "CSR"));
        }
        for u in &probes {
            assert_eq!(acl.effective(u), acl.effective_linear(u), "{u:?}");
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // pins the constant definitions
    fn dir_modes_exist() {
        assert!(DirMode::SMA.status && DirMode::SMA.modify && DirMode::SMA.append);
        assert!(DirMode::S.status && !DirMode::S.append);
    }
}
