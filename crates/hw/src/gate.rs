//! Gate definitions.
//!
//! The hardware's notion of a gate is just the SDW call limiter; the
//! *software* notion — which named entry points a gate segment exports, and
//! to whom — lives here so the kernel's gate table and the audit machinery
//! (experiments E1/E3) can census them. A `GateDef` corresponds to one gate
//! segment like `hcs_` in real Multics, with its ordered list of entry
//! points.

use crate::ring::RingNo;

/// Index of an entry point within a gate segment (its word offset).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EntryIndex(pub u32);

/// A gate segment's software description.
#[derive(Clone, Debug)]
pub struct GateDef {
    /// Gate segment name (e.g. `"hcs_"`).
    pub name: &'static str,
    /// Ring the gate's procedures execute in.
    pub target_ring: RingNo,
    /// Highest ring allowed to call the gate.
    pub callable_from: RingNo,
    /// Ordered entry-point names; the SDW call limiter equals `entries.len()`.
    pub entries: Vec<&'static str>,
}

impl GateDef {
    /// Creates a gate definition.
    pub fn new(
        name: &'static str,
        target_ring: RingNo,
        callable_from: RingNo,
        entries: Vec<&'static str>,
    ) -> GateDef {
        GateDef {
            name,
            target_ring,
            callable_from,
            entries,
        }
    }

    /// Number of entry points (the hardware call limiter value).
    pub fn call_limiter(&self) -> u32 {
        self.entries.len() as u32
    }

    /// Looks up an entry point by name.
    pub fn entry(&self, name: &str) -> Option<EntryIndex> {
        self.entries
            .iter()
            .position(|e| *e == name)
            .map(|i| EntryIndex(i as u32))
    }

    /// True if ordinary user rings (ring 4 in the standard Multics
    /// configuration) may call this gate.
    pub fn user_callable(&self) -> bool {
        self.callable_from >= crate::ring::USER_RING
    }
}

/// The standard Multics administrative ring assignment used throughout the
/// reproduction: ring 0 kernel, ring 1 trusted supervisor extensions,
/// ring 4 ordinary users.
pub mod rings {
    use crate::ring::RingNo;

    /// The security kernel's ring.
    pub const KERNEL: RingNo = 0;
    /// The second kernel layer (the paper's partitioning proposal).
    pub const SUPERVISOR: RingNo = 1;
    /// The outermost ring usable by constrained subsystems.
    pub const OUTER: RingNo = 7;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_lookup_by_name() {
        let g = GateDef::new("hcs_", 0, 7, vec!["initiate", "terminate", "fs_get_mode"]);
        assert_eq!(g.entry("terminate"), Some(EntryIndex(1)));
        assert_eq!(g.entry("nonexistent"), None);
        assert_eq!(g.call_limiter(), 3);
    }

    #[test]
    fn user_callability_depends_on_bracket_top() {
        let user = GateDef::new("hcs_", 0, 7, vec!["a"]);
        let privileged = GateDef::new("hphcs_", 0, 1, vec!["a"]);
        assert!(user.user_callable());
        assert!(!privileged.user_callable());
    }
}
