//! System initialization, both ways.
//!
//! "A removal project under investigation is changing most of system
//! initialization from executing inside the supervisor each time the system
//! is started to executing once in a user environment of a previous system.
//! The idea is to produce on a system tape a bit pattern which, when loaded
//! into memory, manifests a fully initialized system, rather than letting
//! the system bootstrap itself in a complex way each time ... One pattern
//! of operation may be much simpler to certify than the other."
//!
//! * [`bootstrap`] — the legacy pattern: a long sequence of privileged,
//!   order-dependent steps run at every start;
//! * [`image`] — the removal: the same steps run **once**, in user mode, in
//!   a factory environment; the result is serialized (with a checksum)
//!   onto the system tape, and a start is just *load + verify* — two
//!   privileged operations, bit-identical every time (experiment E11).

pub mod bootstrap;
pub mod image;

use mks_hw::{Cycles, Fnv64};

use crate::config::KernelConfig;

/// The state a fully initialized system presents (a deliberately explicit,
/// serializable digest of the kernel tables the boot process must build).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InitState {
    /// Gate entries installed.
    pub gate_entries: u32,
    /// Dedicated kernel daemons created (page control, interrupts…).
    pub daemons: Vec<String>,
    /// Supervisor segments wired into every address space.
    pub supervisor_segments: Vec<String>,
    /// Whether the MLS layer is armed.
    pub mls_on: bool,
    /// Root directory uid.
    pub root_uid: u64,
}

/// How a start went.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InitTrace {
    /// Ordered names of the steps executed at start time.
    pub steps: Vec<&'static str>,
    /// Steps that required supervisor privilege at start time.
    pub privileged_ops: u32,
    /// Simulated time the start took.
    pub cycles: Cycles,
}

/// A stable 64-bit digest of an [`InitState`] (FNV-1a over its
/// serialization), used for the determinism check: two loads of the same
/// image must produce equal hashes.
pub fn state_hash(s: &InitState) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(&s.gate_entries.to_be_bytes());
    for name in s.daemons.iter().chain(&s.supervisor_segments) {
        h.bytes(name.as_bytes()).bytes(b"\0");
    }
    h.bytes(&[u8::from(s.mls_on)])
        .bytes(&s.root_uid.to_be_bytes())
        .finish()
}

/// The target state for a configuration (what *any* correct start must
/// produce).
pub fn target_state(cfg: &KernelConfig) -> InitState {
    let gates = crate::gatetable::GateTable::build(cfg);
    let mut daemons = vec!["core_freer".to_string(), "bulk_freer".to_string()];
    if cfg.io == crate::config::IoConfig::NetworkOnly {
        daemons.push("net_handler".to_string());
    } else {
        for d in [
            "tty_handler",
            "tape_handler",
            "card_handler",
            "printer_handler",
        ] {
            daemons.push(d.to_string());
        }
    }
    let supervisor_segments = vec![
        "descriptor_seg_template".to_string(),
        "fault_intercept".to_string(),
        "hcs_".to_string(),
        "hphcs_".to_string(),
        "page_control".to_string(),
        "traffic_control".to_string(),
    ];
    InitState {
        gate_entries: gates.total_entries() as u32,
        daemons,
        supervisor_segments,
        mls_on: cfg.mls,
        root_uid: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_hash_is_stable_and_sensitive() {
        let cfg = KernelConfig::kernel();
        let a = target_state(&cfg);
        let b = target_state(&cfg);
        assert_eq!(state_hash(&a), state_hash(&b));
        let mut c = target_state(&cfg);
        c.gate_entries += 1;
        assert_ne!(state_hash(&a), state_hash(&c));
        let mut d = target_state(&cfg);
        d.daemons.push("rogue".into());
        assert_ne!(state_hash(&a), state_hash(&d));
    }

    #[test]
    fn target_state_tracks_configuration() {
        let legacy = target_state(&KernelConfig::legacy());
        let kernel = target_state(&KernelConfig::kernel());
        assert!(legacy.gate_entries > kernel.gate_entries);
        assert!(legacy.daemons.contains(&"tty_handler".to_string()));
        assert!(kernel.daemons.contains(&"net_handler".to_string()));
        assert!(kernel.mls_on && !legacy.mls_on);
    }
}
