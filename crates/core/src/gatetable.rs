//! The supervisor's gate census.
//!
//! Gates are the kernel's entire call surface: every way a user-ring
//! program can ask ring 0 (or ring 1) to do something. The census below is
//! modeled on the documented Multics surface — `hcs_` (the user-callable
//! hardcore gate) and `hphcs_` (the privileged gate available to system
//! processes only) — with the gate population determined by the
//! configuration: the legacy supervisor carries the linker's ten entries
//! and the naming machinery's twenty-three; the kernel configuration sheds
//! them (keeping four segno-based naming entries) and swaps the
//! twenty-three device entries for the network attachment's five.
//!
//! Experiments: E1 (linker entries ≈ 10% of the legacy surface), E3
//! (linker + naming ≈ ⅓ of user-available entries), E8 (I/O entries), E14
//! (overall surface).

use mks_hw::gate::{rings, GateDef};
use mks_hw::ring::USER_RING;

use crate::config::{IoConfig, KernelConfig, LinkerConfig, NamingConfig};

/// File-system gates common to every configuration: branch manipulation,
/// status, ACLs, quotas, attributes.
pub(crate) const FS_GATES: &[&str] = &[
    "append_branch",
    "append_branchx",
    "create_branch_",
    "delete_branch_",
    "chname_file",
    "status_",
    "status_long",
    "list_dir",
    "list_acl",
    "add_acl_entries",
    "delete_acl_entries",
    "replace_acl",
    "add_dir_acl_entries",
    "delete_dir_acl_entries",
    "replace_dir_acl",
    "set_max_length",
    "truncate_seg",
    "set_safety_switch",
    "get_safety_switch",
    "get_author",
    "get_max_length",
    "quota_get",
    "quota_move",
    "set_ring_brackets",
    "get_ring_brackets",
    "get_user_effmode",
    "set_dates",
    "get_dates",
    "add_name_",
    "delete_name_",
];

/// Legacy naming/address-space gates: pathname resolution, reference
/// names, working directories — all in ring 0 before Bratt's removal.
pub const NAMING_GATES_LEGACY: &[&str] = &[
    "initiate",
    "initiate_count",
    "initiate_refname",
    "initiate_search_rules",
    "terminate_file",
    "terminate_name",
    "terminate_noname",
    "terminate_seg",
    "terminate_refname",
    "terminate_single_refname",
    "make_seg",
    "make_ptr_path",
    "fs_get_path_name",
    "fs_get_ref_name",
    "fs_get_seg_ptr",
    "fs_search_get_wdir",
    "fs_search_set_wdir",
    "get_wdir",
    "set_wdir",
    "list_refnames",
    "reserve_segno",
    "release_segno",
    "get_count_refnames",
];

/// Post-removal naming gates: the segment-number interface.
pub const NAMING_GATES_KERNEL: &[&str] = &[
    "initiate_segno",
    "initiate_dir_segno",
    "terminate_segno",
    "get_uid_segno",
];

/// Process and IPC gates (both configurations).
pub(crate) const PROC_GATES: &[&str] = &[
    "block",
    "wakeup",
    "get_usage",
    "set_timer",
    "cpu_time_and_paging",
    "get_process_id",
    "create_event_channel",
    "delete_event_channel",
];

/// Miscellaneous supervisor services (both configurations).
/// `metering_get` is the flight-recorder snapshot gate: a read-only view of
/// the kernel's counters, histograms and recent spans. User rings may read
/// the metering; nothing on this entry can reset or rewrite it.
const MISC_GATES: &[&str] = &[
    "get_time",
    "get_system_info",
    "set_alarm",
    "signal_set",
    "level_get",
    "level_set",
    "metering_get",
];

/// Privileged (`hphcs_`) entries, callable only from ring 1 system
/// processes — not part of the *user-available* census.
const PRIVILEGED_GATES: &[&str] = &[
    "shutdown",
    "reconfigure",
    "set_kst_attributes",
    "admin_gate_acl",
    "wire_process",
    "set_proc_required",
    "syserr",
    "installation_parms",
];

/// The assembled gate tables of a configuration.
#[derive(Debug)]
pub struct GateTable {
    /// All gate segments.
    pub gates: Vec<GateDef>,
}

impl GateTable {
    /// Builds the census for `cfg`.
    pub fn build(cfg: &KernelConfig) -> GateTable {
        let mut hcs: Vec<&'static str> = Vec::new();
        hcs.extend_from_slice(FS_GATES);
        match cfg.naming {
            NamingConfig::InKernel => hcs.extend_from_slice(NAMING_GATES_LEGACY),
            NamingConfig::UserRing => hcs.extend_from_slice(NAMING_GATES_KERNEL),
        }
        hcs.extend_from_slice(PROC_GATES);
        hcs.extend_from_slice(MISC_GATES);
        if cfg.linker == LinkerConfig::InKernel {
            hcs.extend_from_slice(mks_linker::kernel_cfg::LEGACY_LINKER_GATES);
        }
        let io_entries: Vec<&'static str> = match cfg.io {
            IoConfig::DeviceZoo => mks_io::devices::legacy_zoo()
                .iter()
                .flat_map(|d| d.module_info().entries)
                .collect(),
            IoConfig::NetworkOnly => mks_io::network::NetworkAttachment::module_info().entries,
        };
        hcs.extend(io_entries);
        let gates = vec![
            GateDef::new("hcs_", rings::KERNEL, rings::OUTER, hcs),
            GateDef::new(
                "hphcs_",
                rings::KERNEL,
                rings::SUPERVISOR,
                PRIVILEGED_GATES.to_vec(),
            ),
        ];
        GateTable { gates }
    }

    /// Total entry points across all gate segments.
    pub fn total_entries(&self) -> usize {
        self.gates.iter().map(|g| g.entries.len()).sum()
    }

    /// Entry points callable from ordinary user rings.
    pub fn user_available_entries(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.callable_from >= USER_RING)
            .map(|g| g.entries.len())
            .sum()
    }

    /// Entries on the user gate whose names are in `set` (census helper).
    pub fn count_matching(&self, set: &[&str]) -> usize {
        self.gates
            .iter()
            .filter(|g| g.user_callable())
            .flat_map(|g| g.entries.iter())
            .filter(|e| set.contains(e))
            .count()
    }

    /// Looks up a gate segment by name.
    pub fn gate(&self, name: &str) -> Option<&GateDef> {
        self.gates.iter().find(|g| g.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_surface_is_about_one_hundred_user_entries() {
        let t = GateTable::build(&KernelConfig::legacy());
        assert_eq!(t.user_available_entries(), 101);
        assert_eq!(t.total_entries(), 109);
    }

    #[test]
    fn linker_removal_cuts_ten_percent_of_gates() {
        let legacy = GateTable::build(&KernelConfig::legacy());
        let removed = GateTable::build(&KernelConfig::legacy_linker_removed());
        let cut = legacy.user_available_entries() - removed.user_available_entries();
        let pct = 100.0 * cut as f64 / legacy.user_available_entries() as f64;
        assert!((9.0..=11.0).contains(&pct), "linker cut {pct}%");
    }

    #[test]
    fn both_removals_cut_about_one_third() {
        let legacy = GateTable::build(&KernelConfig::legacy());
        let removed = GateTable::build(&KernelConfig::legacy_both_removals());
        let cut = legacy.user_available_entries() - removed.user_available_entries();
        let frac = cut as f64 / legacy.user_available_entries() as f64;
        assert!((0.28..=0.38).contains(&frac), "removals cut {frac}");
    }

    #[test]
    fn kernel_config_has_the_small_surface() {
        let t = GateTable::build(&KernelConfig::kernel());
        assert_eq!(t.user_available_entries(), 54);
        assert!(t.gate("hcs_").unwrap().entry("metering_get").is_some());
        assert!(t.gate("hcs_").unwrap().entry("initiate_segno").is_some());
        assert!(t.gate("hcs_").unwrap().entry("link_snap").is_none());
        assert!(t.gate("hcs_").unwrap().entry("tty_read").is_none());
        assert!(t.gate("hcs_").unwrap().entry("net_read").is_some());
    }

    #[test]
    fn privileged_gate_is_not_user_available() {
        let t = GateTable::build(&KernelConfig::kernel());
        let hphcs = t.gate("hphcs_").unwrap();
        assert!(!hphcs.user_callable());
        assert_eq!(
            t.total_entries() - t.user_available_entries(),
            hphcs.entries.len()
        );
    }

    #[test]
    fn no_duplicate_entry_names_on_a_gate() {
        for cfg in [KernelConfig::legacy(), KernelConfig::kernel()] {
            let t = GateTable::build(&cfg);
            for g in &t.gates {
                let mut names = g.entries.clone();
                names.sort_unstable();
                let before = names.len();
                names.dedup();
                assert_eq!(names.len(), before, "{}: duplicate entries", g.name);
            }
        }
    }
}
