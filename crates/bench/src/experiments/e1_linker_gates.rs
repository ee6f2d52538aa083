//! E1 — "the linker's removal eliminated 10% of the gate entry points
//! into the supervisor."

use std::fmt::Write;

use mks_kernel::{GateTable, KernelConfig};

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::banner;

const QUOTE: &str =
    "the linker's removal eliminated 10% of the gate entry points into the supervisor";

/// The gate census before and after the linker removal.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// User-available entries, legacy configuration.
    pub legacy_entries: usize,
    /// User-available entries after the linker removal.
    pub removed_entries: usize,
    /// The names of the removed linker gates.
    pub removed_names: &'static [&'static str],
}

impl Measurement {
    /// Entries the removal eliminated.
    pub fn cut(&self) -> usize {
        self.legacy_entries - self.removed_entries
    }

    /// The cut as a fraction of the legacy surface.
    fn cut_fraction(&self) -> f64 {
        self.cut() as f64 / self.legacy_entries as f64
    }
}

/// Builds both gate tables and counts the cut.
pub fn measure() -> Measurement {
    let legacy = GateTable::build(&KernelConfig::legacy());
    let removed = GateTable::build(&KernelConfig::legacy_linker_removed());
    Measurement {
        legacy_entries: legacy.user_available_entries(),
        removed_entries: removed.user_available_entries(),
        removed_names: mks_linker::kernel_cfg::LEGACY_LINKER_GATES,
    }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "E1: gate entry points before/after the linker removal",
        &format!("\"{QUOTE}\""),
    );
    let mut t = crate::report::Table::new(&["configuration", "user-available gate entries"]);
    t.row(&["legacy supervisor".into(), m.legacy_entries.to_string()]);
    t.row(&[
        "legacy + linker removal".into(),
        m.removed_entries.to_string(),
    ]);
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "linker entries removed: {} ({:.1}% of the legacy surface)",
        m.cut(),
        100.0 * m.cut_fraction()
    )
    .unwrap();
    writeln!(out, "paper's figure: 10%").unwrap();
    writeln!(out, "removed entries: {:?}", m.removed_names).unwrap();
    out
}

/// The paper's expectations over this census.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    vec![
        ClaimResult::new(
            "E1.gate-census-legacy",
            "E1",
            QUOTE,
            ClaimShape::ExactCount { expect: 101 },
            m.legacy_entries as f64,
            "user-available gate entries, legacy supervisor",
        ),
        ClaimResult::new(
            "E1.gate-census-after-linker",
            "E1",
            QUOTE,
            ClaimShape::ExactCount { expect: 91 },
            m.removed_entries as f64,
            "user-available gate entries after the linker removal",
        ),
        ClaimResult::new(
            "E1.linker-entries-removed",
            "E1",
            QUOTE,
            ClaimShape::ExactCount { expect: 10 },
            m.cut() as f64,
            "gate entries the linker removal eliminated",
        ),
        ClaimResult::new(
            "E1.removed-fraction",
            "E1",
            QUOTE,
            ClaimShape::FractionNear {
                paper: 0.10,
                tol: 0.015,
                accept_tol: 0.015,
            },
            m.cut_fraction(),
            "removed entries / legacy user-available entries",
        ),
    ]
}

/// Measurement + report + claims.
pub fn run() -> ExperimentOutput {
    let m = measure();
    ExperimentOutput::new(report(&m), claims(&m))
}
