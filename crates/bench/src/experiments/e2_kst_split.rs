//! E2 — "a reduction by a factor of ten in the size of the protected code
//! needed to manage the address space" (Bratt's reference-name/KST split).

use std::fmt::Write;

use mks_hw::module::Category;
use mks_kernel::{KernelConfig, SystemInventory};

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};

const QUOTE: &str = "a reduction by a factor of ten in the size of the protected code needed to manage the address space";

/// Honest-gap note shared by the report and the claim record.
pub(crate) const GAP_NOTE: &str =
    "our legacy KST is a compact Rust reimplementation of Bratt's PL/I \
original, which carried far more error-handling and bookkeeping text per function; the measured \
shrink is severalfold, not 10x, while the direction, the 23->4 entry-point collapse, and the \
function's move to the user ring all reproduce";

/// Address-space code weights and entry points, per configuration.
#[derive(Debug, Clone, Copy)]
pub struct ConfigRow {
    /// Protected (ring-0/1) address-space statement weight.
    pub protected: u32,
    /// User-ring address-space statement weight.
    pub unprotected: u32,
    /// Protected naming entry points.
    pub gates: usize,
}

/// The KST split, measured.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Legacy configuration (naming in ring 0).
    pub legacy: ConfigRow,
    /// Kernel configuration (naming in the user ring).
    pub kernel: ConfigRow,
}

impl Measurement {
    /// Protected-code shrink factor (legacy / kernel).
    fn shrink_factor(&self) -> f64 {
        self.legacy.protected as f64 / self.kernel.protected as f64
    }

    /// Entry-point shrink factor (legacy / kernel naming gates).
    fn gate_factor(&self) -> f64 {
        self.legacy.gates as f64 / self.kernel.gates as f64
    }
}

fn row_of(inv: &SystemInventory, gates: usize) -> ConfigRow {
    let unprotected: u32 = inv
        .modules
        .iter()
        .filter(|m| !m.is_protected() && m.category == Category::AddressSpace)
        .map(|m| m.weight)
        .sum();
    ConfigRow {
        protected: inv.protected_weight_of(Category::AddressSpace),
        unprotected,
        gates,
    }
}

/// Audits the two configurations' address-space modules.
pub fn measure() -> Measurement {
    let legacy = SystemInventory::build(KernelConfig::legacy());
    let kernel = SystemInventory::build(KernelConfig::kernel());
    Measurement {
        legacy: row_of(&legacy, mks_kernel::gatetable::NAMING_GATES_LEGACY.len()),
        kernel: row_of(&kernel, mks_kernel::gatetable::NAMING_GATES_KERNEL.len()),
    }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "E2: protected address-space-management code, before/after the KST split",
        &format!("\"{QUOTE}\""),
    );
    let mut t = Table::new(&[
        "configuration",
        "protected weight",
        "user-ring weight",
        "naming gates",
    ]);
    for (name, r) in [
        ("legacy supervisor", m.legacy),
        ("security kernel", m.kernel),
    ] {
        t.row(&[
            name.into(),
            r.protected.to_string(),
            r.unprotected.to_string(),
            r.gates.to_string(),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "protected-code reduction: {:.1}x (paper: ~10x)",
        m.shrink_factor()
    )
    .unwrap();
    writeln!(
        out,
        "protected naming gate reduction: {} -> {} ({:.1}x)",
        m.legacy.gates,
        m.kernel.gates,
        m.gate_factor()
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "note: the weights are measured statement counts of this repository's"
    )
    .unwrap();
    writeln!(
        out,
        "implementations (fs/src/kst_legacy.rs vs fs/src/kst.rs). Our compact"
    )
    .unwrap();
    writeln!(
        out,
        "reimplementation of the legacy KST understates the 1974 original, so"
    )
    .unwrap();
    writeln!(
        out,
        "the measured factor is smaller than the paper's; the direction and"
    )
    .unwrap();
    writeln!(
        out,
        "order (severalfold, plus 23->4 protected entry points) reproduce."
    )
    .unwrap();
    out
}

/// The paper's expectations over the split.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    vec![
        ClaimResult::new(
            "E2.protected-shrink",
            "E2",
            QUOTE,
            ClaimShape::FactorAtLeast {
                paper: 10.0,
                accept: 2.5,
            },
            m.shrink_factor(),
            "legacy / kernel protected address-space statement weight",
        )
        .with_gap(GAP_NOTE),
        ClaimResult::new(
            "E2.naming-gates-legacy",
            "E2",
            QUOTE,
            ClaimShape::ExactCount { expect: 23 },
            m.legacy.gates as f64,
            "protected naming entry points, legacy",
        ),
        ClaimResult::new(
            "E2.naming-gates-kernel",
            "E2",
            QUOTE,
            ClaimShape::ExactCount { expect: 4 },
            m.kernel.gates as f64,
            "protected naming entry points, kernel (segno interface)",
        ),
        ClaimResult::new(
            "E2.function-moved",
            "E2",
            QUOTE,
            ClaimShape::AtLeast { min: 100.0 },
            m.kernel.unprotected as f64,
            "user-ring naming statement weight (the function moved, it did not vanish)",
        ),
    ]
}

/// Measurement + report + claims.
pub fn run() -> ExperimentOutput {
    let m = measure();
    ExperimentOutput::new(report(&m), claims(&m))
}
