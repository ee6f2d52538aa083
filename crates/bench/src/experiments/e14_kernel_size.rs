//! E14 — the overall audit: "one wave of simplification applied to the
//! central core of the system will produce a badly needed example of a
//! structure that is significantly easier to understand."

use std::fmt::Write;

use mks_hw::module::Category;
use mks_kernel::audit::AuditReport;

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};

const QUOTE: &str = "the isolation of the smallest, simplest security kernel that is capable of supporting the full functionality of the system";

const CATEGORIES: [Category; 12] = [
    Category::FileSystem,
    Category::AddressSpace,
    Category::Linker,
    Category::PageControl,
    Category::Processes,
    Category::Ipc,
    Category::Io,
    Category::Interrupts,
    Category::Mls,
    Category::Auth,
    Category::Init,
    Category::Gates,
];

/// One configuration's audit line.
#[derive(Debug, Clone)]
pub struct ConfigRow {
    /// Configuration display name.
    pub name: &'static str,
    /// Protected (ring-0/1) statement weight.
    pub protected: u32,
    /// User-ring statement weight.
    pub unprotected: u32,
    /// User-available gate entries.
    pub user_gates: usize,
    /// All gate entries (incl. privileged).
    pub total_gates: usize,
}

/// One category's legacy-vs-kernel weights.
#[derive(Debug, Clone)]
pub struct CategoryRow {
    /// Category display label.
    pub label: &'static str,
    /// Protected weight in the legacy configuration.
    pub legacy: u32,
    /// Protected weight in the kernel configuration.
    pub kernel: u32,
}

/// The whole-kernel audit, measured.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The four-configuration ladder, legacy first, kernel last.
    pub ladder: Vec<ConfigRow>,
    /// Per-category protected weights, legacy vs kernel.
    pub categories: Vec<CategoryRow>,
    /// Full inventory rendering of the kernel configuration.
    pub kernel_inventory: String,
}

impl Measurement {
    /// Legacy (first) rung.
    pub fn legacy(&self) -> &ConfigRow {
        &self.ladder[0]
    }

    /// Kernel (last) rung.
    pub fn kernel(&self) -> &ConfigRow {
        self.ladder.last().expect("ladder is non-empty")
    }

    /// Protected-weight shrink factor, legacy / kernel.
    fn protected_shrink(&self) -> f64 {
        self.legacy().protected as f64 / self.kernel().protected as f64
    }

    /// Fraction of the user-callable surface the kernel config cut.
    fn surface_cut(&self) -> f64 {
        (self.legacy().user_gates - self.kernel().user_gates) as f64
            / self.legacy().user_gates as f64
    }

    /// Moved function / net protected shrink (≥ 1 because the kernel also
    /// *adds* protected code the legacy system never had, e.g. MLS).
    fn conservation_ratio(&self) -> f64 {
        self.kernel().unprotected as f64
            / (self.legacy().protected - self.kernel().protected) as f64
    }

    /// The MLS layer's protected weight (a new bottom layer).
    fn mls_weight(&self) -> u32 {
        self.categories
            .iter()
            .find(|c| c.label == Category::Mls.label())
            .map(|c| c.kernel)
            .unwrap_or(0)
    }
}

/// Audits all four configurations.
pub fn measure() -> Measurement {
    let report = AuditReport::standard();
    let ladder = report
        .rows
        .iter()
        .map(|inv| ConfigRow {
            name: inv.cfg.name(),
            protected: inv.protected_weight(),
            unprotected: inv.unprotected_weight(),
            user_gates: inv.gates.user_available_entries(),
            total_gates: inv.gates.total_entries(),
        })
        .collect();
    let legacy = &report.rows[0];
    let kernel = &report.rows[3];
    let categories = CATEGORIES
        .into_iter()
        .map(|cat| CategoryRow {
            label: cat.label(),
            legacy: legacy.protected_weight_of(cat),
            kernel: kernel.protected_weight_of(cat),
        })
        .collect();
    Measurement {
        ladder,
        categories,
        kernel_inventory: kernel.render(),
    }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "E14: whole-kernel audit across the configuration ladder",
        &format!("\"{QUOTE}\""),
    );
    let mut t = Table::new(&[
        "configuration",
        "protected weight",
        "user-ring weight",
        "user gates",
        "total gates",
    ]);
    for r in &m.ladder {
        t.row(&[
            r.name.into(),
            r.protected.to_string(),
            r.unprotected.to_string(),
            r.user_gates.to_string(),
            r.total_gates.to_string(),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(out, "protected weight by category (legacy -> kernel):").unwrap();
    let mut t2 = Table::new(&["category", "legacy", "kernel", "change"]);
    for c in &m.categories {
        let change = if c.legacy == 0 && c.kernel > 0 {
            "new layer".to_string()
        } else if c.kernel == 0 && c.legacy > 0 {
            "removed".to_string()
        } else if c.legacy == 0 {
            "-".to_string()
        } else {
            format!(
                "{:+.0}%",
                100.0 * (c.kernel as f64 - c.legacy as f64) / c.legacy as f64
            )
        };
        t2.row(&[
            c.label.into(),
            c.legacy.to_string(),
            c.kernel.to_string(),
            change,
        ]);
    }
    out.push_str(&t2.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "full inventory of the security-kernel configuration:\n"
    )
    .unwrap();
    out.push_str(&m.kernel_inventory);
    writeln!(out).unwrap();
    writeln!(
        out,
        "Weights are measured statement counts of the Rust implementations in"
    )
    .unwrap();
    writeln!(
        out,
        "this repository (see mks-kernel::audit). Function moved out of the"
    )
    .unwrap();
    writeln!(
        out,
        "boundary, it did not disappear: the user-ring weight grows by what"
    )
    .unwrap();
    writeln!(
        out,
        "the protected weight sheds, which is precisely the design intent."
    )
    .unwrap();
    out
}

/// The paper's expectations over the audit.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    vec![
        ClaimResult::new(
            "E14.protected-weight-falls",
            "E14",
            QUOTE,
            ClaimShape::FactorAtLeast {
                paper: 1.15,
                accept: 1.15,
            },
            m.protected_shrink(),
            "legacy / kernel protected statement weight (one wave of simplification)",
        ),
        ClaimResult::new(
            "E14.surface-cut",
            "E14",
            QUOTE,
            ClaimShape::FractionNear {
                paper: 0.47,
                tol: 0.03,
                accept_tol: 0.03,
            },
            m.surface_cut(),
            "fraction of user-callable gate entries the kernel configuration cut",
        ),
        ClaimResult::new(
            "E14.gate-census-kernel",
            "E14",
            QUOTE,
            ClaimShape::ExactCount { expect: 54 },
            m.kernel().user_gates as f64,
            "user-available gate entries, security kernel",
        ),
        ClaimResult::new(
            "E14.function-conserved",
            "E14",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            m.conservation_ratio(),
            "moved user-ring weight / net protected shrink (moves exceed the net)",
        ),
        ClaimResult::new(
            "E14.mls-new-layer",
            "E14",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            m.mls_weight() as f64,
            "protected MLS weight the kernel adds that the legacy system never had",
        ),
    ]
}

/// Measurement + report + claims.
pub fn run() -> ExperimentOutput {
    let m = measure();
    ExperimentOutput::new(report(&m), claims(&m))
}
