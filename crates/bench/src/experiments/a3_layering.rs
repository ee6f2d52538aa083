//! A3 — structuring the kernel for certification: per-property audit
//! scope under the layered organization vs a flat one.
//!
//! "One technique of modularization is to divide the kernel into domains
//! arranged so that each property is implied by a subset of the domains."

use std::fmt::Write;

use mks_kernel::layers::StructureReport;
use mks_kernel::KernelConfig;

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};

const QUOTE: &str = "each property is implied by a subset of the domains ... each involves only a subset of the domains in the kernel";

/// One security property's audit scope.
#[derive(Debug, Clone)]
pub struct ScopeRow {
    /// Property display label.
    pub property: &'static str,
    /// Statement weight to audit under the layered organization.
    pub layered: u32,
    /// Statement weight to audit flat (the whole kernel).
    pub flat: u32,
}

impl ScopeRow {
    /// Layered scope as a fraction of the flat kernel.
    pub fn fraction(&self) -> f64 {
        f64::from(self.layered) / f64::from(self.flat)
    }
}

/// Per-property audit scopes, measured.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// One row per security property.
    pub scopes: Vec<ScopeRow>,
    /// Mean of the per-property scope fractions.
    pub mean_scope: f64,
}

impl Measurement {
    /// Properties whose layered scope is the whole kernel.
    fn whole_kernel_properties(&self) -> usize {
        self.scopes.iter().filter(|s| s.layered >= s.flat).count()
    }

    /// Properties whose scope exceeds complete mediation's.
    fn wider_than_mediation(&self) -> usize {
        let mediation = self
            .scopes
            .iter()
            .find(|s| s.property == "complete mediation")
            .map(|s| s.layered)
            .unwrap_or(0);
        self.scopes.iter().filter(|s| s.layered > mediation).count()
    }
}

/// Computes every property's audit scope for the kernel configuration.
pub fn measure() -> Measurement {
    let report = StructureReport::for_config(KernelConfig::kernel());
    let scopes = report
        .scopes
        .iter()
        .map(|s| ScopeRow {
            property: s.property.label(),
            layered: s.layered_weight,
            flat: s.flat_weight,
        })
        .collect();
    Measurement {
        scopes,
        mean_scope: report.mean_scope_fraction(),
    }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "A3: per-property certification scope, layered vs flat kernel",
        &format!("\"{QUOTE}\""),
    );
    let mut t = Table::new(&[
        "security property",
        "layered scope (stmts)",
        "flat scope (stmts)",
        "fraction of kernel",
    ]);
    for s in &m.scopes {
        t.row(&[
            s.property.into(),
            s.layered.to_string(),
            s.flat.to_string(),
            format!("{:.0}%", 100.0 * s.fraction()),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "mean per-property audit scope: {:.0}% of the protected kernel",
        100.0 * m.mean_scope
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "The MLS-at-the-bottom layering (the paper's partitioning proposal)"
    )
    .unwrap();
    writeln!(
        out,
        "makes the compartmentalization property checkable against a fraction"
    )
    .unwrap();
    writeln!(
        out,
        "of the kernel; complete mediation remains the widest property — the"
    )
    .unwrap();
    writeln!(
        out,
        "reason the reference monitor is the part that must be smallest and"
    )
    .unwrap();
    writeln!(out, "best understood.").unwrap();
    out
}

/// The paper's expectations over the scopes.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    vec![
        ClaimResult::new(
            "A3.mean-scope",
            "A3",
            QUOTE,
            ClaimShape::FractionNear {
                paper: 0.35,
                tol: 0.07,
                accept_tol: 0.07,
            },
            m.mean_scope,
            "mean per-property audit scope as a fraction of the kernel",
        ),
        ClaimResult::new(
            "A3.no-property-needs-whole",
            "A3",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            m.whole_kernel_properties() as f64,
            "properties whose layered audit scope is the entire kernel",
        ),
        ClaimResult::new(
            "A3.mediation-widest",
            "A3",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            m.wider_than_mediation() as f64,
            "properties with a wider audit scope than complete mediation",
        ),
    ]
}

/// Measurement + report + claims.
pub fn run() -> ExperimentOutput {
    let m = measure();
    ExperimentOutput::new(report(&m), claims(&m))
}
