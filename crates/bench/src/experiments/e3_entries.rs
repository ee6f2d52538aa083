//! E3 — "The linker and reference name removal projects together reduce
//! the number of user-available supervisor entries by approximately one
//! third."

use std::fmt::Write;

use mks_kernel::{GateTable, KernelConfig};

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};

const QUOTE: &str = "the linker and reference name removal projects together reduce the number of user-available supervisor entries by approximately one third";

/// Honest-gap note shared by the report and the claim record.
pub(crate) const GAP_NOTE: &str =
    "the two removals cut 29% of the user-available surface against the \
paper's ~33%; the census is entry-exact, so the shortfall is a property of the reproduced gate \
population (our legacy census carries proportionally more file-system entries), not of drift";

/// One rung of the removal ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Configuration display name.
    pub name: &'static str,
    /// User-available supervisor entries.
    pub entries: usize,
}

/// The removal ladder, measured.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// legacy → +linker removal → +naming removal → full kernel.
    pub ladder: Vec<Rung>,
}

impl Measurement {
    /// The fraction of the legacy surface the two removals cut.
    fn both_removals_fraction(&self) -> f64 {
        let base = self.ladder[0].entries as f64;
        (base - self.ladder[2].entries as f64) / base
    }
}

/// Builds the census for every rung of the ladder.
pub fn measure() -> Measurement {
    let ladder = [
        KernelConfig::legacy(),
        KernelConfig::legacy_linker_removed(),
        KernelConfig::legacy_both_removals(),
        KernelConfig::kernel(),
    ]
    .into_iter()
    .map(|cfg| Rung {
        name: cfg.name(),
        entries: GateTable::build(&cfg).user_available_entries(),
    })
    .collect();
    Measurement { ladder }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "E3: user-available supervisor entries across the removal ladder",
        &format!("\"{QUOTE}\""),
    );
    let base = m.ladder[0].entries;
    let mut t = Table::new(&["configuration", "user entries", "vs legacy"]);
    for rung in &m.ladder {
        t.row(&[
            rung.name.into(),
            rung.entries.to_string(),
            format!(
                "-{:.0}%",
                100.0 * (base - rung.entries) as f64 / base as f64
            ),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "linker + naming removals cut {:.1}% of user-available entries (paper: ~33%)",
        100.0 * m.both_removals_fraction()
    )
    .unwrap();
    out
}

/// The paper's expectations over the ladder. The four census counts are
/// asserted exactly: a gate-table edit cannot silently change the E1/E3
/// story.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    let expect = [101i64, 91, 72, 54];
    let slug = ["legacy", "linker-removed", "both-removals", "kernel"];
    let mut out: Vec<ClaimResult> = m
        .ladder
        .iter()
        .zip(expect)
        .zip(slug)
        .map(|((rung, expect), slug)| {
            ClaimResult::new(
                &format!("E3.ladder-{slug}"),
                "E3",
                QUOTE,
                ClaimShape::ExactCount { expect },
                rung.entries as f64,
                format!("user-available entries, {}", rung.name),
            )
        })
        .collect();
    out.push(
        ClaimResult::new(
            "E3.one-third-cut",
            "E3",
            QUOTE,
            ClaimShape::FractionNear {
                paper: 0.33,
                tol: 0.03,
                accept_tol: 0.06,
            },
            m.both_removals_fraction(),
            "fraction of the legacy user-available surface cut by both removals",
        )
        .with_gap(GAP_NOTE),
    );
    out
}

/// Measurement + report + claims.
pub fn run() -> ExperimentOutput {
    let m = measure();
    ExperimentOutput::new(report(&m), claims(&m))
}
