//! E12 — the penetration catalog against both configurations.
//!
//! "in all general-purpose systems confronted, a wily user can construct a
//! program that can obtain unauthorized access" — and the kernel project's
//! goal is a system where he cannot.

use std::fmt::Write;

use mks_kernel::penetration::{breaches, run_catalog, AttackOutcome, AttackReport};
use mks_kernel::KernelConfig;

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};

const QUOTE: &str = "a wily user can construct a program that can obtain unauthorized access";

/// The catalog run against every rung of the removal ladder.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Full attack reports, legacy configuration.
    pub legacy: Vec<AttackReport>,
    /// Full attack reports, kernel configuration.
    pub kernel: Vec<AttackReport>,
    /// `(configuration name, breaches)` along the removal ladder.
    pub ladder: Vec<(&'static str, usize)>,
}

impl Measurement {
    /// Breach inversions along the ladder (rungs where breaches rise).
    fn ladder_inversions(&self) -> usize {
        self.ladder.windows(2).filter(|w| w[1].1 > w[0].1).count()
    }
}

/// Runs the 15-attack catalog against all four configurations.
pub fn measure() -> Measurement {
    let legacy = run_catalog(KernelConfig::legacy());
    let kernel = run_catalog(KernelConfig::kernel());
    let ladder = [
        KernelConfig::legacy(),
        KernelConfig::legacy_linker_removed(),
        KernelConfig::legacy_both_removals(),
        KernelConfig::kernel(),
    ]
    .into_iter()
    .map(|cfg| {
        let r = run_catalog(cfg);
        (cfg.name(), breaches(&r))
    })
    .collect();
    Measurement {
        legacy,
        kernel,
        ladder,
    }
}

fn outcome_cell(o: &AttackOutcome) -> String {
    match o {
        AttackOutcome::Breach(why) => format!("BREACH: {why}"),
        AttackOutcome::Denied => "denied".into(),
        AttackOutcome::DeniedUninformative => "denied (no info)".into(),
        AttackOutcome::AuthorizedDenialOnly => "authorized denial only".into(),
    }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "E12: the attack catalog, legacy supervisor vs security kernel",
        &format!("\"{QUOTE}\" — on the legacy system"),
    );
    let mut t = Table::new(&["attack", "class", "legacy supervisor", "security kernel"]);
    for (l, k) in m.legacy.iter().zip(m.kernel.iter()) {
        t.row(&[
            l.name.into(),
            l.class.into(),
            outcome_cell(&l.outcome),
            outcome_cell(&k.outcome),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "breaches: legacy {} / {}   kernel {} / {}",
        breaches(&m.legacy),
        m.legacy.len(),
        breaches(&m.kernel),
        m.kernel.len()
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(out, "intermediate rungs of the removal ladder:").unwrap();
    for (name, b) in &m.ladder {
        writeln!(out, "  {name:<38} {b:>2} breaches").unwrap();
    }
    out
}

/// The paper's expectations over the catalog.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    vec![
        ClaimResult::new(
            "E12.kernel-zero-breaches",
            "E12",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            breaches(&m.kernel) as f64,
            "breaches against the security kernel (15-attack catalog)",
        ),
        ClaimResult::new(
            "E12.legacy-breaches",
            "E12",
            QUOTE,
            ClaimShape::ExactCount { expect: 7 },
            breaches(&m.legacy) as f64,
            "breaches against the legacy supervisor",
        ),
        ClaimResult::new(
            "E12.catalog-size",
            "E12",
            QUOTE,
            ClaimShape::ExactCount { expect: 15 },
            m.kernel.len() as f64,
            "attacks in the Linde-style catalog",
        ),
        ClaimResult::new(
            "E12.monotone-ladder",
            "E12",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            m.ladder_inversions() as f64,
            "removal-ladder rungs where the breach count rises",
        ),
    ]
}

/// Measurement + report + claims.
pub fn run() -> ExperimentOutput {
    let m = measure();
    ExperimentOutput::new(report(&m), claims(&m))
}
