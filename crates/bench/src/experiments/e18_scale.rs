//! E18 — million-principal scale: "Multics as a service".
//!
//! The kernel the paper engineers is for a *computer utility* — a shared
//! machine whose registered population is orders of magnitude larger
//! than its live load, and whose reference monitor stands in the path of
//! **every** reference. That architecture only works if mediation cost
//! is a property of the operation, not of the population: an ACL check
//! must not slow down because the site registered another hundred
//! thousand principals.
//!
//! This experiment builds seeded populations at four rungs (10^3 →
//! 10^6 principals; see [`crate::scale`]) with Zipf-skewed projects,
//! population-proportional registry ACLs, and skewed clearances, then
//! drives production-shaped traffic — read-dominated segment access,
//! gate calls, initiation churn, login churn with lazy enrollment — and
//! machine-checks:
//!
//! * **mediation scales** — branch-slot probes per hierarchy lookup and
//!   ACL work-units per evaluation stay ~flat from 10^3 to 10^6, while
//!   the *linear-equivalent* cost (what the pre-index full scans would
//!   examine) grows by orders of magnitude;
//! * **simulated cost parity** — cycles per mediated op are the same at
//!   every rung;
//! * **indexing is invisible** — the indexed ACL / hierarchy paths give
//!   verdicts identical to the retained linear-scan specifications on
//!   sampled probes at every rung and across a seed sweep, batched audit
//!   emission is byte-identical to singles, and the user-available gate
//!   census does not move.

use std::fmt::Write;

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};
use crate::scale::{audit_batch_parity, run_rung, RungMeasurement, RUNGS};

const QUOTE: &str =
    "the kernel mediates every reference ... a computing utility must serve a large user community without the mediation becoming the bottleneck";

/// Ops driven at the top (10^6) rung — the "10 million mediated
/// references" sustained-load requirement.
const TOP_RUNG_OPS: u64 = 10_000_000;

/// Ops at the lower rungs (enough traffic for stable per-op numbers).
const LOWER_RUNG_OPS: u64 = 200_000;

/// Population of each sweep world (small: the sweep is about seed
/// coverage of the differentials, not scale).
const SWEEP_POPULATION: u64 = 1_000;

/// Ops per sweep seed.
const SWEEP_OPS: u64 = 20_000;

/// Default seeds in the differential sweep; `MKS_SWEEP_SEEDS` overrides.
const SWEEP_SEEDS_DEFAULT: u64 = 8;

/// The campaign's observations.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// One entry per population rung, in [`RUNGS`] order.
    pub rungs: Vec<RungMeasurement>,
    /// Seeds swept at the small rung for differential coverage.
    pub sweep_seeds: u64,
    /// Indexed-vs-linear mismatches across the whole sweep (must be 0).
    pub sweep_mismatches: u64,
    /// Batched audit emission byte-identical to singles.
    pub audit_parity: bool,
}

/// Runs the rung ladder, the seed sweep, and the audit-batch parity
/// check.
pub fn measure() -> Measurement {
    let rungs: Vec<RungMeasurement> = RUNGS
        .iter()
        .map(|&pop| {
            let ops = if pop >= 1_000_000 {
                TOP_RUNG_OPS
            } else {
                LOWER_RUNG_OPS
            };
            run_rung(pop, 0xE18, ops)
        })
        .collect();
    let sweep_seeds = crate::sweep_seeds(SWEEP_SEEDS_DEFAULT);
    let mut sweep_mismatches = 0u64;
    for seed in 1..=sweep_seeds {
        let m = run_rung(SWEEP_POPULATION, seed, SWEEP_OPS);
        sweep_mismatches += m.acl_mismatches + m.lookup_mismatches;
    }
    Measurement {
        rungs,
        sweep_seeds,
        sweep_mismatches,
        audit_parity: audit_batch_parity(),
    }
}

fn first(m: &Measurement) -> &RungMeasurement {
    m.rungs.first().expect("at least one rung")
}

fn top(m: &Measurement) -> &RungMeasurement {
    m.rungs.last().expect("at least one rung")
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner("E18: million-principal scale", &format!("\"{QUOTE}\""));
    let mut t = Table::new(&[
        "population",
        "projects",
        "largest",
        "acl entries",
        "ops",
        "cyc/op",
        "probes/lookup",
        "acl work/eval",
        "linear equiv",
        "logins",
    ]);
    for r in &m.rungs {
        t.row(&[
            r.population.to_string(),
            r.nr_projects.to_string(),
            r.largest_project.to_string(),
            r.registry_entries.to_string(),
            r.ops.to_string(),
            format!("{:.1}", r.cycles_per_op),
            format!("{:.3}", r.probes_per_lookup),
            format!("{:.2}", r.acl_work_per_eval),
            r.acl_linear_equiv.to_string(),
            r.stats.logins.to_string(),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    let (f, tp) = (first(m), top(m));
    writeln!(
        out,
        "scaling: population grew {}x (10^3 -> 10^6) while probes per lookup moved",
        tp.population / f.population.max(1),
    )
    .unwrap();
    writeln!(
        out,
        "{:.3} -> {:.3} and indexed ACL work {:.2} -> {:.2} work-units per check;",
        f.probes_per_lookup, tp.probes_per_lookup, f.acl_work_per_eval, tp.acl_work_per_eval,
    )
    .unwrap();
    writeln!(
        out,
        "the linear-equivalent scan those checks replaced grew {} -> {} entries",
        f.acl_linear_equiv, tp.acl_linear_equiv,
    )
    .unwrap();
    writeln!(
        out,
        "({}x). Simulated cost held at {:.1} vs {:.1} cycles per mediated op.",
        tp.acl_linear_equiv / f.acl_linear_equiv.max(1),
        f.cycles_per_op,
        tp.cycles_per_op,
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "traffic at the top rung: {} mediated ops ({} reads, {} writes, {} gate",
        tp.ops, tp.stats.reads, tp.stats.writes, tp.stats.gate_calls,
    )
    .unwrap();
    writeln!(
        out,
        "calls, {} initiations, {} terminations), {} login sessions cycled with",
        tp.stats.initiations, tp.stats.terminations, tp.stats.logins,
    )
    .unwrap();
    writeln!(
        out,
        "{} lazy enrollments, {} denied references audited.",
        tp.stats.enrollments, tp.stats.denied,
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "equivalence: indexed paths vs retained linear specs — {} mismatches at",
        m.rungs
            .iter()
            .map(|r| r.acl_mismatches + r.lookup_mismatches)
            .sum::<u64>(),
    )
    .unwrap();
    writeln!(
        out,
        "the rungs, {} across a {}-seed sweep; batched audit emission byte-equal",
        m.sweep_mismatches, m.sweep_seeds,
    )
    .unwrap();
    writeln!(
        out,
        "to singles: {}; user-available gate census: {} (unchanged).",
        m.audit_parity, tp.gate_census,
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "Consequence: complete mediation survives the computer utility's scale —"
    )
    .unwrap();
    writeln!(
        out,
        "the monitor's cost is set by the operation, not by how many principals"
    )
    .unwrap();
    writeln!(out, "the site has registered.").unwrap();
    out
}

/// The scale experiment's expectations over the measurement.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    let (f, t) = (first(m), top(m));
    let rung_mismatches: u64 = m
        .rungs
        .iter()
        .map(|r| r.acl_mismatches + r.lookup_mismatches)
        .sum();
    let max_acl_work = m
        .rungs
        .iter()
        .map(|r| r.acl_work_per_eval)
        .fold(0.0f64, f64::max);
    vec![
        ClaimResult::new(
            "E18.population-scale",
            "E18",
            QUOTE,
            ClaimShape::AtLeast { min: 1_000_000.0 },
            t.population as f64,
            "registered principals at the top rung",
        ),
        ClaimResult::new(
            "E18.ops-at-scale",
            "E18",
            QUOTE,
            ClaimShape::AtLeast { min: 10_000_000.0 },
            t.ops as f64,
            "monitor-mediated operations sustained over the million-principal world",
        ),
        ClaimResult::new(
            "E18.lookup-probes-flat",
            "E18",
            QUOTE,
            ClaimShape::ParityWithin { tolerance: 0.1 },
            t.probes_per_lookup / f.probes_per_lookup.max(f64::MIN_POSITIVE),
            "branch-slot probes per hierarchy lookup, 10^6 rung relative to 10^3",
        ),
        ClaimResult::new(
            "E18.acl-work-bounded",
            "E18",
            QUOTE,
            ClaimShape::AtMost { max: 4.0 },
            max_acl_work,
            "worst indexed ACL work-units per evaluation across all rungs",
        ),
        ClaimResult::new(
            "E18.linear-counterfactual-grows",
            "E18",
            QUOTE,
            ClaimShape::FactorAtLeast {
                paper: 100.0,
                accept: 100.0,
            },
            t.acl_linear_equiv as f64 / f.acl_linear_equiv.max(1) as f64,
            "growth of the linear-equivalent ACL scan the index replaced, 10^3 -> 10^6",
        ),
        ClaimResult::new(
            "E18.cycles-per-op-flat",
            "E18",
            QUOTE,
            ClaimShape::ParityWithin { tolerance: 0.25 },
            t.cycles_per_op / f.cycles_per_op.max(f64::MIN_POSITIVE),
            "simulated cycles per mediated op, 10^6 rung relative to 10^3",
        ),
        ClaimResult::new(
            "E18.differential-clean",
            "E18",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            rung_mismatches as f64,
            "indexed-vs-linear verdict mismatches sampled at every rung",
        ),
        ClaimResult::new(
            "E18.sweep-clean",
            "E18",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            m.sweep_mismatches as f64,
            "indexed-vs-linear mismatches across the seed sweep",
        ),
        ClaimResult::new(
            "E18.sweep-covered",
            "E18",
            QUOTE,
            ClaimShape::AtLeast { min: 4.0 },
            m.sweep_seeds as f64,
            "seeds swept in the differential sweep (MKS_SWEEP_SEEDS can raise, default 8)",
        ),
        ClaimResult::new(
            "E18.audit-batch-parity",
            "E18",
            QUOTE,
            ClaimShape::ExactCount { expect: 1 },
            u64::from(m.audit_parity) as f64,
            "batched audit emission byte-identical to per-record appends",
        ),
        ClaimResult::new(
            "E18.login-churn",
            "E18",
            QUOTE,
            ClaimShape::AtLeast { min: 1_000.0 },
            t.stats.logins as f64,
            "login sessions cycled (with lazy enrollment) at the top rung",
        ),
        ClaimResult::new(
            "E18.no-new-gates",
            "E18",
            QUOTE,
            ClaimShape::ExactCount { expect: 54 },
            t.gate_census as f64,
            "user-available gate entries after the million-principal campaign",
        ),
    ]
}

/// Measurement + report + claims (+ the per-rung CSV artifact).
pub fn run() -> ExperimentOutput {
    let m = measure();
    let mut out = ExperimentOutput::new(report(&m), claims(&m));
    let mut lines = String::from(
        "population,projects,largest_project,registry_acl_entries,ops,completed,denied,\
         logins,enrollments,sim_cycles,cycles_per_op,lookups,probes,probes_per_lookup,\
         acl_work_per_eval,acl_linear_equiv\n",
    );
    for r in &m.rungs {
        writeln!(
            lines,
            "{},{},{},{},{},{},{},{},{},{},{:.3},{},{},{:.4},{:.3},{}",
            r.population,
            r.nr_projects,
            r.largest_project,
            r.registry_entries,
            r.ops,
            r.stats.completed,
            r.stats.denied,
            r.stats.logins,
            r.stats.enrollments,
            r.sim_cycles,
            r.cycles_per_op,
            r.lookups,
            r.probes,
            r.probes_per_lookup,
            r.acl_work_per_eval,
            r.acl_linear_equiv,
        )
        .unwrap();
    }
    out.artifacts
        .push(("e18_scale_rungs.csv".to_string(), lines));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_rung_holds_the_scale_invariants() {
        let r = run_rung(1_000, 5, 20_000);
        assert!(r.ops >= 20_000);
        assert!(r.probes_per_lookup < 1.1, "{r:?}");
        assert!(r.acl_work_per_eval < 4.0, "{r:?}");
        assert_eq!(r.acl_mismatches + r.lookup_mismatches, 0);
        assert_eq!(r.gate_census, 54);
    }

    #[test]
    fn rung_measurements_are_deterministic() {
        let a = run_rung(1_000, 11, 10_000);
        let b = run_rung(1_000, 11, 10_000);
        assert_eq!(a.sim_cycles, b.sim_cycles);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.lookups, b.lookups);
        assert_eq!(a.probes, b.probes);
    }
}
