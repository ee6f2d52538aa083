//! E15 — crash recovery under injected faults: the kernel comes back
//! securely, and the harness can prove it would notice if it did not.
//!
//! The paper's engineering chapters lean on two recovery mechanisms: the
//! salvager ("repairs the hierarchy", always restrictively) and
//! initialization from a pre-built memory image (the same protected state
//! on every boot). This experiment drives the deterministic
//! fault-injection layer (`mks-hw::inject`) through the crash-recovery
//! harness (`mks-kernel::recovery`): seeded plans drop wakeups, slow and
//! fail disk transfers, tear directory branches mid-write, corrupt
//! labels, warp audit timestamps, and kill the workload mid-operation;
//! recovery then re-boots and salvages, and the harness checks the
//! integrity invariants (labels only raised, no residual damage, gate
//! census unchanged, reference monitor still consulted, boot
//! determinism). Two deliberately-broken recovery paths — salvage
//! skipped, label lowered after repair — prove the invariant checks have
//! teeth.

use std::collections::BTreeSet;
use std::fmt::Write;

use mks_hw::{FaultEvent, FaultPlan, InjectKind};
use mks_kernel::recovery::{run_plan, run_seed, RecoveryOutcome, SalvageMutation};
use mks_kernel::statemachine::WorkloadSpec;

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};

const QUOTE: &str = "the salvager repairs the hierarchy ... initialization from a pre-initialized memory image produces the same protected state";

/// Seeded plans in the main sweep. Pinned so `results/` regenerates
/// byte-identically; the big randomized sweep lives in
/// `tests/fault_injection.rs`.
const SWEEP_SEEDS: u64 = 24;

/// The campaign's observations.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Per-seed honest recovery outcomes.
    pub per_seed: Vec<RecoveryOutcome>,
    /// Crafted-plan outcomes guaranteeing every repair arm is exercised
    /// (`(detail, outcome)` for the tear-mode sweep).
    pub crafted: Vec<(u64, RecoveryOutcome)>,
    /// Distinct salvager repair arms reached across the whole campaign.
    pub kinds: Vec<&'static str>,
    /// Replay mismatches: seeds whose second run differed from the first.
    pub replay_mismatches: u64,
    /// Violations raised by the skip-salvage mutation run.
    pub skip_violations: usize,
    /// Violations raised by the lower-after-repair mutation run.
    pub lower_violations: usize,
}

/// A workload guaranteed to damage the tree: tear the first branch
/// creations with tear mode `detail`, at both a directory-shaped and a
/// segment-shaped hit.
fn crafted_spec(detail: u64) -> WorkloadSpec {
    WorkloadSpec::of_plan(FaultPlan::from_events(vec![
        FaultEvent {
            kind: InjectKind::TearBranch,
            nth: 0,
            detail,
        },
        FaultEvent {
            kind: InjectKind::TearBranch,
            nth: 3,
            detail,
        },
    ]))
}

/// Runs the sweep, the crafted arm coverage, the replay check, and the
/// broken-salvager mutations.
pub fn measure() -> Measurement {
    let honest = SalvageMutation::None;
    let mut kinds: BTreeSet<&'static str> = BTreeSet::new();

    let mut per_seed = Vec::new();
    let mut replay_mismatches = 0u64;
    for seed in 1..=SWEEP_SEEDS {
        let out = run_seed(seed, honest);
        if seed <= 4 && run_seed(seed, honest) != out {
            replay_mismatches += 1;
        }
        kinds.extend(out.problem_kinds.iter().copied());
        per_seed.push(out);
    }

    let mut crafted = Vec::new();
    for detail in 0..8 {
        let out = run_plan(&crafted_spec(detail), honest);
        kinds.extend(out.problem_kinds.iter().copied());
        crafted.push((detail, out));
    }

    // The mutation check: a deliberately-broken recovery path must be
    // caught. Reuse a crafted damaging plan so the skip has something to
    // miss; the lowering needs only a surviving non-BOTTOM label.
    let skip = run_plan(&crafted_spec(1), SalvageMutation::SkipSalvage);
    let lower = run_plan(
        &WorkloadSpec::of_plan(FaultPlan::from_events(vec![])),
        SalvageMutation::LowerAfterRepair,
    );

    Measurement {
        per_seed,
        crafted,
        kinds: kinds.into_iter().collect(),
        replay_mismatches,
        skip_violations: skip.violations.len(),
        lower_violations: lower.violations.len(),
    }
}

fn total_violations(m: &Measurement) -> usize {
    m.per_seed
        .iter()
        .chain(m.crafted.iter().map(|(_, o)| o))
        .map(|o| o.violations.len())
        .sum()
}

fn total_problems(m: &Measurement) -> usize {
    m.per_seed
        .iter()
        .chain(m.crafted.iter().map(|(_, o)| o))
        .map(|o| o.problems_found)
        .sum()
}

fn crashes(m: &Measurement) -> usize {
    m.per_seed.iter().filter(|o| o.crashed).count()
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "E15: crash recovery under injected faults",
        &format!("\"{QUOTE}\""),
    );
    let mut t = Table::new(&[
        "seed",
        "ops",
        "crashed",
        "faults fired",
        "problems",
        "repaired",
        "violations",
    ]);
    for o in &m.per_seed {
        t.row(&[
            format!("{:#x}", o.seed),
            o.ops_run.to_string(),
            if o.crashed { "yes".into() } else { "no".into() },
            o.fired.len().to_string(),
            o.problems_found.to_string(),
            o.repaired.to_string(),
            o.violations.len().to_string(),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "sweep: {} seeded plans, {} mid-workload crashes, {} faults delivered,",
        m.per_seed.len(),
        crashes(m),
        m.per_seed.iter().map(|o| o.fired.len()).sum::<usize>()
    )
    .unwrap();
    writeln!(
        out,
        "{} hierarchy problems found and repaired, {} invariant violations.",
        total_problems(m),
        total_violations(m)
    )
    .unwrap();
    writeln!(out).unwrap();
    let mut t = Table::new(&["tear mode (detail)", "problems", "repair arms reached"]);
    for (detail, o) in &m.crafted {
        t.row(&[
            detail.to_string(),
            o.problems_found.to_string(),
            o.problem_kinds.join(", "),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "repair arms exercised across the campaign ({}): {}",
        m.kinds.len(),
        m.kinds.join(", ")
    )
    .unwrap();
    writeln!(
        out,
        "replay check: {} mismatch(es) re-running the first seeds.",
        m.replay_mismatches
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "mutation check — the harness must catch a broken recovery path:"
    )
    .unwrap();
    writeln!(
        out,
        "  salvage skipped entirely:   {} violation(s) raised",
        m.skip_violations
    )
    .unwrap();
    writeln!(
        out,
        "  label lowered after repair: {} violation(s) raised",
        m.lower_violations
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "Consequence: recovery is part of the kernel's security argument —"
    )
    .unwrap();
    writeln!(
        out,
        "the system returns from an induced crash to the same protected"
    )
    .unwrap();
    writeln!(
        out,
        "state, with every repair in the restrictive direction."
    )
    .unwrap();
    out
}

/// The paper's expectations over the campaign.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    vec![
        ClaimResult::new(
            "E15.invariants-hold",
            "E15",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            total_violations(m) as f64,
            "integrity-invariant violations across every honest recovery run",
        ),
        ClaimResult::new(
            "E15.damage-produced",
            "E15",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            total_problems(m) as f64,
            "hierarchy problems the injected faults produced (the sweep is not vacuous)",
        ),
        ClaimResult::new(
            "E15.crashes-exercised",
            "E15",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            crashes(m) as f64,
            "seeded runs killed mid-operation by a planned crash event",
        ),
        ClaimResult::new(
            "E15.all-repair-arms-reached",
            "E15",
            QUOTE,
            ClaimShape::ExactCount { expect: 8 },
            m.kinds.len() as f64,
            "distinct salvager repair arms exercised via injection",
        ),
        ClaimResult::new(
            "E15.recovery-deterministic",
            "E15",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            m.replay_mismatches as f64,
            "replay mismatches between identical seeded recovery runs",
        ),
        ClaimResult::new(
            "E15.broken-salvager-caught",
            "E15",
            QUOTE,
            ClaimShape::ExactCount { expect: 2 },
            [m.skip_violations, m.lower_violations]
                .iter()
                .filter(|&&v| v > 0)
                .count() as f64,
            "deliberately-broken recovery paths the invariant checks caught",
        ),
    ]
}

/// Measurement + report + claims (+ the per-seed recovery artifact).
pub fn run() -> ExperimentOutput {
    let m = measure();
    let mut out = ExperimentOutput::new(report(&m), claims(&m));
    let mut lines = String::from("seed,ops_run,crashed,fired,problems,repaired,violations\n");
    for o in &m.per_seed {
        writeln!(
            lines,
            "{:#x},{},{},{},{},{},{}",
            o.seed,
            o.ops_run,
            o.crashed,
            o.fired.len(),
            o.problems_found,
            o.repaired,
            o.violations.len()
        )
        .unwrap();
    }
    out.artifacts
        .push(("e15_recovery_runs.csv".to_string(), lines));
    out
}
