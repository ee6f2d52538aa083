//! E13 — footnote 6: certify the compiler per program, not in general.
//!
//! "the compiler need compile correctly only the specific programs of the
//! kernel ... the compiler's effect on the kernel can be certified by
//! comparing the source code 'model' for each kernel module with the
//! compiler-produced object code 'implementation'."

use std::fmt::Write;

use mks_cert::kernel_modules::KERNEL_SOURCES;
use mks_cert::{compile, parse_program, validate, Op, Verdict};
use mks_hw::SplitMix64;

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};

const QUOTE: &str =
    "footnote 6: the compiler need compile correctly only the specific programs of the kernel";

/// One kernel module's validation line.
#[derive(Debug, Clone)]
pub struct ModuleRow {
    /// Module name.
    pub name: &'static str,
    /// Procedures in the module.
    pub procedures: usize,
    /// Procedures certified.
    pub certified: usize,
    /// Differential vectors checked across them.
    pub vectors: usize,
}

/// Validation of every kernel procedure plus the mutation campaign.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Per-module validation results.
    pub modules: Vec<ModuleRow>,
    /// Procedures whose validation was rejected (must be 0).
    pub rejected: usize,
    /// Non-identity mutants generated.
    pub mutants: usize,
    /// Mutants killed in total.
    pub killed: usize,
    /// Of those, killed by the static (CFI/stack) checks.
    pub killed_by_static: usize,
    /// Mutants that survived (semantically equivalent rewrites).
    pub survived: usize,
}

impl Measurement {
    /// Total kernel procedures validated.
    pub fn procedures(&self) -> usize {
        self.modules.iter().map(|m| m.procedures).sum()
    }

    /// Mutation-campaign kill fraction.
    fn kill_rate(&self) -> f64 {
        self.killed as f64 / (self.killed + self.survived) as f64
    }
}

/// Applies one random mutation to the object code (a compiler-bug model).
fn mutate(code: &mut [Op], rng: &mut SplitMix64) {
    let i = rng.below(code.len() as u64) as usize;
    code[i] = match rng.below(6) {
        0 => Op::Push(rng.below(18) as i64 - 9),
        1 => Op::Load(rng.below(4) as u16),
        2 => Op::Store(rng.below(4) as u16),
        3 => Op::Jmp(rng.below(code.len() as u64 + 8) as u32),
        4 => match code[i] {
            Op::Add => Op::Sub,
            Op::Sub => Op::Add,
            Op::Lt => Op::Gt,
            Op::Gt => Op::Lt,
            other => other,
        },
        _ => Op::Ret,
    };
}

/// Validates every kernel procedure and runs the mutation campaign.
pub fn measure() -> Measurement {
    let mut modules = Vec::new();
    let mut rejected = 0;
    let mut all_procs = Vec::new();
    for (name, src) in KERNEL_SOURCES {
        let procs = parse_program(src).expect("kernel sources parse");
        let mut ok = 0;
        let mut vectors = 0;
        for p in &procs {
            let obj = compile(p).expect("kernel sources compile");
            match validate(p, &obj) {
                Verdict::Certified { vectors_checked } => {
                    ok += 1;
                    vectors += vectors_checked;
                }
                Verdict::Rejected { .. } => rejected += 1,
            }
            all_procs.push((p.clone(), obj));
        }
        modules.push(ModuleRow {
            name,
            procedures: procs.len(),
            certified: ok,
            vectors,
        });
    }

    // Mutation campaign: a buggy "compiler" whose output differs by one
    // operation must be caught.
    let mut rng = SplitMix64::new(0xC0DE);
    let mut killed = 0;
    let mut survived = 0;
    let mut killed_by_static = 0;
    const MUTANTS: usize = 1_000;
    for _ in 0..MUTANTS {
        let (src, obj) = &all_procs[rng.below(all_procs.len() as u64) as usize];
        let mut bad = obj.clone();
        mutate(&mut bad.code, &mut rng);
        if bad.code == obj.code {
            continue; // identity mutation: not a bug
        }
        match validate(src, &bad) {
            Verdict::Rejected { reason } => {
                killed += 1;
                if reason.contains("static") {
                    killed_by_static += 1;
                }
            }
            Verdict::Certified { .. } => survived += 1,
        }
    }
    Measurement {
        modules,
        rejected,
        mutants: killed + survived,
        killed,
        killed_by_static,
        survived,
    }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "E13: per-program translation validation of the kernel's compiler",
        "footnote 6: compare each module's source 'model' with its object-code 'implementation'",
    );
    let mut t = Table::new(&["kernel module", "procedures", "verdicts", "vectors checked"]);
    for row in &m.modules {
        t.row(&[
            row.name.into(),
            row.procedures.to_string(),
            format!("{} certified", row.certified),
            row.vectors.to_string(),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "mutation campaign: {} mutants, {} killed ({} by static checks, {} by differential execution), {} survived",
        m.mutants,
        m.killed,
        m.killed_by_static,
        m.killed - m.killed_by_static,
        m.survived
    )
    .unwrap();
    writeln!(
        out,
        "kill rate: {:.1}% (survivors are semantically equivalent mutants, e.g. a",
        100.0 * m.kill_rate()
    )
    .unwrap();
    writeln!(
        out,
        "jump retargeted to an equivalent instruction — not miscompilations)."
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "The certified base never includes the compiler: each (source, object)"
    )
    .unwrap();
    writeln!(
        out,
        "pair is checked mechanically, which is footnote 6's entire point."
    )
    .unwrap();
    out
}

/// The paper's expectations over the validation.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    vec![
        ClaimResult::new(
            "E13.all-procedures-certified",
            "E13",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            m.rejected as f64,
            "kernel procedures whose translation validation was rejected",
        ),
        ClaimResult::new(
            "E13.nine-procedures",
            "E13",
            QUOTE,
            ClaimShape::ExactCount { expect: 9 },
            m.procedures() as f64,
            "KPL kernel procedures under validation",
        ),
        ClaimResult::new(
            "E13.mutants-caught",
            "E13",
            QUOTE,
            ClaimShape::AtLeast { min: 0.80 },
            m.kill_rate(),
            "fraction of single-op object-code mutants killed",
        ),
        ClaimResult::new(
            "E13.static-checks-contribute",
            "E13",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            m.killed_by_static as f64,
            "mutants killed by the static CFI/stack-balance checks alone",
        ),
    ]
}

/// Measurement + report + claims.
pub fn run() -> ExperimentOutput {
    let m = measure();
    ExperimentOutput::new(report(&m), claims(&m))
}
