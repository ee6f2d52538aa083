//! E16 — graceful degradation under overload: the kernel sheds load by
//! priority instead of stalling, and comes back securely from a crash
//! that lands mid-overload.
//!
//! Schroeder's argument needs the kernel's invariants to survive *hostile
//! or pathological load*, not just hostile references: a supervisor that
//! wedges on a quota storm or page-frame famine has lost auditability as
//! surely as one that leaks a segment. This experiment drives a mixed
//! many-principal workload up a load ladder against the admission-control
//! layer (`mks-kernel::pressure`) and machine-checks the degradation
//! posture:
//!
//! * throughput degrades **sub-linearly** — per-operation cost inflation
//!   stays strictly below the offered-load multiplier;
//! * shed work is **lowest-priority-first** — zero priority inversions in
//!   the recorded admission decisions;
//! * **no starvation** — System-class principals are never shed and still
//!   complete work at the heaviest rung;
//! * the **reference monitor is consulted** on every admission decision;
//! * every shed is **audited** as a typed `Overload` record;
//! * and all five E15 recovery invariants hold when a seeded exhaustion
//!   plan (frame famine, AST exhaustion, quota storms, audit floods)
//!   crashes the system *while it is shedding*.

use std::fmt::Write;

use mks_fs::{Acl, AclMode, DirMode, FileSystem, QuotaCell, UserId};
use mks_hw::{RingBrackets, SplitMix64, Word};
use mks_kernel::pressure::{PressureConfig, Priority, NR_PRIORITIES};
use mks_kernel::recovery::{run_plan, SalvageMutation};
use mks_kernel::statemachine::WorkloadSpec;
use mks_kernel::world::{admin_user, System, SystemSize};
use mks_kernel::{KernelConfig, Monitor};
use mks_mls::Label;

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};

const QUOTE: &str = "the correct operation of the kernel is necessary and sufficient to guarantee enforcement ... under all conditions";

/// Principal counts per ladder rung (offered load rises 8x bottom to top).
const RUNGS: [usize; 4] = [2, 4, 8, 16];

/// Operations each principal attempts per rung.
const OPS_PER_PRINCIPAL: u64 = 24;

/// Priority assignment by principal index: every rung gets a System
/// principal, heavier rungs add the lower classes in shed order.
const PRIOS: [Priority; NR_PRIORITIES] = [
    Priority::System,
    Priority::Interactive,
    Priority::Normal,
    Priority::Background,
];

/// Recovery-under-overload sweep size.
const RECOVERY_SEEDS: u64 = 10;

/// What one ladder rung observed.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Principals driving this rung.
    pub principals: usize,
    /// Operations offered.
    pub offered: u64,
    /// Operations that completed successfully.
    pub completed: u64,
    /// Completions per priority class (shed-order index).
    pub completed_by_class: [u64; NR_PRIORITIES],
    /// Admission sheds per priority class.
    pub shed_by_class: [u64; NR_PRIORITIES],
    /// Admission decisions recorded.
    pub decisions: u64,
    /// Priority inversions in the decision log (must be zero).
    pub inversions: u64,
    /// `Overload` records in the audit log.
    pub audited_overloads: u64,
    /// Reference-monitor verdicts recorded during the rung.
    pub verdicts: u64,
    /// Simulated cycles the rung consumed.
    pub cycles: u64,
    /// Peak pressure observed (permille).
    pub peak_pressure: u32,
}

/// One recovery-under-overload run, summarized.
#[derive(Debug, Clone)]
pub struct OverloadRecovery {
    /// The plan seed.
    pub seed: u64,
    /// Whether the plan's crash event landed mid-workload.
    pub crashed: bool,
    /// Faults the injector delivered.
    pub fired: usize,
    /// E15 invariant violations (must be zero).
    pub violations: usize,
}

/// The campaign's observations.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The load ladder, lightest rung first.
    pub rungs: Vec<Rung>,
    /// The recovery-under-overload sweep.
    pub recovery: Vec<OverloadRecovery>,
    /// Exhaustion faults delivered across the recovery sweep.
    pub exhaustion_fired: u64,
}

fn load_user(i: usize) -> UserId {
    UserId::new(&format!("Load{i}"), "Traffic", "a")
}

/// Drives one rung: a fresh system, admission armed, `principals` mixed
/// principals interleaved op by op.
fn run_rung(principals: usize) -> Rung {
    let mut sys = System::with_size(
        KernelConfig::kernel(),
        SystemSize {
            frames: 32,
            bulk_records: 64,
            cpu: mks_hw::CpuModel::H6180,
            ..SystemSize::default()
        },
    );
    // Setup runs before admission is enabled (the administrator provisions
    // homes unimpeded): one home directory per principal, with the load
    // user granted full control — the root itself stays admin-only.
    let admin = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
    let aroot = sys.world.bind_root(admin);
    let mut pids = Vec::new();
    let mut probes: Vec<Option<mks_hw::SegNo>> = vec![None; principals];
    let mut homes = Vec::new();
    for i in 0..principals {
        let name = format!("h{i}");
        Monitor::create_directory(&mut sys.world, admin, aroot, &name, Label::BOTTOM)
            .expect("home directory creates on a fresh system");
        sys.world
            .fs
            .set_dir_acl_entry(
                FileSystem::ROOT,
                &name,
                &admin_user(),
                &load_user(i).to_acl_string(),
                DirMode::SMA,
            )
            .expect("home ACL grant");
        let pid = sys.world.create_process(load_user(i), Label::BOTTOM, 4);
        sys.world
            .admission
            .set_priority(pid, PRIOS[i % NR_PRIORITIES]);
        let root = sys.world.bind_root(pid);
        homes.push(Monitor::initiate_dir(&mut sys.world, pid, root, &name));
        pids.push(pid);
    }

    // A tight root quota makes storage headroom a real, monotone pressure
    // signal: every creation below charges a page against it.
    *sys.world
        .fs
        .quota_cell_mut(FileSystem::ROOT)
        .expect("root exists") = Some(QuotaCell::with_limit(96));
    sys.world.admission.enable(PressureConfig {
        audit_cap: 2048,
        deadline_budget: Some(10_000),
        ..PressureConfig::default()
    });

    let trace = sys.world.vm.machine.trace.clone();
    let verdicts_before = trace.counter("monitor.granted") + trace.counter("monitor.denied");
    let cycles_before = sys.world.vm.machine.clock.now();
    let mut rng = SplitMix64::new(0xe16 ^ principals as u64);
    let mut completed = 0u64;
    let mut completed_by_class = [0u64; NR_PRIORITIES];
    let mut offered = 0u64;
    let mut peak_pressure = 0u32;

    for op in 0..OPS_PER_PRINCIPAL {
        // Feed the scheduler's run-slot census into the gauge layer (the
        // observability satellite: the gauge is externally fed).
        let (dedicated, bound, free) = sys.tc.binding_census();
        sys.world
            .admission
            .set_run_slots(dedicated + bound, dedicated + bound + free);
        for (i, &pid) in pids.iter().enumerate() {
            offered += 1;
            let class = PRIOS[i % NR_PRIORITIES].index();
            let ok = match rng.below(6) {
                0 | 1 => match probes[i] {
                    // Paging traffic against the principal's own probe:
                    // frames/bulk saturation rises with the rung.
                    Some(seg) => {
                        let off =
                            (rng.below(4) * mks_hw::PAGE_WORDS as u64 + rng.below(64)) as usize;
                        Monitor::write(&mut sys.world, pid, seg, off, Word::new(op + 1)).is_ok()
                    }
                    None => {
                        let r = Monitor::create_segment(
                            &mut sys.world,
                            pid,
                            homes[i],
                            &format!("probe{i}"),
                            Acl::of("*.*.*", AclMode::RW),
                            RingBrackets::new(4, 4, 4),
                            Label::BOTTOM,
                        );
                        probes[i] = r.as_ref().ok().copied();
                        r.is_ok()
                    }
                },
                2 => Monitor::create_segment(
                    &mut sys.world,
                    pid,
                    homes[i],
                    &format!("s{i}x{op}"),
                    Acl::of("*.*.*", AclMode::RW),
                    RingBrackets::new(4, 4, 4),
                    Label::BOTTOM,
                )
                .is_ok(),
                3 => match probes[i] {
                    Some(seg) => {
                        Monitor::read(&mut sys.world, pid, seg, rng.below(64) as usize).is_ok()
                    }
                    None => Monitor::initiate(&mut sys.world, pid, homes[i], "nonexistent").is_ok(),
                },
                4 => Monitor::list_dir(&mut sys.world, pid, homes[i]).is_ok(),
                _ => Monitor::call_gate(&mut sys.world, pid, "hcs_", "metering_get").is_ok(),
            };
            if ok {
                completed += 1;
                completed_by_class[class] += 1;
            }
            let p = mks_kernel::pressure::read_pressure(&sys.world).peak();
            peak_pressure = peak_pressure.max(p);
        }
    }

    let audited_overloads = sys
        .world
        .log
        .matching(|e| matches!(e, mks_kernel::AuditEvent::Overload { .. }))
        .count() as u64;
    Rung {
        principals,
        offered,
        completed,
        completed_by_class,
        shed_by_class: sys.world.admission.shed_by_class(),
        decisions: sys.world.admission.decisions().len() as u64,
        inversions: sys.world.admission.priority_inversions(),
        audited_overloads,
        verdicts: trace.counter("monitor.granted") + trace.counter("monitor.denied")
            - verdicts_before,
        cycles: sys.world.vm.machine.clock.now() - cycles_before,
        peak_pressure,
    }
}

/// Runs the load ladder and the recovery-under-overload sweep.
pub fn measure() -> Measurement {
    let rungs: Vec<Rung> = RUNGS.iter().map(|&p| run_rung(p)).collect();

    let mut recovery = Vec::new();
    let mut exhaustion_fired = 0u64;
    for seed in 1..=RECOVERY_SEEDS {
        let out = run_plan(&WorkloadSpec::overload(seed), SalvageMutation::None);
        exhaustion_fired += out
            .fired
            .iter()
            .filter(|f| {
                matches!(
                    f.kind,
                    mks_hw::InjectKind::FrameFamine
                        | mks_hw::InjectKind::AstExhaust
                        | mks_hw::InjectKind::QuotaStorm
                        | mks_hw::InjectKind::AuditFlood
                )
            })
            .count() as u64;
        recovery.push(OverloadRecovery {
            seed,
            crashed: out.crashed,
            fired: out.fired.len(),
            violations: out.violations.len(),
        });
    }

    Measurement {
        rungs,
        recovery,
        exhaustion_fired,
    }
}

fn cycles_per_op(r: &Rung) -> f64 {
    r.cycles as f64 / r.completed.max(1) as f64
}

fn shed_total(m: &Measurement) -> u64 {
    m.rungs
        .iter()
        .map(|r| r.shed_by_class.iter().sum::<u64>())
        .sum()
}

fn audit_shortfall(m: &Measurement) -> u64 {
    m.rungs
        .iter()
        .map(|r| {
            r.shed_by_class
                .iter()
                .sum::<u64>()
                .saturating_sub(r.audited_overloads)
        })
        .sum()
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "E16: graceful degradation under overload",
        &format!("\"{QUOTE}\""),
    );
    let mut t = Table::new(&[
        "principals",
        "offered",
        "completed",
        "shed (bg/no/in/sy)",
        "inversions",
        "peak permille",
        "cycles/op",
    ]);
    for r in &m.rungs {
        t.row(&[
            r.principals.to_string(),
            r.offered.to_string(),
            r.completed.to_string(),
            format!(
                "{}/{}/{}/{}",
                r.shed_by_class[0], r.shed_by_class[1], r.shed_by_class[2], r.shed_by_class[3]
            ),
            r.inversions.to_string(),
            r.peak_pressure.to_string(),
            format!("{:.0}", cycles_per_op(r)),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    let first = m.rungs.first().expect("ladder non-empty");
    let last = m.rungs.last().expect("ladder non-empty");
    let load_factor = last.offered as f64 / first.offered as f64;
    writeln!(
        out,
        "ladder: offered load rose {load_factor:.0}x; per-op cost rose {:.2}x \
         (sub-linear iff < {load_factor:.0}x); goodput {} -> {}.",
        cycles_per_op(last) / cycles_per_op(first),
        first.completed,
        last.completed,
    )
    .unwrap();
    writeln!(
        out,
        "shedding: {} total sheds, {} audited overload records, {} priority inversions,",
        shed_total(m),
        m.rungs.iter().map(|r| r.audited_overloads).sum::<u64>(),
        m.rungs.iter().map(|r| r.inversions).sum::<u64>(),
    )
    .unwrap();
    writeln!(
        out,
        "{} System-class sheds; System completed {} ops at the heaviest rung.",
        m.rungs
            .iter()
            .map(|r| r.shed_by_class[Priority::System.index()])
            .sum::<u64>(),
        last.completed_by_class[Priority::System.index()],
    )
    .unwrap();
    writeln!(out).unwrap();
    let mut t = Table::new(&["seed", "crashed", "faults fired", "violations"]);
    for r in &m.recovery {
        t.row(&[
            format!("{:#x}", r.seed),
            if r.crashed { "yes".into() } else { "no".into() },
            r.fired.to_string(),
            r.violations.to_string(),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "recovery under overload: {} exhaustion plans, {} mid-shedding crashes,",
        m.recovery.len(),
        m.recovery.iter().filter(|r| r.crashed).count(),
    )
    .unwrap();
    writeln!(
        out,
        "{} exhaustion faults delivered, {} E15 invariant violations.",
        m.exhaustion_fired,
        m.recovery.iter().map(|r| r.violations).sum::<usize>(),
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "Consequence: overload is a scenario the kernel degrades through,"
    )
    .unwrap();
    writeln!(
        out,
        "not a state it fails in — load is shed lowest-priority-first with"
    )
    .unwrap();
    writeln!(
        out,
        "an audited, typed refusal, and a crash mid-overload still recovers"
    )
    .unwrap();
    writeln!(out, "to the same protected state.").unwrap();
    out
}

/// The graceful-degradation expectations over the measurement.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    let first = m.rungs.first().expect("ladder non-empty");
    let last = m.rungs.last().expect("ladder non-empty");
    let load_factor = last.offered as f64 / first.offered as f64;
    let cost_inflation = cycles_per_op(last) / cycles_per_op(first);
    let total_decisions: u64 = m.rungs.iter().map(|r| r.decisions).sum();
    let total_verdicts: u64 = m.rungs.iter().map(|r| r.verdicts).sum();
    vec![
        ClaimResult::new(
            "E16.degradation-sublinear",
            "E16",
            QUOTE,
            ClaimShape::AtMost { max: 1.0 },
            cost_inflation / load_factor,
            "per-op cost inflation divided by the offered-load multiplier (sub-linear iff < 1)",
        ),
        ClaimResult::new(
            "E16.goodput-holds",
            "E16",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            last.completed as f64 / first.completed.max(1) as f64,
            "completed work at the heaviest rung relative to the lightest (no collapse)",
        ),
        ClaimResult::new(
            "E16.shed-lowest-priority-first",
            "E16",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            m.rungs.iter().map(|r| r.inversions).sum::<u64>() as f64,
            "priority inversions in the recorded admission decisions",
        ),
        ClaimResult::new(
            "E16.sheds-exercised",
            "E16",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            shed_total(m) as f64,
            "admission sheds across the ladder (the overload scenario is not vacuous)",
        ),
        ClaimResult::new(
            "E16.no-starvation",
            "E16",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            m.rungs
                .iter()
                .map(|r| r.shed_by_class[Priority::System.index()])
                .sum::<u64>() as f64,
            "System-class requests shed anywhere on the ladder",
        ),
        ClaimResult::new(
            "E16.top-priority-progress",
            "E16",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            last.completed_by_class[Priority::System.index()] as f64,
            "operations System-class principals completed at the heaviest rung",
        ),
        ClaimResult::new(
            "E16.monitor-mediates-admission",
            "E16",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            total_verdicts as f64 / total_decisions.max(1) as f64,
            "reference-monitor verdicts per admission decision (every decision is mediated)",
        ),
        ClaimResult::new(
            "E16.overload-audited",
            "E16",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            audit_shortfall(m) as f64,
            "sheds missing a typed Overload record in the audit log",
        ),
        ClaimResult::new(
            "E16.recovery-under-overload",
            "E16",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            m.recovery.iter().map(|r| r.violations).sum::<usize>() as f64,
            "E15 integrity-invariant violations across the exhaustion-plan recovery sweep",
        ),
        ClaimResult::new(
            "E16.exhaustion-exercised",
            "E16",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            m.exhaustion_fired
                .min(m.recovery.iter().filter(|r| r.crashed).count() as u64) as f64,
            "exhaustion faults delivered AND mid-shedding crashes exercised (both nonzero)",
        ),
    ]
}

/// Measurement + report + claims (+ the ladder CSV artifact).
pub fn run() -> ExperimentOutput {
    let m = measure();
    let mut out = ExperimentOutput::new(report(&m), claims(&m));
    let mut lines = String::from(
        "principals,offered,completed,shed_bg,shed_no,shed_in,shed_sy,decisions,inversions,audited_overloads,verdicts,cycles,peak_permille\n",
    );
    for r in &m.rungs {
        writeln!(
            lines,
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.principals,
            r.offered,
            r.completed,
            r.shed_by_class[0],
            r.shed_by_class[1],
            r.shed_by_class[2],
            r.shed_by_class[3],
            r.decisions,
            r.inversions,
            r.audited_overloads,
            r.verdicts,
            r.cycles,
            r.peak_pressure,
        )
        .unwrap();
    }
    out.artifacts
        .push(("e16_degradation_ladder.csv".to_string(), lines));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rungs_are_deterministic() {
        let a = run_rung(4);
        let b = run_rung(4);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.shed_by_class, b.shed_by_class);
    }

    #[test]
    fn heavy_rung_sheds_and_never_inverts() {
        let r = run_rung(16);
        assert!(r.shed_by_class.iter().sum::<u64>() > 0, "{r:?}");
        assert_eq!(r.inversions, 0, "{r:?}");
        assert_eq!(r.shed_by_class[Priority::System.index()], 0, "{r:?}");
    }
}
