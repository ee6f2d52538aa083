//! E5 — page control: the sequential cascade vs dedicated freeing
//! processes.
//!
//! "The path taken by a user process on a page fault is greatly
//! simplified. ... The overall structure looks as though it will be much
//! simpler than that currently employed."

use std::fmt::Write;

use mks_vm::{RefTrace, TraceConfig, VmStats};

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::drivers::{run_parallel_metered, run_sequential_metered};
use crate::report::{banner, layer_breakdown, Table};

const QUOTE: &str = "the path taken by a user process on a page fault is greatly simplified";

/// One pressure point of the sweep: both designs on the same trace.
#[derive(Debug, Clone)]
pub struct PressurePoint {
    /// Primary-memory frames available.
    pub frames: usize,
    /// Sequential-design stats.
    pub sequential: VmStats,
    /// Parallel-design stats.
    pub parallel: VmStats,
}

/// The pressure sweep plus the highest-pressure metering snapshots.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// One row per frame count, decreasing (rising pressure).
    pub sweep: Vec<PressurePoint>,
    /// Flight-recorder snapshots at the highest pressure:
    /// `(frames, sequential, parallel)`.
    pub metering: (usize, mks_trace::Snapshot, mks_trace::Snapshot),
}

impl Measurement {
    /// The deepest-pressure point (last of the sweep).
    pub fn worst(&self) -> &PressurePoint {
        self.sweep.last().expect("sweep is non-empty")
    }

    /// Max fault-path steps the parallel design ever took, any pressure.
    fn parallel_max_steps(&self) -> u32 {
        self.sweep
            .iter()
            .map(|p| p.parallel.fault_path_steps_max)
            .max()
            .unwrap_or(0)
    }
}

/// Sweeps memory pressure over the 2 000-reference Zipf trace.
pub fn measure() -> Measurement {
    let mut sweep = Vec::new();
    let mut metering = None;
    for frames in [48, 24, 12, 6] {
        let trace = RefTrace::generate(&TraceConfig {
            seed: 11,
            nr_segments: 4,
            pages_per_segment: 12,
            length: 2_000,
            theta: 0.8,
            phase_len: 500,
        });
        let (seq, _, seq_snap) = run_sequential_metered(frames, 16, &trace, 3);
        let (par, _, par_snap) = run_parallel_metered(frames, 16, &trace, 3, 3);
        metering = Some((frames, seq_snap, par_snap));
        sweep.push(PressurePoint {
            frames,
            sequential: seq,
            parallel: par,
        });
    }
    Measurement {
        sweep,
        metering: metering.expect("sweep ran"),
    }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "E5: page-fault path, sequential cascade vs dedicated processes",
        &format!("\"{QUOTE}\""),
    );
    let mut t = Table::new(&[
        "primary frames",
        "design",
        "faults",
        "mean steps/fault",
        "max steps",
        "mean latency (cyc)",
        "waits",
        "bulk evictions",
    ]);
    for p in &m.sweep {
        for (name, s) in [("sequential", &p.sequential), ("parallel", &p.parallel)] {
            t.row(&[
                p.frames.to_string(),
                name.into(),
                s.faults.to_string(),
                format!("{:.2}", s.mean_fault_steps()),
                s.fault_path_steps_max.to_string(),
                format!("{:.0}", s.mean_fault_latency()),
                s.fault_waits.to_string(),
                s.evictions_bulk.to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    let (frames, seq_snap, par_snap) = &m.metering;
    writeln!(
        out,
        "where the cycles go at {frames} frames (flight-recorder spans):"
    )
    .unwrap();
    for (name, snap) in [("sequential", seq_snap), ("parallel", par_snap)] {
        writeln!(out, "  {name}:").unwrap();
        for line in layer_breakdown(snap).render().lines() {
            writeln!(out, "    {line}").unwrap();
        }
        writeln!(
            out,
            "    snapshot written to results/e5_page_control_{name}_metering.json"
        )
        .unwrap();
    }
    writeln!(out).unwrap();
    writeln!(
        out,
        "The parallel design's fault path is a constant 2 steps (check for a"
    )
    .unwrap();
    writeln!(
        out,
        "free frame; initiate the transfer) regardless of pressure; the"
    )
    .unwrap();
    writeln!(
        out,
        "sequential design's path grows with pressure as the in-fault cascade"
    )
    .unwrap();
    writeln!(
        out,
        "(sample usage, evict, and — when the bulk store is full — stage a"
    )
    .unwrap();
    writeln!(
        out,
        "page to disk via primary memory) runs inside the faulting process."
    )
    .unwrap();
    out
}

/// The paper's expectations over the sweep.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    let worst = m.worst();
    vec![
        ClaimResult::new(
            "E5.parallel-path-constant",
            "E5",
            QUOTE,
            ClaimShape::ExactCount { expect: 2 },
            m.parallel_max_steps() as f64,
            "max fault-path steps under the parallel design, any pressure",
        ),
        ClaimResult::new(
            "E5.parallel-mean-constant",
            "E5",
            QUOTE,
            ClaimShape::ParityWithin { tolerance: 0.01 },
            worst.parallel.mean_fault_steps() / 2.0,
            "parallel mean fault-path steps at highest pressure, / 2.0",
        ),
        ClaimResult::new(
            "E5.sequential-cascades",
            "E5",
            QUOTE,
            ClaimShape::FactorAtLeast {
                paper: 2.0,
                accept: 2.0,
            },
            worst.sequential.mean_fault_steps() / worst.parallel.mean_fault_steps(),
            "sequential / parallel mean fault-path steps at highest pressure",
        ),
    ]
}

/// Measurement + report + claims (+ the metering snapshot artifacts).
pub fn run() -> ExperimentOutput {
    let m = measure();
    let mut out = ExperimentOutput::new(report(&m), claims(&m));
    let (_, seq_snap, par_snap) = &m.metering;
    out.artifacts.push((
        "e5_page_control_sequential_metering.json".to_string(),
        seq_snap.to_json(),
    ));
    out.artifacts.push((
        "e5_page_control_parallel_metering.json".to_string(),
        par_snap.to_json(),
    ));
    out
}
