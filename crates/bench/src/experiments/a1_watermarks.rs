//! A1 — ablation: the freeing daemons' watermarks.
//!
//! The paper fixes the design ("some small number of free primary memory
//! blocks always exist") but not the number. This sweep shows the
//! trade-off the number controls: a high free-frame target means faulting
//! processes never wait but hot pages get evicted and re-fetched; a low
//! target wastes no frames but makes processes wait for the freer.

use std::fmt::Write;

use mks_vm::{ParallelConfig, RefTrace, TraceConfig, VmStats};

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::drivers::run_parallel_with;
use crate::report::{banner, Table};

const QUOTE: &str = "one process runs in a loop making sure that some small number of free primary memory blocks always exist";

const FRAMES: usize = 16;

/// One watermark setting's run.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Low watermark (freer wakes below this).
    pub low: usize,
    /// Target watermark (freer frees up to this).
    pub target: usize,
    /// Run statistics at this setting.
    pub stats: VmStats,
}

/// The watermark sweep, measured.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// One row per (low, target) pair, rising targets.
    pub sweep: Vec<SweepPoint>,
    /// Distinct pages the trace touches.
    pub distinct_pages: usize,
}

impl Measurement {
    /// Tightest setting (first of the sweep).
    fn tightest(&self) -> &SweepPoint {
        &self.sweep[0]
    }

    /// Loosest setting (last of the sweep).
    fn loosest(&self) -> &SweepPoint {
        self.sweep.last().expect("sweep is non-empty")
    }

    /// Max fault-path steps across every setting.
    fn max_path_steps(&self) -> u32 {
        self.sweep
            .iter()
            .map(|p| p.stats.fault_path_steps_max)
            .max()
            .unwrap_or(0)
    }

    /// Re-fetch ratio at one setting: faults / distinct pages.
    fn refetch_ratio(&self, p: &SweepPoint) -> f64 {
        p.stats.faults as f64 / self.distinct_pages as f64
    }
}

/// Sweeps the freer's watermarks over a fixed Zipf trace.
pub fn measure() -> Measurement {
    let trace = RefTrace::generate(&TraceConfig {
        seed: 21,
        nr_segments: 4,
        pages_per_segment: 10,
        length: 2_000,
        theta: 0.9,
        phase_len: 500,
    });
    let sweep = [(1, 1), (1, 2), (2, 4), (4, 8), (6, 12)]
        .into_iter()
        .map(|(low, target)| {
            let cfg = ParallelConfig {
                core_low: low,
                core_target: target,
                bulk_low: 4,
                bulk_target: 8,
            };
            let (stats, _) = run_parallel_with(FRAMES, 64, &trace, 3, 3, cfg);
            SweepPoint { low, target, stats }
        })
        .collect();
    Measurement {
        sweep,
        distinct_pages: trace.distinct_pages(),
    }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "A1: free-frame watermark sweep for the dedicated freeing process",
        &format!("\"{QUOTE}\""),
    );
    let mut t = Table::new(&[
        "low/target watermarks",
        "faults",
        "waits",
        "re-fetch ratio",
        "mean latency (cyc)",
    ]);
    for p in &m.sweep {
        t.row(&[
            format!("{}/{}", p.low, p.target),
            p.stats.faults.to_string(),
            p.stats.fault_waits.to_string(),
            format!("{:.2}x", m.refetch_ratio(p)),
            format!("{:.0}", p.stats.mean_fault_latency()),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "({FRAMES} primary frames; the trace touches {} distinct pages; a re-fetch",
        m.distinct_pages
    )
    .unwrap();
    writeln!(
        out,
        "ratio of 1.00x would mean every page faulted exactly once.)"
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "Raising the target trades waits for re-fetches: the freer keeps more"
    )
    .unwrap();
    writeln!(
        out,
        "frames free by evicting pages the processes still want. The fault"
    )
    .unwrap();
    writeln!(
        out,
        "*path* stays 2 steps at every setting — the design's simplicity does"
    )
    .unwrap();
    writeln!(out, "not depend on tuning, only its performance does.").unwrap();
    out
}

/// The paper's expectations over the sweep.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    let tight = m.tightest();
    let loose = m.loosest();
    vec![
        ClaimResult::new(
            "A1.path-constant",
            "A1",
            QUOTE,
            ClaimShape::ExactCount { expect: 2 },
            m.max_path_steps() as f64,
            "max fault-path steps across every watermark setting",
        ),
        ClaimResult::new(
            "A1.waits-fall",
            "A1",
            QUOTE,
            ClaimShape::FactorAtLeast {
                paper: 5.0,
                accept: 5.0,
            },
            tight.stats.fault_waits as f64 / loose.stats.fault_waits as f64,
            "fault waits, tightest / loosest watermark setting",
        ),
        ClaimResult::new(
            "A1.refetch-rises",
            "A1",
            QUOTE,
            ClaimShape::FactorAtLeast {
                paper: 1.05,
                accept: 1.05,
            },
            m.refetch_ratio(loose) / m.refetch_ratio(tight),
            "re-fetch ratio, loosest / tightest watermark setting",
        ),
    ]
}

/// Measurement + report + claims.
pub fn run() -> ExperimentOutput {
    let m = measure();
    ExperimentOutput::new(report(&m), claims(&m))
}
