//! The E18 perf gate: times the hot paths in host nanoseconds, writes
//! `target/BENCH_E18.json`, and fails (exit 1) if any path regressed
//! more than the tolerance against the committed baseline at
//! `results/BENCH_E18.json`.
//!
//! ```text
//! bench_e18                   measure, write target/BENCH_E18.json, gate
//! bench_e18 --write-baseline  measure and (re)seed results/BENCH_E18.json
//! ```
//!
//! A violation must survive re-measurement to be believed
//! ([`GATE_ATTEMPTS`] = 3 attempts): a host-noise phase deep enough to
//! fool every calibration yardstick ends by the next attempt and the
//! min-merged report recovers, while a real regression is in the code
//! and regresses every attempt alike. The tolerance is the constant
//! [`GATE_TOLERANCE`] (25%). A path that runs more than the tolerance
//! *faster* than its row against both yardsticks is printed as a
//! warning (a stale row the gate no longer guards); warnings never
//! fail the run.

use std::path::Path;
use std::process::ExitCode;

use mks_bench::perf::{
    gate, measure, merge_min, parse_baseline, stale_rows, to_json, PerfConfig, PerfReport,
    GATE_ATTEMPTS, GATE_TOLERANCE,
};

const BASELINE: &str = "results/BENCH_E18.json";

fn print_report(report: &PerfReport) {
    println!("E18 hot paths ({} principals):", report.population);
    for p in &report.paths {
        println!("  {:<24} {:>10.1} ns/op", p.name, p.ns_per_op);
    }
    println!(
        "  traffic ns/op: {:.1} at 10^{} vs {:.1} at 10^{} (slope {:.3})",
        report.ns_per_op_lo,
        report.pop_lo.ilog10(),
        report.ns_per_op_hi,
        report.pop_hi.ilog10(),
        report.slope()
    );
    println!(
        "  calibration: {:.1} ns/op memory, {:.1} ns/op cpu (the gate's machine-speed yardsticks)",
        report.calibration_ns, report.calibration_cpu_ns
    );
    println!(
        "  parallel: {:.2}x speedup over {} lanes on {} threads \
         (host-parallelism ceiling {:.2}x)",
        report.par.speedup, report.par.lanes, report.par.threads, report.par.calibration_speedup
    );
}

fn main() -> ExitCode {
    let write_baseline = std::env::args().any(|a| a == "--write-baseline");
    let mut report = measure(PerfConfig::standard());
    print_report(&report);

    if write_baseline {
        std::fs::write(BASELINE, to_json(&report)).expect("write baseline");
        println!("seeded {BASELINE}");
        return ExitCode::SUCCESS;
    }

    let baseline = if Path::new(BASELINE).exists() {
        match parse_baseline(&std::fs::read_to_string(BASELINE).expect("read baseline")) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("unreadable baseline {BASELINE}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let mut violations = Vec::new();
    if let Some(baseline) = &baseline {
        violations = gate(&report, baseline, GATE_TOLERANCE);
        for attempt in 1..GATE_ATTEMPTS {
            if violations.is_empty() {
                break;
            }
            eprintln!(
                "attempt {attempt} saw {} violation(s); re-measuring to rule out host noise",
                violations.len()
            );
            merge_min(&mut report, &measure(PerfConfig::standard()));
            violations = gate(&report, baseline, GATE_TOLERANCE);
        }
    }

    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write("target/BENCH_E18.json", to_json(&report)).expect("write report");
    println!("wrote target/BENCH_E18.json");

    let Some(baseline) = baseline else {
        println!("no committed baseline at {BASELINE}; nothing to gate against");
        return ExitCode::SUCCESS;
    };
    for w in stale_rows(&report, &baseline, GATE_TOLERANCE) {
        println!("perf gate warning: {w}");
    }
    if violations.is_empty() {
        println!(
            "perf gate: every hot path within {:.0}% of the committed baseline",
            GATE_TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate FAILED ({} violation(s)):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        eprintln!(
            "if this slowdown is intended, re-seed the baseline: \
             cargo run --release -p mks-bench --bin bench_e18 -- --write-baseline"
        );
        ExitCode::FAILURE
    }
}
