//! E7 — the circular input buffer vs the infinite (VM-backed) buffer.
//!
//! "The infinite buffer scheme is much simpler than the old circular
//! buffer which had to be used over and over again, with attendant
//! problems of old messages not being removed before a complete circuit of
//! the buffer was made."

use std::fmt::Write;

use mks_hw::SplitMix64;
use mks_io::{CircularBuffer, InfiniteBuffer};

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};

const QUOTE: &str =
    "problems of old messages not being removed before a complete circuit of the buffer";

/// One burst-size row of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct BurstRow {
    /// Max burst size of this row.
    pub burst: usize,
    /// Messages offered to the circular(32) ring.
    pub offered: u64,
    /// Messages the circular(32) ring overwrote.
    pub lost_small: u64,
    /// Messages the circular(256) ring overwrote.
    pub lost_large: u64,
    /// Messages the infinite buffer lost.
    pub lost_infinite: u64,
    /// Peak backlog the infinite buffer absorbed.
    pub peak_backlog: usize,
}

/// The burstiness sweep.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// One row per max-burst size, matched long-run rates.
    pub rows: Vec<BurstRow>,
}

impl Measurement {
    /// Total messages the infinite buffer lost, any burst size.
    fn infinite_lost_total(&self) -> u64 {
        self.rows.iter().map(|r| r.lost_infinite).sum()
    }

    /// The worst (largest-burst) row.
    pub fn worst(&self) -> &BurstRow {
        self.rows.last().expect("sweep is non-empty")
    }
}

/// One round = a burst of arrivals (the network interrupt side), then the
/// consumer drains at the same *average* rate. Long-run rates are matched;
/// only burstiness varies — the historical failure was exactly this case,
/// a burst lapping the ring before the consumer's next quantum.
fn drive_circular(capacity: usize, burst: usize, bursts: usize, seed: u64) -> (u64, u64) {
    let mut rng = SplitMix64::new(seed);
    let mut buf: CircularBuffer<u64> = CircularBuffer::new(capacity);
    let mut n = 0u64;
    for _ in 0..bursts {
        let size = 1 + rng.below(burst as u64) as usize;
        for _ in 0..size {
            buf.push(n);
            n += 1;
        }
        // The consumer's quantum arrives after the burst has landed.
        for _ in 0..size {
            let _ = buf.pop();
        }
    }
    (buf.total_offered(), buf.overwrites())
}

fn drive_infinite(burst: usize, bursts: usize, seed: u64) -> (u64, u64, usize) {
    let mut rng = SplitMix64::new(seed);
    let mut buf: InfiniteBuffer<u64> = InfiniteBuffer::new();
    let mut n = 0u64;
    let mut peak = 0usize;
    for _ in 0..bursts {
        let size = 1 + rng.below(burst as u64) as usize;
        for _ in 0..size {
            buf.push(n, 4);
            n += 1;
        }
        peak = peak.max(buf.peak_backlog());
        for _ in 0..size {
            let _ = buf.pop();
        }
    }
    (buf.total_produced(), buf.overwrites(), peak)
}

/// Sweeps burst sizes over both buffer designs.
pub fn measure() -> Measurement {
    let rows = [8, 32, 128, 512, 2048]
        .into_iter()
        .map(|burst| {
            let (offered, lost_small) = drive_circular(32, burst, 500, 9);
            let (_, lost_large) = drive_circular(256, burst, 500, 9);
            let (_, lost_infinite, peak_backlog) = drive_infinite(burst, 500, 9);
            BurstRow {
                burst,
                offered,
                lost_small,
                lost_large,
                lost_infinite,
                peak_backlog,
            }
        })
        .collect();
    Measurement { rows }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner(
        "E7: network input buffering, circular vs infinite",
        &format!("\"{QUOTE}\""),
    );
    let mut t = Table::new(&[
        "max burst",
        "circular(32): lost",
        "loss %",
        "circular(256): lost",
        "loss %",
        "infinite: lost",
        "peak backlog (msgs)",
    ]);
    for r in &m.rows {
        t.row(&[
            r.burst.to_string(),
            r.lost_small.to_string(),
            format!("{:.1}%", 100.0 * r.lost_small as f64 / r.offered as f64),
            r.lost_large.to_string(),
            format!("{:.1}%", 100.0 * r.lost_large as f64 / r.offered as f64),
            r.lost_infinite.to_string(),
            r.peak_backlog.to_string(),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "Any fixed ring loses messages once a burst laps the consumer, and"
    )
    .unwrap();
    writeln!(
        out,
        "sizing it is a losing game; the VM-backed buffer loses none, because"
    )
    .unwrap();
    writeln!(
        out,
        "it is not a special-purpose storage manager at all — it reuses \"the"
    )
    .unwrap();
    writeln!(
        out,
        "standard storage management facility of the system — the virtual"
    )
    .unwrap();
    writeln!(
        out,
        "memory\", and consumed pages are reclaimed by ordinary replacement."
    )
    .unwrap();
    out
}

/// The paper's expectations over the sweep.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    let worst = m.worst();
    vec![
        ClaimResult::new(
            "E7.infinite-lossless",
            "E7",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            m.infinite_lost_total() as f64,
            "messages the infinite buffer lost, all burst sizes",
        ),
        ClaimResult::new(
            "E7.small-ring-lapped",
            "E7",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            worst.lost_small as f64,
            "messages the circular(32) ring overwrote at the largest burst",
        ),
        ClaimResult::new(
            "E7.large-ring-lapped-too",
            "E7",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            worst.lost_large as f64,
            "messages the circular(256) ring overwrote at the largest burst (sizing is a losing game)",
        ),
    ]
}

/// Measurement + report + claims.
pub fn run() -> ExperimentOutput {
    let m = measure();
    ExperimentOutput::new(report(&m), claims(&m))
}
