//! Time-travel audit queries: joining the flight recorder and audit
//! log with the commit log.
//!
//! The flight recorder answers *what happened* (records, counters,
//! alerts) and the audit log answers *who was refused what*; the
//! commit log answers *which mutation did it*. This module joins them:
//! given the boundary digests a recorded run captured, each audit
//! record or clock instant maps back to the commit whose application
//! produced it, and the log window around that commit is the replayable
//! context a reviewer steps through. Every query is a pure read over
//! the recorded artifacts — no live kernel required.

use crate::syslog::{AuditEvent, AuditLog};

use super::commit::{CommitLog, ReplayError, SealedCommit};
use super::StateDigest;

/// A read-only join of one recorded run's commit log and boundary
/// digests (`boundaries[0]` = genesis, `boundaries[k]` = after commit
/// `k-1` — the shape `record_fault_run` produces).
pub struct TimeTravel<'a> {
    log: &'a CommitLog,
    boundaries: &'a [StateDigest],
}

impl<'a> TimeTravel<'a> {
    /// Builds the join, rejecting mismatched artifacts (a boundary
    /// list that does not cover the log is a truncation).
    pub fn new(
        log: &'a CommitLog,
        boundaries: &'a [StateDigest],
    ) -> Result<TimeTravel<'a>, ReplayError> {
        if boundaries.len() as u64 != log.len() + 1 {
            return Err(ReplayError::Truncated {
                expected: log.len(),
                found: (boundaries.len() as u64).saturating_sub(1),
            });
        }
        Ok(TimeTravel { log, boundaries })
    }

    /// The commit boundary reached at or before simulated instant `at`:
    /// how many commits had been applied by then (0 = still at
    /// genesis). Boundary clocks are monotone, so this is a binary
    /// search.
    pub fn commit_at_clock(&self, at: u64) -> u64 {
        (self.boundaries.partition_point(|b| b.clock <= at).max(1) - 1) as u64
    }

    /// The commit whose application appended audit record `audit_seq`,
    /// if the run produced it. Audit counts are monotone across
    /// boundaries; the first boundary that has seen past `audit_seq`
    /// names the commit.
    fn commit_for_audit(&self, audit_seq: u64) -> Option<u64> {
        let k = self
            .boundaries
            .partition_point(|b| b.audit_records <= audit_seq);
        if k >= self.boundaries.len() {
            return None;
        }
        // Boundary k is the first with audit_records > audit_seq, i.e.
        // commit k-1 (seq k-1 in the log) appended the record. k == 0
        // means the record predates every commit (genesis noise).
        k.checked_sub(1).map(|c| c as u64)
    }

    /// The sealed commits in the window `[seq - radius, seq + radius]`
    /// — the replayable context around a commit under review.
    pub fn window(&self, seq: u64, radius: u64) -> &[SealedCommit] {
        let lo = seq.saturating_sub(radius) as usize;
        let hi = ((seq + radius + 1).min(self.log.len())) as usize;
        &self.log.entries()[lo.min(hi)..hi]
    }

    /// Joins every denial in the audit log to the commit that produced
    /// it: `(audit seq, commit seq)` pairs, in audit order. The E20
    /// experiment checks this join is total — no denial without a
    /// provenance commit.
    pub fn blame_denials(&self, log: &AuditLog) -> Vec<(u64, Option<u64>)> {
        log.records()
            .iter()
            .filter(|r| matches!(r.event, AuditEvent::AccessDenied { .. }))
            .map(|r| (r.seq, self.commit_for_audit(r.seq)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::workload::{record_fault_run, WorkloadSpec};
    use super::super::Genesis;
    use super::*;
    use mks_hw::FaultPlan;

    #[test]
    fn rejects_boundary_lists_that_do_not_cover_the_log() {
        let genesis = Genesis::kernel_small();
        let run = record_fault_run(
            &genesis,
            &WorkloadSpec {
                seed: 3,
                ops: 4,
                plan: FaultPlan::generate(3),
                overload: false,
            },
        );
        let log = &run.sm.world().commits;
        assert!(matches!(
            TimeTravel::new(log, &run.boundaries[..run.boundaries.len() - 1]),
            Err(ReplayError::Truncated { .. })
        ));
    }

    #[test]
    fn clock_and_audit_queries_are_coherent() {
        let genesis = Genesis::kernel_small();
        let run = record_fault_run(
            &genesis,
            &WorkloadSpec {
                seed: 9,
                ops: 16,
                plan: FaultPlan::generate(9),
                overload: false,
            },
        );
        let log = &run.sm.world().commits;
        let tt = TimeTravel::new(log, &run.boundaries).expect("artifacts match");

        // At or past the final boundary clock, the whole log has been
        // applied.
        let last = run.boundaries.last().expect("nonempty");
        assert_eq!(tt.commit_at_clock(last.clock + 1_000_000), log.len());
        // Monotone in the instant.
        let mut prev = 0;
        for at in (0..=last.clock).step_by((last.clock as usize / 16).max(1)) {
            let c = tt.commit_at_clock(at);
            assert!(c >= prev, "commit_at_clock must be monotone");
            prev = c;
        }

        // Every audit record maps to the commit whose boundary interval
        // contains it.
        for r in run.sm.world().log.records() {
            let Some(c) = tt.commit_for_audit(r.seq) else {
                continue;
            };
            let before = run.boundaries[c as usize].audit_records;
            let after = run.boundaries[c as usize + 1].audit_records;
            assert!(
                before <= r.seq && r.seq < after,
                "audit {} blamed on commit {} whose interval is [{before},{after})",
                r.seq,
                c
            );
        }

        // The denial join is total: every denial has a provenance commit.
        let blamed = tt.blame_denials(&run.sm.world().log);
        for (seq, commit) in &blamed {
            assert!(commit.is_some(), "denial {seq} has no provenance commit");
        }

        // Windows clamp to the log.
        assert!(tt.window(0, 2).len() <= 3);
        assert_eq!(tt.window(log.len() + 10, 2), &[] as &[SealedCommit]);
        assert_eq!(tt.window(2, 0).len(), 1);
    }
}
