//! The kernel audit log (`syserr` in Multics terms).
//!
//! The paper's *review* activity — "a list of all known Multics security
//! flaws is maintained" — needs raw material: the kernel records every
//! security-relevant event (denials, violations, authentications, gate
//! refusals) with its acting principal. The log is kernel state, append
//! only; non-kernel code cannot erase its tracks.

use mks_fs::UserId;
use mks_hw::Cycles;

/// The kind of security-relevant event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AuditEvent {
    /// A reference was denied (ACL, MLS, ring — the monitor's NoInfo and
    /// violation answers).
    AccessDenied {
        /// What was asked for.
        what: String,
    },
    /// A hardware protection violation fault was taken.
    ProtectionFault {
        /// Fault description.
        fault: String,
    },
    /// A login attempt.
    Login {
        /// Whether it succeeded.
        success: bool,
    },
    /// A gate call refused (wrong ring or unknown entry).
    GateRefused {
        /// The gate and entry.
        target: String,
    },
    /// An object was created or destroyed (coarse lifecycle tracking).
    Lifecycle {
        /// Description.
        what: String,
    },
    /// Admission control shed a request under resource pressure, or a
    /// bounded retry path gave up. Not a denial — the caller was entitled
    /// to the operation; the kernel refused it *now* to protect its
    /// invariants. Audited so degradation is reviewable after the fact.
    Overload {
        /// The operation that was shed.
        what: String,
        /// Peak pressure (permille) at refusal time.
        pressure_permille: u32,
    },
}

/// One log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuditRecord {
    /// Monotone sequence number.
    pub seq: u64,
    /// Simulated time of the event.
    pub at: Cycles,
    /// Acting principal (if known).
    pub who: Option<UserId>,
    /// The event.
    pub event: AuditEvent,
}

/// The append-only kernel log.
#[derive(Debug, Default)]
pub struct AuditLog {
    records: Vec<AuditRecord>,
    next_seq: u64,
    /// Time of the newest record, or `None` until the first append. The
    /// very first record *establishes* the baseline — whatever time it
    /// claims, there is nothing earlier on file to contradict it, so it
    /// can never flag a skew (even if an injected warp moved it backwards
    /// before the log saw it).
    last_at: Option<Cycles>,
    clock_skews: u64,
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Appends a record.
    ///
    /// Timestamps must be non-decreasing: a record claiming to predate the
    /// last one is a sign of clock tampering (or a kernel bug), and a log
    /// whose order contradicts its timestamps is useless for review. Such a
    /// record is kept — dropping evidence would be worse — but its `at` is
    /// saturated up to the last seen time and the skew is flagged in
    /// [`AuditLog::clock_skews`].
    ///
    /// The **first** record is the baseline: it is stored as claimed and
    /// never counts as a skew, because an empty log has no earlier time to
    /// contradict it. Skew detection is a statement about *order within
    /// the log*, not about absolute time.
    pub fn append(&mut self, at: Cycles, who: Option<UserId>, event: AuditEvent) -> u64 {
        let at = match self.last_at {
            Some(last) if at < last => {
                self.clock_skews += 1;
                last
            }
            _ => {
                self.last_at = Some(at);
                at
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.records.push(AuditRecord {
            seq,
            at,
            who,
            event,
        });
        seq
    }

    /// Appends a batch of records sharing one timestamp, growing the log
    /// once. Each record goes through exactly the per-record
    /// [`AuditLog::append`] logic, so a batch of N is byte-identical to N
    /// single appends at the same instant — the E18 differential claim.
    /// Returns the sequence number of the first record (the batch is
    /// `first..first + batch.len()`), or the current next-seq for an
    /// empty batch.
    pub(crate) fn append_batch(
        &mut self,
        at: Cycles,
        batch: impl IntoIterator<Item = (Option<UserId>, AuditEvent)>,
    ) -> u64 {
        let first = self.next_seq;
        let batch = batch.into_iter();
        self.records.reserve(batch.size_hint().0);
        for (who, event) in batch {
            self.append(at, who, event);
        }
        first
    }

    /// Number of appends whose timestamp ran backwards and was saturated.
    /// Nonzero is a red flag for the review activity.
    pub fn clock_skews(&self) -> u64 {
        self.clock_skews
    }

    /// Records with sequence number `from_seq` or later — the incremental
    /// read used by a reviewer polling the log ("everything since the last
    /// snapshot I took").
    pub fn snapshot_range(&self, from_seq: u64) -> &[AuditRecord] {
        // seq is assigned densely from 0, so it doubles as the index.
        let start = usize::try_from(from_seq.min(self.next_seq)).unwrap_or(self.records.len());
        &self.records[start.min(self.records.len())..]
    }

    /// All records, in order. (Read-only: there is deliberately no way to
    /// remove or rewrite a record.)
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Records whose event matches `pred`.
    pub fn matching<'a>(
        &'a self,
        mut pred: impl FnMut(&AuditEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a AuditRecord> {
        self.records.iter().filter(move |r| pred(&r.event))
    }

    /// Count of denial-shaped records (the review activity's first query).
    pub fn nr_denials(&self) -> usize {
        self.records
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    AuditEvent::AccessDenied { .. }
                        | AuditEvent::ProtectionFault { .. }
                        | AuditEvent::GateRefused { .. }
                )
            })
            .count()
    }

    /// Principals with repeated denials (candidate probes) — principals
    /// with at least `threshold` denial records.
    pub fn suspicious_principals(&self, threshold: usize) -> Vec<(UserId, usize)> {
        let mut counts: std::collections::HashMap<UserId, usize> = Default::default();
        for r in &self.records {
            if let (Some(who), true) = (
                r.who.clone(),
                matches!(
                    r.event,
                    AuditEvent::AccessDenied { .. }
                        | AuditEvent::ProtectionFault { .. }
                        | AuditEvent::GateRefused { .. }
                ),
            ) {
                *counts.entry(who).or_default() += 1;
            }
        }
        let mut v: Vec<_> = counts
            .into_iter()
            .filter(|(_, c)| *c >= threshold)
            .collect();
        v.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| a.0.to_acl_string().cmp(&b.0.to_acl_string()))
        });
        v
    }

    /// Total records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mallory() -> UserId {
        UserId::new("Mallory", "Guest", "a")
    }

    #[test]
    fn records_are_sequenced_and_immutable_in_shape() {
        let mut log = AuditLog::new();
        let a = log.append(10, None, AuditEvent::Login { success: true });
        let b = log.append(
            20,
            Some(mallory()),
            AuditEvent::AccessDenied { what: "x".into() },
        );
        assert_eq!((a, b), (0, 1));
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.records()[1].at, 20);
    }

    #[test]
    fn denial_counting_and_matching() {
        let mut log = AuditLog::new();
        log.append(
            1,
            Some(mallory()),
            AuditEvent::AccessDenied { what: "a".into() },
        );
        log.append(
            2,
            Some(mallory()),
            AuditEvent::GateRefused {
                target: "hphcs_$shutdown".into(),
            },
        );
        log.append(3, None, AuditEvent::Login { success: false });
        assert_eq!(log.nr_denials(), 2);
        assert_eq!(
            log.matching(|e| matches!(e, AuditEvent::Login { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn repeated_probes_surface_as_suspicious() {
        let mut log = AuditLog::new();
        for i in 0..5 {
            log.append(
                i,
                Some(mallory()),
                AuditEvent::AccessDenied {
                    what: format!("p{i}"),
                },
            );
        }
        log.append(
            9,
            Some(UserId::new("Jones", "CSR", "a")),
            AuditEvent::AccessDenied {
                what: "one-off".into(),
            },
        );
        let sus = log.suspicious_principals(3);
        assert_eq!(sus.len(), 1);
        assert_eq!(sus[0].0, mallory());
        assert_eq!(sus[0].1, 5);
    }

    #[test]
    fn suspicious_ties_break_on_principal_name() {
        let mut log = AuditLog::new();
        let zed = UserId::new("Zed", "Guest", "a");
        let abe = UserId::new("Abe", "Guest", "a");
        // Interleave so insertion order cannot accidentally produce the
        // expected ordering: Zed logs first, but Abe sorts first.
        for i in 0..3 {
            log.append(
                2 * i,
                Some(zed.clone()),
                AuditEvent::AccessDenied { what: "z".into() },
            );
            log.append(
                2 * i + 1,
                Some(abe.clone()),
                AuditEvent::AccessDenied { what: "a".into() },
            );
        }
        for i in 0..4 {
            log.append(
                100 + i,
                Some(mallory()),
                AuditEvent::AccessDenied { what: "m".into() },
            );
        }
        let sus = log.suspicious_principals(3);
        assert_eq!(sus.len(), 3);
        assert_eq!(sus[0], (mallory(), 4), "highest count first");
        assert_eq!(sus[1], (abe, 3), "equal counts sort by principal string");
        assert_eq!(sus[2], (zed, 3));
    }

    #[test]
    fn backwards_timestamps_saturate_and_flag() {
        let mut log = AuditLog::new();
        log.append(100, None, AuditEvent::Login { success: true });
        // A record claiming to predate the last one is kept, but its time
        // is pulled up and the skew counted.
        log.append(
            40,
            Some(mallory()),
            AuditEvent::AccessDenied { what: "x".into() },
        );
        log.append(150, None, AuditEvent::Login { success: false });
        assert_eq!(log.clock_skews(), 1);
        let times: Vec<Cycles> = log.records().iter().map(|r| r.at).collect();
        assert_eq!(times, vec![100, 100, 150], "timestamps are non-decreasing");
        // Equal timestamps are fine (many events in one cycle).
        log.append(150, None, AuditEvent::Login { success: true });
        assert_eq!(log.clock_skews(), 1);
    }

    #[test]
    fn snapshot_range_reads_incrementally() {
        let mut log = AuditLog::new();
        for i in 0..5 {
            log.append(
                i,
                None,
                AuditEvent::Lifecycle {
                    what: format!("e{i}"),
                },
            );
        }
        assert_eq!(log.snapshot_range(0).len(), 5);
        let tail = log.snapshot_range(3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 3);
        // Past-the-end and absurd starting points are empty, not a panic.
        assert!(log.snapshot_range(5).is_empty());
        assert!(log.snapshot_range(u64::MAX).is_empty());
    }
}
