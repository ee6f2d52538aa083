//! Deterministic head-sampling of trace records.
//!
//! At E17 scale (≥10M monitor-mediated ops) the flight recorder cannot
//! keep every record even transiently — the ring would spend its whole
//! life wrapping. The sampler throttles *routine* records at the door
//! with a seeded hash over the record's sequence number — no wall
//! clock, no state beyond a seed, so a replayed workload samples the
//! identical record set.
//!
//! Two rules are non-negotiable for a surveillance substrate:
//!
//! 1. **Security-relevant records are always kept.** Denial verdicts,
//!    fault dispatches, and label raises bypass the sampler entirely;
//!    dropping them would blind the anomaly detector to exactly the
//!    events it exists to see.
//! 2. **Aggregation happens before sampling.** Counters, quantile
//!    sketches, and the observatory ingest every event; only the
//!    ring's *verbatim record* is subject to sampling. Sampling bounds
//!    memory churn, never statistics.
//!
//! Sampling is **off by default** (`keep_one_in = 1`): the PR-1
//! contract that every event lands in the ring is preserved until a
//! deployment opts in.

use crate::digest::{splitmix64_mix, GOLDEN_GAMMA};
use crate::record::{EventKind, TraceRecord};

/// Head-sampling policy for verbatim ring records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SamplePolicy {
    /// Keep one in this many routine records (1 = keep everything).
    pub keep_one_in: u64,
    /// Seed mixed into the per-record decision hash.
    pub seed: u64,
}

impl Default for SamplePolicy {
    fn default() -> SamplePolicy {
        SamplePolicy {
            keep_one_in: 1,
            seed: 0,
        }
    }
}

/// Sampler state: the policy plus kept/dropped accounting.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Sampler {
    policy: SamplePolicy,
    kept: u64,
    dropped: u64,
    /// Security-critical records kept regardless of the policy.
    forced: u64,
}

/// Is this record one the surveillance function cannot afford to lose?
fn is_critical(kind: EventKind, detail: &str) -> bool {
    match kind {
        EventKind::FaultDispatch | EventKind::LabelRaise => true,
        // Denials and sheds ride the Verdict kind; grants are routine.
        EventKind::Verdict => detail.contains("denied") || detail.contains("refused"),
        _ => false,
    }
}

impl Sampler {
    /// Current policy.
    pub fn policy(&self) -> SamplePolicy {
        self.policy
    }

    /// Installs a policy (rate is clamped to ≥ 1).
    pub(crate) fn set_policy(&mut self, mut policy: SamplePolicy) {
        policy.keep_one_in = policy.keep_one_in.max(1);
        self.policy = policy;
    }

    /// Routine records kept by the hash.
    pub fn kept(&self) -> u64 {
        self.kept
    }

    /// Routine records dropped at the door.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Critical records kept unconditionally.
    pub fn forced(&self) -> u64 {
        self.forced
    }

    /// Decides whether `record` enters the ring, updating accounting.
    /// `seq` is the sequence number the record would be assigned.
    pub fn admit(&mut self, seq: u64, record: &TraceRecord) -> bool {
        if is_critical(record.kind, &record.detail) {
            self.forced += 1;
            return true;
        }
        if self.policy.keep_one_in <= 1 {
            self.kept += 1;
            return true;
        }
        // SplitMix64 finalizer over (seed, seq): a stationary, seeded
        // coin that replays identically for the same workload.
        let z = splitmix64_mix(seq ^ self.policy.seed ^ GOLDEN_GAMMA);
        if z.is_multiple_of(self.policy.keep_one_in) {
            self.kept += 1;
            true
        } else {
            self.dropped += 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Layer;

    fn routine(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            at: seq,
            layer: Layer::Io,
            kind: EventKind::BufferOp,
            principal: None,
            span: None,
            detail: "store".into(),
        }
    }

    #[test]
    fn default_policy_keeps_everything() {
        let mut s = Sampler::default();
        for i in 0..100 {
            assert!(s.admit(i, &routine(i)));
        }
        assert_eq!(s.kept(), 100);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn sampling_thins_routine_records_near_the_rate() {
        let mut s = Sampler::default();
        s.set_policy(SamplePolicy {
            keep_one_in: 8,
            seed: 42,
        });
        for i in 0..8000 {
            s.admit(i, &routine(i));
        }
        let kept = s.kept();
        assert!(
            (500..=1500).contains(&kept),
            "1-in-8 of 8000 should keep ~1000, kept {kept}"
        );
        assert_eq!(s.kept() + s.dropped(), 8000);
    }

    #[test]
    fn criticals_bypass_any_rate() {
        let mut s = Sampler::default();
        s.set_policy(SamplePolicy {
            keep_one_in: 1_000_000,
            seed: 7,
        });
        let denied = TraceRecord {
            kind: EventKind::Verdict,
            detail: "write denied: *-property violation (write down)".into(),
            ..routine(1)
        };
        let fault = TraceRecord {
            kind: EventKind::FaultDispatch,
            ..routine(2)
        };
        let raise = TraceRecord {
            kind: EventKind::LabelRaise,
            ..routine(3)
        };
        for r in [&denied, &fault, &raise] {
            assert!(s.admit(r.seq, r), "critical record sampled away: {r:?}");
        }
        assert_eq!(s.forced(), 3);
        assert_eq!(s.dropped() + s.kept(), 0, "criticals bypass accounting");
        // A granted verdict is routine and may be dropped.
        let granted = TraceRecord {
            kind: EventKind::Verdict,
            detail: "read granted".into(),
            ..routine(4)
        };
        assert!(!is_critical(granted.kind, &granted.detail));
    }

    #[test]
    fn decisions_replay_identically() {
        let run = |seed| {
            let mut s = Sampler::default();
            s.set_policy(SamplePolicy {
                keep_one_in: 4,
                seed,
            });
            (0..256)
                .map(|i| s.admit(i, &routine(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "the seed matters");
    }
}
