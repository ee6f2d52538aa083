//! Deterministic bounded retry-with-backoff for transiently failing
//! kernel paths (paging under frame famine, disk transfers, quota storms).
//!
//! The policy follows the same discipline as the rest of the simulation:
//! **no wall clock**. Delays are expressed in simulated [`Cycles`] and
//! charged to the trace [`Clock`](crate::Clock) by the caller, and the
//! jitter is drawn from a [`SplitMix64`] stream seeded by the caller — so
//! a retry schedule is a pure function of `(seed, policy)` and replays
//! exactly. The schedule is *bounded* twice over: a hard attempt count and
//! a per-step cap, so the total added delay never exceeds
//! [`BackoffPolicy::total_delay_bound`]. A path that exhausts its attempts
//! surfaces its typed error to the caller instead of spinning; it never
//! loops unbounded and never panics.

use crate::clock::Cycles;
use crate::SplitMix64;

/// The shape of one retry schedule: exponential windows with seeded
/// jitter, capped per step and bounded in attempts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BackoffPolicy {
    /// Maximum number of *retries* (the initial attempt is free; a policy
    /// with `max_retries == 0` never waits and never retries).
    pub max_retries: u32,
    /// Base delay window for the first retry, in cycles.
    pub base: Cycles,
    /// Per-step cap on the delay window, in cycles. Windows grow
    /// exponentially from `base` until they hit this cap.
    pub cap: Cycles,
}

impl Default for BackoffPolicy {
    /// The kernel-wide default: up to 4 retries, windows 16, 32, 64, 128
    /// cycles — cheap relative to a disk transfer, generous relative to a
    /// transient famine.
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            max_retries: 4,
            base: 16,
            cap: 128,
        }
    }
}

impl BackoffPolicy {
    /// The delay *window* for the `k`-th retry (0-based): `base << k`,
    /// saturating, capped at `cap`. The drawn delay is in `1..=window`.
    pub fn window(&self, retry: u32) -> Cycles {
        let w = self
            .base
            .max(1)
            .checked_shl(retry)
            .unwrap_or(Cycles::MAX)
            .min(self.cap.max(1));
        w.max(1)
    }

    /// Hard upper bound on the total delay a full schedule can add:
    /// the sum of every retry's window. Machine-checked by the proptests
    /// in `tests/overload_resilience.rs`.
    pub fn total_delay_bound(&self) -> Cycles {
        (0..self.max_retries)
            .map(|k| self.window(k))
            .fold(0, Cycles::saturating_add)
    }
}

/// One retry schedule in progress: seeded jitter stream plus the attempt
/// counter. Create one per operation; ask [`Backoff::next_delay`] before
/// each retry.
#[derive(Clone, Debug)]
pub struct Backoff {
    policy: BackoffPolicy,
    rng: SplitMix64,
    retries: u32,
}

impl Backoff {
    /// Starts a schedule for `seed` under `policy`. Same `(seed, policy)`,
    /// same schedule — callers derive the seed from deterministic state
    /// (segment uid, page number, trace clock) so replays are exact.
    pub fn new(seed: u64, policy: BackoffPolicy) -> Backoff {
        Backoff {
            policy,
            rng: SplitMix64::new(seed ^ 0x5851_f42d_4c95_7f2d),
            retries: 0,
        }
    }

    /// The number of retries granted so far.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Grants one more retry: `Some(delay)` with the jittered delay to
    /// charge to the clock, or `None` once the policy's retry budget is
    /// spent (the caller must then surface its error).
    pub fn next_delay(&mut self) -> Option<Cycles> {
        if self.retries >= self.policy.max_retries {
            return None;
        }
        let window = self.policy.window(self.retries);
        self.retries += 1;
        Some(1 + self.rng.below(window))
    }

    /// The full schedule for `(seed, policy)`, for tests and reports.
    pub fn schedule(seed: u64, policy: BackoffPolicy) -> Vec<Cycles> {
        let mut b = Backoff::new(seed, policy);
        std::iter::from_fn(|| b.next_delay()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_functions_of_seed_and_policy() {
        let policy = BackoffPolicy::default();
        for seed in 0..100u64 {
            assert_eq!(
                Backoff::schedule(seed, policy),
                Backoff::schedule(seed, policy)
            );
        }
    }

    #[test]
    fn schedules_respect_attempt_and_delay_bounds() {
        for seed in 0..200u64 {
            let policy = BackoffPolicy::default();
            let sched = Backoff::schedule(seed, policy);
            assert_eq!(sched.len(), policy.max_retries as usize);
            let total: Cycles = sched.iter().sum();
            assert!(total <= policy.total_delay_bound());
            for (k, d) in sched.iter().enumerate() {
                assert!(*d >= 1 && *d <= policy.window(k as u32));
            }
        }
    }

    #[test]
    fn zero_retry_policy_never_waits() {
        let policy = BackoffPolicy {
            max_retries: 0,
            ..BackoffPolicy::default()
        };
        assert_eq!(Backoff::schedule(7, policy), Vec::<Cycles>::new());
        assert_eq!(policy.total_delay_bound(), 0);
    }

    #[test]
    fn windows_grow_then_cap() {
        let policy = BackoffPolicy {
            max_retries: 8,
            base: 16,
            cap: 128,
        };
        let windows: Vec<Cycles> = (0..8).map(|k| policy.window(k)).collect();
        assert_eq!(windows, vec![16, 32, 64, 128, 128, 128, 128, 128]);
    }
}
