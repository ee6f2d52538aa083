//! The unified metrics registry: named counters and log-scale
//! cycle histograms.
//!
//! This replaces ad-hoc per-subsystem accumulation (`VmStats` fields,
//! private bench counters): every subsystem writes named metrics here,
//! and views such as `VmStats` are *materialized from* the registry, so
//! a counter and the struct field that reports it cannot drift apart.

use std::collections::BTreeMap;

use crate::clock::Cycles;

/// Number of log2 buckets: bucket *i* holds values whose bit length is
/// *i* (bucket 0 is exactly zero; bucket 64 is ≥ 2^63).
pub const NR_BUCKETS: usize = 65;

/// A log2-bucketed histogram of cycle values.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    buckets: [u64; NR_BUCKETS],
    count: u64,
    total: u128,
    max: Cycles,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; NR_BUCKETS],
            count: 0,
            total: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: Cycles) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.total += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Which bucket `value` falls in.
    pub(crate) fn bucket_of(value: Cycles) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Largest observation (zero when empty).
    pub fn max(&self) -> Cycles {
        self.max
    }

    /// Mean observation (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(bucket index, count)` pairs.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i, *c))
            .collect()
    }

    /// Rebuilds a histogram from snapshot fields (bucket pairs must come
    /// from [`Histogram::nonzero_buckets`]).
    pub fn from_parts(pairs: &[(usize, u64)], count: u64, total: u128, max: Cycles) -> Histogram {
        let mut h = Histogram {
            buckets: [0; NR_BUCKETS],
            count,
            total,
            max,
        };
        for (i, c) in pairs {
            h.buckets[*i] = *c;
        }
        h
    }
}

/// Named counters and histograms.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first if
    /// needed. Counters are monotone: there is no reset or set.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Current value of a counter (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records an observation in the named histogram.
    pub fn observe(&mut self, name: &str, value: Cycles) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// The named histogram, if any observation was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.counter("vm.faults"), 0);
        r.counter_add("vm.faults", 2);
        r.counter_add("vm.faults", 3);
        assert_eq!(r.counter("vm.faults"), 5);
    }

    #[test]
    fn histogram_summary_tracks_observations() {
        let mut r = MetricsRegistry::new();
        for v in [3, 5, 100] {
            r.observe("lat", v);
        }
        let h = r.histogram("lat").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.total(), 108);
        assert_eq!(h.max(), 100);
        let rebuilt = Histogram::from_parts(&h.nonzero_buckets(), h.count(), h.total(), h.max());
        assert_eq!(&rebuilt, h);
    }
}
