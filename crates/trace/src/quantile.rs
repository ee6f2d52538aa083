//! Log-linear quantile sketches with exemplars — the observatory's
//! latency profiler.
//!
//! The PR-1 [`Histogram`](crate::metrics::Histogram) answers "roughly
//! how expensive" with log₂ buckets; at E17 scale the question becomes
//! "which principal, which op, which tail", and a factor-of-two bucket
//! cannot say whether p99 is 33k or 64k cycles. A [`QuantileSketch`]
//! splits every octave into [`SUBBUCKETS`] linear sub-buckets (HDR
//! style), so any estimated quantile carries a **documented relative
//! error bound**:
//!
//! * values below [`SUBBUCKETS`] are recorded exactly;
//! * for larger values, the reported estimate `est` (a bucket's lower
//!   bound) satisfies `est ≤ v` and `v − est < est / SUBBUCKETS` where
//!   `v` is the exact order statistic — at 16 sub-buckets, within
//!   6.25% below the true value, never above it.
//!
//! Memory stays bounded: buckets are sparse, and there are at most
//! ~1000 of them over the whole `u64` range, however many observations
//! stream through — the sketch *aggregates instead of remembering*.
//!
//! Each sketch also keeps a bounded reservoir of **exemplars**: concrete
//! observations from the *hot region* (the top octave of what has been
//! seen), carrying the principal and free-form detail that produced
//! them, so a tail latency in a snapshot links back to who caused it.

use crate::clock::Cycles;
use crate::digest::{SplitMix64, GOLDEN_GAMMA};

/// Linear sub-buckets per octave. Controls the error bound: relative
/// error of any quantile estimate is `< 1/SUBBUCKETS`.
pub const SUBBUCKETS: u64 = 16;

/// Exemplar reservoir capacity per sketch.
const NR_EXEMPLARS: usize = 4;

/// One concrete observation kept to explain a tail bucket.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Exemplar {
    /// The observed value (cycles).
    pub value: Cycles,
    /// Simulated time of the observation.
    pub at: Cycles,
    /// Acting principal, when the observation site knew one.
    pub principal: Option<String>,
    /// Free-form context (operation name, outcome).
    pub detail: String,
}

/// A bounded log-linear sketch of one value stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QuantileSketch {
    /// Sparse `(bucket index, count)` pairs, index-ordered.
    buckets: Vec<(usize, u64)>,
    count: u64,
    total: u128,
    min: Cycles,
    max: Cycles,
    /// Hot-region exemplar reservoir (Algorithm R over hot observations,
    /// driven by a deterministic per-sketch generator).
    exemplars: Vec<Exemplar>,
    /// Hot observations seen so far (the reservoir denominator).
    hot_seen: u64,
    /// Deterministic reservoir generator — seeded, never wall clock.
    rng: SplitMix64,
}

/// Which bucket `value` lands in: exact below [`SUBBUCKETS`], then
/// [`SUBBUCKETS`] linear sub-buckets per octave.
pub(crate) fn bucket_of(value: Cycles) -> usize {
    if value < SUBBUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as u64; // ≥ 4
    let sub = (value >> (msb - 4)) & (SUBBUCKETS - 1);
    (SUBBUCKETS + (msb - 4) * SUBBUCKETS + sub) as usize
}

/// The smallest value that maps to `bucket` — what quantile estimates
/// report, so estimates never exceed the true order statistic.
fn bucket_floor(bucket: usize) -> Cycles {
    let b = bucket as u64;
    if b < SUBBUCKETS {
        return b;
    }
    let octave = (b - SUBBUCKETS) / SUBBUCKETS;
    let sub = (b - SUBBUCKETS) % SUBBUCKETS;
    (SUBBUCKETS + sub) << octave
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new(0)
    }
}

impl QuantileSketch {
    /// Creates an empty sketch; `seed` drives only the exemplar
    /// reservoir's replacement choices.
    pub fn new(seed: u64) -> QuantileSketch {
        QuantileSketch {
            buckets: Vec::new(),
            count: 0,
            total: 0,
            min: 0,
            max: 0,
            exemplars: Vec::new(),
            hot_seen: 0,
            rng: SplitMix64::new(seed ^ GOLDEN_GAMMA),
        }
    }

    /// Rebuilds a sketch from snapshot parts (exemplars ride along;
    /// reservoir state restarts, which only affects *future* sampling).
    pub fn from_parts(
        buckets: Vec<(usize, u64)>,
        count: u64,
        total: u128,
        min: Cycles,
        max: Cycles,
        exemplars: Vec<Exemplar>,
    ) -> QuantileSketch {
        QuantileSketch {
            buckets,
            count,
            total,
            min,
            max,
            exemplars,
            hot_seen: 0,
            rng: SplitMix64::new(GOLDEN_GAMMA),
        }
    }

    /// The hot-region floor: observations at or above half the current
    /// maximum (the top octave of what has been seen) are exemplar
    /// candidates. The maximum itself always qualifies, so a non-empty
    /// sketch always carries at least one exemplar.
    fn hot_floor(&self) -> Cycles {
        self.max / 2
    }

    /// Records one observation with its provenance.
    pub fn observe(&mut self, value: Cycles, at: Cycles, principal: Option<&str>, detail: &str) {
        let b = bucket_of(value);
        match self.buckets.binary_search_by_key(&b, |(i, _)| *i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (b, 1)),
        }
        self.count += 1;
        self.total += u128::from(value);
        if self.count == 1 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
            // The hot region moved up: exemplars that no longer qualify
            // are pruned so the reservoir describes the *current* tail.
            let floor = self.hot_floor();
            self.exemplars.retain(|e| e.value >= floor);
        }
        if value >= self.hot_floor() {
            self.hot_seen += 1;
            // The exemplar's strings are copied only when it is kept.
            let ex = || Exemplar {
                value,
                at,
                principal: principal.map(str::to_string),
                detail: detail.to_string(),
            };
            if self.exemplars.len() < NR_EXEMPLARS {
                self.exemplars.push(ex());
            } else {
                // Algorithm R: replace a random slot with probability
                // NR_EXEMPLARS / hot_seen.
                let slot = self.rng.below(self.hot_seen) as usize;
                if slot < NR_EXEMPLARS {
                    self.exemplars[slot] = ex();
                }
            }
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Smallest observation (zero when empty).
    pub fn min(&self) -> Cycles {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (zero when empty).
    pub fn max(&self) -> Cycles {
        self.max
    }

    /// Sparse `(bucket, count)` pairs, index-ordered.
    pub fn buckets(&self) -> &[(usize, u64)] {
        &self.buckets
    }

    /// Current exemplars (hot-region observations, bounded).
    pub fn exemplars(&self) -> &[Exemplar] {
        &self.exemplars
    }

    /// Estimates the `permille`-th quantile (500 = p50, 999 = p999) as
    /// the floor of the bucket holding that rank. Zero when empty.
    ///
    /// Guarantee: the estimate never exceeds the exact order statistic
    /// `v`, and `v − estimate < estimate / SUBBUCKETS` (exact for
    /// values below [`SUBBUCKETS`]).
    pub fn quantile(&self, permille: u64) -> Cycles {
        if self.count == 0 {
            return 0;
        }
        // Rank of the order statistic, 1-based, ceiling — p50 of [a, b]
        // is a, p100 is the maximum.
        let rank = ((permille * self.count).div_ceil(1000)).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_floor(*b);
            }
        }
        bucket_floor(self.buckets.last().map(|(b, _)| *b).unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_floor_inverts_bucket_of() {
        for v in (0..4096u64).chain([u64::MAX, u64::MAX / 3, 1 << 40, (1 << 40) + 12345]) {
            let b = bucket_of(v);
            let floor = bucket_floor(b);
            assert!(floor <= v, "floor {floor} > value {v}");
            assert_eq!(bucket_of(floor), b, "floor stays in its bucket (v={v})");
            if v >= SUBBUCKETS {
                // Bucket width bound: the floor is within 1/SUBBUCKETS.
                assert!(v - floor < floor / SUBBUCKETS + 1, "v={v} floor={floor}");
            } else {
                assert_eq!(floor, v, "small values are exact");
            }
        }
    }

    #[test]
    fn quantiles_match_exact_order_statistics_within_bound() {
        let mut s = QuantileSketch::new(7);
        let mut exact: Vec<u64> = Vec::new();
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x % 1_000_000;
            s.observe(v, 0, None, "t");
            exact.push(v);
        }
        exact.sort_unstable();
        for permille in [500u64, 950, 990, 999] {
            let rank = ((permille * exact.len() as u64).div_ceil(1000)).max(1) as usize - 1;
            let v = exact[rank];
            let est = s.quantile(permille);
            assert!(est <= v, "p{permille}: est {est} > exact {v}");
            assert!(
                v - est <= v / SUBBUCKETS,
                "p{permille}: est {est} misses exact {v} by more than 1/{SUBBUCKETS}"
            );
        }
    }

    #[test]
    fn exemplars_stay_bounded_and_hot() {
        let mut s = QuantileSketch::new(1);
        for i in 0..1000u64 {
            s.observe(i, i, Some("Load1.Traffic.a"), &format!("op {i}"));
        }
        assert!(s.exemplars().len() <= NR_EXEMPLARS);
        assert!(!s.exemplars().is_empty(), "the max always qualifies");
        for e in s.exemplars() {
            assert!(
                e.value >= s.max() / 2,
                "exemplar {e:?} below the hot region"
            );
            assert_eq!(e.principal.as_deref(), Some("Load1.Traffic.a"));
        }
    }

    #[test]
    fn empty_sketch_answers_zero() {
        let s = QuantileSketch::default();
        assert_eq!(s.quantile(999), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
    }
}
