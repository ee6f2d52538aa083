//! Client-side timing, from outside the kernel.
//!
//! Every call the benchmark makes into a kernel crate's public function
//! goes through a [`Meter`]. An *op* is one client operation: its
//! latency lands in a log-linear histogram, and its outcome is compared
//! with the expected one (`attempted` / `failed`). A phase is cut into
//! chunks of fixed work; each chunk's throughput and latency quantiles
//! are kept, and the end-to-end numbers are medians over chunks, so a
//! burst of interference on a shared host moves a few chunks, not the
//! result. A traced meter additionally keeps a span ledger: per span
//! name the calls, work units, inclusive and self time and a latency
//! histogram, plus raw spans `(id, name, parent, start, end)` for every
//! 4096th op. Spans only ever wrap calls from the benchmark's own code,
//! so the kernel runs unmodified in both modes.

use std::collections::BTreeMap;
use std::time::Instant;

use mks_kernel::Outcome;

use crate::harness::median;
use crate::json::{obj, Json};

/// Raw spans are kept for every `RAW_EVERY`-th op.
const RAW_EVERY: u64 = 4096;

/// Sub-buckets per power of two: bucket width is at most 1/32 of its
/// lower edge, and quantiles interpolate linearly inside a bucket.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
const NR_BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) * SUB as usize;

/// A log-linear histogram of nanosecond values.
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist {
            counts: vec![0; NR_BUCKETS],
            n: 0,
        }
    }
}

impl LogHist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
        ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// `(lower edge, width)` of bucket `i`.
    fn edges(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let e = i / SUB + u64::from(SUB_BITS) - 1;
        let sub = i % SUB;
        let width = (1u64 << (e - u64::from(SUB_BITS))) as f64;
        ((SUB + sub) as f64 * width, width)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile (0..=1), interpolated inside its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut below = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if below + c >= target {
                let (lo, width) = Self::edges(i);
                return lo + width * ((target - below) / c).clamp(0.0, 1.0);
            }
            below += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let (lo, width) = Self::edges(last);
        lo + width
    }
}

/// Outcome classification for ops: did the kernel grant it?
pub trait Granted {
    fn granted(&self) -> bool;
}

impl<T, E> Granted for Result<T, E> {
    fn granted(&self) -> bool {
        self.is_ok()
    }
}

impl Granted for Outcome {
    fn granted(&self) -> bool {
        !matches!(self, Outcome::Refused(_))
    }
}

impl Granted for mks_hw::SegNo {
    fn granted(&self) -> bool {
        true
    }
}

impl Granted for () {
    fn granted(&self) -> bool {
        true
    }
}

/// Per-span-name totals of the traced run.
#[derive(Clone, Default)]
pub struct SpanStats {
    pub calls: u64,
    pub units: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    hist: LogHist,
}

struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    child_ns: u64,
    sampled: bool,
}

struct RawSpan {
    id: u64,
    name: &'static str,
    parent: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// One chunk of a phase: fixed work, its wall time and op latencies.
struct Chunk {
    ops: u64,
    wall_ns: u64,
    p50_ns: f64,
    p99_ns: f64,
}

/// Client-side op meter; traced or not (see the module docs).
pub struct Meter {
    traced: bool,
    origin: Instant,
    /// Latencies of the current chunk.
    latency: LogHist,
    chunks: Vec<Chunk>,
    chunk_from: u64,
    samples: u64,
    attempted: u64,
    failed: u64,
    open: Vec<Open>,
    spans: BTreeMap<&'static str, SpanStats>,
    raw: Vec<RawSpan>,
    next_id: u64,
    root_ns: u64,
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

impl Meter {
    pub fn new(traced: bool) -> Meter {
        Meter {
            traced,
            origin: Instant::now(),
            latency: LogHist::default(),
            chunks: Vec::new(),
            chunk_from: 0,
            samples: 0,
            attempted: 0,
            failed: 0,
            open: Vec::new(),
            spans: BTreeMap::new(),
            raw: Vec::new(),
            next_id: 0,
            root_ns: 0,
        }
    }

    /// One op that is a single kernel call: timed, and counted failed
    /// unless the kernel's grant/refusal matches `expect_granted`.
    pub fn op<T: Granted>(
        &mut self,
        name: &'static str,
        expect_granted: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.attempted += 1;
        if out.granted() != expect_granted {
            self.failed += 1;
        }
        let ns = ns_between(start, end);
        self.latency.record(ns);
        if self.traced {
            let sampled = self.attempted % RAW_EVERY == 1;
            self.close_leaf(name, 1, start, end, sampled);
        }
        out
    }

    /// A timed call that is not an op (audit passes, ticks inside a
    /// composite op): span only, `units` of work for per-unit means.
    pub fn span<T>(&mut self, name: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let sampled = self.open.iter().any(|o| o.sampled);
        self.close_leaf(name, units, start, end, sampled);
        out
    }

    /// Opens a composite op (several kernel calls, timed as one).
    pub fn begin_op(&mut self, name: &'static str) {
        self.attempted += 1;
        let sampled = self.attempted % RAW_EVERY == 1;
        self.push(name, sampled);
    }

    /// Closes the composite op opened by [`Meter::begin_op`].
    pub fn end_op(&mut self, as_expected: bool) {
        if !as_expected {
            self.failed += 1;
        }
        let (start, end) = self.pop();
        self.latency.record(ns_between(start, end));
    }

    /// Opens a grouping span (not an op), traced runs only.
    pub fn enter(&mut self, name: &'static str) {
        if self.traced {
            self.push(name, false);
        }
    }

    /// Closes the grouping span opened by [`Meter::enter`].
    pub fn exit(&mut self) {
        if self.traced {
            self.pop();
        }
    }

    /// Counts one more failed op (an outcome whose value, not just its
    /// grant, differs from the expected one).
    pub fn mismatch(&mut self) {
        self.failed += 1;
    }

    fn push(&mut self, name: &'static str, sampled: bool) {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Open {
            id,
            name,
            start: Instant::now(),
            child_ns: 0,
            sampled,
        });
    }

    fn pop(&mut self) -> (Instant, Instant) {
        let end = Instant::now();
        let o = self.open.pop().expect("pop matches a push");
        if self.traced {
            let incl = ns_between(o.start, end);
            self.account(o.name, 1, incl, incl.saturating_sub(o.child_ns));
            if o.sampled {
                self.keep_raw(o.id, o.name, o.start, end);
                if let Some(p) = self.open.last_mut() {
                    p.sampled = true;
                }
            }
        }
        (o.start, end)
    }

    fn close_leaf(
        &mut self,
        name: &'static str,
        units: u64,
        start: Instant,
        end: Instant,
        sampled: bool,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        let ns = ns_between(start, end);
        self.account(name, units, ns, ns);
        if sampled {
            self.keep_raw(id, name, start, end);
            if let Some(p) = self.open.last_mut() {
                p.sampled = true;
            }
        }
    }

    fn account(&mut self, name: &'static str, units: u64, incl: u64, self_ns: u64) {
        match self.open.last_mut() {
            Some(parent) => parent.child_ns += incl,
            None => self.root_ns += incl,
        }
        let s = self.spans.entry(name).or_default();
        s.calls += 1;
        s.units += units;
        s.total_ns += incl;
        s.self_ns += self_ns;
        s.hist.record(incl);
    }

    fn keep_raw(&mut self, id: u64, name: &'static str, start: Instant, end: Instant) {
        let parent = self.open.last().map(|p| p.id);
        self.raw.push(RawSpan {
            id,
            name,
            parent,
            start_ns: ns_between(self.origin, start),
            end_ns: ns_between(self.origin, end),
        });
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Closes the current chunk, which took `wall_ns` of wall time.
    pub fn cut(&mut self, wall_ns: u64) {
        let ops = self.attempted - self.chunk_from;
        if ops == 0 {
            return;
        }
        let lat = std::mem::take(&mut self.latency);
        self.samples += lat.count();
        self.chunks.push(Chunk {
            ops,
            wall_ns,
            p50_ns: lat.quantile(0.50),
            p99_ns: lat.quantile(0.99),
        });
        self.chunk_from = self.attempted;
    }

    /// Op latencies recorded in closed chunks.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Chunks closed so far.
    pub fn nr_chunks(&self) -> u64 {
        self.chunks.len() as u64
    }

    fn chunk_median(&self, f: impl Fn(&Chunk) -> f64) -> f64 {
        median(&self.chunks.iter().map(f).collect::<Vec<_>>())
    }

    /// Median over chunks of ops per second.
    pub fn ops_per_s(&self) -> f64 {
        self.chunk_median(|c| c.ops as f64 * 1e9 / c.wall_ns.max(1) as f64)
    }

    /// Median over chunks of the chunk's median op latency (ns).
    pub fn p50_ns(&self) -> f64 {
        self.chunk_median(|c| c.p50_ns)
    }

    /// Median over chunks of the chunk's 99th-percentile op latency (ns).
    pub fn p99_ns(&self) -> f64 {
        self.chunk_median(|c| c.p99_ns)
    }

    /// Mean inclusive ns per work unit of span `name` (0 if it never ran).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .filter(|s| s.units > 0)
            .map_or(0.0, |s| s.total_ns as f64 / s.units as f64)
    }

    /// Time inside root spans; the rest of a phase's wall is harness time.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Sum of self time over every span (equals [`Meter::root_ns`] when
    /// the self-time accounting partitions the roots, as it must).
    pub fn self_ns_total(&self) -> u64 {
        self.spans.values().map(|s| s.self_ns).sum()
    }

    /// The ledger as JSON: the per-span table and the raw spans.
    pub fn ledger_json(&self) -> Json {
        let table = self
            .spans
            .iter()
            .map(|(name, s)| {
                obj([
                    ("name", Json::from(*name)),
                    ("layer", Json::from(name.split('.').next().unwrap_or(name))),
                    ("calls", Json::from(s.calls)),
                    ("units", Json::from(s.units)),
                    ("total_ns", Json::from(s.total_ns)),
                    ("self_ns", Json::from(s.self_ns)),
                    ("p50_ns", Json::from(s.hist.quantile(0.50))),
                    ("p99_ns", Json::from(s.hist.quantile(0.99))),
                ])
            })
            .collect();
        let raw = self
            .raw
            .iter()
            .map(|r| {
                obj([
                    ("id", Json::from(r.id)),
                    ("name", Json::from(r.name)),
                    ("parent", r.parent.map_or(Json::Null, Json::from)),
                    ("start_ns", Json::from(r.start_ns)),
                    ("end_ns", Json::from(r.end_ns)),
                ])
            })
            .collect();
        obj([("spans", Json::Arr(table)), ("raw_spans", Json::Arr(raw))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_their_values() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 65, 1000, 123_456, u64::MAX / 3] {
            let (lo, width) = LogHist::edges(LogHist::bucket(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v}: {lo} +{width}"
            );
        }
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let mut h = LogHist::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 5_000.0).abs() < 5_000.0 * 0.04, "{p50}");
        assert!((p99 - 9_900.0).abs() < 9_900.0 * 0.04, "{p99}");
    }

    #[test]
    fn self_time_partitions_root_time() {
        let mut m = Meter::new(true);
        for _ in 0..3 {
            m.enter("client.group");
            m.op("a.x", true, || std::hint::black_box(()));
            m.span("a.y", 4, || std::hint::black_box(()));
            m.exit();
        }
        m.begin_op("client.op");
        m.span("a.z", 1, || ());
        m.end_op(false);
        assert_eq!(m.self_ns_total(), m.root_ns());
        assert_eq!(m.attempted(), 4);
        assert_eq!(m.failed(), 1);
        assert_eq!(m.spans["a.y"].units, 12);
        assert!(!m.raw.is_empty(), "the first op is always sampled");
    }
}
