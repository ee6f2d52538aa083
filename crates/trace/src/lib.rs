//! # mks-trace — the kernel flight recorder
//!
//! Schroeder's *review* activity depends on being able to see what the
//! supervisor actually does: the paper's audit trail (`syserr`) exists
//! because an unobservable kernel cannot be audited or simplified. This
//! crate is the simulation's unified observability layer:
//!
//! * a bounded **trace ring** of structured [`TraceRecord`]s
//!   (overwrite-oldest, monotone sequence numbers — the same shape as
//!   the paper's simplified circular I/O buffers),
//! * nested **spans** keyed to the simulated [`Clock`], so a single
//!   gate call can be attributed across ring crossing → monitor check →
//!   segment fault → page control → device I/O, with per-layer
//!   inclusive/exclusive cycle totals,
//! * a **metrics registry** of named counters and log2 cycle
//!   histograms that subsystems write instead of ad-hoc private fields,
//!   and
//! * a lossless JSON **snapshot** exporter ([`Snapshot`]) for the
//!   experiment binaries and the read-only metering gate.
//!
//! The crate sits at the bottom of the dependency order — it also owns
//! the cycle [`Clock`] (re-exported by `mks-hw` under its historical
//! paths) so the recorder can timestamp records itself.
//!
//! ## Handles
//!
//! The simulation is single-threaded; a [`TraceHandle`] is a cheap
//! clone (`Rc<RefCell<…>>`, exactly like [`Clock`]) that every
//! subsystem embeds. All mutation goes through short-lived internal
//! borrows, so handles can be stored in `&self` contexts (the KST
//! records lookups from `&self` methods, for example).

pub mod analytics;
pub mod clock;
pub mod digest;
pub mod json;
pub mod metrics;
pub mod quantile;
pub mod record;
pub mod ring;
pub mod sampler;
pub mod sketch;
pub mod snapshot;
pub mod span;

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use digest::fnv64;

pub use analytics::{
    Alert, AlertKind, AuditKind, AuditSample, Observatory, ObservatoryConfig, ObservatoryTotals,
    PrincipalRate,
};
pub use clock::{Clock, Cycles};
pub use metrics::{Histogram, MetricsRegistry};
pub use quantile::{Exemplar, QuantileSketch};
pub use record::{EventKind, Layer, TraceRecord};
pub use ring::TraceRing;
pub use sampler::{SamplePolicy, Sampler};
pub use sketch::{HeavyHitter, TopK};
pub use snapshot::{
    HistogramSnapshot, LayerSnapshot, ObservatorySnapshot, QuantileSnapshot, ReplSnapshot,
    ReplaySnapshot, RingSnapshot, SamplerSnapshot, Snapshot,
};
pub use span::{LayerTotals, SpanId, SpanNode};

use span::OpenSpan;

/// Default trace-ring capacity: bounded, but roomy enough that a whole
/// experiment's hot section fits.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// How many completed root span trees are kept for inspection.
const KEPT_ROOT_SPANS: usize = 16;

/// The flight recorder proper. Use through a [`TraceHandle`].
#[derive(Debug)]
pub struct FlightRecorder {
    clock: Clock,
    ring: TraceRing,
    metrics: MetricsRegistry,
    open: Vec<OpenSpan>,
    recent_roots: VecDeque<SpanNode>,
    layer_totals: BTreeMap<Layer, LayerTotals>,
    next_span: u64,
    /// Events offered to the recorder (drives the sampling coin; unlike
    /// the ring's `next_seq`, it counts sampled-out records too).
    events_seen: u64,
    /// Named quantile sketches (log-linear, exemplar-bearing) — the
    /// second-stage aggregation alongside the log2 histograms.
    quantiles: BTreeMap<String, QuantileSketch>,
    /// Head-sampling policy for verbatim ring records.
    sampler: Sampler,
    /// Streaming audit analytics and anomaly surveillance.
    observatory: Observatory,
}

impl FlightRecorder {
    fn new(clock: Clock, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            clock,
            ring: TraceRing::new(capacity),
            metrics: MetricsRegistry::new(),
            open: Vec::new(),
            recent_roots: VecDeque::new(),
            layer_totals: BTreeMap::new(),
            next_span: 0,
            events_seen: 0,
            quantiles: BTreeMap::new(),
            sampler: Sampler::default(),
            observatory: Observatory::default(),
        }
    }

    fn append(
        &mut self,
        layer: Layer,
        kind: EventKind,
        principal: Option<Rc<str>>,
        detail: Cow<'static, str>,
    ) {
        let record = TraceRecord {
            seq: 0, // assigned by the ring
            at: self.clock.now(),
            layer,
            kind,
            principal,
            span: self.open.last().map(|s| s.id),
            detail,
        };
        // Analytics ingest every event *before* sampling: the sampler
        // bounds the ring's verbatim memory, never the statistics.
        self.observatory.ingest_record(&record);
        let seq = self.events_seen;
        self.events_seen += 1;
        if self.sampler.admit(seq, &record) {
            self.ring.append(record);
        }
    }

    fn observe_quantile(
        &mut self,
        name: &str,
        value: Cycles,
        principal: Option<&str>,
        detail: &str,
    ) {
        let at = self.clock.now();
        // Look up before inserting: the key is allocated once, when the
        // sketch is created, not on every observation.
        if let Some(sketch) = self.quantiles.get_mut(name) {
            sketch.observe(value, at, principal, detail);
        } else {
            let mut sketch = QuantileSketch::new(fnv64(name.as_bytes()));
            sketch.observe(value, at, principal, detail);
            self.quantiles.insert(name.to_string(), sketch);
        }
    }

    fn span_begin(
        &mut self,
        layer: Layer,
        label: &'static str,
        profile: Option<(&'static str, Option<Rc<str>>)>,
    ) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        self.append(layer, EventKind::SpanBegin, None, Cow::Borrowed(label));
        self.open.push(OpenSpan {
            id,
            layer,
            label,
            start: self.clock.now(),
            child_inclusive: 0,
            children: Vec::new(),
            profile,
        });
        id
    }

    fn span_end(&mut self, id: SpanId) {
        let Some(target) = self.open.iter().position(|s| s.id == id) else {
            return; // already closed (leniently) by an enclosing span
        };
        // Close any spans left open above the target first — leniency
        // for early returns on error paths.
        while self.open.len() > target {
            let s = self.open.pop().expect("target index is in range");
            let now = self.clock.now();
            let inclusive = now - s.start;
            let exclusive = inclusive.saturating_sub(s.child_inclusive);
            self.append(s.layer, EventKind::SpanEnd, None, Cow::Borrowed(s.label));
            if let Some((sketch, principal)) = s.profile {
                self.observe_quantile(sketch, inclusive, principal.as_deref(), s.label);
            }
            let node = SpanNode {
                id: s.id,
                layer: s.layer,
                label: s.label,
                start: s.start,
                inclusive,
                exclusive,
                children: s.children,
            };
            match self.open.last_mut() {
                Some(parent) => {
                    parent.child_inclusive += inclusive;
                    parent.children.push(node);
                }
                None => {
                    // A root completed: fold the whole tree into the
                    // per-layer totals and keep it for inspection.
                    node.accumulate(&mut self.layer_totals);
                    self.recent_roots.push_back(node);
                    if self.recent_roots.len() > KEPT_ROOT_SPANS {
                        self.recent_roots.pop_front();
                    }
                }
            }
        }
    }

    fn snapshot(&self) -> Snapshot {
        let mut counters: Vec<(String, u64)> = self
            .metrics
            .counters()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        // Mirror recorder-internal loss accounting into the counter
        // namespace, so bounded-history loss is visible in every
        // snapshot instead of silent.
        for (name, value) in [
            ("ring.dropped", self.ring.dropped()),
            ("sampler.kept", self.sampler.kept()),
            ("sampler.dropped", self.sampler.dropped()),
            ("sampler.forced", self.sampler.forced()),
        ] {
            match counters.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(pos) => counters[pos].1 = value,
                Err(pos) => counters.insert(pos, (name.to_string(), value)),
            }
        }
        Snapshot {
            at: self.clock.now(),
            counters,
            histograms: self
                .metrics
                .histograms()
                .map(|(n, h)| HistogramSnapshot::capture(n, h))
                .collect(),
            quantiles: self
                .quantiles
                .iter()
                .map(|(n, q)| QuantileSnapshot::capture(n, q))
                .collect(),
            layers: Snapshot::layers_from_totals(&self.layer_totals),
            ring: RingSnapshot {
                capacity: self.ring.capacity() as u64,
                len: self.ring.len() as u64,
                dropped: self.ring.dropped(),
                next_seq: self.ring.next_seq(),
            },
            sampler: SamplerSnapshot::capture(&self.sampler),
            observatory: ObservatorySnapshot::capture(&self.observatory),
            replay: None,
            repl: None,
        }
    }
}

/// Cheap-clone handle onto a [`FlightRecorder`]. Every subsystem that
/// instruments itself holds one; clones share the recorder and the
/// timeline, exactly as [`Clock`] clones share the clock.
#[derive(Clone, Debug)]
pub struct TraceHandle(Rc<RefCell<FlightRecorder>>);

impl TraceHandle {
    /// Creates a recorder on `clock` with the default ring capacity.
    pub fn new(clock: Clock) -> TraceHandle {
        TraceHandle::with_capacity(clock, DEFAULT_RING_CAPACITY)
    }

    /// Creates a recorder on `clock` with an explicit ring capacity.
    pub fn with_capacity(clock: Clock, capacity: usize) -> TraceHandle {
        TraceHandle(Rc::new(RefCell::new(FlightRecorder::new(clock, capacity))))
    }

    /// The recorder's clock (same timeline as the machine's).
    pub fn clock(&self) -> Clock {
        self.0.borrow().clock.clone()
    }

    /// Appends an event record with no principal. The detail is taken
    /// as it comes: a static string is borrowed and a formatted one
    /// moved in, so neither is copied again.
    pub fn event(&self, layer: Layer, kind: EventKind, detail: impl Into<Cow<'static, str>>) {
        self.0.borrow_mut().append(layer, kind, None, detail.into());
    }

    /// Appends an event record attributed to a principal. The record
    /// shares the caller's copy of the principal.
    pub fn event_for(
        &self,
        layer: Layer,
        kind: EventKind,
        principal: Rc<str>,
        detail: impl Into<Cow<'static, str>>,
    ) {
        self.0
            .borrow_mut()
            .append(layer, kind, Some(principal), detail.into());
    }

    /// Opens a span; it closes when the returned guard drops (or at
    /// [`SpanGuard::end`]). Spans nest by open order.
    #[must_use = "the span closes when the guard drops"]
    pub fn span(&self, layer: Layer, label: &'static str) -> SpanGuard {
        let id = self.0.borrow_mut().span_begin(layer, label, None);
        SpanGuard {
            handle: self.clone(),
            id,
        }
    }

    /// Opens a *profiled* span: on close, its inclusive cycles are
    /// observed into the quantile sketch named `sketch` (convention:
    /// `q.<layer>.<op>.<class>`), with `principal` riding into the
    /// sketch's exemplar reservoir. Otherwise identical to
    /// [`TraceHandle::span`].
    ///
    /// Both are rendered once by the caller — the sketch name is a
    /// static, the principal a shared copy — so opening a profiled span
    /// builds no strings of its own.
    #[must_use = "the span closes when the guard drops"]
    pub fn span_profiled(
        &self,
        layer: Layer,
        label: &'static str,
        sketch: &'static str,
        principal: Option<Rc<str>>,
    ) -> SpanGuard {
        let id = self
            .0
            .borrow_mut()
            .span_begin(layer, label, Some((sketch, principal)));
        SpanGuard {
            handle: self.clone(),
            id,
        }
    }

    /// Adds `delta` to a named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.0.borrow_mut().metrics.counter_add(name, delta);
    }

    /// Current value of a named counter (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.0.borrow().metrics.counter(name)
    }

    /// Records an observation in a named histogram.
    pub fn observe(&self, name: &str, value: Cycles) {
        self.0.borrow_mut().metrics.observe(name, value);
    }

    /// Records an observation in a named quantile sketch, with its
    /// provenance — the principal and detail ride into the sketch's
    /// exemplar reservoir when the value lands in the hot region.
    ///
    /// Convention: names read `q.<layer>.<op>.<class>` so snapshots key
    /// latency per (layer, op-kind, priority class).
    pub fn observe_quantile(
        &self,
        name: &str,
        value: Cycles,
        principal: Option<&str>,
        detail: &str,
    ) {
        self.0
            .borrow_mut()
            .observe_quantile(name, value, principal, detail);
    }

    /// Estimated `permille`-quantile of a named sketch (zero if the
    /// sketch is absent or empty). See [`QuantileSketch::quantile`] for
    /// the error bound.
    pub fn quantile(&self, name: &str, permille: u64) -> Cycles {
        self.0
            .borrow()
            .quantiles
            .get(name)
            .map(|q| q.quantile(permille))
            .unwrap_or(0)
    }

    /// A copy of a named quantile sketch, if it exists.
    pub fn quantile_sketch(&self, name: &str) -> Option<QuantileSketch> {
        self.0.borrow().quantiles.get(name).cloned()
    }

    /// Installs a head-sampling policy for verbatim ring records.
    /// Aggregation (counters, quantiles, observatory) is unaffected;
    /// security-critical records bypass sampling unconditionally.
    pub fn set_sampling(&self, policy: SamplePolicy) {
        self.0.borrow_mut().sampler.set_policy(policy);
    }

    /// Current sampler accounting.
    pub fn sampler_stats(&self) -> SamplerSnapshot {
        SamplerSnapshot::capture(&self.0.borrow().sampler)
    }

    /// Feeds one classified audit sample to the observatory. Called by
    /// the kernel's audit choke point — the single place audit records
    /// are appended — so the analytics see the same stream the log does.
    pub fn ingest_audit(&self, sample: &AuditSample) {
        self.0.borrow_mut().observatory.ingest_audit(sample);
    }

    /// Reconfigures the observatory's bounds and thresholds.
    pub fn set_observatory_config(&self, cfg: ObservatoryConfig) {
        self.0.borrow_mut().observatory.set_config(cfg);
    }

    /// Runs `f` with read access to the observatory (alerts, rates,
    /// heavy hitters). There is no mutable counterpart: outside the
    /// recorder, the observatory is read-only.
    pub fn read_observatory<R>(&self, f: impl FnOnce(&Observatory) -> R) -> R {
        f(&self.0.borrow().observatory)
    }

    /// The surveillance alert registry, oldest first (bounded copy).
    pub fn alerts(&self) -> Vec<Alert> {
        self.0.borrow().observatory.alerts().to_vec()
    }

    /// Runs `f` with read access to the registry — the accessor views
    /// like `VmStats` materialize themselves through this.
    pub fn read<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> R {
        f(&self.0.borrow().metrics)
    }

    /// Captures a read-only snapshot (what the metering gate exports).
    pub fn snapshot(&self) -> Snapshot {
        self.0.borrow().snapshot()
    }

    /// The most recently completed *root* span tree, if any.
    pub fn last_root_span(&self) -> Option<SpanNode> {
        self.0.borrow().recent_roots.back().cloned()
    }

    /// Recently completed root span trees, oldest first (bounded).
    pub fn recent_root_spans(&self) -> Vec<SpanNode> {
        self.0.borrow().recent_roots.iter().cloned().collect()
    }

    /// Copies out the ring contents, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.0.borrow().ring.iter().cloned().collect()
    }

    /// Ring occupancy counters.
    pub fn ring_stats(&self) -> RingSnapshot {
        let r = self.0.borrow();
        RingSnapshot {
            capacity: r.ring.capacity() as u64,
            len: r.ring.len() as u64,
            dropped: r.ring.dropped(),
            next_seq: r.ring.next_seq(),
        }
    }
}

/// RAII guard for an open span (see [`TraceHandle::span`]).
#[derive(Debug)]
pub struct SpanGuard {
    handle: TraceHandle,
    id: SpanId,
}

impl SpanGuard {
    /// The span's id (recorded on events emitted while it is open).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Closes the span now, consuming the guard.
    pub fn end(self) {
        // Drop does the work.
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.handle.0.borrow_mut().span_end(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_exclusive_sums_to_inclusive() {
        let clock = Clock::new();
        let t = TraceHandle::new(clock.clone());
        let outer = t.span(Layer::Hw, "gate");
        clock.advance(10);
        {
            let _mid = t.span(Layer::Monitor, "initiate");
            clock.advance(20);
            {
                let _inner = t.span(Layer::Vm, "fault.service");
                clock.advance(30);
            }
            clock.advance(5);
        }
        clock.advance(7);
        outer.end();

        let root = t.last_root_span().expect("root span completed");
        assert_eq!(root.layer, Layer::Hw);
        assert_eq!(root.inclusive, 72);
        assert_eq!(root.exclusive, 17, "10 before + 7 after the monitor span");
        assert_eq!(root.children.len(), 1);
        let mid = &root.children[0];
        assert_eq!(mid.inclusive, 55);
        assert_eq!(mid.exclusive, 25);
        let inner = &mid.children[0];
        assert_eq!(inner.inclusive, 30);
        assert_eq!(inner.exclusive, 30);
        assert_eq!(root.exclusive_sum(), root.inclusive);
        assert_eq!(root.layers(), vec![Layer::Hw, Layer::Monitor, Layer::Vm]);
    }

    #[test]
    fn unclosed_children_are_closed_leniently_with_the_parent() {
        let clock = Clock::new();
        let t = TraceHandle::new(clock.clone());
        let outer = t.span(Layer::Monitor, "read");
        let inner = t.span(Layer::Vm, "touch");
        clock.advance(4);
        // Close the *outer* guard first: the recorder closes the inner
        // span for us rather than corrupting the stack.
        drop(outer);
        drop(inner); // now a no-op
        let root = t.last_root_span().unwrap();
        assert_eq!(root.children.len(), 1);
        assert_eq!(root.exclusive_sum(), root.inclusive);
    }

    #[test]
    fn events_carry_the_innermost_span() {
        let clock = Clock::new();
        let t = TraceHandle::new(clock.clone());
        t.event(Layer::Io, EventKind::Interrupt, "tty");
        let g = t.span(Layer::Procs, "dispatch");
        t.event_for(
            Layer::Procs,
            EventKind::IpcSend,
            "Admin.SysAdmin.a".into(),
            "chan 3",
        );
        g.end();
        let recs = t.records();
        let plain = recs
            .iter()
            .find(|r| r.kind == EventKind::Interrupt)
            .unwrap();
        assert_eq!(plain.span, None);
        let inside = recs.iter().find(|r| r.kind == EventKind::IpcSend).unwrap();
        assert!(inside.span.is_some());
        assert_eq!(inside.principal.as_deref(), Some("Admin.SysAdmin.a"));
    }

    #[test]
    fn per_layer_totals_fold_in_completed_roots() {
        let clock = Clock::new();
        let t = TraceHandle::new(clock.clone());
        for _ in 0..3 {
            let outer = t.span(Layer::Monitor, "call");
            clock.advance(5);
            {
                let _inner = t.span(Layer::Vm, "service");
                clock.advance(10);
            }
            outer.end();
        }
        let snap = t.snapshot();
        let monitor = snap.layer(Layer::Monitor).unwrap();
        let vm = snap.layer(Layer::Vm).unwrap();
        assert_eq!(monitor.spans, 3);
        assert_eq!(monitor.inclusive, 45);
        assert_eq!(monitor.exclusive, 15);
        assert_eq!(vm.spans, 3);
        assert_eq!(vm.exclusive, 30);
        // The exclusive column partitions total root-inclusive time.
        let excl_sum: u64 = snap.layers.iter().map(|l| l.exclusive).sum();
        assert_eq!(excl_sum, monitor.inclusive);
    }

    #[test]
    fn snapshot_json_round_trips_losslessly() {
        let clock = Clock::new();
        let t = TraceHandle::with_capacity(clock.clone(), 8);
        t.counter_add("vm.faults", 3);
        t.observe("vm.fault_latency", 1200);
        t.observe("vm.fault_latency", 7);
        let g = t.span(Layer::Hw, "gate");
        clock.advance(42);
        g.end();
        for i in 0..20 {
            t.event(Layer::Io, EventKind::BufferOp, format!("op {i}"));
        }
        let snap = t.snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json);
        assert!(snap.ring.len <= snap.ring.capacity);
        assert!(
            snap.ring.dropped > 0,
            "20 events in an 8-slot ring must drop"
        );
    }
}
