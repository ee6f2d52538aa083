//! What every workload shares: run configuration, the timed loop, the
//! kernel counters read before and after it, and the assembly of the
//! end-to-end and per-layer metric sets.

use std::time::Instant;

use mks_kernel::KernelWorld;

use crate::host;
use crate::json::{obj, Json};
use crate::meter::Meter;

/// How one workload run is driven.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    /// Minimum wall time of each timed phase.
    pub seconds: f64,
    /// Run the traced phase after the untraced one.
    pub traced: bool,
    /// Miniature sizes (unit tests): seconds is then normally 0, so a
    /// phase runs exactly its fixed census window.
    pub mini: bool,
}

/// One timed phase: its meter (which holds the per-chunk numbers) and
/// the wall time it covered.
pub struct Phase {
    pub meter: Meter,
    pub wall_ns: u64,
}

/// Kernel counters read from outside through the world's accessors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub cycles: u64,
    pub granted: u64,
    pub denied: u64,
    pub acl_checks: u64,
    pub kst_lookups: u64,
    pub lookups: u64,
    pub probes: u64,
    pub faults: u64,
    pub evictions: u64,
    pub ring_crossings: u64,
    pub trace_kept: u64,
    pub ring_dropped: u64,
    pub audit_records: u64,
    /// Logins the client made (set by the site workloads).
    pub logins: u64,
}

impl Counters {
    pub fn read(w: &KernelWorld) -> Counters {
        let t = &w.vm.machine.trace;
        let (lookups, probes) = w.fs.lookup_work();
        Counters {
            cycles: w.vm.machine.clock.now(),
            granted: t.counter("monitor.granted"),
            denied: t.counter("monitor.denied"),
            acl_checks: t.counter("fs.acl_checks"),
            kst_lookups: t.counter("fs.kst_lookups"),
            lookups,
            probes,
            faults: t.counter("vm.faults"),
            evictions: t.counter("vm.evictions_core") + t.counter("vm.evictions_bulk"),
            ring_crossings: w.vm.machine.ring_crossings(),
            trace_kept: t.sampler_stats().kept,
            ring_dropped: t.ring_stats().dropped,
            audit_records: w.log.len() as u64,
            logins: 0,
        }
    }

    fn zip(&self, o: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            cycles: f(self.cycles, o.cycles),
            granted: f(self.granted, o.granted),
            denied: f(self.denied, o.denied),
            acl_checks: f(self.acl_checks, o.acl_checks),
            kst_lookups: f(self.kst_lookups, o.kst_lookups),
            lookups: f(self.lookups, o.lookups),
            probes: f(self.probes, o.probes),
            faults: f(self.faults, o.faults),
            evictions: f(self.evictions, o.evictions),
            ring_crossings: f(self.ring_crossings, o.ring_crossings),
            trace_kept: f(self.trace_kept, o.trace_kept),
            ring_dropped: f(self.ring_dropped, o.ring_dropped),
            audit_records: f(self.audit_records, o.audit_records),
            logins: f(self.logins, o.logins),
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, o: &Counters) -> Counters {
        self.zip(o, |a, b| a + b)
    }

    /// Field-wise `self - before`.
    pub fn since(&self, before: &Counters) -> Counters {
        self.zip(before, u64::saturating_sub)
    }
}

/// Kernel work inside the census window: a fixed, seed-determined
/// stretch of ops at the start of the untraced phase, so simulated
/// metrics and counts repeat exactly for a seed however long the host
/// takes to run the rest of the phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Window {
    pub ops: u64,
    pub work: Counters,
}

impl Window {
    pub fn sim_cycles_per_op(&self) -> f64 {
        self.work.cycles as f64 / self.ops.max(1) as f64
    }
}

/// Replication-layer numbers (zero on workloads without a cluster).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplLayer {
    pub frames_per_commit: f64,
    pub resends_per_commit: f64,
    pub retries_per_commit: f64,
    pub catchups: f64,
    pub promotions: f64,
    pub ack_ticks_p50: f64,
    pub ack_ticks_p99: f64,
    pub unavailable_ticks: f64,
}

/// Per-layer numbers only some workloads produce (zero elsewhere).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Extras {
    pub acl_work_per_eval: f64,
    pub wire_bytes_per_commit: f64,
    pub repl: ReplLayer,
}

/// Spans whose mean inclusive time per work unit is a per-layer metric
/// (`<span>.ns`). Zero when the workload never calls that function.
pub const TIMED_SPANS: [&str; 25] = [
    "monitor.read",
    "monitor.write",
    "monitor.call_gate",
    "monitor.initiate",
    "monitor.terminate",
    "monitor.list_dir",
    "monitor.status",
    "monitor.set_segment_acl",
    "monitor.create_segment",
    "monitor.delete_segment",
    "subsystem.login",
    "statemachine.apply.read",
    "statemachine.apply.write",
    "statemachine.apply.call_gate",
    "statemachine.apply.initiate",
    "statemachine.apply.create_segment",
    "statemachine.apply.delete_segment",
    "statemachine.apply.list_dir",
    "statemachine.apply.tick",
    "statemachine.verify",
    "statemachine.reduce",
    "wire.encode",
    "wire.decode",
    "replicate.submit",
    "replicate.tick",
];

/// Everything one workload run measured and checked.
pub struct Report {
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(String, f64)>,
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    pub latency_samples: u64,
    /// Workload sizes and run facts for the output file.
    pub sizes: Vec<(&'static str, Json)>,
    /// The traced run's span ledger and reconciliation.
    pub trace: Option<Json>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// True while a phase that has finished `done` units (of at least `min`)
/// must keep going: until both the minimum and the wall budget are met.
fn keep_going(started: Instant, seconds: f64, done: u64, min: u64) -> bool {
    done < min || started.elapsed().as_secs_f64() < seconds
}

/// Runs `step` (one client action) in chunks of `chunk` actions until
/// the wall budget is spent and at least `census_chunks` chunks ran; the
/// census window covers exactly the first `census_chunks` chunks.
pub fn run_chunks<S>(
    state: &mut S,
    cfg: &Config,
    traced: bool,
    chunk: u64,
    census_chunks: u64,
    mut step: impl FnMut(&mut S, &mut Meter),
    census: impl Fn(&S) -> Counters,
) -> (Phase, Window) {
    let mut meter = Meter::new(traced);
    let before = census(state);
    let mut window = Window::default();
    let started = Instant::now();
    let mut cut = started;
    while keep_going(started, cfg.seconds, meter.nr_chunks(), census_chunks) {
        for _ in 0..chunk {
            step(state, &mut meter);
        }
        let now = Instant::now();
        meter.cut(nanos(now - cut));
        cut = now;
        if meter.nr_chunks() == census_chunks {
            window = Window {
                ops: meter.attempted(),
                work: census(state).since(&before),
            };
        }
    }
    let wall_ns = nanos(started.elapsed());
    (Phase { meter, wall_ns }, window)
}

/// Runs `round` (which returns its timed nanoseconds) until the wall
/// budget is spent, at least once; each round is one timing chunk.
pub fn run_rounds<R>(
    cfg: &Config,
    traced: bool,
    rounds: &mut Vec<R>,
    mut round: impl FnMut(&mut Meter) -> (R, u64),
) -> Phase {
    let mut meter = Meter::new(traced);
    let started = Instant::now();
    let mut wall_ns = 0;
    while keep_going(started, cfg.seconds, meter.nr_chunks(), 1) {
        let (r, timed_ns) = round(&mut meter);
        meter.cut(timed_ns);
        wall_ns += timed_ns;
        rounds.push(r);
    }
    Phase { meter, wall_ns }
}

/// `every round: <check>` for each check the first round made.
pub fn every_round<R>(
    rounds: &[R],
    checks: impl Fn(&R) -> &[(String, bool)],
) -> Vec<(String, bool)> {
    let Some(first) = rounds.first() else {
        return vec![("at least one round ran".into(), false)];
    };
    checks(first)
        .iter()
        .map(|(name, _)| {
            let all = rounds
                .iter()
                .all(|r| checks(r).iter().any(|(n, ok)| n == name && *ok));
            (format!("every round: {name}"), all)
        })
        .collect()
}

pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The end-to-end set, from the untraced phase.
pub fn end_to_end(
    setup_samples: &[f64],
    phase: &Phase,
    window: &Window,
) -> Vec<(&'static str, f64)> {
    let m = &phase.meter;
    vec![
        ("ops_per_s", m.ops_per_s()),
        ("op_p50_us", m.p50_ns() / 1e3),
        ("op_p99_us", m.p99_ns() / 1e3),
        ("sim_cycles_per_op", window.sim_cycles_per_op()),
        ("peak_rss_mb", host::peak_rss_mb()),
        ("setup_s", median(setup_samples)),
    ]
}

/// The per-layer set: counts from the census window, times from the
/// traced phase (zero when there was none).
pub fn layers(
    window: &Window,
    extras: &Extras,
    untraced: &Phase,
    traced: Option<&Phase>,
) -> Vec<(String, f64)> {
    let per_op = |n: u64| n as f64 / window.ops.max(1) as f64;
    let w = &window.work;
    let mut out: Vec<(String, f64)> = TIMED_SPANS
        .iter()
        .map(|s| {
            (
                format!("{s}.ns"),
                traced.map_or(0.0, |t| t.meter.mean_ns(s)),
            )
        })
        .collect();
    let r = &extras.repl;
    out.extend(
        [
            ("monitor.granted_per_op", per_op(w.granted)),
            ("monitor.denied_per_op", per_op(w.denied)),
            ("subsystem.logins", w.logins as f64),
            ("fs.acl_checks_per_op", per_op(w.acl_checks)),
            ("fs.kst_lookups_per_op", per_op(w.kst_lookups)),
            (
                "fs.probes_per_lookup",
                w.probes as f64 / w.lookups.max(1) as f64,
            ),
            ("fs.acl_work_per_eval", extras.acl_work_per_eval),
            ("vm.faults_per_op", per_op(w.faults)),
            ("vm.evictions_per_op", per_op(w.evictions)),
            ("hw.ring_crossings_per_op", per_op(w.ring_crossings)),
            ("trace.records_per_op", per_op(w.trace_kept)),
            ("trace.ring_dropped_per_op", per_op(w.ring_dropped)),
            ("audit.records_per_op", per_op(w.audit_records)),
            ("wire.bytes_per_commit", extras.wire_bytes_per_commit),
            ("replicate.frames_per_commit", r.frames_per_commit),
            ("replicate.resends_per_commit", r.resends_per_commit),
            ("replicate.retries_per_commit", r.retries_per_commit),
            ("replicate.catchups", r.catchups),
            ("replicate.promotions", r.promotions),
            ("replicate.ack_ticks_p50", r.ack_ticks_p50),
            ("replicate.ack_ticks_p99", r.ack_ticks_p99),
            ("replicate.unavailable_ticks", r.unavailable_ticks),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v)),
    );
    let (unattributed, overhead) = traced.map_or((0.0, 0.0), |t| {
        let harness_ns = t.wall_ns.saturating_sub(t.meter.root_ns()) as f64;
        (
            harness_ns / t.meter.attempted().max(1) as f64,
            untraced.meter.ops_per_s() / t.meter.ops_per_s() - 1.0,
        )
    });
    out.push(("harness.unattributed.ns_per_op".into(), unattributed));
    out.push(("harness.trace_overhead".into(), overhead));
    out
}

/// What a workload hands over once its phases ran and its checks were
/// made; [`Measured::report`] turns it into the metric sets.
pub struct Measured {
    pub setup_samples: Vec<f64>,
    pub untraced: Phase,
    pub window: Window,
    pub traced: Option<Phase>,
    pub extras: Extras,
    pub checks: Vec<(String, bool)>,
    pub sizes: Vec<(&'static str, Json)>,
}

impl Measured {
    pub fn report(self) -> Report {
        let phases = || std::iter::once(&self.untraced).chain(self.traced.as_ref());
        let mut sizes = self.sizes.clone();
        sizes.push(("census_ops", Json::from(self.window.ops)));
        sizes.push(("timed_ops", Json::from(self.untraced.meter.attempted())));
        sizes.push(("setup_runs", Json::from(self.setup_samples.len() as u64)));
        Report {
            e2e: end_to_end(&self.setup_samples, &self.untraced, &self.window),
            layers: layers(
                &self.window,
                &self.extras,
                &self.untraced,
                self.traced.as_ref(),
            ),
            checks: self.checks.clone(),
            attempted: phases().map(|p| p.meter.attempted()).sum(),
            failed: phases().map(|p| p.meter.failed()).sum(),
            latency_samples: self.untraced.meter.samples(),
            sizes,
            trace: self.traced.as_ref().map(trace_json),
        }
    }
}

/// The traced phase's ledger plus its reconciliation: Σ span self time
/// + unattributed harness time against the phase wall.
pub fn trace_json(traced: &Phase) -> Json {
    let m = &traced.meter;
    let spans = m.self_ns_total();
    let unattributed = traced.wall_ns.saturating_sub(m.root_ns());
    let sum = spans + unattributed;
    let error = (sum as f64 - traced.wall_ns as f64).abs() / traced.wall_ns.max(1) as f64;
    obj([
        ("ops", Json::from(m.attempted())),
        (
            "reconciliation",
            obj([
                ("phase_wall_ns", Json::from(traced.wall_ns)),
                ("span_self_ns", Json::from(spans)),
                ("unattributed_ns", Json::from(unattributed)),
                ("sum_ns", Json::from(sum)),
                ("relative_error", Json::from(error)),
            ]),
        ),
        ("ledger", m.ledger_json()),
    ])
}
