//! E17 — the kernel observatory: streaming audit analytics, quantile
//! profiling, and anomaly surveillance at scale.
//!
//! Schroeder's *review* activity presumes somebody is watching: "a list
//! of all known Multics security flaws is maintained", and the kernel's
//! audit machinery exists so that misuse leaves a record someone can
//! act on. This experiment drives the observability stack added on top
//! of the flight recorder — per-(layer, op, class) quantile sketches
//! with exemplars, deterministic head sampling with an always-keep rule
//! for security-critical records, and the streaming observatory
//! (sliding per-principal denial windows, heavy-hitter sketches, typed
//! surveillance alerts) — and machine-checks its contract:
//!
//! * **overhead parity** — the observability machinery spends *zero
//!   simulated cycles*: a workload run with aggressive sampling and one
//!   that keeps every record burn identical clocks;
//! * **bounded-error profiling** — every quantile estimate sits at or
//!   below the exact order statistic, within the documented
//!   `1/SUBBUCKETS` relative bound, and tail exemplars carry the
//!   responsible principal;
//! * **surveillance** — a denial storm from a probing principal raises
//!   a `denial_burst` alert naming the prober; a scribbled label found
//!   by the salvager raises a `label_raise` alert; and a sweep of 100+
//!   quiet seeds raises *nothing*;
//! * **read-only export** — all of it reaches the user ring only as a
//!   serialized copy through the pre-existing `hcs_$metering_get` gate
//!   (the gate census does not move), and the export JSON round-trips
//!   losslessly.

use std::collections::BTreeMap;
use std::fmt::Write;

use mks_fs::{Acl, AclMode, DirMode, FileSystem, TearMode, UserId};
use mks_hw::{RingBrackets, SplitMix64, Word};
use mks_kernel::world::{admin_user, System, SystemSize};
use mks_kernel::{KernelConfig, Monitor};
use mks_mls::Label;
use mks_trace::quantile::SUBBUCKETS;
use mks_trace::{AlertKind, QuantileSketch, SamplePolicy, Snapshot, TopK};

use super::ExperimentOutput;
use crate::claims::{ClaimResult, ClaimShape};
use crate::report::{banner, Table};

const QUOTE: &str =
    "review: a list of all known Multics security flaws is maintained ... the audit machinery exists so misuse leaves a record";

/// Mixed-load principals in the surveillance workload.
const LOAD_PRINCIPALS: usize = 4;

/// Rounds of interleaved load (each principal one op per round, plus
/// one probe from the stranger).
const LOAD_ROUNDS: u64 = 24;

/// Back-to-back denied probes in the storm phase.
const STORM_PROBES: u64 = 32;

/// Routine-record sampling rate for the sampled run (keep 1 in 16).
const SAMPLE_RATE: u64 = 16;

/// Observations in each synthetic accuracy probe.
const PROBE_STREAM: u64 = 20_000;

/// Quiet-seed sweep default; `MKS_SWEEP_SEEDS` overrides.
const QUIET_SEEDS_DEFAULT: u64 = 120;

/// One surveillance workload run, observed.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Routine-record sampling rate the run used.
    pub keep_one_in: u64,
    /// Simulated cycles the workload consumed (before export).
    pub cycles: u64,
    /// Mixed-load operations that completed.
    pub completed: u64,
    /// Trace records actually appended to the ring (kept + forced).
    pub appended: u64,
    /// Security-critical records kept unconditionally.
    pub forced: u64,
    /// Denials the observatory tallied.
    pub denials: u64,
    /// `denial_burst` alerts in the registry.
    pub burst_alerts: u64,
    /// `label_raise` alerts in the registry.
    pub label_raise_alerts: u64,
    /// Whether the probing stranger tops the noisy-principal sketch
    /// *and* is the principal named by the first burst alert.
    pub storm_attributed: bool,
    /// Profiled monitor sketches in the snapshot.
    pub monitor_sketches: u64,
    /// Of which at least one exemplar names a principal.
    pub attributed_sketches: u64,
    /// Alerts seen through `hcs_$metering_get` equal the recorder's.
    pub alerts_via_gate: bool,
    /// The export JSON survives parse∘emit byte-identically.
    pub roundtrip_exact: bool,
    /// Quantiles, alerts, heavy hitters and exemplars all non-empty in
    /// the parsed export.
    pub sections_nonempty: bool,
    /// User-available gate entries (the census must not move).
    pub gate_census: u64,
}

/// The synthetic quantile-accuracy probe.
#[derive(Debug, Clone)]
pub struct QuantileProbe {
    /// `(permille, exact order statistic, sketch estimate)` rows.
    pub points: Vec<(u64, u64, u64)>,
    /// Largest relative error `(exact - est) / exact` over the rows.
    pub max_rel_err: f64,
    /// Estimates that exceeded the exact order statistic (must be 0).
    pub overestimates: u64,
}

/// The synthetic heavy-hitter probe.
#[derive(Debug, Clone)]
pub struct HeavyHitterProbe {
    /// Stream length.
    pub stream: u64,
    /// Sketch capacity (`k` in the `N/k` bound).
    pub capacity: u64,
    /// True heavy keys present in the sketch (of 4 planted).
    pub heavies_found: u64,
    /// Largest overestimate, scaled by `k / N` (theory bounds it ≤ 1).
    pub max_err_ratio: f64,
}

/// The campaign's observations.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The storm workload with every record kept.
    pub baseline: WorkloadRun,
    /// The identical workload keeping 1 in [`SAMPLE_RATE`] routine records.
    pub sampled: WorkloadRun,
    /// Quantile accuracy vs an exact sorted shadow.
    pub quantiles: QuantileProbe,
    /// Space-saving accuracy vs exact counts.
    pub heavy_hitters: HeavyHitterProbe,
    /// Quiet seeds swept.
    pub quiet_seeds: u64,
    /// Denial-burst alerts across the quiet sweep (must be 0).
    pub quiet_false_alarms: u64,
    /// Denials the quiet sweep did produce (the sweep is not vacuous).
    pub quiet_denials: u64,
}

fn load_user(i: usize) -> UserId {
    UserId::new(&format!("Load{i}"), "Traffic", "a")
}

fn stranger_user() -> UserId {
    UserId::new("Stranger", "Probe", "a")
}

/// Drives the surveillance workload: mixed permitted traffic from
/// [`LOAD_PRINCIPALS`] principals, a probing stranger denied at every
/// attempt, a storm of back-to-back probes, and a scribbled directory
/// label repaired by the salvager — then exports through the metering
/// gate and audits the export itself.
fn run_workload(keep_one_in: u64) -> WorkloadRun {
    let mut sys = System::with_size(
        KernelConfig::kernel(),
        SystemSize {
            frames: 32,
            bulk_records: 64,
            cpu: mks_hw::CpuModel::H6180,
            ..SystemSize::default()
        },
    );
    let trace = sys.world.vm.machine.trace.clone();
    trace.set_sampling(SamplePolicy {
        keep_one_in,
        seed: 0xe17,
    });

    // Provisioning: one home per load principal; a vault whose secret
    // only the administrator may touch.
    let admin = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
    let aroot = sys.world.bind_root(admin);
    let mut pids = Vec::new();
    let mut homes = Vec::new();
    let mut probes: Vec<Option<mks_hw::SegNo>> = vec![None; LOAD_PRINCIPALS];
    for i in 0..LOAD_PRINCIPALS {
        let name = format!("h{i}");
        Monitor::create_directory(&mut sys.world, admin, aroot, &name, Label::BOTTOM)
            .expect("home directory creates on a fresh system");
        sys.world
            .fs
            .set_dir_acl_entry(
                FileSystem::ROOT,
                &name,
                &admin_user(),
                &load_user(i).to_acl_string(),
                DirMode::SMA,
            )
            .expect("home ACL grant");
        let pid = sys.world.create_process(load_user(i), Label::BOTTOM, 4);
        let root = sys.world.bind_root(pid);
        homes.push(Monitor::initiate_dir(&mut sys.world, pid, root, &name));
        pids.push(pid);
    }
    Monitor::create_directory(&mut sys.world, admin, aroot, "vault", Label::BOTTOM)
        .expect("vault creates");
    let avault = Monitor::initiate_dir(&mut sys.world, admin, aroot, "vault");
    Monitor::create_segment(
        &mut sys.world,
        admin,
        avault,
        "secret",
        Acl::of(&admin_user().to_acl_string(), AclMode::RW),
        RingBrackets::new(4, 4, 4),
        Label::BOTTOM,
    )
    .expect("secret creates");
    let stranger = sys.world.create_process(stranger_user(), Label::BOTTOM, 4);
    let sroot = sys.world.bind_root(stranger);
    let svault = Monitor::initiate_dir(&mut sys.world, stranger, sroot, "vault");

    // Mixed load with one stranger probe per round (sparse denials).
    let mut rng = SplitMix64::new(0xe17);
    let mut completed = 0u64;
    for op in 0..LOAD_ROUNDS {
        for (i, &pid) in pids.iter().enumerate() {
            let ok = match rng.below(5) {
                0 | 1 => match probes[i] {
                    Some(seg) => {
                        let off =
                            (rng.below(4) * mks_hw::PAGE_WORDS as u64 + rng.below(64)) as usize;
                        Monitor::write(&mut sys.world, pid, seg, off, Word::new(op + 1)).is_ok()
                    }
                    None => {
                        let r = Monitor::create_segment(
                            &mut sys.world,
                            pid,
                            homes[i],
                            &format!("probe{i}"),
                            Acl::of("*.*.*", AclMode::RW),
                            RingBrackets::new(4, 4, 4),
                            Label::BOTTOM,
                        );
                        probes[i] = r.as_ref().ok().copied();
                        r.is_ok()
                    }
                },
                2 => match probes[i] {
                    Some(seg) => {
                        Monitor::read(&mut sys.world, pid, seg, rng.below(64) as usize).is_ok()
                    }
                    None => false,
                },
                3 => Monitor::list_dir(&mut sys.world, pid, homes[i]).is_ok(),
                _ => Monitor::call_gate(&mut sys.world, pid, "hcs_", "metering_get").is_ok(),
            };
            if ok {
                completed += 1;
            }
        }
        // The stranger keeps probing the vault; every attempt is denied
        // and audited (sparse enough here not to trip the window).
        let _ = Monitor::initiate(&mut sys.world, stranger, svault, "secret");
    }

    // The storm: back-to-back denied probes, tight on the clock — the
    // signature the burst detector exists for.
    for _ in 0..STORM_PROBES {
        let _ = Monitor::initiate(&mut sys.world, stranger, svault, "secret");
    }

    // Damage one home's label and let the salvager repair it: every
    // upward label move must surface as a `label_raise` alert.
    let h0_uid = sys
        .world
        .fs
        .peek_branch(FileSystem::ROOT, "h0")
        .expect("h0 exists")
        .uid;
    sys.world
        .fs
        .apply_tear(h0_uid, h0_uid, TearMode::ScribbleDirLabel);
    sys.world.fs.salvage();

    // Measure the workload clock *before* export traffic.
    let cycles = sys.world.vm.machine.clock.now();
    let sampler = trace.sampler_stats();
    let (denials, burst_alerts, label_raise_alerts, storm_attributed) =
        trace.read_observatory(|o| {
            let alerts = o.alerts();
            let bursts: Vec<_> = alerts
                .iter()
                .filter(|a| a.kind == AlertKind::DenialBurst)
                .collect();
            let raises = alerts
                .iter()
                .filter(|a| a.kind == AlertKind::LabelRaise)
                .count() as u64;
            let noisiest = o.noisy_principals().ranked().first().map(|h| h.key.clone());
            let who = stranger_user().to_acl_string();
            let attributed = noisiest.as_deref() == Some(who.as_str())
                && bursts
                    .first()
                    .is_some_and(|a| a.principal.as_deref() == Some(who.as_str()));
            (o.totals().denials, bursts.len() as u64, raises, attributed)
        });

    // Export through the gate, from the *stranger's* user ring: the
    // surveillance state watching the stranger is readable, as a copy,
    // by anyone — and only as a copy.
    let json =
        Monitor::metering_snapshot(&mut sys.world, stranger).expect("metering gate is user-ring");
    let parsed = Snapshot::from_json(&json).expect("export parses");
    let roundtrip_exact = parsed.to_json() == json;
    let alerts_via_gate = parsed.observatory.alerts == trace.alerts();
    let monitor_sketches = parsed
        .quantiles
        .iter()
        .filter(|q| q.name.starts_with("q.monitor."))
        .count() as u64;
    let attributed_sketches = parsed
        .quantiles
        .iter()
        .filter(|q| {
            q.name.starts_with("q.monitor.") && q.exemplars.iter().any(|e| e.principal.is_some())
        })
        .count() as u64;
    let sections_nonempty = !parsed.quantiles.is_empty()
        && !parsed.observatory.alerts.is_empty()
        && !parsed.observatory.noisy_principals.entries.is_empty()
        && parsed.quantiles.iter().any(|q| !q.exemplars.is_empty());

    WorkloadRun {
        keep_one_in,
        cycles,
        completed,
        appended: sampler.kept + sampler.forced,
        forced: sampler.forced,
        denials,
        burst_alerts,
        label_raise_alerts,
        storm_attributed,
        monitor_sketches,
        attributed_sketches,
        alerts_via_gate,
        roundtrip_exact,
        sections_nonempty,
        gate_census: sys.world.gates.user_available_entries() as u64,
    }
}

/// Streams a mixed body-plus-tail distribution through a sketch and an
/// exact sorted shadow, and compares the estimated quantiles.
fn probe_quantiles() -> QuantileProbe {
    let mut sketch = QuantileSketch::new(0xe17);
    let mut exact: Vec<u64> = Vec::with_capacity(PROBE_STREAM as usize);
    let mut rng = SplitMix64::new(0x0b5e_41a7);
    for at in 0..PROBE_STREAM {
        // 90% short operations, 10% a long heavy tail — the shape that
        // makes factor-of-two buckets useless and sub-buckets earn rent.
        let v = if rng.below(10) < 9 {
            rng.below(50_000)
        } else {
            200_000 + rng.below(2_000_000)
        };
        sketch.observe(v, at, Some("Load0.Traffic.a"), "probe");
        exact.push(v);
    }
    exact.sort_unstable();
    let n = exact.len() as u64;
    let mut points = Vec::new();
    let mut max_rel_err = 0.0f64;
    let mut overestimates = 0u64;
    for permille in [500u64, 950, 990, 999] {
        let rank = ((permille * n).div_ceil(1000)).clamp(1, n) as usize - 1;
        let v = exact[rank];
        let est = sketch.quantile(permille);
        if est > v {
            overestimates += 1;
        } else if v > 0 {
            max_rel_err = max_rel_err.max((v - est) as f64 / v as f64);
        }
        points.push((permille, v, est));
    }
    QuantileProbe {
        points,
        max_rel_err,
        overestimates,
    }
}

/// Streams a skewed key distribution through a [`TopK`] and an exact
/// counter, and checks the space-saving guarantees.
fn probe_heavy_hitters() -> HeavyHitterProbe {
    let capacity = 16usize;
    let mut sketch = TopK::new(capacity);
    let mut truth: BTreeMap<String, u64> = BTreeMap::new();
    let mut rng = SplitMix64::new(0x7074);
    for _ in 0..PROBE_STREAM {
        // 60% of traffic concentrates on 4 heavy keys; the rest spreads
        // over 400 noise keys that must not displace them.
        let key = if rng.below(10) < 6 {
            format!("heavy{}", rng.below(4))
        } else {
            format!("noise{}", rng.below(400))
        };
        sketch.record(&key, 1);
        *truth.entry(key).or_default() += 1;
    }
    let ranked = sketch.ranked();
    let heavies_found = (0..4)
        .filter(|i| ranked.iter().any(|h| h.key == format!("heavy{i}")))
        .count() as u64;
    let max_err_ratio = ranked
        .iter()
        .map(|h| {
            let over = h.count - truth.get(&h.key).copied().unwrap_or(0);
            over as f64 * capacity as f64 / PROBE_STREAM as f64
        })
        .fold(0.0f64, f64::max);
    HeavyHitterProbe {
        stream: PROBE_STREAM,
        capacity: capacity as u64,
        heavies_found,
        max_err_ratio,
    }
}

/// One quiet run: benign mixed traffic with occasional, well-spaced
/// denials. Returns `(denial_burst alerts, denials produced)`.
fn run_quiet(seed: u64) -> (u64, u64) {
    let mut sys = System::with_size(
        KernelConfig::kernel(),
        SystemSize {
            frames: 16,
            bulk_records: 32,
            cpu: mks_hw::CpuModel::H6180,
            ..SystemSize::default()
        },
    );
    let admin = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
    let aroot = sys.world.bind_root(admin);
    let mut pids = Vec::new();
    let mut homes = Vec::new();
    let mut segs: Vec<Option<mks_hw::SegNo>> = vec![None; 2];
    for i in 0..2usize {
        let name = format!("q{i}");
        Monitor::create_directory(&mut sys.world, admin, aroot, &name, Label::BOTTOM)
            .expect("quiet home creates");
        sys.world
            .fs
            .set_dir_acl_entry(
                FileSystem::ROOT,
                &name,
                &admin_user(),
                &load_user(i).to_acl_string(),
                DirMode::SMA,
            )
            .expect("quiet home ACL grant");
        let pid = sys.world.create_process(load_user(i), Label::BOTTOM, 4);
        let root = sys.world.bind_root(pid);
        homes.push(Monitor::initiate_dir(&mut sys.world, pid, root, &name));
        pids.push(pid);
    }
    let mut rng = SplitMix64::new(0x9_1e7 ^ seed);
    for op in 0..20u64 {
        for (i, &pid) in pids.iter().enumerate() {
            match rng.below(8) {
                0 => {
                    // The occasional fat-fingered access: a denial, but
                    // nowhere near burst density.
                    let _ = Monitor::initiate(&mut sys.world, pid, homes[i], "no_such_seg");
                }
                1 | 2 => match segs[i] {
                    Some(seg) => {
                        let _ = Monitor::read(&mut sys.world, pid, seg, rng.below(64) as usize);
                    }
                    None => {
                        segs[i] = Monitor::create_segment(
                            &mut sys.world,
                            pid,
                            homes[i],
                            &format!("s{i}"),
                            Acl::of("*.*.*", AclMode::RW),
                            RingBrackets::new(4, 4, 4),
                            Label::BOTTOM,
                        )
                        .ok();
                    }
                },
                3 | 4 => match segs[i] {
                    Some(seg) => {
                        let _ = Monitor::write(
                            &mut sys.world,
                            pid,
                            seg,
                            rng.below(64) as usize,
                            Word::new(op + 1),
                        );
                    }
                    None => {
                        let _ = Monitor::list_dir(&mut sys.world, pid, homes[i]);
                    }
                },
                _ => {
                    let _ = Monitor::list_dir(&mut sys.world, pid, homes[i]);
                }
            }
        }
    }
    let trace = &sys.world.vm.machine.trace;
    let bursts = trace
        .alerts()
        .iter()
        .filter(|a| a.kind == AlertKind::DenialBurst)
        .count() as u64;
    let denials = trace.read_observatory(|o| o.totals().denials);
    (bursts, denials)
}

/// Runs the workload pair, the accuracy probes, and the quiet sweep.
pub fn measure() -> Measurement {
    let baseline = run_workload(1);
    let sampled = run_workload(SAMPLE_RATE);
    let quantiles = probe_quantiles();
    let heavy_hitters = probe_heavy_hitters();
    let quiet_seeds = crate::sweep_seeds(QUIET_SEEDS_DEFAULT);
    let mut quiet_false_alarms = 0u64;
    let mut quiet_denials = 0u64;
    for seed in 1..=quiet_seeds {
        let (bursts, denials) = run_quiet(seed);
        quiet_false_alarms += bursts;
        quiet_denials += denials;
    }
    Measurement {
        baseline,
        sampled,
        quantiles,
        heavy_hitters,
        quiet_seeds,
        quiet_false_alarms,
        quiet_denials,
    }
}

/// Renders the experiment's report.
pub fn report(m: &Measurement) -> String {
    let mut out = banner("E17: the kernel observatory", &format!("\"{QUOTE}\""));
    let mut t = Table::new(&[
        "run",
        "keep 1/N",
        "cycles",
        "completed",
        "ring records",
        "forced",
        "denials",
        "burst alerts",
    ]);
    for r in [&m.baseline, &m.sampled] {
        t.row(&[
            if r.keep_one_in == 1 {
                "baseline".into()
            } else {
                "sampled".into()
            },
            r.keep_one_in.to_string(),
            r.cycles.to_string(),
            r.completed.to_string(),
            r.appended.to_string(),
            r.forced.to_string(),
            r.denials.to_string(),
            r.burst_alerts.to_string(),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "parity: sampling 1-in-{} thinned the ring {} -> {} records while the",
        SAMPLE_RATE, m.baseline.appended, m.sampled.appended,
    )
    .unwrap();
    writeln!(
        out,
        "clock moved identically ({} vs {} cycles) and the observatory's denial",
        m.baseline.cycles, m.sampled.cycles,
    )
    .unwrap();
    writeln!(
        out,
        "count held exactly ({} vs {}) — analytics run before the sampler.",
        m.baseline.denials, m.sampled.denials,
    )
    .unwrap();
    writeln!(out).unwrap();
    let mut t = Table::new(&["quantile", "exact", "estimate", "rel err"]);
    for &(permille, exact, est) in &m.quantiles.points {
        t.row(&[
            format!("p{permille}"),
            exact.to_string(),
            est.to_string(),
            if exact == 0 {
                "0".into()
            } else {
                format!("{:.4}", (exact.saturating_sub(est)) as f64 / exact as f64)
            },
        ]);
    }
    out.push_str(&t.render());
    writeln!(out).unwrap();
    writeln!(
        out,
        "profiling: max relative error {:.4} (bound 1/{SUBBUCKETS} = {:.4}), {} overestimates;",
        m.quantiles.max_rel_err,
        1.0 / SUBBUCKETS as f64,
        m.quantiles.overestimates,
    )
    .unwrap();
    writeln!(
        out,
        "{} of {} profiled monitor sketches carry principal-attributed exemplars.",
        m.baseline.attributed_sketches, m.baseline.monitor_sketches,
    )
    .unwrap();
    writeln!(
        out,
        "heavy hitters: {}/4 planted keys found in a k={} sketch over {} events,",
        m.heavy_hitters.heavies_found, m.heavy_hitters.capacity, m.heavy_hitters.stream,
    )
    .unwrap();
    writeln!(
        out,
        "worst overestimate {:.3} of the N/k bound.",
        m.heavy_hitters.max_err_ratio,
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "surveillance: the storm raised {} burst alert(s) naming the prober ({}),",
        m.baseline.burst_alerts,
        if m.baseline.storm_attributed {
            "attributed"
        } else {
            "UNATTRIBUTED"
        },
    )
    .unwrap();
    writeln!(
        out,
        "the scribbled label raised {} label_raise alert(s), and {} quiet seeds",
        m.baseline.label_raise_alerts, m.quiet_seeds,
    )
    .unwrap();
    writeln!(
        out,
        "({} sparse denials among them) raised {} false alarms.",
        m.quiet_denials, m.quiet_false_alarms,
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "export: hcs_$metering_get round-trip exact: {}; alerts visible via the",
        m.baseline.roundtrip_exact,
    )
    .unwrap();
    writeln!(
        out,
        "gate: {}; user-available gate census: {} (unchanged — surveillance",
        m.baseline.alerts_via_gate, m.baseline.gate_census,
    )
    .unwrap();
    writeln!(out, "added state, not attack surface).").unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "Consequence: the kernel can watch itself being probed — bounded"
    )
    .unwrap();
    writeln!(
        out,
        "sketches instead of unbounded logs, alerts instead of grep, and"
    )
    .unwrap();
    writeln!(
        out,
        "all of it behind the same read-only gate the metering always used."
    )
    .unwrap();
    out
}

/// The observatory's expectations over the measurement.
pub fn claims(m: &Measurement) -> Vec<ClaimResult> {
    vec![
        ClaimResult::new(
            "E17.overhead-parity",
            "E17",
            QUOTE,
            ClaimShape::ParityWithin { tolerance: 0.01 },
            m.sampled.cycles as f64 / m.baseline.cycles.max(1) as f64,
            "workload cycles with 1-in-16 sampling relative to keeping every record",
        ),
        ClaimResult::new(
            "E17.sampling-thins-routine",
            "E17",
            QUOTE,
            ClaimShape::AtMost { max: 0.5 },
            m.sampled.appended as f64 / m.baseline.appended.max(1) as f64,
            "ring records appended under sampling relative to the unsampled run",
        ),
        ClaimResult::new(
            "E17.criticals-always-kept",
            "E17",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            m.sampled.forced as f64,
            "security-critical records kept unconditionally in the sampled run",
        ),
        ClaimResult::new(
            "E17.analytics-precede-sampling",
            "E17",
            QUOTE,
            ClaimShape::ParityWithin { tolerance: 0.0 },
            m.sampled.denials as f64 / m.baseline.denials.max(1) as f64,
            "observatory denial tally under sampling relative to the unsampled run (exact)",
        ),
        ClaimResult::new(
            "E17.quantile-rank-error",
            "E17",
            QUOTE,
            ClaimShape::AtMost {
                max: 1.0 / SUBBUCKETS as f64,
            },
            m.quantiles.max_rel_err,
            "largest relative error of p50/p95/p99/p999 vs the exact sorted shadow",
        ),
        ClaimResult::new(
            "E17.quantile-never-overestimates",
            "E17",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            m.quantiles.overestimates as f64,
            "quantile estimates exceeding the exact order statistic",
        ),
        ClaimResult::new(
            "E17.exemplars-attributed",
            "E17",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            m.baseline.attributed_sketches as f64,
            "profiled monitor sketches whose tail exemplars name a principal",
        ),
        ClaimResult::new(
            "E17.heavy-hitters-found",
            "E17",
            QUOTE,
            ClaimShape::ExactCount { expect: 4 },
            m.heavy_hitters.heavies_found as f64,
            "planted heavy keys surviving 400 noise keys in a k=16 sketch",
        ),
        ClaimResult::new(
            "E17.heavy-hitter-error-bound",
            "E17",
            QUOTE,
            ClaimShape::AtMost { max: 1.0 },
            m.heavy_hitters.max_err_ratio,
            "largest count overestimate as a fraction of the N/k space-saving bound",
        ),
        ClaimResult::new(
            "E17.storm-detected",
            "E17",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            m.baseline.burst_alerts as f64,
            "denial_burst alerts raised by the probing storm",
        ),
        ClaimResult::new(
            "E17.storm-attributed",
            "E17",
            QUOTE,
            ClaimShape::ExactCount { expect: 1 },
            u64::from(m.baseline.storm_attributed) as f64,
            "the prober tops the noisy-principal sketch and is named by the alert",
        ),
        ClaimResult::new(
            "E17.quiet-seeds-silent",
            "E17",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            m.quiet_false_alarms as f64,
            "denial_burst alerts across the quiet-seed sweep (false alarms)",
        ),
        ClaimResult::new(
            "E17.quiet-sweep-covered",
            "E17",
            QUOTE,
            ClaimShape::AtLeast { min: 100.0 },
            m.quiet_seeds as f64,
            "quiet seeds swept (MKS_SWEEP_SEEDS can raise, default 120)",
        ),
        ClaimResult::new(
            "E17.label-raise-alerted",
            "E17",
            QUOTE,
            ClaimShape::AtLeast { min: 1.0 },
            m.baseline.label_raise_alerts as f64,
            "label_raise alerts after the salvager repaired a scribbled label",
        ),
        ClaimResult::new(
            "E17.export-lossless",
            "E17",
            QUOTE,
            ClaimShape::ExactCount { expect: 0 },
            (u64::from(!m.baseline.roundtrip_exact) + u64::from(!m.baseline.sections_nonempty))
                as f64,
            "export defects: parse-emit mismatches plus empty observability sections",
        ),
        ClaimResult::new(
            "E17.read-only-gate-export",
            "E17",
            QUOTE,
            ClaimShape::ExactCount { expect: 1 },
            u64::from(m.baseline.alerts_via_gate) as f64,
            "alert registry readable through hcs_$metering_get, byte-equal to the recorder's",
        ),
        ClaimResult::new(
            "E17.no-new-gates",
            "E17",
            QUOTE,
            ClaimShape::ExactCount { expect: 54 },
            m.baseline.gate_census as f64,
            "user-available gate entries with the observatory wired in",
        ),
    ]
}

/// Measurement + report + claims (+ the accuracy CSV artifact).
pub fn run() -> ExperimentOutput {
    let m = measure();
    let mut out = ExperimentOutput::new(report(&m), claims(&m));
    let mut lines = String::from("metric,value\n");
    writeln!(lines, "baseline_cycles,{}", m.baseline.cycles).unwrap();
    writeln!(lines, "sampled_cycles,{}", m.sampled.cycles).unwrap();
    writeln!(lines, "baseline_ring_records,{}", m.baseline.appended).unwrap();
    writeln!(lines, "sampled_ring_records,{}", m.sampled.appended).unwrap();
    writeln!(lines, "sampled_forced,{}", m.sampled.forced).unwrap();
    writeln!(lines, "burst_alerts,{}", m.baseline.burst_alerts).unwrap();
    writeln!(
        lines,
        "label_raise_alerts,{}",
        m.baseline.label_raise_alerts
    )
    .unwrap();
    writeln!(lines, "quiet_seeds,{}", m.quiet_seeds).unwrap();
    writeln!(lines, "quiet_false_alarms,{}", m.quiet_false_alarms).unwrap();
    writeln!(lines, "quantile_max_rel_err,{:.6}", m.quantiles.max_rel_err).unwrap();
    writeln!(
        lines,
        "hh_max_err_ratio,{:.6}",
        m.heavy_hitters.max_err_ratio
    )
    .unwrap();
    for &(permille, exact, est) in &m.quantiles.points {
        writeln!(lines, "p{permille}_exact,{exact}").unwrap();
        writeln!(lines, "p{permille}_estimate,{est}").unwrap();
    }
    out.artifacts
        .push(("e17_observatory_accuracy.csv".to_string(), lines));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_runs_are_deterministic() {
        let a = run_workload(1);
        let b = run_workload(1);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.appended, b.appended);
        assert_eq!(a.burst_alerts, b.burst_alerts);
    }

    #[test]
    fn sampling_changes_the_ring_but_not_the_clock_or_the_analytics() {
        let full = run_workload(1);
        let thin = run_workload(SAMPLE_RATE);
        assert_eq!(full.cycles, thin.cycles, "sampling must cost zero cycles");
        assert_eq!(full.denials, thin.denials, "analytics precede sampling");
        assert!(thin.appended < full.appended, "{thin:?}");
        assert!(thin.forced >= 1, "criticals survive sampling");
    }

    #[test]
    fn the_storm_is_detected_and_exported() {
        let r = run_workload(1);
        assert!(r.burst_alerts >= 1, "{r:?}");
        assert!(r.label_raise_alerts >= 1, "{r:?}");
        assert!(r.storm_attributed, "{r:?}");
        assert!(r.roundtrip_exact && r.alerts_via_gate, "{r:?}");
        assert_eq!(r.gate_census, 54);
    }

    #[test]
    fn quiet_runs_raise_no_alarms() {
        for seed in 1..=5 {
            let (bursts, _) = run_quiet(seed);
            assert_eq!(bursts, 0, "seed {seed}");
        }
    }
}
