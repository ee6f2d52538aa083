//! Host-time measurement of the E18 hot paths and the perf-regression
//! gate CI runs over it.
//!
//! The simulated clock in [`crate::scale`] answers "does mediation cost
//! grow with the population?" in model cycles; this module answers the
//! operational question — how many host nanoseconds each hot path
//! costs, and whether a change regressed them. The `bench_e18` binary
//! measures, writes a machine-readable report, and (when a committed
//! baseline exists at `results/BENCH_E18.json`) fails if any path got
//! more than [`tolerance_from_env`] slower.
//!
//! Timings take the **minimum over rounds**: the minimum is the run
//! least disturbed by the host, which is the right estimator when the
//! quantity measured is deterministic work. Rounds are **interleaved**
//! across the paths (round-robin, not path-by-path), so one path's
//! rounds span the whole measurement window instead of a single burst
//! — host noise tends to arrive in multi-second phases, and a burst of
//! consecutive rounds can sit entirely inside one.
//!
//! The gate fails a path only when it regressed **every** way: in raw
//! nanoseconds *and* relative to two calibration workloads — a
//! dependent pointer-chase (a memory-latency yardstick) and a
//! register-only integer scramble (a core-clock yardstick). The two
//! noise modes a shared host exhibits move different yardsticks: cache
//! and memory-bus contention moves the pointer-chase, frequency
//! scaling and CPU steal move the scramble; either way the affected
//! paths and the matching yardstick shift together and the gate stays
//! quiet. A real regression — the only case where the gate should
//! fire — moves the paths and *neither* yardstick.
//!
//! # The parallel section (E19)
//!
//! Two additions guard the multiprocessor work. First, two extra hot
//! paths time the work-stealing traffic controller itself — a balanced
//! tick where every simulated CPU pops locally, and a starved tick
//! where idle CPUs must steal — so the steal fast path sits under the
//! same noise-hardened gate as the E18 paths. Second, a `parallel`
//! report section measures **real host speedup**: the same fleet of
//! independent E18-scale kernel lanes is run on one thread and on
//! `par_threads` threads (each lane world built *inside* its worker —
//! the simulated machine is single-threaded by construction), and the
//! median wall-clock ratio is the speedup. A `calibration_speedup`
//! yardstick — the same lanes filled with pure ALU work — records how
//! much parallelism the host actually has, so a 1-core runner gates
//! against its own honest ceiling instead of an impossible 4x. Speedup
//! is bigger-is-better: the gate fires only when it falls below both
//! the baseline band and the paper bar of 1.5x.

use std::time::Instant;

use mks_hw::{CpuModel, Machine, SegNo};
use mks_kernel::par::run_lanes;
use mks_kernel::world::KProcId;
use mks_kernel::{Commit, CommitLog, Monitor};
use mks_procs::{Effects, FnJob, SchedMode, Step, TcConfig, TrafficController};

use crate::scale::{build_world, run_traffic, PopulationModel};

/// One timed hot path.
#[derive(Clone, Debug)]
pub struct PathTiming {
    /// Stable path name (the JSON key CI compares across commits).
    pub name: &'static str,
    /// Host nanoseconds per operation (minimum over rounds).
    pub ns_per_op: f64,
}

/// The E19 host-parallelism measurement: one fleet of independent
/// kernel lanes, timed sequentially and sharded over threads.
#[derive(Clone, Debug)]
pub struct ParallelTiming {
    /// Independent lane worlds in the fleet.
    pub lanes: usize,
    /// Host threads the parallel arm shards them over.
    pub threads: usize,
    /// Principal population of each lane world (the E18 rung).
    pub population: u64,
    /// Median over rounds of sequential wall / parallel wall.
    pub speedup: f64,
    /// The same ratio for pure ALU lanes — the host's real parallelism
    /// ceiling, which the gate's bar is scaled by.
    pub calibration_speedup: f64,
}

/// A full perf report: per-path timings plus the scaling slope.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Population of the world the paths were timed on.
    pub population: u64,
    /// The timed hot paths.
    pub paths: Vec<PathTiming>,
    /// Low rung of the slope measurement.
    pub pop_lo: u64,
    /// High rung of the slope measurement.
    pub pop_hi: u64,
    /// ns per mediated op at the low rung (minimum over rounds).
    pub ns_per_op_lo: f64,
    /// ns per mediated op at the high rung (minimum over rounds).
    pub ns_per_op_hi: f64,
    /// The scaling slope: median over rounds of the *same-round*
    /// `hi / lo` ratio. Pairing within a round cancels host-noise
    /// phases (they slow both rungs of the pair together) and the
    /// median discards rounds where noise split a pair unevenly; flat
    /// mediation cost means a slope near 1.0.
    pub slope_over_rounds: f64,
    /// ns per iteration of the memory-latency calibration workload
    /// (dependent pointer-chase) — one of the two machine-speed
    /// yardsticks the gate divides by.
    pub calibration_ns: f64,
    /// ns per iteration of the core-clock calibration workload
    /// (register-only integer scramble) — the other yardstick.
    pub calibration_cpu_ns: f64,
    /// The E19 host-parallel lane measurement.
    pub par: ParallelTiming,
}

impl PerfReport {
    /// The scaling slope (see [`PerfReport::slope_over_rounds`]).
    pub fn slope(&self) -> f64 {
        self.slope_over_rounds
    }
}

/// Measurement scale, so tests can run a miniature of the real thing.
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Population of the hot-path world.
    pub population: u64,
    /// Traffic ops used to warm the world before timing.
    pub warm_ops: u64,
    /// Baseline iteration count for a cheap path (expensive paths
    /// divide this down).
    pub iters: u64,
    /// Timing rounds per path (the minimum is kept).
    pub rounds: u32,
    /// The two populations the slope compares.
    pub slope_pops: (u64, u64),
    /// Mediated ops driven at each slope rung.
    pub slope_ops: u64,
    /// Lane worlds in the E19 parallel fleet.
    pub par_lanes: usize,
    /// Host threads the parallel arm uses.
    pub par_threads: usize,
    /// Principal population of each lane world.
    pub par_population: u64,
    /// Traffic ops each lane drives.
    pub par_ops: u64,
    /// Sequential/parallel timing rounds (the median ratio is kept).
    pub par_rounds: u32,
}

impl PerfConfig {
    /// The configuration CI measures with.
    pub fn standard() -> PerfConfig {
        PerfConfig {
            population: 100_000,
            warm_ops: 20_000,
            iters: 100_000,
            rounds: 9,
            slope_pops: (1_000, 100_000),
            slope_ops: 20_000,
            par_lanes: 4,
            par_threads: 4,
            par_population: 100_000,
            par_ops: 20_000,
            par_rounds: 3,
        }
    }

    /// A miniature for unit tests: same shape, trivial cost.
    pub fn miniature() -> PerfConfig {
        PerfConfig {
            population: 1_000,
            warm_ops: 500,
            iters: 200,
            rounds: 2,
            slope_pops: (200, 1_000),
            slope_ops: 500,
            par_lanes: 2,
            par_threads: 2,
            par_population: 400,
            par_ops: 200,
            par_rounds: 1,
        }
    }
}

/// Times `f` over `iters` iterations, `rounds` times, returning the
/// minimum ns-per-iteration observed.
fn time_path<F: FnMut()>(iters: u64, rounds: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds.max(1) {
        let t0 = Instant::now();
        for _ in 0..iters.max(1) {
            f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters.max(1) as f64;
        best = best.min(ns);
    }
    best
}

/// One splitmix-style scramble step for the calibration workload.
fn calibration_step(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The memory-latency calibration workload: a dependent pointer-chase
/// over an 8 MB table (each load's address comes from the previous
/// load). The hot paths are hash probes and scans — memory work — so
/// when cache or bus contention from a noisy neighbour slows them,
/// this yardstick slows with them. Its blind spot (core-clock shifts,
/// which barely move DRAM latency) is covered by
/// [`cpu_calibration_op`].
struct Calibration {
    table: Vec<u64>,
    cursor: u64,
}

impl Calibration {
    fn new() -> Calibration {
        let table: Vec<u64> = (0..1u64 << 20).map(calibration_step).collect();
        Calibration { table, cursor: 0 }
    }

    /// 32 dependent table loads — one calibration "op".
    fn op(&mut self) {
        let mask = self.table.len() as u64 - 1;
        let mut idx = self.cursor;
        for _ in 0..32 {
            idx = calibration_step(idx ^ self.table[(idx & mask) as usize]);
        }
        self.cursor = std::hint::black_box(idx);
    }
}

/// The core-clock calibration workload: 32 dependent register-only
/// scramble steps. Pure ALU work tracks frequency scaling and CPU
/// steal — the noise mode the pointer-chase cannot see.
fn cpu_calibration_op(cursor: &mut u64) {
    let mut x = *cursor;
    for _ in 0..32 {
        x = calibration_step(x);
    }
    *cursor = std::hint::black_box(x);
}

/// Builds a work-stealing traffic controller over 4 simulated CPUs
/// carrying `jobs` immortal jobs; `yielding` jobs relinquish after
/// every step (the steal-heavy shape), non-yielding ones run out their
/// quantum (the balanced local-pop shape).
fn ws_tc(jobs: usize, yielding: bool) -> (TrafficController<Machine>, Machine) {
    let mut tc: TrafficController<Machine> = TrafficController::new(TcConfig {
        nr_cpus: 4,
        nr_vprocs: jobs + 2,
        quantum: 4,
        sched: SchedMode::WorkStealing { seed: 0xE19 },
    });
    for _ in 0..jobs {
        tc.spawn(Box::new(FnJob::new(
            "hot",
            move |_e: &mut Effects<'_, Machine>| {
                if yielding {
                    Step::Yield
                } else {
                    Step::Continue
                }
            },
        )));
    }
    (tc, Machine::new(CpuModel::H6180, 2))
}

/// Wall nanoseconds of one fleet run: `lanes` E18-scale kernel lanes,
/// each built and driven inside its worker, sharded over `threads`.
fn time_parallel_round(cfg: &PerfConfig, threads: usize, round: u32) -> f64 {
    let t0 = Instant::now();
    let ops = run_lanes(cfg.par_lanes, threads, |lane| {
        let model = PopulationModel::new(cfg.par_population, 0xE19 ^ lane as u64);
        let mut sw = build_world(&model);
        run_traffic(
            &mut sw,
            cfg.par_ops,
            0xE19 ^ (u64::from(round) << 32) ^ lane as u64,
        )
        .ops
    });
    std::hint::black_box(ops);
    t0.elapsed().as_nanos() as f64
}

/// Wall nanoseconds of the calibration fleet: the same lane/thread
/// shape filled with pure ALU work — the host-parallelism yardstick.
fn time_calibration_lanes(lanes: usize, threads: usize, iters: u64) -> f64 {
    let t0 = Instant::now();
    let cursors = run_lanes(lanes, threads, |lane| {
        let mut cursor = 0xE19 ^ lane as u64;
        for _ in 0..iters.max(1) {
            cpu_calibration_op(&mut cursor);
        }
        cursor
    });
    std::hint::black_box(cursors);
    t0.elapsed().as_nanos() as f64
}

/// Median of `ratios` (sorted copy, middle element).
fn median(mut ratios: Vec<f64>) -> f64 {
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Measures the E19 parallel section at `cfg`'s scale.
fn measure_parallel(cfg: &PerfConfig) -> ParallelTiming {
    let threads = cfg.par_threads.max(2);
    let cal_iters = 200_000;
    let mut speedups = Vec::new();
    let mut cal_speedups = Vec::new();
    for round in 0..cfg.par_rounds.max(1) {
        let seq = time_parallel_round(cfg, 1, round);
        let par = time_parallel_round(cfg, threads, round);
        speedups.push(seq / par.max(f64::MIN_POSITIVE));
        let cal_seq = time_calibration_lanes(cfg.par_lanes, 1, cal_iters);
        let cal_par = time_calibration_lanes(cfg.par_lanes, threads, cal_iters);
        cal_speedups.push(cal_seq / cal_par.max(f64::MIN_POSITIVE));
    }
    ParallelTiming {
        lanes: cfg.par_lanes,
        threads,
        population: cfg.par_population,
        speedup: median(speedups),
        calibration_speedup: median(cal_speedups),
    }
}

/// Measures every hot path and the scaling slope at `cfg`'s scale.
///
/// Every round times the calibration and all five paths back to back,
/// and the per-path minimum is kept across rounds — see the module doc
/// for why the interleaving matters.
pub fn measure(cfg: PerfConfig) -> PerfReport {
    let model = PopulationModel::new(cfg.population, 0xE18);
    let mut sw = build_world(&model);
    run_traffic(&mut sw, cfg.warm_ops, 0xE18);

    let mut cal = Calibration::new();
    let hit = model.principal(0);
    let lookup_name = format!("P{}", model.nr_projects() - 1);
    let udd = sw.udd_uid;
    let (pid, registry) = {
        let s = &sw.sessions[0];
        (s.pid, s.registry)
    };
    // The linear ACL spec scans every exact entry; keep its iteration
    // count proportionate. Gate calls are ~an order costlier than the
    // other paths; halve theirs.
    let cal_iters = (cfg.iters / 10).max(10);
    let linear_iters = (cfg.iters / 100).max(10);
    let gate_iters = (cfg.iters / 2).max(10);
    let tick_iters = (cfg.iters / 20).max(10);

    // The two E19 scheduler shapes: a balanced fleet (two immortal jobs
    // per CPU — ticks pop locally) and a starved one (two yielding jobs
    // on four CPUs — most ticks must steal).
    let (mut tc_balanced, mut m_balanced) = ws_tc(8, false);
    let (mut tc_starved, mut m_starved) = ws_tc(2, true);

    let mut calibration_ns = f64::INFINITY;
    let mut calibration_cpu_ns = f64::INFINITY;
    let mut cpu_cursor = 0xE18u64;
    let mut best = [f64::INFINITY; 8];
    for _ in 0..cfg.rounds.max(1) {
        calibration_ns = calibration_ns.min(time_path(cal_iters, 1, || cal.op()));
        calibration_cpu_ns = calibration_cpu_ns.min(time_path(cfg.iters, 1, || {
            cpu_calibration_op(&mut cpu_cursor)
        }));
        {
            let acl = sw.registry_acl();
            best[0] = best[0].min(time_path(cfg.iters, 1, || {
                std::hint::black_box(acl.effective_counted(std::hint::black_box(&hit)));
            }));
            best[1] = best[1].min(time_path(linear_iters, 1, || {
                std::hint::black_box(acl.effective_linear(std::hint::black_box(&hit)));
            }));
        }
        {
            let fs = &sw.sys.world.fs;
            best[2] = best[2].min(time_path(cfg.iters, 1, || {
                std::hint::black_box(fs.peek_branch(udd, std::hint::black_box(&lookup_name)));
            }));
        }
        best[3] = best[3].min(time_path(cfg.iters, 1, || {
            Monitor::read(&mut sw.sys.world, pid, registry, 3).expect("warm read");
        }));
        best[4] = best[4].min(time_path(gate_iters, 1, || {
            Monitor::call_gate(&mut sw.sys.world, pid, "hcs_", "metering_get")
                .expect("user-available gate");
        }));
        best[5] = best[5].min(time_path(tick_iters, 1, || {
            tc_balanced.tick(&mut m_balanced);
        }));
        best[6] = best[6].min(time_path(tick_iters, 1, || {
            tc_starved.tick(&mut m_starved);
        }));
        {
            // The E20 hot path: every mediated operation in a replayable
            // run seals one commit — encode, chain, append. A fresh log
            // per round keeps the arena bounded without ever exercising
            // anything but the append itself.
            let mut log = CommitLog::new();
            log.seed(0xE20);
            let mut value = 0u64;
            best[7] = best[7].min(time_path(cfg.iters, 1, || {
                value = value.wrapping_add(1);
                log.append(Commit::Write {
                    pid: KProcId(1),
                    seg: SegNo(65),
                    offset: value & 63,
                    value,
                });
                std::hint::black_box(log.head());
            }));
        }
    }
    debug_assert!(
        tc_starved.stats().steals > 0,
        "the starved shape must actually exercise the steal path"
    );
    let names = [
        "acl_check_indexed",
        "acl_check_linear_spec",
        "dir_lookup_indexed",
        "monitor_read_warm",
        "gate_call_metering",
        "tc_worksteal_dispatch",
        "tc_worksteal_steal",
        "commit_log_append",
    ];
    let paths = names
        .into_iter()
        .zip(best)
        .map(|(name, ns_per_op)| PathTiming { name, ns_per_op })
        .collect();

    // The slope rungs interleave the same way, and the slope itself is
    // the median over *same-round* hi/lo pairs: a noise phase covering
    // one round slows both rungs of the pair and cancels in the ratio,
    // and the median drops rounds where noise split a pair unevenly.
    let (pop_lo, pop_hi) = cfg.slope_pops;
    let mut ns_per_op_lo = f64::INFINITY;
    let mut ns_per_op_hi = f64::INFINITY;
    let mut ratios = Vec::new();
    for round in 0..cfg.rounds.max(1) {
        let lo = time_slope_round(pop_lo, cfg.slope_ops, round);
        let hi = time_slope_round(pop_hi, cfg.slope_ops, round);
        ns_per_op_lo = ns_per_op_lo.min(lo);
        ns_per_op_hi = ns_per_op_hi.min(hi);
        ratios.push(hi / lo.max(f64::MIN_POSITIVE));
    }
    let slope_over_rounds = median(ratios);

    let par = measure_parallel(&cfg);

    PerfReport {
        population: cfg.population,
        paths,
        pop_lo,
        pop_hi,
        ns_per_op_lo,
        ns_per_op_hi,
        slope_over_rounds,
        calibration_ns,
        calibration_cpu_ns,
        par,
    }
}

/// Host ns per mediated op of one round of production-shaped traffic
/// at one population rung (world build excluded).
fn time_slope_round(population: u64, ops: u64, round: u32) -> f64 {
    let model = PopulationModel::new(population, 0xE18);
    let mut sw = build_world(&model);
    let t0 = Instant::now();
    let stats = run_traffic(&mut sw, ops, 0xE18 ^ u64::from(round));
    t0.elapsed().as_nanos() as f64 / stats.ops.max(1) as f64
}

/// Renders the report as the `BENCH_E18.json` document.
pub fn to_json(r: &PerfReport) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"mks-bench-e18/1\",\n");
    s.push_str(&format!("  \"population\": {},\n", r.population));
    s.push_str(&format!(
        "  \"calibration_ns_per_op\": {:.2},\n",
        r.calibration_ns
    ));
    s.push_str(&format!(
        "  \"calibration_cpu_ns_per_op\": {:.2},\n",
        r.calibration_cpu_ns
    ));
    s.push_str("  \"paths\": [\n");
    for (i, p) in r.paths.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.2}}}{}\n",
            p.name,
            p.ns_per_op,
            if i + 1 < r.paths.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"parallel\": {{\"lanes\": {}, \"threads\": {}, \"population\": {}, \
         \"speedup\": {:.4}, \"calibration_speedup\": {:.4}}},\n",
        r.par.lanes, r.par.threads, r.par.population, r.par.speedup, r.par.calibration_speedup
    ));
    s.push_str(&format!(
        "  \"scaling\": {{\"pop_lo\": {}, \"pop_hi\": {}, \"ns_per_op_lo\": {:.2}, \
         \"ns_per_op_hi\": {:.2}, \"slope\": {:.4}}}\n",
        r.pop_lo,
        r.pop_hi,
        r.ns_per_op_lo,
        r.ns_per_op_hi,
        r.slope()
    ));
    s.push_str("}\n");
    s
}

/// The baseline's committed parallel section.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaselineParallel {
    /// The committed host speedup at `threads`.
    pub speedup: f64,
    /// The committed host-parallelism ceiling.
    pub calibration_speedup: f64,
}

/// A parsed baseline: per-path ns, the calibration yardstick, the
/// scaling slope, and (since E19) the host-parallel speedup section.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// `(path name, ns_per_op)` pairs in document order.
    pub paths: Vec<(String, f64)>,
    /// The baseline machine's memory-latency calibration ns-per-op.
    pub calibration_ns: f64,
    /// The baseline machine's core-clock calibration ns-per-op.
    pub calibration_cpu_ns: f64,
    /// The committed scaling slope.
    pub slope: f64,
    /// The committed parallel section (absent in pre-E19 baselines).
    pub parallel: Option<BaselineParallel>,
}

/// Parses a `BENCH_E18.json` document (the subset [`to_json`] emits).
pub fn parse_baseline(json: &str) -> Result<Baseline, String> {
    if !json.contains("\"schema\": \"mks-bench-e18/1\"") {
        return Err("not a mks-bench-e18/1 document".into());
    }
    let mut paths = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("{\"name\": \"") {
        let after = &rest[i + 10..];
        let name_end = after.find('"').ok_or("unterminated path name")?;
        let name = after[..name_end].to_string();
        let after_name = &after[name_end..];
        let ns = field_after(after_name, "\"ns_per_op\": ")?;
        paths.push((name, ns));
        rest = after_name;
    }
    if paths.is_empty() {
        return Err("no timed paths in baseline".into());
    }
    let calibration_ns = field_after(json, "\"calibration_ns_per_op\": ")?;
    let calibration_cpu_ns = field_after(json, "\"calibration_cpu_ns_per_op\": ")?;
    let scaling = json
        .find("\"scaling\"")
        .map(|i| &json[i..])
        .ok_or("no scaling object")?;
    let slope = field_after(scaling, "\"slope\": ")?;
    let parallel = json.find("\"parallel\"").map(|i| &json[i..]).and_then(|p| {
        Some(BaselineParallel {
            speedup: field_after(p, "\"speedup\": ").ok()?,
            calibration_speedup: field_after(p, "\"calibration_speedup\": ").ok()?,
        })
    });
    Ok(Baseline {
        paths,
        calibration_ns,
        calibration_cpu_ns,
        slope,
        parallel,
    })
}

/// Reads the `f64` immediately following `key` in `s`.
fn field_after(s: &str, key: &str) -> Result<f64, String> {
    let i = s.find(key).ok_or_else(|| format!("missing {key}"))?;
    let v = &s[i + key.len()..];
    let end = v
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(v.len());
    v[..end]
        .parse::<f64>()
        .map_err(|e| format!("bad number after {key}: {e}"))
}

/// Compares a fresh report against the committed baseline. Returns one
/// human-readable violation per path (or slope) that regressed past
/// `tolerance` (0.25 = fail if more than 25% slower).
///
/// A path fails only when it is slower than baseline **every** way: in
/// raw nanoseconds and after dividing each side by each of its two
/// calibration runs. A real regression inflates all three ratios; host
/// noise — a machine-speed shift, memory contention, frequency scaling
/// — moves at least one yardstick with the paths and leaves at least
/// one ratio flat. The gate scores a path by the *smallest* ratio.
pub fn gate(current: &PerfReport, baseline: &Baseline, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let (mem_shift, cpu_shift) = calibration_shifts(current, baseline);
    for (name, base_ns) in &baseline.paths {
        if *base_ns <= 0.0 {
            continue;
        }
        let Some(cur) = current.paths.iter().find(|p| p.name == name) else {
            violations.push(format!("{name}: timed in baseline but not measured now"));
            continue;
        };
        let raw = cur.ns_per_op / base_ns;
        let ratio = raw.min(raw / mem_shift).min(raw / cpu_shift);
        if ratio > 1.0 + tolerance {
            violations.push(format!(
                "{name}: {:.1} ns/op vs baseline {:.1} ns/op — {:+.0}% raw, {:+.0}% vs the \
                 memory yardstick, {:+.0}% vs the cpu yardstick; all > +{:.0}% tolerance",
                cur.ns_per_op,
                base_ns,
                (raw - 1.0) * 100.0,
                (raw / mem_shift - 1.0) * 100.0,
                (raw / cpu_shift - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    }
    // Flatness (slope ~1.0) is the gated property; a baseline that
    // happened to dip below flat must not tighten the bar, so the
    // comparison floor is 1.0.
    let slope_ratio = current.slope() / baseline.slope.max(1.0);
    if slope_ratio > 1.0 + tolerance {
        violations.push(format!(
            "scaling slope: {:.3} vs baseline {:.3} — per-op cost is no longer flat in the \
             population",
            current.slope(),
            baseline.slope
        ));
    }
    // Host speedup is bigger-is-better, and it saturates at the host's
    // real core count: once at or past the paper bar of 1.5x, drift is
    // host topology, not a regression. Below the bar, falling out of
    // the baseline band (scaled by how much parallelism the host lost
    // relative to the baseline host) is a lost-parallelism regression.
    if let Some(bp) = baseline.parallel {
        let host_shift =
            (current.par.calibration_speedup / bp.calibration_speedup.max(0.01)).clamp(0.25, 4.0);
        let floor = bp.speedup * host_shift / (1.0 + tolerance);
        if current.par.speedup < floor && current.par.speedup < 1.5 {
            violations.push(format!(
                "parallel speedup: {:.2}x vs baseline {:.2}x (host-parallelism shift {:.2}) — \
                 the lane fleet lost its host-side speedup",
                current.par.speedup, bp.speedup, host_shift
            ));
        }
    }
    violations
}

/// How much slower than the baseline host this host runs each
/// calibration yardstick: `(memory, cpu)` ratios of ns per op.
fn calibration_shifts(current: &PerfReport, baseline: &Baseline) -> (f64, f64) {
    let mem_shift = current.calibration_ns.max(f64::MIN_POSITIVE)
        / baseline.calibration_ns.max(f64::MIN_POSITIVE);
    let cpu_shift = current.calibration_cpu_ns.max(f64::MIN_POSITIVE)
        / baseline.calibration_cpu_ns.max(f64::MIN_POSITIVE);
    (mem_shift, cpu_shift)
}

/// Baseline rows that no longer guard their path: the path now runs
/// more than `tolerance` faster than its row against *both* calibration
/// yardsticks. Against such a row, a change that gave the gain back
/// would still pass [`gate`], so each warning asks for a re-seed. These
/// are warnings only; they never fail the gate.
pub fn stale_rows(current: &PerfReport, baseline: &Baseline, tolerance: f64) -> Vec<String> {
    let (mem_shift, cpu_shift) = calibration_shifts(current, baseline);
    let mut warnings = Vec::new();
    for (name, base_ns) in &baseline.paths {
        let Some(cur) = current.paths.iter().find(|p| p.name == name) else {
            continue;
        };
        let raw = cur.ns_per_op / base_ns.max(f64::MIN_POSITIVE);
        let ratio = (raw / mem_shift).max(raw / cpu_shift);
        if ratio * (1.0 + tolerance) < 1.0 {
            warnings.push(format!(
                "{name}: {:.1} ns/op vs baseline {:.1} ns/op — {:+.0}% vs the memory yardstick, \
                 {:+.0}% vs the cpu yardstick; the row is stale and should be re-seeded",
                cur.ns_per_op,
                base_ns,
                (raw / mem_shift - 1.0) * 100.0,
                (raw / cpu_shift - 1.0) * 100.0,
            ));
        }
    }
    warnings
}

/// Folds a re-measurement into `report`, keeping the best (minimum)
/// observation of every quantity — paths, calibrations, slope rungs,
/// and slope. The `bench_e18` binary re-measures when the gate fails
/// and gates the merged report: a host-noise phase deep enough to fool
/// every yardstick ends by the next attempt and the merged minima
/// recover, while a real regression is in the code and regresses every
/// attempt alike.
pub fn merge_min(report: &mut PerfReport, next: &PerfReport) {
    for (p, n) in report.paths.iter_mut().zip(&next.paths) {
        debug_assert_eq!(p.name, n.name);
        p.ns_per_op = p.ns_per_op.min(n.ns_per_op);
    }
    report.calibration_ns = report.calibration_ns.min(next.calibration_ns);
    report.calibration_cpu_ns = report.calibration_cpu_ns.min(next.calibration_cpu_ns);
    report.ns_per_op_lo = report.ns_per_op_lo.min(next.ns_per_op_lo);
    report.ns_per_op_hi = report.ns_per_op_hi.min(next.ns_per_op_hi);
    report.slope_over_rounds = report.slope_over_rounds.min(next.slope_over_rounds);
    // Speedups are bigger-is-better: the best observation is the max.
    report.par.speedup = report.par.speedup.max(next.par.speedup);
    report.par.calibration_speedup = report
        .par
        .calibration_speedup
        .max(next.par.calibration_speedup);
}

/// The gate's tolerance: a hot path may run up to 25% slower than the
/// committed baseline.
pub const GATE_TOLERANCE: f64 = 0.25;

/// Measurement attempts the gate takes before believing a violation.
pub const GATE_ATTEMPTS: u32 = 3;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfReport {
        PerfReport {
            population: 1_000,
            paths: vec![
                PathTiming {
                    name: "acl_check_indexed",
                    ns_per_op: 50.0,
                },
                PathTiming {
                    name: "monitor_read_warm",
                    ns_per_op: 120.0,
                },
            ],
            pop_lo: 200,
            pop_hi: 1_000,
            ns_per_op_lo: 100.0,
            ns_per_op_hi: 104.0,
            slope_over_rounds: 1.04,
            calibration_ns: 20.0,
            calibration_cpu_ns: 10.0,
            par: ParallelTiming {
                lanes: 4,
                threads: 4,
                population: 1_000,
                speedup: 2.0,
                calibration_speedup: 3.0,
            },
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let r = sample_report();
        let b = parse_baseline(&to_json(&r)).expect("own output parses");
        assert_eq!(b.paths.len(), r.paths.len());
        for (p, (name, ns)) in r.paths.iter().zip(&b.paths) {
            assert_eq!(p.name, name);
            assert!((p.ns_per_op - ns).abs() < 0.01);
        }
        assert!((b.slope - 1.04).abs() < 0.001);
        let bp = b.parallel.expect("parallel section parses");
        assert!((bp.speedup - 2.0).abs() < 0.001);
        assert!((bp.calibration_speedup - 3.0).abs() < 0.001);
    }

    #[test]
    fn pre_e19_baselines_still_parse() {
        let r = sample_report();
        let json = to_json(&r);
        let start = json.find("  \"parallel\"").unwrap();
        let end = start + json[start..].find('\n').unwrap() + 1;
        let stripped = format!("{}{}", &json[..start], &json[end..]);
        let b = parse_baseline(&stripped).expect("old-schema baseline parses");
        assert!(b.parallel.is_none());
        assert!(
            gate(&r, &b, 0.25).is_empty(),
            "no parallel gate without one"
        );
    }

    #[test]
    fn gate_passes_itself_and_catches_regressions() {
        let r = sample_report();
        let base = parse_baseline(&to_json(&r)).unwrap();
        assert!(gate(&r, &base, 0.25).is_empty(), "a report meets itself");

        let mut slow = r.clone();
        slow.paths[0].ns_per_op *= 1.5;
        let v = gate(&slow, &base, 0.25);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("acl_check_indexed"), "{v:?}");
        assert!(gate(&slow, &base, 0.6).is_empty(), "tolerance widens");

        // A uniformly slower host moves the calibrations too — no alarm.
        let mut throttled = r.clone();
        throttled.calibration_ns *= 2.0;
        throttled.calibration_cpu_ns *= 2.0;
        for p in &mut throttled.paths {
            p.ns_per_op *= 2.0;
        }
        assert!(
            gate(&throttled, &base, 0.25).is_empty(),
            "a machine-speed shift is not a regression"
        );

        // Memory contention moves the memory yardstick but not the cpu
        // one; the paths slow with the yardstick that moved — no alarm.
        let mut contended = r.clone();
        contended.calibration_ns *= 1.6;
        for p in &mut contended.paths {
            p.ns_per_op *= 1.5;
        }
        assert!(
            gate(&contended, &base, 0.25).is_empty(),
            "contention tracked by a yardstick is not a regression"
        );

        // Frequency scaling: the cpu yardstick moves, the memory one
        // does not — still no alarm.
        let mut downclocked = r.clone();
        downclocked.calibration_cpu_ns *= 1.6;
        for p in &mut downclocked.paths {
            p.ns_per_op *= 1.5;
        }
        assert!(
            gate(&downclocked, &base, 0.25).is_empty(),
            "a clock shift tracked by a yardstick is not a regression"
        );

        // A noise phase that spares the paths but hits a calibration
        // only shrinks that yardstick's ratio — also no alarm.
        let mut noisy_cal = r.clone();
        noisy_cal.calibration_ns /= 2.0;
        assert!(
            gate(&noisy_cal, &base, 0.25).is_empty(),
            "a calibration-only shift is not a regression"
        );

        let mut steep = r.clone();
        steep.slope_over_rounds = 2.0;
        let v = gate(&steep, &base, 0.25);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("slope"), "{v:?}");

        // Losing the host-side speedup on the same host is a regression…
        let mut serial = r.clone();
        serial.par.speedup = 1.0;
        let v = gate(&serial, &base, 0.25);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("parallel speedup"), "{v:?}");

        // …but the same drop on a host that lost its cores is not.
        let mut small_host = r.clone();
        small_host.par.speedup = 1.0;
        small_host.par.calibration_speedup = 1.0;
        assert!(
            gate(&small_host, &base, 0.25).is_empty(),
            "a 1-core runner gates against its own ceiling"
        );

        // And past the 1.5x paper bar, topology drift never fires.
        let mut saturated = r;
        saturated.par.speedup = 1.6;
        assert!(gate(&saturated, &base, 0.25).is_empty());
    }

    #[test]
    fn a_path_far_faster_than_its_row_is_flagged_but_never_fails() {
        let r = sample_report();
        let base = parse_baseline(&to_json(&r)).unwrap();
        assert!(
            stale_rows(&r, &base, 0.25).is_empty(),
            "a report is not stale to itself"
        );

        let mut faster = r.clone();
        faster.paths[1].ns_per_op /= 1.5;
        assert!(
            gate(&faster, &base, 0.25).is_empty(),
            "a speedup never fails"
        );
        let w = stale_rows(&faster, &base, 0.25);
        assert_eq!(w.len(), 1);
        assert!(w[0].contains("monitor_read_warm"), "{w:?}");

        // A host faster on one yardstick only is not evidence of a
        // stale row: against the other, the path did not speed up.
        let mut quick_memory = faster.clone();
        quick_memory.calibration_ns /= 1.5;
        assert!(stale_rows(&quick_memory, &base, 0.25).is_empty());

        // On a host slower on both yardsticks, an unchanged raw time is
        // a real speedup, and the row is stale.
        let mut slow_host = r;
        slow_host.calibration_ns *= 1.5;
        slow_host.calibration_cpu_ns *= 1.5;
        assert_eq!(stale_rows(&slow_host, &base, 0.25).len(), 2);
    }

    #[test]
    fn a_miniature_measurement_is_complete() {
        let r = measure(PerfConfig::miniature());
        assert_eq!(r.paths.len(), 8);
        for p in &r.paths {
            assert!(p.ns_per_op > 0.0, "{} timed", p.name);
        }
        assert!(r.slope() > 0.0);
        assert!(r.par.speedup > 0.0 && r.par.calibration_speedup > 0.0);
        let b = parse_baseline(&to_json(&r)).unwrap();
        assert!(gate(&r, &b, 0.25).is_empty());
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"schema\": \"mks-bench-e18/1\"}").is_err());
    }
}
