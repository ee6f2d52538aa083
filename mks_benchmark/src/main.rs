//! The repository benchmark: four seeded, closed-loop workloads against
//! the kernel crates' public APIs, with end-to-end metrics from an
//! untraced phase and per-layer metrics from a traced one.
//!
//! ```text
//! mks_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--repeat N]
//! ```
//!
//! With `--workload` (and no `--repeat`) one workload runs in this
//! process: it prints `workload metric value unit` lines, writes
//! `target/benchmark/<workload>.json` (and `<workload>.trace.json` when
//! traced), and ends with one JSON line `{"correct", "attempted",
//! "failed", "metrics"}` holding the end-to-end metrics, or the
//! per-layer ones with `--trace`. Without `--workload` every workload
//! runs, each in a fresh child process so set-up time and peak memory
//! are per workload; `--repeat N` runs each N times and summarises the
//! spread of every metric against its `BENCHMARK.json` bound. The exit
//! status is non-zero when any output check fails.

mod acl_churn;
mod commits;
mod harness;
mod host;
mod json;
mod meter;
mod replay_audit;
mod replicate;
mod site;
mod spec;
mod utility_mix;

use std::process::{Command, ExitCode};
use std::time::Instant;

use harness::{median, Config, Report};
use json::{obj, Json};
use spec::Spec;

const OUT_DIR: &str = "target/benchmark";

const USAGE: &str = "usage: mks_benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--repeat N]";

type Runner = fn(&Config) -> Report;

const WORKLOADS: [(&str, Runner); 4] = [
    ("utility_mix", utility_mix::run),
    ("acl_churn", acl_churn::run),
    ("replay_audit", replay_audit::run),
    ("replicate", replicate::run),
];

fn runner(name: &str) -> Option<Runner> {
    WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, r)| *r)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u32,
}

fn parse_args(argv: &[String], spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        repeat: 1,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if runner(&w).is_none() {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--repeat needs a positive integer")?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv, &spec) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.workload, args.repeat) {
        (Some(w), 1) => run_one(&spec, w, &args),
        _ => orchestrate(&spec, &args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mks_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn unit_of(spec: &Spec, name: &str) -> String {
    spec.metric(name).map_or("-".into(), |m| m.unit.clone())
}

fn metrics_json<'a>(spec: &Spec, items: impl Iterator<Item = (&'a str, f64)>) -> Json {
    obj(items.map(|(name, v)| {
        (
            name,
            obj([
                ("value", Json::from(v)),
                ("unit", Json::from(unit_of(spec, name))),
            ]),
        )
    }))
}

fn out_path(file: &str) -> String {
    format!("{OUT_DIR}/{file}")
}

fn write_out(file: &str, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = out_path(file);
    std::fs::write(&path, doc.emit() + "\n").map_err(|e| format!("writing {path}: {e}"))
}

/// Runs one workload in this process; writes `<workload>.json` (and the
/// trace file), prints the metric lines and ends with the result line.
fn run_one(spec: &Spec, workload: &str, args: &Args) -> Result<bool, String> {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        mini: false,
    };
    let started = Instant::now();
    let report = runner(workload).ok_or("unknown workload")?(&cfg);
    let facts = [
        ("host", host::facts()),
        ("workload", Json::from(workload)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("traced", Json::from(args.trace)),
        ("wall_s", Json::from(started.elapsed().as_secs_f64())),
        (
            "sizes",
            obj(report.sizes.iter().map(|(k, v)| (*k, v.clone()))),
        ),
    ];

    for (name, v) in &report.e2e {
        println!("{workload} {name} {v} {}", unit_of(spec, name));
    }
    println!(
        "{workload} op_latency_samples {} count",
        report.latency_samples
    );
    if args.trace {
        for (name, v) in &report.layers {
            println!("{workload} {name} {v} {}", unit_of(spec, name));
        }
    }
    if let Some(r) = report.trace.as_ref().and_then(|t| t.get("reconciliation")) {
        println!("{workload} reconciliation {}", r.emit());
    }
    for (name, ok) in &report.checks {
        println!(
            "{workload} check {} {name}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let correct = report.correct();
    let e2e = || report.e2e.iter().map(|(n, v)| (*n, *v));
    let layers = || report.layers.iter().map(|(n, v)| (n.as_str(), *v));
    let checks = report
        .checks
        .iter()
        .map(|(n, ok)| (n.as_str(), Json::from(*ok)));
    write_out(
        &format!("{workload}.json"),
        &obj(facts.iter().cloned().chain([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(report.attempted)),
            ("failed", Json::from(report.failed)),
            ("op_latency_samples", Json::from(report.latency_samples)),
            ("checks", obj(checks)),
            ("end_to_end", metrics_json(spec, e2e())),
            ("per_layer", metrics_json(spec, layers())),
        ])),
    )?;
    if let Some(trace) = &report.trace {
        write_out(
            &format!("{workload}.trace.json"),
            &obj(facts.iter().cloned().chain([("trace", trace.clone())])),
        )?;
    }
    let metrics = if args.trace {
        metrics_json(spec, layers())
    } else {
        metrics_json(spec, e2e())
    };
    println!(
        "{}",
        obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(report.attempted)),
            ("failed", Json::from(report.failed)),
            ("metrics", metrics),
        ])
        .emit()
    );
    Ok(correct)
}

/// One child run: its exit status and the `<workload>.json` it wrote.
struct ChildRun {
    workload: String,
    ok: bool,
    doc: Json,
}

impl ChildRun {
    /// `(name, value)` of the metrics the run measured.
    fn metrics(&self, traced: bool) -> Vec<(&str, f64)> {
        let sets: &[&str] = if traced {
            &["end_to_end", "per_layer"]
        } else {
            &["end_to_end"]
        };
        sets.iter()
            .filter_map(|set| self.doc.get(set).and_then(Json::as_obj))
            .flatten()
            .filter_map(|(n, m)| Some((n.as_str(), m.get("value")?.as_f64()?)))
            .collect()
    }
}

/// Runs `workload` in a fresh child process, passes its output through,
/// and reads back the record it wrote.
fn run_child(workload: &str, args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
    let path = out_path(&format!("{workload}.json"));
    // A child that dies early must not leave an older record to be read.
    let _ = std::fs::remove_file(&path);
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    print!("{}", String::from_utf8_lossy(&out.stdout));
    if !out.status.success() {
        eprintln!("{workload}: child exited with {}", out.status);
    }
    let doc = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading {path}: {e}"))
        .and_then(|text| json::parse(&text))?;
    let correct = doc.get("correct").and_then(Json::as_bool) == Some(true);
    Ok(ChildRun {
        workload: workload.to_string(),
        ok: out.status.success() && correct,
        doc,
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method).
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Median, quartiles and max–min spread of one metric over repeats,
/// printed and returned as JSON.
fn summarize(spec: &Spec, workload: &str, name: &str, values: &[f64]) -> Json {
    let med = median(values);
    let (q1, q3) = quartiles(values);
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let spread = if med == 0.0 {
        0.0
    } else {
        (hi - lo) / med.abs()
    };
    let bound = spec.metric(name).and_then(|m| m.bound);
    let over = bound.is_some_and(|b| spread > b);
    println!(
        "summary {workload} {name} {med} {q1} {q3} {spread:.4} {}{}",
        bound.map_or("-".into(), |b| b.to_string()),
        if over { " OVER-BOUND" } else { "" }
    );
    obj([
        ("workload", Json::from(workload)),
        ("metric", Json::from(name)),
        ("unit", Json::from(unit_of(spec, name))),
        ("median", Json::from(med)),
        ("q1", Json::from(q1)),
        ("q3", Json::from(q3)),
        ("spread", Json::from(spread)),
        ("bound", bound.map_or(Json::Null, Json::from)),
        ("over_bound", Json::from(over)),
    ])
}

/// Runs every requested workload (each repeat in a fresh process),
/// summarises repeats, and writes `results.json`.
fn orchestrate(spec: &Spec, args: &Args) -> Result<bool, String> {
    let workloads: Vec<String> = match &args.workload {
        Some(w) => vec![w.clone()],
        None => spec.workloads.clone(),
    };
    let started = Instant::now();
    let mut runs = Vec::new();
    for w in &workloads {
        for _ in 0..args.repeat {
            runs.push(run_child(w, args)?);
        }
    }
    let mut summary = Vec::new();
    if args.repeat > 1 {
        println!("# workload metric median q1 q3 spread(max-min)/median bound");
        for w in &workloads {
            let mine: Vec<&ChildRun> = runs.iter().filter(|r| &r.workload == w).collect();
            for (name, _) in mine[0].metrics(args.trace) {
                let values: Vec<f64> = mine
                    .iter()
                    .filter_map(|r| {
                        r.metrics(args.trace)
                            .into_iter()
                            .find(|(n, _)| *n == name)
                            .map(|(_, v)| v)
                    })
                    .collect();
                summary.push(summarize(spec, w, name, &values));
            }
        }
    }
    let all_ok = runs.iter().all(|r| r.ok);
    write_out(
        "results.json",
        &obj([
            ("host", host::facts()),
            ("seed", Json::from(args.seed)),
            ("seconds", Json::from(args.seconds)),
            ("traced", Json::from(args.trace)),
            ("repeat", Json::from(u64::from(args.repeat))),
            ("wall_s", Json::from(started.elapsed().as_secs_f64())),
            ("correct", Json::from(all_ok)),
            ("runs", Json::Arr(runs.into_iter().map(|r| r.doc).collect())),
            ("summary", Json::Arr(summary)),
        ]),
    )?;
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn mini(seed: u64, traced: bool) -> Config {
        Config {
            seed,
            seconds: 0.0,
            traced,
            mini: true,
        }
    }

    fn names<'a>(it: impl Iterator<Item = &'a str>) -> BTreeSet<String> {
        it.map(str::to_string).collect()
    }

    #[test]
    fn every_workload_runs_in_miniature_and_passes_its_checks() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            WORKLOADS
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
        );
        for (name, run) in WORKLOADS {
            let r = run(&mini(7, true));
            assert!(r.attempted > 0, "{name}");
            assert!(
                r.correct(),
                "{name}: failed {} checks {:?}",
                r.failed,
                r.checks
            );
            assert!(r.trace.is_some(), "{name}");
        }
    }

    #[test]
    fn emitted_metric_names_are_exactly_the_declared_ones() {
        let spec = Spec::load();
        let e2e = names(spec.end_to_end.iter().map(|m| m.name.as_str()));
        let layer = names(spec.per_layer.iter().map(|m| m.name.as_str()));
        for (name, run) in WORKLOADS {
            let r = run(&mini(3, true));
            assert_eq!(names(r.e2e.iter().map(|(n, _)| *n)), e2e, "{name}");
            assert_eq!(
                names(r.layers.iter().map(|(n, _)| n.as_str())),
                layer,
                "{name}"
            );
        }
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        let setup = spec.metric("setup_s").expect("setup_s declared");
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!((setup.unit.as_str(), setup.bound), ("s", Some(widest)));
    }

    /// Simulated metrics and counts: everything but host times.
    fn simulated(r: &Report) -> Vec<(String, f64)> {
        let host_time = |n: &str| {
            n.ends_with(".ns")
                || n.starts_with("harness.")
                || matches!(
                    n,
                    "ops_per_s" | "op_p50_us" | "op_p99_us" | "peak_rss_mb" | "setup_s"
                )
        };
        r.e2e
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .chain(r.layers.iter().cloned())
            .filter(|(n, _)| !host_time(n))
            .collect()
    }

    #[test]
    fn a_seed_fixes_simulated_metrics_and_seeds_differ() {
        for (name, run) in WORKLOADS {
            let a = run(&mini(11, false));
            let b = run(&mini(11, false));
            assert_eq!(simulated(&a), simulated(&b), "{name}");
            assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "{name}");
            let c = run(&mini(12, false));
            assert_ne!(
                simulated(&a),
                simulated(&c),
                "{name}: seeds 11 and 12 agree"
            );
        }
    }

    #[test]
    fn arguments_parse_both_trace_forms() {
        let spec = Spec::load();
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload replicate --seed 5 --trace"), &spec).unwrap();
        assert_eq!(a.workload.as_deref(), Some("replicate"));
        assert!(a.trace && a.seed == 5 && a.seconds == spec.run_seconds);
        let b = parse_args(&argv("--trace 0 --seconds 2.5 --repeat 3"), &spec).unwrap();
        assert!(!b.trace && b.seconds == 2.5 && b.repeat == 3);
        assert!(parse_args(&argv("--workload nope"), &spec).is_err());
        assert!(parse_args(&argv("--repeat 0"), &spec).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[4.0, 1.0]), (0.25, 4.75));
    }
}
