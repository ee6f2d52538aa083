//! `utility_mix`: the E18 production traffic of a computer utility.
//!
//! One closed-loop client drives up to `MAX_SESSIONS` sessions
//! drawn from a 10^6-principal Zipf population: 62% reads (the hot
//! registry and the project roster), 12% roster writes, 15% gate calls,
//! 6% terminate+initiate churn, 2% listings, 1% status, and a rare
//! probe at the privileged `hphcs_$shutdown` gate that must be refused.
//! One login per `CHURN_EVERY` actions.

use std::time::Instant;

use mks_hw::{SplitMix64, Word};
use mks_kernel::Monitor;

use crate::harness::{run_chunks, Config, Counters, Extras, Measured, Report};
use crate::json::Json;
use crate::meter::Meter;
use crate::site::{Population, Site};

/// Gate census the kernel configuration must keep.
pub const CENSUS: u64 = 54;

struct Size {
    population: u64,
    warm_sessions: usize,
    warmup_actions: u64,
    /// Client actions per timing chunk.
    chunk: u64,
    /// Chunks in the census window.
    census_chunks: u64,
    setup_runs: usize,
    oracle_samples: u64,
}

impl Size {
    fn of(cfg: &Config) -> Size {
        if cfg.mini {
            Size {
                population: 2_000,
                warm_sessions: 4,
                warmup_actions: 500,
                chunk: 512,
                census_chunks: 2,
                setup_runs: 1,
                oracle_samples: 50,
            }
        } else {
            Size {
                population: 1_000_000,
                warm_sessions: 8,
                warmup_actions: 200_000,
                chunk: 1 << 17,
                census_chunks: 32,
                setup_runs: 5,
                oracle_samples: 1_000,
            }
        }
    }
}

struct State {
    site: Site,
    rng: SplitMix64,
    action: u64,
}

fn setup(cfg: &Config, size: &Size) -> State {
    let pop = Population::new(size.population, cfg.seed);
    let mut s = State {
        // E18's fixed 128-frame core: the population's rosters page
        // against the bulk store, as a utility's working set would.
        site: Site::build(&pop, 128, false),
        rng: SplitMix64::new(cfg.seed ^ 0x0e18_ca11_ab1e_0001),
        action: 0,
    };
    let mut warm = Meter::new(false);
    while s.site.sessions.len() < size.warm_sessions {
        s.site.open_session(&mut s.rng, &mut warm);
    }
    for _ in 0..size.warmup_actions {
        step(&mut s, &mut warm);
    }
    s
}

/// One client action.
fn step(s: &mut State, m: &mut Meter) {
    s.action += 1;
    if s.site.churn(s.action, &mut s.rng, m) {
        return;
    }
    let rng = &mut s.rng;
    let at = rng.below(s.site.sessions.len() as u64) as usize;
    let sess = &mut s.site.sessions[at];
    let (pid, proj, roster, registry) = (sess.pid, sess.proj, sess.roster, sess.registry);
    let w = &mut s.site.sys.world;
    match rng.below(100) {
        r @ 0..=61 => {
            let seg = if r % 2 == 0 { registry } else { roster };
            let off = rng.below(64) as usize;
            let _ = m.op("monitor.read", true, || Monitor::read(w, pid, seg, off));
        }
        62..=73 => {
            let (off, v) = (rng.below(64) as usize, Word::new(s.action));
            let _ = m.op("monitor.write", true, || {
                Monitor::write(w, pid, roster, off, v)
            });
        }
        74..=88 => {
            let _ = m.op("monitor.call_gate", true, || {
                Monitor::call_gate(w, pid, "hcs_", "metering_get")
            });
        }
        89..=94 => {
            let _ = m.op("monitor.terminate", true, || {
                Monitor::terminate(w, pid, roster)
            });
            let again = m.op("monitor.initiate", true, || {
                Monitor::initiate(w, pid, proj, "roster")
            });
            if let Ok(seg) = again {
                sess.roster = seg;
            }
        }
        95..=96 => {
            let _ = m.op("monitor.list_dir", true, || Monitor::list_dir(w, pid, proj));
        }
        97 => {
            let _ = m.op("monitor.status", true, || {
                Monitor::status(w, pid, proj, "roster")
            });
        }
        _ => {
            if rng.below(64) == 0 {
                let _ = m.op("monitor.call_gate", false, || {
                    Monitor::call_gate(w, pid, "hphcs_", "shutdown")
                });
            } else {
                let off = rng.below(64) as usize;
                let _ = m.op("monitor.read", true, || {
                    Monitor::read(w, pid, registry, off)
                });
            }
        }
    }
}

fn census(s: &State) -> Counters {
    Counters {
        logins: s.site.logins,
        ..Counters::read(&s.site.sys.world)
    }
}

pub fn run(cfg: &Config) -> Report {
    let size = Size::of(cfg);
    let mut setup_samples = Vec::new();
    let mut state = None;
    for _ in 0..size.setup_runs {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup(cfg, &size));
        setup_samples.push(t0.elapsed().as_secs_f64());
    }
    let mut s = state.expect("at least one setup run");
    let (untraced, window) = run_chunks(
        &mut s,
        cfg,
        false,
        size.chunk,
        size.census_chunks,
        step,
        census,
    );
    let traced = cfg.traced.then(|| {
        run_chunks(
            &mut s,
            cfg,
            true,
            size.chunk,
            size.census_chunks,
            step,
            census,
        )
        .0
    });

    let (mismatches, evals, work) = s.site.oracle(size.oracle_samples);
    let w = &s.site.sys.world;
    let checks = vec![
        ("acl and lookup oracles agree".to_string(), mismatches == 0),
        (
            format!("user gate census is {CENSUS}"),
            w.gates.user_available_entries() as u64 == CENSUS,
        ),
    ];
    let pop = &s.site.pop;
    Measured {
        setup_samples,
        untraced,
        window,
        traced,
        extras: Extras {
            acl_work_per_eval: work as f64 / evals.max(1) as f64,
            ..Extras::default()
        },
        checks,
        sizes: vec![
            ("population", Json::from(pop.size)),
            ("projects", Json::from(pop.nr_projects() as u64)),
            ("registry_acl_entries", Json::from(pop.registry_entries)),
            ("max_sessions", Json::from(crate::site::MAX_SESSIONS as u64)),
            ("warmup_actions", Json::from(size.warmup_actions)),
        ],
    }
    .report()
}
