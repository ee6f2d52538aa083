//! `acl_churn`: the site's mutation traffic.
//!
//! The same monitor and file-system layers as `utility_mix`, reached
//! through writes: the administrator replaces ACLs (20%; revocation
//! recomputes every bound descriptor), creates (15%) and deletes (15%)
//! project segments; users initiate→read→terminate a project segment
//! (30%), write their roster and read the registry (14%) and list their
//! project (5%); and a stranger's initiate of a member-only segment,
//! which must be refused (1%). Over 10^5 principals in ~200 projects.

use std::time::Instant;

use mks_fs::{AclMode, UserId};
use mks_hw::{RingBrackets, SegNo, SplitMix64, Word};
use mks_kernel::{KProcId, Monitor};
use mks_mls::Label;

use crate::harness::{run_chunks, Config, Counters, Extras, Measured, Report};
use crate::json::Json;
use crate::meter::Meter;
use crate::site::{member_acl, Population, Site};
use crate::utility_mix::CENSUS;

struct Size {
    population: u64,
    warm_sessions: usize,
    warmup_actions: u64,
    /// Client actions per timing chunk.
    chunk: u64,
    /// Chunks in the census window.
    census_chunks: u64,
    setup_runs: usize,
    /// Most administrator-created segments per project at once.
    pool_cap: usize,
    oracle_samples: u64,
}

impl Size {
    fn of(cfg: &Config) -> Size {
        if cfg.mini {
            Size {
                population: 2_000,
                warm_sessions: 4,
                warmup_actions: 200,
                chunk: 256,
                census_chunks: 2,
                setup_runs: 1,
                pool_cap: 4,
                oracle_samples: 50,
            }
        } else {
            Size {
                population: 100_000,
                warm_sessions: 8,
                warmup_actions: 20_000,
                chunk: 1 << 15,
                census_chunks: 8,
                setup_runs: 5,
                pool_cap: 32,
                oracle_samples: 1_000,
            }
        }
    }
}

struct State {
    site: Site,
    rng: SplitMix64,
    action: u64,
    pool_cap: usize,
    /// Administrator-created segments per project.
    files: Vec<Vec<String>>,
    next_file: u64,
    stranger: KProcId,
    stranger_udd: SegNo,
}

fn setup(cfg: &Config, size: &Size) -> State {
    let pop = Population::new(size.population, cfg.seed);
    // A core that holds the sessions' working set: this workload is about
    // mediation and hierarchy mutation, and with E18's 128 frames page
    // traffic would swamp both the simulated cost and its repeatability.
    let mut site = Site::build(&pop, 2048, true);
    let w = &mut site.sys.world;
    let stranger = w.create_process(UserId::new("Mallory", "Guest", "a"), Label::BOTTOM, 4);
    let root = w.bind_root(stranger);
    let stranger_udd = Monitor::initiate_dir(w, stranger, root, "udd");
    let mut s = State {
        files: vec![Vec::new(); pop.nr_projects()],
        site,
        rng: SplitMix64::new(cfg.seed ^ 0xac1c_4a2e_0000_0002),
        action: 0,
        pool_cap: size.pool_cap,
        next_file: 0,
        stranger,
        stranger_udd,
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

/// A project drawn through a random principal (Zipf-weighted).
fn some_project(s: &mut State) -> usize {
    let i = s.rng.below(s.site.pop.size);
    s.site.pop.project_of(i)
}

fn create_file(s: &mut State, m: &mut Meter, k: usize) {
    let name = format!("f{}", s.next_file);
    s.next_file += 1;
    let (admin, dir) = (s.site.admin, s.site.projects[k]);
    let w = &mut s.site.sys.world;
    let acl = member_acl(k);
    let out = m.op("monitor.create_segment", true, || {
        let brackets = RingBrackets::new(4, 4, 4);
        Monitor::create_segment(w, admin, dir, &name, acl, brackets, Label::BOTTOM)
    });
    if out.is_ok() {
        s.files[k].push(name);
    }
}

fn delete_file(s: &mut State, m: &mut Meter, k: usize) {
    let at = s.rng.below(s.files[k].len() as u64) as usize;
    let name = s.files[k].swap_remove(at);
    let (admin, dir) = (s.site.admin, s.site.projects[k]);
    let w = &mut s.site.sys.world;
    let _ = m.op("monitor.delete_segment", true, || {
        Monitor::delete_segment(w, admin, dir, &name)
    });
}

fn step(s: &mut State, m: &mut Meter) {
    s.action += 1;
    if s.site.churn(s.action, &mut s.rng, m) {
        return;
    }
    match s.rng.below(100) {
        0..=19 => {
            let k = some_project(s);
            let name = match s.rng.below(3) {
                0 => "roster".to_string(),
                1 => "private".to_string(),
                _ => pick_file(s, k).unwrap_or_else(|| "roster".to_string()),
            };
            let mut acl = member_acl(k);
            if name == "roster" {
                acl.add("*.*.*", AclMode::R);
            }
            // Exact entries are always a superset of the member mode, so
            // no replacement ever takes access away from a member.
            for _ in 0..s.rng.below(4) {
                let who = s.site.pop.principal(s.rng.below(s.site.pop.size));
                acl.add(&who.to_acl_string(), AclMode::REW);
            }
            let (admin, dir) = (s.site.admin, s.site.projects[k]);
            let w = &mut s.site.sys.world;
            let _ = m.op("monitor.set_segment_acl", true, || {
                Monitor::set_segment_acl(w, admin, dir, &name, acl)
            });
        }
        r @ 20..=49 => {
            let k = some_project(s);
            let create = r < 35;
            let full = s.files[k].len() >= s.pool_cap;
            if (create && !full) || s.files[k].is_empty() {
                create_file(s, m, k);
            } else {
                delete_file(s, m, k);
            }
        }
        50..=79 => {
            let at = s.rng.below(s.site.sessions.len() as u64) as usize;
            let (pid, proj, k) = {
                let sess = &s.site.sessions[at];
                (sess.pid, sess.proj, sess.project)
            };
            let name = if s.rng.below(2) == 0 {
                "private".to_string()
            } else {
                pick_file(s, k).unwrap_or_else(|| "private".to_string())
            };
            let off = s.rng.below(64) as usize;
            let w = &mut s.site.sys.world;
            m.enter("client.user_access");
            let seg = m.op("monitor.initiate", true, || {
                Monitor::initiate(w, pid, proj, &name)
            });
            if let Ok(seg) = seg {
                let _ = m.op("monitor.read", true, || Monitor::read(w, pid, seg, off));
                let _ = m.op("monitor.terminate", true, || {
                    Monitor::terminate(w, pid, seg)
                });
            }
            m.exit();
        }
        80..=93 => {
            let at = s.rng.below(s.site.sessions.len() as u64) as usize;
            let sess = &s.site.sessions[at];
            let (pid, roster, registry) = (sess.pid, sess.roster, sess.registry);
            let (off, v) = (s.rng.below(64) as usize, Word::new(s.action));
            let w = &mut s.site.sys.world;
            let _ = m.op("monitor.write", true, || {
                Monitor::write(w, pid, roster, off, v)
            });
            let _ = m.op("monitor.read", true, || {
                Monitor::read(w, pid, registry, off)
            });
        }
        94..=98 => {
            let at = s.rng.below(s.site.sessions.len() as u64) as usize;
            let (pid, proj) = (s.site.sessions[at].pid, s.site.sessions[at].proj);
            let w = &mut s.site.sys.world;
            let _ = m.op("monitor.list_dir", true, || Monitor::list_dir(w, pid, proj));
        }
        _ => {
            let k = some_project(s);
            let (pid, udd) = (s.stranger, s.stranger_udd);
            let pname = format!("P{k}");
            let w = &mut s.site.sys.world;
            let dir = m.op("monitor.initiate_dir", true, || {
                Monitor::initiate_dir(w, pid, udd, &pname)
            });
            let _ = m.op("monitor.initiate", false, || {
                Monitor::initiate(w, pid, dir, "private")
            });
        }
    }
}

fn pick_file(s: &mut State, k: usize) -> Option<String> {
    let n = s.files[k].len() as u64;
    (n > 0).then(|| s.files[k][s.rng.below(n) as usize].clone())
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
    let census_now = s.site.sys.world.gates.user_available_entries() as u64;
    let salvage = s.site.sys.world.fs.salvage();
    let files: usize = s.files.iter().map(Vec::len).sum();
    let checks = vec![
        ("acl and lookup oracles agree".to_string(), mismatches == 0),
        (
            format!("user gate census is {CENSUS}"),
            census_now == CENSUS,
        ),
        (
            "post-run salvage finds no problems".to_string(),
            salvage.problems.is_empty(),
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
            ("pool_cap_per_project", Json::from(size.pool_cap as u64)),
            ("files_at_end", Json::from(files as u64)),
            ("warmup_actions", Json::from(size.warmup_actions)),
        ],
    }
    .report()
}
