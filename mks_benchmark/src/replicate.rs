//! `replicate`: three replicas of the replayable kernel over a hostile
//! link.
//!
//! A round runs a fixed catalogue of fault schedules,
//! `FaultPlan::generate_replication(k)` for `k` in `0..clusters`, each on
//! a fresh cluster: bootstrap the actors and converge, arm the schedule,
//! submit a fixed number of client commits from the shared mix (each
//! followed by one cluster tick; a refused submit — no primary, primary
//! crashed — is retried after a tick, up to a bound), then disarm and
//! run the cluster quiet. The seed drives the client traffic and the
//! replicas' backoff jitter. The cost of one schedule varies several-fold
//! with what it breaks, so the round averages a fixed catalogue instead
//! of letting the seed pick one schedule; and it is superlinear in log
//! length, so each cluster carries a fixed, short history. Rounds are
//! identical, so their count changes no simulated number.

use std::collections::VecDeque;
use std::time::Instant;

use mks_hw::FaultPlan;
use mks_kernel::statemachine::reduce;
use mks_kernel::{Cluster, Commit, Genesis, Outcome, ReplConfig};

use crate::commits::Mix;
use crate::harness::{
    every_round, nanos, run_rounds, Config, Counters, Extras, Measured, ReplLayer, Report, Window,
};
use crate::json::Json;
use crate::meter::Meter;

struct Size {
    /// Fault schedules (fresh clusters) per round.
    clusters: u64,
    client_ops: u64,
    /// Submit attempts per commit before the client gives up on it.
    max_attempts: u32,
    /// Ticks `run_quiet` may take to converge.
    quiet_ticks: u64,
}

impl Size {
    fn of(cfg: &Config) -> Size {
        Size {
            clusters: if cfg.mini { 2 } else { 16 },
            client_ops: if cfg.mini { 40 } else { 100 },
            max_attempts: 400,
            quiet_ticks: 20_000,
        }
    }
}

/// A sealed client commit not yet known to be majority-acknowledged.
struct Pending {
    idx: u64,
    chain: u64,
    submitted_at: u64,
    creates: Option<String>,
}

/// Everything a round adds up over its clusters.
#[derive(Default)]
struct Tally {
    setup_s: Vec<f64>,
    timed_ns: u64,
    checks: Vec<(String, bool)>,
    /// Final primary digests and link totals: equal across rounds.
    fingerprint: String,
    client_ops: u64,
    work: Counters,
    commits: u64,
    frames: u64,
    resends: u64,
    retries: u64,
    catchups: u64,
    promotions: u64,
    unavailable_ticks: u64,
    lost: u64,
    ack_ticks: Vec<u64>,
    pending: VecDeque<Pending>,
}

impl Tally {
    /// Resolves pending commits the primary has acknowledged, in order:
    /// a commit is acknowledged when the primary's acked prefix covers
    /// its index with the same chain seal, and lost when that index was
    /// acknowledged with a different seal. `quiescent` resolves
    /// everything against a converged cluster.
    fn settle(&mut self, c: &Cluster, mix: &mut Mix, quiescent: bool) {
        let Some(p) = c.primary() else { return };
        let log = c.log_of(p);
        let acked = if quiescent {
            log.len()
        } else {
            c.status_of(p).map_or(0, |s| s.acked)
        };
        while self.pending.front().is_some_and(|f| f.idx < acked) {
            let f = self.pending.pop_front().expect("front exists");
            if log.get(f.idx).map(|s| s.chain) == Some(f.chain) {
                self.ack_ticks.push(c.now() - f.submitted_at);
                mix.confirm(f.creates);
            } else {
                self.lost += 1;
            }
        }
        if quiescent {
            self.lost += self.pending.len() as u64;
            self.pending.clear();
        }
    }

    fn tick(&mut self, c: &mut Cluster, m: &mut Meter, mix: &mut Mix) {
        m.span("replicate.tick", 1, || c.tick());
        if c.primary().is_none() {
            self.unavailable_ticks += 1;
        }
        self.settle(c, mix, false);
    }

    fn check(&mut self, name: &str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, all)) => *all &= ok,
            None => self.checks.push((name.to_string(), ok)),
        }
    }

    fn layer(&self) -> ReplLayer {
        let per_commit = |x: u64| x as f64 / self.commits.max(1) as f64;
        let per_cluster = |x: u64| x as f64 / self.setup_s.len().max(1) as f64;
        let mut ack = self.ack_ticks.clone();
        ack.sort_unstable();
        let rank = |q: f64| {
            let i = ((q * ack.len() as f64).ceil() as usize).clamp(1, ack.len().max(1));
            ack.get(i - 1).map_or(0.0, |&t| t as f64)
        };
        ReplLayer {
            frames_per_commit: per_commit(self.frames),
            resends_per_commit: per_commit(self.resends),
            retries_per_commit: per_commit(self.retries),
            catchups: per_cluster(self.catchups),
            promotions: per_cluster(self.promotions),
            ack_ticks_p50: rank(0.50),
            ack_ticks_p99: rank(0.99),
            unavailable_ticks: per_cluster(self.unavailable_ticks),
        }
    }
}

/// Submits with retry, for the untimed bootstrap.
fn submit_retry(c: &mut Cluster, commit: &Commit, attempts: u32) -> Option<Outcome> {
    for _ in 0..attempts {
        match c.submit(commit) {
            Ok(out) => return Some(out),
            Err(_) => c.tick(),
        }
    }
    None
}

/// One fault schedule on a fresh cluster, tallied into `t`.
fn cluster_run(cfg: &Config, size: &Size, k: u64, m: &mut Meter, t: &mut Tally) {
    let genesis = Genesis::kernel_small();
    let seed = cfg.seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let started = Instant::now();
    let mut c = Cluster::new(
        genesis,
        ReplConfig {
            seed,
            ..ReplConfig::default()
        },
    );
    let mix = Mix::bootstrap(seed, false, &mut |commit| {
        submit_retry(&mut c, commit, size.max_attempts)
    });
    t.check("bootstrap converges", c.run_quiet(size.quiet_ticks));
    let boot_len = c.primary().map_or(0, |p| c.log_of(p).len());
    c.arm(&FaultPlan::generate_replication(k));
    t.setup_s.push(started.elapsed().as_secs_f64());
    let Some(mut mix) = mix else {
        t.check("bootstrap applies", false);
        return;
    };

    let ops_before = m.attempted();
    let timed = Instant::now();
    for _ in 0..size.client_ops {
        let p = mix.next();
        m.begin_op("client.commit");
        let mut out = None;
        for _ in 0..size.max_attempts {
            match m.span("replicate.submit", 1, || c.submit(&p.commit)) {
                Ok(o) => {
                    out = Some(o);
                    break;
                }
                Err(_) => {
                    t.retries += 1;
                    t.tick(&mut c, m, &mut mix);
                }
            }
        }
        let sealed = c.primary().and_then(|id| c.log_of(id).entries().last());
        if let (Some(_), Some(seal)) = (&out, sealed) {
            t.pending.push_back(Pending {
                idx: seal.seq,
                chain: seal.chain,
                submitted_at: c.now(),
                creates: p.creates,
            });
        }
        t.tick(&mut c, m, &mut mix);
        m.end_op(out.is_some_and(|o| p.expect.met_by(&o)));
    }
    let converged = m.span("replicate.run_quiet", 1, || {
        c.disarm();
        c.run_quiet(size.quiet_ticks)
    });
    t.settle(&c, &mut mix, true);
    t.timed_ns += nanos(timed.elapsed());
    t.client_ops += m.attempted() - ops_before;

    let primary = c.primary();
    let pdigest = primary.map(|p| c.digest_of(p));
    let n = c.replica_count() as u32;
    t.check("run_quiet converges", converged);
    t.check(
        "every replica digest equals the primary's",
        (0..n).all(|id| Some(c.digest_of(id)) == pdigest),
    );
    t.check(
        "every failover check holds",
        c.failover_checks()
            .iter()
            .all(|f| f.digest_equal && f.acked_covered),
    );
    t.check("no split-brain epoch", c.sealer_violations().is_empty());
    // The replicated history's kernel work, read from outside by folding
    // the primary's log: the bootstrap prefix against the whole history.
    let log = primary.map(|p| c.log_of(p).clone()).unwrap_or_default();
    let counters = |upto: u64| {
        reduce(&genesis, &log.prefix(upto))
            .ok()
            .map(|sm| Counters::read(sm.world()))
    };
    let (before, after) = (counters(boot_len), counters(log.len()));
    t.check(
        "reduce folds the primary log",
        before.is_some() && after.is_some(),
    );
    if let (Some(b), Some(a)) = (before, after) {
        t.work = t.work.plus(&a.since(&b));
    }
    let link = c.link_stats();
    t.commits += log.len();
    t.frames += link.sent;
    for id in 0..n {
        let s = c.stats_of(id);
        t.resends += s.resends;
        t.catchups += s.catchups;
    }
    t.promotions += c.promotions();
    t.fingerprint += &format!("{pdigest:?} {link:?};");
}

fn round(cfg: &Config, size: &Size, m: &mut Meter) -> Tally {
    let mut t = Tally::default();
    for k in 0..size.clusters {
        cluster_run(cfg, size, k, m, &mut t);
    }
    t
}

pub fn run(cfg: &Config) -> Report {
    let size = Size::of(cfg);
    let mut rounds = Vec::new();
    let mut one = |m: &mut Meter| {
        let t = round(cfg, &size, m);
        let ns = t.timed_ns;
        (t, ns)
    };
    let untraced = run_rounds(cfg, false, &mut rounds, &mut one);
    let untraced_rounds = rounds.len();
    let traced = cfg
        .traced
        .then(|| run_rounds(cfg, true, &mut rounds, &mut one));

    let first = &rounds[0];
    let mut checks = every_round(&rounds, |r| &r.checks);
    checks.push((
        "rounds are identical (digests and link totals)".into(),
        rounds.iter().all(|r| r.fingerprint == first.fingerprint),
    ));
    Measured {
        setup_samples: rounds[..untraced_rounds]
            .iter()
            .flat_map(|r| r.setup_s.iter().copied())
            .collect(),
        untraced,
        window: Window {
            ops: first.client_ops,
            work: first.work,
        },
        traced,
        extras: Extras {
            repl: first.layer(),
            ..Extras::default()
        },
        checks,
        sizes: vec![
            (
                "replicas",
                Json::from(ReplConfig::default().replicas as u64),
            ),
            ("fault_schedules_per_round", Json::from(size.clusters)),
            ("client_ops_per_schedule", Json::from(size.client_ops)),
            ("rounds", Json::from(rounds.len() as u64)),
            (
                "unacknowledged_commits_lost_per_round",
                Json::from(first.lost),
            ),
        ],
    }
    .report()
}
