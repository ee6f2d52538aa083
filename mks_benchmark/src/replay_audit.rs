//! `replay_audit`: an auditor's workload over the replayable kernel.
//!
//! Each round builds `Genesis::kernel_small()` (16 frames, so commits
//! page), bootstraps the actors, seals a fixed number of mixed commits
//! live through `KernelStateMachine::apply`, then audits the log:
//! `CommitLog::verify`, an `encode_commit_log` / `decode_commit_log`
//! round trip, `reduce(genesis, log)`, and a digest comparison of the
//! reduced machine with the live one. Rounds are identical (same seed,
//! fresh genesis), so a round is a fixed unit of work and every round
//! must end in the same digest.

use std::time::Instant;

use mks_kernel::statemachine::{decode_commit_log, encode_commit_log, reduce};
use mks_kernel::Genesis;

use crate::commits::Mix;
use crate::harness::{
    every_round, nanos, run_rounds, Config, Counters, Extras, Measured, Report, Window,
};
use crate::json::Json;
use crate::meter::{Granted, Meter};

struct Size {
    commits: u64,
}

impl Size {
    fn of(cfg: &Config) -> Size {
        Size {
            commits: if cfg.mini { 400 } else { 50_000 },
        }
    }
}

/// What one round left behind for the report and the checks.
struct Round {
    setup_s: f64,
    timed_ns: u64,
    window: Window,
    wire_bytes: u64,
    /// The live machine's final state digest, as text.
    digest: String,
    checks: Vec<(String, bool)>,
}

fn round(cfg: &Config, size: &Size, m: &mut Meter) -> Round {
    let genesis = Genesis::kernel_small();
    let t0 = Instant::now();
    let mut sm = genesis.build();
    let mix = Mix::bootstrap(cfg.seed, true, &mut |c| Some(sm.apply(c)));
    let setup_s = t0.elapsed().as_secs_f64();
    let Some(mut mix) = mix else {
        return Round {
            setup_s,
            timed_ns: 0,
            window: Window::default(),
            wire_bytes: 0,
            digest: String::new(),
            checks: vec![("bootstrap applies".into(), false)],
        };
    };

    let before = Counters::read(sm.world());
    let ops_before = m.attempted();
    let live = Instant::now();
    for _ in 0..size.commits {
        let p = mix.next();
        let out = m.op(p.span, p.expect.granted(), || sm.apply(&p.commit));
        if out.granted() && !p.expect.met_by(&out) {
            m.mismatch();
        }
        mix.confirm(p.creates);
    }
    let live_ns = nanos(live.elapsed());
    let window = Window {
        ops: m.attempted() - ops_before,
        work: Counters::read(sm.world()).since(&before),
    };

    let audit = Instant::now();
    let log = &sm.world().commits;
    let n = log.len();
    m.enter("audit");
    let verified = m.span("statemachine.verify", n, || log.verify()).is_ok();
    let bytes = m.span("wire.encode", n, || encode_commit_log(log));
    let decoded = m.span("wire.decode", n, || decode_commit_log(&bytes));
    let round_trip = m.span("audit.compare_logs", n, || decoded.as_ref() == Ok(log));
    let reduced = match &decoded {
        Ok(d) => m.span("statemachine.reduce", n, || reduce(&genesis, d).ok()),
        Err(_) => None,
    };
    let (live_digest, reduced_digest) = m.span("statemachine.digest", 2, || {
        (sm.digest(), reduced.as_ref().map(|r| r.digest()))
    });
    m.exit();
    let audit_ns = nanos(audit.elapsed());

    Round {
        setup_s,
        timed_ns: live_ns + audit_ns,
        window,
        wire_bytes: bytes.len() as u64,
        digest: format!("{live_digest:?}"),
        checks: vec![
            ("commit log verifies".into(), verified),
            ("decode(encode(log)) == log".into(), round_trip),
            (
                "reduced digest equals live digest".into(),
                reduced_digest == Some(live_digest),
            ),
        ],
    }
}

pub fn run(cfg: &Config) -> Report {
    let size = Size::of(cfg);
    let mut rounds = Vec::new();
    let mut one = |m: &mut Meter| {
        let r = round(cfg, &size, m);
        let t = r.timed_ns;
        (r, t)
    };
    let untraced = run_rounds(cfg, false, &mut rounds, &mut one);
    let untraced_rounds = rounds.len();
    let traced = cfg
        .traced
        .then(|| run_rounds(cfg, true, &mut rounds, &mut one));

    let first = &rounds[0];
    let mut checks = every_round(&rounds, |r| &r.checks);
    checks.push((
        "rounds are identical (same final digest)".into(),
        rounds.iter().all(|r| r.digest == first.digest),
    ));
    let commits_per_round = first.window.ops;
    Measured {
        setup_samples: rounds[..untraced_rounds]
            .iter()
            .map(|r| r.setup_s)
            .collect(),
        untraced,
        window: first.window,
        traced,
        extras: Extras {
            wire_bytes_per_commit: first.wire_bytes as f64 / commits_per_round.max(1) as f64,
            ..Extras::default()
        },
        checks,
        sizes: vec![
            (
                "genesis",
                Json::from("kernel_small (16 frames, 64 bulk records)"),
            ),
            ("commits_per_round", Json::from(size.commits)),
            ("rounds", Json::from(rounds.len() as u64)),
        ],
    }
    .report()
}
