//! The replicated-kernel integration gate (E21): primary/backup
//! failover over the sealed commit log, swept under seeded hostile-link
//! plans.
//!
//! Each swept run drives the mixed workload through a three-replica
//! cluster while the link drops, duplicates, reorders, delays and
//! partitions frames and the primary crashes; after the faults are
//! disarmed the cluster must reconverge with every replica holding the
//! same chain head, the same live digest as `reduce(genesis, log)`, no
//! epoch with two sealers, and no majority-acknowledged commit lost.
//! `MKS_SWEEP_SEEDS` widens the sweep for soak runs (the nightly CI
//! sweep runs 600 seeds).

use mks_hw::{FaultEvent, FaultPlan, InjectKind};
use mks_kernel::replicate::{drive_mixed_workload, Cluster, ReplConfig, ReplError, Role};
use mks_kernel::statemachine::{reduce, Commit, Genesis};

fn cluster(seed: u64) -> Cluster {
    Cluster::new(
        Genesis::kernel_small(),
        ReplConfig {
            seed,
            ..ReplConfig::default()
        },
    )
}

/// Every safety invariant a finished run must satisfy, or a named
/// violation with the seed on failure.
fn assert_sound(c: &Cluster, what: &str, seed: u64) {
    assert_eq!(
        c.sealer_violations(),
        Vec::<u64>::new(),
        "{what} seed {seed:#x}: an epoch had two sealers"
    );
    for chk in c.failover_checks() {
        assert!(
            chk.digest_equal,
            "{what} seed {seed:#x}: promoted digest diverged from reduce() at epoch {}",
            chk.epoch
        );
        assert!(
            chk.acked_covered,
            "{what} seed {seed:#x}: an acked commit was lost at epoch {}",
            chk.epoch
        );
    }
    let primary = c.primary().expect("a healed cluster has a primary");
    let plog = c.log_of(primary);
    plog.verify().expect("the primary's log verifies");
    let pdigest = c.digest_of(primary);
    assert_eq!(pdigest.census, 54, "{what} seed {seed:#x}: census drifted");
    for id in 0..c.replica_count() as u32 {
        assert_eq!(
            c.digest_of(id),
            pdigest,
            "{what} seed {seed:#x}: replica {id} diverged from the primary"
        );
    }
    // The replicated history is still a pure fold: reducing the
    // primary's log from genesis reproduces its live digest.
    let folded = reduce(c.genesis(), plog).expect("the primary's log reduces");
    assert_eq!(
        folded.digest(),
        pdigest,
        "{what} seed {seed:#x}: the live world is not the fold of its log"
    );
    // Every durability mark the cluster ever acknowledged is a prefix
    // of the surviving history.
    for &(len, head) in c.acked_marks() {
        assert!(len <= plog.len(), "{what} seed {seed:#x}: acked past end");
        assert_eq!(
            plog.prefix(len).head(),
            head,
            "{what} seed {seed:#x}: acked prefix {len} rewritten"
        );
    }
}

#[test]
fn hostile_link_sweep_reconverges_soundly() {
    // At least two seeds, so even a capped run walks more than one
    // hostile schedule.
    for seed in 0..mks_bench::sweep_seeds(60).max(2) {
        let mut c = cluster(seed);
        c.arm(&FaultPlan::generate_replication(seed));
        let report = drive_mixed_workload(&mut c, seed, 40);
        c.disarm();
        assert!(
            c.run_quiet(6000),
            "hostile sweep seed {seed:#x} failed to reconverge"
        );
        assert_sound(&c, "hostile sweep", seed);
        assert_eq!(
            report.salvage_problems, 0,
            "salvager found damage at seed {seed:#x}"
        );
        assert!(!report.boot_divergence, "boot hash moved at seed {seed:#x}");
    }
}

#[test]
fn every_replication_fault_kind_fires_and_stays_sound() {
    for (i, &kind) in InjectKind::REPLICATION.iter().enumerate() {
        let seed = 0x3000 + i as u64;
        let plan = FaultPlan {
            seed,
            events: [2u64, 9, 17, 31]
                .iter()
                .map(|&nth| FaultEvent {
                    kind,
                    nth,
                    detail: seed.wrapping_mul(0x9e37_79b9).wrapping_add(nth),
                })
                .collect(),
        };
        let mut c = cluster(seed);
        c.arm(&plan);
        drive_mixed_workload(&mut c, seed, 30);
        c.disarm();
        assert!(
            c.fired().iter().any(|f| f.kind == kind),
            "{} never fired",
            kind.name()
        );
        assert!(
            c.run_quiet(6000),
            "{} run failed to reconverge",
            kind.name()
        );
        assert_sound(&c, kind.name(), seed);
    }
}

#[test]
fn a_quiet_cluster_replicates_everything_it_seals() {
    let mut c = cluster(0xc0a1);
    let report = drive_mixed_workload(&mut c, 0xc0a1, 30);
    assert!(c.run_quiet(2000));
    assert!(report.submitted > 0);
    assert_eq!(report.retries, 0, "no faults, so no client retries");
    assert_eq!(c.promotions(), 0, "no faults, so no elections");
    assert_sound(&c, "quiet", 0xc0a1);
}

#[test]
fn primary_crash_fails_over_and_fences_the_deposed_sealer() {
    let mut c = cluster(0xfe11);
    drive_mixed_workload(&mut c, 0xfe11, 15);
    c.arm(&FaultPlan {
        seed: 0xfe11,
        events: vec![FaultEvent {
            kind: InjectKind::ReplPrimaryCrash,
            nth: 0,
            detail: 16, // restart at +19 ticks, after the election
        }],
    });
    assert!(matches!(
        c.submit(&Commit::Tick { times: 1 }),
        Err(ReplError::Down { .. })
    ));
    c.disarm();
    let mut deposed_refused = false;
    for _ in 0..160 {
        c.tick();
        if c.primary().is_some() && c.role_of(0) == Role::Backup && c.epoch_of(0) < c.max_epoch() {
            deposed_refused |= matches!(
                c.seal_as(0, &Commit::Tick { times: 1 }),
                Err(ReplError::Deposed { .. })
            );
        }
        if c.promotions() > 0 && deposed_refused {
            break;
        }
    }
    assert!(c.promotions() >= 1, "the crash must force an election");
    assert!(deposed_refused, "the deposed sealer must be refused");
    assert!(c.run_quiet(6000));
    let primary = c.primary().expect("healed");
    assert!(
        c.log_of(primary).entries().iter().any(|s| match &s.commit {
            Commit::Audit { event, .. } => format!("{event:?}").contains("repl fence"),
            _ => false,
        }),
        "the fence must be audited into the replicated history"
    );
    assert_sound(&c, "crash failover", 0xfe11);
}

#[test]
fn divergent_tails_are_healed_by_snapshot_migration() {
    let mut c = cluster(0xd1f7);
    drive_mixed_workload(&mut c, 0xd1f7, 15);
    assert!(c.run_quiet(2000));
    // Orphan one seal (both append frames eaten), then crash the
    // primary; the new primary's history diverges at the orphan's seq.
    c.arm(&FaultPlan {
        seed: 0xd1f7,
        events: vec![
            FaultEvent {
                kind: InjectKind::ReplDrop,
                nth: 0,
                detail: 0,
            },
            FaultEvent {
                kind: InjectKind::ReplDrop,
                nth: 1,
                detail: 0,
            },
            FaultEvent {
                kind: InjectKind::ReplPrimaryCrash,
                nth: 1,
                detail: 16,
            },
        ],
    });
    assert!(c.submit(&Commit::Tick { times: 3 }).is_ok());
    assert!(matches!(
        c.submit(&Commit::Tick { times: 1 }),
        Err(ReplError::Down { .. })
    ));
    c.disarm();
    for _ in 0..80 {
        let _ = c.submit(&Commit::Tick { times: 1 });
        c.tick();
    }
    assert!(c.run_quiet(6000));
    let catchups: u64 = (0..c.replica_count() as u32)
        .map(|id| c.stats_of(id).catchups)
        .sum();
    assert!(
        catchups >= 1,
        "the orphaned tail must be healed by snapshot migration"
    );
    assert_sound(&c, "divergence", 0xd1f7);
}

#[test]
fn metering_status_tracks_the_published_primary() {
    let mut c = cluster(0xbeef);
    drive_mixed_workload(&mut c, 0xbeef, 10);
    assert!(c.run_quiet(2000));
    let primary = c.primary().expect("quiet cluster has a primary");
    let status = c.status_of(primary).expect("the primary publishes");
    assert_eq!(status.role, "primary");
    assert_eq!(status.commits, c.log_of(primary).len());
    assert_eq!(status.epoch, c.epoch_of(primary));
    for id in 0..c.replica_count() as u32 {
        if id != primary {
            let s = c.status_of(id).expect("backups publish too");
            assert_eq!(s.role, "backup");
        }
    }
}
