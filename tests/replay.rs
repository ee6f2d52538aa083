//! The replayable-kernel integration gate (E20): the live-vs-replayed
//! boundary differential across seeded fault and overload workloads,
//! snapshot/restore at arbitrary prefixes, typed rejection of tampered
//! logs, and the mutation arms that prove the differential has teeth.
//!
//! Everything here folds *recorded* logs — the driver never re-runs, so
//! any input a workload smuggled past the commit stream shows up as a
//! boundary mismatch. `MKS_SWEEP_SEEDS` widens the seed sweep for soak
//! runs (the nightly CI sweep runs 240 seeds).

use mks_kernel::statemachine::workload::{
    record_fault_run, record_overload_ladder, RecordedRun, WorkloadSpec,
};
use mks_kernel::statemachine::{
    reduce, replay_differential, restore, snapshot_at, Commit, CommitLog, Genesis, ReplayError,
    ReplayMutation, TimeTravel,
};

fn sweep_seeds() -> u64 {
    // At least two: the overload sweep runs half as many seeds, and
    // must still run one.
    mks_bench::sweep_seeds(60).max(2)
}

fn fault_run(seed: u64) -> (Genesis, RecordedRun) {
    let genesis = Genesis::kernel_small();
    let run = record_fault_run(&genesis, &WorkloadSpec::faults(seed));
    (genesis, run)
}

/// Zero boundary mismatches, or a named field and boundary on failure.
fn assert_clean(genesis: &Genesis, run: &RecordedRun, what: &str, seed: u64) {
    let log = &run.sm.world().commits;
    log.verify().expect("a recorded log verifies");
    assert_eq!(
        log.head(),
        run.boundaries.last().expect("nonempty").log_digest,
        "the final boundary must export the chain head"
    );
    let mismatches = replay_differential(genesis, log, &run.boundaries)
        .expect("recorded boundaries cover the log");
    assert_eq!(
        mismatches,
        Vec::new(),
        "{what} seed {seed:#x} replayed with boundary mismatches"
    );
}

#[test]
fn fault_sweep_replays_with_zero_mismatches() {
    for seed in 0..sweep_seeds() {
        let (genesis, run) = fault_run(seed);
        assert_clean(&genesis, &run, "fault run", seed);
        assert!(!run.boot_divergence, "boot check diverged at seed {seed}");
    }
}

#[test]
fn overload_runs_replay_with_zero_mismatches() {
    let genesis = Genesis::kernel_small();
    for seed in 0..sweep_seeds() / 2 {
        let run = record_fault_run(&genesis, &WorkloadSpec::overload(seed));
        assert_clean(&genesis, &run, "overload fault run", seed);
    }
}

#[test]
fn overload_ladder_replays_with_zero_mismatches() {
    let genesis = Genesis::kernel_small();
    for seed in 0..(sweep_seeds() / 8).max(2) {
        let run = record_overload_ladder(&genesis, seed);
        assert_clean(&genesis, &run, "overload ladder", seed);
        assert!(!run.crashed, "the ladder strips Crash events");
    }
}

#[test]
fn snapshots_restore_at_arbitrary_prefixes() {
    let (genesis, run) = fault_run(0x5eed);
    let log = &run.sm.world().commits;
    // Genesis, first commit, a mid-log spread, and the full log.
    let mut cuts = vec![0, 1, log.len() - 1, log.len()];
    for k in 1..8 {
        cuts.push(k * log.len() / 8);
    }
    for upto in cuts {
        let snap = snapshot_at(&genesis, log, upto).expect("in-range prefix snapshots");
        assert_eq!(snap.digest, run.boundaries[upto as usize]);
        let sm = restore(&snap).expect("snapshot restores");
        assert_eq!(
            sm.digest(),
            snap.digest,
            "restore diverged at prefix {upto}"
        );
        // Resume: the restored machine keeps sealing on the same chain.
        let resumed = {
            let mut sm = sm;
            sm.apply(&Commit::Tick { times: 1 });
            sm
        };
        assert_eq!(resumed.world().commits.len(), upto + 1);
    }
}

#[test]
fn truncated_logs_are_rejected_with_typed_errors() {
    let (genesis, run) = fault_run(7);
    let log = &run.sm.world().commits;
    let cut = log.prefix(log.len() - 2);
    // Internally consistent — only the head check catches it.
    cut.verify().expect("a prefix verifies");
    assert_eq!(
        cut.verify_head(log.len(), log.head()),
        Err(ReplayError::Truncated {
            expected: log.len(),
            found: log.len() - 2,
        })
    );
    // A boundary list that outruns the log is the same defect.
    assert!(matches!(
        replay_differential(&genesis, &cut, &run.boundaries),
        Err(ReplayError::Truncated { .. })
    ));
}

#[test]
fn raw_tampering_is_rejected_with_typed_errors() {
    let (genesis, run) = fault_run(11);
    let log = &run.sm.world().commits;

    // Reorder without re-sealing: the seals no longer sit at their
    // positions.
    let mut entries = log.entries().to_vec();
    entries.swap(3, 4);
    let reordered = CommitLog::from_parts(log.base(), entries);
    assert!(matches!(
        reordered.verify(),
        Err(ReplayError::NonMonotonic { at: 3, .. })
    ));

    // Rewrite a payload in place: the chain no longer recomputes.
    let mut entries = log.entries().to_vec();
    entries[5].commit = Commit::Tick { times: 99 };
    let rewritten = CommitLog::from_parts(log.base(), entries);
    assert!(matches!(
        rewritten.verify(),
        Err(ReplayError::ChainMismatch { seq: 5, .. })
    ));

    // Root the log at a foreign genesis: reduce refuses before touching
    // a single commit.
    let foreign = CommitLog::from_parts(log.base() ^ 0xdead, log.entries().to_vec());
    assert!(matches!(
        reduce(&genesis, &foreign),
        Err(ReplayError::BaseMismatch { .. })
    ));
}

/// Each log mutation arm re-seals covertly — `verify` passes — and the
/// boundary differential must still catch it on every swept seed.
#[test]
fn covert_mutation_arms_are_detected_across_the_sweep() {
    for seed in 0..(sweep_seeds() / 4).max(4) {
        let (genesis, run) = fault_run(seed);
        let log = &run.sm.world().commits;

        let (skipped, applied) = ReplayMutation::SkipCommit { nth: log.len() / 2 }.mutate_log(log);
        assert!(applied);
        skipped.verify().expect("the arm re-seals covertly");
        let caught = match replay_differential(&genesis, &skipped, &run.boundaries) {
            Err(ReplayError::Truncated { .. }) => true,
            Ok(mismatches) => !mismatches.is_empty(),
            Err(e) => panic!("unexpected rejection {e:?}"),
        };
        assert!(caught, "SkipCommit went undetected at seed {seed:#x}");

        let first = (0..log.len() - 1)
            .find(|&i| ReplayMutation::ReorderPair { first: i }.mutate_log(log).1)
            .expect("some adjacent pair is distinct");
        let (reordered, _) = ReplayMutation::ReorderPair { first }.mutate_log(log);
        reordered.verify().expect("the arm re-seals covertly");
        let mismatches = replay_differential(&genesis, &reordered, &run.boundaries)
            .expect("same length, so the differential runs");
        assert!(
            !mismatches.is_empty(),
            "ReorderPair went undetected at seed {seed:#x}"
        );

        let forged = ReplayMutation::StaleSnapshot {
            upto: log.len() / 2,
        }
        .forge_snapshot(&genesis, log)
        .expect("forgery builds")
        .expect("midpoint is in range");
        assert!(
            matches!(restore(&forged), Err(ReplayError::SnapshotStale { .. })),
            "StaleSnapshot went undetected at seed {seed:#x}"
        );
    }
}

#[test]
fn time_travel_joins_are_total_over_a_recorded_run() {
    let (_, run) = fault_run(0x1a);
    let log = &run.sm.world().commits;
    let tt = TimeTravel::new(log, &run.boundaries).expect("artifacts match");
    for (seq, commit) in tt.blame_denials(&run.sm.world().log) {
        let c = commit.unwrap_or_else(|| panic!("denial {seq} has no provenance commit"));
        assert!(c < log.len());
        // The window around the blamed commit contains it.
        assert!(tt.window(c, 2).iter().any(|s| s.seq == c));
    }
    let last = run.boundaries.last().expect("nonempty");
    assert_eq!(tt.commit_at_clock(last.clock + 1), log.len());
}

/// The digest's census field rides the same read-only path the
/// metering gate exports: the kernel census stays pinned while the
/// commit log's head tracks every seal.
#[test]
fn boundary_digests_pin_census_and_export_the_log_head() {
    let (genesis, run) = fault_run(2);
    let log = &run.sm.world().commits;
    for (k, b) in run.boundaries.iter().enumerate() {
        assert_eq!(b.census, 54, "census moved at boundary {k}");
        assert_eq!(b.seq, k as u64);
        assert_eq!(b.boot_hash, genesis.boot_hash());
        assert_eq!(b.log_digest, log.prefix(k as u64).head());
    }
}
