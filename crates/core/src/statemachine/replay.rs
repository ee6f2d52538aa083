//! Replay, snapshot/restore, and the differential that gates them.
//!
//! [`reduce`] folds a sealed log back into a machine, checking each
//! seal against the rebuilt chain before its commit runs, so a
//! tampered log is a typed error and never reaches the dispatcher.
//! [`snapshot_at`]/[`restore`] derive checkpoint/resume from any log
//! prefix, and [`ReplayMutation`] deliberately breaks the replay path
//! so the harness can prove its own teeth (the E20 mutation arms,
//! mirroring E15's `SalvageMutation`).

use super::commit::{CommitLog, ReplayError};
use super::{Genesis, KernelStateMachine, StateDigest};

/// One divergence between a live boundary digest and its replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mismatch {
    /// The commit boundary at which the digests differ (0 = genesis).
    pub seq: u64,
    /// Which digest field diverged.
    pub field: &'static str,
    /// The live run's value.
    pub live: u64,
    /// The replayed value.
    pub replayed: u64,
}

/// Folds a log into a fresh machine: builds the genesis, then applies
/// every commit in order through `KernelStateMachine::apply_sealed`,
/// which checks each seal against the rebuilt chain before the commit
/// runs and keeps it as given. Each commit is sealed once, and a log
/// that fails [`CommitLog::verify`] fails here with the same typed error.
pub fn reduce(genesis: &Genesis, log: &CommitLog) -> Result<KernelStateMachine, ReplayError> {
    if log.base() != genesis.digest() {
        return Err(ReplayError::BaseMismatch {
            expected: genesis.digest(),
            found: log.base(),
        });
    }
    let mut sm = genesis.build();
    // The rebuilt log ends exactly as long as the input: sized up front,
    // it never regrows, so no doubling copy adds to the peak memory.
    sm.world_mut().commits.reserve(log.len());
    for sealed in log.entries() {
        sm.apply_sealed(sealed)?;
    }
    Ok(sm)
}

/// The headline E20 check: replays `log` from `genesis` and compares
/// the replayed [`StateDigest`] against the live run's at *every*
/// commit boundary (`live[0]` is the digest before the first commit,
/// `live[k]` the digest after commit `k-1`). Returns every field-level
/// divergence; an honest log replays with zero mismatches.
pub fn replay_differential(
    genesis: &Genesis,
    log: &CommitLog,
    live: &[StateDigest],
) -> Result<Vec<Mismatch>, ReplayError> {
    if live.len() as u64 != log.len() + 1 {
        return Err(ReplayError::Truncated {
            expected: live.len().saturating_sub(1) as u64,
            found: log.len(),
        });
    }
    if log.base() != genesis.digest() {
        return Err(ReplayError::BaseMismatch {
            expected: genesis.digest(),
            found: log.base(),
        });
    }
    let mut sm = genesis.build();
    let mut mismatches = Vec::new();
    let mut compare = |seq: u64, live: &StateDigest, replayed: &StateDigest| {
        for (field, l, r) in live.diff(replayed) {
            mismatches.push(Mismatch {
                seq,
                field,
                live: l,
                replayed: r,
            });
        }
    };
    compare(0, &live[0], &sm.digest());
    for sealed in log.entries() {
        sm.apply_sealed(sealed)?;
        compare(sealed.seq + 1, &live[sealed.seq as usize + 1], &sm.digest());
    }
    Ok(mismatches)
}

/// A checkpoint derived from a log prefix: the prefix itself plus the
/// position, chain head and state digest it claims to represent. A
/// snapshot is *evidence*, not authority — [`restore`] re-derives the
/// state from the prefix and rejects any claim that does not recompute.
#[derive(Clone, PartialEq, Debug)]
pub struct MachineSnapshot {
    /// The assembly recipe.
    pub genesis: Genesis,
    /// How many commits the snapshot covers.
    pub upto: u64,
    /// The chain head at that prefix.
    pub chain_head: u64,
    /// The state digest at that boundary.
    pub digest: StateDigest,
    /// The commits themselves.
    pub prefix: CommitLog,
}

/// Takes a snapshot at commit boundary `upto` (0 = genesis) by
/// replaying that prefix of `log`.
pub fn snapshot_at(
    genesis: &Genesis,
    log: &CommitLog,
    upto: u64,
) -> Result<MachineSnapshot, ReplayError> {
    if upto > log.len() {
        return Err(ReplayError::Truncated {
            expected: upto,
            found: log.len(),
        });
    }
    let prefix = log.prefix(upto);
    let sm = reduce(genesis, &prefix)?;
    Ok(MachineSnapshot {
        genesis: *genesis,
        upto,
        chain_head: prefix.head(),
        digest: sm.digest(),
        prefix,
    })
}

/// Re-derives a machine from a snapshot, verifying every claim the
/// snapshot makes: the prefix length and chain head must match its
/// position, and the replayed state must reproduce its digest. A stale
/// or mislabeled snapshot fails with [`ReplayError::SnapshotStale`].
pub fn restore(snap: &MachineSnapshot) -> Result<KernelStateMachine, ReplayError> {
    if snap.prefix.len() != snap.upto || snap.prefix.head() != snap.chain_head {
        return Err(ReplayError::SnapshotStale {
            upto: snap.upto,
            expected: snap.chain_head,
            found: snap.prefix.head(),
        });
    }
    let sm = reduce(&snap.genesis, &snap.prefix)?;
    let digest = sm.digest();
    if digest != snap.digest {
        return Err(ReplayError::SnapshotStale {
            upto: snap.upto,
            expected: snap.digest.log_digest,
            found: digest.log_digest,
        });
    }
    Ok(sm)
}

/// Re-snapshots a machine from its own log — the second half of the
/// `snapshot(restore(s)) == s` round-trip property.
pub fn resnapshot(sm: &KernelStateMachine) -> MachineSnapshot {
    let log = &sm.world().commits;
    MachineSnapshot {
        genesis: sm.genesis(),
        upto: log.len(),
        chain_head: log.head(),
        digest: sm.digest(),
        prefix: log.clone(),
    }
}

/// A deliberate defect in the replay path, used to prove the harness
/// has teeth (the E20 mutation check, mirroring E15's
/// `SalvageMutation`). The log mutations re-seal covertly, so they
/// pass [`CommitLog::verify`] — only the boundary differential can
/// catch them. The snapshot mutation forges a checkpoint's position —
/// [`restore`]'s recomputation must reject it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplayMutation {
    /// Replay as shipped.
    None,
    /// Drop one commit from the middle of the log and re-seal.
    SkipCommit {
        /// Which commit to drop.
        nth: u64,
    },
    /// Swap two adjacent commits and re-seal.
    ReorderPair {
        /// The first of the swapped pair.
        first: u64,
    },
    /// Label a snapshot of prefix `upto - 1` as covering `upto`.
    StaleSnapshot {
        /// The claimed (forged) position.
        upto: u64,
    },
}

impl ReplayMutation {
    /// Applies a *log* mutation, returning the covertly re-sealed log
    /// (and whether the mutation actually changed anything).
    /// `StaleSnapshot` does not mutate logs — see
    /// [`ReplayMutation::forge_snapshot`].
    pub fn mutate_log(&self, log: &CommitLog) -> (CommitLog, bool) {
        match *self {
            ReplayMutation::None | ReplayMutation::StaleSnapshot { .. } => (log.clone(), false),
            ReplayMutation::SkipCommit { nth } => {
                if nth >= log.len() {
                    return (log.clone(), false);
                }
                (
                    log.resealed(|commits| {
                        commits.remove(nth as usize);
                    }),
                    true,
                )
            }
            ReplayMutation::ReorderPair { first } => {
                if first + 1 >= log.len() {
                    return (log.clone(), false);
                }
                let distinct =
                    log.get(first).map(|s| &s.commit) != log.get(first + 1).map(|s| &s.commit);
                (
                    log.resealed(|commits| {
                        commits.swap(first as usize, first as usize + 1);
                    }),
                    distinct,
                )
            }
        }
    }

    /// Forges a stale checkpoint: the prefix and chain head of `upto`
    /// (so the cheap position checks pass) carrying the state digest of
    /// `upto - 1`. Only [`restore`]'s full recomputation catches it.
    /// Only meaningful for [`ReplayMutation::StaleSnapshot`].
    pub fn forge_snapshot(
        &self,
        genesis: &Genesis,
        log: &CommitLog,
    ) -> Result<Option<MachineSnapshot>, ReplayError> {
        let ReplayMutation::StaleSnapshot { upto } = *self else {
            return Ok(None);
        };
        if upto == 0 || upto > log.len() {
            return Ok(None);
        }
        let stale = snapshot_at(genesis, log, upto - 1)?;
        let prefix = log.prefix(upto);
        Ok(Some(MachineSnapshot {
            genesis: *genesis,
            upto,
            chain_head: prefix.head(),
            digest: stale.digest,
            prefix,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::super::workload::{record_fault_run, WorkloadSpec};
    use super::super::SealedCommit;
    use super::*;
    use mks_hw::FaultPlan;

    fn small_run() -> (Genesis, super::super::workload::RecordedRun) {
        let genesis = Genesis::kernel_small();
        let spec = WorkloadSpec {
            seed: 0x51,
            ops: 6,
            plan: FaultPlan::generate(0x51),
            overload: false,
        };
        (genesis, record_fault_run(&genesis, &spec))
    }

    #[test]
    fn reduce_reproduces_the_live_machine() {
        let (genesis, run) = small_run();
        let replayed = reduce(&genesis, &run.sm.world().commits).expect("honest log reduces");
        assert_eq!(replayed.digest(), run.sm.digest());
        let mismatches = replay_differential(&genesis, &run.sm.world().commits, &run.boundaries)
            .expect("honest log replays");
        assert_eq!(mismatches, Vec::new());
    }

    #[test]
    fn a_rejected_seal_changes_nothing() {
        let (genesis, run) = small_run();
        let first = run.sm.world().commits.entries()[0].clone();
        let mut sm = genesis.build();
        let before = sm.digest();
        let forged = SealedCommit {
            chain: first.chain ^ 1,
            ..first.clone()
        };
        assert!(matches!(
            sm.apply_sealed(&forged),
            Err(ReplayError::ChainMismatch { seq: 0, .. })
        ));
        let skipped = SealedCommit {
            seq: 1,
            ..first.clone()
        };
        assert_eq!(
            sm.apply_sealed(&skipped),
            Err(ReplayError::NonMonotonic { at: 0, seq: 1 })
        );
        assert_eq!(sm.digest(), before, "a rejected seal must not run");
        sm.apply_sealed(&first).expect("the honest seal applies");
        assert_eq!(sm.world().commits.head(), first.chain);
        assert_ne!(sm.digest().processes, before.processes);
    }

    #[test]
    fn reduce_rejects_a_foreign_base() {
        let (genesis, run) = small_run();
        let log = &run.sm.world().commits;
        let foreign = CommitLog::from_parts(log.base() ^ 1, log.entries().to_vec());
        assert_eq!(
            reduce(&genesis, &foreign).err(),
            Some(ReplayError::BaseMismatch {
                expected: genesis.digest(),
                found: genesis.digest() ^ 1,
            })
        );
    }

    #[test]
    fn differential_rejects_short_boundary_lists() {
        let (genesis, run) = small_run();
        let log = &run.sm.world().commits;
        let short = &run.boundaries[..run.boundaries.len() - 1];
        assert!(matches!(
            replay_differential(&genesis, log, short),
            Err(ReplayError::Truncated { .. })
        ));
    }

    #[test]
    fn snapshot_restore_round_trips_at_a_midpoint() {
        let (genesis, run) = small_run();
        let log = &run.sm.world().commits;
        let upto = log.len() / 2;
        let snap = snapshot_at(&genesis, log, upto).expect("prefix snapshots");
        let sm = restore(&snap).expect("snapshot restores");
        assert_eq!(sm.digest(), snap.digest);
        assert_eq!(resnapshot(&sm), snap);
    }

    #[test]
    fn snapshot_past_the_log_is_typed() {
        let (genesis, run) = small_run();
        let log = &run.sm.world().commits;
        assert!(matches!(
            snapshot_at(&genesis, log, log.len() + 1),
            Err(ReplayError::Truncated { .. })
        ));
    }

    #[test]
    fn skip_commit_arm_is_caught_by_the_differential() {
        let (genesis, run) = small_run();
        let log = &run.sm.world().commits;
        let (mutated, applied) = ReplayMutation::SkipCommit { nth: log.len() / 2 }.mutate_log(log);
        assert!(applied);
        mutated.verify().expect("the arm is covert");
        // The mutated log is one commit short: either the length check or
        // the boundary digests must refuse it.
        match replay_differential(&genesis, &mutated, &run.boundaries) {
            Err(ReplayError::Truncated { .. }) => {}
            Ok(mismatches) => assert!(!mismatches.is_empty()),
            Err(e) => panic!("unexpected rejection {e:?}"),
        }
    }

    #[test]
    fn reorder_pair_arm_is_caught_by_the_differential() {
        let (genesis, run) = small_run();
        let log = &run.sm.world().commits;
        // Find an adjacent pair of distinct commits (always exists: the
        // recovery tail is heterogeneous).
        let first = (0..log.len() - 1)
            .find(|&i| ReplayMutation::ReorderPair { first: i }.mutate_log(log).1)
            .expect("some adjacent pair is distinct");
        let (mutated, _) = ReplayMutation::ReorderPair { first }.mutate_log(log);
        mutated.verify().expect("the arm is covert");
        let mismatches = replay_differential(&genesis, &mutated, &run.boundaries)
            .expect("same length, so the differential itself runs");
        assert!(
            !mismatches.is_empty(),
            "reorder must move some boundary digest"
        );
    }

    #[test]
    fn stale_snapshot_arm_is_caught_by_restore() {
        let (genesis, run) = small_run();
        let log = &run.sm.world().commits;
        let upto = log.len() / 2;
        let forged = ReplayMutation::StaleSnapshot { upto }
            .forge_snapshot(&genesis, log)
            .expect("forgery builds")
            .expect("upto is in range");
        assert_eq!(forged.upto, upto, "the forgery claims the right position");
        assert!(matches!(
            restore(&forged),
            Err(ReplayError::SnapshotStale { .. })
        ));
    }

    /// Pinned regression: the differential's reorder arm once panicked
    /// the replayer — swapping `CreateProcess`/`BindRoot` put a
    /// dangling pid in front of the process table and `dispatch` hit
    /// the world's kernel-internal `expect`. A chain-valid log is
    /// still external data: a dangling acting pid must be a typed
    /// refusal, applied and sealed like any other verdict.
    #[test]
    fn dangling_acting_pid_refuses_instead_of_panicking() {
        let genesis = Genesis::kernel_small();
        let mut sm = genesis.build();
        let out = sm.apply(&super::super::Commit::BindRoot {
            pid: crate::world::KProcId(77),
        });
        assert_eq!(
            out,
            super::super::Outcome::Refused("NoSuchProcess(KProcId(77))".into())
        );
        // The refusal sealed and the machine is still live.
        assert_eq!(sm.world().commits.len(), 1);
        assert_eq!(sm.digest().processes, 0);
    }

    #[test]
    fn none_arm_changes_nothing() {
        let (_, run) = small_run();
        let log = &run.sm.world().commits;
        let (same, applied) = ReplayMutation::None.mutate_log(log);
        assert!(!applied);
        assert_eq!(&same, log);
    }
}
