//! E18 scale integration tests: world generation is byte-deterministic
//! for a pinned seed, and the indexed hot paths agree with their
//! retained linear-scan specifications on arbitrary inputs — not just
//! the curated rungs the experiment samples.
//!
//! The sweep honors `MKS_SWEEP_SEEDS` like the experiment does, so a
//! soak run can widen it without touching the source.

use mks_bench::scale::{
    acl_differential, audit_batch_parity, build_world, lookup_differential, run_traffic,
    world_digest, PopulationModel, MAX_SESSIONS,
};
use mks_fs::UserId;
use proptest::prelude::*;

/// Sweep width: `MKS_SWEEP_SEEDS` or a CI-friendly default.
fn sweep_seeds() -> u64 {
    mks_bench::sweep_seeds(4)
}

/// The same pinned seed must produce the same world, op for op and
/// audit record for audit record — `world_digest` folds the clock, the
/// hierarchy, the registry ACL, and the audit log, so any divergence
/// anywhere in the kernel's state shows up here.
#[test]
fn pinned_seed_rebuilds_a_byte_identical_world() {
    for seed in 0..sweep_seeds() {
        let digests: Vec<u64> = (0..2)
            .map(|_| {
                let model = PopulationModel::new(2_000, seed);
                let mut sw = build_world(&model);
                run_traffic(&mut sw, 5_000, seed);
                world_digest(&sw)
            })
            .collect();
        assert_eq!(
            digests[0], digests[1],
            "seed {seed}: world generation must be deterministic"
        );
    }
}

/// Different seeds must actually produce different worlds — a digest
/// that never moves would make the determinism test vacuous.
#[test]
fn the_digest_separates_seeds() {
    let d: Vec<u64> = (0..2)
        .map(|seed| {
            let model = PopulationModel::new(1_000, seed);
            let mut sw = build_world(&model);
            run_traffic(&mut sw, 2_000, seed);
            world_digest(&sw)
        })
        .collect();
    assert_ne!(d[0], d[1]);
}

/// The experiment's own differentials, across the sweep seeds: indexed
/// ACL checks and directory lookups give the same verdicts as the
/// linear specs after arbitrary traffic has churned the structures.
#[test]
fn indexed_paths_match_linear_specs_across_the_sweep() {
    for seed in 0..sweep_seeds() {
        let model = PopulationModel::new(3_000, seed);
        let mut sw = build_world(&model);
        run_traffic(&mut sw, 8_000, seed);
        let (acl_mismatches, evals, _, _) = acl_differential(&sw, 200);
        assert_eq!(acl_mismatches, 0, "seed {seed}: ACL index diverged");
        assert!(evals > 0);
        assert_eq!(
            lookup_differential(&sw, 100),
            0,
            "seed {seed}: hierarchy index diverged"
        );
        assert!(sw.nr_sessions() <= MAX_SESSIONS);
    }
}

/// Batched audit emission stays byte-identical to one-at-a-time
/// emission (the experiment checks this once; keep it pinned here too
/// so a batching change fails fast in `cargo test`).
#[test]
fn audit_batching_stays_byte_identical() {
    assert!(audit_batch_parity());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On a fixed built world, the indexed ACL check agrees with the
    /// linear spec for *arbitrary* principals — population members,
    /// strangers in real projects, and principals from projects that
    /// do not exist.
    #[test]
    fn acl_index_agrees_with_linear_spec_on_arbitrary_principals(
        idxs in prop::collection::vec(0u64..20_000, 1..24),
        stranger_tags in prop::collection::vec("[a-z]{1,6}", 1..8),
    ) {
        let model = PopulationModel::new(20_000, 0xE18);
        let sw = build_world(&model);
        let acl = sw.registry_acl();
        for &i in &idxs {
            let u = model.principal(i);
            let (indexed, _) = acl.effective_counted(&u);
            prop_assert_eq!(indexed, acl.effective_linear(&u));
        }
        for t in &stranger_tags {
            let u = UserId::new("Ghost", t, "a");
            let (indexed, _) = acl.effective_counted(&u);
            prop_assert_eq!(indexed, acl.effective_linear(&u));
        }
    }

    /// Directory lookups through the name index agree with the linear
    /// scan for arbitrary project names, present or absent.
    #[test]
    fn dir_lookup_index_agrees_with_linear_spec(
        ks in prop::collection::vec(0usize..64, 1..24),
        misses in prop::collection::vec("[A-Za-z]{1,8}", 1..8),
    ) {
        let model = PopulationModel::new(10_000, 0xE18);
        let sw = build_world(&model);
        let fs = &sw.sys.world.fs;
        let udd = sw.udd_uid;
        for &k in &ks {
            let name = format!("P{}", k % model.nr_projects());
            prop_assert_eq!(
                fs.peek_branch(udd, &name).is_some(),
                fs.peek_branch_linear(udd, &name).is_some()
            );
        }
        for name in &misses {
            prop_assert_eq!(
                fs.peek_branch(udd, name).is_some(),
                fs.peek_branch_linear(udd, name).is_some()
            );
        }
    }
}
