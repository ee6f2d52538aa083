//! The parallel-kernel integration gate (E19): the whole-kernel
//! sequential==parallel differential, the lane invariants, and the
//! work-stealing metrics' visibility through the read-only metering
//! gate.
//!
//! The differential is the load-bearing check: a lane (one complete,
//! independently seeded kernel world) must produce byte-identical
//! audit-visible state — boot hash, audit log, metrics snapshot, gate
//! census, clock — whatever host thread count carries it and at every
//! simulated CPU count. `MKS_SWEEP_SEEDS` widens the seed sweep for
//! soak runs (the nightly CI sweep runs 24 seeds).

use mks_hw::{SegUid, PAGE_WORDS};
use mks_kernel::monitor::Monitor;
use mks_kernel::par::{differential_mismatches, lane_reports, lane_world_run, LaneConfig};
use mks_kernel::world::{admin_user, System, SystemSize};
use mks_kernel::KernelConfig;
use mks_procs::{SchedMode, TcConfig, TrafficController};
use mks_vm::parallel::TraceJob;
use mks_vm::{BulkFreerJob, ClockPolicy, CoreFreerJob, ParallelConfig, ParallelPageControl};

fn cfg(seed: u64, nr_cpus: usize) -> LaneConfig {
    LaneConfig {
        lanes: 3,
        threads: 1,
        nr_cpus,
        seed: 0xA11 + seed * 0x0101,
        procs: 2,
        refs_per_proc: 24,
    }
}

#[test]
fn whole_kernel_differential_is_clean_across_the_seed_sweep() {
    // Six seeds by default: the width CI has always run this sweep at.
    for seed in 0..mks_bench::sweep_seeds(6) {
        assert_eq!(
            differential_mismatches(&cfg(seed, 4), 4),
            0,
            "thread count changed a lane report at seed {seed}"
        );
    }
}

#[test]
fn every_simulated_cpu_count_keeps_the_lane_invariants() {
    for nr_cpus in 1..=8 {
        for r in lane_reports(&cfg(0, nr_cpus)) {
            assert_eq!(r.census, 54, "{nr_cpus} CPUs: gate census moved");
            assert_eq!(r.lock_violations, 0, "{nr_cpus} CPUs: lock order violated");
            assert!(r.steps > 0, "{nr_cpus} CPUs: lane {} ran nothing", r.lane);
            assert!(r.faults > 0, "{nr_cpus} CPUs: lane {} never paged", r.lane);
        }
    }
}

#[test]
fn lane_fleet_is_deterministic_at_full_thread_fanout() {
    let wide = LaneConfig {
        threads: 4,
        ..cfg(1, 4)
    };
    assert_eq!(lane_reports(&wide), lane_reports(&wide));
}

#[test]
fn single_lane_rerun_is_bit_stable() {
    let c = cfg(2, 4);
    assert_eq!(lane_world_run(&c, 0), lane_world_run(&c, 0));
}

/// The work-stealing scheduler's observability surface flows through
/// the same read-only gate as every other kernel metric: a user-ring
/// call to `hcs_$metering_get` sees the steal counter, the per-CPU
/// queue depths, and the lock-contention counter — and a global-queue
/// (baseline) world's registry carries none of the `par.*` family, so
/// the pinned baseline snapshots stay byte-identical.
#[test]
fn worksteal_metrics_are_visible_through_the_metering_gate() {
    let mut sys = System::with_size(
        KernelConfig::kernel(),
        SystemSize {
            frames: 16,
            bulk_records: 64,
            ..SystemSize::default()
        },
    );
    let mut tc: TrafficController<mks_kernel::KernelWorld> = TrafficController::new(TcConfig {
        nr_cpus: 4,
        nr_vprocs: 8,
        quantum: 2,
        sched: SchedMode::WorkStealing { seed: 0xE19 },
    });
    sys.world.pc = ParallelPageControl::new(
        ParallelConfig {
            core_low: 2,
            core_target: 4,
            bulk_low: 4,
            bulk_target: 8,
        },
        &mut tc,
    );
    tc.add_dedicated(Box::new(CoreFreerJob::new(
        Box::new(ClockPolicy::default()),
    )));
    tc.add_dedicated(Box::new(BulkFreerJob));
    for p in 0..3u64 {
        let uid = SegUid(0x900 + p);
        sys.world.vm.machine.ast.activate(uid, 8 * PAGE_WORDS);
        let refs: Vec<(SegUid, usize)> = (0..24).map(|i| (uid, (i * 3 + p as usize) % 8)).collect();
        tc.spawn(Box::new(TraceJob::new(refs, 4)));
    }
    let out = tc.run_until_quiet(&mut sys.world, 1_000_000);
    assert!(out.quiescent);

    let pid = sys
        .world
        .create_process(admin_user(), mks_mls::Label::BOTTOM, 4);
    let json = Monitor::metering_snapshot(&mut sys.world, pid).expect("gate call");
    assert!(json.contains("par.tc.queue_depth.0"), "depth gauge missing");
    assert!(json.contains("par.tc.queue_depth.3"), "depth gauge missing");
    if tc.stats().steals > 0 {
        assert!(json.contains("par.tc.steals"), "steal counter missing");
        assert!(
            json.contains("par.lock.contention"),
            "contention counter missing"
        );
    }

    // The baseline arm: a stock (global-queue) system run the same way
    // must not grow any `par.*` registry entries.
    let mut base = System::with_size(
        KernelConfig::kernel(),
        SystemSize {
            frames: 16,
            bulk_records: 64,
            ..SystemSize::default()
        },
    );
    let pid = base
        .world
        .create_process(admin_user(), mks_mls::Label::BOTTOM, 4);
    let json = Monitor::metering_snapshot(&mut base.world, pid).expect("gate call");
    assert!(
        !json.contains("par."),
        "baseline registry must stay free of the par.* family"
    );
}
