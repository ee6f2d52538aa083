//! Host-parallel execution of independent kernel **lanes** (E19).
//!
//! The simulated kernel is single-address-space by construction (every
//! `Machine` hangs off `Rc` handles), so host-side parallelism shards at
//! the *world* boundary: a **lane** is a complete, independently seeded
//! [`System`] — boot image, work-stealing traffic controller, parallel
//! page control, audit log, admission control — and [`run_lanes`] fans a
//! set of lanes out over OS threads with a **static** lane→thread
//! assignment (`lane % threads`). Because each lane's result depends only
//! on its own seed, the per-lane [`LaneReport`] must be *byte-identical*
//! whatever `threads` is; the sequential==parallel differential
//! ([`differential_mismatches`]) machine-checks exactly that, extending
//! the page-control differential of `mks_vm::parallel` to the whole
//! kernel: boot hash, audit log, metrics registry, gate census, clock.
//!
//! Anything thread-count-dependent that leaks into a lane — an iteration
//! over a `HashMap` with a per-instance hasher, a host timestamp, a
//! shared counter — shows up here as a digest mismatch, which is the
//! point: determinism is what makes the parallel kernel *certifiable*
//! (the paper's auditing argument depends on reproducible evidence).

use std::thread;

use mks_hw::{SegUid, SplitMix64, PAGE_WORDS};
use mks_procs::{Effects, FnJob, SchedMode, Step, TcConfig, TrafficController};
use mks_vm::parallel::TraceJob;
use mks_vm::{BulkFreerJob, ClockPolicy, CoreFreerJob, ParallelConfig, ParallelPageControl};

use crate::config::KernelConfig;
use crate::init;
use crate::pressure::{PressureConfig, Priority};
use crate::statemachine::audit_and_metrics_digest;
use crate::syslog::AuditEvent;
use crate::world::{admin_user, KernelWorld, System, SystemSize};

/// Shape of a lane fleet: how many lanes, how many host threads carry
/// them, and how big each lane's simulated workload is.
#[derive(Clone, Copy, Debug)]
pub struct LaneConfig {
    /// Independent kernel worlds to run.
    pub lanes: usize,
    /// Host threads to shard them over (1 = run inline, no spawning).
    pub threads: usize,
    /// Simulated CPUs in each lane's work-stealing traffic controller.
    pub nr_cpus: usize,
    /// Base seed; each lane derives its own stream from it.
    pub seed: u64,
    /// Paging processes per lane.
    pub procs: usize,
    /// Page references each paging process issues.
    pub refs_per_proc: usize,
}

impl Default for LaneConfig {
    fn default() -> LaneConfig {
        LaneConfig {
            lanes: 4,
            threads: 1,
            nr_cpus: 4,
            seed: 0xE19,
            procs: 3,
            refs_per_proc: 48,
        }
    }
}

/// Everything audit-visible about one finished lane, digested. Two runs
/// of the same lane must compare equal field-for-field regardless of the
/// host thread count.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LaneReport {
    /// Which lane this is.
    pub lane: usize,
    /// Digest of the boot target state ([`init::state_hash`]).
    pub boot_hash: u64,
    /// FNV-1a digest of the full audit log.
    pub audit_digest: u64,
    /// Number of audit records behind the digest.
    pub audit_records: usize,
    /// FNV-1a digest of the metrics-registry JSON snapshot.
    pub metrics_digest: u64,
    /// Length of the snapshot JSON behind the digest.
    pub metrics_len: usize,
    /// User-available gate census (must stay pinned at 54).
    pub census: usize,
    /// Final simulated clock.
    pub clock: u64,
    /// Job steps the lane's scheduler dispatched.
    pub steps: u64,
    /// Work-stealing migrations that happened.
    pub steals: u64,
    /// Page faults the lane serviced.
    pub faults: u64,
    /// Lock-order violations observed (must be 0).
    pub lock_violations: u64,
}

/// Runs `f(lane)` for every `lane in 0..lanes`, sharded over `threads`
/// host threads with the static assignment `lane % threads`.
///
/// With `threads <= 1` everything runs inline on the caller's thread —
/// that is the baseline arm of the differential, not a degenerate case.
/// Results come back in lane order either way.
///
/// # Panics
/// Propagates a panic from any lane (a poisoned lane must fail the run,
/// not vanish into a thread).
pub fn run_lanes<T, F>(lanes: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || lanes <= 1 {
        return (0..lanes).map(f).collect();
    }
    let threads = threads.min(lanes);
    let mut slots: Vec<Option<T>> = (0..lanes).map(|_| None).collect();
    thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..lanes)
                        .step_by(threads)
                        .map(|lane| (lane, f(lane)))
                        .collect::<Vec<(usize, T)>>()
                })
            })
            .collect();
        for h in handles {
            for (lane, v) in h.join().expect("lane thread panicked") {
                slots[lane] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every lane assigned to exactly one thread"))
        .collect()
}

/// Builds and runs one complete kernel lane, returning its digest.
///
/// The workload deliberately crosses every subsystem the differential
/// guards: process creation and login audits (audit-log lock), a
/// work-stealing scheduler run mixing paging processes with the two
/// dedicated freeing daemons (run-queue locks, page control, AST, bulk
/// map), auditor jobs appending through the kernel choke point
/// mid-schedule, and an admission-control overload slice (E16 shape).
pub fn lane_world_run(cfg: &LaneConfig, lane: usize) -> LaneReport {
    let kcfg = KernelConfig::kernel();
    let boot_hash = init::state_hash(&init::target_state(&kcfg));
    let mut sys = System::with_size(
        kcfg,
        SystemSize {
            frames: 16,
            bulk_records: 64,
            ..SystemSize::default()
        },
    );
    let lane_seed = cfg
        .seed
        .wrapping_add((lane as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));

    // The lane's own scheduler: work-stealing over `nr_cpus` simulated
    // CPUs. The page-control event channels are re-allocated on it so
    // daemon and faulting-process wakeups stay wired up.
    let mut tc: TrafficController<KernelWorld> = TrafficController::new(TcConfig {
        nr_cpus: cfg.nr_cpus,
        nr_vprocs: cfg.procs + 6,
        quantum: 4,
        sched: SchedMode::WorkStealing { seed: lane_seed },
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

    // Login slice: every lane creates (and audits) a few processes.
    for i in 0..3u32 {
        let pid = sys
            .world
            .create_process(admin_user(), mks_mls::Label::BOTTOM, 4);
        sys.world
            .audit(Some(admin_user()), AuditEvent::Login { success: true });
        sys.world.audit(
            Some(admin_user()),
            AuditEvent::Lifecycle {
                what: format!("lane {lane} process {i} created as {pid:?}"),
            },
        );
    }

    // Paging slice: `procs` trace processes over private segments, under
    // enough frame pressure that the freeing daemons must run.
    let pages = 8usize;
    let mut rng = SplitMix64::new(lane_seed ^ 0xE19);
    for p in 0..cfg.procs {
        let uid = SegUid(1_000 + (lane * 100 + p) as u64);
        sys.world.vm.machine.ast.activate(uid, pages * PAGE_WORDS);
        let refs: Vec<(SegUid, usize)> = (0..cfg.refs_per_proc)
            .map(|_| (uid, rng.below(pages as u64) as usize))
            .collect();
        tc.spawn(Box::new(TraceJob::new(refs, 4)));
    }

    // Audit slice: two auditors appending through the kernel choke point
    // while the paging schedule interleaves around them.
    for j in 0..2u32 {
        let mut left = 8u32;
        tc.spawn(Box::new(FnJob::new(
            "auditor",
            move |e: &mut Effects<'_, KernelWorld>| {
                left -= 1;
                let what = format!("lane {lane} auditor {j} beat {left}");
                e.ctx.audit(None, AuditEvent::Lifecycle { what });
                if left == 0 {
                    Step::Done
                } else {
                    Step::Continue
                }
            },
        )));
    }

    let out = tc.run_until_quiet(&mut sys.world, 2_000_000);
    assert!(out.quiescent, "lane {lane} wedged");

    // Overload slice: the E16 admission path, against a deterministic
    // pressure ramp; sheds are audited like the resilience layer does.
    sys.world.admission.enable(PressureConfig::default());
    for i in 0..24u32 {
        let pressure = (i * 83 + lane as u32 * 17) % 1_000;
        let prio = Priority::ALL[(i as usize) % Priority::ALL.len()];
        if !sys.world.admission.decide(prio, pressure) {
            sys.world.audit(
                None,
                AuditEvent::Overload {
                    what: format!("lane {lane} request {i}"),
                    pressure_permille: pressure,
                },
            );
        }
    }

    let (audit_digest, metrics_digest, metrics_len) = audit_and_metrics_digest(&sys.world);
    let lock_audit = sys.world.vm.machine.locks.audit();
    let stats = tc.stats();
    LaneReport {
        lane,
        boot_hash,
        audit_digest,
        audit_records: sys.world.log.len(),
        metrics_digest,
        metrics_len,
        census: sys.world.gates.user_available_entries(),
        clock: sys.world.vm.machine.clock.now(),
        steps: stats.steps,
        steals: stats.steals,
        faults: sys.world.vm.stats().faults,
        lock_violations: lock_audit.violations,
    }
}

/// Runs the fleet described by `cfg` and returns the lane reports in
/// lane order.
pub fn lane_reports(cfg: &LaneConfig) -> Vec<LaneReport> {
    run_lanes(cfg.lanes, cfg.threads, |lane| lane_world_run(cfg, lane))
}

/// The whole-kernel sequential==parallel differential: runs the fleet at
/// `threads = 1` (the baseline), then at every thread count `2..=
/// max_threads`, and counts lane reports that differ from the baseline
/// in *any* field. A correct sharded kernel returns 0.
pub fn differential_mismatches(cfg: &LaneConfig, max_threads: usize) -> u64 {
    let base = lane_reports(&LaneConfig { threads: 1, ..*cfg });
    let mut mismatches = 0u64;
    for threads in 2..=max_threads {
        let got = lane_reports(&LaneConfig { threads, ..*cfg });
        mismatches += got.iter().zip(&base).filter(|(g, b)| g != b).count() as u64;
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn small() -> LaneConfig {
        LaneConfig {
            lanes: 3,
            procs: 2,
            refs_per_proc: 24,
            ..LaneConfig::default()
        }
    }

    #[test]
    fn run_lanes_runs_every_lane_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = run_lanes(7, 3, |lane| {
            hits.fetch_add(1, Ordering::SeqCst);
            lane * 10
        });
        assert_eq!(hits.load(Ordering::SeqCst), 7);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn lane_worlds_actually_exercise_the_kernel() {
        let r = lane_world_run(&small(), 0);
        assert!(r.steps > 0, "scheduler ran nothing");
        assert!(r.faults > 0, "no paging happened");
        assert!(r.audit_records > 5, "audit choke point unused");
        assert_eq!(r.census, 54, "gate census moved");
        assert_eq!(r.lock_violations, 0, "lock order violated");
    }

    #[test]
    fn lane_reports_are_deterministic() {
        let cfg = small();
        assert_eq!(lane_world_run(&cfg, 1), lane_world_run(&cfg, 1));
    }

    #[test]
    fn thread_count_never_changes_a_lane_report() {
        assert_eq!(differential_mismatches(&small(), 3), 0);
    }

    #[test]
    fn different_lanes_diverge() {
        let cfg = small();
        let a = lane_world_run(&cfg, 0);
        let b = lane_world_run(&cfg, 1);
        assert_ne!(a.audit_digest, b.audit_digest);
    }
}
