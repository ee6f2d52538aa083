//! Shared workload drivers for the experiments.

use mks_hw::ast::PageState;
use mks_hw::{CpuModel, Machine, SegUid, SplitMix64, Word, PAGE_WORDS};
use mks_procs::{SchedMode, TcConfig, TrafficController};
use mks_vm::{
    mechanism, BulkFreerJob, ClockPolicy, CoreFreerJob, ParallelConfig, ParallelPageControl,
    RefTrace, SequentialPageControl, VmStats, VmWorld,
};

/// Activates every segment of `trace` in `w`.
fn activate_trace(w: &mut VmWorld, trace: &RefTrace) {
    for uid in &trace.segments {
        w.machine
            .ast
            .activate(*uid, trace.pages_per_segment * PAGE_WORDS);
    }
}

/// Runs `trace` under the **sequential** design; every `write_every`-th
/// reference dirties its page.
pub fn run_sequential(
    frames: usize,
    bulk: usize,
    trace: &RefTrace,
    write_every: usize,
) -> (VmStats, u64) {
    let (stats, cycles, _) = run_sequential_metered(frames, bulk, trace, write_every);
    (stats, cycles)
}

/// [`run_sequential`], additionally returning the run's flight-recorder
/// snapshot (counters, histograms, per-layer cycle totals).
pub fn run_sequential_metered(
    frames: usize,
    bulk: usize,
    trace: &RefTrace,
    write_every: usize,
) -> (VmStats, u64, mks_trace::Snapshot) {
    let mut w = VmWorld::new(Machine::new(CpuModel::H6180, frames), bulk);
    activate_trace(&mut w, trace);
    let mut pc = SequentialPageControl::new(Box::new(ClockPolicy::default()));
    for (i, (uid, page)) in trace.refs.iter().enumerate() {
        pc.touch(&mut w, *uid, *page).expect("trace in range");
        if i % write_every.max(1) == 0 {
            let astx = w.machine.ast.find(*uid).expect("active");
            w.machine.ast.entry_mut(astx).pt.ptw_mut(*page).modified = true;
        }
    }
    let cycles = w.machine.clock.now();
    (w.stats(), cycles, w.machine.trace.snapshot())
}

/// Runs `trace` under the **parallel** design with `nprocs` trace
/// processes over the traffic controller.
pub fn run_parallel(
    frames: usize,
    bulk: usize,
    trace: &RefTrace,
    write_every: usize,
    nprocs: usize,
) -> (VmStats, u64) {
    let (stats, cycles, _) = run_parallel_metered(frames, bulk, trace, write_every, nprocs);
    (stats, cycles)
}

/// [`run_parallel`], additionally returning the run's flight-recorder
/// snapshot.
pub(crate) fn run_parallel_metered(
    frames: usize,
    bulk: usize,
    trace: &RefTrace,
    write_every: usize,
    nprocs: usize,
) -> (VmStats, u64, mks_trace::Snapshot) {
    let cfg = ParallelConfig {
        core_low: (frames / 8).max(1),
        core_target: (frames / 4).max(2),
        bulk_low: 4,
        bulk_target: 8,
    };
    run_parallel_with_metered(frames, bulk, trace, write_every, nprocs, cfg)
}

/// [`run_parallel`] with explicit freeing-daemon watermarks (the A1
/// ablation sweeps these).
pub(crate) fn run_parallel_with(
    frames: usize,
    bulk: usize,
    trace: &RefTrace,
    write_every: usize,
    nprocs: usize,
    cfg: ParallelConfig,
) -> (VmStats, u64) {
    let (stats, cycles, _) =
        run_parallel_with_metered(frames, bulk, trace, write_every, nprocs, cfg);
    (stats, cycles)
}

/// [`run_parallel_with`], additionally returning the run's
/// flight-recorder snapshot.
fn run_parallel_with_metered(
    frames: usize,
    bulk: usize,
    trace: &RefTrace,
    write_every: usize,
    nprocs: usize,
    cfg: ParallelConfig,
) -> (VmStats, u64, mks_trace::Snapshot) {
    let mut tc: TrafficController<mks_vm::parallel::VmSystem> = TrafficController::new(TcConfig {
        nr_cpus: 2,
        nr_vprocs: 4 + nprocs,
        quantum: 8,
        sched: SchedMode::GlobalQueue,
    });
    let world = VmWorld::new(Machine::new(CpuModel::H6180, frames), bulk);
    let pc = ParallelPageControl::new(cfg, &mut tc);
    let mut sys = mks_vm::parallel::VmSystem { world, pc };
    activate_trace(&mut sys.world, trace);
    tc.add_dedicated(Box::new(CoreFreerJob::new(
        Box::new(ClockPolicy::default()),
    )));
    tc.add_dedicated(Box::new(BulkFreerJob));
    for part in trace.split(nprocs) {
        tc.spawn(Box::new(mks_vm::parallel::TraceJob::new(part, write_every)));
    }
    let out = tc.run_until_quiet(&mut sys, 10_000_000);
    assert!(out.quiescent, "parallel run wedged");
    let cycles = sys.world.machine.clock.now();
    (
        sys.world.stats(),
        cycles,
        sys.world.machine.trace.snapshot(),
    )
}

/// Deterministic content pattern for integrity checking.
pub fn pattern(uid: SegUid, page: usize, offset: usize) -> Word {
    Word::new((uid.0 << 20) ^ ((page as u64) << 10) ^ (offset as u64) ^ 0o525252525252)
}

/// Outcome counts of a policy fault-injection campaign (experiment E9).
#[derive(Debug, Default, Clone, Copy)]
pub struct ChaosOutcome {
    /// Requests the mechanism refused (contained: at worst denial).
    pub refused: u64,
    /// Requests that succeeded but evicted a suboptimal page (performance
    /// denial only).
    pub suboptimal: u64,
    /// Words found modified that no legitimate path wrote — unauthorized
    /// modification.
    pub modifications: u64,
    /// Words of one segment found inside another — unauthorized release.
    pub disclosures: u64,
}

const CHAOS_SEGS: u64 = 4;
const CHAOS_PAGES: usize = 4;

fn chaos_world(frames: usize) -> VmWorld {
    let mut w = VmWorld::new(Machine::new(CpuModel::H6180, frames), 64);
    for s in 0..CHAOS_SEGS {
        let uid = SegUid(100 + s);
        w.machine.ast.activate(uid, CHAOS_PAGES * PAGE_WORDS);
        // Fill every page with its pattern (via the mechanism, then dirty).
        for p in 0..CHAOS_PAGES {
            // Make room first under the tiny frame pool.
            while w.nr_free_frames() == 0 {
                let usage = mechanism::usage_stats(&mut w);
                let v = usage[0];
                mechanism::evict_to_bulk(&mut w, v.uid, v.page).expect("room in bulk");
            }
            let frame = mechanism::load_page(&mut w, uid, p).expect("load");
            for off in (0..PAGE_WORDS).step_by(64) {
                w.machine.mem.write(frame, off, pattern(uid, p, off));
            }
            let astx = w.machine.ast.find(uid).unwrap();
            w.machine.ast.entry_mut(astx).pt.ptw_mut(p).modified = true;
        }
    }
    w
}

/// Checks every page of the chaos world against its pattern, counting
/// unauthorized modifications and cross-segment disclosures.
fn chaos_verify(w: &mut VmWorld) -> (u64, u64) {
    let mut modifications = 0;
    let mut disclosures = 0;
    for s in 0..CHAOS_SEGS {
        let uid = SegUid(100 + s);
        for p in 0..CHAOS_PAGES {
            // Bring the page in if evicted.
            let astx = w.machine.ast.find(uid).unwrap();
            let resident = matches!(
                w.machine.ast.entry(astx).pt.ptw(p).state,
                PageState::InCore(_)
            );
            if !resident {
                while w.nr_free_frames() == 0 {
                    let usage = mechanism::usage_stats(w);
                    let v = usage[0];
                    if mechanism::evict_to_bulk(w, v.uid, v.page).is_err() {
                        let oldest = w.bulk.oldest().unwrap();
                        mechanism::evict_bulk_to_disk(w, oldest).unwrap();
                    }
                }
                mechanism::load_page(w, uid, p).expect("reload");
            }
            let astx = w.machine.ast.find(uid).unwrap();
            let PageState::InCore(frame) = w.machine.ast.entry(astx).pt.ptw(p).state else {
                unreachable!()
            };
            for off in (0..PAGE_WORDS).step_by(64) {
                let got = w.machine.mem.read(frame, off);
                let want = pattern(uid, p, off);
                if got != want {
                    // Is it some *other* page's pattern? Then data crossed
                    // segments: a disclosure.
                    let foreign = (0..CHAOS_SEGS).any(|s2| {
                        (0..CHAOS_PAGES).any(|p2| {
                            (SegUid(100 + s2), p2) != (uid, p)
                                && got == pattern(SegUid(100 + s2), p2, off)
                        })
                    });
                    if foreign {
                        disclosures += 1;
                    } else {
                        modifications += 1;
                    }
                }
            }
        }
    }
    (modifications, disclosures)
}

/// Runs the **split** (policy outside ring 0) fault-injection campaign:
/// the corrupted policy can only issue mechanism-gate requests, which are
/// validated. Every `rounds` iterations a deliberately garbled decision is
/// produced.
pub(crate) fn chaos_split(seed: u64, rounds: u32) -> ChaosOutcome {
    let mut rng = SplitMix64::new(seed);
    let mut w = chaos_world(8);
    let mut out = ChaosOutcome::default();
    for _ in 0..rounds {
        let usage = mechanism::usage_stats(&mut w);
        // The corrupted policy emits a garbage decision: a random
        // (uid, page) that may or may not exist, may already be evicted,
        // may be out of range.
        let uid = SegUid(95 + rng.below(12));
        let page = rng.below(CHAOS_PAGES as u64 * 2) as usize;
        match mechanism::evict_to_bulk(&mut w, uid, page) {
            Ok(()) => {
                // A real resident page got evicted — possibly the wrong
                // one. That is at worst a performance denial.
                out.suboptimal += 1;
                // Keep the system live: reload something if space allows.
                if w.nr_free_frames() > 0 && !usage.is_empty() {
                    let v = usage[rng.below(usage.len() as u64) as usize];
                    let _ = mechanism::load_page(&mut w, v.uid, v.page);
                }
            }
            Err(_) => out.refused += 1,
        }
        // Occasionally also garble a bulk→disk request.
        if rng.unit_f64() < 0.3 {
            let addr = mks_vm::PageAddr {
                uid: SegUid(95 + rng.below(12)),
                page,
            };
            if mechanism::evict_bulk_to_disk(&mut w, addr).is_err() {
                out.refused += 1;
            }
        }
    }
    let (m, d) = chaos_verify(&mut w);
    out.modifications = m;
    out.disclosures = d;
    out
}

/// Runs the **monolithic** campaign: the same corrupted policy logic, but
/// executing *in ring 0 with mechanism powers* — its stray decisions act
/// directly on frames (wild stores, frame-to-frame copies), as a buggy
/// privileged policy's would.
pub(crate) fn chaos_monolithic(seed: u64, rounds: u32) -> ChaosOutcome {
    let mut rng = SplitMix64::new(seed);
    let mut w = chaos_world(8);
    let mut out = ChaosOutcome::default();
    let nr_frames = w.machine.mem.nr_frames();
    for _ in 0..rounds {
        // The same garbled decision stream…
        let roll = rng.unit_f64();
        if roll < 0.5 {
            // …but a wrong victim here means manipulating the core map and
            // frames directly; a stray index becomes a wild store.
            let frame = mks_hw::FrameId(rng.below(nr_frames as u64) as u32);
            let off = rng.below(PAGE_WORDS as u64) as usize;
            w.machine.mem.write(frame, off, Word::new(rng.next_u64()));
        } else if roll < 0.7 {
            // A mixed-up "move": one frame copied over another, carrying
            // one segment's data into another's page.
            let a = mks_hw::FrameId(rng.below(nr_frames as u64) as u32);
            let b = mks_hw::FrameId(rng.below(nr_frames as u64) as u32);
            let data = w.machine.mem.export_frame(a);
            w.machine.mem.import_frame(b, data);
        } else {
            // Sometimes the decision happens to be harmless.
            out.suboptimal += 1;
        }
    }
    let (m, d) = chaos_verify(&mut w);
    out.modifications = m;
    out.disclosures = d;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mks_vm::TraceConfig;

    #[test]
    fn sequential_and_parallel_complete_the_same_trace() {
        let trace = RefTrace::generate(&TraceConfig {
            length: 300,
            nr_segments: 3,
            pages_per_segment: 8,
            ..TraceConfig::default()
        });
        let (seq, _) = run_sequential(8, 64, &trace, 4);
        let (par, _) = run_parallel(8, 64, &trace, 4, 2);
        assert!(seq.faults > 0 && par.faults > 0);
        assert!(seq.mean_fault_steps() > par.mean_fault_steps());
    }

    #[test]
    fn split_chaos_never_corrupts_data() {
        let out = chaos_split(7, 500);
        assert_eq!(out.modifications, 0);
        assert_eq!(out.disclosures, 0);
        assert!(
            out.refused > 0,
            "garbage decisions must be refused sometimes"
        );
    }

    #[test]
    fn monolithic_chaos_corrupts_data() {
        let out = chaos_monolithic(7, 500);
        assert!(
            out.modifications + out.disclosures > 0,
            "privileged chaos must damage something"
        );
    }

    #[test]
    fn patterns_are_distinct_across_pages() {
        assert_ne!(pattern(SegUid(100), 0, 0), pattern(SegUid(100), 1, 0));
        assert_ne!(pattern(SegUid(100), 0, 0), pattern(SegUid(101), 0, 0));
    }
}
