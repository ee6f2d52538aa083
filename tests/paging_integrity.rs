//! Data integrity under heavy paging, for both page-control designs.
//!
//! Whatever the cascade or the daemons do, every word a process wrote must
//! read back exactly, across any number of trips through the bulk store
//! and disk — and a *fresh* page must always read as zeros (no residue).

use mks_hw::{CpuModel, Fnv64, Machine, SegUid, Word, PAGE_WORDS};
use mks_procs::{SchedMode, TcConfig, TrafficController};
use mks_vm::{
    mechanism, BulkFreerJob, ClockPolicy, CoreFreerJob, FifoPolicy, ParallelConfig,
    ParallelPageControl, SegControl, SequentialPageControl, VmAccess, VmWorld,
};

fn value(uid: u64, page: usize, off: usize) -> Word {
    Word::new(uid.wrapping_mul(31) ^ ((page as u64) << 9) ^ off as u64)
}

#[test]
fn sequential_design_preserves_every_word() {
    let mut w = VmWorld::new(Machine::new(CpuModel::H6180, 4), 6);
    let mut pc = SequentialPageControl::new(Box::new(ClockPolicy::default()));
    let segs: Vec<SegUid> = (1..=3).map(SegUid).collect();
    for s in &segs {
        SegControl::activate(&mut w, *s, 4 * PAGE_WORDS);
    }
    // Write a pattern everywhere (4 frames for 12 pages: constant churn).
    for s in &segs {
        for p in 0..4 {
            let frame = match pc.handle_fault(&mut w, *s, p) {
                Ok(r) => r.frame,
                Err(e) => panic!("{e}"),
            };
            for off in (0..PAGE_WORDS).step_by(97) {
                w.machine.mem.write(frame, off, value(s.0, p, off));
            }
            let astx = w.machine.ast.find(*s).unwrap();
            w.machine.ast.entry_mut(astx).pt.ptw_mut(p).modified = true;
        }
    }
    // Read everything back (more churn), verifying.
    for round in 0..3 {
        for s in &segs {
            for p in 0..4 {
                pc.touch(&mut w, *s, p).unwrap();
                let astx = w.machine.ast.find(*s).unwrap();
                let mks_hw::ast::PageState::InCore(frame) =
                    w.machine.ast.entry(astx).pt.ptw(p).state
                else {
                    panic!("touch must leave the page resident")
                };
                for off in (0..PAGE_WORDS).step_by(97) {
                    assert_eq!(
                        w.machine.mem.read(frame, off),
                        value(s.0, p, off),
                        "round {round}, seg {s:?}, page {p}, off {off}"
                    );
                }
            }
        }
    }
    assert!(w.stats().evictions_core > 0, "the test must actually churn");
    assert!(w.stats().evictions_bulk > 0, "…through the bulk store too");
}

#[test]
fn parallel_design_preserves_every_word() {
    // Writer jobs fill segments with patterns; when the system quiesces we
    // verify every word, reloading as needed.
    struct WriterJob {
        uid: SegUid,
        page: usize,
        off: usize,
        t0: Option<u64>,
    }
    impl mks_procs::Job<mks_vm::parallel::VmSystem> for WriterJob {
        fn step(
            &mut self,
            eff: &mut mks_procs::Effects<'_, mks_vm::parallel::VmSystem>,
        ) -> mks_procs::Step {
            if self.page >= 4 {
                return mks_procs::Step::Done;
            }
            let mut notify = None;
            let ret = {
                let (w, pc) = eff.ctx.vm_parts();
                let pc = *pc;
                let astx = w.machine.ast.find(self.uid).unwrap();
                let state = w.machine.ast.entry(astx).pt.ptw(self.page).state;
                match state {
                    mks_hw::ast::PageState::InCore(frame) => {
                        while self.off < PAGE_WORDS {
                            w.machine.mem.write(
                                frame,
                                self.off,
                                value(self.uid.0, self.page, self.off),
                            );
                            self.off += 97;
                        }
                        let astx = w.machine.ast.find(self.uid).unwrap();
                        let ptw = w.machine.ast.entry_mut(astx).pt.ptw_mut(self.page);
                        ptw.modified = true;
                        ptw.used = true;
                        self.page += 1;
                        self.off = 0;
                        self.t0 = None;
                        mks_procs::Step::Continue
                    }
                    mks_hw::ast::PageState::NotInCore => {
                        let t0 = *self.t0.get_or_insert_with(|| w.machine.clock.now());
                        match mks_vm::parallel::try_resolve_fault(w, &pc, self.uid, self.page, t0)
                            .unwrap()
                        {
                            mks_vm::parallel::ParallelFault::Loaded { .. } => {
                                mks_procs::Step::Continue
                            }
                            mks_vm::parallel::ParallelFault::MustWait => {
                                notify = Some(pc.core_needed);
                                mks_procs::Step::Block(pc.core_avail)
                            }
                        }
                    }
                }
            };
            if let Some(e) = notify {
                eff.notify(e);
            }
            ret
        }
    }

    let mut tc: TrafficController<mks_vm::parallel::VmSystem> = TrafficController::new(TcConfig {
        nr_cpus: 2,
        nr_vprocs: 8,
        quantum: 6,
        sched: SchedMode::GlobalQueue,
    });
    let world = VmWorld::new(Machine::new(CpuModel::H6180, 4), 6);
    let pc = ParallelPageControl::new(
        ParallelConfig {
            core_low: 1,
            core_target: 2,
            bulk_low: 2,
            bulk_target: 3,
        },
        &mut tc,
    );
    let mut sys = mks_vm::parallel::VmSystem { world, pc };
    let segs: Vec<SegUid> = (1..=3).map(SegUid).collect();
    for s in &segs {
        SegControl::activate(&mut sys.world, *s, 4 * PAGE_WORDS);
    }
    tc.add_dedicated(Box::new(CoreFreerJob::new(Box::new(FifoPolicy))));
    tc.add_dedicated(Box::new(BulkFreerJob));
    let pids: Vec<_> = segs
        .iter()
        .map(|s| {
            tc.spawn(Box::new(WriterJob {
                uid: *s,
                page: 0,
                off: 0,
                t0: None,
            }))
        })
        .collect();
    let out = tc.run_until_quiet(&mut sys, 1_000_000);
    assert!(out.quiescent);
    for pid in pids {
        assert!(tc.process_done(pid), "writer wedged");
    }

    // Verify every word survives, pulling pages back as needed.
    let w = &mut sys.world;
    for s in &segs {
        for p in 0..4 {
            let astx = w.machine.ast.find(*s).unwrap();
            if !matches!(
                w.machine.ast.entry(astx).pt.ptw(p).state,
                mks_hw::ast::PageState::InCore(_)
            ) {
                while w.nr_free_frames() == 0 {
                    let usage = mechanism::usage_stats(w);
                    let v = usage[0];
                    if mechanism::evict_to_bulk(w, v.uid, v.page).is_err() {
                        let oldest = w.bulk.oldest().unwrap();
                        mechanism::evict_bulk_to_disk(w, oldest).unwrap();
                    }
                }
                mechanism::load_page(w, *s, p).unwrap();
            }
            let astx = w.machine.ast.find(*s).unwrap();
            let mks_hw::ast::PageState::InCore(frame) = w.machine.ast.entry(astx).pt.ptw(p).state
            else {
                unreachable!()
            };
            for off in (0..PAGE_WORDS).step_by(97) {
                assert_eq!(w.machine.mem.read(frame, off), value(s.0, p, off));
            }
        }
    }
    assert!(w.stats().evictions_core > 0);
}

#[test]
fn freshly_created_pages_never_carry_residue() {
    let mut w = VmWorld::new(Machine::new(CpuModel::H6180, 2), 4);
    let mut pc = SequentialPageControl::new(Box::new(ClockPolicy::default()));
    // Fill a secret segment, then delete it.
    let secret = SegUid(7);
    SegControl::activate(&mut w, secret, PAGE_WORDS);
    let f = pc.handle_fault(&mut w, secret, 0).unwrap().frame;
    for off in 0..PAGE_WORDS {
        w.machine.mem.write(f, off, Word::new(0o616161616161));
    }
    SegControl::delete(&mut w, secret).unwrap();
    // A new segment's first touch must see zeros.
    let fresh = SegUid(8);
    SegControl::activate(&mut w, fresh, PAGE_WORDS);
    let f2 = pc.handle_fault(&mut w, fresh, 0).unwrap().frame;
    for off in 0..PAGE_WORDS {
        assert_eq!(w.machine.mem.read(f2, off), Word::ZERO, "residue at {off}");
    }
}

/// Loads every page of `segs` back into core (evicting as needed) and
/// folds all their words into one FNV digest of the *logical* image.
fn logical_image_digest(w: &mut VmWorld, segs: &[SegUid]) -> u64 {
    let mut h = Fnv64::new();
    for s in segs {
        for p in 0..4 {
            let astx = w.machine.ast.find(*s).unwrap();
            if !matches!(
                w.machine.ast.entry(astx).pt.ptw(p).state,
                mks_hw::ast::PageState::InCore(_)
            ) {
                while w.nr_free_frames() == 0 {
                    let usage = mechanism::usage_stats(w);
                    let v = usage[0];
                    if mechanism::evict_to_bulk(w, v.uid, v.page).is_err() {
                        let oldest = w.bulk.oldest().unwrap();
                        mechanism::evict_bulk_to_disk(w, oldest).unwrap();
                    }
                }
                mechanism::load_page(w, *s, p).unwrap();
            }
            let astx = w.machine.ast.find(*s).unwrap();
            let mks_hw::ast::PageState::InCore(frame) = w.machine.ast.entry(astx).pt.ptw(p).state
            else {
                unreachable!()
            };
            for off in 0..PAGE_WORDS {
                h.word(w.machine.mem.read(frame, off).raw());
            }
        }
    }
    h.finish()
}

/// A deterministic slow/failing-disk schedule touching many transfers.
fn slow_disk_plan() -> mks_hw::FaultPlan {
    let mut events = Vec::new();
    for i in 0..16u64 {
        events.push(mks_hw::FaultEvent {
            kind: if i % 3 == 0 {
                mks_hw::InjectKind::FailDisk
            } else {
                mks_hw::InjectKind::SlowDisk
            },
            nth: i * 3,
            detail: i.wrapping_mul(0x9e37_79b9),
        });
    }
    mks_hw::FaultPlan::from_events(events)
}

/// Runs the sequential design's write/read workload, optionally under an
/// injected disk plan, and returns the final logical image digest.
fn sequential_final_digest(plan: Option<&mks_hw::FaultPlan>) -> u64 {
    let mut w = VmWorld::new(Machine::new(CpuModel::H6180, 4), 6);
    if let Some(p) = plan {
        w.machine.inject.arm(p);
    }
    let mut pc = SequentialPageControl::new(Box::new(ClockPolicy::default()));
    let segs: Vec<SegUid> = (1..=3).map(SegUid).collect();
    for s in &segs {
        SegControl::activate(&mut w, *s, 4 * PAGE_WORDS);
    }
    for s in &segs {
        for p in 0..4 {
            let frame = pc.handle_fault(&mut w, *s, p).unwrap().frame;
            for off in (0..PAGE_WORDS).step_by(97) {
                w.machine.mem.write(frame, off, value(s.0, p, off));
            }
            let astx = w.machine.ast.find(*s).unwrap();
            w.machine.ast.entry_mut(astx).pt.ptw_mut(p).modified = true;
        }
    }
    for s in &segs {
        for p in 0..4 {
            pc.touch(&mut w, *s, p).unwrap();
        }
    }
    let fired = w.machine.inject.fired().len();
    if plan.is_some() {
        assert!(fired > 0, "the plan must actually reach the disk sites");
        w.machine.inject.disarm();
    }
    logical_image_digest(&mut w, &segs)
}

/// **Differential recovery invariant (E15 satellite).** Injected disk
/// faults are latency, never corruption — so the sequential and parallel
/// page-control designs must resolve identical fault sequences to
/// *identical* final core images, and both must match an undisturbed run.
#[test]
fn designs_agree_on_final_image_under_injected_slow_disk() {
    let plan = slow_disk_plan();
    let clean = sequential_final_digest(None);
    let seq = sequential_final_digest(Some(&plan));
    assert_eq!(seq, clean, "sequential: injected latency altered data");

    // The parallel design, same workload shape, same plan.
    struct WriterJob {
        uid: SegUid,
        page: usize,
        off: usize,
        t0: Option<u64>,
    }
    impl mks_procs::Job<mks_vm::parallel::VmSystem> for WriterJob {
        fn step(
            &mut self,
            eff: &mut mks_procs::Effects<'_, mks_vm::parallel::VmSystem>,
        ) -> mks_procs::Step {
            if self.page >= 4 {
                return mks_procs::Step::Done;
            }
            let mut notify = None;
            let ret = {
                let (w, pc) = eff.ctx.vm_parts();
                let pc = *pc;
                let astx = w.machine.ast.find(self.uid).unwrap();
                let state = w.machine.ast.entry(astx).pt.ptw(self.page).state;
                match state {
                    mks_hw::ast::PageState::InCore(frame) => {
                        while self.off < PAGE_WORDS {
                            w.machine.mem.write(
                                frame,
                                self.off,
                                value(self.uid.0, self.page, self.off),
                            );
                            self.off += 97;
                        }
                        let astx = w.machine.ast.find(self.uid).unwrap();
                        let ptw = w.machine.ast.entry_mut(astx).pt.ptw_mut(self.page);
                        ptw.modified = true;
                        ptw.used = true;
                        self.page += 1;
                        self.off = 0;
                        self.t0 = None;
                        mks_procs::Step::Continue
                    }
                    mks_hw::ast::PageState::NotInCore => {
                        let t0 = *self.t0.get_or_insert_with(|| w.machine.clock.now());
                        match mks_vm::parallel::try_resolve_fault(w, &pc, self.uid, self.page, t0)
                            .unwrap()
                        {
                            mks_vm::parallel::ParallelFault::Loaded { .. } => {
                                mks_procs::Step::Continue
                            }
                            mks_vm::parallel::ParallelFault::MustWait => {
                                notify = Some(pc.core_needed);
                                mks_procs::Step::Block(pc.core_avail)
                            }
                        }
                    }
                }
            };
            if let Some(e) = notify {
                eff.notify(e);
            }
            ret
        }
    }

    let mut tc: TrafficController<mks_vm::parallel::VmSystem> = TrafficController::new(TcConfig {
        nr_cpus: 2,
        nr_vprocs: 8,
        quantum: 6,
        sched: SchedMode::GlobalQueue,
    });
    let world = VmWorld::new(Machine::new(CpuModel::H6180, 4), 6);
    world.machine.inject.arm(&plan);
    let pc = ParallelPageControl::new(
        ParallelConfig {
            core_low: 1,
            core_target: 2,
            bulk_low: 2,
            bulk_target: 3,
        },
        &mut tc,
    );
    let mut sys = mks_vm::parallel::VmSystem { world, pc };
    let segs: Vec<SegUid> = (1..=3).map(SegUid).collect();
    for s in &segs {
        SegControl::activate(&mut sys.world, *s, 4 * PAGE_WORDS);
    }
    tc.add_dedicated(Box::new(CoreFreerJob::new(Box::new(FifoPolicy))));
    tc.add_dedicated(Box::new(BulkFreerJob));
    let pids: Vec<_> = segs
        .iter()
        .map(|s| {
            tc.spawn(Box::new(WriterJob {
                uid: *s,
                page: 0,
                off: 0,
                t0: None,
            }))
        })
        .collect();
    let out = tc.run_until_quiet(&mut sys, 1_000_000);
    assert!(out.quiescent);
    for pid in pids {
        assert!(tc.process_done(pid), "writer wedged under injected faults");
    }
    let w = &mut sys.world;
    assert!(
        !w.machine.inject.fired().is_empty(),
        "the parallel run must hit injected transfers too"
    );
    w.machine.inject.disarm();
    let par = logical_image_digest(w, &segs);
    assert_eq!(
        par, clean,
        "parallel and sequential designs diverged under the same disk plan"
    );
}
