//! The traffic controller: both layers of processor multiplexing.
//!
//! **Layer 1** owns a fixed array of virtual processor slots and multiplexes
//! the physical processors among the ready ones, round-robin with a step
//! quantum. Slots are either *dedicated* — permanently bound at system
//! initialization to a kernel job (page control's freeing daemons, interrupt
//! handler processes, ...) — or *shared*, available to layer 2.
//!
//! **Layer 2** multiplexes the shared slots among any number of full
//! processes: a ready, unbound process is bound to a free shared slot before
//! each dispatch round; a process that blocks is unbound so its slot can
//! serve another process.
//!
//! Both layers use the same [`EventTable`] channels, so a device interrupt
//! (delivered by [`TrafficController::wakeup_external`]) can wake a dedicated
//! kernel daemon or a user process identically — the uniformity the paper's
//! interrupt-handling simplification relies on.
//!
//! # Multiprocessor scheduling (E19)
//!
//! The 6180 was a multiprocessor; the paper's kernel serialized it behind
//! one global lock. [`SchedMode`] models both arms:
//!
//! * [`SchedMode::GlobalQueue`] (the default) is the baseline: one ready
//!   queue shared by every CPU, byte-identical to the historical scheduler
//!   so all pinned traces and differentials are untouched.
//! * [`SchedMode::WorkStealing`] gives each CPU its own run queue.
//!   Dedicated virtual processors are pinned to a home CPU
//!   (`slot mod nr_cpus`) and are never stolen; shared (process-bound)
//!   virtual processors are placed on the CPU that made them ready and may
//!   be stolen from the *back* of a victim queue chosen by a seeded
//!   [`SplitMix64`] — every run is bit-reproducible for a given seed.
//!   Run-queue accesses are bracketed with [`mks_hw::LockId::TcRunQueue`]
//!   model locks (steal pairs acquired in ascending CPU index), so the
//!   lock-order audit covers the scheduler too.
//!
//! The shared cycle clock still sums *all* CPU work, but each dispatch
//! round also records simulated wall time as the **maximum** busy time of
//! any one CPU that round ([`TcStats::wall_cycles`]) — the quantity that
//! shrinks when more CPUs genuinely run side by side, and the denominator
//! of E19's throughput-scaling claims.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::collections::VecDeque;

use mks_hw::{LockId, SplitMix64};

use crate::ipc::{EventId, EventTable};
use crate::step::{Effects, Job, Step};
use crate::vproc::{VProc, VpBinding, VpIndex, VpState};
use crate::HasMachine;

/// How ready virtual processors are multiplexed over the physical CPUs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedMode {
    /// One shared ready queue (the paper's global-lock arm). Default.
    #[default]
    GlobalQueue,
    /// Per-CPU run queues with deterministic, seeded work-stealing.
    WorkStealing {
        /// Seed for victim selection and idle placement.
        seed: u64,
    },
}

/// Identifier of a layer-2 process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProcessId(pub u32);

/// A party that can wait on an event channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Waiter {
    /// A dedicated virtual processor.
    Dedicated(VpIndex),
    /// A layer-2 process (bound or not).
    Process(ProcessId),
}

/// Traffic-controller configuration.
#[derive(Clone, Copy, Debug)]
pub struct TcConfig {
    /// Number of physical processors.
    pub nr_cpus: usize,
    /// Fixed number of virtual processor slots (layer 1).
    pub nr_vprocs: usize,
    /// Steps a job may run per dispatch before preemption.
    pub quantum: u32,
    /// Ready-queue organisation (global queue vs per-CPU work-stealing).
    pub sched: SchedMode,
}

impl Default for TcConfig {
    fn default() -> TcConfig {
        TcConfig {
            nr_cpus: 2,
            nr_vprocs: 8,
            quantum: 8,
            sched: SchedMode::GlobalQueue,
        }
    }
}

/// Counters describing scheduler activity.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcStats {
    /// Processor dispatches (descriptor-base swaps).
    pub dispatches: u64,
    /// Total job steps executed.
    pub steps: u64,
    /// Wakeups delivered to waiters.
    pub wakeups_delivered: u64,
    /// Preemptions at quantum expiry.
    pub preemptions: u64,
    /// Processes created.
    pub processes_created: u64,
    /// Processes finished.
    pub processes_finished: u64,
    /// Processes destroyed before completion.
    pub processes_killed: u64,
    /// Wakeups lost to injected faults (the sender paid; nobody woke).
    pub wakeups_dropped: u64,
    /// Successful steals (work-stealing mode only).
    pub steals: u64,
    /// Victim queues probed during steal attempts (successful or not).
    pub steal_attempts: u64,
    /// Dedicated virtual processors dispatched away from their home CPU.
    /// The pinning invariant says this stays 0; counted defensively so
    /// the proptests and E19 claims can assert it.
    pub dedicated_migrations: u64,
    /// Dispatch rounds in which at least one CPU ran.
    pub rounds: u64,
    /// Simulated wall time: per round, the *maximum* busy cycles of any
    /// one CPU (CPUs in a round run side by side).
    pub wall_cycles: u64,
    /// Total busy cycles across all CPUs (the clock's own view).
    pub busy_cycles: u64,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum PState {
    Ready,
    Bound(VpIndex),
    Blocked(EventId),
    Done,
}

struct ProcEntry<C> {
    job: Box<dyn Job<C>>,
    state: PState,
}

/// Result of a scheduling run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Dispatch rounds executed.
    pub rounds: u64,
    /// True if the system went quiescent (nothing ready) before the round
    /// limit; false means the limit cut the run short.
    pub quiescent: bool,
}

/// The two-layer scheduler.
pub struct TrafficController<C> {
    cfg: TcConfig,
    vprocs: Vec<VProc>,
    dedicated_jobs: Vec<Option<Box<dyn Job<C>>>>,
    processes: HashMap<ProcessId, ProcEntry<C>>,
    next_pid: u32,
    proc_ready: VecDeque<ProcessId>,
    vp_ready: VecDeque<VpIndex>,
    /// Min-heap of free slot indices, so binding never scans the slot
    /// array (O(log n) instead of O(n) per bind at population scale).
    /// Lowest index first — the same slot the old linear scan chose, so
    /// the pinned scheduling traces are unchanged. Entries are verified
    /// against the binding on pop.
    free_slots: BinaryHeap<Reverse<u32>>,
    events: EventTable<Waiter>,
    stats: TcStats,
    /// Drops already published to the metrics registry (so the
    /// `tc.wakeups_dropped` counter is a delta feed, not a re-count).
    published_drops: u64,
    /// Per-CPU run queues (work-stealing mode; empty otherwise).
    cpu_queues: Vec<VecDeque<VpIndex>>,
    /// Pre-built `par.tc.queue_depth.<cpu>` metric names (no per-tick
    /// allocation on the publish path).
    queue_depth_names: Vec<String>,
    /// Seeded generator for victim selection and idle placement.
    rng: SplitMix64,
    /// CPU currently dispatching (placement locality for requeues).
    current_cpu: Option<usize>,
    /// Steals already published to the metrics registry (delta feed).
    published_steals: u64,
    /// Lock-contention touches already published (delta feed).
    published_contention: u64,
}

impl<C: HasMachine> TrafficController<C> {
    /// Creates a controller with `cfg.nr_vprocs` idle slots.
    pub fn new(cfg: TcConfig) -> TrafficController<C> {
        assert!(cfg.nr_cpus >= 1 && cfg.nr_vprocs >= 1 && cfg.quantum >= 1);
        let seed = match cfg.sched {
            SchedMode::GlobalQueue => 0,
            SchedMode::WorkStealing { seed } => seed,
        };
        TrafficController {
            cfg,
            vprocs: (0..cfg.nr_vprocs).map(|_| VProc::idle()).collect(),
            dedicated_jobs: (0..cfg.nr_vprocs).map(|_| None).collect(),
            processes: HashMap::new(),
            next_pid: 1,
            proc_ready: VecDeque::new(),
            vp_ready: VecDeque::new(),
            free_slots: (0..cfg.nr_vprocs as u32).map(Reverse).collect(),
            events: EventTable::new(),
            stats: TcStats::default(),
            published_drops: 0,
            cpu_queues: match cfg.sched {
                SchedMode::GlobalQueue => Vec::new(),
                SchedMode::WorkStealing { .. } => {
                    (0..cfg.nr_cpus).map(|_| VecDeque::new()).collect()
                }
            },
            queue_depth_names: match cfg.sched {
                SchedMode::GlobalQueue => Vec::new(),
                SchedMode::WorkStealing { .. } => (0..cfg.nr_cpus)
                    .map(|cpu| format!("par.tc.queue_depth.{cpu}"))
                    .collect(),
            },
            rng: SplitMix64::new(seed),
            current_cpu: None,
            published_steals: 0,
            published_contention: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> TcConfig {
        self.cfg
    }

    /// Scheduler activity counters.
    pub fn stats(&self) -> TcStats {
        self.stats
    }

    /// The event-channel table (for kernel-level inspection).
    pub fn events(&self) -> &EventTable<Waiter> {
        &self.events
    }

    /// Allocates a fresh event channel.
    pub fn alloc_event(&mut self) -> EventId {
        self.events.alloc()
    }

    /// Permanently binds `job` to a free slot as a dedicated kernel virtual
    /// processor and makes it ready.
    ///
    /// # Panics
    /// Panics if every slot is taken: the number of virtual processors is
    /// fixed at configuration time, exactly as the paper requires.
    pub fn add_dedicated(&mut self, job: Box<dyn Job<C>>) -> VpIndex {
        let slot = self
            .take_free_slot()
            .expect("no free virtual processor slot for dedicated job");
        let vp = VpIndex(slot as u32);
        self.vprocs[slot].binding = VpBinding::Dedicated;
        self.vprocs[slot].state = VpState::Ready;
        self.dedicated_jobs[slot] = Some(job);
        self.enqueue_ready(vp);
        vp
    }

    /// Creates a layer-2 process running `job`; it competes for the shared
    /// virtual processors.
    pub fn spawn(&mut self, job: Box<dyn Job<C>>) -> ProcessId {
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        self.processes.insert(
            pid,
            ProcEntry {
                job,
                state: PState::Ready,
            },
        );
        self.proc_ready.push_back(pid);
        self.stats.processes_created += 1;
        pid
    }

    /// True once `pid` has run to completion.
    pub fn process_done(&self, pid: ProcessId) -> bool {
        match self.processes.get(&pid) {
            Some(p) => p.state == PState::Done,
            None => true,
        }
    }

    /// Destroys a process, whatever its state: a bound one loses its
    /// virtual processor, a blocked one is removed from every wait queue.
    /// Returns `false` if the process is unknown or already done.
    pub fn kill(&mut self, pid: ProcessId) -> bool {
        let Some(entry) = self.processes.get_mut(&pid) else {
            return false;
        };
        let prev = entry.state;
        if prev == PState::Done {
            return false;
        }
        entry.state = PState::Done;
        self.stats.processes_killed += 1;
        match prev {
            PState::Bound(vp) => self.unbind(vp),
            PState::Blocked(_) => self.events.cancel_waits(Waiter::Process(pid)),
            PState::Ready | PState::Done => {} // stale queue entries are skipped
        }
        true
    }

    /// Number of shared slots currently free.
    #[cfg(test)]
    fn free_shared_slots(&self) -> usize {
        self.vprocs
            .iter()
            .filter(|v| v.binding == VpBinding::Free)
            .count()
    }

    /// Diagnostic: true iff virtual processor `vp` is a dedicated
    /// (layer-1) slot. The two-layer design's core invariant is that this
    /// never changes after [`add_dedicated`](Self::add_dedicated) — the
    /// scheduler property tests pin it.
    pub fn slot_is_dedicated(&self, vp: VpIndex) -> bool {
        self.vprocs
            .get(vp.0 as usize)
            .map(|v| v.binding == VpBinding::Dedicated)
            .unwrap_or(false)
    }

    /// Diagnostic: `(dedicated, process-bound, free)` slot counts.
    pub fn binding_census(&self) -> (usize, usize, usize) {
        let mut census = (0, 0, 0);
        for v in &self.vprocs {
            match v.binding {
                VpBinding::Dedicated => census.0 += 1,
                VpBinding::Process(_) => census.1 += 1,
                VpBinding::Free => census.2 += 1,
            }
        }
        census
    }

    /// Delivers an external wakeup (e.g. from a device interrupt) on
    /// `event`, charging the wakeup cost.
    pub fn wakeup_external(&mut self, ctx: &mut C, event: EventId) {
        let m = ctx.machine();
        m.charge_wakeup();
        m.trace.counter_add("procs.wakeups_sent", 1);
        m.trace.event(
            mks_trace::Layer::Procs,
            mks_trace::EventKind::IpcSend,
            format!("external wakeup on event {}", event.0),
        );
        if self.wakeup_is_dropped(ctx, event) {
            return;
        }
        let woken = self.events.wakeup(event);
        self.deliver(woken);
    }

    /// The `DropWakeup` injection point: consulted once per wakeup send.
    /// When armed and scheduled, the wakeup is lost after the sender has
    /// already paid for it — the waiter keeps waiting.
    fn wakeup_is_dropped(&mut self, ctx: &mut C, event: EventId) -> bool {
        let m = ctx.machine();
        if m.inject.fires(mks_hw::InjectKind::DropWakeup).is_none() {
            return false;
        }
        self.stats.wakeups_dropped += 1;
        m.trace.counter_add("inject.dropped_wakeups", 1);
        m.trace.event(
            mks_trace::Layer::Procs,
            mks_trace::EventKind::IpcSend,
            format!("INJECTED: wakeup on event {} dropped", event.0),
        );
        true
    }

    fn deliver(&mut self, woken: Vec<Waiter>) {
        for w in woken {
            self.stats.wakeups_delivered += 1;
            match w {
                Waiter::Dedicated(vp) => {
                    let v = &mut self.vprocs[vp.0 as usize];
                    if let VpState::Blocked(_) = v.state {
                        v.state = VpState::Ready;
                        self.enqueue_ready(vp);
                    }
                }
                Waiter::Process(pid) => {
                    if let Some(p) = self.processes.get_mut(&pid) {
                        if let PState::Blocked(_) = p.state {
                            p.state = PState::Ready;
                            self.proc_ready.push_back(pid);
                        }
                    }
                }
            }
        }
    }

    /// Pops the lowest free slot index, skipping any entry the heap holds
    /// stale (the binding is authoritative; the heap is the index).
    fn take_free_slot(&mut self) -> Option<usize> {
        while let Some(Reverse(slot)) = self.free_slots.pop() {
            if self.vprocs[slot as usize].binding == VpBinding::Free {
                return Some(slot as usize);
            }
        }
        None
    }

    /// Layer 2: bind ready, unbound processes to free shared slots.
    fn bind_processes(&mut self) {
        while let Some(&pid) = self.proc_ready.front() {
            let slot = match self.take_free_slot() {
                Some(s) => s,
                None => break,
            };
            self.proc_ready.pop_front();
            let entry = match self.processes.get_mut(&pid) {
                Some(e) if e.state == PState::Ready => e,
                _ => {
                    // Stale queue entry: the slot stays free.
                    self.free_slots.push(Reverse(slot as u32));
                    continue;
                }
            };
            let vp = VpIndex(slot as u32);
            entry.state = PState::Bound(vp);
            self.vprocs[slot].binding = VpBinding::Process(pid);
            self.vprocs[slot].state = VpState::Ready;
            self.enqueue_ready(vp);
        }
    }

    fn unbind(&mut self, vp: VpIndex) {
        let slot = vp.0 as usize;
        self.vprocs[slot].binding = VpBinding::Free;
        self.vprocs[slot].state = VpState::Idle;
        self.free_slots.push(Reverse(vp.0));
    }

    /// Runs one job on one virtual processor for up to a quantum.
    fn dispatch(&mut self, ctx: &mut C, vp: VpIndex) {
        let slot = vp.0 as usize;
        self.stats.dispatches += 1;
        let m = ctx.machine();
        m.charge_processor_swap();
        m.trace.counter_add("procs.dispatches", 1);
        // Ready-queue depth at dispatch: the scheduler's own latency
        // signal — its tail says how far behind the run queue got.
        m.trace.observe_quantile(
            "q.procs.ready_depth.all",
            self.ready_depth() as u64,
            None,
            &format!("vp {}", vp.0),
        );
        m.trace.event(
            mks_trace::Layer::Procs,
            mks_trace::EventKind::Dispatch,
            format!("vp {}", vp.0),
        );
        for used in 0..self.cfg.quantum {
            // Borrow the job out of its home so we can pass &mut self data
            // into deliver() after the step.
            let mut job = match self.vprocs[slot].binding {
                VpBinding::Dedicated => self.dedicated_jobs[slot]
                    .take()
                    .expect("dedicated job missing"),
                VpBinding::Process(pid) => self
                    .processes
                    .get_mut(&pid)
                    .expect("bound process missing")
                    .job_take(),
                VpBinding::Free => return, // slot was freed mid-quantum
            };
            let mut eff = Effects::new(ctx);
            let step = job.step(&mut eff);
            let wakeups = std::mem::take(&mut eff.wakeups);
            self.stats.steps += 1;
            // Put the job back before delivering wakeups or changing state.
            match self.vprocs[slot].binding {
                VpBinding::Dedicated => self.dedicated_jobs[slot] = Some(job),
                VpBinding::Process(pid) => {
                    self.processes
                        .get_mut(&pid)
                        .expect("process vanished")
                        .job_put(job);
                }
                VpBinding::Free => unreachable!(),
            }
            for e in wakeups {
                let m = ctx.machine();
                m.charge_wakeup();
                m.trace.counter_add("procs.wakeups_sent", 1);
                m.trace.event(
                    mks_trace::Layer::Procs,
                    mks_trace::EventKind::IpcSend,
                    format!("wakeup on event {}", e.0),
                );
                if self.wakeup_is_dropped(ctx, e) {
                    continue;
                }
                let woken = self.events.wakeup(e);
                self.deliver(woken);
            }
            match step {
                Step::Continue => {
                    if used + 1 == self.cfg.quantum {
                        self.stats.preemptions += 1;
                        self.enqueue_ready(vp);
                    }
                }
                Step::Yield => {
                    self.enqueue_ready(vp);
                    return;
                }
                Step::Block(event) => {
                    let trace = &ctx.machine().trace;
                    trace.counter_add("procs.blocks", 1);
                    trace.event(
                        mks_trace::Layer::Procs,
                        mks_trace::EventKind::IpcReceive,
                        format!("block on event {}", event.0),
                    );
                    let waiter = match self.vprocs[slot].binding {
                        VpBinding::Dedicated => Waiter::Dedicated(vp),
                        VpBinding::Process(pid) => Waiter::Process(pid),
                        VpBinding::Free => unreachable!(),
                    };
                    if self.events.block(waiter, event) {
                        // Pending switch was set: keep running next round.
                        self.enqueue_ready(vp);
                    } else {
                        match waiter {
                            Waiter::Dedicated(_) => {
                                self.vprocs[slot].state = VpState::Blocked(event);
                            }
                            Waiter::Process(pid) => {
                                self.processes
                                    .get_mut(&pid)
                                    .expect("process vanished")
                                    .state = PState::Blocked(event);
                                self.unbind(vp);
                            }
                        }
                    }
                    return;
                }
                Step::Done => {
                    match self.vprocs[slot].binding {
                        VpBinding::Dedicated => {
                            // A finished dedicated job retires its slot.
                            self.dedicated_jobs[slot] = None;
                            self.vprocs[slot].binding = VpBinding::Free;
                            self.vprocs[slot].state = VpState::Idle;
                            self.free_slots.push(Reverse(slot as u32));
                        }
                        VpBinding::Process(pid) => {
                            self.processes
                                .get_mut(&pid)
                                .expect("process vanished")
                                .state = PState::Done;
                            self.stats.processes_finished += 1;
                            self.unbind(vp);
                        }
                        VpBinding::Free => unreachable!(),
                    }
                    return;
                }
            }
        }
    }

    /// Routes a newly ready virtual processor to the right queue: the
    /// shared queue (global mode), or — work-stealing — its home CPU if
    /// dedicated, else the CPU that made it ready (a seeded pick when no
    /// CPU is dispatching, e.g. an external interrupt).
    fn enqueue_ready(&mut self, vp: VpIndex) {
        match self.cfg.sched {
            SchedMode::GlobalQueue => self.vp_ready.push_back(vp),
            SchedMode::WorkStealing { .. } => {
                let cpu = if self.vprocs[vp.0 as usize].binding == VpBinding::Dedicated {
                    self.home_cpu(vp)
                } else {
                    match self.current_cpu {
                        Some(cpu) => cpu,
                        None => self.rng.below(self.cfg.nr_cpus as u64) as usize,
                    }
                };
                self.cpu_queues[cpu].push_back(vp);
            }
        }
    }

    /// The CPU a dedicated virtual processor is pinned to.
    fn home_cpu(&self, vp: VpIndex) -> usize {
        vp.0 as usize % self.cfg.nr_cpus
    }

    /// True iff a queue entry is still worth dispatching.
    fn is_runnable(&self, vp: VpIndex) -> bool {
        let v = &self.vprocs[vp.0 as usize];
        v.state == VpState::Ready && v.binding != VpBinding::Free
    }

    /// Ready entries across all queues (stale entries included — the
    /// same approximation the global queue always reported).
    fn ready_depth(&self) -> usize {
        match self.cfg.sched {
            SchedMode::GlobalQueue => self.vp_ready.len(),
            SchedMode::WorkStealing { .. } => self.cpu_queues.iter().map(VecDeque::len).sum(),
        }
    }

    /// One dispatch round: layer-2 binding, then up to `nr_cpus` dispatches.
    ///
    /// Returns `true` if any job ran.
    pub fn tick(&mut self, ctx: &mut C) -> bool {
        self.publish_metrics(ctx);
        self.bind_processes();
        match self.cfg.sched {
            SchedMode::GlobalQueue => self.tick_global(ctx),
            SchedMode::WorkStealing { .. } => self.tick_worksteal(ctx),
        }
    }

    /// The historical single-queue round, unchanged semantics: every
    /// pinned scheduling trace is produced by exactly this code.
    fn tick_global(&mut self, ctx: &mut C) -> bool {
        let mut ran = false;
        let mut max_busy = 0;
        for _ in 0..self.cfg.nr_cpus {
            let vp = loop {
                match self.vp_ready.pop_front() {
                    Some(vp) => {
                        // Skip stale queue entries.
                        if self.is_runnable(vp) {
                            break Some(vp);
                        }
                    }
                    None => break None,
                }
            };
            match vp {
                Some(vp) => {
                    ran = true;
                    let busy = self.dispatch_timed(ctx, vp);
                    max_busy = max_busy.max(busy);
                    // Newly runnable processes may bind to freed slots for
                    // the remaining CPUs this round.
                    self.bind_processes();
                }
                None => break,
            }
        }
        if ran {
            self.stats.rounds += 1;
            self.stats.wall_cycles += max_busy;
        }
        ran
    }

    /// The per-CPU round: each CPU pops its own queue, stealing from a
    /// seeded victim when idle. Simulated wall time advances by the
    /// busiest CPU of the round.
    fn tick_worksteal(&mut self, ctx: &mut C) -> bool {
        let mut ran = false;
        let mut max_busy = 0;
        for cpu in 0..self.cfg.nr_cpus {
            self.current_cpu = Some(cpu);
            if let Some(vp) = self.next_ready_worksteal(ctx, cpu) {
                ran = true;
                if self.vprocs[vp.0 as usize].binding == VpBinding::Dedicated
                    && self.home_cpu(vp) != cpu
                {
                    self.stats.dedicated_migrations += 1;
                }
                let busy = self.dispatch_timed(ctx, vp);
                max_busy = max_busy.max(busy);
                self.bind_processes();
            }
            self.current_cpu = None;
        }
        if ran {
            self.stats.rounds += 1;
            self.stats.wall_cycles += max_busy;
        }
        ran
    }

    /// Dispatches and returns the cycles this CPU was busy.
    fn dispatch_timed(&mut self, ctx: &mut C, vp: VpIndex) -> u64 {
        let t0 = ctx.machine().clock.now();
        self.dispatch(ctx, vp);
        let busy = ctx.machine().clock.now() - t0;
        self.stats.busy_cycles += busy;
        busy
    }

    /// Pops CPU `cpu`'s own queue (front), falling back to stealing.
    /// Queue accesses are bracketed with the run-queue model locks so the
    /// lock-order audit sees the scheduler's discipline.
    fn next_ready_worksteal(&mut self, ctx: &mut C, cpu: usize) -> Option<VpIndex> {
        let locks = ctx.machine().locks.clone();
        locks.acquire(LockId::TcRunQueue(cpu as u8));
        let local = loop {
            match self.cpu_queues[cpu].pop_front() {
                Some(vp) if self.is_runnable(vp) => break Some(vp),
                Some(_) => continue, // stale entry
                None => break None,
            }
        };
        locks.release(LockId::TcRunQueue(cpu as u8));
        if local.is_some() {
            return local;
        }
        self.try_steal(ctx, cpu)
    }

    /// Probes the other CPUs' queues in a seeded rotation, taking the
    /// *back-most* stealable (shared, runnable) entry of the first victim
    /// that has one. Dedicated virtual processors are never stolen. The
    /// two run-queue locks are acquired in ascending CPU index — the
    /// declared order that keeps concurrent stealers deadlock-free.
    fn try_steal(&mut self, ctx: &mut C, cpu: usize) -> Option<VpIndex> {
        let n = self.cfg.nr_cpus;
        if n < 2 {
            return None;
        }
        let locks = ctx.machine().locks.clone();
        let start = self.rng.below((n - 1) as u64) as usize;
        for probe in 0..n - 1 {
            // Rotation over all CPUs except self (offset is in 1..=n-1).
            let victim = (cpu + 1 + (start + probe) % (n - 1)) % n;
            self.stats.steal_attempts += 1;
            let (lo, hi) = (cpu.min(victim), cpu.max(victim));
            locks.acquire(LockId::TcRunQueue(lo as u8));
            locks.acquire(LockId::TcRunQueue(hi as u8));
            let found = self.cpu_queues[victim]
                .iter()
                .rposition(|&vp| self.is_runnable(vp) && !self.slot_is_dedicated(vp));
            let stolen = found.and_then(|idx| self.cpu_queues[victim].remove(idx));
            locks.release(LockId::TcRunQueue(hi as u8));
            locks.release(LockId::TcRunQueue(lo as u8));
            if let Some(vp) = stolen {
                self.stats.steals += 1;
                locks.note_contended(LockId::TcRunQueue(victim as u8));
                return Some(vp);
            }
        }
        None
    }

    /// Publishes scheduler health to the flight recorder once per tick:
    /// the binding census as `tc.binding.*` distributions and any
    /// not-yet-published wakeup drops as a `tc.wakeups_dropped` counter
    /// delta. Everything lands in the metrics registry, so degradation is
    /// observable through `hcs_$metering_get` like every other signal.
    fn publish_metrics(&mut self, ctx: &mut C) {
        let (dedicated, bound, free) = self.binding_census();
        let m = ctx.machine();
        m.trace.observe("tc.binding.dedicated", dedicated as u64);
        m.trace.observe("tc.binding.bound", bound as u64);
        m.trace.observe("tc.binding.free", free as u64);
        let unpublished = self.stats.wakeups_dropped - self.published_drops;
        if unpublished > 0 {
            m.trace.counter_add("tc.wakeups_dropped", unpublished);
            self.published_drops = self.stats.wakeups_dropped;
        }
        // The par.* family exists only in work-stealing mode, so the
        // baseline scheduler's metric registry stays byte-identical.
        if let SchedMode::WorkStealing { .. } = self.cfg.sched {
            for (cpu, q) in self.cpu_queues.iter().enumerate() {
                m.trace
                    .observe(&self.queue_depth_names[cpu], q.len() as u64);
            }
            let new_steals = self.stats.steals - self.published_steals;
            if new_steals > 0 {
                m.trace.counter_add("par.tc.steals", new_steals);
                self.published_steals = self.stats.steals;
            }
            let contended = m.locks.contended_total();
            let new_contention = contended - self.published_contention;
            if new_contention > 0 {
                m.trace.counter_add("par.lock.contention", new_contention);
                self.published_contention = contended;
            }
        }
    }

    /// Runs dispatch rounds until the system is quiescent (no ready work)
    /// or `max_rounds` is reached.
    pub fn run_until_quiet(&mut self, ctx: &mut C, max_rounds: u64) -> RunOutcome {
        for round in 0..max_rounds {
            if !self.tick(ctx) {
                return RunOutcome {
                    rounds: round,
                    quiescent: true,
                };
            }
        }
        // One more probe: quiescent only if nothing is ready now.
        let quiescent = self.ready_depth() == 0 && self.proc_ready.is_empty();
        RunOutcome {
            rounds: max_rounds,
            quiescent,
        }
    }
}

impl<C> ProcEntry<C> {
    fn job_take(&mut self) -> Box<dyn Job<C>> {
        std::mem::replace(&mut self.job, Box::new(Tombstone))
    }

    fn job_put(&mut self, job: Box<dyn Job<C>>) {
        self.job = job;
    }
}

/// Placeholder job occupying a process entry while its real job is being
/// stepped; stepping it indicates a scheduler bug.
struct Tombstone;

impl<C> Job<C> for Tombstone {
    fn step(&mut self, _eff: &mut Effects<'_, C>) -> Step {
        unreachable!("tombstone job stepped: job was not returned to its slot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::FnJob;
    use mks_hw::{CpuModel, Machine};

    fn machine() -> Machine {
        Machine::new(CpuModel::H6180, 4)
    }

    fn counter_job(n: u32, counter: std::rc::Rc<std::cell::Cell<u32>>) -> Box<dyn Job<Machine>> {
        let mut left = n;
        Box::new(FnJob::new(
            "counter",
            move |_eff: &mut Effects<'_, Machine>| {
                counter.set(counter.get() + 1);
                left -= 1;
                if left == 0 {
                    Step::Done
                } else {
                    Step::Continue
                }
            },
        ))
    }

    #[test]
    fn processes_run_to_completion() {
        let mut m = machine();
        let mut tc = TrafficController::new(TcConfig {
            nr_cpus: 1,
            nr_vprocs: 2,
            quantum: 4,
            sched: SchedMode::GlobalQueue,
        });
        let c = std::rc::Rc::new(std::cell::Cell::new(0));
        let pid = tc.spawn(counter_job(10, c.clone()));
        let out = tc.run_until_quiet(&mut m, 1000);
        assert!(out.quiescent);
        assert!(tc.process_done(pid));
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn more_processes_than_vprocs_all_finish() {
        let mut m = machine();
        let mut tc = TrafficController::new(TcConfig {
            nr_cpus: 2,
            nr_vprocs: 3,
            quantum: 2,
            sched: SchedMode::GlobalQueue,
        });
        let c = std::rc::Rc::new(std::cell::Cell::new(0));
        let pids: Vec<_> = (0..10)
            .map(|_| tc.spawn(counter_job(5, c.clone())))
            .collect();
        let out = tc.run_until_quiet(&mut m, 10_000);
        assert!(out.quiescent);
        assert!(pids.iter().all(|p| tc.process_done(*p)));
        assert_eq!(c.get(), 50);
    }

    #[test]
    fn block_and_wakeup_between_processes() {
        let mut m = machine();
        let mut tc = TrafficController::new(TcConfig::default());
        let event = tc.alloc_event();
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));

        let log1 = log.clone();
        let mut phase = 0;
        let consumer = Box::new(FnJob::new(
            "consumer",
            move |_eff: &mut Effects<'_, Machine>| match phase {
                0 => {
                    phase = 1;
                    Step::Block(event)
                }
                _ => {
                    log1.borrow_mut().push("consumed");
                    Step::Done
                }
            },
        ));
        let log2 = log.clone();
        let mut produced = false;
        let producer = Box::new(FnJob::new(
            "producer",
            move |eff: &mut Effects<'_, Machine>| {
                if !produced {
                    produced = true;
                    log2.borrow_mut().push("produced");
                    eff.notify(event);
                    Step::Done
                } else {
                    Step::Done
                }
            },
        ));

        let cons = tc.spawn(consumer);
        let prod = tc.spawn(producer);
        let out = tc.run_until_quiet(&mut m, 1000);
        assert!(out.quiescent);
        assert!(tc.process_done(cons) && tc.process_done(prod));
        assert_eq!(*log.borrow(), vec!["produced", "consumed"]);
    }

    #[test]
    fn pending_wakeup_lets_block_fall_through() {
        let mut m = machine();
        let mut tc = TrafficController::new(TcConfig {
            nr_cpus: 1,
            nr_vprocs: 2,
            quantum: 4,
            sched: SchedMode::GlobalQueue,
        });
        let event = tc.alloc_event();
        // Wakeup arrives before anyone blocks (e.g. an early interrupt).
        tc.wakeup_external(&mut m, event);
        let mut phase = 0;
        let done = std::rc::Rc::new(std::cell::Cell::new(false));
        let d = done.clone();
        let pid = tc.spawn(Box::new(FnJob::new(
            "late",
            move |_eff: &mut Effects<'_, Machine>| {
                match phase {
                    0 => {
                        phase = 1;
                        Step::Block(event) // must not deadlock: switch is pending
                    }
                    _ => {
                        d.set(true);
                        Step::Done
                    }
                }
            },
        )));
        let out = tc.run_until_quiet(&mut m, 1000);
        assert!(out.quiescent);
        assert!(tc.process_done(pid));
        assert!(done.get());
    }

    #[test]
    fn dedicated_jobs_occupy_fixed_slots() {
        let mut m = machine();
        let mut tc: TrafficController<Machine> = TrafficController::new(TcConfig {
            nr_cpus: 1,
            nr_vprocs: 2,
            quantum: 4,
            sched: SchedMode::GlobalQueue,
        });
        let event = tc.alloc_event();
        // A daemon that waits for work forever.
        let served = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let s = served.clone();
        tc.add_dedicated(Box::new(FnJob::new(
            "daemon",
            move |_eff: &mut Effects<'_, Machine>| {
                s.set(s.get() + 1);
                Step::Block(event)
            },
        )));
        assert_eq!(tc.free_shared_slots(), 1);
        let out = tc.run_until_quiet(&mut m, 100);
        assert!(out.quiescent);
        assert_eq!(served.get(), 1);
        // Interrupt-style wakeups re-run the daemon.
        tc.wakeup_external(&mut m, event);
        tc.run_until_quiet(&mut m, 100);
        assert_eq!(served.get(), 2);
    }

    #[test]
    fn quantum_preempts_long_runners_fairly() {
        let mut m = machine();
        let mut tc = TrafficController::new(TcConfig {
            nr_cpus: 1,
            nr_vprocs: 2,
            quantum: 2,
            sched: SchedMode::GlobalQueue,
        });
        let c1 = std::rc::Rc::new(std::cell::Cell::new(0));
        let c2 = std::rc::Rc::new(std::cell::Cell::new(0));
        tc.spawn(counter_job(20, c1.clone()));
        tc.spawn(counter_job(20, c2.clone()));
        // After a few rounds both have progressed — neither starves.
        for _ in 0..6 {
            tc.tick(&mut m);
        }
        assert!(c1.get() > 0 && c2.get() > 0, "{} {}", c1.get(), c2.get());
        assert!(tc.stats().preemptions > 0);
        tc.run_until_quiet(&mut m, 1000);
        assert_eq!(c1.get() + c2.get(), 40);
    }

    #[test]
    fn dispatches_charge_the_clock() {
        let mut m = machine();
        let mut tc = TrafficController::new(TcConfig {
            nr_cpus: 1,
            nr_vprocs: 2,
            quantum: 4,
            sched: SchedMode::GlobalQueue,
        });
        let c = std::rc::Rc::new(std::cell::Cell::new(0));
        tc.spawn(counter_job(4, c));
        let t0 = m.clock.now();
        tc.run_until_quiet(&mut m, 100);
        assert!(m.clock.now() > t0);
        assert!(tc.stats().dispatches >= 1);
    }

    #[test]
    fn kill_stops_ready_blocked_and_bound_processes() {
        let mut m = machine();
        let mut tc = TrafficController::new(TcConfig {
            nr_cpus: 1,
            nr_vprocs: 3,
            quantum: 2,
            sched: SchedMode::GlobalQueue,
        });
        let event = tc.alloc_event();
        let ran = std::rc::Rc::new(std::cell::Cell::new(0u32));
        // A blocked process.
        let blocked = tc.spawn(Box::new(FnJob::new(
            "b",
            move |_e: &mut Effects<'_, Machine>| Step::Block(event),
        )));
        // A long runner.
        let r = ran.clone();
        let runner = tc.spawn(Box::new(FnJob::new(
            "r",
            move |_e: &mut Effects<'_, Machine>| {
                r.set(r.get() + 1);
                Step::Continue
            },
        )));
        for _ in 0..3 {
            tc.tick(&mut m);
        }
        let progress = ran.get();
        assert!(progress > 0);
        assert!(tc.kill(runner));
        assert!(tc.kill(blocked));
        assert!(!tc.kill(runner), "double kill reports false");
        let out = tc.run_until_quiet(&mut m, 1000);
        assert!(out.quiescent);
        assert_eq!(ran.get(), progress, "killed process must not run again");
        assert!(tc.process_done(runner) && tc.process_done(blocked));
        // A wakeup for the killed waiter goes nowhere (pending switch set).
        tc.wakeup_external(&mut m, event);
        assert!(tc.run_until_quiet(&mut m, 100).quiescent);
        assert_eq!(tc.stats().processes_killed, 2);
    }

    #[test]
    fn killed_ready_process_is_skipped_by_the_queue() {
        let mut m = machine();
        let mut tc = TrafficController::new(TcConfig {
            nr_cpus: 1,
            nr_vprocs: 2,
            quantum: 2,
            sched: SchedMode::GlobalQueue,
        });
        let c = std::rc::Rc::new(std::cell::Cell::new(0));
        let pid = tc.spawn(counter_job(10, c.clone()));
        assert!(tc.kill(pid), "kill before first dispatch");
        tc.run_until_quiet(&mut m, 100);
        assert_eq!(c.get(), 0, "never dispatched");
    }

    #[test]
    fn run_is_deterministic() {
        let trace = || {
            let mut m = machine();
            let mut tc = TrafficController::new(TcConfig {
                nr_cpus: 2,
                nr_vprocs: 4,
                quantum: 3,
                sched: SchedMode::GlobalQueue,
            });
            let c = std::rc::Rc::new(std::cell::Cell::new(0));
            for _ in 0..6 {
                tc.spawn(counter_job(7, c.clone()));
            }
            tc.run_until_quiet(&mut m, 10_000);
            (
                m.clock.now(),
                tc.stats().dispatches,
                tc.stats().steps,
                c.get(),
            )
        };
        assert_eq!(trace(), trace());
    }

    fn ws_cfg(nr_cpus: usize, nr_vprocs: usize, quantum: u32, seed: u64) -> TcConfig {
        TcConfig {
            nr_cpus,
            nr_vprocs,
            quantum,
            sched: SchedMode::WorkStealing { seed },
        }
    }

    #[test]
    fn worksteal_completes_and_conserves_work() {
        let mut m = machine();
        let mut tc = TrafficController::new(ws_cfg(4, 8, 2, 7));
        let c = std::rc::Rc::new(std::cell::Cell::new(0));
        let pids: Vec<_> = (0..12)
            .map(|i| tc.spawn(counter_job(3 + i % 5, c.clone())))
            .collect();
        let out = tc.run_until_quiet(&mut m, 100_000);
        assert!(out.quiescent);
        assert!(pids.iter().all(|p| tc.process_done(*p)));
        let total: u32 = (0..12).map(|i| 3 + i % 5).sum();
        assert_eq!(c.get(), total, "stolen work neither duplicated nor lost");
        assert_eq!(tc.stats().dedicated_migrations, 0);
    }

    #[test]
    fn worksteal_rebalances_via_steals() {
        let mut m = machine();
        let mut tc = TrafficController::new(ws_cfg(4, 8, 1, 11));
        let c = std::rc::Rc::new(std::cell::Cell::new(0));
        // Mixed lengths: queues drain unevenly, idle CPUs must steal.
        for len in [40, 1, 1, 40, 1, 40, 1, 1] {
            tc.spawn(counter_job(len, c.clone()));
        }
        let out = tc.run_until_quiet(&mut m, 100_000);
        assert!(out.quiescent);
        assert_eq!(c.get(), 125);
        assert!(
            tc.stats().steals > 0,
            "idle CPUs must have stolen: {:?}",
            tc.stats()
        );
        assert!(tc.stats().steal_attempts >= tc.stats().steals);
    }

    #[test]
    fn worksteal_never_migrates_dedicated_slots() {
        let mut m = machine();
        let mut tc: TrafficController<Machine> = TrafficController::new(ws_cfg(3, 6, 2, 5));
        let events: Vec<EventId> = (0..3).map(|_| tc.alloc_event()).collect();
        let served = std::rc::Rc::new(std::cell::Cell::new(0u32));
        for &event in &events {
            let s = served.clone();
            tc.add_dedicated(Box::new(FnJob::new(
                "daemon",
                move |_eff: &mut Effects<'_, Machine>| {
                    s.set(s.get() + 1);
                    Step::Block(event)
                },
            )));
        }
        let c = std::rc::Rc::new(std::cell::Cell::new(0));
        for _ in 0..6 {
            tc.spawn(counter_job(9, c.clone()));
        }
        tc.run_until_quiet(&mut m, 100_000);
        // Interrupt-style wakeups keep re-running the daemons on their
        // home CPUs while shared work is being stolen around them.
        for round in 0..4 {
            tc.wakeup_external(&mut m, events[round % events.len()]);
            tc.run_until_quiet(&mut m, 10_000);
        }
        assert!(served.get() >= 3 + 4);
        assert_eq!(
            tc.stats().dedicated_migrations,
            0,
            "dedicated virtual processors are pinned to their home CPU"
        );
    }

    #[test]
    fn worksteal_runs_are_bit_reproducible() {
        let trace = |seed: u64| {
            let mut m = machine();
            let mut tc = TrafficController::new(ws_cfg(4, 8, 3, seed));
            let c = std::rc::Rc::new(std::cell::Cell::new(0));
            for i in 0..10 {
                tc.spawn(counter_job(4 + i % 7, c.clone()));
            }
            tc.run_until_quiet(&mut m, 100_000);
            let s = tc.stats();
            (
                m.clock.now(),
                s.dispatches,
                s.steps,
                s.steals,
                s.steal_attempts,
                s.wall_cycles,
                c.get(),
            )
        };
        assert_eq!(trace(42), trace(42), "same seed, same schedule");
    }

    #[test]
    fn wall_cycles_show_parallel_speedup() {
        let run = |nr_cpus: usize| {
            let mut m = machine();
            let mut tc = TrafficController::new(ws_cfg(nr_cpus, 16, 4, 3));
            let c = std::rc::Rc::new(std::cell::Cell::new(0));
            for _ in 0..16 {
                tc.spawn(counter_job(32, c.clone()));
            }
            tc.run_until_quiet(&mut m, 1_000_000);
            let s = tc.stats();
            assert_eq!(c.get(), 512);
            (s.wall_cycles, s.busy_cycles)
        };
        let (wall1, busy1) = run(1);
        let (wall4, busy4) = run(4);
        assert_eq!(wall1, busy1, "one CPU: wall time is busy time");
        assert!(
            wall4 * 2 < busy4,
            "4 CPUs: wall {wall4} should be well under busy {busy4}"
        );
        assert!(
            wall4 * 2 < wall1,
            "4 CPUs should finish in well under half the wall time: {wall4} vs {wall1}"
        );
    }

    #[test]
    fn worksteal_queue_accesses_keep_lock_order_clean() {
        let mut m = machine();
        let mut tc = TrafficController::new(ws_cfg(4, 8, 1, 13));
        let c = std::rc::Rc::new(std::cell::Cell::new(0));
        for len in [30, 1, 1, 30, 1, 30] {
            tc.spawn(counter_job(len, c.clone()));
        }
        tc.run_until_quiet(&mut m, 100_000);
        let audit = m.locks.audit();
        assert!(tc.stats().steals > 0, "want the steal path exercised");
        assert!(audit.clean(), "{audit:?}");
        assert!(
            audit.contended_total() >= tc.stats().steals,
            "every steal is a contention touch"
        );
    }

    #[test]
    fn worksteal_publishes_par_metrics() {
        let mut m = machine();
        let mut tc = TrafficController::new(ws_cfg(2, 4, 1, 9));
        let c = std::rc::Rc::new(std::cell::Cell::new(0));
        for len in [20, 1, 1, 20] {
            tc.spawn(counter_job(len, c.clone()));
        }
        tc.run_until_quiet(&mut m, 100_000);
        // One more tick publishes the final deltas.
        tc.tick(&mut m);
        let json = m.trace.snapshot().to_json();
        assert!(json.contains("par.tc.queue_depth.0"), "per-CPU depth gauge");
        assert!(json.contains("par.tc.queue_depth.1"));
        assert!(json.contains("par.tc.steals"), "steal counter exported");
        assert!(json.contains("par.lock.contention"), "contention counter");
    }

    #[test]
    fn global_mode_publishes_no_par_metrics() {
        let mut m = machine();
        let mut tc = TrafficController::new(TcConfig::default());
        let c = std::rc::Rc::new(std::cell::Cell::new(0));
        tc.spawn(counter_job(10, c));
        tc.run_until_quiet(&mut m, 1000);
        let json = m.trace.snapshot().to_json();
        assert!(
            !json.contains("par.tc."),
            "baseline registry must stay byte-identical"
        );
    }
}
