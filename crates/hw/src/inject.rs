//! Deterministic, seeded fault injection for the simulated machine.
//!
//! Schroeder's argument for the salvager — and for restrictive repair in
//! general — is that *damaged supervisor state is a protection failure*,
//! not merely a reliability nuisance. To demonstrate that the kernel's
//! integrity invariants actually hold under damage, the simulation needs a
//! way to *produce* damage on demand, reproducibly. This module is that
//! way: a [`FaultPlan`] is a seeded schedule of injectable events, and an
//! [`InjectorHandle`] (carried by every [`Machine`](crate::Machine)) is
//! the registry the layers consult at their injection points.
//!
//! ## Injection points
//!
//! Each [`InjectKind`] names one *site class* somewhere in the stack:
//!
//! | kind             | layer      | site                                      |
//! |------------------|------------|-------------------------------------------|
//! | [`InjectKind::DropWakeup`]   | `mks-procs` | wakeup send in the traffic controller |
//! | [`InjectKind::SlowDisk`]     | `mks-vm`    | page transfer (core/bulk/disk)        |
//! | [`InjectKind::FailDisk`]     | `mks-vm`    | page transfer, with retries           |
//! | [`InjectKind::TearBranch`]   | `mks-fs`    | directory-branch write in `create_*`  |
//! | [`InjectKind::CorruptLabel`] | `mks-fs`    | label write in `create_*`             |
//! | [`InjectKind::SkewClock`]    | `mks-kernel`| audit-log timestamp read              |
//! | [`InjectKind::Crash`]        | `mks-kernel`| operation boundary in the recovery driver |
//! | [`InjectKind::FrameFamine`]  | `mks-vm`    | free-frame check in `load_page`       |
//! | [`InjectKind::AstExhaust`]   | `mks-vm`    | AST activation in the pager           |
//! | [`InjectKind::QuotaStorm`]   | `mks-kernel`| quota charge in the monitor           |
//! | [`InjectKind::AuditFlood`]   | `mks-kernel`| audit-log append (burst of records)   |
//! | [`InjectKind::ReplDrop`]     | `mks-kernel`| replication frame send (link)         |
//! | [`InjectKind::ReplDup`]      | `mks-kernel`| replication frame send (link)         |
//! | [`InjectKind::ReplReorder`]  | `mks-kernel`| replication frame send (link)         |
//! | [`InjectKind::ReplDelay`]    | `mks-kernel`| replication frame send (link)         |
//! | [`InjectKind::ReplPartition`]| `mks-kernel`| replication link partition window     |
//! | [`InjectKind::ReplPrimaryCrash`] | `mks-kernel`| client commit boundary in the cluster |
//! | [`InjectKind::ReplBackupStall`]  | `mks-kernel`| replica inbox drain in the cluster    |
//!
//! A site calls [`InjectorHandle::fires`] every time it is reached; the
//! injector counts hits per kind and fires exactly the hits a plan's
//! [`FaultEvent`]s name. A disarmed injector (the default) answers `None`
//! on every consult, so production paths pay one refcell borrow and a
//! branch — there is no global switch to forget.
//!
//! ## Determinism and replay
//!
//! Plans are pure functions of their seed ([`FaultPlan::generate`]), hit
//! counting is deterministic because the whole simulation is, and the
//! injector records every fault it fires ([`InjectorHandle::fired`]). A
//! failing schedule therefore replays from one `u64`, and
//! [`shrink_plan`] reduces it to a minimal reproducing schedule by greedy
//! event removal (the vendored proptest stub does not shrink, so the
//! plan layer does).

use std::cell::RefCell;
use std::rc::Rc;

use crate::clock::Cycles;
use crate::SplitMix64;

/// The classes of fault the simulation can inject, one per site class.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum InjectKind {
    /// Lose an interprocess wakeup after the sender has paid for it
    /// (`mks-procs::TrafficController`). Models a lost notify.
    DropWakeup = 0,
    /// A page transfer takes extra, deterministic latency
    /// (`mks-vm::mechanism`). Data still moves intact.
    SlowDisk = 1,
    /// A page transfer fails and is retried, charging the transfer cost
    /// again for each retry (`mks-vm::mechanism`). Data still moves intact.
    FailDisk = 2,
    /// A directory-branch write is torn mid-update (`mks-fs`): the
    /// hierarchy is left in one of the damaged states the salvager's
    /// `Problem` variants describe.
    TearBranch = 3,
    /// A directory label is scribbled (raised) during a branch write
    /// (`mks-fs`).
    CorruptLabel = 4,
    /// The audit log reads a clock value warped backwards
    /// (`mks-kernel::syslog` append sites).
    SkewClock = 5,
    /// The whole system is killed at an operation boundary; recovery must
    /// re-boot through init and the salvager (`mks-kernel::recovery`).
    Crash = 6,
    /// The page-frame pool reports itself empty even though frames remain
    /// (`mks-vm::mechanism::load_page`). Models a transient frame famine
    /// that admission control and bounded retry must absorb.
    FrameFamine = 7,
    /// An AST activation is refused as if the active segment table were
    /// full (`mks-vm` pager). Transient: the next attempt may succeed.
    AstExhaust = 8,
    /// A quota charge is refused as if the governing cell were exhausted
    /// (`mks-kernel::monitor::charge_quota`). Models a quota storm from a
    /// hostile subtree.
    QuotaStorm = 9,
    /// A burst of synthetic records is appended to the audit log
    /// (`mks-kernel::syslog`), consuming audit headroom and driving the
    /// audit-pressure gauge up.
    AuditFlood = 10,
    /// A replication frame is dropped in flight on the simulated link
    /// (`mks-kernel::replicate`). Models a lossy network.
    ReplDrop = 11,
    /// A replication frame is delivered twice (`mks-kernel::replicate`).
    /// Models retransmission by a confused lower layer.
    ReplDup = 12,
    /// A replication frame is held back so later frames overtake it
    /// (`mks-kernel::replicate`). Models reordering.
    ReplReorder = 13,
    /// A replication frame takes extra, deterministic link latency
    /// (`mks-kernel::replicate`). Data still arrives intact.
    ReplDelay = 14,
    /// One replica is partitioned off the link for a detail-derived
    /// window: every frame to or from it is dropped
    /// (`mks-kernel::replicate`).
    ReplPartition = 15,
    /// The primary replica is killed at a client commit boundary; the
    /// detail chooses the restart delay and whether it restarts with its
    /// log intact or amnesiac (`mks-kernel::replicate`).
    ReplPrimaryCrash = 16,
    /// A backup replica stops draining its inbox for a detail-derived
    /// window (`mks-kernel::replicate`). Models a stalled process.
    ReplBackupStall = 17,
}

/// Number of distinct [`InjectKind`]s (site classes).
pub const NR_INJECT_KINDS: usize = 18;

/// Number of the original (pre-exhaustion) kinds. [`FaultPlan::generate`]
/// draws only from these so that every seeded corruption plan stays
/// byte-identical to the schedules the E15 results were pinned against;
/// the exhaustion kinds are reached via [`FaultPlan::generate_overload`]
/// and hand-built plans.
pub const NR_LEGACY_KINDS: usize = 7;

impl InjectKind {
    /// Every kind, in discriminant order.
    pub const ALL: [InjectKind; NR_INJECT_KINDS] = [
        InjectKind::DropWakeup,
        InjectKind::SlowDisk,
        InjectKind::FailDisk,
        InjectKind::TearBranch,
        InjectKind::CorruptLabel,
        InjectKind::SkewClock,
        InjectKind::Crash,
        InjectKind::FrameFamine,
        InjectKind::AstExhaust,
        InjectKind::QuotaStorm,
        InjectKind::AuditFlood,
        InjectKind::ReplDrop,
        InjectKind::ReplDup,
        InjectKind::ReplReorder,
        InjectKind::ReplDelay,
        InjectKind::ReplPartition,
        InjectKind::ReplPrimaryCrash,
        InjectKind::ReplBackupStall,
    ];

    /// The seven replication fault kinds, in discriminant order — the draw
    /// set of [`FaultPlan::generate_replication`]. These sites live in the
    /// `mks-kernel::replicate` link and cluster, not in the single-machine
    /// stack, so they never perturb the legacy sweeps.
    pub const REPLICATION: [InjectKind; 7] = [
        InjectKind::ReplDrop,
        InjectKind::ReplDup,
        InjectKind::ReplReorder,
        InjectKind::ReplDelay,
        InjectKind::ReplPartition,
        InjectKind::ReplPrimaryCrash,
        InjectKind::ReplBackupStall,
    ];

    /// The original seven corruption kinds, in discriminant order — the
    /// draw set of [`FaultPlan::generate`].
    const LEGACY: [InjectKind; NR_LEGACY_KINDS] = [
        InjectKind::DropWakeup,
        InjectKind::SlowDisk,
        InjectKind::FailDisk,
        InjectKind::TearBranch,
        InjectKind::CorruptLabel,
        InjectKind::SkewClock,
        InjectKind::Crash,
    ];

    /// The four resource-exhaustion kinds plus the crash boundary — the
    /// draw set of [`FaultPlan::generate_overload`]. Crash rides along so
    /// overload sweeps also exercise mid-overload recovery.
    const OVERLOAD: [InjectKind; 5] = [
        InjectKind::FrameFamine,
        InjectKind::AstExhaust,
        InjectKind::QuotaStorm,
        InjectKind::AuditFlood,
        InjectKind::Crash,
    ];

    /// Stable lower-case name, used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            InjectKind::DropWakeup => "drop-wakeup",
            InjectKind::SlowDisk => "slow-disk",
            InjectKind::FailDisk => "fail-disk",
            InjectKind::TearBranch => "tear-branch",
            InjectKind::CorruptLabel => "corrupt-label",
            InjectKind::SkewClock => "skew-clock",
            InjectKind::Crash => "crash",
            InjectKind::FrameFamine => "frame-famine",
            InjectKind::AstExhaust => "ast-exhaust",
            InjectKind::QuotaStorm => "quota-storm",
            InjectKind::AuditFlood => "audit-flood",
            InjectKind::ReplDrop => "repl-drop",
            InjectKind::ReplDup => "repl-dup",
            InjectKind::ReplReorder => "repl-reorder",
            InjectKind::ReplDelay => "repl-delay",
            InjectKind::ReplPartition => "repl-partition",
            InjectKind::ReplPrimaryCrash => "repl-primary-crash",
            InjectKind::ReplBackupStall => "repl-backup-stall",
        }
    }

    /// The variant identifier as written in Rust source, for the
    /// ready-to-paste regression tests the recovery sweeps print.
    pub fn variant_name(self) -> &'static str {
        match self {
            InjectKind::DropWakeup => "DropWakeup",
            InjectKind::SlowDisk => "SlowDisk",
            InjectKind::FailDisk => "FailDisk",
            InjectKind::TearBranch => "TearBranch",
            InjectKind::CorruptLabel => "CorruptLabel",
            InjectKind::SkewClock => "SkewClock",
            InjectKind::Crash => "Crash",
            InjectKind::FrameFamine => "FrameFamine",
            InjectKind::AstExhaust => "AstExhaust",
            InjectKind::QuotaStorm => "QuotaStorm",
            InjectKind::AuditFlood => "AuditFlood",
            InjectKind::ReplDrop => "ReplDrop",
            InjectKind::ReplDup => "ReplDup",
            InjectKind::ReplReorder => "ReplReorder",
            InjectKind::ReplDelay => "ReplDelay",
            InjectKind::ReplPartition => "ReplPartition",
            InjectKind::ReplPrimaryCrash => "ReplPrimaryCrash",
            InjectKind::ReplBackupStall => "ReplBackupStall",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One scheduled fault: fire at the `nth` hit (0-based) of `kind`'s site
/// class, with a per-kind `detail` payload the site interprets (skew
/// magnitude, tear mode, retry count, …).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// Which site class fires.
    pub kind: InjectKind,
    /// Zero-based hit index at which it fires.
    pub nth: u64,
    /// Kind-specific payload; sites reduce it modulo their option count,
    /// so any `u64` is valid.
    pub detail: u64,
}

/// A deterministic schedule of faults, reproducible from its seed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// The seed this plan was generated from (0 for hand-built plans).
    pub seed: u64,
    /// The scheduled events, deduplicated on `(kind, nth)` and sorted.
    pub events: Vec<FaultEvent>,
}

/// How far into a site class's hit sequence generated events may land.
/// Workloads in the recovery driver and the sweep are sized so that most
/// of this horizon is actually reachable.
const HIT_HORIZON: u64 = 48;

/// Hit horizon for replication plans. Link sites (frame send, partition
/// consult) are hit once or more per cluster tick, so a replicated
/// workload reaches far deeper hit counts than the single-machine sites.
const REPL_HIT_HORIZON: u64 = 160;

impl FaultPlan {
    /// Generates the plan for `seed`: 2–10 events, kinds uniform over
    /// [`InjectKind::LEGACY`], hit indices below a small horizon, details
    /// drawn from the full `u64` range. Pure: same seed, same plan — and
    /// byte-identical to the schedules generated before the exhaustion
    /// kinds existed (the draw set is pinned to the legacy seven).
    pub fn generate(seed: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let count = 2 + rng.below(9);
        let mut events: Vec<FaultEvent> = Vec::new();
        for _ in 0..count {
            let kind = InjectKind::LEGACY[rng.below(NR_LEGACY_KINDS as u64) as usize];
            let nth = rng.below(HIT_HORIZON);
            let detail = rng.next_u64();
            if !events.iter().any(|e| e.kind == kind && e.nth == nth) {
                events.push(FaultEvent { kind, nth, detail });
            }
        }
        events.sort_by_key(|e| (e.kind, e.nth));
        FaultPlan { seed, events }
    }

    /// Generates an *overload* plan for `seed`: 4–14 events drawn from
    /// [`InjectKind::OVERLOAD`] (the four exhaustion kinds plus the crash
    /// boundary), so a sweep over seeds deterministically drives frame
    /// famines, AST exhaustion, quota storms, audit floods, and
    /// mid-overload crashes. Pure: same seed, same plan. Disjoint from
    /// [`FaultPlan::generate`]'s schedule space by construction.
    pub fn generate_overload(seed: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed ^ 0xd1b5_4a32_d192_ed03);
        let count = 4 + rng.below(11);
        let mut events: Vec<FaultEvent> = Vec::new();
        for _ in 0..count {
            let kind = InjectKind::OVERLOAD[rng.below(InjectKind::OVERLOAD.len() as u64) as usize];
            let nth = rng.below(HIT_HORIZON);
            let detail = rng.next_u64();
            if !events.iter().any(|e| e.kind == kind && e.nth == nth) {
                events.push(FaultEvent { kind, nth, detail });
            }
        }
        events.sort_by_key(|e| (e.kind, e.nth));
        FaultPlan { seed, events }
    }

    /// Generates a *replication* plan for `seed`: 3–12 events drawn from
    /// [`InjectKind::REPLICATION`] (hostile-link and replica-process
    /// faults), with hit indices below a wider horizon because link sites
    /// are consulted every cluster tick. Pure: same seed, same plan.
    /// Disjoint from [`FaultPlan::generate`] and
    /// [`FaultPlan::generate_overload`] by draw set and xor constant.
    pub fn generate_replication(seed: u64) -> FaultPlan {
        let mut rng = SplitMix64::new(seed ^ 0x8f1b_bcdc_ca62_c1d6);
        let count = 3 + rng.below(10);
        let mut events: Vec<FaultEvent> = Vec::new();
        for _ in 0..count {
            let kind =
                InjectKind::REPLICATION[rng.below(InjectKind::REPLICATION.len() as u64) as usize];
            let nth = rng.below(REPL_HIT_HORIZON);
            let detail = rng.next_u64();
            if !events.iter().any(|e| e.kind == kind && e.nth == nth) {
                events.push(FaultEvent { kind, nth, detail });
            }
        }
        events.sort_by_key(|e| (e.kind, e.nth));
        FaultPlan { seed, events }
    }

    /// Builds a hand-crafted plan (replay of a shrunk schedule, targeted
    /// tests). Deduplicates on `(kind, nth)` keeping the first, and sorts.
    pub fn from_events(events: Vec<FaultEvent>) -> FaultPlan {
        let mut out: Vec<FaultEvent> = Vec::new();
        for e in events {
            if !out.iter().any(|o| o.kind == e.kind && o.nth == e.nth) {
                out.push(e);
            }
        }
        out.sort_by_key(|e| (e.kind, e.nth));
        FaultPlan {
            seed: 0,
            events: out,
        }
    }

    /// Renders the schedule one event per line, for failure messages and
    /// reports.
    pub fn render(&self) -> String {
        if self.events.is_empty() {
            return "  (empty plan)".to_string();
        }
        self.events
            .iter()
            .map(|e| {
                format!(
                    "  {} at hit {} (detail {:#x})",
                    e.kind.name(),
                    e.nth,
                    e.detail
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A fault the injector actually fired, in firing order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FiredFault {
    /// The site class that fired.
    pub kind: InjectKind,
    /// The hit index at which it fired.
    pub nth: u64,
    /// The event's payload, as handed to the site.
    pub detail: u64,
}

/// Per-site-class state: hit counter plus the armed `(nth, detail)` pairs.
#[derive(Debug, Default)]
struct SiteState {
    hits: u64,
    armed: Vec<(u64, u64)>,
}

/// The injector proper: armed schedule, hit counters, fired log.
#[derive(Debug, Default)]
struct Injector {
    armed: bool,
    sites: [SiteState; NR_INJECT_KINDS],
    fired: Vec<FiredFault>,
}

/// A shared, clonable handle on one machine's injector. Every layer
/// reaches the injector through the [`Machine`](crate::Machine) that owns
/// the simulation, exactly like the flight recorder. The default handle is
/// disarmed and never fires.
#[derive(Clone, Debug, Default)]
pub struct InjectorHandle(Rc<RefCell<Injector>>);

impl InjectorHandle {
    /// A fresh, disarmed injector (identical to `Default`).
    pub fn disarmed() -> InjectorHandle {
        InjectorHandle::default()
    }

    /// Arms `plan`, resetting all hit counters and the fired log. Sites
    /// consulted from now on replay the plan from hit 0.
    pub fn arm(&self, plan: &FaultPlan) {
        let mut inj = self.0.borrow_mut();
        for site in inj.sites.iter_mut() {
            site.hits = 0;
            site.armed.clear();
        }
        inj.fired.clear();
        inj.armed = true;
        for e in &plan.events {
            inj.sites[e.kind.index()].armed.push((e.nth, e.detail));
        }
    }

    /// Disarms the injector: sites stop counting and nothing further
    /// fires, but the fired log survives for post-mortem inspection.
    pub fn disarm(&self) {
        self.0.borrow_mut().armed = false;
    }

    /// True if a plan is currently armed.
    pub fn is_armed(&self) -> bool {
        self.0.borrow().armed
    }

    /// The injection-point consult. Counts one hit of `kind`'s site class
    /// and returns `Some(detail)` exactly when the armed plan schedules an
    /// event at this hit. Disarmed injectors neither count nor fire.
    pub fn fires(&self, kind: InjectKind) -> Option<u64> {
        let mut inj = self.0.borrow_mut();
        if !inj.armed {
            return None;
        }
        let site = &mut inj.sites[kind.index()];
        let hit = site.hits;
        site.hits += 1;
        let detail = site
            .armed
            .iter()
            .find(|(nth, _)| *nth == hit)
            .map(|(_, d)| *d)?;
        inj.fired.push(FiredFault {
            kind,
            nth: hit,
            detail,
        });
        Some(detail)
    }

    /// The clock-skew site: returns `now` warped backwards when a
    /// [`InjectKind::SkewClock`] event fires at this hit, saturating at
    /// zero so early records cannot underflow the cycle counter.
    pub fn warp_time(&self, now: Cycles) -> Cycles {
        match self.fires(InjectKind::SkewClock) {
            Some(detail) => now.saturating_sub(1 + detail % 997),
            None => now,
        }
    }

    /// Every fault fired since the last [`arm`](InjectorHandle::arm), in
    /// firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.0.borrow().fired.clone()
    }

    /// How many times `kind`'s site class has been consulted since the
    /// last arm.
    #[cfg(test)]
    fn site_hits(&self, kind: InjectKind) -> u64 {
        self.0.borrow().sites[kind.index()].hits
    }
}

/// Reduces `plan` to a schedule that is *minimal* for `reproduces`: the
/// result still reproduces, and removing any single remaining event stops
/// it from reproducing. Greedy delta-debugging over events — quadratic in
/// the (small) event count, and deterministic because the simulation is.
pub fn shrink_plan(plan: &FaultPlan, mut reproduces: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut events = plan.events.clone();
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < events.len() {
            let mut candidate = events.clone();
            candidate.remove(i);
            let cand = FaultPlan {
                seed: plan.seed,
                events: candidate,
            };
            if reproduces(&cand) {
                events = cand.events;
                changed = true;
            } else {
                i += 1;
            }
        }
    }
    FaultPlan {
        seed: plan.seed,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_pure_and_plans_differ_across_seeds() {
        for seed in 0..200 {
            assert_eq!(FaultPlan::generate(seed), FaultPlan::generate(seed));
        }
        let distinct: std::collections::BTreeSet<String> = (0..200)
            .map(|s| format!("{:?}", FaultPlan::generate(s).events))
            .collect();
        assert!(distinct.len() > 150, "seeds produce distinct schedules");
    }

    #[test]
    fn legacy_generation_never_draws_exhaustion_kinds() {
        // The committed E15 results pin `generate`'s schedules; the new
        // kinds must be unreachable from it.
        for seed in 0..500 {
            for e in FaultPlan::generate(seed).events {
                assert!(
                    InjectKind::LEGACY.contains(&e.kind),
                    "seed {seed} drew {:?}",
                    e.kind
                );
            }
        }
    }

    #[test]
    fn overload_generation_is_pure_and_draws_every_exhaustion_kind() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..200 {
            let p = FaultPlan::generate_overload(seed);
            assert_eq!(p, FaultPlan::generate_overload(seed));
            for e in p.events {
                assert!(InjectKind::OVERLOAD.contains(&e.kind));
                kinds.insert(e.kind);
            }
        }
        assert_eq!(kinds.len(), InjectKind::OVERLOAD.len(), "{kinds:?}");
    }

    #[test]
    fn replication_generation_is_pure_and_draws_every_link_kind() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..200 {
            let p = FaultPlan::generate_replication(seed);
            assert_eq!(p, FaultPlan::generate_replication(seed));
            for e in p.events {
                assert!(InjectKind::REPLICATION.contains(&e.kind));
                kinds.insert(e.kind);
            }
        }
        assert_eq!(kinds.len(), InjectKind::REPLICATION.len(), "{kinds:?}");
    }

    #[test]
    fn legacy_and_overload_draw_sets_exclude_replication_kinds() {
        for k in InjectKind::REPLICATION {
            assert!(!InjectKind::LEGACY.contains(&k));
            assert!(!InjectKind::OVERLOAD.contains(&k));
        }
        for seed in 0..200 {
            for e in FaultPlan::generate_overload(seed).events {
                assert!(!InjectKind::REPLICATION.contains(&e.kind));
            }
        }
    }

    #[test]
    fn plans_are_sorted_and_deduplicated() {
        for seed in 0..100 {
            let p = FaultPlan::generate(seed);
            assert!(!p.events.is_empty());
            for w in p.events.windows(2) {
                assert!((w[0].kind, w[0].nth) < (w[1].kind, w[1].nth));
            }
        }
    }

    #[test]
    fn disarmed_injector_never_counts_or_fires() {
        let inj = InjectorHandle::disarmed();
        for _ in 0..10 {
            assert_eq!(inj.fires(InjectKind::Crash), None);
        }
        assert_eq!(inj.site_hits(InjectKind::Crash), 0);
        assert!(inj.fired().is_empty());
    }

    #[test]
    fn armed_injector_fires_exactly_the_scheduled_hits() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                kind: InjectKind::SlowDisk,
                nth: 1,
                detail: 7,
            },
            FaultEvent {
                kind: InjectKind::SlowDisk,
                nth: 3,
                detail: 9,
            },
            FaultEvent {
                kind: InjectKind::Crash,
                nth: 0,
                detail: 0,
            },
        ]);
        let inj = InjectorHandle::disarmed();
        inj.arm(&plan);
        let hits: Vec<Option<u64>> = (0..5).map(|_| inj.fires(InjectKind::SlowDisk)).collect();
        assert_eq!(hits, vec![None, Some(7), None, Some(9), None]);
        assert_eq!(inj.fires(InjectKind::Crash), Some(0));
        assert_eq!(inj.site_hits(InjectKind::SlowDisk), 5);
        assert_eq!(
            inj.fired(),
            vec![
                FiredFault {
                    kind: InjectKind::SlowDisk,
                    nth: 1,
                    detail: 7
                },
                FiredFault {
                    kind: InjectKind::SlowDisk,
                    nth: 3,
                    detail: 9
                },
                FiredFault {
                    kind: InjectKind::Crash,
                    nth: 0,
                    detail: 0
                },
            ]
        );
    }

    #[test]
    fn rearming_replays_from_hit_zero() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            kind: InjectKind::DropWakeup,
            nth: 0,
            detail: 1,
        }]);
        let inj = InjectorHandle::disarmed();
        inj.arm(&plan);
        assert_eq!(inj.fires(InjectKind::DropWakeup), Some(1));
        assert_eq!(inj.fires(InjectKind::DropWakeup), None);
        inj.arm(&plan);
        assert_eq!(inj.fires(InjectKind::DropWakeup), Some(1));
    }

    #[test]
    fn disarm_stops_firing_but_keeps_the_log() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                kind: InjectKind::Crash,
                nth: 0,
                detail: 0,
            },
            FaultEvent {
                kind: InjectKind::Crash,
                nth: 1,
                detail: 0,
            },
        ]);
        let inj = InjectorHandle::disarmed();
        inj.arm(&plan);
        assert!(inj.fires(InjectKind::Crash).is_some());
        inj.disarm();
        assert_eq!(inj.fires(InjectKind::Crash), None);
        assert_eq!(inj.fired().len(), 1);
    }

    #[test]
    fn warp_time_saturates_at_zero() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            kind: InjectKind::SkewClock,
            nth: 0,
            detail: 996, // skew of 1 + 996 % 997 = 997 cycles
        }]);
        let inj = InjectorHandle::disarmed();
        inj.arm(&plan);
        assert_eq!(inj.warp_time(5), 0, "skew past zero saturates");
        assert_eq!(inj.warp_time(5), 5, "only the scheduled hit warps");
    }

    #[test]
    fn shrink_finds_the_minimal_reproducing_schedule() {
        let plan = FaultPlan::generate(42);
        assert!(plan.events.len() >= 2);
        // "Reproduces" iff the schedule contains the lexicographically first
        // event of the original plan — the shrunk plan must be exactly it.
        let needle = plan.events[0];
        let shrunk = shrink_plan(&plan, |p| p.events.contains(&needle));
        assert_eq!(shrunk.events, vec![needle]);
        // Minimality: removing the survivor stops reproduction.
        assert!(!shrink_plan(&shrunk, |p| p.events.contains(&needle))
            .events
            .is_empty());
    }

    #[test]
    fn shrink_of_a_conjunction_keeps_both_events() {
        let a = FaultEvent {
            kind: InjectKind::SlowDisk,
            nth: 0,
            detail: 1,
        };
        let b = FaultEvent {
            kind: InjectKind::Crash,
            nth: 2,
            detail: 3,
        };
        // Noise events ride along; `from_events` keeps the first claimant
        // of each (kind, nth), so a and b go in front.
        let mut events = vec![a, b];
        events.extend(FaultPlan::generate(7).events);
        let plan = FaultPlan::from_events(events);
        let shrunk = shrink_plan(&plan, |p| p.events.contains(&a) && p.events.contains(&b));
        assert_eq!(shrunk.events.len(), 2);
        assert!(shrunk.events.contains(&a) && shrunk.events.contains(&b));
    }
}
