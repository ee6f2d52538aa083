//! "Multics as a service": the E18 population generator and sustained
//! traffic driver.
//!
//! The paper's kernel is sized for a computer utility — thousands of
//! simultaneous users drawn from a much larger registered population.
//! This module builds that population *deterministically* and drives the
//! kernel with production-shaped traffic so the scale experiment can
//! check that mediation cost is a property of the *operation*, not of
//! the population.
//!
//! Three design rules keep a million principals affordable inside one
//! simulated world:
//!
//! * **Identity space, not identity records.** Principals are a pure
//!   function of their index: `principal(i)`, `password(i)`,
//!   `clearance(i)`. Memory is O(projects), never O(population); the
//!   only per-principal state the kernel holds is for principals that
//!   have actually shown up (lazy [`AuthDb`] enrollment at first login —
//!   exactly how a real site's answering service meets its users).
//!
//! * **Skew by construction.** Project sizes follow a Zipf law (project
//!   `k` has weight `1/(k+1)`), so drawing a principal uniformly from
//!   the population yields realistically skewed project traffic for
//!   free. The registry segment's ACL carries up to 10^5 exact entries;
//!   directory fan-out and ACL size both grow with the rung, so a linear
//!   scan *would* degrade while the indexed paths stay flat.
//!
//! * **Bounded live state.** At most [`MAX_SESSIONS`] processes exist at
//!   once; login churn recycles them through
//!   [`KernelWorld::destroy_process`], so the driver can push tens of
//!   millions of operations without the world outgrowing memory.
//!
//! [`AuthDb`]: mks_kernel::AuthDb
//! [`KernelWorld::destroy_process`]: mks_kernel::KernelWorld::destroy_process

use std::collections::HashSet;

use mks_fs::{Acl, AclMode, BranchKind, DirMode, FileSystem, UserId};
use mks_hw::{Fnv64, RingBrackets, SegNo, SegUid, SplitMix64, Word};
use mks_kernel::subsystem::login;
use mks_kernel::world::{admin_user, System, SystemSize};
use mks_kernel::{AuditEvent, KProcId, KernelConfig, Monitor};
use mks_mls::{Compartments, Label, Level};

/// The population rungs the scale experiment climbs: 10^3 → 10^6.
pub(crate) const RUNGS: &[u64] = &[1_000, 10_000, 100_000, 1_000_000];

/// Live sessions the traffic driver keeps at once.
pub const MAX_SESSIONS: usize = 32;

/// The deterministic population model: projects with Zipf-skewed sizes,
/// principals as pure functions of their index.
#[derive(Clone, Debug)]
pub struct PopulationModel {
    /// Registered principals.
    pub population: u64,
    /// Generator seed (principals' passwords depend on it).
    pub seed: u64,
    /// `starts[k]..starts[k+1]` is project `k`'s member range.
    starts: Vec<u64>,
}

impl PopulationModel {
    /// Builds the model. Project count scales with the population
    /// (roughly one project per 500 principals, clamped to 4..=2048) and
    /// sizes follow `1/(k+1)` — at 10^6 the largest project has ~10^5
    /// members and the smallest a few dozen.
    pub fn new(population: u64, seed: u64) -> PopulationModel {
        assert!(population >= 4, "population too small to shape");
        let nr = usize::try_from((population / 500).clamp(4, 2048)).unwrap();
        let weights: Vec<f64> = (0..nr).map(|k| 1.0 / (k as f64 + 1.0)).collect();
        let total: f64 = weights.iter().sum();
        let mut starts = Vec::with_capacity(nr + 1);
        starts.push(0u64);
        let mut acc = 0.0;
        for (k, w) in weights.iter().enumerate() {
            acc += w;
            let s = if k == nr - 1 {
                population
            } else {
                ((population as f64 * acc / total).round() as u64).clamp(starts[k], population)
            };
            starts.push(s);
        }
        PopulationModel {
            population,
            seed,
            starts,
        }
    }

    /// Number of projects.
    pub fn nr_projects(&self) -> usize {
        self.starts.len() - 1
    }

    /// Members of project `k`.
    fn project_size(&self, k: usize) -> u64 {
        self.starts[k + 1] - self.starts[k]
    }

    /// Members of the largest project.
    pub(crate) fn largest_project(&self) -> u64 {
        (0..self.nr_projects())
            .map(|k| self.project_size(k))
            .max()
            .unwrap_or(0)
    }

    /// The project principal `i` belongs to.
    pub fn project_of(&self, i: u64) -> usize {
        debug_assert!(i < self.population);
        // Last start at or below `i`; empty projects cannot win because
        // their start equals the next one's.
        self.starts.partition_point(|&s| s <= i) - 1
    }

    /// Principal `i` as a kernel [`UserId`].
    pub fn principal(&self, i: u64) -> UserId {
        UserId::new(&format!("U{i}"), &format!("P{}", self.project_of(i)), "a")
    }

    /// Principal `i`'s password (deterministic in the seed).
    pub fn password(&self, i: u64) -> String {
        format!("pw-{:x}-{i}", self.seed)
    }

    /// Principal `i`'s clearance: most of the population is uncleared,
    /// every fourth principal is CONFIDENTIAL, every sixteenth SECRET —
    /// the skew a real site shows.
    pub fn clearance(&self, i: u64) -> Label {
        match i % 16 {
            0 => Label::new(Level::SECRET, Compartments::NONE),
            4 | 8 | 12 => Label::new(Level::CONFIDENTIAL, Compartments::NONE),
            _ => Label::BOTTOM,
        }
    }

    /// Exact entries on the registry segment's ACL (grows with the
    /// population, capped at 10^5 — the counterfactual a linear scan
    /// would pay on every access check).
    pub fn registry_entries(&self) -> u64 {
        (self.population / 10).clamp(16, 100_000)
    }

    /// The principal the `e`-th registry ACL entry names.
    pub fn registry_principal(&self, e: u64) -> u64 {
        let step = (self.population / self.registry_entries()).max(1);
        (e * step) % self.population
    }
}

/// One logged-in session the driver is cycling.
pub struct Session {
    /// Principal index in the population.
    pub idx: u64,
    /// The session's process.
    pub pid: KProcId,
    /// The project directory, bound in this process's KST.
    pub proj: SegNo,
    /// The project roster segment.
    pub roster: SegNo,
    /// The shared registry segment (the hot-ACL object).
    pub registry: SegNo,
}

/// A built scale world: the system plus the handles the driver needs.
pub struct ScaleWorld {
    /// The kernel-configuration system under load.
    pub sys: System,
    /// The population the world was built from.
    pub model: PopulationModel,
    /// The administrator process.
    pub admin: KProcId,
    /// `>udd`'s uid (project directories live under it).
    pub udd_uid: SegUid,
    /// `>udd` bound in the admin's KST.
    pub udd_segno: SegNo,
    enrolled: HashSet<u64>,
    /// Live sessions, oldest first (benches reach in for warm handles).
    pub sessions: Vec<Session>,
}

/// What the sustained-traffic driver did.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrafficStats {
    /// Monitor-mediated operations issued.
    pub ops: u64,
    /// Of which succeeded.
    pub completed: u64,
    /// Of which were denied (audited refusals).
    pub denied: u64,
    /// Sessions opened (logins).
    pub logins: u64,
    /// Principals enrolled into the [`mks_kernel::AuthDb`] on first login.
    pub enrollments: u64,
    /// Sessions closed (audited with one batched emission each).
    pub logouts: u64,
    /// Op-mix tallies.
    pub reads: u64,
    /// Writes to project rosters.
    pub writes: u64,
    /// Gate calls.
    pub gate_calls: u64,
    /// Segment initiations (including session setup).
    pub initiations: u64,
    /// Terminations.
    pub terminations: u64,
    /// Directory listings.
    pub listings: u64,
    /// Status queries.
    pub statuses: u64,
}

/// Builds the world: `>udd`, one directory per project (member-writable,
/// world-statusable) holding its roster segment, a deep archive subtree
/// under the largest project, and the registry segment whose ACL carries
/// the population's exact entries.
pub fn build_world(model: &PopulationModel) -> ScaleWorld {
    // Primary memory stays fixed — mediation must not need more core as
    // the site grows — but the drum is provisioned for the site, like any
    // computing utility's secondary store: enough records that the
    // population's segments page against the bulk store, not the disk.
    // (Undersize it and the big rungs measure 60k-cycle disk transfers
    // instead of the monitor.)
    let bulk_records = (model.nr_projects() * 4).max(512);
    let mut sys = System::with_size(
        KernelConfig::kernel(),
        SystemSize {
            frames: 128,
            bulk_records,
            cpu: mks_hw::CpuModel::H6180,
            ..SystemSize::default()
        },
    );
    let admin = sys.world.create_process(admin_user(), Label::BOTTOM, 4);
    let aroot = sys.world.bind_root(admin);
    Monitor::create_directory(&mut sys.world, admin, aroot, "udd", Label::BOTTOM)
        .expect("udd creates on a fresh system");
    sys.world
        .fs
        .set_dir_acl_entry(FileSystem::ROOT, "udd", &admin_user(), "*.*.*", DirMode::S)
        .expect("udd world-status grant");
    let udd_segno = Monitor::initiate_dir(&mut sys.world, admin, aroot, "udd");
    let udd_uid = sys
        .world
        .fs
        .peek_branch(FileSystem::ROOT, "udd")
        .expect("udd exists")
        .uid;

    // The registry: one hot segment whose ACL names a slice of the whole
    // population exactly, with a world-readable fallback. This is the
    // object whose access check a linear scan would pay ~10^5 entries
    // for; the exact-principal index answers in one probe.
    let mut racl: Acl<AclMode> = Acl::of("*.*.*", AclMode::R);
    for e in 0..model.registry_entries() {
        racl.add(
            &model.principal(model.registry_principal(e)).to_acl_string(),
            AclMode::REW,
        );
    }
    Monitor::create_segment(
        &mut sys.world,
        admin,
        udd_segno,
        "registry",
        racl,
        RingBrackets::new(4, 4, 4),
        Label::BOTTOM,
    )
    .expect("registry creates");

    // Project directories and rosters.
    for k in 0..model.nr_projects() {
        let name = format!("P{k}");
        Monitor::create_directory(&mut sys.world, admin, udd_segno, &name, Label::BOTTOM)
            .expect("project directory creates");
        let member = format!("*.P{k}.*");
        sys.world
            .fs
            .set_dir_acl_entry(udd_uid, &name, &admin_user(), &member, DirMode::SMA)
            .expect("member grant");
        sys.world
            .fs
            .set_dir_acl_entry(udd_uid, &name, &admin_user(), "*.*.*", DirMode::S)
            .expect("world-status grant");
        let pseg = Monitor::initiate_dir(&mut sys.world, admin, udd_segno, &name);
        let mut roster: Acl<AclMode> = Acl::of(&member, AclMode::RW);
        roster.add("*.*.*", AclMode::R);
        Monitor::create_segment(
            &mut sys.world,
            admin,
            pseg,
            "roster",
            roster,
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .expect("roster creates");
    }

    // The largest project's archive subtree — hierarchy depth scales
    // with project weight, not uniformly.
    let mut dir = Monitor::initiate_dir(&mut sys.world, admin, udd_segno, "P0");
    for level in 0..3 {
        let name = format!("archive{level}");
        Monitor::create_directory(&mut sys.world, admin, dir, &name, Label::BOTTOM)
            .expect("archive level creates");
        dir = Monitor::initiate_dir(&mut sys.world, admin, dir, &name);
        let mut log_acl: Acl<AclMode> = Acl::of("*.P0.*", AclMode::RW);
        log_acl.add(&admin_user().to_acl_string(), AclMode::RW);
        Monitor::create_segment(
            &mut sys.world,
            admin,
            dir,
            "log",
            log_acl,
            RingBrackets::new(4, 4, 4),
            Label::BOTTOM,
        )
        .expect("archive log creates");
    }

    ScaleWorld {
        sys,
        model: model.clone(),
        admin,
        udd_uid,
        udd_segno,
        enrolled: HashSet::new(),
        sessions: Vec::new(),
    }
}

impl ScaleWorld {
    /// The registry segment's ACL (the hot object under test).
    pub fn registry_acl(&self) -> &Acl<AclMode> {
        let b = self
            .sys
            .world
            .fs
            .peek_branch(self.udd_uid, "registry")
            .expect("registry exists");
        match &b.kind {
            BranchKind::Segment { acl, .. } => acl,
            BranchKind::Directory { .. } => unreachable!("registry is a segment"),
        }
    }

    /// Logs principal `i` in (enrolling it on first sight), binds its
    /// project and the registry, and returns the monitor ops spent.
    fn open_session(&mut self, i: u64, stats: &mut TrafficStats) -> bool {
        let user = self.model.principal(i);
        if self.enrolled.insert(i) {
            self.sys
                .world
                .auth
                .register(&user, &self.model.password(i), self.model.clearance(i));
            stats.enrollments += 1;
        }
        let Ok(out) = login(
            &mut self.sys.world,
            &user,
            &self.model.password(i),
            Label::BOTTOM,
            4,
        ) else {
            return false;
        };
        stats.logins += 1;
        let pid = out.pid;
        let root = self.sys.world.bind_root(pid);
        let udd = Monitor::initiate_dir(&mut self.sys.world, pid, root, "udd");
        let proj = Monitor::initiate_dir(
            &mut self.sys.world,
            pid,
            udd,
            &format!("P{}", self.model.project_of(i)),
        );
        stats.ops += 2;
        stats.completed += 2;
        let roster = Monitor::initiate(&mut self.sys.world, pid, proj, "roster");
        let registry = Monitor::initiate(&mut self.sys.world, pid, udd, "registry");
        stats.ops += 2;
        stats.initiations += 2;
        let (Ok(roster), Ok(registry)) = (roster, registry) else {
            self.sys.world.destroy_process(pid);
            return false;
        };
        stats.completed += 2;
        self.sessions.push(Session {
            idx: i,
            pid,
            proj,
            roster,
            registry,
        });
        true
    }

    /// Closes the oldest session: one *batched* audit emission for the
    /// logout records, then the process record is destroyed.
    fn close_oldest(&mut self, stats: &mut TrafficStats) {
        if self.sessions.is_empty() {
            return;
        }
        let s = self.sessions.remove(0);
        let user = self.model.principal(s.idx);
        self.sys.world.audit_batch(vec![
            (
                Some(user.clone()),
                AuditEvent::Lifecycle {
                    what: format!("logout U{}", s.idx),
                },
            ),
            (
                Some(user),
                AuditEvent::Lifecycle {
                    what: "process destroyed".into(),
                },
            ),
        ]);
        self.sys.world.destroy_process(s.pid);
        stats.logouts += 1;
    }

    /// Live sessions.
    pub fn nr_sessions(&self) -> usize {
        self.sessions.len()
    }
}

/// Drives `target_ops` monitor-mediated operations of production-shaped
/// traffic: read-dominated segment access, gate calls, initiation churn,
/// directory queries, a trickle of denied probes, and login churn paced
/// so thousands of sessions cycle over a big run regardless of rung.
pub fn run_traffic(sw: &mut ScaleWorld, target_ops: u64, seed: u64) -> TrafficStats {
    let mut stats = TrafficStats::default();
    let mut rng = SplitMix64::new(0xe18 ^ seed);
    // Sessions cycle at a fixed per-op rate so the op mix — including
    // the page faults a fresh session's roster takes — is identical at
    // every rung; that makes cycles-per-op comparable across
    // populations. The rate is low because login deliberately burns a
    // slow password hash.
    let churn_every = 2_048;
    // Warm pool.
    while sw.sessions.len() < MAX_SESSIONS.min(8) && stats.ops < target_ops {
        let i = rng.below(sw.model.population);
        sw.open_session(i, &mut stats);
    }
    let mut since_churn = 0u64;
    while stats.ops < target_ops {
        if sw.sessions.is_empty() {
            let i = rng.below(sw.model.population);
            if !sw.open_session(i, &mut stats) {
                // Deterministic model: a failed open means a kernel bug,
                // not bad luck. Keep going; the completion claim counts.
                continue;
            }
        }
        since_churn += 1;
        if since_churn >= churn_every {
            since_churn = 0;
            if sw.sessions.len() >= MAX_SESSIONS {
                sw.close_oldest(&mut stats);
            }
            let i = rng.below(sw.model.population);
            sw.open_session(i, &mut stats);
            continue;
        }
        let s = rng.below(sw.sessions.len() as u64) as usize;
        let (pid, proj, roster, registry) = {
            let s = &sw.sessions[s];
            (s.pid, s.proj, s.roster, s.registry)
        };
        let world = &mut sw.sys.world;
        match rng.below(100) {
            // 62%: reads — registry (the hot-ACL object) and the roster.
            r @ 0..=61 => {
                let seg = if r % 2 == 0 { registry } else { roster };
                let ok = Monitor::read(world, pid, seg, rng.below(64) as usize).is_ok();
                stats.ops += 1;
                stats.reads += 1;
                if ok {
                    stats.completed += 1;
                } else {
                    stats.denied += 1;
                }
            }
            // 12%: writes to the member-writable roster.
            62..=73 => {
                let ok = Monitor::write(
                    world,
                    pid,
                    roster,
                    rng.below(64) as usize,
                    Word::new(stats.ops),
                )
                .is_ok();
                stats.ops += 1;
                stats.writes += 1;
                if ok {
                    stats.completed += 1;
                } else {
                    stats.denied += 1;
                }
            }
            // 15%: gate calls (the metering export gate — user-available).
            74..=88 => {
                let ok = Monitor::call_gate(world, pid, "hcs_", "metering_get").is_ok();
                stats.ops += 1;
                stats.gate_calls += 1;
                if ok {
                    stats.completed += 1;
                } else {
                    stats.denied += 1;
                }
            }
            // 6%: initiation churn — terminate the roster, re-initiate it.
            89..=94 => {
                let t = Monitor::terminate(world, pid, roster).is_ok();
                let r2 = Monitor::initiate(world, pid, proj, "roster");
                stats.ops += 2;
                stats.terminations += 1;
                stats.initiations += 1;
                stats.completed += u64::from(t);
                match r2 {
                    Ok(new_roster) => {
                        stats.completed += 1;
                        sw.sessions[s].roster = new_roster;
                    }
                    Err(_) => stats.denied += 1,
                }
            }
            // 2%: directory listings.
            95..=96 => {
                let ok = Monitor::list_dir(world, pid, proj).is_ok();
                stats.ops += 1;
                stats.listings += 1;
                if ok {
                    stats.completed += 1;
                } else {
                    stats.denied += 1;
                }
            }
            // 1%: status queries.
            97 => {
                let ok = Monitor::status(world, pid, proj, "roster").is_ok();
                stats.ops += 1;
                stats.statuses += 1;
                if ok {
                    stats.completed += 1;
                } else {
                    stats.denied += 1;
                }
            }
            // 2%: mostly another read; rarely a probe at a privileged
            // gate — denied, audited, and kept rare enough that the
            // audit log stays bounded over 10^7 ops.
            _ => {
                if rng.below(64) == 0 {
                    let ok = Monitor::call_gate(world, pid, "hphcs_", "shutdown").is_ok();
                    stats.ops += 1;
                    stats.gate_calls += 1;
                    if ok {
                        stats.completed += 1;
                    } else {
                        stats.denied += 1;
                    }
                } else {
                    let ok = Monitor::read(world, pid, registry, rng.below(64) as usize).is_ok();
                    stats.ops += 1;
                    stats.reads += 1;
                    if ok {
                        stats.completed += 1;
                    } else {
                        stats.denied += 1;
                    }
                }
            }
        }
    }
    stats
}

/// Samples the registry ACL: indexed verdicts vs the linear spec, plus
/// the indexed work-units spent. Returns
/// `(mismatches, evals, work_units, linear_equivalent_per_eval)`.
pub fn acl_differential(sw: &ScaleWorld, samples: u64) -> (u64, u64, u64, u64) {
    let acl = sw.registry_acl();
    let model = &sw.model;
    let step = (model.population / samples.max(1)).max(1);
    let mut mismatches = 0u64;
    let mut work = 0u64;
    let mut evals = 0u64;
    for j in 0..samples {
        let user = model.principal((j * step) % model.population);
        let (indexed, w) = acl.effective_counted(&user);
        if indexed != acl.effective_linear(&user) {
            mismatches += 1;
        }
        work += u64::from(w);
        evals += 1;
    }
    // Principals outside the population miss the exact index and pay the
    // (short, constant) wildcard list.
    for j in 0..samples / 4 {
        let ghost = UserId::new(&format!("Ghost{j}"), "P0", "a");
        let (indexed, w) = acl.effective_counted(&ghost);
        if indexed != acl.effective_linear(&ghost) {
            mismatches += 1;
        }
        work += u64::from(w);
        evals += 1;
    }
    (mismatches, evals, work, acl.entries().len() as u64)
}

/// Samples hierarchy lookups: indexed name and uid resolution vs the
/// retained linear scans. Returns the mismatch count.
pub fn lookup_differential(sw: &ScaleWorld, samples: u64) -> u64 {
    let fs = &sw.sys.world.fs;
    let model = &sw.model;
    let mut mismatches = 0u64;
    let uid_of = |b: Option<&mks_fs::Branch>| b.map(|b| b.uid);
    for j in 0..samples {
        let k = (j as usize * 7) % model.nr_projects();
        let name = format!("P{k}");
        let fast = uid_of(fs.peek_branch(sw.udd_uid, &name));
        let slow = uid_of(fs.peek_branch_linear(sw.udd_uid, &name));
        if fast != slow {
            mismatches += 1;
        }
        if let Some(uid) = fast {
            let fast_dir = fs.find_by_uid(uid).map(|(d, b)| (d, b.uid));
            let slow_dir = fs.find_by_uid_linear(uid).map(|(d, b)| (d, b.uid));
            if fast_dir != slow_dir {
                mismatches += 1;
            }
        }
        let ghost = format!("nosuch{j}");
        if uid_of(fs.peek_branch(sw.udd_uid, &ghost))
            != uid_of(fs.peek_branch_linear(sw.udd_uid, &ghost))
        {
            mismatches += 1;
        }
    }
    mismatches
}

/// Checks that one [`mks_kernel::KernelWorld::audit_batch`] call leaves
/// the log and the observatory byte-identical to the same records
/// emitted one `audit` call at a time on an identical (uninjected)
/// world. Returns `true` on exact parity.
pub fn audit_batch_parity() -> bool {
    let who = |i: u64| Some(UserId::new(&format!("W{i}"), "Parity", "a"));
    let events = |tag: &str| -> Vec<(Option<UserId>, AuditEvent)> {
        (0..8)
            .map(|i| {
                let ev = match i % 4 {
                    0 => AuditEvent::AccessDenied {
                        what: format!("{tag} probe {i}"),
                    },
                    1 => AuditEvent::Login {
                        success: i % 2 == 0,
                    },
                    2 => AuditEvent::GateRefused {
                        target: format!("{tag}${i}"),
                    },
                    _ => AuditEvent::Lifecycle {
                        what: format!("{tag} life {i}"),
                    },
                };
                (who(i), ev)
            })
            .collect()
    };
    let mut singles = System::new(KernelConfig::kernel());
    for (w, ev) in events("x") {
        singles.world.audit(w, ev);
    }
    let mut batched = System::new(KernelConfig::kernel());
    batched.world.audit_batch(events("x"));
    let log_equal = singles.world.log.records() == batched.world.log.records()
        && singles.world.log.clock_skews() == batched.world.log.clock_skews();
    let obs_equal = singles
        .world
        .vm
        .machine
        .trace
        .read_observatory(|o| o.totals().denials)
        == batched
            .world
            .vm
            .machine
            .trace
            .read_observatory(|o| o.totals().denials);
    log_equal && obs_equal
}

/// A deterministic digest of the observable world state — used by the
/// byte-identical-generation test. FNV-1a over the clock, the hierarchy
/// shape under `>udd`, the registry ACL, and the audit log.
pub fn world_digest(sw: &ScaleWorld) -> u64 {
    let mut h = Fnv64::new();
    let world = &sw.sys.world;
    h.bytes(&world.vm.machine.clock.now().to_le_bytes());
    h.bytes(&(world.fs.nr_directories() as u64).to_le_bytes());
    for name in world.fs.child_names(sw.udd_uid) {
        h.bytes(name.as_bytes());
        if let Some(b) = world.fs.peek_branch(sw.udd_uid, &name) {
            h.bytes(&b.uid.0.to_le_bytes());
        }
    }
    for e in sw.registry_acl().entries() {
        h.bytes(e.person.as_bytes())
            .bytes(e.project.as_bytes())
            .bytes(e.tag.as_bytes());
    }
    for r in world.log.records() {
        h.bytes(&r.seq.to_le_bytes()).bytes(&r.at.to_le_bytes());
        if let Some(w) = &r.who {
            h.bytes(w.person.as_bytes());
        }
    }
    h.bytes(&world.log.clock_skews().to_le_bytes()).finish()
}

/// Everything E18 measures at one population rung.
#[derive(Clone, Debug)]
pub struct RungMeasurement {
    /// Registered principals at this rung.
    pub population: u64,
    /// Projects in the model.
    pub nr_projects: u64,
    /// Members of the largest project.
    pub largest_project: u64,
    /// Exact entries on the registry ACL.
    pub registry_entries: u64,
    /// Monitor-mediated ops driven.
    pub ops: u64,
    /// Simulated cycles the traffic consumed.
    pub sim_cycles: u64,
    /// Simulated cycles per op.
    pub cycles_per_op: f64,
    /// Hierarchy lookups during traffic.
    pub lookups: u64,
    /// Branch-slot probes those lookups spent.
    pub probes: u64,
    /// Probes per lookup (healthy hierarchy: ~1, any rung).
    pub probes_per_lookup: f64,
    /// ACL work-units per evaluation on the indexed path.
    pub acl_work_per_eval: f64,
    /// What a full linear scan would examine per evaluation.
    pub acl_linear_equiv: u64,
    /// Indexed-vs-linear ACL verdict mismatches (sampled).
    pub acl_mismatches: u64,
    /// Indexed-vs-linear hierarchy lookup mismatches (sampled).
    pub lookup_mismatches: u64,
    /// User-available gate entries after the run.
    pub gate_census: u64,
    /// Traffic tallies.
    pub stats: TrafficStats,
}

/// Runs one rung: build the population's world, drive `target_ops` of
/// traffic, then measure work-units and run the sampled differentials.
pub(crate) fn run_rung(population: u64, seed: u64, target_ops: u64) -> RungMeasurement {
    let model = PopulationModel::new(population, seed);
    let mut sw = build_world(&model);
    sw.sys.world.fs.reset_lookup_work();
    let start = sw.sys.world.vm.machine.clock.now();
    let stats = run_traffic(&mut sw, target_ops, seed);
    let sim_cycles = sw.sys.world.vm.machine.clock.now() - start;
    let (lookups, probes) = sw.sys.world.fs.lookup_work();
    let (acl_mismatches, acl_evals, acl_work, acl_linear_equiv) = acl_differential(&sw, 1_000);
    let lookup_mismatches = lookup_differential(&sw, 200);
    RungMeasurement {
        population,
        nr_projects: model.nr_projects() as u64,
        largest_project: model.largest_project(),
        registry_entries: model.registry_entries(),
        ops: stats.ops,
        sim_cycles,
        cycles_per_op: sim_cycles as f64 / stats.ops.max(1) as f64,
        lookups,
        probes,
        probes_per_lookup: probes as f64 / lookups.max(1) as f64,
        acl_work_per_eval: acl_work as f64 / acl_evals.max(1) as f64,
        acl_linear_equiv,
        acl_mismatches,
        lookup_mismatches,
        gate_census: sw.sys.world.gates.user_available_entries() as u64,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_partitions_exactly() {
        for pop in [1_000u64, 10_000, 123_457] {
            let m = PopulationModel::new(pop, 7);
            let total: u64 = (0..m.nr_projects()).map(|k| m.project_size(k)).sum();
            assert_eq!(total, pop);
            // Zipf skew: the largest project dwarfs the smallest.
            assert!(m.largest_project() > m.project_size(m.nr_projects() - 1));
            // Membership is consistent with the ranges.
            for i in [0, pop / 3, pop - 1] {
                let k = m.project_of(i);
                assert!(m.project_size(k) > 0);
                let u = m.principal(i);
                assert_eq!(u.project, format!("P{k}"));
            }
        }
    }

    #[test]
    fn small_world_traffic_is_deterministic() {
        let run = || {
            let model = PopulationModel::new(2_000, 42);
            let mut sw = build_world(&model);
            let stats = run_traffic(&mut sw, 5_000, 42);
            (world_digest(&sw), stats.ops, stats.completed, stats.logins)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn differentials_are_clean_on_a_small_world() {
        let model = PopulationModel::new(2_000, 3);
        let mut sw = build_world(&model);
        run_traffic(&mut sw, 5_000, 3);
        let (acl_mm, evals, work, linear) = acl_differential(&sw, 500);
        assert_eq!(acl_mm, 0);
        assert!(evals > 0 && work >= evals);
        assert!(linear >= 16);
        assert_eq!(lookup_differential(&sw, 100), 0);
    }

    #[test]
    fn audit_batching_is_byte_identical() {
        assert!(audit_batch_parity());
    }

    #[test]
    fn traffic_completes_and_churns() {
        let model = PopulationModel::new(1_000, 9);
        let mut sw = build_world(&model);
        let stats = run_traffic(&mut sw, 20_000, 9);
        assert!(stats.ops >= 20_000);
        assert!(
            stats.completed as f64 >= stats.ops as f64 * 0.9,
            "{stats:?}"
        );
        assert!(stats.logins > 8, "{stats:?}");
        assert!(sw.nr_sessions() <= MAX_SESSIONS);
    }
}
