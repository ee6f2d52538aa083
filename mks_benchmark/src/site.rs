//! The computer-utility site `utility_mix` and `acl_churn` run against:
//! a Zipf-skewed population, one directory per project under `>udd`,
//! a hot registry segment whose ACL names a slice of the population
//! exactly, and a bounded pool of logged-in sessions.
//!
//! Principals are pure functions of their index, so memory is
//! O(projects), not O(population); a principal is enrolled with the
//! authentication database the first time it logs in.

use std::collections::{HashSet, VecDeque};

use mks_fs::{Acl, AclMode, BranchKind, DirMode, FileSystem, UserId};
use mks_hw::{CpuModel, RingBrackets, SegNo, SegUid, SplitMix64};
use mks_kernel::subsystem::login;
use mks_kernel::world::{admin_user, System, SystemSize};
use mks_kernel::{AuditEvent, KProcId, KernelConfig, Monitor};
use mks_mls::{Compartments, Label, Level};

use crate::meter::Meter;

/// Most sessions alive at once; login churn recycles them.
pub const MAX_SESSIONS: usize = 32;

/// Client actions between two logins.
pub const CHURN_EVERY: u64 = 2048;

/// Shape of the registered population.
#[derive(Clone, Debug)]
pub struct Population {
    pub size: u64,
    pub seed: u64,
    /// Exact entries on the registry ACL.
    pub registry_entries: u64,
    /// `starts[k]..starts[k+1]` are project `k`'s members.
    starts: Vec<u64>,
}

impl Population {
    /// `size` principals in about one project per 500 (4..=2048), with
    /// project `k` weighted `1/(k+1)`.
    pub fn new(size: u64, seed: u64) -> Population {
        let nr = (size / 500).clamp(4, 2048) as usize;
        let total: f64 = (0..nr).map(|k| 1.0 / (k as f64 + 1.0)).sum();
        let mut starts = vec![0u64];
        let mut acc = 0.0;
        for k in 0..nr {
            acc += 1.0 / (k as f64 + 1.0);
            let s = if k == nr - 1 {
                size
            } else {
                ((size as f64 * acc / total).round() as u64).clamp(starts[k], size)
            };
            starts.push(s);
        }
        Population {
            size,
            seed,
            registry_entries: (size / 10).clamp(16, 100_000),
            starts,
        }
    }

    pub fn nr_projects(&self) -> usize {
        self.starts.len() - 1
    }

    pub fn project_of(&self, i: u64) -> usize {
        self.starts.partition_point(|&s| s <= i) - 1
    }

    pub fn principal(&self, i: u64) -> UserId {
        UserId::new(&format!("U{i}"), &format!("P{}", self.project_of(i)), "a")
    }

    pub fn password(&self, i: u64) -> String {
        format!("pw-{:x}-{i}", self.seed)
    }

    /// Every fourth principal CONFIDENTIAL, every sixteenth SECRET.
    pub fn clearance(&self, i: u64) -> Label {
        match i % 16 {
            0 => Label::new(Level::SECRET, Compartments::NONE),
            4 | 8 | 12 => Label::new(Level::CONFIDENTIAL, Compartments::NONE),
            _ => Label::BOTTOM,
        }
    }

    /// The principal the `e`-th registry ACL entry names.
    pub fn registry_principal(&self, e: u64) -> u64 {
        let step = (self.size / self.registry_entries).max(1);
        (e * step) % self.size
    }
}

/// The member pattern of project `k`.
pub fn member(k: usize) -> String {
    format!("*.P{k}.*")
}

/// A member-only segment ACL. The administrator is named too: creating
/// a segment also initiates it for its creator.
pub fn member_acl(k: usize) -> Acl<AclMode> {
    let mut acl = Acl::of(&member(k), AclMode::RW);
    acl.add(&admin_user().to_acl_string(), AclMode::RW);
    acl
}

/// One logged-in session.
pub struct Session {
    pub idx: u64,
    pub pid: KProcId,
    pub project: usize,
    pub proj: SegNo,
    pub roster: SegNo,
    pub registry: SegNo,
}

/// A built site.
pub struct Site {
    pub sys: System,
    pub pop: Population,
    pub admin: KProcId,
    pub udd_uid: SegUid,
    /// Project directories as bound in the administrator's KST.
    pub projects: Vec<SegNo>,
    pub sessions: VecDeque<Session>,
    pub logins: u64,
    enrolled: HashSet<u64>,
}

impl Site {
    /// Builds the hierarchy on a machine with `frames` of primary memory.
    /// `private` adds a member-only segment to every project (what
    /// `acl_churn`'s stranger probes are refused).
    ///
    /// # Panics
    /// Panics if the kernel refuses a setup step on a fresh system.
    pub fn build(pop: &Population, frames: usize, private: bool) -> Site {
        let bulk_records = (pop.nr_projects() * 4).max(512);
        let mut sys = System::with_size(
            KernelConfig::kernel(),
            SystemSize {
                frames,
                bulk_records,
                cpu: CpuModel::H6180,
                ..SystemSize::default()
            },
        );
        let w = &mut sys.world;
        let admin = w.create_process(admin_user(), Label::BOTTOM, 4);
        let root = w.bind_root(admin);
        Monitor::create_directory(w, admin, root, "udd", Label::BOTTOM).expect("udd creates");
        w.fs.set_dir_acl_entry(FileSystem::ROOT, "udd", &admin_user(), "*.*.*", DirMode::S)
            .expect("udd world status");
        let udd = Monitor::initiate_dir(w, admin, root, "udd");
        let udd_uid = w.fs.peek_branch(FileSystem::ROOT, "udd").expect("udd").uid;

        let mut racl: Acl<AclMode> = Acl::of("*.*.*", AclMode::R);
        for e in 0..pop.registry_entries {
            racl.add(
                &pop.principal(pop.registry_principal(e)).to_acl_string(),
                AclMode::REW,
            );
        }
        let bricks = RingBrackets::new(4, 4, 4);
        Monitor::create_segment(w, admin, udd, "registry", racl, bricks, Label::BOTTOM)
            .expect("registry creates");

        let mut projects = Vec::with_capacity(pop.nr_projects());
        for k in 0..pop.nr_projects() {
            let name = format!("P{k}");
            Monitor::create_directory(w, admin, udd, &name, Label::BOTTOM).expect("project dir");
            w.fs.set_dir_acl_entry(udd_uid, &name, &admin_user(), &member(k), DirMode::SMA)
                .expect("member grant");
            w.fs.set_dir_acl_entry(udd_uid, &name, &admin_user(), "*.*.*", DirMode::S)
                .expect("world status");
            let pseg = Monitor::initiate_dir(w, admin, udd, &name);
            let mut roster: Acl<AclMode> = Acl::of(&member(k), AclMode::RW);
            roster.add("*.*.*", AclMode::R);
            Monitor::create_segment(w, admin, pseg, "roster", roster, bricks, Label::BOTTOM)
                .expect("roster creates");
            if private {
                let acl = member_acl(k);
                Monitor::create_segment(w, admin, pseg, "private", acl, bricks, Label::BOTTOM)
                    .expect("private creates");
            }
            projects.push(pseg);
        }
        Site {
            sys,
            pop: pop.clone(),
            admin,
            udd_uid,
            projects,
            sessions: VecDeque::new(),
            logins: 0,
            enrolled: HashSet::new(),
        }
    }

    /// Logs a random principal in (enrolling it on first sight) and
    /// binds its project, roster and the registry.
    pub fn open_session(&mut self, rng: &mut SplitMix64, m: &mut Meter) {
        let i = rng.below(self.pop.size);
        let user = self.pop.principal(i);
        let project = self.pop.project_of(i);
        let w = &mut self.sys.world;
        let pw = self.pop.password(i);
        m.enter("client.open_session");
        if self.enrolled.insert(i) {
            let clearance = self.pop.clearance(i);
            m.op("auth.register", true, || {
                w.auth.register(&user, &pw, clearance)
            });
        }
        let out = m.op("subsystem.login", true, || {
            login(w, &user, &pw, Label::BOTTOM, 4)
        });
        let Ok(out) = out else {
            m.exit();
            return;
        };
        self.logins += 1;
        let pid = out.pid;
        let root = m.op("world.bind_root", true, || w.bind_root(pid));
        let udd = m.op("monitor.initiate_dir", true, || {
            Monitor::initiate_dir(w, pid, root, "udd")
        });
        let pname = format!("P{project}");
        let proj = m.op("monitor.initiate_dir", true, || {
            Monitor::initiate_dir(w, pid, udd, &pname)
        });
        let roster = m.op("monitor.initiate", true, || {
            Monitor::initiate(w, pid, proj, "roster")
        });
        let registry = m.op("monitor.initiate", true, || {
            Monitor::initiate(w, pid, udd, "registry")
        });
        m.exit();
        if let (Ok(roster), Ok(registry)) = (roster, registry) {
            self.sessions.push_back(Session {
                idx: i,
                pid,
                project,
                proj,
                roster,
                registry,
            });
        } else {
            w.destroy_process(pid);
        }
    }

    /// Logs the oldest session out: one batched audit emission, then the
    /// process record is destroyed.
    pub fn close_oldest(&mut self, m: &mut Meter) {
        let Some(s) = self.sessions.pop_front() else {
            return;
        };
        let user = self.pop.principal(s.idx);
        let w = &mut self.sys.world;
        m.enter("client.close_session");
        let batch = vec![
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
        ];
        m.op("syslog.audit_batch", true, || {
            w.audit_batch(batch);
        });
        let _ = m.op("world.destroy_process", true, || {
            w.destroy_process(s.pid).ok_or(())
        });
        m.exit();
    }

    /// The fixed-rate login churn both site workloads share: every
    /// [`CHURN_EVERY`]-th action retires the oldest session (at the cap)
    /// and logs a fresh principal in. Returns whether it churned.
    pub fn churn(&mut self, action: u64, rng: &mut SplitMix64, m: &mut Meter) -> bool {
        if self.sessions.is_empty() {
            self.open_session(rng, m);
            return true;
        }
        if !action.is_multiple_of(CHURN_EVERY) {
            return false;
        }
        if self.sessions.len() >= MAX_SESSIONS {
            self.close_oldest(m);
        }
        self.open_session(rng, m);
        true
    }

    /// Oracle checks over the hot structures: sampled indexed ACL
    /// verdicts on the registry and project rosters against the linear
    /// specification, and indexed against linear directory lookups.
    /// Returns `(mismatches, evals, acl work units)`.
    pub fn oracle(&self, samples: u64) -> (u64, u64, u64) {
        let fs = &self.sys.world.fs;
        let pop = &self.pop;
        let mut mismatches = 0u64;
        let mut evals = 0u64;
        let mut work = 0u64;
        let Some(registry) = segment_acl(fs, self.udd_uid, "registry") else {
            return (1, 0, 0);
        };
        let step = (pop.size / samples.max(1)).max(1);
        for j in 0..samples {
            let user = pop.principal((j * step) % pop.size);
            let ghost = UserId::new(&format!("Ghost{j}"), "P0", "a");
            for u in [&user, &ghost] {
                let (fast, units) = registry.effective_counted(u);
                mismatches += u64::from(fast != registry.effective_linear(u));
                work += u64::from(units);
                evals += 1;
            }
            let k = (j as usize * 7) % pop.nr_projects();
            let name = format!("P{k}");
            let fast = fs.peek_branch(self.udd_uid, &name).map(|b| b.uid);
            let slow = fs.peek_branch_linear(self.udd_uid, &name).map(|b| b.uid);
            mismatches += u64::from(fast != slow || fast.is_none());
            if let Some(dir) = fast {
                if let Some(roster) = segment_acl(fs, dir, "roster") {
                    let (got, _) = roster.effective_counted(&user);
                    mismatches += u64::from(got != roster.effective_linear(&user));
                }
            }
        }
        (mismatches, evals, work)
    }
}

fn segment_acl<'a>(fs: &'a FileSystem, dir: SegUid, name: &str) -> Option<&'a Acl<AclMode>> {
    match &fs.peek_branch(dir, name)?.kind {
        BranchKind::Segment { acl, .. } => Some(acl),
        BranchKind::Directory { .. } => None,
    }
}
