//! The commit stream `replay_audit` and `replicate` feed the replayable
//! kernel, with the outcome the client expects for each commit.
//!
//! A bootstrap creates an administrator, four users who bind a shared
//! world-writable segment, a member-only `secret` segment and a stranger.
//! The mix then draws reads (35%) and writes (20%) of the shared
//! segment, gate calls (10%), initiations (8%), administrator creates
//! (8%) and deletes (7%) of pool segments, listings (5%) and scheduler
//! ticks (7%). About 2.6% of commits are deliberate refusals: a
//! stranger initiating `secret`, or a user probing `hphcs_$shutdown`.

use mks_fs::{Acl, AclMode, UserId};
use mks_hw::{RingBrackets, SegNo, SplitMix64};
use mks_kernel::world::admin_user;
use mks_kernel::{Commit, KProcId, Outcome};
use mks_mls::Label;

const USERS: usize = 4;
const WORD_MASK: u64 = (1 << 36) - 1;
const SHARED_WORDS: usize = 64;
/// Most pool segments alive at once.
const POOL_CAP: usize = 64;

/// Who acts in the stream, as the bootstrap left them.
struct Actors {
    admin: KProcId,
    root: SegNo,
    /// `(pid, root binding, shared binding)` per user.
    users: Vec<(KProcId, SegNo, SegNo)>,
    stranger: KProcId,
    stranger_root: SegNo,
}

/// The kernel answer the client expects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expect {
    Granted,
    Refused,
    /// Granted, returning exactly this word.
    Word(u64),
}

impl Expect {
    pub fn granted(self) -> bool {
        !matches!(self, Expect::Refused)
    }

    /// Whether `out` is the answer expected.
    pub fn met_by(self, out: &Outcome) -> bool {
        match self {
            Expect::Granted => !matches!(out, Outcome::Refused(_)),
            Expect::Refused => matches!(out, Outcome::Refused(_)),
            Expect::Word(v) => *out == Outcome::Value(v),
        }
    }
}

/// One planned commit.
pub struct Planned {
    pub commit: Commit,
    pub expect: Expect,
    /// `statemachine.apply.<kind>`: the span its application is timed in.
    pub span: &'static str,
    /// A segment this commit creates; it joins the pool the mix draws
    /// initiations and deletions from once the client knows the commit
    /// is durable (see [`Mix::confirm`]).
    pub creates: Option<String>,
}

/// The seeded commit generator and the client's model of the kernel.
pub struct Mix {
    rng: SplitMix64,
    actors: Actors,
    pool: Vec<String>,
    next_name: u64,
    next_value: u64,
    /// Last value written per shared word, when reads are checked exactly.
    shadow: Option<[u64; SHARED_WORDS]>,
}

fn pid_of(out: Option<Outcome>) -> Option<KProcId> {
    match out? {
        Outcome::Pid(p) => Some(p),
        _ => None,
    }
}

impl Mix {
    /// Runs the bootstrap through `apply` (which returns `None` if the
    /// commit could not be applied) and seeds the generator. Reads are
    /// checked word for word when `exact` (every commit is durable the
    /// moment it applies); otherwise only grant versus refusal is.
    pub fn bootstrap(
        seed: u64,
        exact: bool,
        apply: &mut dyn FnMut(&Commit) -> Option<Outcome>,
    ) -> Option<Mix> {
        let rw = |pattern: &str| Acl::of(pattern, AclMode::RW);
        let bricks = RingBrackets::new(4, 4, 4);
        let admin = pid_of(apply(&Commit::CreateProcess {
            user: admin_user(),
            label: Label::BOTTOM,
            ring: 4,
        }))?;
        let root = apply(&Commit::BindRoot { pid: admin })?.seg()?;
        for (name, acl) in [
            ("shared", rw("*.*.*")),
            ("secret", rw(&admin_user().to_acl_string())),
        ] {
            apply(&Commit::CreateSegment {
                pid: admin,
                dir: root,
                name: name.into(),
                acl,
                brackets: bricks,
                label: Label::BOTTOM,
            })?
            .seg()?;
        }
        let mut users = Vec::with_capacity(USERS);
        for u in 0..USERS {
            let pid = pid_of(apply(&Commit::CreateProcess {
                user: UserId::new(&format!("U{u}"), "Auditors", "a"),
                label: Label::BOTTOM,
                ring: 4,
            }))?;
            let uroot = apply(&Commit::BindRoot { pid })?.seg()?;
            let shared = apply(&Commit::Initiate {
                pid,
                dir: uroot,
                name: "shared".into(),
            })?
            .seg()?;
            users.push((pid, uroot, shared));
        }
        let stranger = pid_of(apply(&Commit::CreateProcess {
            user: UserId::new("Mallory", "Guest", "a"),
            label: Label::BOTTOM,
            ring: 4,
        }))?;
        let stranger_root = apply(&Commit::BindRoot { pid: stranger })?.seg()?;
        Some(Mix {
            rng: SplitMix64::new(seed ^ 0x5eed_c0de_a0d1_7000),
            actors: Actors {
                admin,
                root,
                users,
                stranger,
                stranger_root,
            },
            pool: Vec::new(),
            next_name: 0,
            next_value: 0,
            shadow: exact.then_some([0; SHARED_WORDS]),
        })
    }

    /// Records that the commit planned with `creates` is durable.
    pub fn confirm(&mut self, creates: Option<String>) {
        self.pool.extend(creates);
    }

    fn user(&mut self) -> (KProcId, SegNo, SegNo) {
        self.actors.users[self.rng.below(USERS as u64) as usize]
    }

    fn create(&mut self) -> Planned {
        let name = format!("f{}", self.next_name);
        self.next_name += 1;
        Planned {
            commit: Commit::CreateSegment {
                pid: self.actors.admin,
                dir: self.actors.root,
                name: name.clone(),
                acl: Acl::of("*.*.*", AclMode::RW),
                brackets: RingBrackets::new(4, 4, 4),
                label: Label::BOTTOM,
            },
            expect: Expect::Granted,
            span: "statemachine.apply.create_segment",
            creates: Some(name),
        }
    }

    fn delete(&mut self) -> Planned {
        let at = self.rng.below(self.pool.len() as u64) as usize;
        let name = self.pool.swap_remove(at);
        Planned {
            commit: Commit::DeleteSegment {
                pid: self.actors.admin,
                dir: self.actors.root,
                name,
            },
            expect: Expect::Granted,
            span: "statemachine.apply.delete_segment",
            creates: None,
        }
    }

    pub fn next(&mut self) -> Planned {
        let plain = |commit, expect, span| Planned {
            commit,
            expect,
            span,
            creates: None,
        };
        match self.rng.below(100) {
            0..=34 => {
                let (pid, _, seg) = self.user();
                let offset = self.rng.below(SHARED_WORDS as u64);
                let expect = self
                    .shadow
                    .map_or(Expect::Granted, |s| Expect::Word(s[offset as usize]));
                plain(
                    Commit::Read { pid, seg, offset },
                    expect,
                    "statemachine.apply.read",
                )
            }
            35..=54 => {
                let (pid, _, seg) = self.user();
                let offset = self.rng.below(SHARED_WORDS as u64);
                self.next_value += 1;
                let value = self.next_value & WORD_MASK;
                if let Some(s) = &mut self.shadow {
                    s[offset as usize] = value;
                }
                plain(
                    Commit::Write {
                        pid,
                        seg,
                        offset,
                        value,
                    },
                    Expect::Granted,
                    "statemachine.apply.write",
                )
            }
            55..=64 => {
                let (pid, _, _) = self.user();
                let (gate, entry, expect) = if self.rng.below(16) == 0 {
                    ("hphcs_", "shutdown", Expect::Refused)
                } else {
                    ("hcs_", "metering_get", Expect::Granted)
                };
                plain(
                    Commit::CallGate {
                        pid,
                        gate: gate.into(),
                        entry: entry.into(),
                    },
                    expect,
                    "statemachine.apply.call_gate",
                )
            }
            65..=72 => {
                let (pid, dir, name, expect) = if self.rng.below(4) == 0 {
                    let a = &self.actors;
                    (
                        a.stranger,
                        a.stranger_root,
                        "secret".to_string(),
                        Expect::Refused,
                    )
                } else {
                    let (pid, dir, _) = self.user();
                    let name = if self.pool.is_empty() {
                        "shared".to_string()
                    } else {
                        self.pool[self.rng.below(self.pool.len() as u64) as usize].clone()
                    };
                    (pid, dir, name, Expect::Granted)
                };
                plain(
                    Commit::Initiate { pid, dir, name },
                    expect,
                    "statemachine.apply.initiate",
                )
            }
            73..=80 if self.pool.len() < POOL_CAP => self.create(),
            73..=87 if !self.pool.is_empty() => self.delete(),
            73..=87 => self.create(),
            88..=92 => plain(
                Commit::ListDir {
                    pid: self.actors.admin,
                    dir: self.actors.root,
                },
                Expect::Granted,
                "statemachine.apply.list_dir",
            ),
            _ => plain(
                Commit::Tick { times: 1 },
                Expect::Granted,
                "statemachine.apply.tick",
            ),
        }
    }
}
