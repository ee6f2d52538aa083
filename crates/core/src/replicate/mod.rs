//! # Replicated kernel: primary/backup failover over the commit log (E21)
//!
//! The replay contract of E20 made the kernel a deterministic state
//! machine: `reduce(genesis, log)` rebuilds the *identical* world from
//! the sealed commit log. This module spends that determinism on
//! availability. A **primary** replica seals commits and streams the
//! sealed frames over a simulated (and hostile) link; **backups** apply
//! each seal through the same state machine and acknowledge *by chain
//! head*, so an acknowledgement is a cryptographic claim about history,
//! not a counter. When the primary falls silent, a seeded
//! election promotes the most up-to-date backup; the epoch carried in
//! every frame fences the deposed primary — its stale appends are
//! refused *and audited into the replicated history itself*.
//!
//! The paper's certification argument survives replication unchanged:
//! each replica runs the unmodified security kernel, the link carries
//! only sealed commits, and every failover is machine-checked against
//! `reduce` — the promoted backup's world digest must equal the pure
//! fold of its log, and no majority-acknowledged commit may be lost.
//!
//! Layout:
//! * [`frame`] — the typed wire protocol (append/ack/nack, heartbeat,
//!   snapshot catch-up, votes, fence reports);
//! * [`link`] — the injector-mediated hostile link (drop, duplicate,
//!   reorder, delay, partition);
//! * this module — replicas, the cluster scheduler, the election and
//!   fencing protocol, and the mixed-workload driver used by the E21
//!   experiment.

pub mod frame;
pub mod link;

pub use frame::{Body, Frame};
pub use link::{Link, LinkStats};

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use mks_hw::{Backoff, BackoffPolicy, InjectKind, InjectorHandle};
use mks_trace::ReplSnapshot;

use crate::statemachine::restore;
use crate::statemachine::wire::WireError;
use crate::statemachine::workload::{mixed_workload, recovery_tail, Executor};
use crate::statemachine::{
    decode_snapshot, encode_snapshot, reduce, snapshot_at, Commit, CommitLog, Genesis,
    KernelStateMachine, Outcome, ReplayError,
};
use crate::syslog::AuditEvent;

/// Why a replication operation was refused or failed.
#[derive(Clone, PartialEq, Debug)]
pub enum ReplError {
    /// No replica currently holds the primary role.
    NoPrimary {
        /// The highest epoch known to the cluster.
        epoch: u64,
    },
    /// The addressed replica is a backup in the current epoch.
    NotPrimary {
        /// The addressed replica.
        id: u32,
    },
    /// The addressed replica believes it is (or was) a sealer, but its
    /// epoch is stale: it has been fenced by a newer election.
    Deposed {
        /// The addressed replica.
        id: u32,
        /// Its stale epoch.
        epoch: u64,
        /// The cluster's current epoch.
        current: u64,
    },
    /// The addressed replica is crashed.
    Down {
        /// The addressed replica.
        id: u32,
    },
    /// A wire-format failure surfaced through the replication layer.
    Wire(WireError),
    /// A replay failure surfaced through the replication layer.
    Replay(ReplayError),
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::NoPrimary { epoch } => {
                write!(f, "no primary holds epoch {epoch}; an election is pending")
            }
            ReplError::NotPrimary { id } => {
                write!(f, "replica {id} is a backup; seals go to the primary")
            }
            ReplError::Deposed { id, epoch, current } => write!(
                f,
                "replica {id} was deposed: its epoch {epoch} is fenced by epoch {current}"
            ),
            ReplError::Down { id } => write!(f, "replica {id} is down"),
            ReplError::Wire(e) => write!(f, "replication wire failure: {e}"),
            ReplError::Replay(e) => write!(f, "replication replay failure: {e}"),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Wire(e) => Some(e),
            ReplError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ReplError {
    fn from(e: WireError) -> ReplError {
        ReplError::Wire(e)
    }
}

impl From<ReplayError> for ReplError {
    fn from(e: ReplayError) -> ReplError {
        ReplError::Replay(e)
    }
}

/// A replica's role in the current epoch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// The sealer: the only replica allowed to append in its epoch.
    Primary,
    /// A follower applying the primary's stream.
    Backup,
    /// Crashed; will restart (with or without amnesia) later.
    Down,
}

impl Role {
    /// Stable lowercase name, exported through metering.
    pub fn name(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Backup => "backup",
            Role::Down => "down",
        }
    }
}

/// Cluster shape and protocol timing, all in simulated ticks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplConfig {
    /// Number of replicas (clamped to at least 2).
    pub replicas: usize,
    /// Heartbeat period of the primary.
    pub heartbeat_every: u64,
    /// Quiet ticks a backup tolerates before standing for election
    /// (staggered per replica to avoid split votes).
    pub election_timeout: u64,
    /// Backoff policy pacing append retransmissions per peer.
    pub resend_policy: BackoffPolicy,
    /// Seed folded into every per-peer backoff sequence.
    pub seed: u64,
    /// Maximum seals per append frame.
    pub batch: u64,
}

impl Default for ReplConfig {
    fn default() -> ReplConfig {
        ReplConfig {
            replicas: 3,
            heartbeat_every: 4,
            election_timeout: 12,
            resend_policy: BackoffPolicy {
                max_retries: 4,
                base: 2,
                cap: 16,
            },
            seed: 0,
            batch: 24,
        }
    }
}

/// Per-replica protocol accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReplicaStats {
    /// Heartbeat periods that passed without hearing a primary.
    pub heartbeat_misses: u64,
    /// Append/snapshot retransmissions sent while primary.
    pub resends: u64,
    /// Stale-epoch frames this replica refused (fencing in action).
    pub fenced: u64,
    /// Snapshot catch-up migrations applied.
    pub catchups: u64,
    /// Seals applied from the replication stream.
    pub appends_applied: u64,
    /// Frames or snapshots that failed to decode (typed, non-fatal).
    pub decode_errors: u64,
    /// Fence reports received while primary.
    pub fence_reports: u64,
    /// Exhausted backoff schedules restarted with a bumped seed.
    pub backoff_restarts: u64,
}

/// A cluster-level protocol event, timestamped in simulated ticks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplEvent {
    /// A backup won an election.
    Promoted {
        /// The promoted replica.
        id: u32,
        /// The epoch it now seals in.
        epoch: u64,
        /// When.
        at: u64,
    },
    /// A primary adopted a higher epoch and stepped down.
    Deposed {
        /// The deposed replica.
        id: u32,
        /// The epoch it adopted (the one that fenced it).
        epoch: u64,
        /// When.
        at: u64,
    },
    /// A replica crashed.
    Crashed {
        /// The crashed replica.
        id: u32,
        /// When.
        at: u64,
        /// Whether it will restart from genesis (true) or with its
        /// durable log intact (false).
        amnesia: bool,
    },
    /// A crashed replica rejoined as a backup.
    Restarted {
        /// The restarted replica.
        id: u32,
        /// When.
        at: u64,
    },
    /// A deposed sealer's append was refused on a stale epoch; the
    /// refusal is also sealed into the replicated history as an audit
    /// record.
    Fenced {
        /// The fenced replica.
        id: u32,
        /// The stale epoch it tried to seal on.
        stale_epoch: u64,
        /// When.
        at: u64,
    },
    /// A lagging or divergent replica was caught up by snapshot.
    SnapshotMigrated {
        /// The migrated replica.
        id: u32,
        /// When.
        at: u64,
    },
}

/// The machine-checked verdict recorded at each promotion: the new
/// primary's live world must equal the pure fold of its log, and every
/// majority-acknowledged prefix must survive into its history.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FailoverCheck {
    /// The epoch of the promotion.
    pub epoch: u64,
    /// The promoted replica.
    pub id: u32,
    /// `reduce(genesis, log).digest() == live.digest()` at promotion.
    pub digest_equal: bool,
    /// Every acknowledged `(len, head)` mark is a prefix of the
    /// promoted log with a matching chain head.
    pub acked_covered: bool,
}

/// Effects a frame handler reports back to the cluster scheduler
/// (which owns the event journal and the cross-replica registries).
#[derive(Default)]
struct HandleEffects {
    promoted: bool,
    deposed: bool,
    migrated: bool,
    acked_moved: bool,
    fence_report: Option<(u32, u64)>,
}

/// One replica: an unmodified security kernel plus protocol state.
struct Replica {
    id: u32,
    role: Role,
    /// The fencing term; monotone, carried in every frame.
    epoch: u64,
    /// Highest epoch this replica granted a vote in.
    voted_in: u64,
    /// Epoch under which the last log entry was replicated.
    last_entry_epoch: u64,
    leader: Option<u32>,
    sm: KernelStateMachine,
    /// Majority-acknowledged prefix length known here.
    acked_len: u64,
    quiet_ticks: u64,
    stall_until: u64,
    /// `(tick, amnesia)` when crashed.
    restart_at: Option<(u64, bool)>,
    /// Primary only: highest chain-verified log length per peer.
    match_len: Vec<u64>,
    backoffs: Vec<Backoff>,
    backoff_due: Vec<u64>,
    /// An open candidacy: `(epoch, granters)`.
    candidacy: Option<(u64, BTreeSet<u32>)>,
    stats: ReplicaStats,
    inbox: VecDeque<Vec<u8>>,
    cfg: ReplConfig,
}

impl Replica {
    fn log(&self) -> &CommitLog {
        &self.sm.world().commits
    }

    fn len(&self) -> u64 {
        self.log().len()
    }

    fn head(&self) -> u64 {
        self.log().head()
    }

    fn nack(&self, to: u32, divergent: bool) -> Frame {
        Frame {
            from: self.id,
            to,
            epoch: self.epoch,
            body: Body::Nack {
                have_len: self.len(),
                have_head: self.head(),
                divergent,
            },
        }
    }

    fn ack(&self, to: u32) -> Frame {
        Frame {
            from: self.id,
            to,
            epoch: self.epoch,
            body: Body::Ack {
                len: self.len(),
                head: self.head(),
            },
        }
    }

    fn heartbeat(&self, to: u32) -> Frame {
        Frame {
            from: self.id,
            to,
            epoch: self.epoch,
            body: Body::Heartbeat {
                len: self.len(),
                head: self.head(),
                acked: self.acked_len,
            },
        }
    }

    /// An append frame extending the peer's chain-verified position.
    fn append_frame(&self, to: u32, from_len: u64) -> Frame {
        let end = self.len().min(from_len + self.cfg.batch);
        let seals = self.log().entries()[from_len as usize..end as usize].to_vec();
        Frame {
            from: self.id,
            to,
            epoch: self.epoch,
            body: Body::Append {
                prev_len: from_len,
                prev_head: self.log().prefix(from_len).head(),
                acked: self.acked_len,
                seals,
            },
        }
    }

    /// A snapshot-catch-up frame: the acknowledged prefix as a
    /// `MachineSnapshot` plus every seal above it.
    fn snapshot_frame(&self, genesis: &Genesis, to: u32) -> Option<Frame> {
        let upto = self.acked_len.min(self.len());
        let snap = snapshot_at(genesis, self.log(), upto).ok()?;
        let suffix = self.log().entries()[upto as usize..].to_vec();
        Some(Frame {
            from: self.id,
            to,
            epoch: self.epoch,
            body: Body::Snapshot {
                snap: encode_snapshot(&snap),
                suffix,
            },
        })
    }

    /// Starts a fresh per-peer backoff schedule (after an ack or a
    /// role change); the seed folds in epoch and endpoints so every
    /// schedule is replayable.
    fn reset_backoff(&mut self, peer: usize, now: u64) {
        let seed = self.cfg.seed ^ (self.epoch << 8) ^ (u64::from(self.id) << 4) ^ peer as u64;
        self.backoffs[peer] = Backoff::new(seed, self.cfg.resend_policy);
        self.backoff_due[peer] = now + 1;
    }

    /// Advances the peer's retransmission deadline along its backoff
    /// schedule; an exhausted schedule restarts with a bumped seed.
    fn pace(&mut self, peer: usize, now: u64) {
        match self.backoffs[peer].next_delay() {
            Some(d) => self.backoff_due[peer] = now + d,
            None => {
                self.stats.backoff_restarts += 1;
                let seed = self.cfg.seed
                    ^ (self.epoch << 8)
                    ^ (u64::from(self.id) << 4)
                    ^ peer as u64
                    ^ 0x9e37_79b9;
                self.backoffs[peer] = Backoff::new(seed, self.cfg.resend_policy);
                self.backoff_due[peer] = now + self.cfg.resend_policy.cap;
            }
        }
    }

    /// Handles one decoded frame. Outgoing frames go to `out`; effects
    /// the cluster must journal or audit go to `fx`.
    fn handle(
        &mut self,
        genesis: &Genesis,
        n: usize,
        now: u64,
        f: Frame,
        out: &mut Vec<Frame>,
        fx: &mut HandleEffects,
    ) {
        // Epoch adoption: any frame from a newer epoch fences this
        // replica's current role.
        if f.epoch > self.epoch {
            self.epoch = f.epoch;
            if self.role == Role::Primary {
                self.role = Role::Backup;
                fx.deposed = true;
            }
            self.candidacy = None;
            self.leader = None;
        }
        let Frame {
            from,
            epoch: fepoch,
            body,
            ..
        } = f;
        match body {
            Body::Heartbeat {
                len,
                head: _,
                acked,
            } => {
                if fepoch < self.epoch {
                    // Teach the deposed primary its epoch is stale.
                    out.push(self.nack(from, false));
                    return;
                }
                self.leader = Some(from);
                self.quiet_ticks = 0;
                self.candidacy = None;
                self.acked_len = self.acked_len.max(acked.min(self.len()));
                if len > self.len() {
                    out.push(self.nack(from, false));
                }
            }
            Body::Append {
                prev_len,
                prev_head,
                acked,
                seals,
            } => {
                if fepoch < self.epoch {
                    // The fence proper: a stale sealer's append is
                    // refused, and the current primary is told so the
                    // refusal can be audited into the history.
                    self.stats.fenced += 1;
                    out.push(self.nack(from, false));
                    if let Some(l) = self.leader {
                        if l != from && l != self.id {
                            out.push(Frame {
                                from: self.id,
                                to: l,
                                epoch: self.epoch,
                                body: Body::FenceReport {
                                    deposed: from,
                                    deposed_epoch: fepoch,
                                },
                            });
                        }
                    }
                    return;
                }
                self.leader = Some(from);
                self.quiet_ticks = 0;
                self.candidacy = None;
                if prev_len > self.len() {
                    out.push(self.nack(from, false));
                    return;
                }
                if self.log().prefix(prev_len).head() != prev_head {
                    out.push(self.nack(from, true));
                    return;
                }
                for s in &seals {
                    if s.seq < self.len() {
                        // Duplicate delivery: the stored chain must
                        // agree, else the histories diverged.
                        if self.log().get(s.seq).map(|e| e.chain) != Some(s.chain) {
                            out.push(self.nack(from, true));
                            return;
                        }
                    } else if s.seq == self.len() {
                        // The primary's seal is checked before its
                        // commit runs: one that does not recompute from
                        // our head means the histories diverged.
                        if self.sm.apply_sealed(s).is_err() {
                            out.push(self.nack(from, true));
                            return;
                        }
                        self.stats.appends_applied += 1;
                    } else {
                        out.push(self.nack(from, false));
                        return;
                    }
                }
                self.last_entry_epoch = fepoch;
                self.acked_len = self.acked_len.max(acked.min(self.len()));
                out.push(self.ack(from));
            }
            Body::Ack { len, head } => {
                if self.role != Role::Primary || fepoch != self.epoch {
                    return;
                }
                let peer = from as usize;
                if len <= self.len() && self.log().prefix(len).head() == head {
                    if len > self.match_len[peer] {
                        self.match_len[peer] = len;
                        fx.acked_moved = true;
                    }
                    self.reset_backoff(peer, now);
                    if len < self.len() {
                        // Keep streaming: the ack pipelines the next
                        // batch without waiting for the resend pacer.
                        out.push(self.append_frame(from, len));
                    }
                } else if let Some(fr) = self.snapshot_frame(genesis, from) {
                    out.push(fr);
                }
            }
            Body::Nack {
                have_len,
                have_head,
                divergent,
            } => {
                if self.role != Role::Primary || fepoch != self.epoch {
                    return;
                }
                let peer = from as usize;
                let far_behind = self.len().saturating_sub(have_len) > 2 * self.cfg.batch;
                if !divergent
                    && !far_behind
                    && have_len <= self.len()
                    && self.log().prefix(have_len).head() == have_head
                {
                    self.match_len[peer] = self.match_len[peer].max(have_len);
                    if now >= self.backoff_due[peer] {
                        out.push(self.append_frame(from, have_len));
                        self.stats.resends += 1;
                        self.pace(peer, now);
                    }
                } else if let Some(fr) = self.snapshot_frame(genesis, from) {
                    // Divergent histories and deep gaps (an amnesiac
                    // restart, a long partition) migrate by snapshot
                    // rather than replaying the whole log in batches.
                    out.push(fr);
                    self.stats.resends += 1;
                    self.pace(peer, now);
                }
            }
            Body::Snapshot { snap, suffix } => {
                if fepoch < self.epoch {
                    return;
                }
                self.leader = Some(from);
                self.quiet_ticks = 0;
                self.candidacy = None;
                let decoded = match decode_snapshot(&snap, genesis) {
                    Ok(d) => d,
                    Err(_) => {
                        self.stats.decode_errors += 1;
                        return;
                    }
                };
                // Stale-duplicate guard: if this exact history is
                // already a consistent prefix of ours, applying it
                // would only roll back acknowledged progress.
                let total = decoded.upto + suffix.len() as u64;
                let end_head = suffix.last().map(|s| s.chain).unwrap_or(decoded.chain_head);
                if total <= self.len() && self.log().prefix(total).head() == end_head {
                    out.push(self.ack(from));
                    return;
                }
                let mut sm = match restore(&decoded) {
                    Ok(sm) => sm,
                    Err(_) => {
                        self.stats.decode_errors += 1;
                        return;
                    }
                };
                for s in &suffix {
                    if sm.apply_sealed(s).is_err() {
                        self.stats.decode_errors += 1;
                        return;
                    }
                }
                self.sm = sm;
                self.acked_len = self.acked_len.max(decoded.upto).min(self.len());
                self.stats.catchups += 1;
                self.last_entry_epoch = fepoch;
                fx.migrated = true;
                out.push(self.ack(from));
            }
            Body::VoteRequest { last_epoch, len } => {
                if fepoch < self.epoch {
                    return;
                }
                // One vote per epoch, and only for a candidate whose
                // log is at least as up to date as ours (so every
                // acknowledged commit survives the election, by
                // majority intersection).
                let up_to_date = (last_epoch, len) >= (self.last_entry_epoch, self.len());
                if self.voted_in < fepoch && up_to_date {
                    self.voted_in = fepoch;
                    self.quiet_ticks = 0;
                    out.push(Frame {
                        from: self.id,
                        to: from,
                        epoch: self.epoch,
                        body: Body::VoteGrant,
                    });
                }
            }
            Body::VoteGrant => {
                if fepoch != self.epoch {
                    return;
                }
                let won = match &mut self.candidacy {
                    Some((e, granters)) if *e == fepoch => {
                        granters.insert(from);
                        granters.len() > n / 2
                    }
                    _ => false,
                };
                if won && self.role != Role::Primary {
                    self.role = Role::Primary;
                    self.leader = Some(self.id);
                    self.candidacy = None;
                    self.match_len = vec![0; n];
                    self.match_len[self.id as usize] = self.len();
                    for p in 0..n {
                        if p != self.id as usize {
                            self.reset_backoff(p, now);
                        }
                    }
                    fx.promoted = true;
                    // Announce; backups nack to pull what they miss.
                    for p in 0..n as u32 {
                        if p != self.id {
                            out.push(self.heartbeat(p));
                        }
                    }
                }
            }
            Body::FenceReport {
                deposed,
                deposed_epoch,
            } => {
                if self.role != Role::Primary || fepoch != self.epoch {
                    return;
                }
                self.stats.fence_reports += 1;
                fx.fence_report = Some((deposed, deposed_epoch));
            }
        }
    }
}

/// A replicated kernel: `n` replicas of the same genesis joined by a
/// hostile link, advanced one simulated tick at a time.
pub struct Cluster {
    genesis: Genesis,
    cfg: ReplConfig,
    replicas: Vec<Replica>,
    link: Link,
    inject: InjectorHandle,
    now: u64,
    /// Every majority-acknowledged `(len, chain head)` mark, in order —
    /// the durability ledger failover is checked against.
    acked_marks: Vec<(u64, u64)>,
    /// Which replicas actually sealed in each epoch; more than one
    /// sealer in an epoch would be split-brain.
    sealer_epochs: BTreeMap<u64, BTreeSet<u32>>,
    /// Fence audits already sealed, keyed by `(deposed, stale epoch)`.
    fence_audits: BTreeSet<(u32, u64)>,
    promotions: u64,
    failover_checks: Vec<FailoverCheck>,
    events: Vec<ReplEvent>,
}

impl Cluster {
    /// A fresh cluster: replica 0 is the epoch-1 primary, the rest are
    /// backups, and a shared (initially disarmed) injector mediates
    /// the link.
    pub fn new(genesis: Genesis, cfg: ReplConfig) -> Cluster {
        let n = cfg.replicas.max(2);
        let inject = InjectorHandle::disarmed();
        let mut replicas = Vec::with_capacity(n);
        for id in 0..n as u32 {
            let mut backoffs = Vec::with_capacity(n);
            for p in 0..n as u64 {
                backoffs.push(Backoff::new(
                    cfg.seed ^ (1 << 8) ^ (u64::from(id) << 4) ^ p,
                    cfg.resend_policy,
                ));
            }
            replicas.push(Replica {
                id,
                role: if id == 0 { Role::Primary } else { Role::Backup },
                epoch: 1,
                voted_in: 1,
                last_entry_epoch: 0,
                leader: Some(0),
                sm: genesis.build(),
                acked_len: 0,
                quiet_ticks: 0,
                stall_until: 0,
                restart_at: None,
                match_len: vec![0; n],
                backoffs,
                backoff_due: vec![0; n],
                candidacy: None,
                stats: ReplicaStats::default(),
                inbox: VecDeque::new(),
                cfg,
            });
        }
        Cluster {
            genesis,
            cfg,
            link: Link::new(inject.clone(), n as u32),
            inject,
            replicas,
            now: 0,
            acked_marks: Vec::new(),
            sealer_epochs: BTreeMap::new(),
            fence_audits: BTreeSet::new(),
            promotions: 0,
            failover_checks: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Arms a fault plan on the shared injector.
    pub fn arm(&self, plan: &mks_hw::FaultPlan) {
        self.inject.arm(plan);
    }

    /// Disarms the injector.
    pub fn disarm(&self) {
        self.inject.disarm();
    }

    /// Faults fired so far.
    pub fn fired(&self) -> Vec<mks_hw::FiredFault> {
        self.inject.fired()
    }

    /// The genesis every replica was built from.
    pub fn genesis(&self) -> &Genesis {
        &self.genesis
    }

    /// The current simulated tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The current primary (the highest-epoch replica holding the
    /// role), if any.
    pub fn primary(&self) -> Option<u32> {
        self.primary_index().map(|i| i as u32)
    }

    fn primary_index(&self) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.role == Role::Primary)
            .max_by_key(|(_, r)| r.epoch)
            .map(|(i, _)| i)
    }

    /// The highest epoch any replica has adopted.
    pub fn max_epoch(&self) -> u64 {
        self.replicas.iter().map(|r| r.epoch).max().unwrap_or(0)
    }

    /// A replica's role.
    pub fn role_of(&self, id: u32) -> Role {
        self.replicas[id as usize].role
    }

    /// A replica's epoch.
    pub fn epoch_of(&self, id: u32) -> u64 {
        self.replicas[id as usize].epoch
    }

    /// A replica's commit log.
    pub fn log_of(&self, id: u32) -> &CommitLog {
        self.replicas[id as usize].log()
    }

    /// A replica's live world digest.
    pub fn digest_of(&self, id: u32) -> crate::statemachine::StateDigest {
        self.replicas[id as usize].sm.digest()
    }

    /// A replica's protocol accounting.
    pub fn stats_of(&self, id: u32) -> ReplicaStats {
        self.replicas[id as usize].stats
    }

    /// The replication status a replica last published to metering.
    pub fn status_of(&self, id: u32) -> Option<ReplSnapshot> {
        self.replicas[id as usize].sm.world().repl_status.clone()
    }

    /// The event journal.
    pub fn events(&self) -> &[ReplEvent] {
        &self.events
    }

    /// Every majority-acknowledged `(len, head)` durability mark.
    pub fn acked_marks(&self) -> &[(u64, u64)] {
        &self.acked_marks
    }

    /// Link accounting.
    pub fn link_stats(&self) -> LinkStats {
        self.link.stats()
    }

    /// Elections won so far.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// The machine-checked verdicts recorded at each promotion.
    pub fn failover_checks(&self) -> &[FailoverCheck] {
        &self.failover_checks
    }

    /// Epochs in which more than one replica sealed — split-brain
    /// evidence; must be empty.
    pub fn sealer_violations(&self) -> Vec<u64> {
        self.sealer_epochs
            .iter()
            .filter(|(_, s)| s.len() > 1)
            .map(|(e, _)| *e)
            .collect()
    }

    /// Seals `commit` on the current primary, or reports why not. A
    /// crash fault at the `ReplPrimaryCrash` site takes the primary
    /// down instead (it restarts later, with or without amnesia).
    pub fn submit(&mut self, commit: &Commit) -> Result<Outcome, ReplError> {
        let pid = match self.primary_index() {
            Some(p) => p,
            None => {
                return Err(ReplError::NoPrimary {
                    epoch: self.max_epoch(),
                })
            }
        };
        if let Some(detail) = self.inject.fires(InjectKind::ReplPrimaryCrash) {
            self.crash(pid, detail);
            return Err(ReplError::Down { id: pid as u32 });
        }
        self.seal_as(pid as u32, commit)
    }

    /// Seals `commit` on a *specific* replica. A backup refuses with
    /// [`ReplError::NotPrimary`]; a deposed sealer is refused with
    /// [`ReplError::Deposed`] *and* the refusal is audited into the
    /// replicated history — the fence is itself evidence.
    pub fn seal_as(&mut self, id: u32, commit: &Commit) -> Result<Outcome, ReplError> {
        let i = id as usize;
        let max_e = self.max_epoch();
        let (role, epoch) = {
            let r = &self.replicas[i];
            (r.role, r.epoch)
        };
        match role {
            Role::Down => Err(ReplError::Down { id }),
            Role::Primary => Ok(self.seal_on(i, commit)),
            Role::Backup => {
                if epoch < max_e {
                    // Audit through the *current* primary; until one is
                    // elected the pair stays unmarked so the first
                    // post-election refusal still seals the evidence.
                    if let Some(p) = self.primary_index() {
                        if self.fence_audits.insert((id, epoch)) {
                            self.events.push(ReplEvent::Fenced {
                                id,
                                stale_epoch: epoch,
                                at: self.now,
                            });
                            let audit = fence_audit(id, epoch);
                            self.seal_on(p, &audit);
                        }
                    }
                    Err(ReplError::Deposed {
                        id,
                        epoch,
                        current: max_e,
                    })
                } else {
                    Err(ReplError::NotPrimary { id })
                }
            }
        }
    }

    /// The actual seal: apply locally, register the sealer for the
    /// split-brain census, and stream appends to every peer.
    fn seal_on(&mut self, i: usize, commit: &Commit) -> Outcome {
        let n = self.replicas.len();
        let now = self.now;
        let epoch = self.replicas[i].epoch;
        let out = self.replicas[i].sm.apply(commit);
        self.replicas[i].last_entry_epoch = epoch;
        let len = self.replicas[i].len();
        self.replicas[i].match_len[i] = len;
        self.sealer_epochs
            .entry(epoch)
            .or_default()
            .insert(i as u32);
        for p in 0..n {
            if p == i {
                continue;
            }
            let fr = self.replicas[i].append_frame(p as u32, self.replicas[i].match_len[p]);
            self.link.send(now, &fr);
        }
        self.recompute_acked(i);
        out
    }

    fn crash(&mut self, i: usize, detail: u64) {
        let amnesia = (detail >> 8) & 1 == 1;
        let r = &mut self.replicas[i];
        r.role = Role::Down;
        r.restart_at = Some((self.now + 3 + detail % 17, amnesia));
        r.inbox.clear();
        r.candidacy = None;
        r.leader = None;
        self.events.push(ReplEvent::Crashed {
            id: r.id,
            at: self.now,
            amnesia,
        });
    }

    /// Recomputes the majority-acknowledged prefix from the primary's
    /// chain-verified match lengths and extends the durability ledger.
    fn recompute_acked(&mut self, i: usize) {
        let n = self.replicas.len();
        let mut sorted = self.replicas[i].match_len.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let majority = sorted[n / 2];
        if majority > self.replicas[i].acked_len {
            self.replicas[i].acked_len = majority;
            let head = self.replicas[i].log().prefix(majority).head();
            let extend = self
                .acked_marks
                .last()
                .map(|&(l, _)| majority > l)
                .unwrap_or(true);
            if extend {
                self.acked_marks.push((majority, head));
            }
        }
    }

    /// Records the machine-checked failover verdict for a promotion.
    fn failover_check(&mut self, i: usize) {
        let r = &self.replicas[i];
        let digest_equal = match reduce(&self.genesis, r.log()) {
            Ok(sm) => sm.digest() == r.sm.digest(),
            Err(_) => false,
        };
        let acked_covered = self
            .acked_marks
            .iter()
            .all(|&(len, head)| len <= r.len() && r.log().prefix(len).head() == head);
        self.failover_checks.push(FailoverCheck {
            epoch: r.epoch,
            id: r.id,
            digest_equal,
            acked_covered,
        });
    }

    fn apply_effects(&mut self, id: u32, fx: HandleEffects) {
        if fx.deposed {
            self.events.push(ReplEvent::Deposed {
                id,
                epoch: self.replicas[id as usize].epoch,
                at: self.now,
            });
        }
        if fx.migrated {
            self.events
                .push(ReplEvent::SnapshotMigrated { id, at: self.now });
        }
        if fx.acked_moved {
            self.recompute_acked(id as usize);
        }
        if fx.promoted {
            self.promotions += 1;
            self.events.push(ReplEvent::Promoted {
                id,
                epoch: self.replicas[id as usize].epoch,
                at: self.now,
            });
            self.failover_check(id as usize);
        }
        if let Some((deposed, de)) = fx.fence_report {
            if self.fence_audits.insert((deposed, de)) {
                self.events.push(ReplEvent::Fenced {
                    id: deposed,
                    stale_epoch: de,
                    at: self.now,
                });
                let audit = fence_audit(deposed, de);
                self.seal_on(id as usize, &audit);
            }
        }
    }

    /// Advances the cluster one simulated tick: stalls and restarts,
    /// link delivery, frame processing, primary heartbeats and paced
    /// resends, election timers, and the metering status export.
    pub fn tick(&mut self) {
        self.now += 1;
        let now = self.now;
        let n = self.replicas.len();

        // A backup-stall fault freezes one backup's frame processing.
        if let Some(detail) = self.inject.fires(InjectKind::ReplBackupStall) {
            let victim = (detail % n as u64) as usize;
            if self.replicas[victim].role == Role::Backup {
                self.replicas[victim].stall_until = now + 2 + (detail >> 8) % 10;
            }
        }

        // Crashed replicas restart as backups; amnesia victims start
        // over from genesis and rely on snapshot catch-up.
        for i in 0..n {
            let genesis = self.genesis;
            let r = &mut self.replicas[i];
            if r.role != Role::Down {
                continue;
            }
            if let Some((at, amnesia)) = r.restart_at {
                if at <= now {
                    if amnesia {
                        r.sm = genesis.build();
                        r.epoch = 1;
                        r.voted_in = 0;
                        r.last_entry_epoch = 0;
                        r.acked_len = 0;
                    }
                    r.role = Role::Backup;
                    r.leader = None;
                    r.quiet_ticks = 0;
                    r.restart_at = None;
                    // Reboot haze: a restarted replica spends one tick
                    // before processing frames, so a sealer deposed
                    // while down observably holds its stale epoch (and
                    // is refused through the fence) before adoption.
                    r.stall_until = now + 1;
                    self.events.push(ReplEvent::Restarted { id: r.id, at: now });
                }
            }
        }

        // Link delivery: frames to a crashed replica are lost.
        for (to, bytes) in self.link.deliver_due(now) {
            let r = &mut self.replicas[to as usize];
            if r.role != Role::Down {
                r.inbox.push_back(bytes);
            }
        }

        // Frame processing, in replica order for determinism.
        for i in 0..n {
            if self.replicas[i].role == Role::Down || self.replicas[i].stall_until > now {
                continue;
            }
            while let Some(bytes) = self.replicas[i].inbox.pop_front() {
                let frame = match Frame::decode(&bytes) {
                    Ok(fr) => fr,
                    Err(_) => {
                        self.replicas[i].stats.decode_errors += 1;
                        continue;
                    }
                };
                let mut out = Vec::new();
                let mut fx = HandleEffects::default();
                let genesis = self.genesis;
                self.replicas[i].handle(&genesis, n, now, frame, &mut out, &mut fx);
                for fr in &out {
                    self.link.send(now, fr);
                }
                self.apply_effects(i as u32, fx);
            }
        }

        // Primary duties: periodic heartbeats and paced resends for
        // peers whose chain-verified position lags.
        for i in 0..n {
            if self.replicas[i].role != Role::Primary || self.replicas[i].stall_until > now {
                continue;
            }
            if now.is_multiple_of(self.cfg.heartbeat_every) {
                for p in 0..n as u32 {
                    if p as usize != i {
                        let fr = self.replicas[i].heartbeat(p);
                        self.link.send(now, &fr);
                    }
                }
            }
            let len = self.replicas[i].len();
            for p in 0..n {
                if p == i {
                    continue;
                }
                if self.replicas[i].match_len[p] < len && now >= self.replicas[i].backoff_due[p] {
                    let from_len = self.replicas[i].match_len[p];
                    let fr = self.replicas[i].append_frame(p as u32, from_len);
                    self.link.send(now, &fr);
                    self.replicas[i].stats.resends += 1;
                    self.replicas[i].pace(p, now);
                }
            }
        }

        // Election timers: a quiet backup stands for election on a
        // per-replica staggered timeout.
        let max_e = self.max_epoch();
        for i in 0..n {
            let r = &mut self.replicas[i];
            if r.role != Role::Backup || r.stall_until > now {
                continue;
            }
            r.quiet_ticks += 1;
            if r.quiet_ticks.is_multiple_of(self.cfg.heartbeat_every) {
                r.stats.heartbeat_misses += 1;
            }
            if r.quiet_ticks > self.cfg.election_timeout + 3 * u64::from(r.id) {
                let e = max_e.max(r.epoch) + 1;
                r.epoch = e;
                r.voted_in = e;
                r.candidacy = Some((e, BTreeSet::from([r.id])));
                r.quiet_ticks = 0;
                r.leader = None;
                let creds = (r.last_entry_epoch, r.len());
                let id = r.id;
                for p in 0..n as u32 {
                    if p != id {
                        let fr = Frame {
                            from: id,
                            to: p,
                            epoch: e,
                            body: Body::VoteRequest {
                                last_epoch: creds.0,
                                len: creds.1,
                            },
                        };
                        self.link.send(now, &fr);
                    }
                }
            }
        }

        self.publish_status();
    }

    /// Publishes each replica's replication status into its world, so
    /// `hcs_$metering_get` exports the `repl.*` gauges.
    fn publish_status(&mut self) {
        let max_len = self
            .replicas
            .iter()
            .filter(|r| r.role != Role::Down)
            .map(|r| r.len())
            .max()
            .unwrap_or(0);
        for r in &mut self.replicas {
            let len = r.len();
            let snap = ReplSnapshot {
                role: r.role.name().to_string(),
                epoch: r.epoch,
                commits: len,
                acked: r.acked_len,
                lag: max_len.saturating_sub(len),
                heartbeat_misses: r.stats.heartbeat_misses,
                resends: r.stats.resends,
                fenced: r.stats.fenced,
                catchups: r.stats.catchups,
            };
            r.sm.set_repl_status(Some(snap));
        }
    }

    /// Whether every replica is up with a log identical to the
    /// primary's, nothing in flight and nothing queued.
    pub fn converged(&self) -> bool {
        if self.replicas.iter().any(|r| r.role == Role::Down) {
            return false;
        }
        let p = match self.primary_index() {
            Some(p) => p,
            None => return false,
        };
        let (plen, phead) = (self.replicas[p].len(), self.replicas[p].head());
        self.replicas
            .iter()
            .all(|r| r.len() == plen && r.head() == phead && r.inbox.is_empty())
    }

    /// Ticks (up to `max` times) until the cluster converges with an
    /// empty link; returns whether it did.
    pub fn run_quiet(&mut self, max: u64) -> bool {
        for _ in 0..max {
            if self.converged() && self.link.in_flight() == 0 {
                return true;
            }
            self.tick();
        }
        self.converged() && self.link.in_flight() == 0
    }
}

/// The audit record sealed when a deposed sealer is fenced.
fn fence_audit(deposed: u32, stale_epoch: u64) -> Commit {
    Commit::Audit {
        who: None,
        event: AuditEvent::ProtectionFault {
            fault: format!("repl fence: deposed primary {deposed} refused at epoch {stale_epoch}"),
        },
    }
}

/// What the mixed-workload driver observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DriveReport {
    /// Commits successfully sealed on a primary.
    pub submitted: u64,
    /// Kernel-level refusals among them (deterministic verdicts).
    pub refused: u64,
    /// Submissions retried because no primary was available.
    pub retries: u64,
    /// Salvager findings at the end of the run.
    pub salvage_problems: u64,
    /// Whether the boot-check diverged at the end of the run.
    pub boot_divergence: bool,
}

/// The cluster as a workload executor: each commit is submitted with
/// retry (a crashed or mid-election cluster refuses, so the client ticks
/// and tries again, like a client re-dialing), and the cluster ticks
/// once per workload operation.
struct ClusterClient<'a> {
    cluster: &'a mut Cluster,
    report: DriveReport,
}

impl Executor for ClusterClient<'_> {
    fn apply(&mut self, commit: &Commit) -> Outcome {
        for _ in 0..400 {
            match self.cluster.submit(commit) {
                Ok(out) => {
                    self.report.submitted += 1;
                    if matches!(out, Outcome::Refused(_)) {
                        self.report.refused += 1;
                    }
                    return out;
                }
                Err(_) => {
                    self.report.retries += 1;
                    self.cluster.tick();
                }
            }
        }
        panic!("replication cluster made no progress after 400 ticks submitting {commit:?}");
    }

    fn end_op(&mut self) {
        self.cluster.tick();
    }
}

/// Drives the E15 mixed workload through the cluster: the same seeded
/// six-way operation mix the fault experiments use (with no fault plan
/// in the machine — here the *cluster* is what fails), one cluster tick
/// per operation, and the recovery tail at the end.
pub fn drive_mixed_workload(cluster: &mut Cluster, seed: u64, ops: u64) -> DriveReport {
    let mut client = ClusterClient {
        cluster,
        report: DriveReport::default(),
    };
    let end = mixed_workload(&mut client, seed, ops, None, false);
    let (salvage_problems, boot_divergence) = recovery_tail(&mut client, end.admin);
    DriveReport {
        salvage_problems,
        boot_divergence,
        ..client.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mks_hw::{FaultEvent, FaultPlan};

    fn small_cluster(seed: u64) -> Cluster {
        Cluster::new(
            Genesis::kernel_small(),
            ReplConfig {
                seed,
                ..ReplConfig::default()
            },
        )
    }

    #[test]
    fn frames_round_trip_over_the_codec() {
        let frames = vec![
            Frame {
                from: 0,
                to: 2,
                epoch: 7,
                body: Body::Heartbeat {
                    len: 5,
                    head: 0xabcd,
                    acked: 3,
                },
            },
            Frame {
                from: 1,
                to: 0,
                epoch: 7,
                body: Body::Nack {
                    have_len: 4,
                    have_head: 0x1234,
                    divergent: true,
                },
            },
            Frame {
                from: 2,
                to: 0,
                epoch: 8,
                body: Body::VoteRequest {
                    last_epoch: 7,
                    len: 5,
                },
            },
            Frame {
                from: 0,
                to: 2,
                epoch: 8,
                body: Body::VoteGrant,
            },
            Frame {
                from: 1,
                to: 2,
                epoch: 8,
                body: Body::FenceReport {
                    deposed: 0,
                    deposed_epoch: 7,
                },
            },
        ];
        for f in frames {
            let bytes = f.encode();
            assert_eq!(Frame::decode(&bytes).expect("frame decodes"), f);
        }
        let mut bad = Frame {
            from: 0,
            to: 1,
            epoch: 1,
            body: Body::VoteGrant,
        }
        .encode();
        let last = bad.len() - 1;
        bad[last] = 99;
        assert!(matches!(
            Frame::decode(&bad),
            Err(WireError::BadTag { what: "Body", .. })
        ));
    }

    #[test]
    fn quiet_cluster_replicates_and_converges() {
        let mut cluster = small_cluster(11);
        let report = drive_mixed_workload(&mut cluster, 11, 40);
        assert!(report.submitted > 40);
        assert_eq!(report.retries, 0, "no faults, no retries");
        assert!(cluster.run_quiet(600), "quiet cluster converges");
        let plog = cluster.log_of(0);
        for id in 1..cluster.replica_count() as u32 {
            assert_eq!(cluster.log_of(id).len(), plog.len());
            assert_eq!(cluster.log_of(id).head(), plog.head());
            assert_eq!(cluster.digest_of(id), cluster.digest_of(0));
        }
        let reduced = reduce(cluster.genesis(), plog).expect("replicated log reduces");
        assert_eq!(reduced.digest(), cluster.digest_of(0));
        assert!(cluster.sealer_violations().is_empty());
        let status = cluster.status_of(0).expect("status published");
        assert_eq!(status.role, "primary");
        assert_eq!(status.commits, plog.len());
    }

    #[test]
    fn a_cluster_converges_after_a_commit_with_an_edited_acl() {
        // The backups decode the commit's ACL afresh, so their copy's
        // lookup index differs from the primary's; their seals must not.
        use crate::statemachine::commit::tests::edited_acl_commit;
        let mut cluster = small_cluster(9);
        let out = cluster
            .submit(&edited_acl_commit(true))
            .expect("the primary seals");
        assert!(
            matches!(&out, Outcome::Refused(why) if why.starts_with("NoSuchProcess")),
            "{out:?}"
        );
        assert!(cluster.run_quiet(20_000), "the cluster converges");
        let primary = cluster.primary().expect("a primary exists");
        for id in 0..cluster.replica_count() as u32 {
            assert_eq!(
                cluster.digest_of(id),
                cluster.digest_of(primary),
                "replica {id}"
            );
        }
    }

    #[test]
    fn primary_crash_promotes_an_up_to_date_backup() {
        let mut cluster = small_cluster(23);
        let plan = FaultPlan {
            seed: 23,
            events: vec![FaultEvent {
                kind: InjectKind::ReplPrimaryCrash,
                nth: 30,
                detail: 0x0100, // amnesia restart, prompt
            }],
        };
        cluster.arm(&plan);
        let report = drive_mixed_workload(&mut cluster, 23, 60);
        cluster.disarm();
        assert!(report.retries > 0, "the crash forced client retries");
        assert_eq!(cluster.promotions(), 1, "exactly one election won");
        assert!(cluster.run_quiet(2000), "cluster heals after the crash");
        for check in cluster.failover_checks() {
            assert!(check.digest_equal, "promoted digest equals reduce()");
            assert!(check.acked_covered, "no acked commit lost");
        }
        assert!(cluster.sealer_violations().is_empty(), "no split brain");
        let p = cluster.primary().expect("a primary exists");
        assert_ne!(p, 0, "a backup was promoted");
        // The deposed replica rejoined and now tracks the new epoch.
        assert_eq!(cluster.epoch_of(0), cluster.max_epoch());
        assert_eq!(cluster.role_of(0), Role::Backup);
        // A deposed (now mere backup) replica cannot seal.
        let err = cluster
            .seal_as(0, &Commit::Tick { times: 1 })
            .expect_err("backup seal refused");
        assert!(matches!(
            err,
            ReplError::NotPrimary { id: 0 } | ReplError::Deposed { id: 0, .. }
        ));
    }

    #[test]
    fn repl_errors_render_and_chain_sources() {
        let e = ReplError::Deposed {
            id: 2,
            epoch: 3,
            current: 5,
        };
        assert!(e.to_string().contains("fenced by epoch 5"));
        let w = ReplError::Wire(WireError::Trailing { extra: 4 });
        assert!(std::error::Error::source(&w).is_some());
        assert!(std::error::Error::source(&e).is_none());
    }
}
