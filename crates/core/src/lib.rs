//! # mks-kernel — the Multics security kernel
//!
//! The paper's central artifact: "a minimal, protected central core of
//! software whose correct operation is necessary and sufficient to
//! guarantee enforcement within a system of the security model. Rather than
//! being dispersed throughout the system software, all protection
//! mechanisms are collected in the kernel, so that only this kernel need be
//! considered in order to certify the security properties of the system."
//!
//! This crate assembles the substrates (`mks-hw`, `mks-vm`, `mks-procs`,
//! `mks-fs`, `mks-mls`, `mks-linker`, `mks-io`) into a whole system, in
//! **two configurations**:
//!
//! * the *legacy supervisor* — everything in ring 0, the device zoo, the
//!   in-kernel linker and pathname machinery, in-situ interrupts,
//!   monolithic page control, and incremental bootstrap; and
//! * the *security kernel* — the paper's target: the removals done
//!   (linker, reference names, pathname resolution, login out of ring 0),
//!   the simplifications done (network-only I/O, infinite buffer, parallel
//!   page control, interrupt processes, memory-image initialization) and
//!   the partitions drawn (MLS at the bottom layer, policy/mechanism split
//!   across rings).
//!
//! Modules:
//! * [`config`] — which configuration is assembled, removal by removal;
//! * [`world`] — the whole-system state and per-process state;
//! * [`monitor`] — the reference monitor: every segment acquisition is
//!   mediated here (mandatory MLS check first, then the discretionary ACL,
//!   then ring brackets installed in the SDW for the hardware to enforce);
//! * [`gatetable`] — the supervisor's gate census per configuration
//!   (experiments E1/E3);
//! * [`audit`] — the certification audit: measured module inventory and
//!   size/entry reports (E2/E8/E14);
//! * [`auth`] — passwords and authentication;
//! * [`subsystem`] — protected-subsystem entry, and the login unification
//!   that makes the authentication machinery non-privileged;
//! * [`init`] — incremental bootstrap vs pre-initialized memory image (E11);
//! * [`penetration`] — the Linde-style attack catalog run against both
//!   configurations (E12), this reproduction's *review* activity;
//! * [`syslog`] — the kernel audit log;
//! * [`exec`] — running programs out of segments;
//! * [`backup`] — dumping the hierarchy to tape and restoring it;
//! * [`layers`] — structuring the kernel for certification (A3);
//! * [`pressure`] — pressure gauges and admission control (E16);
//! * [`recovery`] — the crash-recovery harness (E15);
//! * [`par`] — host-parallel execution of independent kernel lanes (E19);
//! * [`statemachine`] — the commit log, replay and its wire encoding (E20);
//! * [`replicate`] — primary/backup failover over the commit log (E21).

pub mod audit;
pub mod auth;
pub mod backup;
pub mod config;
pub mod exec;
pub mod gatetable;
pub mod init;
pub mod layers;
pub mod monitor;
pub mod par;
pub mod penetration;
pub mod pressure;
pub mod recovery;
pub mod replicate;
pub mod statemachine;
pub mod subsystem;
pub mod syslog;
pub mod world;

pub use audit::{AuditReport, SystemInventory};
pub use auth::{AuthDb, AuthError};
pub use config::{IoConfig, KernelConfig, LinkerConfig, NamingConfig, PagingConfig, PolicyConfig};
pub use gatetable::GateTable;
pub use monitor::{AccessError, Monitor};
pub use par::{differential_mismatches, lane_reports, run_lanes, LaneConfig, LaneReport};
pub use pressure::{
    read_pressure, AdmissionControl, PressureConfig, PressureReading, Priority, Resource,
};
pub use recovery::{RecoveryOutcome, SalvageMutation};
pub use replicate::{Cluster, DriveReport, ReplConfig, ReplError, ReplEvent, Role};
pub use statemachine::{
    Commit, CommitLog, Genesis, KernelStateMachine, MachineSnapshot, Outcome, ReplayError,
    ReplayMutation, SealedCommit, StateDigest, TimeTravel,
};
pub use syslog::{AuditEvent, AuditLog};
pub use world::{KProcId, KernelWorld, ProcState};
