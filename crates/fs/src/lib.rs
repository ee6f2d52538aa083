//! # mks-fs — the hierarchical file system
//!
//! Multics stored everything — segments *and* the directories describing
//! them — in a single tree. This crate implements that tree and the pieces
//! of it the paper's removal projects reshaped:
//!
//! * [`acl`] — Multics access-control lists (`Person.Project.tag` principals
//!   with wildcards; `rew` modes on segments, `sma` on directories);
//! * [`hierarchy`] — directories, branches, creation/deletion/renaming,
//!   with a mandatory-label compatibility rule from `mks-mls`;
//! * [`quota`] — directory storage quotas;
//! * [`kst`] — the Known Segment Table in **both** configurations: the
//!   legacy monolithic one (segment numbers, reference names, and pathnames
//!   all managed in ring 0) and the post-removal split (Bratt \[14\]): the
//!   kernel keeps only the segno↔uid binding while reference-name management
//!   moves to the user ring (see `mks-linker::refname`) — "a reduction by a
//!   factor of ten in the size of the protected code needed to manage the
//!   address space" (experiment E2);
//! * [`pathres`] — user-ring pathname resolution against the segment-number
//!   kernel interface, including the kernel's deliberate "convincing lies"
//!   about the existence of directories the caller may not probe.

pub mod acl;
#[cfg(test)]
mod acl_index_props;
pub mod det_hash;
#[cfg(test)]
mod dir_index_props;
pub mod hierarchy;
pub mod kst;
pub mod kst_legacy;
pub mod pathres;
pub mod quota;
pub mod salvage;
pub mod tear;

pub use acl::{Acl, AclEntry, AclMode, DirMode, UserId};
pub use hierarchy::{Branch, BranchKind, FileSystem, FsError};
pub use kst::{KernelKst, KstEntry};
pub use kst_legacy::{LegacyKst, LegacyKstError};
pub use pathres::{resolve_path, PathError};
pub use quota::{QuotaCell, QuotaError};
pub use salvage::{Problem, SalvageReport};
pub use tear::TearMode;
