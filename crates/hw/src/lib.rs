//! # mks-hw — simulated Honeywell 645/6180 hardware substrate
//!
//! This crate models the hardware base that Schroeder's security-kernel paper
//! assumes: a segmented, paged memory with descriptor segments, eight
//! protection rings with call gates, and the two historically relevant CPU
//! models —
//!
//! * [`CpuModel::H645`]: the original Multics machine, where rings were
//!   *simulated in software* and every cross-ring transfer trapped into the
//!   supervisor (making supervisor calls expensive, which in turn pressured
//!   designers to put too much inside the supervisor), and
//! * [`CpuModel::H6180`]: the follow-on machine with *hardware* rings, where a
//!   cross-ring call costs no more than an intra-ring call — the enabling
//!   technology for the paper's "removal" program.
//!
//! Everything is deterministic and cycle-accounted: a [`Clock`] advances by
//! costs drawn from a [`CostModel`], so experiments that compare the two
//! machines (experiment E4) or the two page-control designs (E5) are exactly
//! reproducible.
//!
//! The crate deliberately contains **no policy**: it implements the checks the
//! hardware would perform (bounds, access mode, ring brackets, gate entry
//! validation) and raises [`Fault`]s for everything else. The software layers
//! above (`mks-vm`, `mks-fs`, `mks-kernel`) decide what the faults mean.

pub mod ast;
pub mod backoff;
pub mod clock;
pub mod cost;
pub mod fault;
pub mod gate;
pub mod inject;
pub mod lockorder;
pub mod machine;
pub mod mem;
pub mod module;
pub mod ring;
pub mod sdw;
pub mod space;
pub mod word;

pub use ast::{Ast, AstIndex, PageState, PageTable, Ptw};
pub use backoff::{Backoff, BackoffPolicy};
pub use clock::{Clock, Cycles};
pub use cost::{CostModel, CpuModel};
pub use fault::Fault;
pub use gate::{EntryIndex, GateDef};
pub use inject::{
    shrink_plan, FaultEvent, FaultPlan, FiredFault, InjectKind, InjectorHandle, NR_INJECT_KINDS,
    NR_LEGACY_KINDS,
};
pub use lockorder::{LockAudit, LockHold, LockId, LockOrderHandle};
pub use machine::{AccessType, CallOutcome, Machine};
pub use mem::{FrameId, PhysMem, PAGE_WORDS};
/// The shared FNV-1a and SplitMix64 primitives (defined in `mks-trace`,
/// which sits below this crate).
pub use mks_trace::digest::{fnv64, Fnv64, SplitMix64};
pub use module::{source_weight, Category, ModuleInfo};
pub use ring::{RingBrackets, RingNo, NR_RINGS};
pub use sdw::{AccessMode, Sdw};
pub use space::{AddrSpace, SegNo};
pub use word::{SegUid, Word, MAX_SEG_WORDS};
