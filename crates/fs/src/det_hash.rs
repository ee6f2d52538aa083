//! A deterministic hasher for the kernel's name-keyed indexes.
//!
//! `std::collections::HashMap::new()` seeds SipHash per process
//! (`RandomState`), so the collision and probe pattern of an index —
//! and therefore the host-time cost of a *specific* lookup — differs
//! from run to run. For the directory name indexes that sit on E18's
//! measured hot paths, that per-process lottery shows up as a
//! constant-factor timing difference a benchmark gate cannot average
//! away. They use a fixed-key SipHash instead
//! ([`std::collections::hash_map::DefaultHasher::new`] is specified to
//! construct the same hasher every time), making lookup work — not
//! just lookup *results* — identical across processes.
//!
//! This map is for names, whose bytes a caller chooses. Maps keyed by
//! the integer ids the kernel mints itself (pids, segment uids and
//! numbers, AST slots) use `mks_trace::digest::IdMap`, one SplitMix64
//! finalizer per word, and the ACL's exact index is keyed by a digest
//! of the principal (see `crate::acl`).
//!
//! Hash-flooding resistance is not lost by a fixed key: the names these
//! indexes hold are kernel-validated, bounded inputs, not attacker-chosen
//! blobs, and iteration order never leaks into kernel-visible state (the
//! salvager and auditors sort before emitting).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A `HashMap` whose layout is identical in every process.
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;
