//! One of each: the repository keeps a single implementation of its
//! FNV-1a and SplitMix64 primitives, in `mks_trace::digest` (re-exported
//! by `mks-hw`). Every other copy is one more pair a reviewer must check
//! for agreement, so this scan fails on any occurrence of either
//! algorithm's signature constant outside that module.
//!
//! The same goes for workloads and doors: the E15 mixed workload is
//! written once (`statemachine/workload.rs`), and the set of files that
//! call a `Monitor` entry point directly — around the state machine's
//! single door, `KernelStateMachine::apply` — may only shrink.
//!
//! And for hashers: one per kind of key. Maps and sets keyed by the
//! integer ids the kernel mints use `mks_trace::digest::IdMap`/`IdSet`;
//! directory entry names use the fixed-key SipHash `DetHashMap`.

use std::fs;
use std::path::{Path, PathBuf};

/// The shared module: the only file that may spell the constants.
const HOME: &str = "crates/trace/src/digest.rs";

/// The signature constants, lower-case hex without separators: the
/// FNV-1a 64-bit offset basis and the first SplitMix64 multiplier. Each
/// is split in two so this file does not match itself.
const SIGNATURES: [(&str, &str); 2] = [
    ("FNV-1a offset basis", concat!("cbf29ce4", "84222325")),
    ("SplitMix64 multiplier", concat!("bf58476d", "1ce4e5b9")),
];

/// The calibration kernel in `perf.rs` is exempt: it is the CPU
/// yardstick the perf gate measures, so it stays a self-contained body.
const CALIBRATION: (&str, &str) = ("crates/bench/src/perf.rs", "fn calibration_step(");

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n != "vendor" && n != "target")
            {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn normalized(line: &str) -> String {
    line.replace('_', "").to_ascii_lowercase()
}

#[test]
fn fnv_and_splitmix_constants_live_only_in_the_shared_module() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in ["crates", "tests"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 100, "the scan must see the whole tree");

    let mut strays = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        if rel == HOME {
            continue;
        }
        let src = fs::read_to_string(path).expect("readable source");
        let mut in_calibration = false;
        for (i, line) in src.lines().enumerate() {
            if rel == CALIBRATION.0 {
                in_calibration |= line.contains(CALIBRATION.1);
                if in_calibration {
                    in_calibration = line != "}";
                    continue;
                }
            }
            let line = normalized(line);
            for (what, sig) in SIGNATURES {
                if line.contains(sig) {
                    strays.push(format!("{rel}:{}: {what}", i + 1));
                }
            }
        }
    }
    assert!(
        strays.is_empty(),
        "copies outside {HOME} (use mks_hw::{{Fnv64, SplitMix64}}):\n{}",
        strays.join("\n")
    );

    let home = normalized(&fs::read_to_string(root.join(HOME)).expect("shared module"));
    for (what, sig) in SIGNATURES {
        assert!(home.contains(sig), "{HOME} must define the {what}");
    }
}

/// Every directory the workload and door scans read. `mks_benchmark/` is
/// its own package with its own contract, so it is only read.
const SCANNED: [&str; 4] = ["crates", "tests", "examples", "mks_benchmark/src"];

/// Every scanned file, as `(path relative to the root, source)`.
fn scanned_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for dir in SCANNED {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(files.len() > 100, "the scan must see the whole tree");
    files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            (rel, fs::read_to_string(path).expect("readable source"))
        })
        .collect()
}

/// The E15 mix's home, and the salt it seeds `SplitMix64` with (split so
/// this file does not match itself). A second file with the salt is a
/// second copy of the mix.
const MIX_HOME: &str = "crates/core/src/statemachine/workload.rs";
const MIX_SALT: &str = concat!("d1f7ac75", "0badc0de");

#[test]
fn the_mixed_workload_is_written_once() {
    let copies: Vec<String> = scanned_sources()
        .into_iter()
        .filter(|(_, src)| normalized(src).contains(MIX_SALT))
        .map(|(rel, _)| rel)
        .collect();
    assert_eq!(
        copies,
        [MIX_HOME],
        "the E15 mix (salt {MIX_SALT}) must live only in {MIX_HOME}; \
         run it through `mixed_workload` with an executor instead"
    );
}

/// Files allowed to call a `Monitor` entry point directly, besides
/// `monitor.rs` and the commit dispatcher in `statemachine/mod.rs`.
/// Each one changes kernel state that no commit records; ROADMAP item 8
/// moves them onto `KernelStateMachine::apply`. The list may only
/// shrink: delete a file's line when it stops calling `Monitor`.
const MONITOR_CALLERS: [&str; 26] = [
    "crates/bench/src/experiments/a4_removal_cost.rs",
    "crates/bench/src/experiments/e16_degradation.rs",
    "crates/bench/src/experiments/e17_observatory.rs",
    "crates/bench/src/experiments/e20_replay.rs",
    "crates/bench/src/experiments/e21_replication.rs",
    "crates/bench/src/experiments/e4_ring_calls.rs",
    "crates/bench/src/perf.rs",
    "crates/bench/src/scale.rs",
    "crates/core/src/exec.rs",
    "crates/core/src/penetration.rs",
    "crates/core/src/pressure.rs",
    "crates/core/tests/hot_path_allocs.rs",
    "examples/borrowed_trojan.rs",
    "examples/mls_compartments.rs",
    "examples/quickstart.rs",
    "examples/team_subsystem.rs",
    "mks_benchmark/src/acl_churn.rs",
    "mks_benchmark/src/site.rs",
    "mks_benchmark/src/utility_mix.rs",
    "tests/full_system.rs",
    "tests/model_based.rs",
    "tests/observability.rs",
    "tests/observatory.rs",
    "tests/overload_resilience.rs",
    "tests/parallel.rs",
    "tests/removal_parity.rs",
];

/// The monitor itself and the dispatcher behind the door.
const MONITOR_DOORS: [&str; 2] = [
    "crates/core/src/monitor.rs",
    "crates/core/src/statemachine/mod.rs",
];

/// Whether `src` calls `Monitor::<fn>(` anywhere.
fn calls_monitor(src: &str) -> bool {
    src.match_indices("Monitor::").any(|(at, m)| {
        let name = &src[at + m.len()..];
        let len = name
            .bytes()
            .take_while(|b| b.is_ascii_lowercase() || *b == b'_')
            .count();
        len > 0 && name[len..].starts_with('(')
    })
}

#[test]
fn direct_monitor_callers_only_shrink() {
    let callers: Vec<String> = scanned_sources()
        .into_iter()
        .filter(|(rel, src)| !MONITOR_DOORS.contains(&rel.as_str()) && calls_monitor(src))
        .map(|(rel, _)| rel)
        .collect();
    let new: Vec<&String> = callers
        .iter()
        .filter(|rel| !MONITOR_CALLERS.contains(&rel.as_str()))
        .collect();
    assert!(
        new.is_empty(),
        "new direct `Monitor::` callers (send the work through \
         `KernelStateMachine::apply` instead): {new:?}"
    );
    let gone: Vec<&str> = MONITOR_CALLERS
        .into_iter()
        .filter(|pinned| !callers.iter().any(|rel| rel == pinned))
        .collect();
    assert!(
        gone.is_empty(),
        "these files no longer call `Monitor::` directly; shrink the list: {gone:?}"
    );
}

/// The integer ids the kernel mints. A hash map or set keyed by one of
/// them must be an `IdMap`/`IdSet`.
const ID_KEYS: [&str; 4] = ["KProcId", "SegUid", "SegNo", "AstIndex"];

/// The key type of each `HashMap<…>`/`HashSet<…>` (including
/// `DetHashMap<…>`) spelled on `line`, without any path prefix.
fn hashed_keys(line: &str) -> Vec<&str> {
    let mut keys = Vec::new();
    for kind in ["HashMap<", "HashSet<"] {
        for (at, _) in line.match_indices(kind) {
            let rest = &line[at + kind.len()..];
            let key = rest.split([',', '>']).next().unwrap_or("").trim();
            keys.push(key.rsplit("::").next().unwrap_or(key));
        }
    }
    keys
}

#[test]
fn maps_keyed_by_kernel_ids_use_the_id_hasher() {
    // Split so this file does not match itself.
    let spelled = concat!("x: DetHash", "Map<mks_hw::SegUid, usize>,");
    assert_eq!(hashed_keys(spelled), ["SegUid"]);
    assert_eq!(
        hashed_keys("y: IdMap<SegNo, KstEntry>,"),
        Vec::<&str>::new()
    );
    let mut strays = Vec::new();
    for (rel, src) in scanned_sources() {
        for (i, line) in src.lines().enumerate() {
            if hashed_keys(line).iter().any(|k| ID_KEYS.contains(k)) {
                strays.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        strays.is_empty(),
        "maps keyed by kernel ids must be `mks_trace::digest::IdMap`/`IdSet` \
         (re-exported as `mks_hw::IdMap`):\n{}",
        strays.join("\n")
    );
}
