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
//!
//! And for the surface: an item is `pub` only where another crate names
//! it, so rustc's `dead_code` lint (which cannot see an unused `pub`
//! item) finds the dead code. The panics left on the mutation path and
//! the users of the vendored random-number stub are pinned the same way.

use std::collections::{HashMap, HashSet};
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

/// Where the census weighs a one-arm file (see [`ONE_ARM`]).
const BOTH_SIDES: &str = "protected in the legacy configuration, user ring in the kernel";
const LEGACY_ONLY: &str = "weighed in the legacy configuration only";
const KERNEL_ONLY: &str = "weighed in the kernel configuration only";

/// Files the census weighs for one configuration only, or on opposite
/// sides of the protection boundary in the two. Each is the before or
/// the after arm of a paper comparison (E1, E2, E8, E11, E14): narrowing
/// an item there lets the compiler delete code on one arm only, which
/// moves a reproduced ratio. A path ending in `/` is a directory.
const ONE_ARM: [(&str, &str); 19] = [
    ("crates/core/src/auth.rs", BOTH_SIDES),
    ("crates/core/src/init.rs", BOTH_SIDES),
    ("crates/core/src/init/bootstrap.rs", BOTH_SIDES),
    ("crates/core/src/init/image.rs", KERNEL_ONLY),
    ("crates/core/src/subsystem.rs", BOTH_SIDES),
    ("crates/fs/src/kst_legacy.rs", LEGACY_ONLY),
    ("crates/fs/src/pathres.rs", KERNEL_ONLY),
    ("crates/io/src/devices/", BOTH_SIDES),
    ("crates/io/src/infinite.rs", KERNEL_ONLY),
    ("crates/io/src/network.rs", KERNEL_ONLY),
    ("crates/linker/src/kernel_cfg.rs", LEGACY_ONLY),
    ("crates/linker/src/object.rs", BOTH_SIDES),
    ("crates/linker/src/refname.rs", BOTH_SIDES),
    ("crates/linker/src/snap.rs", BOTH_SIDES),
    ("crates/linker/src/user_cfg.rs", KERNEL_ONLY),
    ("crates/mls/src/label.rs", KERNEL_ONLY),
    ("crates/mls/src/policy.rs", KERNEL_ONLY),
    ("crates/vm/src/parallel.rs", KERNEL_ONLY),
    ("crates/vm/src/sequential.rs", LEGACY_ONLY),
];

/// The `pub` items that nothing outside their crate names, `(file,
/// item)`: all in one-arm files, each for its file's reason in
/// [`ONE_ARM`]. Deleting one is one-arm removal, which must re-derive
/// E2, E8 and E14; remove its line when it narrows or gains a caller.
const UNNARROWED: [(&str, &str); 31] = [
    ("crates/core/src/auth.rs", "authenticate"),
    ("crates/core/src/auth.rs", "nr_accounts"),
    ("crates/core/src/auth.rs", "unlock"),
    ("crates/core/src/subsystem.rs", "answering_service"),
    ("crates/fs/src/kst_legacy.rs", "inferiors_of"),
    ("crates/fs/src/kst_legacy.rs", "initiate_relative"),
    ("crates/fs/src/kst_legacy.rs", "invalidate_path"),
    ("crates/fs/src/kst_legacy.rs", "nr_refnames"),
    ("crates/fs/src/kst_legacy.rs", "path_of"),
    ("crates/io/src/devices/cards.rs", "CARD_COLUMNS"),
    ("crates/io/src/devices/cards.rs", "load_deck"),
    ("crates/io/src/devices/cards.rs", "punched"),
    ("crates/io/src/devices/cards.rs", "stacker"),
    ("crates/io/src/devices/printer.rs", "LINE_WIDTH"),
    ("crates/io/src/devices/printer.rs", "PAGE_LINES"),
    ("crates/io/src/devices/terminal.rs", "echoed"),
    ("crates/io/src/devices/terminal.rs", "key_interrupt"),
    ("crates/io/src/infinite.rs", "pages_swept"),
    ("crates/io/src/network.rs", "deliver_inbound"),
    ("crates/io/src/network.rs", "outbound"),
    ("crates/linker/src/kernel_cfg.rs", "LEGACY_LINKER_RING"),
    ("crates/linker/src/object.rs", "OBJ_MAGIC"),
    ("crates/linker/src/refname.rs", "nr_names"),
    ("crates/linker/src/refname.rs", "unbind_segno"),
    ("crates/linker/src/snap.rs", "add_dir"),
    ("crates/linker/src/user_cfg.rs", "USER_LINKER_GATES"),
    ("crates/linker/src/user_cfg.rs", "USER_LINKER_RING"),
    ("crates/mls/src/label.rs", "contains_all"),
    ("crates/mls/src/label.rs", "meet"),
    ("crates/mls/src/label.rs", "strictly_dominates"),
    ("crates/vm/src/sequential.rs", "policy_name"),
];

/// This file, which names the pinned items without using them.
const SELF: &str = "tests/one_of_each.rs";

/// The identifiers spelled in `src`, code and comments alike.
fn words(src: &str) -> HashSet<&str> {
    src.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The name of the `pub fn`, `pub const fn`, `pub const` or `pub static`
/// item declared on `line`, if any.
fn pub_item(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = ["const fn ", "const ", "static ", "fn "]
        .iter()
        .find_map(|kind| rest.strip_prefix(kind))?;
    let len = rest
        .bytes()
        .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
        .count();
    (len > 0).then(|| &rest[..len])
}

/// The library source directory `rel` lies in (`crates/<name>/src/`,
/// outside `src/bin/`), if any.
fn library_of(rel: &str) -> Option<String> {
    let name = rel.strip_prefix("crates/")?.split('/').next()?;
    let src = format!("crates/{name}/src/");
    (rel.starts_with(&src) && !rel.starts_with(&format!("{src}bin/"))).then_some(src)
}

/// A `pub` item is used outside its crate when its name is a word of a
/// scanned file outside its crate's library source (another crate, a
/// test, a binary, an example, the benchmark) or of a `pub use` in its
/// crate. Every other one must be narrowed, or pinned above.
#[test]
fn pub_items_without_an_outside_user_are_pinned() {
    assert_eq!(
        pub_item("    pub const fn new(seed: u64) -> S {"),
        Some("new")
    );
    assert_eq!(
        pub_item("pub static TABLE: [u8; 2] = [0, 1];"),
        Some("TABLE")
    );
    assert_eq!(pub_item("    pub(crate) fn narrow(&self) {"), None);
    assert_eq!(library_of("crates/bench/src/bin/exp_all.rs"), None);

    let mut sources = scanned_sources();
    sources.retain(|(rel, _)| rel != SELF);
    let scanned: Vec<(Option<String>, HashSet<&str>)> = sources
        .iter()
        .map(|(rel, src)| (library_of(rel), words(src)))
        .collect();
    let mut reexported: HashMap<&str, HashSet<&str>> = HashMap::new();
    for ((_, src), (lib, _)) in sources.iter().zip(&scanned) {
        let Some(lib) = lib else { continue };
        for (at, _) in src.match_indices("pub use ") {
            let decl = &src[at..];
            let decl = &decl[..decl.find(';').unwrap_or(decl.len())];
            reexported.entry(lib).or_default().extend(words(decl));
        }
    }
    let mut unused = Vec::new();
    for ((rel, src), (lib, _)) in sources.iter().zip(&scanned) {
        let Some(lib) = lib else { continue };
        for name in src.lines().filter_map(pub_item) {
            let outside = scanned
                .iter()
                .any(|(other, names)| other.as_ref() != Some(lib) && names.contains(name));
            if !outside
                && !reexported
                    .get(lib.as_str())
                    .is_some_and(|r| r.contains(name))
            {
                unused.push((rel.as_str(), name));
            }
        }
    }
    unused.sort_unstable();
    unused.dedup();

    let new: Vec<&(&str, &str)> = unused.iter().filter(|i| !UNNARROWED.contains(i)).collect();
    assert!(
        new.is_empty(),
        "`pub` items named by nothing outside their crate: make each \
         `pub(crate)` or private, then delete what `dead_code` flags: {new:#?}"
    );
    let gone: Vec<&(&str, &str)> = UNNARROWED.iter().filter(|p| !unused.contains(p)).collect();
    assert!(
        gone.is_empty(),
        "pinned items that were narrowed or gained an outside user; \
         remove their lines: {gone:?}"
    );
    for (rel, name) in UNNARROWED {
        let one_arm = ONE_ARM
            .iter()
            .any(|(path, _)| rel == *path || (path.ends_with('/') && rel.starts_with(path)));
        assert!(one_arm, "{rel}: {name} is pinned outside a one-arm file");
    }
}

/// The files a gate call runs through on its way to a sealed commit.
const MUTATION_PATH: [&str; 7] = [
    "crates/core/src/monitor.rs",
    "crates/core/src/world.rs",
    "crates/core/src/pressure.rs",
    "crates/core/src/statemachine/mod.rs",
    "crates/core/src/statemachine/commit.rs",
    "crates/core/src/statemachine/replay.rs",
    "crates/core/src/statemachine/wire.rs",
];

/// The panics those files may hold outside their test modules, `(file,
/// site, count, reason)`: `count` lines of `file` contain `site`. Input
/// must never reach one; a typed refusal beats a new entry here.
const PANIC_SITES: [(&str, &str, usize, &str); 3] = [
    (
        "crates/core/src/monitor.rs",
        "unreachable!(",
        1,
        "a process's KST kind is fixed by the world's naming configuration",
    ),
    (
        "crates/core/src/statemachine/wire.rs",
        ".try_into().unwrap()",
        5,
        "fixed width: each converts a slice `Cursor::take(n)` returned at exactly n bytes",
    ),
    (
        "crates/core/src/world.rs",
        r#".expect("unknown kernel process")"#,
        5,
        "an unknown pid; ROADMAP item 1 makes each a typed `NoSuchProcess` refusal",
    ),
];

/// `src` up to its `#[cfg(test)]` test module.
fn before_tests(src: &str) -> &str {
    let at = src
        .match_indices("#[cfg(test)]\n")
        .map(|(at, cfg)| at + cfg.len())
        .find(|&after| {
            let decl = src[after..].lines().next().unwrap_or("");
            decl.trim_end()
                .trim_end_matches('{')
                .trim_end()
                .ends_with("mod tests")
        });
    &src[..at.unwrap_or(src.len())]
}

#[test]
fn panics_on_the_mutation_path_are_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut counts = [0; PANIC_SITES.len()];
    let mut strays = Vec::new();
    for rel in MUTATION_PATH {
        let src = fs::read_to_string(root.join(rel)).expect("readable source");
        for (i, line) in before_tests(&src).lines().enumerate() {
            let code = line.trim_start();
            let panics = ["expect(", "unwrap()", "panic!", "unreachable!"]
                .iter()
                .any(|p| code.contains(p));
            if !panics || code.starts_with("//") {
                continue;
            }
            match PANIC_SITES
                .iter()
                .position(|(file, site, ..)| *file == rel && code.contains(site))
            {
                Some(k) => counts[k] += 1,
                None => strays.push(format!("{rel}:{}: {code}", i + 1)),
            }
        }
    }
    assert!(
        strays.is_empty(),
        "panics on the mutation path (return a typed refusal instead):\n{}",
        strays.join("\n")
    );
    for ((file, site, pinned, _), found) in PANIC_SITES.iter().zip(counts) {
        assert_eq!(found, *pinned, "{file}: `{site}` sites (update the pin)");
    }
}

/// The last users of the vendored `rand` stub. `mks-vm` and `mks-cert`
/// are in the benchmark package's dependency graph, so dropping their
/// `rand` rewrites `mks_benchmark/Cargo.lock`; everything else draws
/// from `mks_hw::SplitMix64`, the same generator.
const RAND_USERS: [&str; 2] = ["crates/cert/src/validate.rs", "crates/vm/src/workload.rs"];

#[test]
fn rand_is_used_only_by_its_last_two_callers() {
    // Split so this file does not match itself.
    let path = concat!("rand", "::");
    let mut users: Vec<String> = scanned_sources()
        .into_iter()
        .filter(|(_, src)| src.contains(path))
        .map(|(rel, _)| rel)
        .collect();
    users.sort();
    assert_eq!(
        users, RAND_USERS,
        "draw from `mks_hw::SplitMix64` (`below`, `next_u64`, `unit_f64`) instead"
    );
}
