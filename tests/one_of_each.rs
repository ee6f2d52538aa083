//! One of each: the repository keeps a single implementation of its
//! FNV-1a and SplitMix64 primitives, in `mks_trace::digest` (re-exported
//! by `mks-hw`). Every other copy is one more pair a reviewer must check
//! for agreement, so this scan fails on any occurrence of either
//! algorithm's signature constant outside that module.

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
