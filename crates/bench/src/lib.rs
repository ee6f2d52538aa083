//! # mks-bench — the experiment harness
//!
//! One binary per claim in the paper (experiments E1–E18 and the A1–A4
//! ablations, see `DESIGN.md` §4 and `EXPERIMENTS.md`), plus shared
//! workload drivers and report formatting. Run any experiment with
//!
//! ```text
//! cargo run -p mks-bench --bin exp_e1_linker_gates
//! ```
//!
//! run the whole suite (and regenerate `results/`) with
//!
//! ```text
//! cargo run -p mks-bench --bin exp_all
//! ```
//!
//! and the host-time perf gate with
//! `cargo run --release -p mks-bench --bin bench_e18`.
//!
//! The measurement logic lives in [`experiments`] — each binary is a thin
//! printing wrapper — and every paper claim is encoded as a machine-checked
//! shape in [`claims`], asserted by `tests/claims.rs` and the `exp_all`
//! runner (which CI gates on).

pub mod claims;
pub mod drivers;
pub mod experiments;
pub mod perf;
pub mod report;
pub mod scale;

pub use report::Table;

/// Width of a seeded sweep: the `MKS_SWEEP_SEEDS` environment variable,
/// else `default`. This is the repository's only environment knob; every
/// seed-swept experiment and integration suite reads it here, so a value
/// means the same thing everywhere: surrounding whitespace is ignored,
/// anything unparsable falls back to `default`, and the result is at
/// least 1.
pub fn sweep_seeds(default: u64) -> u64 {
    parse_sweep_seeds(std::env::var("MKS_SWEEP_SEEDS").ok().as_deref(), default)
}

fn parse_sweep_seeds(raw: Option<&str>, default: u64) -> u64 {
    raw.and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::parse_sweep_seeds;

    #[test]
    fn sweep_seeds_parse_trims_falls_back_and_floors_at_one() {
        assert_eq!(parse_sweep_seeds(None, 8), 8);
        assert_eq!(parse_sweep_seeds(Some("400"), 8), 400);
        assert_eq!(parse_sweep_seeds(Some(" 400\n"), 8), 400);
        assert_eq!(parse_sweep_seeds(Some("lots"), 8), 8);
        assert_eq!(parse_sweep_seeds(Some("0"), 8), 1);
    }
}
