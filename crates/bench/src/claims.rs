//! The claims harness: every paper claim as a machine-checked shape.
//!
//! Schroeder's paper makes quantitative *claims* (gate-census cuts, KST
//! shrink factors, ring-crossing parity on the 6180), and `EXPERIMENTS.md`
//! states the expected *shape* of each. This module encodes those shapes
//! in code so a regression in any claim — who wins, by what factor — fails
//! `cargo test` and CI instead of waiting for a human to re-read prose.
//!
//! Vocabulary (see `docs/CLAIMS.md`):
//! * [`ClaimShape`] — the machine-checkable form of one expectation:
//!   `FactorAtLeast`, `ParityWithin`, `FractionNear`, `ExactCount`,
//!   `AtLeast`, `AtMost`.
//! * [`ClaimResult`] — one claim's identity, paper quote, expected shape,
//!   measured value, and computed [`Verdict`].
//! * [`Verdict::ReproducedWithGap`] — the *documented honest gaps* (e.g.
//!   E2's severalfold-not-10× shrink): the claim passes at its documented
//!   magnitude, but a further slide past the accept band fails.

use std::fmt;

use mks_trace::json::emit_string;

use crate::report::Table;

/// The machine-checked outcome of one claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The measurement lands inside the paper's stated band.
    Reproduced,
    /// The measurement reproduces the claim's *shape* but falls short of
    /// the paper's magnitude by a documented, explained amount. Passing
    /// requires the gap to be documented ([`ClaimResult::gap_note`]).
    ReproducedWithGap,
    /// The measurement no longer has the claimed shape.
    Failed,
}

impl Verdict {
    /// Stable lowercase tag used in JSON and tables.
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Reproduced => "reproduced",
            Verdict::ReproducedWithGap => "reproduced-with-gap",
            Verdict::Failed => "FAILED",
        }
    }

    /// True for both passing verdicts.
    pub fn passed(self) -> bool {
        self != Verdict::Failed
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// The expected shape of one claim, encoding `EXPERIMENTS.md` in code.
///
/// Each variant is a predicate over a single `measured` number. Where the
/// paper's magnitude is not met but the shortfall is a documented honest
/// gap, the variant carries a second (wider) *accept* band: inside the
/// paper band ⇒ [`Verdict::Reproduced`], inside only the accept band ⇒
/// [`Verdict::ReproducedWithGap`], outside both ⇒ [`Verdict::Failed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClaimShape {
    /// `measured` (a ratio) must reach `paper`; reaching only `accept`
    /// (≤ `paper`) is the documented-gap band.
    FactorAtLeast {
        /// The paper's factor.
        paper: f64,
        /// The documented floor; equal to `paper` when no gap is allowed.
        accept: f64,
    },
    /// `measured` (a ratio) must be within `tolerance` of 1.0 — the
    /// 6180's "no more than calls inside a ring".
    ParityWithin {
        /// Allowed deviation of the ratio from exactly 1.0.
        tolerance: f64,
    },
    /// `measured` (a fraction) must land within `tol` of `paper`;
    /// `accept_tol` (≥ `tol`) is the documented-gap band.
    FractionNear {
        /// The paper's fraction.
        paper: f64,
        /// Reproduced band half-width.
        tol: f64,
        /// Documented-gap band half-width; equal to `tol` when no gap.
        accept_tol: f64,
    },
    /// `measured` must equal `expect` exactly — gate censuses, zero
    /// breaches, zero downward flows.
    ExactCount {
        /// The required count.
        expect: i64,
    },
    /// `measured` must be at least `min` — directions ("the baseline does
    /// exhibit the problem", "the function moved, it did not vanish").
    AtLeast {
        /// The required minimum.
        min: f64,
    },
    /// `measured` must be at most `max` — bounded absolute costs.
    AtMost {
        /// The required maximum.
        max: f64,
    },
}

impl ClaimShape {
    /// Evaluates the shape against a measurement.
    pub fn check(&self, measured: f64) -> Verdict {
        match *self {
            ClaimShape::FactorAtLeast { paper, accept } => {
                if measured >= paper {
                    Verdict::Reproduced
                } else if measured >= accept {
                    Verdict::ReproducedWithGap
                } else {
                    Verdict::Failed
                }
            }
            ClaimShape::ParityWithin { tolerance } => {
                if (measured - 1.0).abs() <= tolerance {
                    Verdict::Reproduced
                } else {
                    Verdict::Failed
                }
            }
            ClaimShape::FractionNear {
                paper,
                tol,
                accept_tol,
            } => {
                let d = (measured - paper).abs();
                if d <= tol {
                    Verdict::Reproduced
                } else if d <= accept_tol {
                    Verdict::ReproducedWithGap
                } else {
                    Verdict::Failed
                }
            }
            ClaimShape::ExactCount { expect } => {
                if measured == expect as f64 {
                    Verdict::Reproduced
                } else {
                    Verdict::Failed
                }
            }
            ClaimShape::AtLeast { min } => {
                if measured >= min {
                    Verdict::Reproduced
                } else {
                    Verdict::Failed
                }
            }
            ClaimShape::AtMost { max } => {
                if measured <= max {
                    Verdict::Reproduced
                } else {
                    Verdict::Failed
                }
            }
        }
    }

    /// Short human rendering, e.g. `>= 10x (accept >= 2.5x)`.
    pub fn describe(&self) -> String {
        match *self {
            ClaimShape::FactorAtLeast { paper, accept } if accept < paper => {
                format!(">= {paper}x (accept >= {accept}x)")
            }
            ClaimShape::FactorAtLeast { paper, .. } => format!(">= {paper}x"),
            ClaimShape::ParityWithin { tolerance } => format!("ratio 1.0 +/- {tolerance}"),
            ClaimShape::FractionNear {
                paper,
                tol,
                accept_tol,
            } if accept_tol > tol => {
                format!("{paper} +/- {tol} (accept +/- {accept_tol})")
            }
            ClaimShape::FractionNear { paper, tol, .. } => format!("{paper} +/- {tol}"),
            ClaimShape::ExactCount { expect } => format!("== {expect}"),
            ClaimShape::AtLeast { min } => format!(">= {min}"),
            ClaimShape::AtMost { max } => format!("<= {max}"),
        }
    }

    /// Stable kind tag used in JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            ClaimShape::FactorAtLeast { .. } => "factor-at-least",
            ClaimShape::ParityWithin { .. } => "parity-within",
            ClaimShape::FractionNear { .. } => "fraction-near",
            ClaimShape::ExactCount { .. } => "exact-count",
            ClaimShape::AtLeast { .. } => "at-least",
            ClaimShape::AtMost { .. } => "at-most",
        }
    }

    fn json_params(&self) -> String {
        match *self {
            ClaimShape::FactorAtLeast { paper, accept } => {
                format!(
                    "\"paper\":{},\"accept\":{}",
                    json_num(paper),
                    json_num(accept)
                )
            }
            ClaimShape::ParityWithin { tolerance } => {
                format!("\"tolerance\":{}", json_num(tolerance))
            }
            ClaimShape::FractionNear {
                paper,
                tol,
                accept_tol,
            } => format!(
                "\"paper\":{},\"tol\":{},\"accept_tol\":{}",
                json_num(paper),
                json_num(tol),
                json_num(accept_tol)
            ),
            ClaimShape::ExactCount { expect } => format!("\"expect\":{expect}"),
            ClaimShape::AtLeast { min } => format!("\"min\":{}", json_num(min)),
            ClaimShape::AtMost { max } => format!("\"max\":{}", json_num(max)),
        }
    }
}

/// One claim, checked: identity, provenance, shape, measurement, verdict.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    /// Stable id, `<experiment>.<slug>` — e.g. `E2.protected-shrink`.
    pub id: String,
    /// The owning experiment: `E1`..`E14`, `A1`, `A3`, `A4`.
    pub experiment: &'static str,
    /// The paper sentence (or fragment) the claim reproduces.
    pub paper_quote: &'static str,
    /// The machine-checked expectation.
    pub expected_shape: ClaimShape,
    /// The measured value the shape was checked against.
    pub measured: f64,
    /// What `measured` is, in words (units, configuration).
    pub measured_desc: String,
    /// For [`Verdict::ReproducedWithGap`]: why the magnitude falls short.
    pub gap_note: Option<&'static str>,
    /// The computed verdict.
    pub verdict: Verdict,
}

impl ClaimResult {
    /// Checks `measured` against `shape` and records the verdict.
    pub fn new(
        id: &str,
        experiment: &'static str,
        paper_quote: &'static str,
        shape: ClaimShape,
        measured: f64,
        measured_desc: impl Into<String>,
    ) -> ClaimResult {
        ClaimResult {
            id: id.to_string(),
            experiment,
            paper_quote,
            expected_shape: shape,
            measured,
            measured_desc: measured_desc.into(),
            gap_note: None,
            verdict: shape.check(measured),
        }
    }

    /// Attaches the documented-gap explanation (required for any claim
    /// whose shape has an accept band wider than its paper band).
    pub fn with_gap(mut self, note: &'static str) -> ClaimResult {
        self.gap_note = Some(note);
        self
    }

    fn to_json(&self) -> String {
        let quoted = |s: &str| {
            let mut out = String::new();
            emit_string(s, &mut out);
            out
        };
        format!(
            "{{\"id\":{},\"experiment\":\"{}\",\"paper_quote\":{},\
             \"shape\":{{\"kind\":\"{}\",{}}},\"measured\":{},\
             \"measured_desc\":{},\"verdict\":\"{}\",\"gap_note\":{}}}",
            quoted(&self.id),
            self.experiment,
            quoted(self.paper_quote),
            self.expected_shape.kind(),
            self.expected_shape.json_params(),
            json_num(self.measured),
            quoted(&self.measured_desc),
            self.verdict.tag(),
            self.gap_note.map_or_else(|| "null".to_string(), quoted)
        )
    }
}

/// Formats an `f64` as a JSON number (finite; integers without a point).
fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "claim measurements must be finite");
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Verdict totals over a claim set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Claims inside the paper band.
    pub reproduced: usize,
    /// Claims passing only through a documented gap band.
    pub with_gap: usize,
    /// Claims whose shape no longer holds.
    pub failed: usize,
}

impl Tally {
    /// Counts verdicts over `claims`.
    pub fn of(claims: &[ClaimResult]) -> Tally {
        let mut t = Tally::default();
        for c in claims {
            match c.verdict {
                Verdict::Reproduced => t.reproduced += 1,
                Verdict::ReproducedWithGap => t.with_gap += 1,
                Verdict::Failed => t.failed += 1,
            }
        }
        t
    }

    /// Total claims tallied.
    pub fn total(&self) -> usize {
        self.reproduced + self.with_gap + self.failed
    }
}

/// Renders the whole claim set as `results/claims.json`:
/// a stable, dependency-free JSON document.
pub fn claims_json(claims: &[ClaimResult], experiments: usize) -> String {
    let t = Tally::of(claims);
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"mks-claims/1\",\n");
    out.push_str(&format!("  \"experiments\": {experiments},\n"));
    out.push_str(&format!(
        "  \"summary\": {{\"claims\": {}, \"reproduced\": {}, \"reproduced_with_gap\": {}, \"failed\": {}}},\n",
        t.total(),
        t.reproduced,
        t.with_gap,
        t.failed
    ));
    out.push_str("  \"claims\": [\n");
    for (i, c) in claims.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&c.to_json());
        if i + 1 < claims.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the claim-by-claim summary table printed by `exp_all`.
pub fn summary_table(claims: &[ClaimResult]) -> Table {
    let mut t = Table::new(&["claim", "expected shape", "measured", "verdict"]);
    for c in claims {
        t.row(&[
            c.id.clone(),
            c.expected_shape.describe(),
            format!("{:.4}", c.measured),
            c.verdict.tag().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_bands_give_three_verdicts() {
        let s = ClaimShape::FactorAtLeast {
            paper: 10.0,
            accept: 2.5,
        };
        assert_eq!(s.check(11.0), Verdict::Reproduced);
        assert_eq!(s.check(3.0), Verdict::ReproducedWithGap);
        assert_eq!(s.check(2.0), Verdict::Failed);
    }

    #[test]
    fn parity_is_two_sided() {
        let s = ClaimShape::ParityWithin { tolerance: 0.15 };
        assert_eq!(s.check(1.07), Verdict::Reproduced);
        assert_eq!(s.check(0.9), Verdict::Reproduced);
        assert_eq!(s.check(1.4), Verdict::Failed);
    }

    #[test]
    fn exact_count_is_exact() {
        let s = ClaimShape::ExactCount { expect: 54 };
        assert_eq!(s.check(54.0), Verdict::Reproduced);
        assert_eq!(s.check(53.0), Verdict::Failed);
        assert_eq!(s.check(55.0), Verdict::Failed);
    }

    #[test]
    fn fraction_near_gap_band() {
        let s = ClaimShape::FractionNear {
            paper: 0.33,
            tol: 0.03,
            accept_tol: 0.06,
        };
        assert_eq!(s.check(0.31), Verdict::Reproduced);
        assert_eq!(s.check(0.287), Verdict::ReproducedWithGap);
        assert_eq!(s.check(0.2), Verdict::Failed);
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let c = ClaimResult::new(
            "E1.removed-fraction",
            "E1",
            "the linker's removal eliminated 10% of the \"gate\" entry points",
            ClaimShape::FractionNear {
                paper: 0.10,
                tol: 0.015,
                accept_tol: 0.015,
            },
            0.099,
            "10 of 101 entries",
        );
        let json = claims_json(&[c], 1);
        assert!(json.contains("\"schema\": \"mks-claims/1\""));
        assert!(json.contains("\\\"gate\\\""), "quotes escaped: {json}");
        assert!(json.contains("\"verdict\":\"reproduced\""));
        assert!(json.contains("\"failed\": 0"));
        // Balanced braces/brackets (cheap well-formedness probe).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "braces balance"
        );
    }

    #[test]
    fn tally_counts_all_verdicts() {
        let mk = |v: f64, shape: ClaimShape| ClaimResult::new("x.y", "E1", "q", shape, v, "d");
        let claims = vec![
            mk(1.0, ClaimShape::ExactCount { expect: 1 }),
            mk(
                3.0,
                ClaimShape::FactorAtLeast {
                    paper: 10.0,
                    accept: 2.5,
                },
            ),
            mk(0.0, ClaimShape::AtLeast { min: 1.0 }),
        ];
        let t = Tally::of(&claims);
        assert_eq!(
            (t.reproduced, t.with_gap, t.failed, t.total()),
            (1, 1, 1, 3)
        );
    }
}
