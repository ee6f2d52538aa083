//! The observatory: streaming audit analytics and anomaly surveillance.
//!
//! Schroeder's kernel design keeps a *review* function alongside the
//! reference monitor — "a list of all known Multics security flaws is
//! maintained" — which presumes someone is actually watching the audit
//! stream. This module is that watcher, built to the same discipline as
//! the rest of the flight recorder: **bounded state, no wall clock,
//! aggregate instead of remember**.
//!
//! Three streaming structures are maintained:
//!
//! * **Sliding cycle windows** per principal: denial and overload
//!   timestamps within the last `window` cycles, in bounded deques, so
//!   "how many denials did `Smith.Guest.a` take in the last 10k cycles"
//!   is an O(1) read.
//! * **Heavy-hitter sketches** ([`TopK`]): the noisiest principals on
//!   the audit stream and the hottest gates on the trace stream, in
//!   fixed space regardless of key cardinality.
//! * **A bounded alert registry**: typed surveillance alerts —
//!   [`AlertKind::DenialBurst`] when a principal's in-window denials
//!   reach the configured threshold (deduplicated to one alert per
//!   window per principal), and [`AlertKind::LabelRaise`] on every
//!   upward label move, because in a healthy hierarchy the salvager
//!   should never find one.
//!
//! The observatory is fed from two choke points — the kernel's audit
//! append and the flight recorder's own record append — and is exported
//! *read-only* through the existing `hcs_$metering_get` gate as one
//! more snapshot section. There is no mutation path from user ring.

use std::collections::{BTreeMap, VecDeque};

use crate::clock::Cycles;
use crate::record::{EventKind, TraceRecord};
use crate::sketch::TopK;

/// Classified audit event, as the observatory sees it. The kernel maps
/// its own richer `AuditEvent` onto this at the audit choke point, so
/// `mks-trace` stays below the kernel in the crate DAG.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuditKind {
    /// An access denial (simple-security, *-property, ACL, ring).
    Denial,
    /// An overload refusal or load shed.
    Overload,
    /// A protection fault or refused gate transfer.
    Fault,
    /// Anything else on the audit stream.
    Other,
}

impl AuditKind {
    /// Stable snake-case name, used in JSON snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditKind::Denial => "denial",
            AuditKind::Overload => "overload",
            AuditKind::Fault => "fault",
            AuditKind::Other => "other",
        }
    }
}

/// One classified audit observation handed to the observatory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuditSample {
    /// Simulated time of the audit record.
    pub at: Cycles,
    /// Acting principal, when the audit record carried one.
    pub principal: Option<String>,
    /// Classification.
    pub kind: AuditKind,
}

/// Typed surveillance alert kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AlertKind {
    /// A principal's denials within one sliding window reached the
    /// configured threshold — the signature of probing or a confused
    /// deputy, not of occasional fat-fingered access.
    DenialBurst,
    /// A mandatory label moved upward. The salvager only raises labels
    /// while repairing damage, so any occurrence is worth a human read.
    LabelRaise,
}

impl AlertKind {
    /// Stable snake-case name, used in JSON snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertKind::DenialBurst => "denial_burst",
            AlertKind::LabelRaise => "label_raise",
        }
    }

    /// Parses a name produced by [`AlertKind::as_str`].
    pub fn from_str_opt(s: &str) -> Option<AlertKind> {
        match s {
            "denial_burst" => Some(AlertKind::DenialBurst),
            "label_raise" => Some(AlertKind::LabelRaise),
            _ => None,
        }
    }
}

/// One surveillance alert in the bounded registry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Alert {
    /// What tripped.
    pub kind: AlertKind,
    /// Simulated time the alert fired.
    pub at: Cycles,
    /// The implicated principal, when one is known.
    pub principal: Option<String>,
    /// Supporting evidence (in-window count, segment name, …).
    pub detail: String,
}

/// Observatory tuning. Every bound is a hard cap — the observatory's
/// memory is a function of this config, never of the workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ObservatoryConfig {
    /// Sliding-window width in cycles.
    pub window: Cycles,
    /// In-window denials at which a [`AlertKind::DenialBurst`] fires.
    pub burst_threshold: u64,
    /// Tracked keys in each heavy-hitter sketch.
    pub topk: usize,
    /// Alert-registry capacity; later alerts are counted, not kept.
    pub alert_cap: usize,
    /// Distinct principals with live windows; beyond this, samples are
    /// tallied in `untracked` rather than windowed.
    pub principal_cap: usize,
}

impl Default for ObservatoryConfig {
    fn default() -> ObservatoryConfig {
        ObservatoryConfig {
            window: 10_000,
            burst_threshold: 8,
            topk: 16,
            alert_cap: 64,
            principal_cap: 1024,
        }
    }
}

/// Per-principal sliding-window state.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct PrincipalWindow {
    /// Denial timestamps inside the current window (bounded by pruning
    /// plus the burst threshold — see `note_denial`).
    denials: VecDeque<Cycles>,
    /// Overload timestamps inside the current window.
    overloads: VecDeque<Cycles>,
    /// Lifetime tallies (cheap, exact).
    total_denials: u64,
    total_overloads: u64,
    /// Last denial-burst alert, for per-window deduplication.
    last_burst_at: Option<Cycles>,
}

/// Per-principal rates as exported in snapshots.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PrincipalRate {
    /// The principal.
    pub principal: String,
    /// Denials inside the window as of the last sample.
    pub window_denials: u64,
    /// Overloads inside the window as of the last sample.
    pub window_overloads: u64,
    /// Lifetime denials.
    pub total_denials: u64,
    /// Lifetime overloads.
    pub total_overloads: u64,
}

/// Lifetime stream tallies.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ObservatoryTotals {
    /// Audit samples ingested.
    pub samples: u64,
    /// Of which denials.
    pub denials: u64,
    /// Of which overloads.
    pub overloads: u64,
    /// Of which faults.
    pub faults: u64,
    /// Label raises seen on the trace stream.
    pub label_raises: u64,
}

/// The streaming observatory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Observatory {
    cfg: ObservatoryConfig,
    principals: BTreeMap<String, PrincipalWindow>,
    /// Samples attributed to principals beyond `principal_cap`.
    untracked: u64,
    /// Noisiest principals on the audit stream.
    noisy_principals: TopK,
    /// Hottest gate targets on the trace stream.
    hot_gates: TopK,
    alerts: Vec<Alert>,
    /// Alerts that arrived after the registry filled.
    alerts_dropped: u64,
    totals: ObservatoryTotals,
}

impl Default for Observatory {
    fn default() -> Observatory {
        Observatory::new(ObservatoryConfig::default())
    }
}

impl Observatory {
    /// An empty observatory with the given bounds.
    pub fn new(cfg: ObservatoryConfig) -> Observatory {
        Observatory {
            cfg,
            principals: BTreeMap::new(),
            untracked: 0,
            noisy_principals: TopK::new(cfg.topk),
            hot_gates: TopK::new(cfg.topk),
            alerts: Vec::new(),
            alerts_dropped: 0,
            totals: ObservatoryTotals::default(),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> ObservatoryConfig {
        self.cfg
    }

    /// Reconfigures the bounds (existing state is kept; new caps apply
    /// from the next sample on).
    pub fn set_config(&mut self, cfg: ObservatoryConfig) {
        self.cfg = cfg;
    }

    fn push_alert(&mut self, alert: Alert) {
        if self.alerts.len() < self.cfg.alert_cap {
            self.alerts.push(alert);
        } else {
            self.alerts_dropped += 1;
        }
    }

    /// Ingests one classified audit sample.
    pub fn ingest_audit(&mut self, sample: &AuditSample) {
        self.totals.samples += 1;
        match sample.kind {
            AuditKind::Denial => self.totals.denials += 1,
            AuditKind::Overload => self.totals.overloads += 1,
            AuditKind::Fault => self.totals.faults += 1,
            AuditKind::Other => {}
        }
        let Some(principal) = sample.principal.as_deref() else {
            return;
        };
        self.noisy_principals.record(principal, 1);
        if !matches!(sample.kind, AuditKind::Denial | AuditKind::Overload) {
            return;
        }
        if !self.principals.contains_key(principal)
            && self.principals.len() >= self.cfg.principal_cap
        {
            self.untracked += 1;
            return;
        }
        let window = self.cfg.window;
        let threshold = self.cfg.burst_threshold;
        let cutoff = sample.at.saturating_sub(window);
        let w = self.principals.entry(principal.to_string()).or_default();
        while w.denials.front().is_some_and(|&t| t < cutoff) {
            w.denials.pop_front();
        }
        while w.overloads.front().is_some_and(|&t| t < cutoff) {
            w.overloads.pop_front();
        }
        let burst = match sample.kind {
            AuditKind::Denial => {
                w.total_denials += 1;
                // The deque only needs to witness the threshold: once a
                // burst is provable, older in-window entries carry no
                // further information, so the deque is bounded by the
                // threshold, not by the storm's intensity.
                if w.denials.len() < threshold as usize {
                    w.denials.push_back(sample.at);
                }
                w.denials.len() as u64 >= threshold && w.last_burst_at.is_none_or(|t| t <= cutoff)
            }
            AuditKind::Overload => {
                w.total_overloads += 1;
                if w.overloads.len() < threshold as usize {
                    w.overloads.push_back(sample.at);
                }
                false
            }
            _ => unreachable!(),
        };
        if burst {
            let count = w.denials.len() as u64;
            w.last_burst_at = Some(sample.at);
            self.push_alert(Alert {
                kind: AlertKind::DenialBurst,
                at: sample.at,
                principal: Some(principal.to_string()),
                detail: format!("{count} denials within {window} cycles"),
            });
        }
    }

    /// Taps the trace stream: gate heat and label-raise surveillance.
    /// Called by the flight recorder on append, *before* sampling, so
    /// analytics see every event regardless of ring policy.
    pub fn ingest_record(&mut self, record: &TraceRecord) {
        match record.kind {
            EventKind::GateTransfer => {
                self.hot_gates.record(&record.detail, 1);
            }
            EventKind::LabelRaise => {
                self.totals.label_raises += 1;
                self.push_alert(Alert {
                    kind: AlertKind::LabelRaise,
                    at: record.at,
                    principal: record.principal.as_deref().map(str::to_owned),
                    detail: record.detail.to_string(),
                });
            }
            _ => {}
        }
    }

    /// Denials currently inside `principal`'s window, as of the last
    /// sample ingested for it (saturated at the burst threshold).
    pub fn window_denials(&self, principal: &str) -> u64 {
        self.principals
            .get(principal)
            .map(|w| w.denials.len() as u64)
            .unwrap_or(0)
    }

    /// Per-principal rates, principal-ordered (bounded by the cap).
    pub fn rates(&self) -> Vec<PrincipalRate> {
        self.principals
            .iter()
            .map(|(p, w)| PrincipalRate {
                principal: p.clone(),
                window_denials: w.denials.len() as u64,
                window_overloads: w.overloads.len() as u64,
                total_denials: w.total_denials,
                total_overloads: w.total_overloads,
            })
            .collect()
    }

    /// The alert registry, oldest first.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Alerts lost to the registry cap.
    pub fn alerts_dropped(&self) -> u64 {
        self.alerts_dropped
    }

    /// Samples not windowed because the principal cap was reached.
    pub fn untracked(&self) -> u64 {
        self.untracked
    }

    /// Noisiest principals on the audit stream.
    pub fn noisy_principals(&self) -> &TopK {
        &self.noisy_principals
    }

    /// Hottest gate targets on the trace stream.
    pub fn hot_gates(&self) -> &TopK {
        &self.hot_gates
    }

    /// Lifetime tallies.
    pub fn totals(&self) -> ObservatoryTotals {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Layer;

    fn denial(at: Cycles, who: &str) -> AuditSample {
        AuditSample {
            at,
            principal: Some(who.to_string()),
            kind: AuditKind::Denial,
        }
    }

    #[test]
    fn a_burst_fires_one_alert_per_window() {
        let mut o = Observatory::new(ObservatoryConfig {
            window: 100,
            burst_threshold: 4,
            ..ObservatoryConfig::default()
        });
        // Four denials in 40 cycles: exactly one alert at the fourth.
        for at in [10, 20, 30, 40] {
            o.ingest_audit(&denial(at, "Smith.Guest.a"));
        }
        assert_eq!(o.alerts().len(), 1);
        let a = &o.alerts()[0];
        assert_eq!(a.kind, AlertKind::DenialBurst);
        assert_eq!(a.at, 40);
        assert_eq!(a.principal.as_deref(), Some("Smith.Guest.a"));
        // More denials in the same window: deduplicated.
        o.ingest_audit(&denial(50, "Smith.Guest.a"));
        o.ingest_audit(&denial(60, "Smith.Guest.a"));
        assert_eq!(o.alerts().len(), 1, "one alert per window per principal");
        // A fresh burst after the window passes fires again.
        for at in [500, 510, 520, 530] {
            o.ingest_audit(&denial(at, "Smith.Guest.a"));
        }
        assert_eq!(o.alerts().len(), 2);
    }

    #[test]
    fn sparse_denials_never_alert() {
        let mut o = Observatory::new(ObservatoryConfig {
            window: 100,
            burst_threshold: 4,
            ..ObservatoryConfig::default()
        });
        // Well-spread denials: the window never holds the threshold.
        for i in 0..50u64 {
            o.ingest_audit(&denial(i * 200, "Jones.Dev.a"));
        }
        assert!(o.alerts().is_empty(), "{:?}", o.alerts());
        assert_eq!(o.totals().denials, 50);
    }

    #[test]
    fn label_raise_records_always_alert() {
        let mut o = Observatory::default();
        o.ingest_record(&TraceRecord {
            seq: 0,
            at: 77,
            layer: Layer::Fs,
            kind: EventKind::LabelRaise,
            principal: None,
            span: None,
            detail: "branch damaged: label raised".into(),
        });
        assert_eq!(o.alerts().len(), 1);
        assert_eq!(o.alerts()[0].kind, AlertKind::LabelRaise);
        assert_eq!(o.totals().label_raises, 1);
    }

    #[test]
    fn state_stays_bounded_under_many_principals_and_alerts() {
        let cfg = ObservatoryConfig {
            window: 1_000_000,
            burst_threshold: 2,
            alert_cap: 8,
            principal_cap: 16,
            ..ObservatoryConfig::default()
        };
        let mut o = Observatory::new(cfg);
        for i in 0..1000u64 {
            let who = format!("P{i}.Load.a");
            o.ingest_audit(&denial(i, &who));
            o.ingest_audit(&denial(i, &who));
        }
        assert!(o.rates().len() <= cfg.principal_cap);
        assert!(o.untracked() > 0, "overflow is counted, not lost silently");
        assert_eq!(o.alerts().len(), cfg.alert_cap);
        assert!(o.alerts_dropped() > 0);
    }

    #[test]
    fn gate_heat_reaches_the_sketch() {
        let mut o = Observatory::default();
        for _ in 0..5 {
            o.ingest_record(&TraceRecord {
                seq: 0,
                at: 1,
                layer: Layer::Hw,
                kind: EventKind::GateTransfer,
                principal: None,
                span: None,
                detail: "hcs_$initiate".into(),
            });
        }
        assert_eq!(o.hot_gates().estimate("hcs_$initiate"), 5);
    }
}
