//! Read-only snapshots of the flight recorder, and their JSON form.
//!
//! A snapshot is what crosses the protection boundary: the metering
//! gate hands user rings a [`Snapshot`] (or its JSON rendering), never
//! a live handle, so non-kernel code can *read* metrics but can never
//! reset or rewrite them. The JSON form is integers-and-strings only,
//! so it round-trips losslessly through [`Snapshot::to_json`] and
//! [`Snapshot::from_json`].

use crate::analytics::{Alert, AlertKind, Observatory, ObservatoryTotals, PrincipalRate};
use crate::clock::Cycles;
use crate::json::{self, Value};
use crate::metrics::Histogram;
use crate::quantile::{Exemplar, QuantileSketch};
use crate::record::Layer;
use crate::sampler::Sampler;
use crate::sketch::{HeavyHitter, TopK};
use crate::span::LayerTotals;

/// Summary of one histogram in a snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    /// Histogram name (e.g. `vm.fault_latency`).
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub total: u128,
    /// Largest observation.
    pub max: Cycles,
    /// Non-empty log2 buckets as `(bucket, count)`.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Captures a histogram under its registry name.
    pub(crate) fn capture(name: &str, h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: h.count(),
            total: h.total(),
            max: h.max(),
            buckets: h.nonzero_buckets(),
        }
    }

    /// Mean observation (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }
}

/// Per-layer span accounting in a snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LayerSnapshot {
    /// The layer.
    pub layer: Layer,
    /// Completed spans owned by the layer.
    pub spans: u64,
    /// Total inclusive cycles of those spans.
    pub inclusive: Cycles,
    /// Total exclusive cycles (sums across layers to root-inclusive).
    pub exclusive: Cycles,
}

/// Summary of one quantile sketch in a snapshot, with its estimated
/// tail points precomputed so readers need no sketch arithmetic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QuantileSnapshot {
    /// Sketch name (`q.<layer>.<op>.<class>` by convention).
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub total: u128,
    /// Smallest observation.
    pub min: Cycles,
    /// Largest observation.
    pub max: Cycles,
    /// Estimated median (rank error < 1/16 below, never above).
    pub p50: Cycles,
    /// Estimated 95th percentile.
    pub p95: Cycles,
    /// Estimated 99th percentile.
    pub p99: Cycles,
    /// Estimated 99.9th percentile.
    pub p999: Cycles,
    /// Non-empty log-linear buckets as `(bucket, count)`.
    pub buckets: Vec<(usize, u64)>,
    /// Hot-region exemplars (bounded) linking the tail to principals.
    pub exemplars: Vec<Exemplar>,
}

impl QuantileSnapshot {
    /// Captures a sketch under its registry name.
    pub(crate) fn capture(name: &str, q: &QuantileSketch) -> QuantileSnapshot {
        QuantileSnapshot {
            name: name.to_string(),
            count: q.count(),
            total: q.total(),
            min: q.min(),
            max: q.max(),
            p50: q.quantile(500),
            p95: q.quantile(950),
            p99: q.quantile(990),
            p999: q.quantile(999),
            buckets: q.buckets().to_vec(),
            exemplars: q.exemplars().to_vec(),
        }
    }
}

/// Sampler policy and accounting in a snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SamplerSnapshot {
    /// Keep one in this many routine records (1 = keep everything).
    pub keep_one_in: u64,
    /// The sampling seed.
    pub seed: u64,
    /// Routine records kept.
    pub kept: u64,
    /// Routine records dropped at the door.
    pub dropped: u64,
    /// Security-critical records kept unconditionally.
    pub forced: u64,
}

impl SamplerSnapshot {
    /// Captures the sampler's policy and accounting.
    pub(crate) fn capture(s: &Sampler) -> SamplerSnapshot {
        SamplerSnapshot {
            keep_one_in: s.policy().keep_one_in,
            seed: s.policy().seed,
            kept: s.kept(),
            dropped: s.dropped(),
            forced: s.forced(),
        }
    }
}

/// One heavy-hitter sketch in a snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TopKSnapshot {
    /// Stream length observed.
    pub seen: u64,
    /// Tracked-key capacity (the `k` in the `N/k` error bound).
    pub capacity: u64,
    /// Entries ranked by descending count.
    pub entries: Vec<HeavyHitter>,
}

impl TopKSnapshot {
    /// Captures a sketch, ranked.
    pub(crate) fn capture(t: &TopK) -> TopKSnapshot {
        TopKSnapshot {
            seen: t.seen(),
            capacity: t.capacity() as u64,
            entries: t.ranked(),
        }
    }
}

/// The observatory's analytics and surveillance state in a snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ObservatorySnapshot {
    /// Sliding-window width (cycles).
    pub window: Cycles,
    /// In-window denial count that trips a burst alert.
    pub burst_threshold: u64,
    /// Lifetime stream tallies.
    pub totals: ObservatoryTotals,
    /// Samples not windowed because the principal cap was reached.
    pub untracked: u64,
    /// Per-principal denial/overload rates, principal-ordered.
    pub rates: Vec<PrincipalRate>,
    /// Noisiest principals on the audit stream.
    pub noisy_principals: TopKSnapshot,
    /// Hottest gate targets on the trace stream.
    pub hot_gates: TopKSnapshot,
    /// The alert registry, oldest first.
    pub alerts: Vec<Alert>,
    /// Alerts lost to the registry cap.
    pub alerts_dropped: u64,
}

impl ObservatorySnapshot {
    /// Captures the observatory read-only.
    pub(crate) fn capture(o: &Observatory) -> ObservatorySnapshot {
        ObservatorySnapshot {
            window: o.config().window,
            burst_threshold: o.config().burst_threshold,
            totals: o.totals(),
            untracked: o.untracked(),
            rates: o.rates(),
            noisy_principals: TopKSnapshot::capture(o.noisy_principals()),
            hot_gates: TopKSnapshot::capture(o.hot_gates()),
            alerts: o.alerts().to_vec(),
            alerts_dropped: o.alerts_dropped(),
        }
    }
}

/// Trace-ring occupancy in a snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RingSnapshot {
    /// Configured capacity.
    pub capacity: u64,
    /// Records currently held.
    pub len: u64,
    /// Records overwritten so far.
    pub dropped: u64,
    /// Next sequence number (= records ever appended).
    pub next_seq: u64,
}

/// Commit-log exposure riding the metering gate: the kernel attaches
/// it at capture time, so raw recorder snapshots carry `None` and the
/// digest never feeds back into itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplaySnapshot {
    /// Commits sealed into the log so far.
    pub commits: u64,
    /// Chain digest over the whole log (genesis-seeded).
    pub log_digest: u64,
}

/// Replication status riding the metering gate: the kernel attaches a
/// replica's view at capture time, so raw recorder snapshots carry
/// `None` and replica digests stay vantage-independent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplSnapshot {
    /// The replica's role: `"primary"`, `"backup"`, or `"down"`.
    pub role: String,
    /// The replica's current epoch (fencing term).
    pub epoch: u64,
    /// Commits in the replica's local log.
    pub commits: u64,
    /// Commits known majority-acknowledged cluster-wide.
    pub acked: u64,
    /// How many commits this replica trails the cluster's longest log.
    pub lag: u64,
    /// Heartbeat intervals this replica has seen pass in silence.
    pub heartbeat_misses: u64,
    /// Append frames re-sent under backoff (primary vantage).
    pub resends: u64,
    /// Stale-epoch frames this replica refused (fencing events).
    pub fenced: u64,
    /// Snapshot catch-up migrations this replica completed.
    pub catchups: u64,
}

/// A complete, immutable reading of the flight recorder.
#[derive(Clone, PartialEq, Debug)]
pub struct Snapshot {
    /// Simulated time of capture.
    pub at: Cycles,
    /// All counters, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// All histograms, name-ordered.
    pub histograms: Vec<HistogramSnapshot>,
    /// All quantile sketches, name-ordered.
    pub quantiles: Vec<QuantileSnapshot>,
    /// Per-layer span totals, [`Layer::ALL`]-ordered (layers with no
    /// spans omitted).
    pub layers: Vec<LayerSnapshot>,
    /// Ring occupancy.
    pub ring: RingSnapshot,
    /// Sampling policy and accounting.
    pub sampler: SamplerSnapshot,
    /// Audit analytics and surveillance alerts.
    pub observatory: ObservatorySnapshot,
    /// Commit-log head, when the kernel attached one at capture time.
    pub replay: Option<ReplaySnapshot>,
    /// Replication status, when a replicated kernel attached its
    /// replica's view at capture time.
    pub repl: Option<ReplSnapshot>,
}

impl Snapshot {
    /// Value of a counter in this snapshot (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The named histogram summary, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The named quantile-sketch summary, if present.
    pub fn quantile(&self, name: &str) -> Option<&QuantileSnapshot> {
        self.quantiles.iter().find(|q| q.name == name)
    }

    /// The named layer's totals, if it completed any span.
    pub fn layer(&self, layer: Layer) -> Option<&LayerSnapshot> {
        self.layers.iter().find(|l| l.layer == layer)
    }

    /// Builds the per-layer list from an accumulation map.
    pub(crate) fn layers_from_totals(
        totals: &std::collections::BTreeMap<Layer, LayerTotals>,
    ) -> Vec<LayerSnapshot> {
        Layer::ALL
            .iter()
            .filter_map(|l| {
                totals.get(l).map(|t| LayerSnapshot {
                    layer: *l,
                    spans: t.spans,
                    inclusive: t.inclusive,
                    exclusive: t.exclusive,
                })
            })
            .collect()
    }

    /// Renders the snapshot as compact JSON.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(name.clone())),
                    ("value".to_string(), Value::Num(u128::from(*value))),
                ])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(h.name.clone())),
                    ("count".to_string(), Value::Num(u128::from(h.count))),
                    ("total".to_string(), Value::Num(h.total)),
                    ("max".to_string(), Value::Num(u128::from(h.max))),
                    (
                        "buckets".to_string(),
                        Value::Arr(
                            h.buckets
                                .iter()
                                .map(|(b, c)| {
                                    Value::Arr(vec![
                                        Value::Num(*b as u128),
                                        Value::Num(u128::from(*c)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let layers = self
            .layers
            .iter()
            .map(|l| {
                Value::Obj(vec![
                    (
                        "layer".to_string(),
                        Value::Str(l.layer.as_str().to_string()),
                    ),
                    ("spans".to_string(), Value::Num(u128::from(l.spans))),
                    ("inclusive".to_string(), Value::Num(u128::from(l.inclusive))),
                    ("exclusive".to_string(), Value::Num(u128::from(l.exclusive))),
                ])
            })
            .collect();
        let quantiles = self
            .quantiles
            .iter()
            .map(|q| {
                let mut fields = vec![
                    ("name".to_string(), Value::Str(q.name.clone())),
                    ("count".to_string(), Value::Num(u128::from(q.count))),
                    ("total".to_string(), Value::Num(q.total)),
                    ("min".to_string(), Value::Num(u128::from(q.min))),
                    ("max".to_string(), Value::Num(u128::from(q.max))),
                    ("p50".to_string(), Value::Num(u128::from(q.p50))),
                    ("p95".to_string(), Value::Num(u128::from(q.p95))),
                    ("p99".to_string(), Value::Num(u128::from(q.p99))),
                    ("p999".to_string(), Value::Num(u128::from(q.p999))),
                    (
                        "buckets".to_string(),
                        Value::Arr(
                            q.buckets
                                .iter()
                                .map(|(b, c)| {
                                    Value::Arr(vec![
                                        Value::Num(*b as u128),
                                        Value::Num(u128::from(*c)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ];
                fields.push((
                    "exemplars".to_string(),
                    Value::Arr(q.exemplars.iter().map(exemplar_to_value).collect()),
                ));
                Value::Obj(fields)
            })
            .collect();
        let mut fields = vec![
            ("at".to_string(), Value::Num(u128::from(self.at))),
            ("counters".to_string(), Value::Arr(counters)),
            ("histograms".to_string(), Value::Arr(histograms)),
            ("quantiles".to_string(), Value::Arr(quantiles)),
            ("layers".to_string(), Value::Arr(layers)),
            (
                "ring".to_string(),
                Value::Obj(vec![
                    (
                        "capacity".to_string(),
                        Value::Num(u128::from(self.ring.capacity)),
                    ),
                    ("len".to_string(), Value::Num(u128::from(self.ring.len))),
                    (
                        "dropped".to_string(),
                        Value::Num(u128::from(self.ring.dropped)),
                    ),
                    (
                        "next_seq".to_string(),
                        Value::Num(u128::from(self.ring.next_seq)),
                    ),
                ]),
            ),
            (
                "sampler".to_string(),
                Value::Obj(vec![
                    (
                        "keep_one_in".to_string(),
                        Value::Num(u128::from(self.sampler.keep_one_in)),
                    ),
                    (
                        "seed".to_string(),
                        Value::Num(u128::from(self.sampler.seed)),
                    ),
                    (
                        "kept".to_string(),
                        Value::Num(u128::from(self.sampler.kept)),
                    ),
                    (
                        "dropped".to_string(),
                        Value::Num(u128::from(self.sampler.dropped)),
                    ),
                    (
                        "forced".to_string(),
                        Value::Num(u128::from(self.sampler.forced)),
                    ),
                ]),
            ),
            (
                "observatory".to_string(),
                observatory_to_value(&self.observatory),
            ),
        ];
        if let Some(r) = self.replay {
            fields.push((
                "replay".to_string(),
                Value::Obj(vec![
                    ("commits".to_string(), Value::Num(u128::from(r.commits))),
                    (
                        "log_digest".to_string(),
                        Value::Num(u128::from(r.log_digest)),
                    ),
                ]),
            ));
        }
        if let Some(r) = &self.repl {
            fields.push((
                "repl".to_string(),
                Value::Obj(vec![
                    ("role".to_string(), Value::Str(r.role.clone())),
                    ("epoch".to_string(), Value::Num(u128::from(r.epoch))),
                    ("commits".to_string(), Value::Num(u128::from(r.commits))),
                    ("acked".to_string(), Value::Num(u128::from(r.acked))),
                    ("lag".to_string(), Value::Num(u128::from(r.lag))),
                    (
                        "heartbeat_misses".to_string(),
                        Value::Num(u128::from(r.heartbeat_misses)),
                    ),
                    ("resends".to_string(), Value::Num(u128::from(r.resends))),
                    ("fenced".to_string(), Value::Num(u128::from(r.fenced))),
                    ("catchups".to_string(), Value::Num(u128::from(r.catchups))),
                ]),
            ));
        }
        Value::Obj(fields).emit()
    }

    /// Parses a snapshot back from its JSON rendering.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let at = field_u64(&v, "at")?;
        let counters = v
            .get("counters")
            .and_then(Value::as_arr)
            .ok_or("missing counters")?
            .iter()
            .map(|c| {
                Ok((
                    c.get("name")
                        .and_then(Value::as_str)
                        .ok_or("counter name")?
                        .to_string(),
                    field_u64(c, "value")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let histograms = v
            .get("histograms")
            .and_then(Value::as_arr)
            .ok_or("missing histograms")?
            .iter()
            .map(|h| {
                let buckets = h
                    .get("buckets")
                    .and_then(Value::as_arr)
                    .ok_or("histogram buckets")?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr().ok_or("bucket pair")?;
                        let b = pair.first().and_then(Value::as_u64).ok_or("bucket index")?;
                        let c = pair.get(1).and_then(Value::as_u64).ok_or("bucket count")?;
                        Ok((b as usize, c))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(HistogramSnapshot {
                    name: h
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or("histogram name")?
                        .to_string(),
                    count: field_u64(h, "count")?,
                    total: h
                        .get("total")
                        .and_then(Value::as_num)
                        .ok_or("histogram total")?,
                    max: field_u64(h, "max")?,
                    buckets,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let layers = v
            .get("layers")
            .and_then(Value::as_arr)
            .ok_or("missing layers")?
            .iter()
            .map(|l| {
                let name = l.get("layer").and_then(Value::as_str).ok_or("layer name")?;
                Ok(LayerSnapshot {
                    layer: Layer::from_str_opt(name).ok_or("unknown layer")?,
                    spans: field_u64(l, "spans")?,
                    inclusive: field_u64(l, "inclusive")?,
                    exclusive: field_u64(l, "exclusive")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let quantiles = v
            .get("quantiles")
            .and_then(Value::as_arr)
            .ok_or("missing quantiles")?
            .iter()
            .map(|q| {
                let buckets = q
                    .get("buckets")
                    .and_then(Value::as_arr)
                    .ok_or("quantile buckets")?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_arr().ok_or("bucket pair")?;
                        let b = pair.first().and_then(Value::as_u64).ok_or("bucket index")?;
                        let c = pair.get(1).and_then(Value::as_u64).ok_or("bucket count")?;
                        Ok((b as usize, c))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let exemplars = q
                    .get("exemplars")
                    .and_then(Value::as_arr)
                    .ok_or("quantile exemplars")?
                    .iter()
                    .map(exemplar_from_value)
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(QuantileSnapshot {
                    name: q
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or("quantile name")?
                        .to_string(),
                    count: field_u64(q, "count")?,
                    total: q
                        .get("total")
                        .and_then(Value::as_num)
                        .ok_or("quantile total")?,
                    min: field_u64(q, "min")?,
                    max: field_u64(q, "max")?,
                    p50: field_u64(q, "p50")?,
                    p95: field_u64(q, "p95")?,
                    p99: field_u64(q, "p99")?,
                    p999: field_u64(q, "p999")?,
                    buckets,
                    exemplars,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let ring = v.get("ring").ok_or("missing ring")?;
        let sampler = v.get("sampler").ok_or("missing sampler")?;
        let observatory =
            observatory_from_value(v.get("observatory").ok_or("missing observatory")?)?;
        let replay = match v.get("replay") {
            Some(r) => Some(ReplaySnapshot {
                commits: field_u64(r, "commits")?,
                log_digest: field_u64(r, "log_digest")?,
            }),
            None => None,
        };
        let repl = match v.get("repl") {
            Some(r) => Some(ReplSnapshot {
                role: r
                    .get("role")
                    .and_then(Value::as_str)
                    .ok_or("repl role")?
                    .to_string(),
                epoch: field_u64(r, "epoch")?,
                commits: field_u64(r, "commits")?,
                acked: field_u64(r, "acked")?,
                lag: field_u64(r, "lag")?,
                heartbeat_misses: field_u64(r, "heartbeat_misses")?,
                resends: field_u64(r, "resends")?,
                fenced: field_u64(r, "fenced")?,
                catchups: field_u64(r, "catchups")?,
            }),
            None => None,
        };
        Ok(Snapshot {
            at,
            counters,
            histograms,
            quantiles,
            layers,
            ring: RingSnapshot {
                capacity: field_u64(ring, "capacity")?,
                len: field_u64(ring, "len")?,
                dropped: field_u64(ring, "dropped")?,
                next_seq: field_u64(ring, "next_seq")?,
            },
            sampler: SamplerSnapshot {
                keep_one_in: field_u64(sampler, "keep_one_in")?,
                seed: field_u64(sampler, "seed")?,
                kept: field_u64(sampler, "kept")?,
                dropped: field_u64(sampler, "dropped")?,
                forced: field_u64(sampler, "forced")?,
            },
            observatory,
            replay,
            repl,
        })
    }
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer {key}"))
}

/// Optional string field: present → Some, absent → None.
fn field_opt_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

fn exemplar_to_value(e: &Exemplar) -> Value {
    let mut fields = vec![
        ("value".to_string(), Value::Num(u128::from(e.value))),
        ("at".to_string(), Value::Num(u128::from(e.at))),
    ];
    if let Some(p) = &e.principal {
        fields.push(("principal".to_string(), Value::Str(p.clone())));
    }
    fields.push(("detail".to_string(), Value::Str(e.detail.clone())));
    Value::Obj(fields)
}

fn exemplar_from_value(v: &Value) -> Result<Exemplar, String> {
    Ok(Exemplar {
        value: field_u64(v, "value")?,
        at: field_u64(v, "at")?,
        principal: field_opt_str(v, "principal"),
        detail: v
            .get("detail")
            .and_then(Value::as_str)
            .ok_or("exemplar detail")?
            .to_string(),
    })
}

fn topk_to_value(t: &TopKSnapshot) -> Value {
    Value::Obj(vec![
        ("seen".to_string(), Value::Num(u128::from(t.seen))),
        ("capacity".to_string(), Value::Num(u128::from(t.capacity))),
        (
            "entries".to_string(),
            Value::Arr(
                t.entries
                    .iter()
                    .map(|e| {
                        Value::Obj(vec![
                            ("key".to_string(), Value::Str(e.key.clone())),
                            ("count".to_string(), Value::Num(u128::from(e.count))),
                            ("error".to_string(), Value::Num(u128::from(e.error))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn topk_from_value(v: &Value) -> Result<TopKSnapshot, String> {
    let entries = v
        .get("entries")
        .and_then(Value::as_arr)
        .ok_or("topk entries")?
        .iter()
        .map(|e| {
            Ok(HeavyHitter {
                key: e
                    .get("key")
                    .and_then(Value::as_str)
                    .ok_or("topk key")?
                    .to_string(),
                count: field_u64(e, "count")?,
                error: field_u64(e, "error")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(TopKSnapshot {
        seen: field_u64(v, "seen")?,
        capacity: field_u64(v, "capacity")?,
        entries,
    })
}

fn observatory_to_value(o: &ObservatorySnapshot) -> Value {
    let rates = o
        .rates
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("principal".to_string(), Value::Str(r.principal.clone())),
                (
                    "window_denials".to_string(),
                    Value::Num(u128::from(r.window_denials)),
                ),
                (
                    "window_overloads".to_string(),
                    Value::Num(u128::from(r.window_overloads)),
                ),
                (
                    "total_denials".to_string(),
                    Value::Num(u128::from(r.total_denials)),
                ),
                (
                    "total_overloads".to_string(),
                    Value::Num(u128::from(r.total_overloads)),
                ),
            ])
        })
        .collect();
    let alerts = o
        .alerts
        .iter()
        .map(|a| {
            let mut fields = vec![
                ("kind".to_string(), Value::Str(a.kind.as_str().to_string())),
                ("at".to_string(), Value::Num(u128::from(a.at))),
            ];
            if let Some(p) = &a.principal {
                fields.push(("principal".to_string(), Value::Str(p.clone())));
            }
            fields.push(("detail".to_string(), Value::Str(a.detail.clone())));
            Value::Obj(fields)
        })
        .collect();
    Value::Obj(vec![
        ("window".to_string(), Value::Num(u128::from(o.window))),
        (
            "burst_threshold".to_string(),
            Value::Num(u128::from(o.burst_threshold)),
        ),
        (
            "samples".to_string(),
            Value::Num(u128::from(o.totals.samples)),
        ),
        (
            "denials".to_string(),
            Value::Num(u128::from(o.totals.denials)),
        ),
        (
            "overloads".to_string(),
            Value::Num(u128::from(o.totals.overloads)),
        ),
        (
            "faults".to_string(),
            Value::Num(u128::from(o.totals.faults)),
        ),
        (
            "label_raises".to_string(),
            Value::Num(u128::from(o.totals.label_raises)),
        ),
        ("untracked".to_string(), Value::Num(u128::from(o.untracked))),
        ("rates".to_string(), Value::Arr(rates)),
        (
            "noisy_principals".to_string(),
            topk_to_value(&o.noisy_principals),
        ),
        ("hot_gates".to_string(), topk_to_value(&o.hot_gates)),
        ("alerts".to_string(), Value::Arr(alerts)),
        (
            "alerts_dropped".to_string(),
            Value::Num(u128::from(o.alerts_dropped)),
        ),
    ])
}

fn observatory_from_value(v: &Value) -> Result<ObservatorySnapshot, String> {
    let rates = v
        .get("rates")
        .and_then(Value::as_arr)
        .ok_or("observatory rates")?
        .iter()
        .map(|r| {
            Ok(PrincipalRate {
                principal: r
                    .get("principal")
                    .and_then(Value::as_str)
                    .ok_or("rate principal")?
                    .to_string(),
                window_denials: field_u64(r, "window_denials")?,
                window_overloads: field_u64(r, "window_overloads")?,
                total_denials: field_u64(r, "total_denials")?,
                total_overloads: field_u64(r, "total_overloads")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let alerts = v
        .get("alerts")
        .and_then(Value::as_arr)
        .ok_or("observatory alerts")?
        .iter()
        .map(|a| {
            let kind = a.get("kind").and_then(Value::as_str).ok_or("alert kind")?;
            Ok(Alert {
                kind: AlertKind::from_str_opt(kind).ok_or("unknown alert kind")?,
                at: field_u64(a, "at")?,
                principal: field_opt_str(a, "principal"),
                detail: a
                    .get("detail")
                    .and_then(Value::as_str)
                    .ok_or("alert detail")?
                    .to_string(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ObservatorySnapshot {
        window: field_u64(v, "window")?,
        burst_threshold: field_u64(v, "burst_threshold")?,
        totals: ObservatoryTotals {
            samples: field_u64(v, "samples")?,
            denials: field_u64(v, "denials")?,
            overloads: field_u64(v, "overloads")?,
            faults: field_u64(v, "faults")?,
            label_raises: field_u64(v, "label_raises")?,
        },
        untracked: field_u64(v, "untracked")?,
        rates,
        noisy_principals: topk_from_value(
            v.get("noisy_principals")
                .ok_or("missing noisy_principals")?,
        )?,
        hot_gates: topk_from_value(v.get("hot_gates").ok_or("missing hot_gates")?)?,
        alerts,
        alerts_dropped: field_u64(v, "alerts_dropped")?,
    })
}
