//! Nested span accounting over the simulated clock.
//!
//! A span brackets one activity (a gate call, a fault service, a device
//! operation) between two readings of the cycle clock. Spans nest: the
//! span opened most recently is the parent of the next one opened. On
//! close, a span knows its **inclusive** cycles (close time − open
//! time) and its **exclusive** cycles (inclusive minus the inclusive
//! time of its direct children) — so for any completed tree, the
//! exclusive cycles of all nodes sum exactly to the root's inclusive
//! total, which is what lets one gate call be *attributed* across
//! layers without double counting.

use std::collections::BTreeMap;
use std::rc::Rc;

use crate::clock::Cycles;
use crate::record::Layer;

/// Identifies one span for the duration of a recording. Monotone,
/// never reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpanId(pub u64);

/// A span still on the open stack.
#[derive(Debug)]
pub(crate) struct OpenSpan {
    pub id: SpanId,
    pub layer: Layer,
    pub label: &'static str,
    pub start: Cycles,
    /// Sum of direct children's inclusive cycles, accumulated as they
    /// close.
    pub child_inclusive: Cycles,
    /// Closed direct children, in completion order.
    pub children: Vec<SpanNode>,
    /// Profiled spans feed their inclusive cycles into this quantile
    /// sketch at close, with the principal riding into its exemplars.
    /// Both are shared, not copied: the name is a static and the
    /// principal the process's own rendering.
    pub profile: Option<(&'static str, Option<Rc<str>>)>,
}

/// A completed span, with its completed children.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanNode {
    /// The span's id.
    pub id: SpanId,
    /// Owning layer.
    pub layer: Layer,
    /// Human-readable label (gate entry name, "fault.service", …).
    pub label: &'static str,
    /// Open time.
    pub start: Cycles,
    /// Total cycles between open and close.
    pub inclusive: Cycles,
    /// Cycles not attributed to any child span.
    pub exclusive: Cycles,
    /// Completed children, oldest first.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Sums `exclusive` over this node and all descendants. For a
    /// well-nested tree this equals the root's `inclusive` — the
    /// attribution identity the observability tests assert.
    pub fn exclusive_sum(&self) -> Cycles {
        self.exclusive
            + self
                .children
                .iter()
                .map(SpanNode::exclusive_sum)
                .sum::<Cycles>()
    }

    /// Distinct layers appearing in this tree.
    pub fn layers(&self) -> Vec<Layer> {
        let mut set = std::collections::BTreeSet::new();
        self.collect_layers(&mut set);
        set.into_iter().collect()
    }

    fn collect_layers(&self, set: &mut std::collections::BTreeSet<Layer>) {
        set.insert(self.layer);
        for c in &self.children {
            c.collect_layers(set);
        }
    }

    /// Adds this node's exclusive cycles (and its descendants') to the
    /// per-layer accumulation map.
    pub(crate) fn accumulate(&self, totals: &mut BTreeMap<Layer, LayerTotals>) {
        let t = totals.entry(self.layer).or_default();
        t.spans += 1;
        t.inclusive += self.inclusive;
        t.exclusive += self.exclusive;
        for c in &self.children {
            c.accumulate(totals);
        }
    }
}

/// Cumulative per-layer span accounting (over *completed* spans).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct LayerTotals {
    /// Completed spans owned by the layer.
    pub spans: u64,
    /// Total inclusive cycles of those spans.
    pub inclusive: Cycles,
    /// Total exclusive cycles — this column sums, across layers, to the
    /// inclusive time of all completed root spans.
    pub exclusive: Cycles,
}
